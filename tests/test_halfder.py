"""Constraint assembly, null spaces, stabilization and named half-derivations."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import isqrt
from pathlib import Path
from typing import Callable
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (classified_degree_by_degree, intersect_by_zassenhaus, provenances,
                     rows_by_rule_calls, scalar_rows, stabilized_by_full_kernels)

from blockq import algebra, halfder
from blockq.algebra import EVEN, ODD, BasisIndex, Window
from blockq.errors import (IntegralityViolation, OddMapOnNonSuper,
                           UnknownMapName, WrongQ)
from blockq.halfder import (ConstraintSystem, GradedMap, MapDegree, NullSpaceBasis,
                            _kernel, _rref_vectors, _shell_pairs, build_constraints,
                            builtin_map, check_map, classify, half_derivation_system,
                            null_space, shift_map, stabilize)
from blockq.scalars import Coeffs, Poly, RatFunc, parse_scalar, scalar_one
from blockq.specdsl import builtin_algebra, make_algebra, parse_spec

L = lambda m, i: BasisIndex(EVEN, m, i)
G = lambda m, i: BasisIndex(ODD, m, i)

INPUTS = Path(__file__).parent / "golden" / "inputs"

# antisymmetric, with a term even in (m, n)
SKEW_MIXED = """algebra X
super false
rule even even antisymmetric: n - m + j - i
"""


# odd odd declared symmetric but odd in (m, n): graded antisymmetry fails
SKEW_ODD_SYMMETRIC = """algebra Y
super true
rule even even antisymmetric: n - m
rule even odd antisymmetric: n - m
rule odd odd symmetric: m
"""


# a q*q term and fractional coefficients in every rule; G[m,i] . G[m,i] is nonzero
QQ_FRACTIONAL = """algebra QF
super true
rule even even antisymmetric: (1/2)*q*q*(n - m) + (2/3)*(n*i - m*j)
rule even odd antisymmetric: (3/4)*q*q*n - m*(j + (1/5)*q)
rule odd odd symmetric: (1/3)*q*q + (1/7)*(m + n)
"""


def scalar_row_for(cs: ConstraintSystem, x: BasisIndex, y: BasisIndex) -> dict:
    """Row generated for the unordered pair {x, y} (stored canonically)."""
    for (entries, rx, ry), row in zip(cs.rows, scalar_rows(cs)):
        if (rx, ry) in ((x, y), (y, x)):
            return row
    raise AssertionError(f"no row generated for pair {x}, {y}")


def same_constraint(row: dict, expected: dict) -> bool:
    """Equal as linear constraints, i.e. up to a nonzero scalar multiple."""
    if set(row) != set(expected):
        return False
    ref = next(iter(expected))
    factor = row[ref] * expected[ref].inv() if hasattr(expected[ref], "inv") \
        else row[ref] / expected[ref]
    return all(row[u] == expected[u] * factor for u in expected)


class TestBuildConstraints:
    def test_block_degree_zero_row(self):
        # 2(-1-q) d(1,1) = (-1-q) d(1,0) + (-1-q) d(0,1)
        alg = builtin_algebra("B", None)
        cs = build_constraints(alg, MapDegree(EVEN, 0, 0), Window(2, 2))
        row = scalar_row_for(cs, L(1, 0), L(0, 1))
        A = RatFunc.const(-1) - RatFunc.q()
        assert same_constraint(row, {L(1, 1): A + A, L(1, 0): -A, L(0, 1): -A})

    def test_alpha_satisfies_its_row(self):
        # at q=1, degree (0,1): the row generated by (0,-2),(1,0) vanishes on alpha
        alg = builtin_algebra("B", Fraction(1))
        cs = build_constraints(alg, MapDegree(EVEN, 0, 1), Window(2, 2))
        alpha = {L(0, -2): Fraction(1)}
        row = scalar_row_for(cs, L(0, -2), L(1, 0))
        acc = sum(c * alpha.get(u, Fraction(0)) for u, c in row.items())
        assert acc == 0

    def test_super_even_shift_couples_d0_and_d1(self):
        # the (G,G) pair row encodes 2q d0(m+n,i+j) = q(d1(m,i) + d1(n,j))
        alg = builtin_algebra("S", None)
        cs = build_constraints(alg, MapDegree(EVEN, 0, 0), Window(2, 2))
        row = scalar_row_for(cs, G(1, 0), G(0, 1))
        q = RatFunc.q()
        assert same_constraint(
            row, {L(1, 1): q + q, G(1, 0): -q, G(0, 1): -q})

    def test_rows_reference_window_unknowns_only(self):
        alg = builtin_algebra("S", Fraction(2))
        w = Window(2, 3)
        cs = build_constraints(alg, MapDegree(ODD, 1, -1), w)
        for row in scalar_rows(cs):
            for idx in row:
                assert w.contains(idx.m, idx.i)

    def test_odd_shift_needs_super(self):
        alg = builtin_algebra("B", Fraction(1))
        with pytest.raises(OddMapOnNonSuper):
            build_constraints(alg, MapDegree(ODD, 0, 0), Window(2, 2))

    @pytest.mark.parametrize("name,q,deg,w", [
        ("mutated_B", Fraction(2), MapDegree(EVEN, 1, 0), Window(2, 3)),
        ("skew_odd_symmetric", Fraction(2), MapDegree(ODD, 1, 0), Window(1, 2)),
    ])
    def test_both_orders_without_antisymmetry(self, name, q, deg, w):
        # the spec fails graded antisymmetry, so the row of (y, x) need not be
        # plus or minus the row of (x, y): both are imposed, streamed or not
        alg = _spec(name, q)
        comp = alg.compiled()
        assert not comp.antisymmetric

        def image(x):
            return BasisIndex(x.parity ^ deg.parity_shift, x.m + deg.r, x.i + deg.s)

        def row(x, y):
            # 2 c(x, y) d(x + y) - c(phi x, y) d(x) - (-1)^{|phi||x|} c(x, phi y) d(y)
            sign = -1 if deg.parity_shift and x.parity else 1
            out = {}
            for u, c in ((x.plus(y), 2 * comp.coeff(x, y)), (x, -comp.coeff(image(x), y)),
                         (y, -sign * comp.coeff(x, image(y)))):
                out[u] = out.get(u, 0) + c
            return {u: c for u, c in out.items() if c}

        cs = build_constraints(alg, deg, w)
        got = {(x, y): {cs.unknowns[u]: v for u, v in entries} for entries, x, y in cs.rows}
        differ = 0
        for x, y in combinations(w.basis(alg.parities), 2):
            if w.contains(x.m + y.m, x.i + y.i):
                a, b = row(x, y), row(y, x)
                if b not in (a, {u: -c for u, c in a.items()}):
                    differ += 1
                    assert got.get((x, y), {}) == a and got.get((y, x), {}) == b
        assert differ
        streamed = half_derivation_system(alg, deg)(w).rows(bytearray(len(cs.unknowns)))
        assert {(BasisIndex(p1, m1, i1), BasisIndex(p2, m2, i2))
                for _e, (p1, p2, m1, i1, m2, i2) in streamed} == set(got)

    @pytest.mark.parametrize("name,q,deg,w", [
        ("B", Fraction(2), MapDegree(EVEN, 1, -2), Window(3, 4)),
        ("S", Fraction(2), MapDegree(ODD, 0, 1), Window(2, 3)),
        ("S", None, MapDegree(EVEN, -1, 0), Window(2, 2)),
    ])
    def test_rows_in_natural_pair_order(self, name, q, deg, w):
        # check_map keeps its first witnesses in row order, so this order is
        # part of the check-map and verify-tp reports
        cs = build_constraints(builtin_algebra(name, q), deg, w)
        keys = [(x.parity, y.parity, x.m, x.i, y.m, y.i) for x, y in provenances(cs)]
        assert keys == sorted(set(keys))


class TestNullSpace:
    def test_empty_system(self):
        alg = builtin_algebra("B", Fraction(1))
        unknowns = [L(0, 0), L(1, 0), L(1, 1)]
        cs = ConstraintSystem(alg.compiled(), unknowns, [])
        ns = null_space(cs)
        assert ns.dimension == 3
        assert ns.vectors == [{u: Fraction(1)} for u in unknowns]

    def test_rank_two_system(self):
        alg = builtin_algebra("B", Fraction(1))
        unknowns = [L(0, 0), L(1, 0), L(1, 1)]
        rows = [(((0, 1), (1, -1)), L(0, 0), L(1, 0)),
                (((1, 1),), L(1, 0), L(1, 0))]
        cs = ConstraintSystem(alg.compiled(), unknowns, rows)
        ns = null_space(cs)
        assert ns.dimension == 1
        assert ns.vectors == [{L(1, 1): Fraction(1)}]

    def test_identity_in_block_null_space(self):
        alg = builtin_algebra("B", None)
        ns = null_space(build_constraints(alg, MapDegree(EVEN, 0, 0), Window(3, 3)))
        one = RatFunc.const(1)
        ident = {L(m, i): one for m, i in Window(3, 3).points()}
        assert ns.contains(ident)

    def test_echelon_determinism_under_row_permutation(self):
        alg = builtin_algebra("B", Fraction(2))
        cs = build_constraints(alg, MapDegree(EVEN, 0, 2), Window(3, 4))
        ns1 = null_space(cs)
        rng = random.Random(7)
        for _ in range(3):
            shuffled = ConstraintSystem(cs.algebra, cs.unknowns,
                                        rng.sample(cs.rows, len(cs.rows)))
            ns2 = null_space(shuffled)
            assert ns2.dimension == ns1.dimension
            assert ns2.vectors == ns1.vectors

    @pytest.mark.parametrize("deg", [MapDegree(EVEN, 0, 0), MapDegree(EVEN, 0, 2),
                                     MapDegree(EVEN, 1, -1)])
    @pytest.mark.parametrize("q0", [Fraction(0), Fraction(2), Fraction(5)])
    def test_generic_dimension_bounds_fixed(self, deg, q0):
        w = Window(3, 3)
        gen = null_space(build_constraints(builtin_algebra("B", None), deg, w))
        fix = null_space(build_constraints(builtin_algebra("B", q0), deg, w))
        assert gen.dimension <= fix.dimension

    def test_restriction_satisfies_smaller_window_rows(self):
        alg = builtin_algebra("B", Fraction(2))
        deg = MapDegree(EVEN, 0, 2)
        big = null_space(build_constraints(alg, deg, Window(4, 5)))
        w_small = Window(3, 4)
        small = build_constraints(alg, deg, w_small)
        for vec in big.vectors:
            restricted = {k: v for k, v in vec.items()
                          if w_small.contains(k.m, k.i)}
            for row in scalar_rows(small):
                acc = sum(c * restricted.get(u, Fraction(0))
                          for u, c in row.items())
                assert acc == 0


def _raw_value(generic: bool):
    """Nonzero raw row coefficients: ints, or `Coeffs` of ints."""
    if generic:
        return st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any).map(Coeffs)
    return st.integers(-4, 4).filter(bool)


@st.composite
def sparse_systems(draw):
    generic = draw(st.booleans())
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, n - 1), _raw_value(generic),
                        min_size=1, max_size=3),
        max_size=12))
    return generic, n, [tuple(sorted(row.items())) for row in rows]


def _spy_kernel(monkeypatch) -> list[int]:
    """Record how many rows each exact `_kernel` call in halfder receives."""
    calls: list[int] = []

    def spy(rows, cols, one):
        rows = list(rows)
        calls.append(len(rows))
        return _kernel(rows, cols, one)

    monkeypatch.setattr(halfder, "_kernel", spy)
    return calls


def _propagated(cs: ConstraintSystem) -> halfder._ZeroPropagation:
    """Zero propagation of every row of `cs`."""
    prop = halfder._ZeroPropagation(len(cs.unknowns))
    for entries, *_provenance in cs.rows:
        prop.add(entries)
    return prop


def _left_after_propagation(cs: ConstraintSystem) -> int:
    """Unknowns that zero propagation of every row of `cs` leaves unforced."""
    return _propagated(cs).left


def _kept_after_propagation(cs: ConstraintSystem) -> int:
    """Rows propagation keeps that still have two or more live entries at the end."""
    return sum(count >= 2 for count in _propagated(cs).counts)


class TestCertifiedNullSpace:
    @settings(max_examples=300, deadline=None)
    @given(system=sparse_systems(), prime=st.sampled_from([2**31 - 1, 3, 2]))
    def test_matches_plain_exact_kernel(self, system, prime):
        # small primes lose rank mod p often, which drives the fallback too
        generic, n, entries = system
        alg = builtin_algebra("B", None if generic else Fraction(1))
        unknowns = [L(0, i) for i in range(n)]
        cs = ConstraintSystem(alg.compiled(), unknowns,
                              [(e, L(0, 0), L(0, 0)) for e in entries])
        with mock.patch.object(halfder, "_PRIME", prime):
            got = null_space(cs)
        lift = (lambda v: RatFunc(Poly(v))) if generic else Fraction
        plain = _kernel([{u: lift(v) for u, v in e} for e in entries], range(n),
                        scalar_one(alg.q))
        expected = _rref_vectors([{unknowns[u]: v for u, v in vec.items()}
                                  for vec in plain])
        assert got.vectors == expected
        assert got.dimension == len(expected)

    @settings(max_examples=200, deadline=None)
    @given(system=sparse_systems(), cuts=st.lists(st.integers(0, 12), max_size=4))
    def test_modp_echelon_in_batches(self, system, cuts):
        generic, n, entries = system
        whole, parts = halfder._ModpEchelon(), halfder._ModpEchelon()
        halfder._modp_pivot_rows(whole, entries, generic, n)
        ends = sorted(set(cuts) | {0, len(entries)})
        for a, b in zip(ends, ends[1:]):
            halfder._modp_pivot_rows(parts, entries[a:b], generic, n)
        assert parts.pivots == whole.pivots
        # reduced echelon form, and `users` indexes exactly the non-pivot entries
        for piv, row in whole.pivots.items():
            assert row[piv] == 1 and all(row.values())
            assert not any(c in whole.pivots for c in row if c != piv)
        assert {(c, r) for c, rs in whole.users.items() for r in rs} == \
            {(c, r) for r, row in whole.pivots.items() for c in row if c != r}
        if not generic:
            # entries in [-4, 4] on at most 7 columns: no nonzero minor reaches _PRIME
            plain = _kernel([{u: Fraction(v) for u, v in e} for e in entries], range(n),
                            Fraction(1))
            assert len(whole.pivots) == n - len(plain)

    @pytest.mark.parametrize("q,deg,w", [
        (Fraction(2), MapDegree(EVEN, 0, 2), Window(3, 4)),
        (None, MapDegree(EVEN, 0, 0), Window(3, 3)),
    ])
    def test_rank_lost_mod_p_falls_back_to_all_rows(self, monkeypatch, q, deg, w):
        cs = build_constraints(builtin_algebra("B", q), deg, w)
        expected = null_space(cs)
        calls = _spy_kernel(monkeypatch)
        monkeypatch.setattr(halfder, "_PRIME", 2)
        got = null_space(cs)
        assert got.vectors == expected.vectors
        # the echelon mod 2 gave too large a kernel, so a lifted vector broke
        # a row; one exact solve took every kept row
        assert calls == [_kept_after_propagation(cs)]

    def test_zero_kernel_proved_mod_p(self, monkeypatch):
        cs = build_constraints(builtin_algebra("B", None), MapDegree(EVEN, 0, 1),
                               Window(3, 4))
        assert _left_after_propagation(cs) > 0
        full = []
        modp = halfder._modp_pivot_rows

        def spy(ech, rows, generic, ncols):
            modp(ech, rows, generic, ncols)
            full.append(len(ech.pivots) == ncols)

        monkeypatch.setattr(halfder, "_modp_pivot_rows", spy)
        calls = _spy_kernel(monkeypatch)
        assert null_space(cs).dimension == 0
        assert full and full[-1]  # the mod-p rank reached the column count
        assert calls == []

    @staticmethod
    def _spy_fed(monkeypatch) -> list:
        """Record every row `_modp_pivot_rows` receives."""
        fed = []
        modp = halfder._modp_pivot_rows

        def spy(ech, rows, generic, ncols):
            rows = list(rows)
            fed.extend(rows)
            modp(ech, rows, generic, ncols)

        monkeypatch.setattr(halfder, "_modp_pivot_rows", spy)
        return fed

    @pytest.mark.parametrize("q,deg,w,dim", [
        (None, MapDegree(EVEN, 0, 0), Window(3, 4), 1),  # id; nothing forced
        (Fraction(2), MapDegree(EVEN, 0, 2), Window(3, 6), 1),  # alpha; 2 forced
    ])
    def test_each_kept_row_and_forced_column_enters_the_echelon_once(
            self, monkeypatch, q, deg, w, dim):
        # an open kernel: every row streams past, and the kernel is lifted
        # from this one echelon
        alg = builtin_algebra("B", q)
        prop = halfder._ZeroPropagation(len(w.basis(alg.parities)))
        for entries, _pair in halfder._rows(alg, deg, w, _shell_pairs(alg, deg, w)):
            prop.add(entries)
        fed = self._spy_fed(monkeypatch)
        calls = _spy_kernel(monkeypatch)
        assert null_space(half_derivation_system(alg, deg)(w)).dimension == dim
        # a forced column enters as a unit row, a kept row with two or more
        # live entries
        units = [row[0][0] for row in fed if len(row) == 1]
        assert len(set(units)) == len(units) and all(prop.forced[u] for u in units)
        assert len(fed) - len(units) <= len(prop.rows)
        # the lifted kernel passed the row check: no exact solve ran
        assert calls == []

    def test_no_live_kept_row_feeds_nothing(self, monkeypatch):
        # propagation forces 129 of the 130 unknowns and leaves no kept row
        # with a live entry: the one live unknown is free, and no batch runs
        alg = builtin_algebra("S", Fraction(2))
        deg, w = MapDegree(ODD, 0, 1), Window(2, 6)
        fed = self._spy_fed(monkeypatch)
        assert null_space(half_derivation_system(alg, deg)(w)).dimension == 1
        assert fed == []


def _lin(terms: list, generic: bool):
    """The raw value sum of c * v over the (int c, raw value v) terms."""
    if not generic:
        return sum(c * v for c, v in terms)
    width = max(len(v) for _c, v in terms)
    return Coeffs(sum(c * v[j] for c, v in terms if j < len(v)) for j in range(width))


def _raw_row(cols: dict, generic: bool) -> tuple:
    """Entries of a {column: raw value} table, zero values dropped."""
    return tuple((u, v) for u, v in sorted(cols.items()) if (any(v) if generic else v))


def _combined(a: tuple, b: tuple, ca: int, cb: int, generic: bool) -> tuple:
    """The raw row ca * a + cb * b."""
    cols: dict = {}
    for c, row in ((ca, a), (cb, b)):
        for u, v in row:
            cols.setdefault(u, []).append((c, v))
    return _raw_row({u: _lin(terms, generic) for u, terms in cols.items()}, generic)


@st.composite
def stalling_systems(draw):
    """Rows that vanish on a drawn integer vector x, so an open kernel, with
    combinations of earlier rows mixed in.

    A drawn row is scaled and its entry at a column p where x is nonzero set
    to cancel the rest on x.  A combination lies in the row space of the
    rows before it, so a batch of them leaves the rank unchanged and starts
    check mode, and a later drawn row may grow the rank again.
    """
    generic = draw(st.booleans())
    n = draw(st.integers(2, 7))
    x = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    rows: list[tuple] = []
    for _ in range(draw(st.integers(1, 8))):
        row = draw(st.dictionaries(st.integers(0, n - 1), _raw_value(generic),
                                   min_size=2, max_size=3))
        p = next((u for u in row if x[u]), None)
        if p is not None:
            rest = [(u, v) for u, v in row.items() if u != p]
            row = {u: _lin([(x[p], v)], generic) for u, v in rest}
            row[p] = _lin([(-x[u], v) for u, v in rest], generic)
        rows.append(_raw_row(row, generic))
        for _ in range(draw(st.integers(0, 4))):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            combo = _combined(a, b, draw(st.integers(-2, 2)), draw(st.integers(-2, 2)),
                              generic)
            if combo:
                rows.append(combo)
    return generic, n, [row for row in rows if row]


def _solve_in_check_mode(generic: bool, n: int, entries: list, prime: int, batch: int):
    """null_space of the rows at `prime` and `_BATCH` = batch, and the plain exact kernel."""
    alg = builtin_algebra("B", None if generic else Fraction(1))
    unknowns = [L(0, i) for i in range(n)]
    cs = ConstraintSystem(alg.compiled(), unknowns, [(e,) for e in entries])
    with mock.patch.object(halfder, "_PRIME", prime), \
            mock.patch.object(halfder, "_BATCH", batch):
        got = null_space(cs)
    lift = (lambda v: RatFunc(Poly(v))) if generic else Fraction
    plain = _kernel([{u: lift(v) for u, v in e} for e in entries], range(n),
                    scalar_one(alg.q))
    return got, _rref_vectors([{unknowns[u]: v for u, v in vec.items()} for vec in plain])


def _spy_fed_rows(monkeypatch) -> list:
    """Record the Entries of every row that reaches zero propagation."""
    fed = []
    add = halfder._ZeroPropagation.add

    def spy(self, entries):
        fed.append(entries)
        return add(self, entries)

    monkeypatch.setattr(halfder._ZeroPropagation, "add", spy)
    return fed


def _stall_then_grow(generic: bool) -> list[tuple]:
    """Rows on x0..x3 that, at _BATCH = 2, stall, grow the rank, and stall again.

    Rows 3-4 (2a, a + b) stall at rank 2: the certified kernel
    <(1,1,0,0), (0,0,1,1)> drops row 5 (3b).  Row 6 (x1 - x2) breaks it and
    grows the rank to 3; rows 7-8 stall again, and row 9 (b) is dropped on
    the lift <(1,1,1,1)>.
    """
    one, neg = (Coeffs((1,)), Coeffs((-1,))) if generic else (1, -1)
    a, b, f = ((0, one), (1, neg)), ((2, one), (3, neg)), ((1, one), (2, neg))
    return [a, b, _combined(a, a, 1, 1, generic), _combined(a, b, 1, 1, generic),
            _combined(b, b, 1, 2, generic), f, _combined(a, f, 1, 1, generic),
            _combined(f, f, 1, 1, generic), b]


def _lift_fails_after_drops(generic: bool) -> list[tuple]:
    """`_stall_then_grow` up to row 5 (dropped), then a row tying x0 to x2 by
    65537 x0 = 3 x2 (fixed q) or q x0 = x2 (generic), so the last lift fails."""
    rows = _stall_then_grow(generic)[:5]
    return rows + [((0, Coeffs((0, 1))), (2, Coeffs((-1,)))) if generic
                   else ((0, 65537), (2, -3))]


class TestCheckMode:
    @settings(max_examples=300, deadline=None)
    @given(system=stalling_systems(), prime=st.sampled_from([2**31 - 1, 3, 2]),
           batch=st.integers(2, 4))
    @example(system=(False, 4, _stall_then_grow(False)), prime=2**31 - 1, batch=2)
    @example(system=(True, 4, _stall_then_grow(True)), prime=2**31 - 1, batch=2)
    @example(system=(False, 4, _lift_fails_after_drops(False)), prime=2**31 - 1, batch=2)
    @example(system=(True, 4, _lift_fails_after_drops(True)), prime=2**31 - 1, batch=2)
    def test_matches_plain_exact_kernel(self, system, prime, batch):
        # a short _BATCH lets a few dozen rows stall a batch; small primes
        # make lifts that fail their certificate, before and after rows are
        # dropped
        generic, n, entries = system
        got, expected = _solve_in_check_mode(generic, n, entries, prime, batch)
        assert got.vectors == expected
        assert got.dimension == len(expected)

    @pytest.mark.parametrize("generic", [False, True])
    def test_rank_stalls_then_grows(self, monkeypatch, generic):
        rows = _stall_then_grow(generic)
        fed = _spy_fed_rows(monkeypatch)
        lifts = _spy_lifts(monkeypatch, "_lifted_kernel")
        calls = _spy_kernel(monkeypatch)
        got, expected = _solve_in_check_mode(generic, 4, rows, 2**31 - 1, 2)
        assert got.vectors == expected and got.dimension == 1
        assert fed == [row for k, row in enumerate(rows, 1) if k not in (5, 9)]
        assert [len(vecs) for vecs in lifts] == [2, 1]
        assert calls == []

    @pytest.mark.parametrize("generic", [False, True])
    def test_failing_lift_after_dropped_rows_solves_the_rest(self, monkeypatch, generic):
        # the exact solve takes every row but the dropped one
        rows = _lift_fails_after_drops(generic)
        fed = _spy_fed_rows(monkeypatch)
        lifts = _spy_lifts(monkeypatch, "_lifted_kernel")
        calls = _spy_kernel(monkeypatch)
        got, expected = _solve_in_check_mode(generic, 4, rows, 2**31 - 1, 2)
        assert got.vectors == expected and got.dimension == 1
        assert fed == rows[:4] + rows[5:]
        assert len(lifts) == 2 and lifts[0] is not None
        assert calls == [5]

    def test_identity_degree_feeds_few_rows(self, monkeypatch):
        # B(2), degree (0, 0), window 4x7: the rank stops growing within the
        # first batches; the certified <id> then drops every later row.  The
        # lazy source still reads every row, since nothing is forced here.
        alg = builtin_algebra("B", Fraction(2))
        deg, w = MapDegree(EVEN, 0, 0), Window(4, 7)
        total = len(build_constraints(alg, deg, w).rows)
        assert total == 4832
        taken = _count_rows(monkeypatch)
        fed = _spy_fed_rows(monkeypatch)
        calls = _spy_kernel(monkeypatch)
        ns = null_space(half_derivation_system(alg, deg)(w))
        assert ns.contains(builtin_map("id", alg, w).table) and ns.dimension == 1
        assert taken[0] == total
        assert len(fed) == 256
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.dictionaries(st.integers(0, 4), _raw_value(True),
                                         min_size=1, max_size=3), max_size=6),
           vec=st.dictionaries(st.integers(0, 4), st.integers(-3, 3).filter(bool),
                               max_size=5))
    def test_q_free_row_check_matches_polynomials(self, rows, vec):
        # a q-free vector's check accumulates ints per power of q; a row may
        # carry more powers than the algebra's rules
        comp = builtin_algebra("B", None).compiled()
        violated = halfder._row_violated({u: Coeffs((w,)) for u, w in vec.items()}, comp)
        for row in rows:
            entries = tuple(sorted(row.items()))
            acc = Poly()
            for u, v in entries:
                acc = acc + Poly(v) * Poly.const(vec.get(u, 0))
            assert violated(entries) == (not acc.is_zero)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.dictionaries(st.integers(0, 4), _raw_value(True),
                                         min_size=1, max_size=3), max_size=6),
           vec=st.dictionaries(st.integers(0, 4), _raw_value(True), min_size=1, max_size=5))
    def test_row_check_matches_polynomials(self, rows, vec):
        # a vector with q in it takes the general check, on `Coeffs` operators
        assume(any(len(w) > 1 for w in vec.values()))
        comp = builtin_algebra("B", None).compiled()
        violated = halfder._row_violated(vec, comp)
        for row in rows:
            acc = Poly()
            for u, v in row.items():
                acc = acc + Poly(v) * Poly(vec.get(u, ()))
            assert violated(tuple(row.items())) == (not acc.is_zero)


def _spy_lifts(monkeypatch, name: str) -> list:
    """Record what each call of halfder's `name` (a lift helper) returns."""
    out = []
    fn = getattr(halfder, name)

    def spy(*args):
        got = fn(*args)
        out.append(got)
        return got

    monkeypatch.setattr(halfder, name, spy)
    return out


class TestLiftedKernel:
    @pytest.mark.parametrize("prime", [3, 5, 101, 1009])
    def test_reconstruction_is_exact_inside_the_bound(self, monkeypatch, prime):
        # every residue: the one fraction inside the bound that maps to it,
        # or None when none does
        monkeypatch.setattr(halfder, "_PRIME", prime)
        bound = isqrt(prime // 2)
        inside: dict[int, set] = {}
        for a in range(-bound, bound + 1):
            for b in range(1, bound + 1):
                inside.setdefault(a * pow(b, -1, prime) % prime, set()).add(Fraction(a, b))
        assert all(len(fracs) == 1 for fracs in inside.values())
        for u in range(prime):
            want = inside.get(u)
            assert halfder._reconstruct(u) == (None if want is None else min(want))

    def test_reconstruction_round_trips_at_the_word_prime(self):
        p = halfder._PRIME
        bound = isqrt(p // 2)
        rng = random.Random(11)
        fracs = [Fraction(a, b) for a in (0, 1, -1, bound, -bound) for b in (1, bound)]
        fracs += [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(500)]
        for x in fracs:
            assert halfder._reconstruct(x.numerator * pow(x.denominator, -1, p) % p) == x

    @pytest.mark.parametrize("generic", [False, True])
    def test_lift_has_no_entry_at_a_forced_column(self, generic):
        # x0 + 2 x1 = 0 mod p: column 1's vector is (-2, 1), which is
        # rejected once x0 is forced, since x0 = 0 in every solution
        ech = halfder._ModpEchelon()
        row = [(0, Coeffs((1,))), (1, Coeffs((2,)))] if generic else [(0, 1), (1, 2)]
        halfder._modp_pivot_rows(ech, [row], generic, 2)
        q = None if generic else Fraction(1)
        one = scalar_one(q)
        assert halfder._lifted_kernel(ech, [1], bytearray(2), q) == [{1: one, 0: -(one + one)}]
        assert halfder._lifted_kernel(ech, [1], bytearray([1, 0]), q) is None

    def test_generic_kernel_that_depends_on_q_falls_back(self, monkeypatch):
        # q x0 - x1 = 0: the kernel (1, q) has no q-free lift
        alg = builtin_algebra("B", None)
        unknowns = [L(0, 0), L(0, 1)]
        cs = ConstraintSystem(alg.compiled(), unknowns,
                              [(((0, Coeffs((0, 1))), (1, Coeffs((-1,)))),)])
        lifts = _spy_lifts(monkeypatch, "_reconstruct")
        calls = _spy_kernel(monkeypatch)
        got = null_space(cs)
        assert lifts and calls == [1]
        one, q = RatFunc.const(1), RatFunc.q()
        oracle = _kernel([{0: q, 1: -one}], range(2), one)
        assert got.vectors == _rref_vectors([{unknowns[u]: v for u, v in vec.items()}
                                             for vec in oracle])
        assert got.vectors == [{L(0, 0): one, L(0, 1): q}]

    def test_entry_beyond_the_bound_falls_back(self, monkeypatch):
        # 65537 x0 - 3 x1 = 0: the kernel vector's entry 3/65537 has a
        # denominator beyond isqrt(_PRIME // 2)
        alg = builtin_algebra("B", Fraction(2))
        unknowns = [L(0, 0), L(0, 1)]
        cs = ConstraintSystem(alg.compiled(), unknowns, [(((0, 65537), (1, -3)),)])
        lifts = _spy_lifts(monkeypatch, "_reconstruct")
        calls = _spy_kernel(monkeypatch)
        got = null_space(cs)
        assert lifts and calls == [1]
        oracle = _kernel([{0: Fraction(65537), 1: Fraction(-3)}], range(2), Fraction(1))
        assert got.vectors == _rref_vectors([{unknowns[u]: v for u, v in vec.items()}
                                             for vec in oracle])
        assert got.vectors == [{L(0, 0): Fraction(1), L(0, 1): Fraction(65537, 3)}]

    @pytest.mark.parametrize("name,bounds,windows", [
        ("B", (3, 3), [Window(3, 4), Window(4, 5)]),
        ("S", (2, 2), [Window(2, 2), Window(3, 3)]),
    ])
    def test_generic_pool_jobs_lift_every_open_kernel(self, monkeypatch, name, bounds,
                                                      windows):
        # the benchmark's classify-generic-q jobs: every open degree is
        # settled by a certified lift, and no exact solve with rows runs
        lifted = _spy_lifts(monkeypatch, "_lifted_kernel")
        calls = _spy_kernel(monkeypatch)
        report = classify(builtin_algebra(name, None), EVEN, bounds, windows)
        assert report.total_dim == 1
        assert lifted and None not in lifted
        assert not any(calls)


MUTATED_B = """algebra B
super false
rule even even antisymmetric: n*(i + q) - m*(j - q)
"""


@st.composite
def degree_problems(draw):
    """An algebra (B, S or a mutated B), a degree with |r|, |s| <= 3 and a window."""
    kind = draw(st.sampled_from(["B", "S", "mutated B"]))
    q = draw(st.one_of(st.none(), st.integers(-4, 4).map(Fraction),
                       st.tuples(st.integers(-7, 7), st.integers(2, 4))
                       .map(lambda t: Fraction(*t))))
    if kind == "mutated B":
        alg = make_algebra(parse_spec(MUTATED_B), q)
    else:
        alg = builtin_algebra(kind, q)
    shift = draw(st.sampled_from([EVEN, ODD] if alg.is_super else [EVEN]))
    deg = MapDegree(shift, draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    w = Window(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    return alg, deg, w


def _count_rows(monkeypatch) -> list[int]:
    """Count the rows `null_space` takes from the half-derivation row generator."""
    taken = [0]
    rows = halfder._rows

    def spy(*args):
        for row in rows(*args):
            taken[0] += 1
            yield row

    monkeypatch.setattr(halfder, "_rows", spy)
    return taken


class TestStreamedSolve:
    @settings(max_examples=150, deadline=None)
    @given(problem=degree_problems())
    def test_matches_all_rows_null_space(self, problem):
        alg, deg, w = problem
        # the expected side takes every row before its one batch, so never
        # stops early at full mod-p rank; the streamed side does in about
        # 40 % of the examples
        with mock.patch.object(halfder, "_BATCH", 10**9):
            expected = null_space(build_constraints(alg, deg, w))
        got = null_space(half_derivation_system(alg, deg)(w))
        assert got.vectors == expected.vectors
        assert got.dimension == expected.dimension

    @settings(max_examples=40, deadline=None)
    @given(is_super=st.booleans(), mm=st.integers(1, 4), ii=st.integers(1, 5))
    def test_shells_cover_the_natural_pairs_once(self, is_super, mm, ii):
        alg = builtin_algebra("S" if is_super else "B", Fraction(1))
        w = Window(mm, ii)
        shells = list(_shell_pairs(alg, MapDegree(EVEN, 0, 0), w))
        assert len(set(shells)) == len(shells)
        # outside in: the shell max(|m1|, |i1|, |m2|, |i2|) never grows
        ks = [max(abs(m1), abs(i1), abs(m2), abs(i2)) for _p1, _p2, m1, i1, m2, i2 in shells]
        assert ks == sorted(ks, reverse=True)
        # an independent oracle: every unordered pair whose points and sum lie in w
        pts = [(p, m, i) for p in alg.parities for m, i in w.points()]
        brute = {(x[0], y[0], x[1], x[2], y[1], y[2]) for x in pts for y in pts
                 if x <= y and w.contains(x[1] + y[1], x[2] + y[2])}
        assert set(shells) == brute

    def test_zero_kernel_stops_early(self, monkeypatch):
        alg = builtin_algebra("B", Fraction(2))
        deg, w = MapDegree(EVEN, 3, 3), Window(3, 6)
        total = len(build_constraints(alg, deg, w).rows)
        taken = _count_rows(monkeypatch)
        assert null_space(half_derivation_system(alg, deg)(w)).dimension == 0
        assert 0 < taken[0] < total

    def test_open_zero_kernel_stops_at_full_rank(self, monkeypatch):
        alg = builtin_algebra("S", Fraction(2))
        deg, w = MapDegree(ODD, 3, 0), Window(2, 6)
        cs = build_constraints(alg, deg, w)
        assert _left_after_propagation(cs) > 0
        taken = _count_rows(monkeypatch)
        assert null_space(half_derivation_system(alg, deg)(w)).dimension == 0
        assert 0 < taken[0] < len(cs.rows)

    def test_prime_two_gives_the_same_vectors(self, monkeypatch):
        # mod 2 the rank of S(2) odd falls short, which exercises the fallbacks
        alg = builtin_algebra("S", Fraction(2))
        w = Window(2, 6)
        degrees = [MapDegree(ODD, r, s) for r in range(-3, 4) for s in range(-3, 4)]
        systems = [half_derivation_system(alg, deg) for deg in degrees]
        expected = [null_space(system(w)).vectors for system in systems]
        monkeypatch.setattr(halfder, "_PRIME", 2)
        assert [null_space(system(w)).vectors for system in systems] == expected

    def test_alpha_degree_takes_every_row(self, monkeypatch):
        alg = builtin_algebra("B", Fraction(2))
        deg, w = MapDegree(EVEN, 0, 2), Window(3, 6)
        total = len(build_constraints(alg, deg, w).rows)
        taken = _count_rows(monkeypatch)
        ns = null_space(half_derivation_system(alg, deg)(w))
        assert taken[0] == total
        assert ns.dimension == 1
        assert ns.contains(builtin_map("alpha", alg, w).table)


@st.composite
def subspace_pairs(draw):
    """(W, U, V) with span(U) = span(W + A), span(V) = span(W + B), so U & V = span(W).

    Each vector of W, A and B has a private coordinate of its own, which
    makes the three families jointly independent, plus random values on a
    few shared coordinates.  U and V mix their families by a random
    unitriangular transform and may add dependent combinations.
    """
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def family(base, size):
        out = []
        for k in range(size):
            vec = {c: v for c in range(3) if (v := draw(frac))}
            vec[base + k] = draw(frac.filter(bool))
            out.append(vec)
        return out

    def combine(terms):
        acc: dict = {}
        for f, vec in terms:
            for c, v in vec.items():
                acc[c] = acc.get(c, 0) + f * v
        return {c: v for c, v in acc.items() if v}

    def mix(vectors):
        vectors = draw(st.permutations(vectors))
        out = [combine([(Fraction(1), vec)] + [(draw(frac), later) for later in vectors[k + 1:]])
               for k, vec in enumerate(vectors)]
        for _ in range(draw(st.integers(0, 2))):
            out.append(combine([(draw(frac), vec) for vec in vectors]))
        return draw(st.permutations(out))

    W = family(100, draw(st.integers(0, 3)))
    A = family(200, draw(st.integers(0, 2)))
    B = family(300, draw(st.integers(0, 2)))
    return W, mix(W + A), mix(W + B)


class TestIntersectAndContains:
    @settings(max_examples=50, deadline=None)
    @given(case=subspace_pairs())
    def test_intersection_is_the_common_family(self, case):
        W, U, V = case
        assert intersect_by_zassenhaus(U, V) == _rref_vectors(W)

    @staticmethod
    def basis() -> NullSpaceBasis:
        vectors = _rref_vectors([{L(0, 0): Fraction(1), L(0, 1): Fraction(2)},
                                 {L(0, 1): Fraction(1), L(1, 1): Fraction(-1, 3)}])
        return NullSpaceBasis(dimension=2, vectors=vectors)

    def test_explicit_zero_entries(self):
        ns = self.basis()
        assert ns.contains({L(0, 0): Fraction(0)})
        assert ns.contains({L(0, 0): Fraction(1), L(0, 1): Fraction(2),
                            L(1, 0): Fraction(0)})
        assert not ns.contains({L(0, 0): Fraction(1), L(1, 0): Fraction(0)})

    def test_index_outside_the_basis(self):
        assert not self.basis().contains({L(1, 0): Fraction(1)})
        assert not self.basis().contains({L(0, 0): Fraction(1), L(0, 1): Fraction(2),
                                          L(-1, -1): Fraction(5)})

    def test_combination_of_basis_vectors(self):
        ns = self.basis()
        a, b = ns.vectors
        table = {k: 3 * a.get(k, 0) - Fraction(1, 2) * b.get(k, 0) for k in set(a) | set(b)}
        assert ns.contains(table)
        table[L(1, 1)] += 1
        assert not ns.contains(table)


class TestStabilize:
    def test_block_generic_identity_degree(self):
        alg = builtin_algebra("B", None)
        st = stabilize(half_derivation_system(alg, MapDegree(EVEN, 0, 0)),
                       [Window(3, 3), Window(4, 4), Window(5, 5)])
        assert st.stable_dim == 1
        assert not st.warning

    def test_block_alpha_degree(self):
        alg = builtin_algebra("B", Fraction(2))
        st = stabilize(half_derivation_system(alg, MapDegree(EVEN, 0, 2)),
                       [Window(4, 6), Window(5, 7)])
        assert st.stable_dim == 1
        alpha = builtin_map("alpha", alg, Window(4, 6))
        assert st.basis.vectors == [alpha.table]

    def test_block_shift_degree_dies(self):
        alg = builtin_algebra("B", Fraction(2))
        st = stabilize(half_derivation_system(alg, MapDegree(EVEN, 1, 0)),
                       [Window(3, 3), Window(4, 4)])
        assert st.stable_dim == 0

    def test_needs_two_windows(self):
        alg = builtin_algebra("B", Fraction(2))
        with pytest.raises(ValueError):
            stabilize(half_derivation_system(alg, MapDegree(EVEN, 0, 0)), [Window(3, 3)])

    @pytest.mark.parametrize("deg", [(1, 1), (2, 0), (-1, 2), (0, 1), (3, -3)])
    def test_block_q2_other_degrees_vanish(self, deg):
        alg = builtin_algebra("B", Fraction(2))
        st = stabilize(half_derivation_system(alg, MapDegree(EVEN, *deg)),
                       [Window(3, 4), Window(4, 5)])
        assert st.stable_dim == 0

    @staticmethod
    def center_system(alg):
        """The center on each window: one row {x: [x, y]} per pair with [x, y] != 0.

        [sum c_x x, y] = sum c_x [x, y] has one term per x at the distinct
        index x + y, so each nonzero [x, y] forces c_x = 0.
        """
        comp = alg.compiled()

        def system(w):
            unknowns = w.basis(alg.parities)
            rows = [(((u, c),), x, y) for u, x in enumerate(unknowns) for y in unknowns
                    if (c := comp.coeff(x, y))]
            return ConstraintSystem(comp, unknowns, rows)
        return system

    @pytest.mark.parametrize("name,q,center", [
        # [L[0,-q], L[n,j]] = n(-q + q) L[n,j-q] = 0
        ("B", Fraction(2), [L(0, -2)]),
        ("B", Fraction(7, 3), []),
        ("B", None, []),
        ("S", Fraction(0), [L(0, 0), G(0, 0)]),
    ])
    def test_a_system_that_is_not_a_half_derivation_system(self, name, q, center):
        alg = builtin_algebra(name, q)
        st = stabilize(self.center_system(alg), [Window(3, 6), Window(4, 7)])
        one = scalar_one(alg.q)
        assert st.basis.vectors == [{x: one} for x in center]
        assert st.stable_dim == len(center) and not st.warning

    def test_classify_solves_each_window_through_null_space(self, monkeypatch):
        # w0 of every degree with r >= 0 (B is mirrored in r), then the next
        # window while the intersection lives
        alg = builtin_algebra("B", Fraction(2))
        windows = [Window(3, 6), Window(4, 7)]
        expected = classify(alg, EVEN, (1, 1), windows).to_json_dict()
        calls = []

        def spy(cs):
            ns = null_space(cs)
            calls.append((len(cs.unknowns), ns.dimension))
            return ns

        monkeypatch.setattr(halfder, "null_space", spy)
        assert classify(alg, EVEN, (1, 1), windows).to_json_dict() == expected
        n0, n1 = (len(w.basis(alg.parities)) for w in windows)
        w0_dims = [dim for n, dim in calls if n == n0]
        assert len(w0_dims) == 6 and any(w0_dims)
        assert [n for n, _dim in calls] == [n for dim in w0_dims
                                            for n in ([n0, n1] if dim else [n0])]


def _spy_seeds(monkeypatch) -> list[int]:
    """Record how many unit rows `stabilize` puts in front of each later window."""
    seeds: list[int] = []
    seeded = halfder._seeded

    def spy(cs, zeros):
        seeds.append(sum(label in zeros for label in cs.unknowns))
        return seeded(cs, zeros)

    monkeypatch.setattr(halfder, "_seeded", spy)
    return seeds


def _spy_kernel_calls(monkeypatch, comp) -> list[tuple]:
    """Record each call of comp's row kernels as (p1, p2, shift, r, s, m1,
    i1, m2, i2)."""
    calls: list[tuple] = []
    row_kernel = comp.row_kernel

    def spy(p1, p2, shift):
        factory = row_kernel(p1, p2, shift)

        def spied(r, s):
            row = factory(r, s)

            def counted(*args):
                calls.append((p1, p2, shift, r, s) + args)
                return row(*args)
            return counted
        return spied

    monkeypatch.setattr(comp, "row_kernel", spy)
    return calls


def _count_rule_calls(monkeypatch, alg) -> Callable[[], int]:
    """Count the rule evaluations of alg's compiled layer: one per call of a
    bracket-rule closure, three per row-kernel call."""
    calls = [0]
    comp = alg.compiled()
    for key, f in list(comp.pair.items()):
        def counted(*args, f=f):
            calls[0] += 1
            return f(*args)
        monkeypatch.setitem(comp.pair, key, counted)
    kernel_calls = _spy_kernel_calls(monkeypatch, comp)
    return lambda: calls[0] + 3 * len(kernel_calls)


@st.composite
def system_ladders(draw):
    """Random raw systems on three ascending windows, labelled by L(0, k):
    each window's labels a random choice of 0..7 and its rows random, or,
    on a nested ladder, the previous window's labels and rows with the
    drawn ones added."""
    generic = draw(st.booleans())
    nested = draw(st.booleans())
    alg = builtin_algebra("B", None if generic else Fraction(1))
    systems = {}
    labels, rows = [], []
    for w in (Window(1, 1), Window(2, 2), Window(3, 3)):
        drawn = draw(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
        labels = labels + [k for k in drawn if k not in labels] if nested else drawn
        n = len(labels)
        drawn = draw(st.lists(
            st.dictionaries(st.integers(0, n - 1), _raw_value(generic),
                            min_size=1, max_size=3),
            max_size=10))
        rows = rows + drawn if nested else drawn
        systems[w] = ([L(0, k) for k in labels], [tuple(sorted(row.items())) for row in rows])
    return alg, nested, systems


class TestSeedAndSkip:
    """Later windows start from unit rows for the w0 labels off the running
    intersection's support, and the lazy source skips pairs whose three
    unknowns are forced; neither changes a stabilized answer."""

    @pytest.mark.parametrize("name,q,deg,windows,seeded", [
        ("B", Fraction(2), MapDegree(EVEN, 0, 0), [Window(3, 6), Window(4, 7)], False),
        ("B", Fraction(2), MapDegree(EVEN, 0, 2), [Window(3, 6), Window(4, 7)], True),
        # gamma at G[0,6] lies on the rim of w0
        ("S", Fraction(-4), MapDegree(ODD, 0, -2), [Window(2, 6), Window(3, 7)], True),
        ("S", Fraction(0), MapDegree(ODD, 0, 0), [Window(2, 3), Window(3, 4)], True),
    ])
    def test_seeded_ladder_matches_full_kernels(self, monkeypatch, name, q, deg, windows,
                                                seeded):
        alg = builtin_algebra(name, q)
        expected = stabilized_by_full_kernels([build_constraints(alg, deg, w)
                                               for w in windows])
        seeds = _spy_seeds(monkeypatch)
        st = stabilize(half_derivation_system(alg, deg), windows)
        assert st.basis.vectors == expected and st.stable_dim == len(expected)
        assert st.intersection_dims[-1] == len(expected)
        assert bool(seeds and seeds[0]) == seeded

    def test_generic_hand_built_system(self, monkeypatch):
        # w0: the centralizer of L[0,0] in generic B, the line m = 0, since
        # [L[0,0], L[n,j]] = nq L[n,j].  The next window: maps constant on
        # each line m, whose full kernel has one vector per line.  Seeding
        # zeros the lines 0 < |m| <= 2, leaving the lines m = 0 and |m| = 3.
        alg = builtin_algebra("B", None)
        comp = alg.compiled()
        windows = [Window(2, 2), Window(3, 3)]

        def system(w):
            unknowns = w.basis(alg.parities)
            if w == windows[0]:
                rows = [(((u, c),),) for u, x in enumerate(unknowns)
                        if (c := comp.coeff(L(0, 0), x))]
            else:
                index = {x: u for u, x in enumerate(unknowns)}
                rows = [(((index[L(m, i)], comp.one), (index[L(m, i + 1)], -comp.one)),)
                        for m, i in w.points() if i < w.i_max]
            return ConstraintSystem(comp, unknowns, rows)

        seeds = _spy_seeds(monkeypatch)
        st = stabilize(system, windows)
        one = scalar_one(None)
        assert st.basis.vectors == [{L(0, i): one for i in range(-2, 3)}]
        assert st.basis.vectors == stabilized_by_full_kernels([system(w) for w in windows])
        assert seeds == [20] and st.window_dims == [5, 3]

    @settings(max_examples=200, deadline=None)
    @given(ladder=system_ladders())
    def test_any_ladder_matches_full_kernels(self, ladder):
        # stabilize is exact or refuses the ladder, and never refuses a nested one
        alg, nested, systems = ladder

        def system(w):
            unknowns, rows = systems[w]
            return ConstraintSystem(alg.compiled(), unknowns, [(e,) for e in rows])

        windows = list(systems)
        try:
            st = stabilize(system, windows)
        except ValueError:
            assert not nested
            return
        assert st.basis.vectors == stabilized_by_full_kernels([system(w) for w in windows])

    @pytest.mark.parametrize("name,q,deg,windows", [
        ("S", Fraction(-4), MapDegree(ODD, 0, -2), [Window(2, 6), Window(3, 7)]),
        ("B", Fraction(2), MapDegree(EVEN, 0, 2), [Window(3, 6), Window(4, 7)]),
    ])
    def test_only_pairs_with_three_forced_unknowns_are_skipped(self, name, q, deg,
                                                                 windows):
        alg = builtin_algebra(name, q)
        skipped = [0]

        def system(w):
            cs = half_derivation_system(alg, deg)(w)
            pairs = list(_shell_pairs(alg, deg, w))
            index = {label: u for u, label in enumerate(cs.unknowns)}

            def rows(forced):
                pos = 0
                for row in cs.rows(forced):
                    k = pairs.index(row[1], pos)
                    # no row was read since these pairs were passed over,
                    # so the flags are the ones they were checked against
                    for omitted in pairs[pos:k]:
                        if not list(halfder._rows(alg, deg, w, [omitted])):
                            continue  # a zero row, omitted without the flags
                        p1, p2, m1, i1, m2, i2 = omitted
                        assert all(forced[index[x]] for x in (
                            BasisIndex(p1, m1, i1), BasisIndex(p2, m2, i2),
                            BasisIndex(p1 ^ p2, m1 + m2, i1 + i2)))
                        skipped[0] += 1
                    pos = k + 1
                    yield row
            return ConstraintSystem(cs.algebra, cs.unknowns, rows)

        st = stabilize(system, windows)
        assert st.basis.vectors == stabilized_by_full_kernels(
            [build_constraints(alg, deg, w) for w in windows])
        assert skipped[0] > 0

    def test_skipping_halves_the_rule_calls(self, monkeypatch):
        # the benchmark's S(-4) odd job made 107,970 rule calls before pairs
        # were skipped and later windows seeded
        alg = builtin_algebra("S", Fraction(-4))
        rule_calls = _count_rule_calls(monkeypatch, alg)
        report = classify(alg, ODD, (3, 3), [Window(2, 6), Window(3, 7)])
        assert [(d.r, d.s, d.matched_names) for d in report.degrees] == [(0, -2, ["gamma"])]
        assert rule_calls() <= 46_000

    def test_materialised_rows_skip_nothing(self):
        # build_constraints, and so check_map, reads every pair with a nonzero row
        alg = builtin_algebra("S", Fraction(-4))
        deg, w = MapDegree(ODD, 0, -2), Window(2, 6)
        pairs = list(_shell_pairs(alg, deg, w))
        nonzero = [p for p in pairs if list(halfder._rows(alg, deg, w, [p]))]
        assert len(build_constraints(alg, deg, w).rows) == len(nonzero)


def _spec(name, q):
    """B, S, SKEW_MIXED, SKEW_ODD_SYMMETRIC, QQ_FRACTIONAL or a spec of
    tests/golden/inputs (mutated_B, mutated_S, cubic, witt), at q."""
    if name in ("B", "S"):
        return builtin_algebra(name, q)
    texts = {"skew_mixed": SKEW_MIXED, "skew_odd_symmetric": SKEW_ODD_SYMMETRIC,
             "qq_fractional": QQ_FRACTIONAL}
    text = texts[name] if name in texts else (INPUTS / f"{name}.alg").read_text()
    return make_algebra(parse_spec(text), q)


def _mirror_premise(alg, shift, sigma, r, s, w) -> bool:
    """Whether each row of degree (-r, s) on w is plus or minus the row of
    the mirrored pair of degree (r, s) relabelled by T: d(p, m, i) ->
    sigma[p] d(p, -m, i), pair by pair, in raw values.  A pair is keyed
    by its points as a set when the system takes it in one order, and as
    an ordered pair when the spec fails graded antisymmetry and both
    orders are taken."""
    key = frozenset if alg.compiled().antisymmetric else tuple

    def flip(x):
        return BasisIndex(x.parity, -x.m, x.i)

    def rows(r):
        cs = build_constraints(alg, MapDegree(shift, r, s), w)
        return {key((x, y)): {cs.unknowns[u]: v for u, v in entries}
                for entries, x, y in cs.rows}

    image = {key(map(flip, pair)): {flip(k): v if sigma[k.parity] > 0 else -v
                                    for k, v in row.items()}
             for pair, row in rows(r).items()}
    target = rows(-r)
    return image.keys() == target.keys() and all(
        target[pair] in (row, {k: -v for k, v in row.items()})
        for pair, row in image.items())


def _spy_stabilize(monkeypatch) -> list[int]:
    """Count the calls of `stabilize` made by `classify`."""
    calls = [0]
    stabilize_ = halfder.stabilize

    def spy(*args):
        calls[0] += 1
        return stabilize_(*args)

    monkeypatch.setattr(halfder, "stabilize", spy)
    return calls


@st.composite
def classify_problems(draw):
    """A spec, q, shift, bounds up to 2x2 and two small nested windows."""
    name = draw(st.sampled_from(["B", "S", "mutated_B", "mutated_S", "cubic", "witt",
                                 "skew_mixed"]))
    q = draw(st.one_of(st.none(), st.integers(-3, 3).map(Fraction),
                       st.tuples(st.integers(-5, 5), st.integers(2, 3))
                       .map(lambda t: Fraction(*t))))
    alg = _spec(name, q)
    shift = draw(st.sampled_from([EVEN, ODD] if alg.is_super else [EVEN]))
    bounds = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    w0 = Window(draw(st.integers(1, 2)), draw(st.integers(1, 3)))
    grow = draw(st.sampled_from([(1, 0), (0, 1), (1, 1)]))
    return alg, shift, bounds, [w0, Window(w0.m_max + grow[0], w0.i_max + grow[1])]


class TestReflection:
    """classify solves r >= 0 and mirrors r < 0 when `_reflection` certifies
    the spec: the rows of (r, s) and (-r, s) then match pair by pair."""

    @pytest.mark.parametrize("name,shift,sigma", [
        ("B", EVEN, (1,)), ("S", EVEN, (1, 1)), ("S", ODD, (1, -1)),
        ("mutated_S", ODD, (1, -1)), ("witt", EVEN, (1,)),
        # mixed (m, n)-parity monomials: the added term is even in (m, n)
        ("cubic", EVEN, None), ("skew_mixed", EVEN, None),
        # fails antisymmetry except at q = 0, so its system takes both
        # orders of each pair, a set the flip maps onto itself
        ("mutated_B", EVEN, (1,)),
    ])
    @pytest.mark.parametrize("q", [None, Fraction(2), Fraction(0)])
    def test_reflection_signs(self, name, shift, sigma, q):
        assert halfder._reflection(_spec(name, q), shift) == sigma

    @pytest.mark.parametrize("name,shift", [
        ("B", EVEN), ("S", EVEN), ("S", ODD), ("mutated_S", EVEN), ("mutated_S", ODD),
        ("witt", EVEN), ("mutated_B", EVEN),
    ])
    @pytest.mark.parametrize("q", [None, Fraction(2)])
    def test_certified_rows_match_pair_by_pair(self, name, shift, q):
        alg = _spec(name, q)
        sigma = halfder._reflection(alg, shift)
        assert sigma is not None
        for r, s in product(range(3), range(-2, 3)):
            assert _mirror_premise(alg, shift, sigma, r, s, Window(2, 3)), (r, s)

    @pytest.mark.parametrize("name", ["cubic", "skew_mixed"])
    def test_rejected_specs_fail_the_premise(self, name):
        # cubic's even term breaks the premise on the pairs m1 = m2 = +-2,
        # which need |m| <= 4 in the window
        alg = _spec(name, None)
        assert not any(_mirror_premise(alg, EVEN, sigma, 1, 0, Window(4, 1))
                       for sigma in [(1,), (-1,)])

    @settings(max_examples=40, deadline=None)
    @given(problem=classify_problems())
    def test_classify_matches_every_degree_solved(self, problem):
        alg, shift, bounds, windows = problem
        report = classify(alg, shift, bounds, windows)
        assert ([(d.r, d.s, d.basis.vectors) for d in report.degrees], report.warnings) \
            == classified_degree_by_degree(alg, shift, bounds, windows)

    def test_witt_mirrors_nonzero_degrees(self, monkeypatch):
        # every degree of the Witt-type spec n - m has a kernel, six at r != 0
        alg = _spec("witt", None)
        windows = [Window(1, 2), Window(2, 3)]
        expected = classified_degree_by_degree(alg, EVEN, (1, 1), windows)
        calls = _spy_stabilize(monkeypatch)
        report = classify(alg, EVEN, (1, 1), windows)
        assert ([(d.r, d.s, d.basis.vectors) for d in report.degrees], report.warnings) \
            == expected
        assert sum(d.r != 0 for d in report.degrees) == 6 and calls[0] == 6

    @pytest.mark.parametrize("name,windows,solved", [
        ("B", [Window(3, 6), Window(4, 7)], 28),
        ("cubic", [Window(2, 3), Window(3, 4)], 49),
        ("mutated_B", [Window(3, 6), Window(4, 7)], 28),
    ])
    def test_stabilized_degrees(self, monkeypatch, name, windows, solved):
        calls = _spy_stabilize(monkeypatch)
        classify(_spec(name, Fraction(2)), EVEN, (3, 3), windows)
        assert calls[0] == solved


@st.composite
def row_problems(draw):
    """A spec (B, S, the mutated ones or QQ_FRACTIONAL), q fixed or generic,
    a degree of either shift and a window up to 3x3."""
    name = draw(st.sampled_from(["B", "S", "mutated_B", "mutated_S", "qq_fractional"]))
    q = draw(st.one_of(st.none(), st.integers(-3, 3).map(Fraction),
                       st.tuples(st.integers(-5, 5), st.integers(2, 3))
                       .map(lambda t: Fraction(*t))))
    alg = _spec(name, q)
    shift = draw(st.sampled_from(alg.parities))
    deg = MapDegree(shift, draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    return alg, deg, Window(draw(st.integers(1, 3)), draw(st.integers(1, 3)))


class TestRowKernel:
    """`_rows` takes each row's three constants from one call of a generated
    row kernel, and merges entries only where unknowns coincide."""

    @settings(max_examples=150, deadline=None)
    @given(problem=row_problems())
    def test_rows_match_three_rule_calls(self, problem):
        # the shell pairs, and each also in the other order where the
        # system takes that parity pair
        alg, deg, w = problem
        pairs = list(_shell_pairs(alg, deg, w))
        combos = halfder._parity_pairs(alg, deg)
        pairs += [(p2, p1, m2, i2, m1, i1) for p1, p2, m1, i1, m2, i2 in pairs
                  if (p2, p1) in combos]
        assert list(halfder._rows(alg, deg, w, pairs)) \
            == list(rows_by_rule_calls(alg, deg, w, pairs))

    @pytest.mark.parametrize("name,q,deg,pair,size", [
        # x = y, odd: [G, G] is nonzero in S
        ("S", Fraction(2), MapDegree(EVEN, 1, 0), (ODD, ODD, 1, 0, 1, 0), 2),
        ("S", Fraction(2), MapDegree(ODD, 1, 1), (ODD, ODD, -1, 1, -1, 1), 2),
        ("S", None, MapDegree(EVEN, 0, 1), (ODD, ODD, 1, 1, 1, 1), 2),
        ("qq_fractional", Fraction(-3, 2), MapDegree(ODD, 1, -1), (ODD, ODD, 1, 0, 1, 0), 2),
        # y = L[0,0]: the output unknown is x's; at B(2) degree (1, 1) the
        # merged entry cancels, and the row is zero
        ("B", Fraction(2), MapDegree(EVEN, 1, 0), (EVEN, EVEN, 1, 1, 0, 0), 1),
        ("B", Fraction(2), MapDegree(EVEN, 1, 1), (EVEN, EVEN, 1, 1, 0, 0), 0),
        ("S", None, MapDegree(ODD, 1, 0), (EVEN, EVEN, 1, -1, 0, 0), 1),
        ("mutated_B", Fraction(1, 2), MapDegree(EVEN, 0, 1), (EVEN, EVEN, -1, 2, 0, 0), 2),
        # x = L[0,0]: the output unknown is y's
        ("B", Fraction(2), MapDegree(EVEN, 1, 0), (EVEN, EVEN, 0, 0, 1, 1), 1),
        ("S", Fraction(3), MapDegree(ODD, -1, 1), (EVEN, ODD, 0, 0, 2, -1), 2),
        ("qq_fractional", None, MapDegree(EVEN, 1, 2), (EVEN, ODD, 0, 0, -1, 1), 2),
        # x = y = L[0,0]
        ("mutated_B", Fraction(2), MapDegree(EVEN, 1, 2), (EVEN, EVEN, 0, 0, 0, 0), 1),
    ])
    def test_coincident_unknowns_are_merged(self, name, q, deg, pair, size):
        alg, w = _spec(name, q), Window(3, 3)
        rows = list(halfder._rows(alg, deg, w, [pair]))
        assert rows == list(rows_by_rule_calls(alg, deg, w, [pair]))
        entries = rows[0][0] if rows else ()
        assert len({u for u, _v in entries}) == len(entries) == size

    def test_one_kernel_call_per_built_row(self, monkeypatch):
        # S(-4) odd: the ladder of the benchmark's job, whose later window
        # forces the unknowns of many pairs before they are read
        alg = builtin_algebra("S", Fraction(-4))
        comp = alg.compiled()
        calls = _spy_kernel_calls(monkeypatch, comp)
        expected, skipped = [], [0]
        rows = halfder._rows

        def spy(alg_, deg, w, pairs, forced=None):
            index = {x: u for u, x in enumerate(w.basis(alg_.parities))}

            def checked(pairs):
                # read as _rows reads each pair, after the rows before it
                for pair in pairs:
                    p1, p2, m1, i1, m2, i2 = pair
                    us = [index[BasisIndex(p1, m1, i1)], index[BasisIndex(p2, m2, i2)],
                          index[BasisIndex(p1 ^ p2, m1 + m2, i1 + i2)]]
                    if forced is not None and all(forced[u] for u in us):
                        skipped[0] += 1
                    else:
                        expected.append((p1, p2, deg.parity_shift, deg.r, deg.s,
                                         m1, i1, m2, i2))
                    yield pair
            return rows(alg_, deg, w, checked(pairs), forced)

        monkeypatch.setattr(halfder, "_rows", spy)
        report = classify(alg, ODD, (3, 3), [Window(2, 6), Window(3, 7)])
        assert [(d.r, d.s, d.matched_names) for d in report.degrees] == [(0, -2, ["gamma"])]
        assert calls == expected and skipped[0] > 0

    def test_one_kernel_per_parity_pair_and_shift(self, monkeypatch):
        generated = []
        compile_ = compile

        def spy(source, filename, mode):
            generated.append(filename)
            return compile_(source, filename, mode)

        monkeypatch.setattr(algebra, "compile", spy, raising=False)
        alg = builtin_algebra("S", Fraction(2))
        for shift in (ODD, EVEN, ODD):
            classify(alg, shift, (1, 1), [Window(2, 3), Window(3, 4)])
        # S is antisymmetric: parity pairs (0,0), (0,1) and (1,1), per shift
        assert generated == ["<row kernel>"] * 6
        assert sorted(alg.compiled()._kernels) == sorted(
            (p1, p2, shift) for p1, p2 in [(EVEN, EVEN), (EVEN, ODD), (ODD, ODD)]
            for shift in (EVEN, ODD))
        classify(builtin_algebra("S", Fraction(2)), ODD, (1, 1), [Window(2, 3), Window(3, 4)])
        assert len(generated) == 9

    @pytest.mark.parametrize("name,q,shift", [("B", Fraction(2), EVEN), ("S", None, ODD),
                                              ("mutated_B", Fraction(1, 2), EVEN)])
    def test_rows_call_no_rule(self, monkeypatch, name, q, shift):
        alg = _spec(name, q)
        deg, w = MapDegree(shift, 1, -1), Window(2, 3)
        pairs = list(_shell_pairs(alg, deg, w))  # proves antisymmetry, which evaluates rules
        rule_calls = _count_rule_calls(monkeypatch, alg)
        kernel_calls = _spy_kernel_calls(monkeypatch, alg.compiled())
        assert list(halfder._rows(alg, deg, w, pairs))
        assert len(kernel_calls) == len(pairs) and rule_calls() == 3 * len(pairs)


class TestRawValueType:
    """Every generic-mode raw value is `Coeffs`, whose operators are
    polynomial arithmetic; a plain tuple would concatenate under + and be
    truthy at (0,).  Every fixed-mode raw value is an int."""

    @pytest.mark.parametrize("name", ["B", "S", "mutated_B", "mutated_S", "qq_fractional"])
    @pytest.mark.parametrize("q", [None, Fraction(2), Fraction(-3, 2)])
    def test_every_raw_value_has_the_mode_type(self, name, q):
        alg = _spec(name, q)
        comp = alg.compiled()
        kind = Coeffs if q is None else int

        def check(values):
            values = list(values)
            assert values and all(type(v) is kind for v in values)

        points = list(product(range(-2, 3), repeat=4))
        check([comp.zero, comp.one])
        for rule in comp.pair.values():
            check(rule(*pt) for pt in points)
        for p1, p2, shift in product(alg.parities, repeat=3):
            for r, s in ((0, 0), (1, -1), (-2, 1)):
                kernel = comp.row_kernel(p1, p2, shift)(r, s)
                check(c for pt in points for c in kernel(*pt))
        texts = ["0", "1", "-3", "1/2", "-7/6"]
        if q is None:
            texts += ["q", "q^2/5 - 1", "(q + 1/2)/(3*q - 1)"]
        raw, _factor = comp.raw({k: parse_scalar(t, q) for k, t in enumerate(texts)})
        check(raw.values())
        assert [bool(raw[k]) for k in range(len(texts))] == [t != "0" for t in texts]


class TestBuiltinMaps:
    def test_alpha_at_one(self):
        alg = builtin_algebra("B", Fraction(1))
        gm = builtin_map("alpha", alg, Window(3, 3))
        assert gm.table == {L(0, -2): Fraction(1)}
        assert gm.degree == MapDegree(EVEN, 0, 1)
        assert gm.image_index(L(0, -2)) == L(0, -1)

    def test_gamma_at_two(self):
        alg = builtin_algebra("S", Fraction(2))
        gm = builtin_map("gamma", alg, Window(3, 3))
        assert gm.table == {G(0, -3): Fraction(1)}
        assert gm.degree == MapDegree(ODD, 0, 1)
        assert gm.image_index(G(0, -3)) == L(0, -2)

    def test_epsilon_window_table(self):
        alg = builtin_algebra("S", Fraction(0))
        gm = builtin_map("epsilon", alg, Window(2, 2))
        assert len(gm.table) == 25
        assert all(k.parity == EVEN and v == 1 for k, v in gm.table.items())
        assert gm.degree == MapDegree(ODD, 0, 0)

    def test_alpha_needs_integer_q(self):
        alg = builtin_algebra("B", Fraction(1, 2))
        with pytest.raises(IntegralityViolation):
            builtin_map("alpha", alg, Window(3, 3))

    def test_gamma_needs_even_q(self):
        alg = builtin_algebra("S", Fraction(1))
        with pytest.raises(IntegralityViolation):
            builtin_map("gamma", alg, Window(3, 3))

    def test_beta_epsilon_delta_need_q_zero(self):
        alg = builtin_algebra("S", Fraction(2))
        for name in ("beta", "delta", "epsilon"):
            with pytest.raises(WrongQ):
                builtin_map(name, alg, Window(3, 3))

    def test_super_only_maps(self):
        alg = builtin_algebra("B", Fraction(0))
        with pytest.raises(UnknownMapName):
            builtin_map("beta", alg, Window(2, 2))

    def test_unknown_name(self):
        alg = builtin_algebra("B", Fraction(0))
        with pytest.raises(UnknownMapName):
            builtin_map("omega", alg, Window(2, 2))


class TestCheckMap:
    def test_alpha_on_block(self):
        alg = builtin_algebra("B", Fraction(2))
        rep = check_map(alg, builtin_map("alpha", alg, Window(4, 6)), Window(4, 6))
        assert rep.passed

    def test_beta_on_super_zero(self):
        alg = builtin_algebra("S", Fraction(0))
        rep = check_map(alg, builtin_map("beta", alg, Window(3, 3)), Window(3, 3))
        assert rep.passed

    def test_point_map_fails_with_witness(self):
        alg = builtin_algebra("B", Fraction(2))
        gm = GradedMap(MapDegree(EVEN, 0, 0), {L(1, 1): Fraction(1)})
        rep = check_map(alg, gm, Window(3, 3))
        assert not rep.passed
        assert rep.violations[0]["indices"]

    @pytest.mark.parametrize("name", ["B", "S"])
    def test_generic_identity_passes_scaled(self, name):
        alg = builtin_algebra(name, None)
        w = Window(2, 2)
        ident = builtin_map("id", alg, w)
        assert check_map(alg, ident, w).passed
        inv_q1 = RatFunc(Poly.const(1), Poly((1, 1)))
        scaled = GradedMap(ident.degree, {k: v * inv_q1 for k, v in ident.table.items()})
        assert check_map(alg, scaled, w).passed
        inv_q2 = RatFunc(Poly.const(1), Poly((2, 1)))
        scaled.table[L(0, 0)] = inv_q2
        assert not check_map(alg, scaled, w).passed

    def test_generic_shift_fails(self):
        alg = builtin_algebra("B", None)
        rep = check_map(alg, shift_map(alg, Window(2, 2)), Window(2, 2))
        assert not rep.passed
        assert rep.violations[0]["lhs"] != rep.violations[0]["rhs"]

    def test_transplanted_alpha_fails(self):
        donor = builtin_algebra("B", Fraction(1))
        gm = builtin_map("alpha", donor, Window(4, 6))
        host = builtin_algebra("B", Fraction(2))
        rep = check_map(host, gm, Window(4, 6))
        assert not rep.passed


class TestClassify:
    def test_block_generic(self):
        rep = classify(builtin_algebra("B", None), EVEN, (2, 2),
                       [Window(3, 3), Window(4, 4)])
        assert rep.total_dim == 1
        assert [(d.r, d.s) for d in rep.degrees] == [(0, 0)]
        assert rep.degrees[0].matched_names == ["id"]

    def test_super_q2_odd(self):
        rep = classify(builtin_algebra("S", Fraction(2)), ODD, (2, 2),
                       [Window(3, 4), Window(4, 5)])
        assert rep.total_dim == 1
        d = rep.degrees[0]
        assert (d.r, d.s) == (0, 1)
        assert d.matched_names == ["gamma"]

    def test_super_q3_odd_empty(self):
        rep = classify(builtin_algebra("S", Fraction(3)), ODD, (2, 2),
                       [Window(3, 3), Window(4, 4)])
        assert rep.total_dim == 0
        assert rep.degrees == []

    def test_report_json(self):
        rep = classify(builtin_algebra("B", Fraction(1)), EVEN, (1, 1),
                       [Window(3, 3), Window(4, 4)])
        data = rep.to_json_dict()
        assert data["q"] == "1"
        assert data["parity_shift"] == "even"
        assert data["total_dim"] == rep.total_dim
        for entry in data["degrees"]:
            assert set(entry) == {"r", "s", "stable_dim", "matched_names",
                                  "basis_tables"}


class TestSpecializationOfConstraints:
    @pytest.mark.parametrize("q0", [Fraction(0), Fraction(1), Fraction(5)])
    def test_matrix_entrywise(self, q0):
        gen = builtin_algebra("S", None)
        fix = builtin_algebra("S", q0)
        rng = random.Random(11)
        for _ in range(5):
            shift = rng.choice((EVEN, ODD))
            deg = MapDegree(shift, rng.randint(-2, 2), rng.randint(-2, 2))
            w = Window(2, 2)
            cs_gen = build_constraints(gen, deg, w)
            cs_fix = build_constraints(fix, deg, w)
            # rows whose coefficients all vanish at q0 are dropped from the
            # fixed system; the surviving rows must match entrywise
            fixed_rows = dict(zip(provenances(cs_fix), scalar_rows(cs_fix)))
            assert set(fixed_rows) <= set(provenances(cs_gen))
            for prov, row_g in zip(provenances(cs_gen), scalar_rows(cs_gen)):
                spec = {u: v.specialize(q0) for u, v in row_g.items()}
                spec = {u: v for u, v in spec.items() if v}
                if spec:
                    assert spec == fixed_rows[prov]
                else:
                    assert prov not in fixed_rows
