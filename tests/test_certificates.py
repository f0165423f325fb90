"""Grid certificates and support-restricted enumeration give the oracle's reports.

`verify_antisymmetry` and `verify_jacobi` prove a window on the certifying
grid, `hom_jacobi_check` proves each term of a combination on the grid or on
the triples touching its support (and otherwise walks the window for
witnesses), a failing Jacobi or Hom-Lie check counts its total over
multisets {x, y, z} once the compiled algebra proves antisymmetry, and
otherwise Jacobi over every triple and Hom-Lie over rotation orbits, and `verify_transposed_leibniz` evaluates only the
pairs touching a product partner.  Each must report exactly what
enumerating the whole window reports: the same counts, flags and witnesses
in the same order, the oracle's witnesses rebuilt from exact brackets.
"""

from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (antisymmetry_by_enumeration, hom_cyclic_sum, hom_jacobi_by_enumeration,
                     jacobi_by_enumeration, transposed_leibniz_by_enumeration)

from blockq import algebra, homlie
from blockq.algebra import (EVEN, MAX_REPORT_VIOLATIONS, BasisIndex, SparseVector,
                            Window, certifying_grid, index_from_json, multiset_orbits,
                            rotation_orbits, verify_antisymmetry, verify_jacobi)
from blockq.cli import main, parse_map_expr
from blockq.halfder import GradedMap, MapDegree, builtin_map, shift_map
from blockq.homlie import hom_jacobi_check
from blockq.scalars import from_fraction
from blockq.specdsl import builtin_algebra, make_algebra, parse_spec
from blockq.tpverify import ProductTable, builtin_tp, verify_transposed_leibniz

B_RULE = "n*(i + q) - m*(j + q)"
S_RULES = (B_RULE, "n*(i + q) - m*(j + (1/2)*q)", "2*q")
# the benchmark's mutated specs (perfbench/pools.json)
MUTATED_B = ("n*(i + q) - m*(j - q)",)
MUTATED_S = (B_RULE, "n*(i + q) - m*(j - (1/2)*q)", "2*q")
# passes antisymmetry and Jacobi on the 1x1 grid, fails on 2x1
CUBIC = B_RULE + " + (m*m*m - m)*(n*n*n - n)"
# antisymmetric, with a 2x2 antisymmetry box; fails Jacobi on 2x1
ANTI_CUBIC = (B_RULE + " + m*m*m*n - n*n*n*m",)
# a symmetric cubic term that vanishes for |m|, |n| <= 1: passes antisymmetry
# on 1xK, not on its 2x2 box, and fails Jacobi on 1xK
RIM_CUBIC = (B_RULE + " + (m*m*m - m) + (n*n*n - n)",)

VARS = "minjq"

L = lambda m, i: BasisIndex(EVEN, m, i)


def spec(rules: tuple[str, ...], q: Fraction | None):
    heads = ("even even antisymmetric", "even odd antisymmetric", "odd odd symmetric")
    lines = ["algebra X", f"super {'true' if len(rules) == 3 else 'false'}"]
    lines += [f"rule {head}: {rule}" for head, rule in zip(heads, rules)]
    return make_algebra(parse_spec("\n".join(lines) + "\n"), q)


def monomial_text(coeff: Fraction, exps: tuple[int, ...]) -> str:
    factors = [v for v, e in zip(VARS, exps) for _ in range(e)]
    return "*".join([f"({coeff})"] + factors)


def swapped(exps: tuple[int, ...]) -> tuple[int, ...]:
    em, ei, en, ej, eq = exps
    return (en, ej, em, ei, eq)


qs = st.sampled_from([None, Fraction(0), Fraction(2), Fraction(-3), Fraction(1, 2),
                      Fraction(-7, 3)])
coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])
exponents = st.tuples(*[st.integers(0, 2)] * 4, st.integers(0, 1))


@st.composite
def perturbed_rules(draw, base: str, swap: str | None = None):
    """base plus up to two monomials, each antisymmetrized when drawn so
    (which keeps antisymmetry and lets the grid proof of it run).  With
    swap ("-" or "+"), one or two monomials, each followed by its
    index-swapped copy with that sign, which keeps the rule antisymmetric
    or symmetric."""
    text = base
    for _ in range(draw(st.integers(0 if swap is None else 1, 2))):
        c, exps = draw(coeffs), draw(exponents)
        text += " + " + monomial_text(c, exps)
        if swap is not None:
            text += f" {swap} " + monomial_text(c, swapped(exps))
        elif draw(st.booleans()):
            text += " - " + monomial_text(c, swapped(exps))
    return text


lie_specs = st.one_of(
    st.sampled_from([(B_RULE,), MUTATED_B, (CUBIC,), ("n - m",), ("n*i - m*j",),
                     ("(n - m)*(i + j + 1)",)]),
    st.builds(lambda r: (r,), perturbed_rules(B_RULE)),
    st.builds(lambda r: (r,), perturbed_rules("n - m")),
)
super_specs = st.one_of(
    st.sampled_from([S_RULES, MUTATED_S]),
    st.builds(lambda r: (r,) + S_RULES[1:], perturbed_rules(B_RULE)),
    st.builds(lambda r: S_RULES[:2] + (r,), perturbed_rules("2*q")),
)


def assert_same_as_oracle(alg, w):
    assert (verify_antisymmetry(alg, w).to_json_dict()
            == antisymmetry_by_enumeration(alg, w).to_json_dict())
    assert verify_jacobi(alg, w).to_json_dict() == jacobi_by_enumeration(alg, w).to_json_dict()


class TestAlgebraCertificate:
    @given(rules=lie_specs, q=qs, m=st.integers(1, 3), i=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_lie_specs_match_enumeration(self, rules, q, m, i):
        assert_same_as_oracle(spec(rules, q), Window(m, i))

    @given(rules=super_specs, q=qs, m=st.integers(1, 2))
    @settings(max_examples=12, deadline=None)
    def test_super_specs_match_enumeration(self, rules, q, m):
        assert_same_as_oracle(spec(rules, q), Window(m, 1))

    def test_grid_grows_with_degree(self):
        # a residual of degree d in a variable needs more than d grid points
        for rules, factors, bound in [((B_RULE,), 1, 1), ((B_RULE,), 2, 1),
                                      ((CUBIC,), 1, 2), ((CUBIC,), 2, 3),
                                      (("m*m*m*m*m*n",), 2, 5)]:
            grid = certifying_grid(spec(rules, None), factors)
            assert grid == Window(bound, bound)

    def test_pinned_cubic_spec_still_fails(self):
        alg = spec((CUBIC,), None)
        assert verify_antisymmetry(alg, Window(1, 1)).passed
        assert verify_jacobi(alg, Window(1, 1)).passed
        anti = verify_antisymmetry(alg, Window(2, 1))
        jac = verify_jacobi(alg, Window(2, 1))
        assert (anti.total_violations, jac.total_violations) == (21, 1188)
        for w in (Window(2, 2), Window(3, 2)):
            anti = verify_antisymmetry(alg, w)
            assert not anti.passed
            assert anti.to_json_dict() == antisymmetry_by_enumeration(alg, w).to_json_dict()


def random_map(draw, alg, w: Window) -> GradedMap:
    basis = w.basis(alg.parities)
    support = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3))
    deg = MapDegree(draw(st.sampled_from(alg.parities)), draw(st.integers(-1, 1)),
                    draw(st.integers(-1, 1)))
    return GradedMap(deg, {b: from_fraction(draw(coeffs), alg.q) for b in support})


@st.composite
def hom_cases(draw, windows=(("B", Fraction(1), Window(1, 2)),
                             ("B", Fraction(2), Window(1, 4)),
                             ("B", None, Window(2, 1)), ("S", Fraction(0), Window(1, 1)),
                             ("S", None, Window(1, 1))), unproved=False):
    """(algebra, combination, window) mixing dense and sparse terms; with
    unproved, the first term is shift or a random table, which no proof may
    cover."""
    name, q, w = draw(st.sampled_from(windows))
    alg = builtin_algebra(name, q)
    named = ["id", "shift"]
    if q is not None:
        named.append("alpha")
    if name == "S" and q == 0:
        named += ["beta", "gamma", "delta", "epsilon"]
    terms = []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["shift", "random", "random"] if unproved and k == 0
                                    else named + ["random"] * 2))
        if kind == "random":
            gm = random_map(draw, alg, w)
        elif kind == "shift":
            gm = shift_map(alg, w)
        else:
            gm = builtin_map(kind, alg, w)
        c = draw(st.sampled_from([1, -1, -2, Fraction(1, 3)]))
        terms.append((from_fraction(c, q), gm))
    return alg, terms, w


def assert_hom_same(alg, terms, w):
    got = hom_jacobi_check(alg, terms, w).to_json_dict()
    assert got == hom_jacobi_by_enumeration(alg, terms, w).to_json_dict()
    return got


class TestHomLieTerms:
    @given(case=hom_cases())
    @settings(max_examples=40, deadline=None)
    def test_combinations_match_enumeration(self, case):
        assert_hom_same(*case)

    def test_named_combinations(self):
        cases = [("B", Fraction(2), Window(1, 4), "id + alpha", True, False),
                 ("B", Fraction(2), Window(2, 2), "id - 2*shift", False, False),
                 ("B", Fraction(2), Window(2, 2), "shift", False, False),
                 ("B", Fraction(2), Window(2, 4), "alpha", True, True),
                 ("B", None, Window(2, 1), "1/3*id", True, False),
                 ("S", Fraction(0), Window(1, 1), "epsilon + beta - delta", True, False),
                 ("S", Fraction(2), Window(1, 3), "gamma", True, True)]
        for name, q, w, expr, std, lit in cases:
            alg = builtin_algebra(name, q)
            got = assert_hom_same(alg, parse_map_expr(expr, alg, w), w)
            assert got["conventions"] == {"standard": std, "literal": lit}, expr

    def test_literal_decided_by_enumeration(self):
        # id - id and id + alpha - id: id alone never proves the literal
        # form, and the combined literal residual is zero on the grid, so the
        # window is enumerated; the combination is 0 or alpha, both literal
        alg = builtin_algebra("B", Fraction(1))
        w = Window(1, 2)
        ident, alpha = builtin_map("id", alg, w), builtin_map("alpha", alg, w)
        for terms in ([(Fraction(1), ident), (Fraction(-1), ident)],
                      [(Fraction(1), ident), (Fraction(1), alpha), (Fraction(-1), ident)]):
            got = assert_hom_same(alg, terms, w)
            assert got["conventions"] == {"standard": True, "literal": True}

    def test_sparse_terms_off_the_grid(self):
        # single-entry maps outside the 1x1 grid: a proof on the grid alone
        # would pass them all, but most fail on the window
        alg = builtin_algebra("B", Fraction(1))
        w = Window(1, 2)
        ident = builtin_map("id", alg, w)
        failed = 0
        for src in (L(0, 2), L(-1, -2), L(1, 2)):
            for r, s in ((0, 0), (1, 0), (0, -1)):
                gm = GradedMap(MapDegree(EVEN, r, s), {src: Fraction(1)})
                failed += not assert_hom_same(alg, gm, w)["pass"]
                assert_hom_same(alg, [(Fraction(1), ident), (Fraction(2), gm)], w)
        assert failed >= 6

    def test_sparse_term_failing_only_the_literal_form(self):
        # the standard form holds, and [phi(y),[z,y]] != [phi(y),[z,x]] for
        # y = L[-1,0]: the literal pass over y in the support must see it
        rule = "m*m*i*n - m*n*n*j - m*m*n*n*j*j + m*m*i*i*n*n"
        alg = spec((rule,), Fraction(1))
        w = Window(1, 1)
        gm = GradedMap(MapDegree(EVEN, 0, 0), {L(-1, 0): Fraction(1)})
        got = assert_hom_same(alg, gm, w)
        assert got["conventions"] == {"standard": True, "literal": False}

    def test_dense_term_outside_grid_is_enumerated(self):
        # the cubic spec needs a 3x3 grid; in a 2x2 window id is enumerated
        alg = spec((CUBIC,), Fraction(1))
        w = Window(2, 2)
        got = assert_hom_same(alg, builtin_map("id", alg, w), w)
        assert got["pass"] is False


def window_position(basis: list[BasisIndex], triple) -> int:
    """Place of a triple in window order, product(basis, repeat=3)."""
    n = len(basis)
    a, b, c = (basis.index(t) for t in triple)
    return (a * n + b) * n + c


def walk_stop(report: dict, basis: list[BasisIndex]) -> int | None:
    """Window triples the witness walk evaluated when it stopped at the last
    kept witness, or None when the report keeps fewer than
    MAX_REPORT_VIOLATIONS and the walk covered the whole window."""
    if len(report["violations"]) < MAX_REPORT_VIOLATIONS:
        return None
    last = [index_from_json(i) for i in report["violations"][-1]["indices"]]
    return window_position(basis, last) + 1


@st.composite
def unantisymmetric_hom_cases(draw):
    """(algebra, combination, window): a Lie or super spec that fails graded
    antisymmetry, twisted by shift, maybe plus a random table."""
    if draw(st.booleans()):
        rules = draw(st.one_of(st.just(MUTATED_B),
                               st.builds(lambda r: (r,), perturbed_rules(B_RULE, "+"))))
        w = Window(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    else:
        rules = draw(st.one_of(
            st.builds(lambda r: S_RULES[:2] + (r,), perturbed_rules("2*q", "-")),
            st.builds(lambda r: (r,) + S_RULES[1:], perturbed_rules(B_RULE, "+"))))
        w = Window(1, 1)
    alg = spec(rules, draw(qs))
    assume(not alg.compiled().antisymmetric)
    terms = [(from_fraction(1, alg.q), shift_map(alg, w))]
    if draw(st.booleans()):
        terms.append((from_fraction(draw(coeffs), alg.q), random_map(draw, alg, w)))
    return alg, terms, w


class TestHomLieOrbits:
    """The failing path: a witness walk in window order, the total counted
    over multisets (over rotation orbits when antisymmetry is not proved),
    and the literal flag from a search with an early exit."""

    def test_rotation_orbits_cover_the_window_once(self):
        # every triple lies in exactly one orbit, met at its least rotation
        # in window order, and the weights are the orbit sizes, summing to n^3
        for n in (1, 2, 3, 4):
            basis = [L(0, k) for k in range(n)]
            seen = set()
            for (x, y, z), weight in rotation_orbits(basis):
                orbit = {(x, y, z), (y, z, x), (z, x, y)}
                assert window_position(basis, (x, y, z)) == min(
                    window_position(basis, t) for t in orbit)
                assert weight == len(orbit)
                assert not orbit & seen
                seen |= orbit
            assert len(seen) == n ** 3
            assert sum(weight for _, weight in rotation_orbits(basis)) == n ** 3

    @given(case=unantisymmetric_hom_cases())
    @settings(max_examples=25, deadline=None)
    def test_unantisymmetric_totals_match_enumeration(self, case):
        assert_hom_same(*case)

    def test_unproved_antisymmetry_counts_rotation_orbits(self, monkeypatch):
        # the mutated B spec at q = 2, shift on 2x3: 35 basis elements, so
        # 42,875 triples in 14,315 rotation orbits.  The combination's
        # standard sum is evaluated on the witness walk, then once per orbit
        sums = []
        cyclic_sums = homlie._cyclic_sums

        def counting(comp, phi):
            standard, literal = cyclic_sums(comp, phi)
            calls = [0]
            sums.append(calls)

            def spy(*triple):
                calls[0] += 1
                return standard(*triple)
            return spy, literal

        root = Path(__file__).resolve().parents[1]
        text = (root / "tests" / "golden" / "inputs" / "mutated_B.alg").read_text()
        alg, w = make_algebra(parse_spec(text), Fraction(2)), Window(2, 3)
        assert not alg.compiled().antisymmetric
        monkeypatch.setattr(homlie, "_cyclic_sums", counting)
        got = hom_jacobi_check(alg, shift_map(alg, w), w).to_json_dict()
        monkeypatch.undo()
        assert got == hom_jacobi_by_enumeration(alg, shift_map(alg, w), w).to_json_dict()
        basis = w.basis(alg.parities)
        assert len(basis) ** 3 == 42875
        assert sums[-1][0] == walk_stop(got, basis) + 14315

    @given(case=hom_cases(windows=(("B", Fraction(2), Window(1, 2)),
                                   ("B", Fraction(0), Window(1, 1)),
                                   ("B", None, Window(1, 1)),
                                   ("B", Fraction(-1), Window(2, 1)),
                                   ("S", Fraction(2), Window(1, 1)),
                                   ("S", None, Window(1, 1)),
                                   ("S", Fraction(0), Window(1, 1))),
                          unproved=True))
    @settings(max_examples=60, deadline=None)
    def test_unproved_combinations_match_enumeration(self, case):
        assert_hom_same(*case)

    def test_pinned_shift_total(self):
        alg = builtin_algebra("B", Fraction(2))
        w = Window(2, 3)
        got = assert_hom_same(alg, shift_map(alg, w), w)
        assert got["total_violations"] == 34752
        assert walk_stop(got, w.basis(alg.parities)) == 187

    def test_hundredth_violation_late(self):
        # a single-entry map: its violations touch L[0,2], so the walk
        # passes half the window before the total is counted over orbits
        alg = builtin_algebra("B", Fraction(2))
        w = Window(1, 2)
        gm = GradedMap(MapDegree(EVEN, 0, 0), {L(0, 2): Fraction(1)})
        got = assert_hom_same(alg, gm, w)
        assert got["total_violations"] == 300
        assert walk_stop(got, w.basis(alg.parities)) == 1715

    def test_fixed_points_of_rotation(self):
        # in S an odd x has [x,x] != 0, so the triples x = y = z, orbits of
        # one member, fail past where the walk stops
        for q in (Fraction(2), None):
            alg = builtin_algebra("S", q)
            w = Window(1, 1)
            basis = w.basis(alg.parities)
            terms = [(from_fraction(1, q), shift_map(alg, w))]
            got = assert_hom_same(alg, terms, w)
            stop = walk_stop(got, basis)
            assert stop is not None
            assert any(hom_cyclic_sum(alg, terms, b, b, b).entries for b in basis
                       if window_position(basis, (b, b, b)) >= stop)

    def test_literal_search_sees_every_triple(self):
        # on this spec each map below has its literal sum nonzero on a few
        # triples only, which a search that skips triples can miss
        rule = "m*m*i*n - m*n*n*j - m*m*n*n*j*j + m*m*i*i*n*n"
        alg = spec((rule,), Fraction(1))
        w = Window(1, 1)
        basis = w.basis(alg.parities)
        # the standard form fails on two orbits, so the walk covers the
        # window; the literal sum is nonzero at window positions 11, 83, 163
        # and 171 alone
        gm = GradedMap(MapDegree(EVEN, 0, -1), {L(-1, 1): Fraction(1)})
        got = assert_hom_same(alg, gm, w)
        assert len(got["violations"]) == 6 and "total_violations" not in got
        assert walk_stop(got, basis) is None
        assert got["conventions"] == {"standard": False, "literal": False}
        # id cannot be proved on a window smaller than the 2x2 grid, so the
        # combination is walked, and passes; what is left of it has its
        # literal sum nonzero only on triples no rotation puts in the order
        # a <= b, a <= c of their basis positions
        ident = builtin_map("id", alg, w)
        gm = GradedMap(MapDegree(EVEN, 0, 1), {L(-1, -1): Fraction(1)})
        got = assert_hom_same(alg, [(Fraction(1), gm), (Fraction(1), ident),
                                    (Fraction(-1), ident)], w)
        assert got["pass"] is True
        assert got["conventions"] == {"standard": True, "literal": False}


@st.composite
def antisymmetric_cases(draw):
    """(algebra, window): a graded antisymmetric spec, Lie or super, at
    generic or fixed q, whose rules are perturbed so that Jacobi mostly
    fails.  Every rule has degree at most 2 in each index, so its 1x1
    antisymmetry box lies in the window."""
    if draw(st.booleans()):
        rules = (draw(perturbed_rules(B_RULE, "-")),)
        w = Window(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    else:
        rules = draw(st.one_of(
            st.builds(lambda r: (r,) + S_RULES[1:], perturbed_rules(B_RULE, "-")),
            st.builds(lambda r: (B_RULE, r, S_RULES[2]), perturbed_rules(S_RULES[1])),
            st.builds(lambda r: S_RULES[:2] + (r,), perturbed_rules("2*q", "+")),
            st.just(MUTATED_S)))
        w = Window(1, 1)
    return spec(rules, draw(qs)), w


def spy_on(monkeypatch, module, name) -> list:
    """Record the arguments of each call of module.name, which still runs."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, spy)
    return calls


def count_antisymmetry_residuals(monkeypatch) -> dict:
    """Calls of every antisymmetry residual built from now on, by compiled
    algebra."""
    calls: dict = {}
    residual_for = algebra._antisymmetry_residual

    def counting(comp):
        residual = residual_for(comp)
        calls.setdefault(comp, 0)

        def spy(x, y):
            calls[comp] += 1
            return residual(x, y)
        return spy
    monkeypatch.setattr(algebra, "_antisymmetry_residual", counting)
    return calls


class TestS3Orbits:
    """With antisymmetry proved on its box, a failing Jacobi or Hom-Lie
    standard check counts its total once per multiset {x, y, z}."""

    def test_multiset_orbits_cover_the_window_once(self):
        # every triple lies in exactly one class, met at its first member in
        # window order, and the weights are the class sizes, summing to n^3
        for n in (1, 2, 3, 4):
            basis = [L(0, k) for k in range(n)]
            seen = set()
            for triple, weight in multiset_orbits(basis):
                orbit = set(permutations(triple))
                assert window_position(basis, triple) == min(
                    window_position(basis, t) for t in orbit)
                assert weight == len(orbit)
                assert not orbit & seen
                seen |= orbit
            assert len(seen) == n ** 3
            assert sum(weight for _, weight in multiset_orbits(basis)) == n ** 3

    @given(case=antisymmetric_cases())
    @settings(max_examples=25, deadline=None)
    def test_jacobi_counts_match_enumeration(self, case):
        alg, w = case
        assert alg.compiled().antisymmetric
        got = verify_jacobi(alg, w).to_json_dict()
        assume(got.get("total_violations", 0) > MAX_REPORT_VIOLATIONS)
        assert got == jacobi_by_enumeration(alg, w).to_json_dict()

    @given(case=antisymmetric_cases(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_hom_counts_match_enumeration(self, case, data):
        alg, w = case
        assert alg.compiled().antisymmetric
        terms = [(from_fraction(1, alg.q), shift_map(alg, w))]
        if data.draw(st.booleans()):
            terms.append((from_fraction(data.draw(coeffs), alg.q),
                          random_map(data.draw, alg, w)))
        got = hom_jacobi_check(alg, terms, w).to_json_dict()
        assume(got.get("total_violations", 0) > MAX_REPORT_VIOLATIONS)
        assert got == hom_jacobi_by_enumeration(alg, terms, w).to_json_dict()

    def test_unproved_antisymmetry_walks_every_triple(self, monkeypatch):
        # the mutated B spec fails antisymmetry: Jacobi walks every triple,
        # Hom-Lie counts its total over rotation orbits, and no multiset is
        # counted
        multisets = spy_on(monkeypatch, algebra, "multiset_orbits")
        rotations = spy_on(monkeypatch, algebra, "rotation_orbits")
        alg, w = spec(MUTATED_B, None), Window(2, 2)
        assert not alg.compiled().antisymmetric
        jac = verify_jacobi(alg, w).to_json_dict()
        assert jac["total_violations"] > MAX_REPORT_VIOLATIONS
        assert jac == jacobi_by_enumeration(alg, w).to_json_dict()
        got = assert_hom_same(alg, shift_map(alg, w), w)
        assert got["total_violations"] > MAX_REPORT_VIOLATIONS
        assert not multisets
        # shift's grid proof on the 1x1 box, then the total on the window
        assert [len(basis) for basis, in rotations] == [9, 25]

    def test_antisymmetry_is_proved_off_the_window(self, monkeypatch):
        # the antisymmetric cubic spec's 2x2 box exceeds the 2x1 window;
        # brackets are total on Z x Z, so the box proves antisymmetry anyway,
        # and the Jacobi box proof and the failing Jacobi and Hom-Lie totals
        # take multisets
        multisets = spy_on(monkeypatch, algebra, "multiset_orbits")
        alg, w = spec(ANTI_CUBIC, Fraction(2)), Window(2, 1)
        assert not certifying_grid(alg, 1) <= w
        assert alg.compiled().antisymmetric
        assert verify_antisymmetry(alg, w).passed
        jac = verify_jacobi(alg, w).to_json_dict()
        assert jac["total_violations"] > MAX_REPORT_VIOLATIONS
        assert jac == jacobi_by_enumeration(alg, w).to_json_dict()
        got = assert_hom_same(alg, shift_map(alg, w), w)
        assert got["total_violations"] > MAX_REPORT_VIOLATIONS
        assert len(multisets) == 3

    def test_verify_algebra_proves_antisymmetry_once(self, monkeypatch, tmp_path):
        # the mutated S spec passes antisymmetry on its 1x1 box of 171 pairs
        # and fails Jacobi past the witness limit: the S3 count reads the
        # compiled algebra's verdict instead of evaluating the box again
        calls = [0]
        residual_for = algebra._antisymmetry_residual

        def counting(comp):
            residual = residual_for(comp)

            def spy(x, y):
                calls[0] += 1
                return residual(x, y)
            return spy

        monkeypatch.setattr(algebra, "_antisymmetry_residual", counting)
        root = Path(__file__).resolve().parents[1]
        monkeypatch.chdir(root)
        out = tmp_path / "report.json"
        assert main(["verify-algebra", "--spec", "tests/golden/inputs/mutated_S.alg",
                     "--q", "generic", "--window", "2x1", "--out", str(out)]) == 1
        golden = root / "tests" / "golden" / "verify_algebra_mutated_S_generic_2x1.json"
        assert out.read_bytes() == golden.read_bytes()
        assert calls[0] == 171

    @pytest.mark.parametrize("q", [None, Fraction(2)])
    def test_a_pass_off_the_box_proves_nothing(self, q):
        # the antisymmetry report passes on 1x2 but not on the 2x2 box, so
        # the Jacobi total is not counted over multisets
        alg, w = spec(RIM_CUBIC, q), Window(1, 2)
        anti = verify_antisymmetry(alg, w)
        assert anti.passed and not alg.compiled().antisymmetric
        got = verify_jacobi(alg, w).to_json_dict()
        assert got["total_violations"] > MAX_REPORT_VIOLATIONS
        assert got == jacobi_by_enumeration(alg, w).to_json_dict()

    def test_library_sequence_proves_antisymmetry_once(self, monkeypatch):
        # the library calls of verify-algebra with no report in between, as
        # perfbench/jobs.py makes them: the box is evaluated once, for the
        # compiled algebra, and read by both suites
        root = Path(__file__).resolve().parents[1]
        text = (root / "tests" / "golden" / "inputs" / "mutated_S.alg").read_text()
        alg, w = make_algebra(parse_spec(text), None), Window(2, 1)
        calls = count_antisymmetry_residuals(monkeypatch)
        assert verify_antisymmetry(alg, w).passed
        assert verify_jacobi(alg, w).total_violations > MAX_REPORT_VIOLATIONS
        assert sum(calls.values()) == 171

    def test_jacobi_box_takes_one_triple_per_multiset(self):
        # S's 1x1 Jacobi box has 18 basis elements: 1,140 multisets, not
        # 5,832 triples, and each residual evaluates six structure constants
        alg, w = builtin_algebra("S", None), Window(2, 2)
        assert verify_antisymmetry(alg, w).passed
        comp, calls = alg.compiled(), [0]

        def counting(rule):
            def spy(*args):
                calls[0] += 1
                return rule(*args)
            return spy
        comp.pair = {key: counting(rule) for key, rule in comp.pair.items()}
        assert verify_jacobi(alg, w).passed
        assert calls[0] == 6 * 1140

    def test_each_algebra_proves_antisymmetry_once(self, monkeypatch, capsys):
        # passing suites evaluate each algebra's antisymmetry box at most
        # once and walk no window pair
        calls = count_antisymmetry_residuals(monkeypatch)
        for argv in (["verify-algebra", "--algebra", "S", "--q", "generic", "--window", "2x2"],
                     ["verify-algebra", "--algebra", "B", "--q", "2", "--window", "1x1"],
                     ["hom-check", "--algebra", "B", "--q", "2", "--map", "id + alpha",
                      "--window", "1x4"],
                     ["hom-check", "--algebra", "S", "--q", "0", "--map", "gamma",
                      "--window", "1x1"]):
            assert main(argv + ["--quiet"]) == 0, argv
        # id - id: the cubic spec's 3x3 grid does not fit, so the zero
        # combination is walked over the whole window
        alg = spec(ANTI_CUBIC, Fraction(2))
        w = Window(2, 1)
        ident = builtin_map("id", alg, w)
        assert hom_jacobi_check(alg, [(Fraction(1), ident), (Fraction(-1), ident)], w).passed
        # gamma's sparse proof at S(0) never asks for antisymmetry
        assert len(calls) == 4
        for comp, n in calls.items():
            box = len(comp.antisymmetry_box)
            assert n <= box * (box + 1) // 2


@st.composite
def product_cases(draw):
    """(algebra, product, window): built-in products and random finite ones."""
    name, q, w = draw(st.sampled_from([
        ("B", Fraction(1), Window(2, 2)), ("B", Fraction(-1), Window(1, 2)),
        ("S", Fraction(0), Window(1, 1))]))
    alg = builtin_algebra(name, q)
    if draw(st.booleans()):
        names = ["trivial", "block_thalg"] if name == "B" else ["super_full", "super_even"]
        return alg, builtin_tp(draw(st.sampled_from(names)), q, is_super=alg.is_super), w
    prod = ProductTable(is_super=alg.is_super, q=q)
    idx = st.builds(BasisIndex, st.sampled_from(alg.parities), st.integers(-2, 2),
                    st.integers(-3, 3))
    for _ in range(draw(st.integers(1, 2))):
        x, y, img = draw(idx), draw(idx), draw(idx)
        img = BasisIndex((x.parity + y.parity) & 1, img.m, img.i)
        if (x, y) in prod.entries or (y, x) in prod.entries:
            continue
        prod.put(x, y, SparseVector.basis(img, draw(coeffs)))
    return alg, prod, w


class TestLeibnizPartners:
    @given(case=product_cases())
    @settings(max_examples=40, deadline=None)
    def test_products_match_enumeration(self, case):
        alg, prod, w = case
        assert (verify_transposed_leibniz(alg, prod, w).to_json_dict()
                == transposed_leibniz_by_enumeration(alg, prod, w).to_json_dict())

    def test_violation_reached_only_through_the_sum(self):
        # z = L[0,1] has the one partner L[1,1]; the pair (L[1,0], L[0,1])
        # touches it only through x+y, and 2 z.[x,y] != 0 while both other
        # terms vanish
        alg = builtin_algebra("B", Fraction(1))
        prod = ProductTable(is_super=False, q=Fraction(1))
        prod.put(L(0, 1), L(1, 1), SparseVector.basis(L(1, 2), Fraction(1)))
        w = Window(1, 1)
        rep = verify_transposed_leibniz(alg, prod, w)
        assert rep.to_json_dict() == transposed_leibniz_by_enumeration(alg, prod, w).to_json_dict()
        triples = [tuple(map(tuple, v["indices"])) for v in rep.violations]
        assert (("even", 0, 1), ("even", 1, 0), ("even", 0, 1)) in triples
