"""Brackets, grading, antisymmetry and Jacobi checks for the Block family."""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockq.algebra import (EVEN, ODD, BasisIndex, SparseVector, Window,
                            bracket_basis, bracket_coeff, verify_antisymmetry,
                            verify_jacobi)
from blockq.errors import UnknownParityPair
from blockq.scalars import RatFunc
from blockq.specdsl import builtin_algebra, builtin_specfile, make_algebra, parse_spec
from oracles import bracket_vec, eval_expr

L = lambda m, i: BasisIndex(EVEN, m, i)
G = lambda m, i: BasisIndex(ODD, m, i)


@pytest.fixture(scope="module")
def Bgen():
    return builtin_algebra("B", None)


@pytest.fixture(scope="module")
def Sgen():
    return builtin_algebra("S", None)


class TestBracketBasis:
    def test_block_example(self, Bgen):
        out = bracket_basis(Bgen, L(1, 0), L(0, 1))
        assert list(out.entries) == [L(1, 1)]
        # coefficient n(i+q) - m(j+q) at (1,0,0,1) is -(1+q)
        assert out.entries[L(1, 1)] == RatFunc.const(-1) - RatFunc.q()

    @pytest.mark.parametrize("q", [Fraction(0), Fraction(1), Fraction(3), Fraction(-2)])
    def test_central_element(self, q):
        # [L_{m,i}, L_{0,-q}] vanishes for every (m,i)
        alg = builtin_algebra("B", q)
        for m, i in Window(3, 3).points():
            assert bracket_basis(alg, L(m, i), L(0, int(-q))).is_zero

    def test_odd_odd(self):
        alg = builtin_algebra("S", None)
        out = bracket_basis(alg, G(2, 1), G(-2, -1))
        assert out.entries == {L(0, 0): RatFunc.q() + RatFunc.q()}

    def test_unknown_parity_pair(self, Bgen):
        with pytest.raises(UnknownParityPair):
            bracket_basis(Bgen, L(0, 0), G(1, 1))

    def test_grading(self, Sgen):
        for x in (L(2, -1), G(-1, 3)):
            for y in (L(0, 1), G(1, 1)):
                out = bracket_basis(Sgen, x, y)
                for idx in out.entries:
                    assert idx.parity == (x.parity + y.parity) % 2
                    assert (idx.m, idx.i) == (x.m + y.m, x.i + y.i)

    @pytest.mark.parametrize("q0", [Fraction(0), Fraction(1), Fraction(2),
                                    Fraction(5), Fraction(1, 2)])
    def test_specialization_commutes(self, Sgen, q0):
        fixed = builtin_algebra("S", q0)
        basis = Window(3, 3).basis((EVEN, ODD))
        for x in basis[::7]:
            for y in basis[::5]:
                gen = bracket_coeff(Sgen, x, y)
                assert gen.specialize(q0) == bracket_coeff(fixed, x, y)

    @pytest.mark.parametrize("q", [Fraction(1), Fraction(2)])
    def test_annihilator_index_brackets_vanish(self, q):
        # whenever the output index is (0,-2q), the coefficient is zero
        alg = builtin_algebra("B", q)
        for m, i in Window(5, 7).points():
            n, j = -m, int(-2 * q) - i
            assert bracket_basis(alg, L(m, i), L(n, j)).is_zero


SPECFILES = {"B": lambda: builtin_specfile("B"), "S": lambda: builtin_specfile("S"),
             "mutated_S": lambda: parse_spec(
                 (Path(__file__).parent / "golden" / "inputs" / "mutated_S.alg").read_text())}


@pytest.mark.parametrize("q", [None, Fraction(0), Fraction(2), Fraction(-4),
                               Fraction(1, 2), Fraction(7, 3)], ids=str)
@pytest.mark.parametrize("name", sorted(SPECFILES))
def test_bracket_coeff_matches_parsed_rule(name, q):
    """Every structure constant of a 2x2 window equals its `.alg` rule
    evaluated on the expression tree; a pair given in the other order gets
    the graded swap sign -(-1)^{|x||y|}.  The (1/2)*q of both S specs clears
    to den = 2, and a non-integer q adds q's denominator to the clearing."""
    sf = SPECFILES[name]()
    alg = make_algebra(sf, q)
    decls = {(d.left, d.right): d.coeff for d in sf.rules}
    bound = {} if q is None else {"q": q}
    for x, y in product(Window(2, 2).basis(alg.parities), repeat=2):
        swapped = (x.parity, y.parity) not in decls
        a, b = (y, x) if swapped else (x, y)
        want = eval_expr(decls[(a.parity, b.parity)],
                         {"m": a.m, "i": a.i, "n": b.m, "j": b.i, **bound}, generic=q is None)
        if swapped and not x.parity & y.parity:
            want = -want
        assert bracket_coeff(alg, x, y) == want, (x, y)


class TestBracketVec:
    def test_zero_argument(self, Bgen):
        u = SparseVector.basis(L(1, 0), RatFunc.const(3))
        assert bracket_vec(Bgen, u, SparseVector()).is_zero

    def test_bilinear_expansion(self, Bgen):
        u = SparseVector.basis(L(1, 0), RatFunc.const(1)) \
            + SparseVector.basis(L(0, 1), RatFunc.const(1))
        v = SparseVector.basis(L(0, 1), RatFunc.const(1))
        out = bracket_vec(Bgen, u, v)
        assert out == bracket_basis(Bgen, L(1, 0), L(0, 1))

    @given(c=st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
           mx=st.integers(-2, 2), ix=st.integers(-2, 2),
           my=st.integers(-2, 2), iy=st.integers(-2, 2))
    @settings(max_examples=40, deadline=None)
    def test_scaling(self, c, mx, ix, my, iy):
        alg = builtin_algebra("S", Fraction(2))
        u = SparseVector.basis(L(mx, ix), Fraction(1)) \
            + SparseVector.basis(G(my, iy), Fraction(2))
        v = SparseVector.basis(G(my, ix), Fraction(1))
        lhs = bracket_vec(alg, u.scale(c), v)
        rhs = bracket_vec(alg, u, v).scale(c)
        assert lhs == rhs


MUTATED_ODD_ODD = """
algebra Sbad
super true
rule even even antisymmetric: n*(i + q) - m*(j + q)
rule even odd antisymmetric: n*(i + q) - m*(j + (1/2)*q)
rule odd odd symmetric: 2*q*n
"""

MUTATED_B = """
algebra Bbad
super false
rule even even antisymmetric: n*i - m*j + 1
"""


class TestVerifyAntisymmetry:
    def test_block_passes(self, Bgen):
        assert verify_antisymmetry(Bgen, Window(3, 3)).passed

    def test_super_passes(self, Sgen):
        assert verify_antisymmetry(Sgen, Window(3, 3)).passed

    def test_mutated_odd_odd_fails(self):
        alg = make_algebra(parse_spec(MUTATED_ODD_ODD), None)
        rep = verify_antisymmetry(alg, Window(2, 2))
        assert not rep.passed
        assert rep.violations
        # the listed pair has distinct odd factors
        parities = {tuple(idx) for v in rep.violations for idx in v["indices"]}
        assert any(p[0] == "odd" for p in parities)


class TestVerifyJacobi:
    def test_block_symbolic(self, Bgen):
        rep = verify_jacobi(Bgen, Window(2, 2))
        assert rep.passed and rep.total_violations == 0

    def test_super_symbolic(self, Sgen):
        rep = verify_jacobi(Sgen, Window(2, 2))
        assert rep.passed

    def test_super_mixed_triple_hand_check(self, Sgen):
        # [L,[G,G]] and its Jacobi expansion agree with the closed form
        # 2q((n+p)(i+q) - m(j+k+q)) on a generic triple
        from oracles import jacobi_sides
        m, i, n, j, p, k = 1, -2, 2, 1, -1, 3
        lhs, rhs = jacobi_sides(Sgen, L(m, i), G(n, j), G(p, k))
        assert lhs == rhs
        q = RatFunc.q()
        two_q = q + q
        expect = two_q * ((q + q.const(i)) * q.const(n + p)
                          - q.const(m) * (q + q.const(j + k)))
        assert lhs.entries.get(L(m + n + p, i + j + k), RatFunc.const(0)) == expect

    def test_mutated_block_fails(self):
        alg = make_algebra(parse_spec(MUTATED_B), None)
        rep = verify_jacobi(alg, Window(2, 2))
        assert not rep.passed
        assert rep.violations and len(rep.violations[0]["indices"]) == 3

    def test_report_json_shape(self, Bgen):
        rep = verify_jacobi(Bgen, Window(1, 1))
        data = rep.to_json_dict()
        assert set(data) == {"checked", "violations", "pass"}
        assert data["pass"] is True


class TestWindow:
    def test_parse_and_str(self):
        w = Window.parse("4x6")
        assert (w.m_max, w.i_max) == (4, 6)
        assert str(w) == "4x6"

    def test_points_deterministic(self):
        w = Window(1, 2)
        pts = w.points()
        assert pts == sorted(pts)
        assert len(pts) == 3 * 5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Window(0, 3)


def test_sparse_vector_is_unhashable():
    # add_term edits a vector in place, so a hash taken earlier would go stale
    with pytest.raises(TypeError):
        hash(SparseVector.basis(L(1, 0), Fraction(1)))
