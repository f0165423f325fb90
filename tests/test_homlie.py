"""Twisted cyclic Jacobi checks."""

from fractions import Fraction

import pytest

from blockq.algebra import Window
from blockq.halfder import (GradedMap, MapDegree, builtin_map, half_derivation_system,
                            shift_map, stabilize)
from blockq.homlie import hom_jacobi_check
from blockq.scalars import from_fraction
from blockq.specdsl import builtin_algebra


class TestBlockTwists:
    def test_identity_reduces_to_jacobi(self):
        alg = builtin_algebra("B", Fraction(2))
        rep = hom_jacobi_check(alg, builtin_map("id", alg, Window(3, 3)), Window(3, 3))
        assert rep.passed
        assert rep.notes["conventions"]["standard"] is True
        # the as-displayed middle term [phi(y),[z,y]] is not an identity
        assert rep.notes["conventions"]["literal"] is False

    def test_alpha_alone_passes_by_centrality(self):
        alg = builtin_algebra("B", Fraction(2))
        rep = hom_jacobi_check(alg, builtin_map("alpha", alg, Window(4, 6)),
                               Window(3, 3))
        assert rep.passed

    def test_id_plus_alpha(self):
        alg = builtin_algebra("B", Fraction(2))
        combo = [(Fraction(1), builtin_map("id", alg, Window(3, 5))),
                 (Fraction(1), builtin_map("alpha", alg, Window(3, 5)))]
        rep = hom_jacobi_check(alg, combo, Window(3, 5))
        assert rep.passed

    def test_shift_fails_with_witness(self):
        alg = builtin_algebra("B", Fraction(2))
        rep = hom_jacobi_check(alg, shift_map(alg, Window(3, 3)), Window(3, 3))
        assert not rep.passed
        assert rep.violations
        assert len(rep.violations[0]["indices"]) == 3
        assert rep.violations[0]["lhs"] != "0"
        # detailed entries are capped; the remainder is only counted
        assert len(rep.violations) == 100
        assert rep.total_violations > 100
        assert rep.to_json_dict()["total_violations"] == rep.total_violations

    def test_stabilized_solutions_are_hom_twists(self):
        # every element of the computed <id, alpha> passes the check
        alg = builtin_algebra("B", Fraction(2))
        w = Window(3, 4)
        combo = []
        for deg in (MapDegree(0, 0, 0), MapDegree(0, 0, 2)):
            st = stabilize(half_derivation_system(alg, deg), [Window(3, 4), Window(4, 5)])
            assert st.stable_dim == 1
            combo.extend((Fraction(5), GradedMap(deg, v)) for v in st.basis.vectors)
        rep = hom_jacobi_check(alg, combo, w)
        assert rep.passed


class TestSuperTwists:
    def test_gamma_with_graded_signs(self):
        alg = builtin_algebra("S", Fraction(2))
        rep = hom_jacobi_check(alg, builtin_map("gamma", alg, Window(2, 3)),
                               Window(2, 3))
        assert rep.passed

    def test_gamma_scaled(self):
        alg = builtin_algebra("S", Fraction(-4))
        gamma = builtin_map("gamma", alg, Window(2, 6))
        rep = hom_jacobi_check(alg, [(Fraction(-3, 2), gamma)], Window(2, 6))
        assert rep.passed

    def test_super_shift_fails(self):
        alg = builtin_algebra("S", Fraction(2))
        rep = hom_jacobi_check(alg, shift_map(alg, Window(2, 2)), Window(2, 2))
        assert not rep.passed


@pytest.mark.parametrize("name, w", [("B", Window(2, 2)), ("S", Window(1, 2))])
class TestGenericTwists:
    def test_identity_and_its_multiple_pass(self, name, w):
        alg = builtin_algebra(name, None)
        ident = builtin_map("id", alg, w)
        assert hom_jacobi_check(alg, ident, w).passed
        third = [(from_fraction(Fraction(1, 3), None), ident)]
        assert hom_jacobi_check(alg, third, w).passed

    def test_shift_fails_with_witness(self, name, w):
        alg = builtin_algebra(name, None)
        rep = hom_jacobi_check(alg, shift_map(alg, w), w)
        assert not rep.passed
        assert "q" in rep.violations[0]["lhs"]
