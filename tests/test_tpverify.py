"""Product tables and the transposed Poisson axiom suite."""

import json
from fractions import Fraction

import pytest

from blockq.algebra import EVEN, ODD, BasisIndex, SparseVector, Window, bracket_basis
from blockq.errors import ModeMismatch, NonHomogeneousMultiplication, ParseError, WrongQ
from blockq.halfder import MapDegree, half_derivation_system, stabilize
from blockq.specdsl import builtin_algebra
from blockq.tpverify import (ProductTable, builtin_tp, left_mult_map,
                             verify_associative, verify_left_multiplications,
                             verify_supercommutative_grading,
                             verify_transposed_leibniz)

L = lambda m, i: BasisIndex(EVEN, m, i)
G = lambda m, i: BasisIndex(ODD, m, i)

ONE = Fraction(1)


def vec(idx, c=ONE):
    return SparseVector.basis(idx, Fraction(c))


class TestBuiltinProducts:
    def test_block_thalg_at_two(self):
        prod = builtin_tp("block_thalg", Fraction(2))
        assert prod.entries == {(L(0, -4), L(0, -4)): vec(L(0, -2))}

    def test_super_full(self):
        prod = builtin_tp("super_full", Fraction(0))
        assert prod.entries == {(L(0, 0), L(0, 0)): vec(L(0, 0)),
                                (L(0, 0), G(0, 0)): vec(G(0, 0))}

    def test_super_even(self):
        prod = builtin_tp("super_even", Fraction(0))
        assert prod.entries == {(L(0, 0), L(0, 0)): vec(L(0, 0))}

    def test_trivial_empty(self):
        assert builtin_tp("trivial", Fraction(1)).entries == {}

    def test_wrong_q(self):
        with pytest.raises(WrongQ):
            builtin_tp("block_thalg", Fraction(1, 2))
        with pytest.raises(WrongQ):
            builtin_tp("super_full", Fraction(1))
        with pytest.raises(WrongQ):
            builtin_tp("super_even", Fraction(-2))


class TestSupercommutativity:
    def test_swap_sign_on_lookup(self):
        prod = builtin_tp("super_full", Fraction(0))
        assert prod.product(G(0, 0), L(0, 0)) == vec(G(0, 0))
        assert prod.product(L(0, 0), G(0, 0)) == vec(G(0, 0))

    def test_odd_odd_lookup_antisymmetric(self):
        prod = ProductTable(is_super=True, q=Fraction(0))
        prod.put(G(0, 0), G(1, 1), vec(L(1, 1)))
        assert prod.product(G(1, 1), G(0, 0)) == vec(L(1, 1), -1)


class TestGrading:
    def test_builtins_pass(self):
        for name, q in (("block_thalg", Fraction(2)), ("super_full", Fraction(0)),
                        ("super_even", Fraction(0)), ("trivial", Fraction(1))):
            assert verify_supercommutative_grading(builtin_tp(name, q)).passed

    def test_odd_square_fails(self):
        prod = ProductTable(is_super=True, q=Fraction(0))
        prod.put(G(0, 0), G(0, 0), vec(L(0, 0)))
        rep = verify_supercommutative_grading(prod)
        assert not rep.passed

    def test_parity_violation_fails(self):
        prod = ProductTable(is_super=True, q=Fraction(0))
        prod.put(L(0, 0), L(0, 0), vec(G(0, 0)))
        assert not verify_supercommutative_grading(prod).passed

    def test_inconsistent_left_degrees_fail(self):
        prod = ProductTable(is_super=False, q=Fraction(0))
        prod.put(L(0, 0), L(1, 0), vec(L(1, 0)))
        prod.put(L(0, 0), L(0, 1), vec(L(1, 1)))
        assert not verify_supercommutative_grading(prod).passed

    def test_witnesses(self):
        # an odd square; two images of the wrong parity, one violation; a
        # two-term image; and L[5,0] moving L[6,0] by (5, 0) but L[7,0] by (-2, 0)
        prod = ProductTable(is_super=True, q=Fraction(0))
        prod.put(G(0, 0), G(0, 0), vec(L(0, 0)))
        prod.put(L(0, 1), L(0, 1), vec(G(0, 0)) + vec(G(1, 0), 2))
        prod.put(L(0, 2), L(0, 2), vec(L(0, 0)) + vec(L(1, 0), -1))
        prod.put(L(5, 0), L(6, 0), vec(L(11, 0)))
        prod.put(L(5, 0), L(7, 0), vec(L(5, 0), 3))
        rep = verify_supercommutative_grading(prod)
        assert (rep.checked, rep.total_violations) == (5, 4)
        assert rep.violations == [
            {"indices": [["even", 0, 1], ["even", 0, 1]],
             "lhs": "(1)*G[0,0] + (2)*G[1,0]", "rhs": "images of parity 0"},
            {"indices": [["even", 0, 2], ["even", 0, 2]],
             "lhs": "(1)*L[0,0] + (-1)*L[1,0]", "rhs": "a single homogeneous image"},
            {"indices": [["even", 5, 0], ["even", 7, 0]],
             "lhs": "degree (even,-2,0)", "rhs": "degree (even,5,0)"},
            {"indices": [["odd", 0, 0], ["odd", 0, 0]],
             "lhs": "(1)*L[0,0]", "rhs": "0 (odd square)"},
        ]


class TestAssociativity:
    def test_block_thalg_q1(self):
        # (L.L).L = L_{0,-1}.L_{0,-2} = 0 = L.(L.L)
        prod = builtin_tp("block_thalg", Fraction(1))
        assert verify_associative(prod, Window(3, 3)).passed

    def test_super_full_includes_mixed_triple(self):
        prod = builtin_tp("super_full", Fraction(0))
        rep = verify_associative(prod, Window(3, 3))
        assert rep.passed

    def test_scaled_mixed_entry_fails(self):
        # c2 = 2 with c1 = 1 breaks (L.L).G = L.(L.G)
        prod = ProductTable(is_super=True, q=Fraction(0))
        prod.put(L(0, 0), L(0, 0), vec(L(0, 0)))
        prod.put(L(0, 0), G(0, 0), vec(G(0, 0), 2))
        rep = verify_associative(prod, Window(2, 2))
        assert not rep.passed
        assert rep.violations


class TestTransposedLeibniz:
    def test_block_thalg(self):
        alg = builtin_algebra("B", Fraction(1))
        prod = builtin_tp("block_thalg", Fraction(1))
        assert verify_transposed_leibniz(alg, prod, Window(4, 6)).passed

    def test_trivial(self):
        alg = builtin_algebra("B", Fraction(1))
        prod = builtin_tp("trivial", Fraction(1))
        rep = verify_transposed_leibniz(alg, prod, Window(3, 3))
        assert rep.passed

    def test_super_products(self):
        alg = builtin_algebra("S", Fraction(0))
        for name in ("super_full", "super_even"):
            prod = builtin_tp(name, Fraction(0), is_super=True)
            assert verify_transposed_leibniz(alg, prod, Window(3, 3)).passed

    def test_noncentral_image_fails(self):
        # sending the square to L_{1,0} (not central) breaks the law
        alg = builtin_algebra("B", Fraction(1))
        prod = ProductTable(is_super=False, q=Fraction(1))
        prod.put(L(0, -2), L(0, -2), vec(L(1, 0)))
        rep = verify_transposed_leibniz(alg, prod, Window(4, 6))
        assert not rep.passed
        witness = rep.violations[0]["indices"]
        assert len(witness) == 3

    def test_parity_mismatch_rejected(self):
        alg = builtin_algebra("S", Fraction(0))
        prod = builtin_tp("block_thalg", Fraction(0))
        with pytest.raises(WrongQ):
            verify_transposed_leibniz(alg, prod, Window(2, 2))

    def test_mode_mismatch_rejected(self):
        # a table that does not record its q holds Fractions here, which a
        # generic-q algebra cannot combine with its RatFunc brackets
        prod = ProductTable(is_super=False)
        prod.put(L(0, 0), L(0, 0), vec(L(0, 0)))
        with pytest.raises(ModeMismatch):
            verify_transposed_leibniz(builtin_algebra("B", None), prod, Window(1, 1))


class TestLeftMultiplication:
    def test_block_thalg_column(self):
        prod = builtin_tp("block_thalg", Fraction(2))
        lm = left_mult_map(prod, L(0, -4), Window(4, 6))
        assert lm.degree == MapDegree(EVEN, 0, 2)
        assert lm.table == {L(0, -4): ONE}

    def test_super_full_column(self):
        prod = builtin_tp("super_full", Fraction(0))
        lm = left_mult_map(prod, L(0, 0), Window(3, 3))
        assert lm.degree == MapDegree(EVEN, 0, 0)
        assert lm.table == {L(0, 0): ONE, G(0, 0): ONE}

    def test_outside_support_is_zero(self):
        prod = builtin_tp("block_thalg", Fraction(2))
        lm = left_mult_map(prod, L(1, 1), Window(3, 3))
        assert lm.is_zero

    def test_non_homogeneous_rejected(self):
        prod = ProductTable(is_super=False, q=Fraction(0))
        prod.put(L(0, 0), L(1, 0), vec(L(1, 0)))
        prod.put(L(0, 0), L(0, 1), vec(L(1, 1)))
        with pytest.raises(NonHomogeneousMultiplication):
            left_mult_map(prod, L(0, 0), Window(2, 2))

    @pytest.mark.parametrize("name,qs", [
        ("block_thalg", (Fraction(1), Fraction(2))),
        ("super_full", (Fraction(0),)),
        ("super_even", (Fraction(0),))])
    def test_left_mults_are_half_derivations(self, name, qs):
        for q in qs:
            prod = builtin_tp(name, q)
            alg = builtin_algebra("S" if prod.is_super else "B", q)
            rep, details = verify_left_multiplications(alg, prod, Window(4, 6))
            assert rep.passed, details

    def test_left_mult_lands_in_stabilized_null_space(self):
        q = Fraction(2)
        prod = builtin_tp("block_thalg", q)
        alg = builtin_algebra("B", q)
        lm = left_mult_map(prod, L(0, -4), Window(4, 6))
        st = stabilize(half_derivation_system(alg, lm.degree), [Window(4, 6), Window(5, 7)])
        assert st.basis.contains(lm.table)


class TestCentralityInvariants:
    @pytest.mark.parametrize("q", [Fraction(1), Fraction(2)])
    def test_product_images_are_central(self, q):
        alg = builtin_algebra("B", q)
        prod = builtin_tp("block_thalg", q)
        w = Window(5, 7)
        images = set()
        for v in prod.entries.values():
            images.update(v.entries)
        for img in images:
            for m, i in w.points():
                assert bracket_basis(alg, L(m, i), img).is_zero

    @pytest.mark.parametrize("q", [Fraction(1), Fraction(2)])
    def test_bracket_images_annihilate(self, q):
        # [x,y] never reaches the product support with a nonzero coefficient
        alg = builtin_algebra("B", q)
        prod = builtin_tp("block_thalg", q)
        w = Window(5, 7)
        args = set(prod.factor_indices())
        for m, i in w.points():
            for n, j in w.points():
                out = bracket_basis(alg, L(m, i), L(n, j))
                for idx in out.entries:
                    assert idx not in args
    # the two invariants together make both Leibniz sides vanish identically


class TestJsonRoundtrip:
    def test_roundtrip(self):
        prod = builtin_tp("super_full", Fraction(0))
        data = json.loads(json.dumps(prod.to_json_dict()))
        back = ProductTable.from_json(data, Fraction(0))
        assert back.entries == prod.entries
        assert back.is_super == prod.is_super

    def test_mutated_json_fails_leibniz(self):
        alg = builtin_algebra("B", Fraction(1))
        data = {"super": False,
                "entries": [{"x": ["even", 0, -2], "y": ["even", 0, -2],
                             "value": [["even", 1, 0, "1"]]}]}
        prod = ProductTable.from_json(data, Fraction(1))
        assert not verify_transposed_leibniz(alg, prod, Window(4, 6)).passed

    def test_super_must_be_boolean(self):
        # "false" is a truthy string, so a bool() reading took it for a super product
        for flag in ("false", 0, 1, None):
            with pytest.raises(ParseError):
                ProductTable.from_json({"super": flag, "entries": []}, Fraction(0))

    def test_conflicting_duplicate_rejected(self):
        data = {"super": False,
                "entries": [
                    {"x": ["even", 0, 0], "y": ["even", 1, 0],
                     "value": [["even", 1, 0, "1"]]},
                    {"x": ["even", 1, 0], "y": ["even", 0, 0],
                     "value": [["even", 1, 0, "2"]]}]}
        with pytest.raises(ValueError):
            ProductTable.from_json(data, Fraction(0))

    def test_pair_given_twice_with_the_same_value_accepted(self):
        # another value, zero or not, is a conflict (tests/test_cli.py);
        # the swapped order of two odd factors carries the sign -1
        odd = [{"x": ["odd", 0, 0], "y": ["odd", 1, 0], "value": [["even", 1, 0, "1"]]},
               {"x": ["odd", 1, 0], "y": ["odd", 0, 0], "value": [["even", 1, 0, "-1"]]}]
        prod = ProductTable.from_json({"super": True, "entries": odd * 2}, Fraction(0))
        assert prod.entries == {(G(0, 0), G(1, 0)): vec(L(1, 0))}
        zero = {"x": ["even", 0, 0], "y": ["even", 1, 0], "value": [["even", 1, 0, "0"]]}
        prod = ProductTable.from_json({"super": False, "entries": [zero, zero]}, Fraction(0))
        assert prod.entries == {}
