"""Kept witnesses equal what an eager scalar-layer enumeration would keep.

The suites lift each kept witness from the compiled values their residual
found.  These oracles enumerate the same cases in the same order, rebuild
the sides of every one with the scalar builders of `oracles` (exact
brackets, no compiled residual), and keep the first MAX_REPORT_VIOLATIONS
that differ.  The cases include maps and products with fractional values,
whose witnesses are lifted past the table's clearing factor, and fractional
q, whose witnesses are lifted past the algebra's scale.  For transposed
Leibniz this is the only check of the compiled residual against the scalar
layer.
"""

import json
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from oracles import (antisymmetry_sides, apply_basis, bracket_vec, half_derivation_sides,
                     hom_cyclic_sum, jacobi_sides)

from blockq.algebra import (EVEN, MAX_REPORT_VIOLATIONS, BasisIndex, SparseVector,
                            Window, _ViolationLog, bracket_basis,
                            verify_antisymmetry, verify_jacobi)
from blockq.cli import parse_map_expr
from blockq.halfder import check_map, shift_map
from blockq.homlie import hom_jacobi_check
from blockq.scalars import from_fraction, parse_q, scalar_one
from blockq.specdsl import builtin_algebra, make_algebra, parse_spec
from blockq.tpverify import (ProductTable, left_mult_map, verify_associative,
                             verify_transposed_leibniz)

ROOT = Path(__file__).resolve().parents[1]
POOLS = json.loads((ROOT / "perfbench" / "pools.json").read_text())
INPUTS = ROOT / "tests" / "golden" / "inputs"


def eager_violations(cases, sides) -> tuple[list[dict], int]:
    kept, total = [], 0
    for indices in cases:
        lhs, rhs = sides(*indices)
        if lhs != rhs:
            total += 1
            if len(kept) < MAX_REPORT_VIOLATIONS:
                kept.append({"indices": [idx.json() for idx in indices],
                             "lhs": str(lhs), "rhs": str(rhs)})
    return kept, total


def mutated(name: str, qtext: str):
    return make_algebra(parse_spec(POOLS["specs"][name]), parse_q(qtext))


def load_table(name: str) -> dict:
    return json.loads((INPUTS / f"{name}.json").read_text())


# q = 7/3 clears the mutated rules by a scale of 3
@pytest.mark.parametrize("qtext, window", [("generic", "2x2"), ("7/3", "2x2")])
def test_antisymmetry_matches_eager_oracle(qtext, window):
    alg = mutated("mutated_B", qtext)
    w = Window.parse(window)
    rep = verify_antisymmetry(alg, w)
    kept, total = eager_violations(combinations_with_replacement(w.basis(alg.parities), 2),
                                   lambda x, y: antisymmetry_sides(alg, x, y))
    assert total > MAX_REPORT_VIOLATIONS
    assert (rep.violations, rep.total_violations) == (kept, total)


def test_jacobi_mutated_block_matches_eager_oracle():
    assert_jacobi_matches_eager_oracle(mutated("mutated_B", "generic"))


def test_jacobi_fixed_q_matches_eager_oracle():
    # q = 7/3: witnesses in ninths, each product carrying the scale 3 twice
    assert_jacobi_matches_eager_oracle(mutated("mutated_S", "7/3"))


def assert_jacobi_matches_eager_oracle(alg):
    w = Window(1, 1)
    rep = verify_jacobi(alg, w)
    kept, total = eager_violations(product(w.basis(alg.parities), repeat=3),
                                   lambda x, y, z: jacobi_sides(alg, x, y, z))
    assert total > MAX_REPORT_VIOLATIONS
    assert (rep.violations, rep.total_violations) == (kept, total)


# a twist in thirds, and a super twist at q = 1/2
@pytest.mark.parametrize("name, qtext, expr, window", [("B", "2", "1/3*shift", "2x2"),
                                                      ("S", "1/2", "shift - 1/2*id", "1x1")])
def test_hom_lie_matches_eager_oracle(name, qtext, expr, window):
    alg = builtin_algebra(name, parse_q(qtext))
    w = Window.parse(window)
    terms = parse_map_expr(expr, alg, w)
    rep = hom_jacobi_check(alg, terms, w)
    kept, total = eager_violations(
        product(w.basis(alg.parities), repeat=3),
        lambda x, y, z: (hom_cyclic_sum(alg, terms, x, y, z), SparseVector()))
    assert total > MAX_REPORT_VIOLATIONS
    assert (rep.violations, rep.total_violations) == (kept, total)


def row_pairs(w: Window):
    """The pairs of B's check_map rows, in row order: unordered in-window
    pairs whose sum stays in the window."""
    pts = w.points()
    return [(BasisIndex(EVEN, m1, i1), BasisIndex(EVEN, m2, i2))
            for m1, i1 in pts for m2, i2 in pts
            if (m2, i2) >= (m1, i1) and w.contains(m1 + m2, i1 + i2)]


def map_sides(alg, gm):
    return lambda x, y: half_derivation_sides(alg, lambda u: apply_basis(gm, u),
                                              gm.degree.parity_shift, x, y)


def test_check_map_shift_matches_eager_oracle():
    alg = builtin_algebra("B", parse_q("2"))
    w = Window(3, 3)
    gm = shift_map(alg, w)
    rep = check_map(alg, gm, w)
    kept, total = eager_violations(row_pairs(w), map_sides(alg, gm))
    assert total > MAX_REPORT_VIOLATIONS
    assert (rep.violations, rep.total_violations) == (kept, total)


# a product in thirds at q = 1, and one with a generic-q value 1/(q + 1)
FRACTIONAL = [("1", "fractional_thalg", "2x3"), ("generic", "generic_q_product", "2x2")]


@pytest.mark.parametrize("qtext, name, window", FRACTIONAL)
def test_left_multiplications_match_eager_oracle(qtext, name, window):
    q = parse_q(qtext)
    alg = builtin_algebra("B", q)
    prod = ProductTable.from_json(load_table(name), q)
    w = Window.parse(window)
    seen = 0
    for z in prod.factor_indices():
        gm = left_mult_map(prod, z, w)
        rep = check_map(alg, gm, w)
        kept, total = eager_violations(row_pairs(w), map_sides(alg, gm))
        assert (rep.violations, rep.total_violations) == (kept, total)
        seen += total
    assert seen > 0


@pytest.mark.parametrize("qtext, name, window", FRACTIONAL)
def test_leibniz_matches_half_derivation_oracle(qtext, name, window):
    q = parse_q(qtext)
    alg = builtin_algebra("B", q)
    prod = ProductTable.from_json(load_table(name), q)
    w = Window.parse(window)
    rep = verify_transposed_leibniz(alg, prod, w)
    kept, total = eager_violations(
        product(w.basis(alg.parities), repeat=3),
        lambda z, x, y: half_derivation_sides(alg, lambda u: prod.product(z, u),
                                              z.parity, x, y))
    assert total > 0
    assert (rep.violations, rep.total_violations) == (kept, total)


def test_details_are_built_only_while_kept():
    log = _ViolationLog()
    calls = []
    for k in range(MAX_REPORT_VIOLATIONS + 5):
        log.record((), lambda: (calls.append(k), (k, 0))[1])
    rep = log.report(checked=MAX_REPORT_VIOLATIONS + 5)
    assert calls == list(range(MAX_REPORT_VIOLATIONS))
    assert rep.total_violations == MAX_REPORT_VIOLATIONS + 5
    assert rep.violations[-1]["lhs"] == str(MAX_REPORT_VIOLATIONS - 1)


# (algebra, q, product table, window): the mutated Block TH-algebra product,
# a product with generic-q values, and a super product that is not associative
PRODUCTS = [("B", "1", POOLS["products"]["mutated_thalg"], "2x3"),
            ("B", "generic", load_table("generic_q_product"), "2x2"),
            ("S", "0", load_table("doubled_super"), "2x2")]
# an odd-odd product: most kept Leibniz witnesses have z and x both odd, the
# branch where the sign (-1)^{|x||z|} is -1
ODD_PRODUCT = {"super": True, "entries": [{"x": ["odd", 0, 0], "y": ["odd", 1, 0],
                                           "value": [["even", 1, 0, "1"]]}]}


@pytest.mark.parametrize("name, qtext, table, window",
                         PRODUCTS[:2] + [("S", "0", ODD_PRODUCT, "1x1")])
def test_leibniz_matches_eager_oracle(name, qtext, table, window):
    q = parse_q(qtext)
    alg = builtin_algebra(name, q)
    prod = ProductTable.from_json(table, q)
    w = Window.parse(window)
    one = scalar_one(q)

    def sides(z, x, y):
        """2 z.[x,y] and [z.x, y] + (-1)^{|x||z|} [x, z.y] on the scalar layer."""
        lhs = prod.product_vec(SparseVector.basis(z, one), bracket_basis(alg, x, y))
        rhs = (bracket_vec(alg, prod.product(z, x), SparseVector.basis(y, one))
               + bracket_vec(alg, SparseVector.basis(x, one), prod.product(z, y)).scale(
                   from_fraction(-1 if x.parity and z.parity else 1, q)))
        return lhs.scale(from_fraction(2, q)), rhs

    rep = verify_transposed_leibniz(alg, prod, w)
    kept, total = eager_violations(product(w.basis(alg.parities), repeat=3), sides)
    assert total > 0
    assert (rep.violations, rep.total_violations) == (kept, total)


@pytest.mark.parametrize("name, qtext, table, window", PRODUCTS)
def test_associativity_matches_eager_oracle(name, qtext, table, window):
    q = parse_q(qtext)
    prod = ProductTable.from_json(table, q)
    w = Window.parse(window)
    universe = sorted(set(prod.support_indices()) | set(w.basis(prod.parities)))
    one = scalar_one(q)
    rep = verify_associative(prod, w)
    kept, total = eager_violations(
        product(universe, repeat=3),
        lambda x, y, z: (prod.product_vec(prod.product(x, y), SparseVector.basis(z, one)),
                         prod.product_vec(SparseVector.basis(x, one), prod.product(y, z))))
    # the report visits support-touching triples, not the cube in order, so
    # the two agree as sets while every violation is kept
    assert total <= MAX_REPORT_VIOLATIONS
    assert rep.total_violations == total
    assert sorted(map(str, rep.violations)) == sorted(map(str, kept))
