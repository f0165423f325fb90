"""Kept witnesses equal what an eager scalar-layer enumeration would keep.

The suites evaluate on the compiled layer and build scalar-layer sides only
for the violations a report keeps.  These oracles enumerate the same cases in
the same order, call the scalar sides function for every one, and keep the
first MAX_REPORT_VIOLATIONS that differ.  For transposed Leibniz this is the
only check of the compiled residual against the scalar layer.
"""

import json
from itertools import product
from pathlib import Path

import pytest

from blockq.algebra import (EVEN, MAX_REPORT_VIOLATIONS, ODD, BasisIndex, SparseVector,
                            Window, _ViolationLog, bracket_basis, bracket_vec,
                            jacobi_sides, verify_jacobi)
from blockq.halfder import check_map, half_derivation_sides, shift_map
from blockq.scalars import from_fraction, parse_q, scalar_one
from blockq.specdsl import builtin_algebra, make_algebra, parse_spec
from blockq.tpverify import ProductTable, verify_associative, verify_transposed_leibniz

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


def test_jacobi_mutated_block_matches_eager_oracle():
    alg = make_algebra(parse_spec(POOLS["specs"]["mutated_B"]), parse_q("generic"))
    w = Window(1, 1)
    basis = w.basis(alg.parities)
    rep = verify_jacobi(alg, w)
    kept, total = eager_violations(
        [(x, y, z) for x in basis for y in basis for z in basis],
        lambda x, y, z: jacobi_sides(alg, x, y, z))
    assert total > MAX_REPORT_VIOLATIONS
    assert (rep.violations, rep.total_violations) == (kept, total)


def test_check_map_shift_matches_eager_oracle():
    alg = builtin_algebra("B", parse_q("2"))
    w = Window(3, 3)
    gm = shift_map(alg, w)
    pts = w.points()
    # unordered in-window pairs whose sum stays in the window, in row order
    pairs = [(BasisIndex(0, m1, i1), BasisIndex(0, m2, i2))
             for m1, i1 in pts for m2, i2 in pts
             if (m2, i2) >= (m1, i1) and w.contains(m1 + m2, i1 + i2)]
    rep = check_map(alg, gm, w)
    kept, total = eager_violations(
        pairs, lambda x, y: half_derivation_sides(alg, gm.apply_basis,
                                                  gm.degree.parity_shift, x, y))
    assert total > MAX_REPORT_VIOLATIONS
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
            ("B", "generic", json.loads((INPUTS / "generic_q_product.json").read_text()), "2x2"),
            ("S", "0", json.loads((INPUTS / "doubled_super.json").read_text()), "2x2")]
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
    parities = (EVEN, ODD) if prod.is_super else (EVEN,)
    universe = sorted(set(prod.support_indices()) | set(w.basis(parities)))
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
