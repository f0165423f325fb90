"""Kept witnesses equal what an eager scalar-layer enumeration would keep.

The suites evaluate on the compiled layer and build scalar-layer sides only
for the violations a report keeps.  These oracles enumerate the same cases in
the same order, call the scalar sides function for every one, and keep the
first MAX_REPORT_VIOLATIONS that differ.
"""

import json
from pathlib import Path

from blockq.algebra import (MAX_REPORT_VIOLATIONS, BasisIndex, Window,
                            _ViolationLog, jacobi_sides, verify_jacobi)
from blockq.halfder import check_map, half_derivation_sides, shift_map
from blockq.scalars import parse_q
from blockq.specdsl import builtin_algebra, make_algebra, parse_spec

POOLS = json.loads((Path(__file__).resolve().parents[1]
                    / "perfbench" / "pools.json").read_text())


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
        pairs, lambda x, y: half_derivation_sides(alg, gm, x, y))
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
