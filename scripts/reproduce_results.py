#!/usr/bin/env python3
"""Reproduce the half-derivation classifications and structure verifications.

Runs the window-stabilized solver over a grid of q values for both algebras,
verifies the four built-in transposed Poisson structures, and checks the
Hom-Lie twists, printing one summary line per run.  With --fast the window
ladders shrink; maps whose support falls outside the smaller windows then
drop out of the classification (alpha at q=3 lives at (0,-6), so its
dimension is only visible with i_max >= 6, i.e. in the default mode).
"""

import argparse
import time
from fractions import Fraction

from blockq.algebra import EVEN, ODD, Window, verify_antisymmetry, verify_jacobi
from blockq.cli import parse_map_expr
from blockq.halfder import classify
from blockq.homlie import hom_jacobi_check
from blockq.scalars import format_q
from blockq.specdsl import builtin_algebra
from blockq.tpverify import (builtin_tp, verify_associative,
                             verify_left_multiplications,
                             verify_supercommutative_grading,
                             verify_transposed_leibniz)

Q = Fraction


def run_classifications(fast: bool) -> None:
    print("== half-derivation classifications ==")
    block_windows = [Window(3, 4), Window(4, 5)] if fast else [Window(4, 6), Window(5, 7)]
    cases = [
        ("B", None, EVEN, block_windows),
        ("B", Q(1, 2), EVEN, block_windows),
        ("B", Q(7, 3), EVEN, block_windows),
        ("B", Q(0), EVEN, block_windows),
        ("B", Q(1), EVEN, block_windows),
        ("B", Q(2), EVEN, block_windows),
        ("B", Q(3), EVEN, block_windows),
        ("B", Q(-2), EVEN, block_windows),
        ("S", Q(1), EVEN, [Window(3, 3), Window(4, 4)]),
        ("S", Q(0), EVEN, [Window(3, 3), Window(4, 4), Window(5, 5)]),
        ("S", Q(1), ODD, [Window(3, 5), Window(4, 6)] if fast
         else [Window(4, 7), Window(5, 8)]),
        ("S", Q(2), ODD, [Window(3, 5), Window(4, 6)] if fast
         else [Window(4, 7), Window(5, 8)]),
        ("S", Q(-4), ODD, [Window(3, 6), Window(4, 7)] if fast
         else [Window(4, 7), Window(5, 8)]),
        ("S", Q(0), ODD, [Window(3, 5), Window(4, 6)] if fast
         else [Window(4, 7), Window(5, 8)]),
    ]
    for name, q, shift, windows in cases:
        alg = builtin_algebra(name, q)
        t0 = time.time()
        rep = classify(alg, shift, (3, 3), windows)
        degrees = ", ".join(
            f"({d.r},{d.s}):dim {d.stable_dim}"
            + (f" = <{', '.join(d.matched_names)}>" if d.matched_names else "")
            for d in rep.degrees) or "none"
        print(f"  {name}(q={format_q(q)}) {'even' if shift == EVEN else 'odd '} "
              f"shift: total dim {rep.total_dim:2d}  [{degrees}]"
              f"  ({time.time() - t0:.1f}s)")
        if rep.warnings:
            print(f"    warnings: {rep.warnings}")


def run_algebra_checks(fast: bool) -> None:
    print("== Lie (super)algebra axioms, symbolic in q ==")
    for name, w in (("B", Window(3, 3) if fast else Window(4, 4)),
                    ("S", Window(2, 2) if fast else Window(3, 3))):
        alg = builtin_algebra(name, None)
        t0 = time.time()
        anti = verify_antisymmetry(alg, w)
        jac = verify_jacobi(alg, w)
        print(f"  {name}(q) on {w}: antisymmetry {anti.passed}, "
              f"Jacobi {jac.passed} ({jac.checked} triples, "
              f"{time.time() - t0:.1f}s)")


def run_tp_checks(fast: bool) -> None:
    print("== transposed Poisson structures ==")
    w = Window(3, 4) if fast else Window(4, 6)
    for structure, algname, q in (("trivial", "B", Q(1)),
                                  ("block_thalg", "B", Q(2)),
                                  ("super_full", "S", Q(0)),
                                  ("super_even", "S", Q(0))):
        alg = builtin_algebra(algname, q)
        prod = builtin_tp(structure, q, is_super=alg.is_super)
        t0 = time.time()
        checks = [verify_supercommutative_grading(prod).passed,
                  verify_associative(prod, w).passed,
                  verify_transposed_leibniz(alg, prod, w).passed,
                  verify_left_multiplications(alg, prod, w)[0].passed]
        print(f"  {structure} on {algname}(q={q}) over {w}: "
              f"grading/assoc/Leibniz/left-mult = {checks} "
              f"({time.time() - t0:.1f}s)")


def run_hom_checks(fast: bool) -> None:
    print("== Hom-Lie twists ==")
    wB = Window(3, 4) if fast else Window(4, 6)
    B2 = builtin_algebra("B", Q(2))
    for expr in ("id", "alpha", "id + alpha", "shift"):
        t0 = time.time()
        rep = hom_jacobi_check(B2, parse_map_expr(expr, B2, wB), wB)
        print(f"  B(2) twist {expr!r} on {wB}: pass={rep.passed} "
              f"conventions={rep.notes['conventions']} ({time.time() - t0:.1f}s)")
    S2 = builtin_algebra("S", Q(2))
    wS = Window(2, 3) if fast else Window(3, 5)
    t0 = time.time()
    rep = hom_jacobi_check(S2, parse_map_expr("gamma", S2, wS), wS)
    print(f"  S(2) twist 'gamma' on {wS}: pass={rep.passed} ({time.time() - t0:.1f}s)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="smaller windows, about four times faster")
    args = parser.parse_args()
    t0 = time.time()
    run_algebra_checks(args.fast)
    run_classifications(args.fast)
    run_tp_checks(args.fast)
    run_hom_checks(args.fast)
    print(f"total {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
