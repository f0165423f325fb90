"""Command-line front end: verification suites, classification runs, JSON reports.

Exit codes are stable across commands: 0 all checks passed, 1 a verification
or an --expect comparison failed, or a classified degree did not stabilize
(with or without --expect), 2 unusable input (bad flags, parse errors, maps or
products requested at an invalid q).

Windows are written MxI (m_max x i_max, both positive), ladders as a comma
list of windows each inside the next and not equal to it, and degree bounds
RxS (|r| <= R, |s| <= S, zero allowed); q is 'generic' or an exact rational
like 7/3 (decimals are rejected).  --map parse errors carry a line and a
column, like those of .alg files.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import (Window, parity_from_name, parse_dims, verify_antisymmetry,
                      verify_jacobi)
from .errors import BlockqError, ParseError
from .halfder import MapCombo, builtin_map, classify, shift_map
from .homlie import hom_jacobi_check
from .scalars import Tokens, format_q, from_fraction, parse_q
from .specdsl import builtin_algebra, make_algebra, parse_spec, print_spec
from .tpverify import (BUILTIN_PRODUCTS, ProductTable, builtin_tp,
                       verify_associative, verify_left_multiplications,
                       verify_supercommutative_grading, verify_transposed_leibniz)

USAGE_ERROR = 2
VERIFY_FAIL = 1


def _load_algebra(args) -> tuple[str, object]:
    q = parse_q(args.q)
    if args.spec:
        with open(args.spec) as fh:
            sf = parse_spec(fh.read())
        return args.spec, make_algebra(sf, q)
    return args.algebra, builtin_algebra(args.algebra, q)


def _parse_windows(text: str) -> list[Window]:
    return [Window.parse(part) for part in text.split(",") if part.strip()]


def _emit(args, report: dict) -> None:
    payload = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    if not args.quiet and not args.out:
        sys.stdout.write(payload)


def parse_map_expr(text: str, alg, w: Window) -> MapCombo:
    """Linear combinations of named maps: 'id + alpha', '2*id - 1/3*epsilon'.

    A coefficient is an integer or a fraction written without spaces; the
    whole text is parsed before any map is built."""
    toks = Tokens(text)
    terms: list[tuple[Fraction, str]] = []
    while True:
        signs = []
        while op := toks.accept("+", "-"):
            signs.append(op)
        if toks.peek() == "EOF":
            if not terms:
                raise toks.error("empty map expression")
            if signs:
                raise toks.error("map expression ends with an operator")
            break
        if terms and not signs:
            raise toks.error(f"expected '+' or '-' before {toks.text!r} in map expression")
        coeff = Fraction((-1) ** signs.count("-"))
        if toks.peek() == "INT":
            coeff *= int(toks.take("INT"))
            if toks.peek() == "/" and toks.glued():
                toks.take("/")
                if not (toks.peek() == "INT" and toks.glued() and int(toks.text)):
                    raise toks.error("a coefficient's denominator is a nonzero integer "
                                     "written right after '/'")
                coeff /= int(toks.take("INT"))
            toks.accept("*")
        terms.append((coeff, toks.take("NAME", "a map name")))
    return [(from_fraction(c, alg.q),
             shift_map(alg, w) if name == "shift" else builtin_map(name, alg, w))
            for c, name in terms]


def cmd_verify_algebra(args) -> int:
    label, alg = _load_algebra(args)
    w = Window.parse(args.window)
    rep_anti = verify_antisymmetry(alg, w)
    rep_jac = verify_jacobi(alg, w)
    passed = rep_anti.passed and rep_jac.passed
    _emit(args, {"algebra": label, "q": format_q(alg.q), "window": str(w),
                 "antisymmetry": rep_anti.to_json_dict(),
                 "jacobi": rep_jac.to_json_dict(),
                 "pass": passed})
    return 0 if passed else VERIFY_FAIL


def cmd_classify(args) -> int:
    label, alg = _load_algebra(args)
    windows = _parse_windows(args.windows)
    if not windows:
        raise ParseError("no windows given")
    if args.bounds:
        bounds = parse_dims(args.bounds, "RxS", 0)
    else:
        bounds = (windows[0].m_max, windows[0].i_max)
    shift = parity_from_name(args.shift)
    report = classify(alg, shift, bounds, windows)
    payload = report.to_json_dict()
    payload["algebra"] = label
    # a degree that did not stabilize makes the total unreliable
    passed = not report.warnings
    if args.expect is not None:
        payload["expected_total_dim"] = args.expect
        passed = passed and report.total_dim == args.expect
        payload["pass"] = passed
    _emit(args, payload)
    return 0 if passed else VERIFY_FAIL


def cmd_verify_tp(args) -> int:
    label, alg = _load_algebra(args)
    q = alg.q
    if args.json:
        with open(args.json) as fh:
            try:
                table = json.load(fh)
            except RecursionError:
                raise ParseError(f"{args.json}: JSON nests too deeply") from None
        prod = ProductTable.from_json(table, q)
        source = args.json
    else:
        prod = builtin_tp(args.structure, q, is_super=alg.is_super)
        source = args.structure
    w = Window.parse(args.window)
    rep_grading = verify_supercommutative_grading(prod)
    rep_assoc = verify_associative(prod, w)
    rep_leibniz = verify_transposed_leibniz(alg, prod, w)
    rep_lmult, lmult_details = verify_left_multiplications(alg, prod, w)
    passed = all(r.passed for r in (rep_grading, rep_assoc, rep_leibniz, rep_lmult))
    lmult_json = rep_lmult.to_json_dict()
    lmult_json["maps"] = lmult_details
    _emit(args, {"structure": source, "algebra": label, "q": format_q(q),
                 "window": str(w),
                 "product": prod.to_json_dict(),
                 "grading": rep_grading.to_json_dict(),
                 "associativity": rep_assoc.to_json_dict(),
                 "transposed_leibniz": rep_leibniz.to_json_dict(),
                 "left_multiplications": lmult_json,
                 "pass": passed})
    return 0 if passed else VERIFY_FAIL


def cmd_hom_check(args) -> int:
    label, alg = _load_algebra(args)
    w = Window.parse(args.window)
    combo = parse_map_expr(args.map, alg, w)
    report = hom_jacobi_check(alg, combo, w)
    payload = {"algebra": label, "q": format_q(alg.q), "window": str(w),
               "map": args.map}
    payload.update(report.to_json_dict())
    _emit(args, payload)
    return 0 if report.passed else VERIFY_FAIL


def cmd_parse_spec(args) -> int:
    with open(args.path) as fh:
        sf = parse_spec(fh.read())
    _emit(args, {"algebra": sf.name, "super": sf.is_super,
                 "rules": len(sf.rules), "canonical": print_spec(sf)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockq",
        description="Exact verification and classification for the Block "
                    "algebra family B(q) / S(q).")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this file")
    common.add_argument("--quiet", action="store_true",
                        help="suppress stdout output (exit code only)")

    alg_opts = argparse.ArgumentParser(add_help=False)
    group = alg_opts.add_mutually_exclusive_group(required=True)
    group.add_argument("--algebra", help="built-in algebra name (B or S)")
    group.add_argument("--spec", help="path to an .alg definition file")
    alg_opts.add_argument("--q", default="generic",
                          help="exact rational or 'generic' (default)")

    p = sub.add_parser("verify-algebra", parents=[common, alg_opts],
                       help="check antisymmetry and the graded Jacobi identity")
    p.add_argument("--window", default="3x3", help="index box MxI (default 3x3)")
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("classify", parents=[common, alg_opts],
                       help="window-stabilized half-derivation classification")
    p.add_argument("--shift", choices=("even", "odd"), default="even",
                   help="parity shift of the maps (default even)")
    p.add_argument("--bounds", default=None,
                   help="degree bounds RxS (default: smallest window)")
    p.add_argument("--windows", default="4x6,5x7",
                   help="strictly ascending window ladder (default 4x6,5x7)")
    p.add_argument("--expect", type=int, default=None,
                   help="compare the total stable dimension; exit 1 on mismatch")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-tp", parents=[common, alg_opts],
                       help="transposed Poisson axiom suite for a product table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--structure", choices=BUILTIN_PRODUCTS,
                       help="built-in product name")
    group.add_argument("--json", help="path to a product table JSON file")
    p.add_argument("--window", default="3x3", help="index box MxI (default 3x3)")
    p.set_defaults(func=cmd_verify_tp)

    p = sub.add_parser("hom-check", parents=[common, alg_opts],
                       help="twisted cyclic Jacobi identity for a map expression")
    p.add_argument("--map", required=True,
                   help="e.g. 'id + alpha', '2*id - gamma', 'shift'")
    p.add_argument("--window", default="3x3", help="index box MxI (default 3x3)")
    p.set_defaults(func=cmd_hom_check)

    p = sub.add_parser("parse-spec", parents=[common],
                       help="validate an .alg file and print its canonical form")
    p.add_argument("path")
    p.set_defaults(func=cmd_parse_spec)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (BlockqError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
