"""CLI reports compared byte for byte against checked-in golden files.

Each case runs one `blockq` command in-process from the repository root (so
the spec and product paths the report echoes are relative and stable) and
compares the written report and the exit code with `tests/golden/NAME.json`.
`CASES` is the one golden list: every golden file must be a case, and the
CI workflow runs each case through `python -m blockq` as well.
The golden files were recorded before the identity suites learned to prove
passing windows on a certifying grid; they pin that every report stayed the
same.  To record them again after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys
from pathlib import Path

import pytest

from blockq.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
INPUTS = "tests/golden/inputs"

# name -> (argv, exit code)
CASES = {
    "verify_algebra_B_generic_2x2": (
        ["verify-algebra", "--algebra", "B", "--q", "generic", "--window", "2x2"], 0),
    "verify_algebra_S_generic_1x1": (
        ["verify-algebra", "--algebra", "S", "--q", "generic", "--window", "1x1"], 0),
    "verify_algebra_S_generic_2x2": (
        ["verify-algebra", "--algebra", "S", "--q", "generic", "--window", "2x2"], 0),
    "verify_algebra_mutated_B_generic_2x2": (
        ["verify-algebra", "--spec", f"{INPUTS}/mutated_B.alg", "--q", "generic",
         "--window", "2x2"], 1),
    "verify_algebra_mutated_S_generic_2x1": (
        ["verify-algebra", "--spec", f"{INPUTS}/mutated_S.alg", "--q", "generic",
         "--window", "2x1"], 1),
    # recorded before the scalar structure constants were lifted from the
    # compiled layer: witnesses in ninths at q = 7/3, which pin both cleared
    # factors (the rules' common denominator and q's denominator to the
    # maximal q-degree)
    "verify_algebra_mutated_S_7_3_1x1": (
        ["verify-algebra", "--spec", f"{INPUTS}/mutated_S.alg", "--q", "7/3",
         "--window", "1x1"], 1),
    "verify_algebra_cubic_2_2x2": (
        ["verify-algebra", "--spec", f"{INPUTS}/cubic.alg", "--q", "2",
         "--window", "2x2"], 1),
    "hom_check_B_1_id_plus_alpha_2x4": (
        ["hom-check", "--algebra", "B", "--q", "1", "--map", "id + alpha",
         "--window", "2x4"], 0),
    "hom_check_S_2_gamma_2x3": (
        ["hom-check", "--algebra", "S", "--q", "2", "--map", "gamma",
         "--window", "2x3"], 0),
    # recorded before the literal flag took one search: a passing
    # combination whose dense terms cancel, so its support is gamma's
    "hom_check_S_2_id_minus_id_plus_gamma_2x3": (
        ["hom-check", "--algebra", "S", "--q", "2", "--map", "id - id + gamma",
         "--window", "2x3"], 0),
    "hom_check_B_2_shift_2x3": (
        ["hom-check", "--algebra", "B", "--q", "2", "--map", "shift",
         "--window", "2x3"], 1),
    # recorded before Hom-Lie counted violations over rotation orbits: a
    # failing super twist, whose cyclic terms carry graded signs
    "hom_check_S_2_shift_1x2": (
        ["hom-check", "--algebra", "S", "--q", "2", "--map", "shift",
         "--window", "1x2"], 1),
    # recorded before the scalar structure constants were lifted from the
    # compiled layer: a failing twist at a non-integer q
    "hom_check_S_1_2_shift_1x2": (
        ["hom-check", "--algebra", "S", "--q", "1/2", "--map", "shift",
         "--window", "1x2"], 1),
    # recorded before the orbit rule for triples moved onto the compiled
    # algebra: a failing twist of a spec that fails antisymmetry, so its
    # total is counted over every triple
    "hom_check_mutated_B_2_shift_2x2": (
        ["hom-check", "--spec", f"{INPUTS}/mutated_B.alg", "--q", "2", "--map", "shift",
         "--window", "2x2"], 1),
    # recorded before witnesses were lifted from the residual's own compiled
    # values: a twist whose images are cleared by a factor of 3
    "hom_check_B_2_third_shift_2x2": (
        ["hom-check", "--algebra", "B", "--q", "2", "--map", "1/3*shift",
         "--window", "2x2"], 1),
    "hom_check_B_2_id_minus_2shift_2x2": (
        ["hom-check", "--algebra", "B", "--q", "2", "--map", "id - 2*shift",
         "--window", "2x2"], 1),
    "verify_tp_B_1_block_thalg_3x4": (
        ["verify-tp", "--structure", "block_thalg", "--algebra", "B", "--q", "1",
         "--window", "3x4"], 0),
    "verify_tp_S_0_super_full_2x3": (
        ["verify-tp", "--structure", "super_full", "--algebra", "S", "--q", "0",
         "--window", "2x3"], 0),
    "verify_tp_B_1_mutated_thalg_3x3": (
        ["verify-tp", "--json", f"{INPUTS}/mutated_thalg.json", "--algebra", "B",
         "--q", "1", "--window", "3x3"], 1),
    # recorded before transposed Leibniz moved to the compiled layer: a
    # product with generic-q values, and one failing associativity
    "verify_tp_B_generic_generic_q_product_2x2": (
        ["verify-tp", "--json", f"{INPUTS}/generic_q_product.json", "--algebra", "B",
         "--q", "generic", "--window", "2x2"], 1),
    # recorded before witnesses were lifted from the residual's own compiled
    # values: a product in thirds, so Leibniz and left-multiplication
    # witnesses carry the product's clearing factor
    "verify_tp_B_1_fractional_thalg_2x3": (
        ["verify-tp", "--json", f"{INPUTS}/fractional_thalg.json", "--algebra", "B",
         "--q", "1", "--window", "2x3"], 1),
    "verify_tp_S_0_doubled_super_2x2": (
        ["verify-tp", "--json", f"{INPUTS}/doubled_super.json", "--algebra", "S",
         "--q", "0", "--window", "2x2"], 1),
    # recorded before the per-row sort left halfder: left multiplications on a
    # spec that fails antisymmetry, so check_map takes each pair in both
    # orders (342 checked, where B(1) has 168)
    "verify_tp_mutated_B_1_block_thalg_2x2": (
        ["verify-tp", "--spec", f"{INPUTS}/mutated_B.alg", "--q", "1", "--structure",
         "block_thalg", "--window", "2x2"], 1),
    # recorded before halfder's elimination was reduced to one echelon
    # routine: stabilized bases at q = 0, even and odd shift, and generic q
    "classify_S_0_1x1_2x2_3x3": (
        ["classify", "--algebra", "S", "--q", "0", "--bounds", "1x1",
         "--windows", "2x2,3x3"], 0),
    # recorded before the Zassenhaus step left stabilize: three windows, so
    # a second seeded step, whose restricted kernel is the intersection
    "classify_S_0_1x1_2x2_3x3_4x4": (
        ["classify", "--algebra", "S", "--q", "0", "--bounds", "1x1",
         "--windows", "2x2,3x3,4x4"], 0),
    "classify_S_0_odd_1x1_2x3_3x4": (
        ["classify", "--algebra", "S", "--q", "0", "--shift", "odd", "--bounds", "1x1",
         "--windows", "2x3,3x4"], 0),
    "classify_S_generic_1x1_2x2_3x3": (
        ["classify", "--algebra", "S", "--q", "generic", "--bounds", "1x1",
         "--windows", "2x2,3x3"], 0),
    # recorded before open degrees stopped at full mod-p rank: the benchmark's
    # S(2) odd job, whose open degrees all but one have a zero kernel
    "classify_S_2_odd_3x3_2x6_3x7": (
        ["classify", "--algebra", "S", "--q", "2", "--shift", "odd", "--bounds", "3x3",
         "--windows", "2x6,3x7", "--expect", "1"], 0),
    # recorded before later windows were seeded with the zeros of the
    # running intersection: the benchmark's S(-4) odd job, whose gamma at
    # G[0,6] lies on the rim of the first window
    "classify_S_-4_odd_3x3_2x6_3x7": (
        ["classify", "--algebra", "S", "--q", "-4", "--shift", "odd", "--bounds", "3x3",
         "--windows", "2x6,3x7", "--expect", "1"], 0),
    # recorded before the streamed mod-p echelon also picked the rows for
    # the exact solve: the benchmark's B(2) job, with id and alpha
    "classify_B_2_3x3_3x6_4x7": (
        ["classify", "--algebra", "B", "--q", "2", "--bounds", "3x3",
         "--windows", "3x6,4x7", "--expect", "2"], 0),
    # recorded before an open degree's rows were checked against its
    # certified kernel: the benchmark's B(7/3) job, open only at (0, 0)
    "classify_B_7_3_3x3_3x6_4x7": (
        ["classify", "--algebra", "B", "--q", "7/3", "--bounds", "3x3",
         "--windows", "3x6,4x7"], 0),
    # recorded before open kernels were lifted from the mod-p echelon: the
    # benchmark's B generic job, whose open kernels are all q-free
    "classify_B_generic_3x3_3x4_4x5": (
        ["classify", "--algebra", "B", "--q", "generic", "--bounds", "3x3",
         "--windows", "3x4,4x5"], 0),
    # recorded before classify mirrored r < 0 degrees through m -> -m: a
    # Witt-type spec with a kernel at six degrees r != 0 (the mirrored
    # path), and the cubic spec, whose mixed monomials solve every degree
    "classify_witt_generic_1x1_1x2_2x3": (
        ["classify", "--spec", f"{INPUTS}/witt.alg", "--q", "generic", "--bounds", "1x1",
         "--windows", "1x2,2x3"], 0),
    "classify_cubic_2_2x2_2x3_3x4": (
        ["classify", "--spec", f"{INPUTS}/cubic.alg", "--q", "2", "--bounds", "2x2",
         "--windows", "2x3,3x4"], 0),
    # recorded before the mirror's certificate stopped asking for graded
    # antisymmetry: a spec that fails it, solved directly then and mirrored
    # since, whose only kernel is id at (0, 0)
    "classify_mutated_B_2_2x2_2x3_3x4": (
        ["classify", "--spec", f"{INPUTS}/mutated_B.alg", "--q", "2", "--bounds", "2x2",
         "--windows", "2x3,3x4"], 0),
}


def run_case(argv: list[str], out: Path) -> tuple[int, bytes]:
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv, want_code = CASES[name]
    code, data = run_case(argv, tmp_path / "report.json")
    assert code == want_code
    assert data == (GOLDEN / f"{name}.json").read_bytes()


def test_every_golden_report_is_a_case():
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(CASES)


def record() -> None:
    os.chdir(ROOT)
    for name, (argv, want_code) in sorted(CASES.items()):
        code, _ = run_case(argv, GOLDEN / f"{name}.json")
        assert code == want_code, (name, code)
        print(f"recorded {name} (exit {code})")


if __name__ == "__main__":
    sys.exit(record())
