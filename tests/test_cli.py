"""Exit-code contract and report determinism of the command-line front end."""

import json

from blockq.cli import main

GOOD_SPEC = """algebra T
super false
rule even even antisymmetric: n*(i + q) - m*(j + q)
"""

BROKEN_SPEC = """algebra T
super false
rule even even antisymmetric: n*(i + q) - m*(j - q)
"""

# coefficient expressions deep enough to overflow the Python stack, in the
# parser (parentheses, leading minus signs) or in the AST walkers (a long
# sum or product)
DEEP_EXPRS = ["(" * 330 + "n*i" + ")" * 330, "-" * 989 + "n*i",
              " + ".join(["n*i"] * 992), "*".join(["n"] * 499)]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestVerifyAlgebra:
    def test_block_generic(self, capsys):
        code, rep = run(capsys, "verify-algebra", "--algebra", "B",
                        "--q", "generic", "--window", "3x3")
        assert code == 0
        assert rep["pass"] is True
        assert rep["jacobi"]["checked"] == (7 * 7) ** 3

    def test_super_fixed(self, capsys):
        code, rep = run(capsys, "verify-algebra", "--algebra", "S",
                        "--q", "0", "--window", "2x2")
        assert code == 0

    def test_broken_spec_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.alg"
        path.write_text(BROKEN_SPEC)
        code, rep = run(capsys, "verify-algebra", "--spec", str(path),
                        "--q", "generic", "--window", "2x2")
        assert code == 1
        assert rep["pass"] is False
        assert rep["antisymmetry"]["violations"] or rep["jacobi"]["violations"]

    def test_spec_file_passes(self, tmp_path, capsys):
        path = tmp_path / "ok.alg"
        path.write_text(GOOD_SPEC)
        code, rep = run(capsys, "verify-algebra", "--spec", str(path),
                        "--q", "5", "--window", "2x2")
        assert code == 0


class TestClassify:
    def test_expected_dimension(self, capsys):
        code, rep = run(capsys, "classify", "--algebra", "B", "--q", "3",
                        "--shift", "even", "--bounds", "3x3",
                        "--windows", "4x6,5x7", "--expect", "2")
        assert code == 0
        assert rep["pass"] is True
        assert rep["total_dim"] == 2

    def test_expect_mismatch_exit_one(self, capsys):
        code, rep = run(capsys, "classify", "--algebra", "B", "--q", "generic",
                        "--bounds", "1x1", "--windows", "3x3,4x4", "--expect", "5")
        assert code == 1
        assert rep["pass"] is False

    def test_unstable_degree_exit_one(self, capsys, monkeypatch):
        # no small window ladder is known to leave a degree unstable, so the
        # classifier is replaced by one that returns a fixed report
        import blockq.cli
        from blockq.halfder import ClassificationReport

        def fake_report(warnings):
            def fake(alg, shift, bounds, windows):
                return ClassificationReport(
                    algebra=alg.name, q=alg.q, parity_shift=shift, degrees=[],
                    total_dim=1, warnings=warnings, bounds=bounds,
                    windows=tuple(windows))
            return fake

        argv = ("classify", "--algebra", "B", "--q", "2", "--bounds", "1x1",
                "--windows", "1x1,2x2")
        expect = ("--expect", "1")
        warning = "degree (0,0) did not stabilize: 1 -> 0"
        monkeypatch.setattr(blockq.cli, "classify", fake_report([warning]))
        code, rep = run(capsys, *argv, *expect)
        assert code == 1
        assert rep["pass"] is False and rep["total_dim"] == 1
        # without --expect the warning alone fails the run, and no pass key is added
        code, rep = run(capsys, *argv)
        assert code == 1
        assert "pass" not in rep and rep["warnings"] == [warning]
        monkeypatch.setattr(blockq.cli, "classify", fake_report([]))
        code, rep = run(capsys, *argv, *expect)
        assert code == 0
        assert rep["pass"] is True
        code, rep = run(capsys, *argv)
        assert code == 0
        assert "pass" not in rep

    def test_zero_degree_bound(self, capsys):
        # a degree bound of 0 keeps r = 0 alone; only windows must be positive
        code, rep = run(capsys, "classify", "--algebra", "B", "--q", "2",
                        "--bounds", "0x2", "--windows", "2x4,3x5", "--expect", "2")
        assert code == 0
        assert rep["bounds"] == [0, 2]
        assert [(d["r"], d["s"], d["matched_names"]) for d in rep["degrees"]] == [
            (0, 0, ["id"]), (0, 2, ["alpha"])]

    def test_malformed_window_or_bounds_exit_two(self, capsys):
        classify = ["classify", "--algebra", "B", "--q", "2"]
        cases = [(classify + ["--bounds", "1x1", "--windows", "3"], "MxI"),
                 (classify + ["--bounds", "1x1", "--windows", "0x2,3x3"], "MxI"),
                 (classify + ["--bounds", "1x1", "--windows", "2xa,3x3"], "MxI"),
                 (classify + ["--bounds", "1x1", "--windows", "2x2,,3x3"], "MxI"),
                 (classify + ["--bounds", "1x1", "--windows", "2x2,3x3,"], "MxI"),
                 (classify + ["--bounds", "1x1", "--windows", ""], "MxI"),
                 (classify + ["--bounds", "2", "--windows", "2x2,3x3"], "RxS"),
                 (classify + ["--bounds=-1x2", "--windows", "2x2,3x3"], "RxS"),
                 (classify + ["--bounds", "1x1x1", "--windows", "2x2,3x3"], "RxS"),
                 (["verify-algebra", "--algebra", "B", "--window", "3"], "MxI"),
                 (["hom-check", "--algebra", "B", "--q", "1", "--map", "id",
                   "--window", "x2"], "MxI")]
        for argv, form in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"expected {form} with integers" in err, err
            assert "invalid literal" not in err

    def test_window_ladder_must_strictly_ascend(self, capsys):
        # a repeated window cannot change the intersection, so a degree that
        # does not stabilize could never be flagged
        for windows in ("2x2,2x2", "2x2,3x3,3x3", "3x3,2x2", "2x3,3x2"):
            assert main(["classify", "--algebra", "B", "--q", "2", "--bounds", "1x1",
                         "--windows", windows]) == 2, windows
            err = capsys.readouterr().err
            assert err == "error: windows must be strictly ascending\n", err

    def test_odd_shift_super(self, capsys):
        code, rep = run(capsys, "classify", "--algebra", "S", "--q", "5",
                        "--shift", "odd", "--bounds", "2x2",
                        "--windows", "3x3,4x4", "--expect", "0")
        assert code == 0


class TestVerifyTp:
    def test_builtin_structure(self, capsys):
        code, rep = run(capsys, "verify-tp", "--structure", "block_thalg",
                        "--algebra", "B", "--q", "2", "--window", "3x4")
        assert code == 0
        for key in ("grading", "associativity", "transposed_leibniz",
                    "left_multiplications"):
            assert rep[key]["pass"] is True

    def test_json_product(self, tmp_path, capsys):
        mutated = {"super": False,
                   "entries": [{"x": ["even", 0, -2], "y": ["even", 0, -2],
                                "value": [["even", 1, 0, "1"]]}]}
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(mutated))
        code, rep = run(capsys, "verify-tp", "--json", str(path),
                        "--algebra", "B", "--q", "1", "--window", "4x6")
        assert code == 1
        assert rep["transposed_leibniz"]["pass"] is False

    def test_wrong_q_is_usage_error(self, capsys):
        code, _ = run(capsys, "verify-tp", "--structure", "super_full",
                      "--algebra", "S", "--q", "1", "--window", "2x2")
        assert code == 2

    def test_report_product_roundtrips(self, tmp_path, capsys):
        code, rep = run(capsys, "verify-tp", "--structure", "super_full",
                        "--algebra", "S", "--q", "0", "--window", "2x2")
        assert code == 0
        path = tmp_path / "emitted.json"
        path.write_text(json.dumps(rep["product"]))
        code2, rep2 = run(capsys, "verify-tp", "--json", str(path),
                          "--algebra", "S", "--q", "0", "--window", "2x2")
        assert code2 == 0
        assert rep2["product"] == rep["product"]

    def test_non_homogeneous_left_multiplication_reported(self, tmp_path, capsys):
        # left multiplication by L[0,0] spans two degrees, or has a two-term image
        def entry(y, *images):
            return {"x": ["even", 0, 0], "y": ["even", *y],
                    "value": [["even", *img, "1"] for img in images]}
        path = tmp_path / "nonhom.json"
        for entries in ([entry((0, 0), (0, 0)), entry((1, 0), (2, 0))],
                        [entry((0, 0), (0, 0), (0, 1))]):
            path.write_text(json.dumps({"super": False, "entries": entries}))
            code, rep = run(capsys, "verify-tp", "--json", str(path), "--algebra", "B",
                            "--q", "1", "--window", "2x2")
            assert code == 1
            assert rep["pass"] is False and rep["grading"]["pass"] is False
            lmult = rep["left_multiplications"]
            assert lmult["pass"] is False
            assert lmult["maps"][0] == {"z": ["even", 0, 0], "degree": None, "pass": False}

    def test_malformed_product_exit_two(self, tmp_path, capsys):
        entry = {"x": ["even", 0, 0], "y": ["even", 0, 0], "value": [["even", 0, 0, "1"]]}
        # one pair given twice, the other value zero or not, in either order
        twice = [[entry, {**entry, "value": v}]
                 for v in ([], [["even", 0, 0, "0"]], [["even", 0, 0, "2"]])]
        path = tmp_path / "bad.json"
        for payload in ({}, [], {"super": False, "entries": [{**entry, "x": 5}]},
                        {"super": False, "entries": [{**entry, "value": [["even", 0, 0, 3]]}]},
                        {"super": "false", "entries": []},
                        {"super": False, "entries": [{**entry, "value": [["even", 0, 0, "2^65"]]}]},
                        # odd indices in a table whose 'super' is false
                        {"super": False, "entries": [{**entry, "y": ["even", 1, 0],
                                                      "value": [["odd", 1, 0, "1"]]}]},
                        {"super": False, "entries": [{"x": ["odd", 0, 0], "y": ["even", 1, 0],
                                                      "value": [["odd", 1, 0, "1"]]}]},
                        # deep enough to overflow the Python stack
                        *({"super": False, "entries": [{**entry, "value": [["even", 0, 0, text]]}]}
                          for text in ("(" * 246 + "1" + ")" * 246, "-" * 982 + "1")),
                        *({"super": False, "entries": e} for t in twice for e in (t, t[::-1]))):
            path.write_text(json.dumps(payload))
            code = main(["verify-tp", "--json", str(path), "--algebra", "B", "--q", "1",
                         "--window", "2x2"])
            captured = capsys.readouterr()
            assert code == 2, payload
            assert captured.out == "" and captured.err.startswith("error: "), payload
        path.write_text("[" * 100_000 + "]" * 100_000)  # deeper than json can decode
        assert main(["verify-tp", "--json", str(path), "--algebra", "B", "--q", "1",
                     "--window", "2x2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestHomCheck:
    def test_id_plus_alpha(self, capsys):
        code, rep = run(capsys, "hom-check", "--algebra", "B", "--q", "2",
                        "--map", "id + alpha", "--window", "3x3")
        assert code == 0
        assert rep["conventions"]["standard"] is True

    def test_shift_fails(self, capsys):
        code, rep = run(capsys, "hom-check", "--algebra", "B", "--q", "2",
                        "--map", "shift", "--window", "2x2")
        assert code == 1
        assert rep["violations"]

    def test_scaled_combination(self, capsys):
        code, rep = run(capsys, "hom-check", "--algebra", "B", "--q", "1",
                        "--map", "2*id - 1/3*alpha", "--window", "2x2")
        assert code == 0

    def test_alpha_at_half_q_usage_error(self, capsys):
        code, _ = run(capsys, "hom-check", "--algebra", "B", "--q", "1/2",
                      "--map", "alpha", "--window", "2x2")
        assert code == 2

    def test_bad_map_expression(self, capsys):
        # a dangling operator, two terms with no operator between them, or a
        # coefficient with a zero denominator
        for text in ("2 *", "id -", "id +", "id alpha", "", "-", "2/0*id"):
            code = main(["hom-check", "--algebra", "B", "--q", "1",
                         "--map", text, "--window", "2x2"])
            captured = capsys.readouterr()
            assert code == 2, text
            assert captured.out == "" and captured.err.startswith("error: "), text


class TestParseSpec:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "t.alg"
        path.write_text(GOOD_SPEC)
        code, rep = run(capsys, "parse-spec", str(path))
        assert code == 0
        assert rep["algebra"] == "T"
        assert "rule even even antisymmetric" in rep["canonical"]

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.alg"
        for coeff in ("n/m", "1/0*m"):
            path.write_text(f"algebra X\nsuper false\nrule even even antisymmetric: {coeff}\n")
            code = main(["parse-spec", str(path)])
            captured = capsys.readouterr()
            assert code == 2, coeff
            assert captured.out == "" and captured.err.startswith("error: "), coeff

    def test_deep_expression_exit_two(self, tmp_path, capsys):
        path = tmp_path / "deep.alg"
        for coeff in DEEP_EXPRS:
            path.write_text(f"algebra X\nsuper false\nrule even even antisymmetric: {coeff}\n")
            for argv in (["parse-spec", str(path)],
                         ["verify-algebra", "--spec", str(path), "--window", "1x1"],
                         ["classify", "--spec", str(path), "--windows", "1x1,2x2"],
                         ["verify-tp", "--spec", str(path), "--structure", "block_thalg",
                          "--q", "1", "--window", "1x1"],
                         ["hom-check", "--spec", str(path), "--map", "id", "--window", "1x1"]):
                code = main(argv)
                captured = capsys.readouterr()
                assert code == 2, (argv[0], coeff[:10])
                assert captured.out == "" and captured.err.startswith("error: "), argv[0]
                assert "line 3" in captured.err, argv[0]

    def test_missing_file_exit_two(self, capsys):
        code, _ = run(capsys, "parse-spec", "/nonexistent/x.alg")
        assert code == 2


class TestGlobalFlags:
    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify-algebra", "--algebra", "B", "--q", "1",
                     "--window", "2x2", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["pass"] is True

    def test_quiet(self, capsys):
        code = main(["verify-algebra", "--algebra", "B", "--q", "1",
                     "--window", "2x2", "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_deterministic_bytes(self, capsys):
        args = ["classify", "--algebra", "B", "--q", "2", "--bounds", "1x2",
                "--windows", "3x4,4x5"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_usage_error(self, capsys):
        assert main(["classify"]) == 2
        capsys.readouterr()
        assert main(["classify", "--algebra", "B", "--q", "1/0",
                     "--windows", "2x2,3x3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_unknown_algebra(self, capsys):
        assert main(["verify-algebra", "--algebra", "Z", "--q", "1"]) == 2
        capsys.readouterr()

    def test_module_invocation(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "blockq", "verify-algebra", "--algebra", "B",
             "--q", "2", "--window", "2x2"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True
