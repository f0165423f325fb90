"""Tests of the benchmark itself: pools, seeding, tracing and the answer gate.

    python3 -m pytest perfbench -q
"""

import copy
import importlib.util
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs as jobmod  # noqa: E402
import run  # noqa: E402
import tracer as tracemod  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
POOLS = jobmod.load_pools()
DIGESTS = jobmod.load_digests()
ENTRIES = jobmod.all_entries(POOLS)


def _acceptance_module():
    spec = importlib.util.spec_from_file_location(
        "acceptance_for_perfbench", ROOT / "tests" / "test_acceptance.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(autouse=True)
def keep_blockq_modules():
    """The benchmark re-imports blockq; give other tests their modules back."""
    saved = {n: m for n, m in sys.modules.items()
             if n == "blockq" or n.startswith("blockq.")}
    yield
    for name in [n for n in sys.modules if n == "blockq" or n.startswith("blockq.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _window(text):
    m, i = text.split("x")
    return int(m), int(i)


def _inside(text, m, i):
    mm, ii = _window(text)
    return abs(m) <= mm and abs(i) <= ii


def _expected_classification(entry):
    """Answers from acceptance criteria 2, 3 and 4."""
    q = None if entry["q"] == "generic" else Fraction(entry["q"])
    if entry["algebra"] == "B" and entry["shift"] == "even":
        if q is not None and q.denominator == 1:
            degrees = sorted([(0, 0, 1, ["id"]), (0, int(q), 1, ["alpha"])])
            return 2, [list(d) for d in degrees]
        return 1, [[0, 0, 1, ["id"]]]
    if entry["algebra"] == "S" and entry["shift"] == "even" and q != 0:
        return 1, [[0, 0, 1, ["id"]]]
    if entry["algebra"] == "S" and entry["shift"] == "odd" and q and q % 2 == 0:
        return 1, [[0, int(q) // 2, 1, ["gamma"]]]
    raise AssertionError(f"no criterion covers {entry}")


def test_pools_agree_with_acceptance_criteria():
    acc = _acceptance_module()
    assert POOLS["specs"] == {"mutated_B": acc.MUTATED_B, "mutated_S": acc.MUTATED_S}
    for entry in ENTRIES:
        kind, expect = entry["kind"], entry["expect"]
        if kind == "classify":
            total, degrees = _expected_classification(entry)
            assert (expect["total_dim"], expect["degrees"]) == (total, degrees), entry
            continue
        if kind == "verify-algebra":
            # criterion 1: the built-ins pass, the mutated specs fail
            assert expect["pass"] == ("spec" not in entry), entry
        elif kind == "hom-check":
            # criterion 8: id + alpha and gamma are twists, shift is not
            assert expect["pass"] == (entry["map"] in ("id + alpha", "gamma")), entry
        elif kind == "check-map":
            # criterion 5: shift is no half-derivation; alpha fails at another q
            assert not expect["pass"]
            assert entry["map"] == "shift" or entry["map_q"] != entry["q"], entry
        elif kind == "verify-tp":
            # criterion 6: the built-in products pass, the mutation breaks Leibniz
            assert expect["pass"] == ("structure" in entry), entry
            if "product" in entry:
                assert expect["transposed_leibniz"]["violations"] > 0
        parts = [v for v in expect.values() if isinstance(v, dict)] or [expect]
        assert expect["pass"] == all(p["violations"] == 0 for p in parts), entry
    mutated = POOLS["products"]["mutated_thalg"]
    assert mutated["entries"] == [{"x": ["even", 0, -2], "y": ["even", 0, -2],
                                   "value": [["even", 1, 0, "1"]]}]


def test_named_maps_and_products_lie_inside_their_windows():
    for entry in ENTRIES:
        q = None if entry["q"] == "generic" else Fraction(entry["q"])
        window = entry.get("window") or entry["windows"].split(",")[0]
        points = []
        names = entry.get("map", "")
        if entry["kind"] == "classify" and q is not None and q.denominator == 1:
            names = "alpha" if entry["algebra"] == "B" else "gamma"
        if "alpha" in names:
            aq = Fraction(entry.get("map_q", entry["q"]))
            points += [(0, -2 * aq), (0, -aq)]
        if "gamma" in names:
            points += [(0, -3 * q / 2), (0, -q)]
        if entry.get("structure") == "block_thalg":
            points += [(0, -2 * q), (0, -q)]
        if "product" in entry:
            for item in POOLS["products"][entry["product"]]["entries"]:
                points += [tuple(item["x"][1:]), tuple(item["y"][1:])]
                points += [tuple(v[1:3]) for v in item["value"]]
        for m, i in points:
            assert _inside(window, m, i), (entry, (m, i))


def test_every_entry_has_a_recorded_digest():
    keys = [jobmod.job_key(e) for e in ENTRIES]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(DIGESTS)


def test_one_seed_always_yields_the_same_job_list():
    for workload, spec in POOLS["workloads"].items():
        lists = [jobmod.make_jobs(POOLS, workload, seed) for seed in range(8)]
        assert lists == [jobmod.make_jobs(POOLS, workload, seed) for seed in range(8)]
        for jobs in lists:
            assert len(jobs) == len(spec["slots"])
            for slot in spec["slots"]:
                assert sum(job in slot for job in jobs) == 1
        if any(len(slot) > 1 for slot in spec["slots"]) or len(spec["slots"]) > 1:
            assert len({json.dumps(jobs) for jobs in lists}) > 1, workload


def _cheap_jobs():
    """Two fast verify-fail jobs: mutated B at 1x1 and alpha at the wrong q."""
    slots = POOLS["workloads"]["verify-fail"]["slots"]
    return [copy.deepcopy(slot[0]) for slot in slots
            if slot[0].get("spec") == "mutated_B" or slot[0].get("map") == "alpha"]


def test_cheap_jobs_pass_their_gate():
    jobs = _cheap_jobs()
    assert len(jobs) == 2
    _setup_s, results = run.run_round(POOLS, DIGESTS, jobs, None, run.HostSpeed())
    assert run.tally([results]) == (2, 0)


@pytest.mark.parametrize("part, field, wrong", [
    (None, "pass", True),
    ("jacobi", "violations", 417),
    ("antisymmetry", "checked", 44),
])
def test_wrong_expected_answer_makes_fail_rate_nonzero(part, field, wrong):
    jobs = _cheap_jobs()
    broken = next(j for j in jobs if j["kind"] == "verify-algebra")
    target = broken["expect"] if part is None else broken["expect"][part]
    target[field] = wrong
    _setup_s, results = run.run_round(POOLS, DIGESTS, jobs, None, run.HostSpeed())
    attempted, failed = run.tally([results])
    assert (attempted, failed) == (2, 1)


def test_wrong_digest_makes_fail_rate_nonzero():
    jobs = _cheap_jobs()
    digests = dict(DIGESTS)
    digests[jobmod.job_key(jobs[0])] = "0" * 64
    _setup_s, results = run.run_round(POOLS, digests, jobs, None, run.HostSpeed())
    assert run.tally([results]) == (2, 1)


def test_wrappers_are_removed_after_the_traced_run():
    tracer = tracemod.Tracer()
    _setup_s, results = run.run_round(POOLS, DIGESTS, _cheap_jobs(), tracer,
                                      run.HostSpeed())
    assert run.tally([results]) == (2, 0)
    modules = [m for n, m in sys.modules.items()
               if n == "blockq" or n.startswith("blockq.")]
    assert modules
    for mod in modules:
        for value in vars(mod).values():
            assert not getattr(value, "perfbench_wrapped", False), (mod, value)
    spec_cls = sys.modules["blockq.algebra"].AlgebraSpec
    assert not getattr(spec_cls.compiled, "perfbench_wrapped", False)
    names = {span[0] for span in tracer.spans}
    assert {"specdsl.parse_spec", "algebra.verify_jacobi", "algebra.jacobi_sides",
            "algebra.bracket_basis", "halfder.check_map",
            "halfder.build_constraints", "halfder.half_derivation_sides",
            "algebra.compiled", "cli.report"} <= names
    layers = tracemod.layer_metrics(tracer.spans)
    assert layers["algebra.jacobi_triples"] == 729
    assert layers["algebra.witness_calls"] == 418 + 30
    assert layers["algebra.witness_kept"] == 100 + 30
    assert layers["halfder.witness_calls"] == 132
    assert layers["halfder.witness_kept"] == 100


def test_self_time_subtracts_children():
    spans = [["halfder.classify", 0.0, 10.0, None, 0, None],
             ["halfder.stabilize", 1.0, 9.0, 0, 0, None],
             ["halfder.build_constraints", 2.0, 5.0, 1, 0, {"rows": 7, "unknowns": 3}],
             ["halfder.null_space", 5.0, 6.0, 1, 0, {"dim": 1}]]
    layers = tracemod.layer_metrics(spans)
    assert layers["halfder.match_s"] == 2.0
    assert layers["halfder.intersect_s"] == 4.0
    assert layers["halfder.assemble_s"] == 3.0
    assert layers["halfder.nullspace_s"] == 1.0
    assert (layers["halfder.rows"], layers["halfder.systems"],
            layers["halfder.kernel_dims"]) == (7, 1, 1)


def test_counts_that_differ_between_rounds_are_reported():
    a = {"halfder.rows": 5, "halfder.assemble_s": 1.0, "algebra.witness_calls": 0,
         "algebra.witness_kept": 0}
    b = dict(a, **{"halfder.rows": 6, "halfder.assemble_s": 3.0})
    merged, unstable = tracemod.merge_rounds([a, b])
    assert merged["halfder.assemble_s"] == 2.0
    assert len(unstable) == 1 and "halfder.rows" in unstable[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-fail",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in BENCH["workloads"]] == list(POOLS["workloads"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_holds_the_declared_metrics(trace, section, capsys):
    code = run.main(["--workload", "verify-fail", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 6
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
