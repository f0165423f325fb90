"""Benchmark jobs: the pools each workload draws from, and how one job runs.

A job does what the matching `blockq` subcommand does.  It calls the same
public library functions, serializes the report with `to_json_dict` and
`json.dumps(report, indent=2)`, and then checks the answer: the expected
answer recorded in `pools.json`, and the sha256 of the serialized report
recorded in `digests.json`.  Building the algebra, its compiled form and the
named maps or products is set-up, timed apart from the job.

`check-map` has no subcommand; its report is laid out like `hom-check`'s.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOLS_FILE = HERE / "pools.json"
DIGESTS_FILE = HERE / "digests.json"

# Reports keep details for at most this many violations.  Restated here so
# that the check does not take the limit from the program under test.
MAX_WITNESSES = 100


def load_pools() -> dict:
    return json.loads(POOLS_FILE.read_text())


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())


def job_key(entry: dict) -> str:
    """Stable name of a pool entry, built from everything but its expectation."""
    params = {k: v for k, v in entry.items() if k != "expect"}
    return params.pop("kind") + " " + " ".join(
        f"{k}={params[k]}" for k in sorted(params))


def make_jobs(pools: dict, workload: str, seed: int) -> list[dict]:
    """One variant per slot of the workload, in an order set by the seed."""
    rng = random.Random(seed)
    jobs = [rng.choice(slot) for slot in pools["workloads"][workload]["slots"]]
    rng.shuffle(jobs)
    return jobs


def all_entries(pools: dict) -> list[dict]:
    return [entry for wl in pools["workloads"].values()
            for slot in wl["slots"] for entry in slot]


def setup_job(lib, pools: dict, entry: dict) -> dict:
    """Build the algebra, its compiled form and the job's maps or products."""
    kind = entry["kind"]
    q = lib.scalars.parse_q(entry["q"])
    if "spec" in entry:
        label = entry["spec"] + ".alg"
        sf = lib.specdsl.parse_spec(pools["specs"][entry["spec"]])
        alg = lib.specdsl.make_algebra(sf, q)
    else:
        label = entry["algebra"]
        alg = lib.specdsl.builtin_algebra(label, q)
    alg.compiled()
    Window = lib.algebra.Window
    inp = {"label": label, "alg": alg}
    if kind == "classify":
        inp["windows"] = [Window.parse(p) for p in entry["windows"].split(",")]
        bw = Window.parse(entry["bounds"])
        inp["bounds"] = (bw.m_max, bw.i_max)
        inp["shift"] = lib.algebra.parity_from_name(entry["shift"])
        return inp
    w = inp["window"] = Window.parse(entry["window"])
    if kind == "hom-check":
        inp["map"] = lib.cli.parse_map_expr(entry["map"], alg, w)
    elif kind == "check-map":
        if entry["map"] == "shift":
            inp["map"] = lib.halfder.shift_map(alg, w)
        else:
            donor = lib.specdsl.builtin_algebra(
                entry["algebra"], lib.scalars.parse_q(entry["map_q"]))
            inp["map"] = lib.halfder.builtin_map(entry["map"], donor, w)
    elif kind == "verify-tp":
        if "structure" in entry:
            inp["product"] = lib.tpverify.builtin_tp(entry["structure"], q,
                                                     is_super=alg.is_super)
        else:
            inp["product"] = lib.tpverify.ProductTable.from_json(
                pools["products"][entry["product"]], q)
    return inp


def run_job(lib, entry: dict, inp: dict, report_span) -> bytes:
    """Compute the answer and serialize it inside `report_span()`."""
    kind = entry["kind"]
    alg, label = inp["alg"], inp["label"]
    qtext = lib.scalars.format_q(alg.q)
    if kind == "classify":
        report = lib.halfder.classify(alg, inp["shift"], inp["bounds"], inp["windows"])
        with report_span():
            payload = report.to_json_dict()
            payload["algebra"] = label
            return _dump(payload)
    w = inp["window"]
    if kind == "verify-algebra":
        anti = lib.algebra.verify_antisymmetry(alg, w)
        jac = lib.algebra.verify_jacobi(alg, w)
        with report_span():
            return _dump({"algebra": label, "q": qtext, "window": str(w),
                          "antisymmetry": anti.to_json_dict(),
                          "jacobi": jac.to_json_dict(),
                          "pass": anti.passed and jac.passed})
    if kind in ("hom-check", "check-map"):
        if kind == "hom-check":
            report = lib.homlie.hom_jacobi_check(alg, inp["map"], w)
        else:
            report = lib.halfder.check_map(alg, inp["map"], w)
        with report_span():
            payload = {"algebra": label, "q": qtext, "window": str(w),
                       "map": entry["map"]}
            payload.update(report.to_json_dict())
            return _dump(payload)
    if kind == "verify-tp":
        tp, prod = lib.tpverify, inp["product"]
        grading = tp.verify_supercommutative_grading(prod)
        assoc = tp.verify_associative(prod, w)
        leibniz = tp.verify_transposed_leibniz(alg, prod, w)
        lmult, lmult_details = tp.verify_left_multiplications(alg, prod, w)
        with report_span():
            lmult_json = lmult.to_json_dict()
            lmult_json["maps"] = lmult_details
            parts = (grading, assoc, leibniz, lmult)
            return _dump({"structure": entry.get("structure", entry.get("product")),
                          "algebra": label, "q": qtext, "window": str(w),
                          "product": prod.to_json_dict(),
                          "grading": grading.to_json_dict(),
                          "associativity": assoc.to_json_dict(),
                          "transposed_leibniz": leibniz.to_json_dict(),
                          "left_multiplications": lmult_json,
                          "pass": all(r.passed for r in parts)})
    raise ValueError(f"unknown job kind {kind!r}")


def _dump(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_answer(entry: dict, data: bytes, digests: dict[str, str]) -> list[str]:
    """Every way the serialized report differs from the expected answer."""
    errors = []
    payload = json.loads(data)
    expect = entry["expect"]
    if entry["kind"] == "classify":
        got = [[d["r"], d["s"], d["stable_dim"], d["matched_names"]]
               for d in payload["degrees"]]
        if payload["total_dim"] != expect["total_dim"]:
            errors.append(f"total_dim {payload['total_dim']} != {expect['total_dim']}")
        if got != expect["degrees"]:
            errors.append(f"degrees {got} != {expect['degrees']}")
        if payload["warnings"]:
            errors.append(f"window warnings {payload['warnings']}")
    else:
        if payload["pass"] != expect["pass"]:
            errors.append(f"pass {payload['pass']} != {expect['pass']}")
        parts = {k: v for k, v in expect.items() if isinstance(v, dict)}
        for name, want in (parts or {None: expect}).items():
            rep = payload if name is None else payload[name]
            total = rep.get("total_violations", len(rep["violations"]))
            where = name or "report"
            if rep["checked"] != want["checked"]:
                errors.append(f"{where}: checked {rep['checked']} != {want['checked']}")
            if total != want["violations"]:
                errors.append(f"{where}: total_violations {total} != {want['violations']}")
            if rep["pass"] != (total == 0):
                errors.append(f"{where}: pass {rep['pass']} with {total} violations")
            if len(rep["violations"]) != min(MAX_WITNESSES, total):
                errors.append(f"{where}: {len(rep['violations'])} witnesses for "
                              f"{total} violations")
    recorded = digests.get(job_key(entry))
    if recorded is None:
        errors.append("no recorded report digest")
    elif digest(data) != recorded:
        errors.append("report digest differs from the recorded one")
    return errors
