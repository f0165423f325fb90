#!/usr/bin/env python3
"""Benchmark of blockq: end-to-end metrics per workload, or a layer trace.

    python3 perfbench/run.py --workload classify-fixed-q --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
seed picks one variant per slot of the workload's pool (`pools.json`) and
the job order.  One process, one thread, one client in a closed loop: the
jobs run back to back, as a user's `blockq` calls do, in rounds until the
time is up.  Each round imports `blockq` afresh and builds its inputs (the
set-up), then runs every job and checks its answer.

Times are given at a reference host speed.  The host is shared with other
tenants, and the speed it lends this process drifts by up to a factor of two
within minutes, for wall and CPU time alike.  So a fixed pure-Python kernel
(`ref_kernel`, no blockq code) is timed between every two measured steps (a
set-up or a job), and each step's times are multiplied by REF_S over the mean
of the kernel times on either side of it.  REF_S is a constant near the
kernel's time on an idle 2.1 GHz Xeon KVM guest, so the figures read as
seconds on such a host.  The raw times are printed on the lines before the
result.

With `--trace 0` the last line of stdout holds the end-to-end metrics:
`wall_s` and `cpu_s` sum each job's median over the rounds, `setup_s` is the
median set-up, and `peak_rss_mib` the peak resident memory of the process.
With `--trace 1` untraced and traced rounds alternate; the line holds the
per-layer self times (raw medians over traced rounds) and work counts, which
must repeat exactly, and the spans go to `.perfbench_out/`.

Exit code 0 when every answer is correct, 1 when one is not, and 2 when the
checkout holds no `src/blockq` to measure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import jobs as jobmod
from tracer import Tracer, layer_metrics, merge_rounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_ROUNDS = 3          # untraced rounds per untraced run
MIN_PAIRS = 2           # untraced + traced pairs per traced run
REF_S = 0.085           # ref_kernel at the speed the figures are given in
HARD_LIMIT_S = 150.0    # never start a round after this much time
MODULES = ("algebra", "cli", "halfder", "homlie", "scalars", "specdsl", "tpverify")


def load_blockq() -> SimpleNamespace:
    """Import blockq afresh, as every `blockq` command does."""
    for name in [n for n in sys.modules if n == "blockq" or n.startswith("blockq.")]:
        del sys.modules[name]
    importlib.import_module("blockq.cli")
    return SimpleNamespace(**{m: sys.modules["blockq." + m] for m in MODULES})


def ref_kernel() -> float:
    """Seconds for a fixed mix of dict, tuple, Fraction and int work.

    The collector is off meanwhile, so that the heap blockq leaves behind
    does not slow the kernel down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(3):
            table: dict = {}
            for i in range(40_000):
                key = (i % 97, i % 89)
                table[key] = table.get(key, 0) + i * 3 - (i >> 2)
            frac = Fraction(0)
            for i in range(1, 3000):
                frac += Fraction(i % 7, i % 5 + 1)
            acc = 0
            for i in range(100_000):
                acc += i * i % 7
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference-kernel times, sampled between measured steps."""

    def __init__(self):
        self.samples = [ref_kernel()]

    def factor(self) -> float:
        """Sample again; the factor that brings the step just ended to REF_S speed."""
        self.samples.append(ref_kernel())
        return 2 * REF_S / (self.samples[-2] + self.samples[-1])


def setup_round(pools: dict, jobs: list[dict], tracer: Tracer | None):
    """(lib, per-job inputs or None when set-up raised, errors, seconds)."""
    t0 = perf_counter()
    lib = load_blockq()
    if tracer is not None:
        tracer.install(lib)
    inputs, errors = [], []
    for jid, entry in enumerate(jobs):
        if tracer is not None:
            tracer.job = jid
        try:
            with tracer.span("setup") if tracer else nullcontext():
                inputs.append(jobmod.setup_job(lib, pools, entry))
            errors.append([])
        except Exception as exc:  # a failing job is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            inputs.append(None)
            errors.append([f"set-up raised {exc!r}"])
    return lib, inputs, errors, perf_counter() - t0


def run_round(pools, digests, jobs, tracer: Tracer | None, host: HostSpeed):
    """Set up and run every job once.

    Returns the set-up time and, per job, (wall, CPU, errors, raw wall), with
    times at REF_S speed.
    """
    lib, inputs, setup_errors, setup_s = setup_round(pools, jobs, tracer)
    setup_s *= host.factor()
    results = []
    try:
        for jid, (entry, inp, errors) in enumerate(zip(jobs, inputs, setup_errors)):
            if tracer is not None:
                tracer.job = jid
            w0, c0 = perf_counter(), process_time()
            if inp is not None:
                try:
                    errors = _run_checked(lib, entry, inp, digests, tracer)
                except Exception as exc:  # a failing job is counted, the run goes on
                    traceback.print_exc(file=sys.stderr)
                    errors = [f"raised {exc!r}"]
            wall, cpu = perf_counter() - w0, process_time() - c0
            k = host.factor()
            results.append((wall * k, cpu * k, errors, wall))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return setup_s, results


def _run_checked(lib, entry, inp, digests, tracer: Tracer | None) -> list[str]:
    if tracer is None:
        data = jobmod.run_job(lib, entry, inp, nullcontext)
        return jobmod.check_answer(entry, data, digests)
    counts = {}
    with tracer.span("cli.command"):
        data = jobmod.run_job(lib, entry, inp,
                              lambda: tracer.span("cli.report", counts))
    counts["bytes"] = len(data)
    return jobmod.check_answer(entry, data, digests)


def tally(rounds: list[list[tuple]]) -> tuple[int, int]:
    """(jobs attempted, jobs that raised or gave a wrong answer)."""
    outcomes = [res[2] for results in rounds for res in results]
    return len(outcomes), sum(1 for errors in outcomes if errors)


def job_medians(rounds: list[list[tuple]], col: int) -> float:
    """Sum over jobs of each job's median over the rounds."""
    return sum(statistics.median(r[j][col] for r in rounds)
               for j in range(len(rounds[0])))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "blockq" / "__init__.py").is_file():
        print(f"error: no blockq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pools, digests = jobmod.load_pools(), jobmod.load_digests()
    if args.workload not in pools["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    jobs = jobmod.make_jobs(pools, args.workload, args.seed)

    start = perf_counter()
    host = HostSpeed()
    tracer = Tracer() if args.trace else None
    untraced, traced, setups, layer_rounds, span_rounds, step_s = [], [], [], [], [], []
    while True:
        t0 = perf_counter()
        setup_s, results = run_round(pools, digests, jobs, None, host)
        setups.append(setup_s)
        untraced.append(results)
        if tracer is not None:
            tracer.spans = []
            traced.append(run_round(pools, digests, jobs, tracer, host)[1])
            layer_rounds.append(layer_metrics(tracer.spans))
            span_rounds.append(tracer.spans)
        step_s.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        done = len(step_s) >= (MIN_PAIRS if tracer else MIN_ROUNDS)
        if elapsed > HARD_LIMIT_S or (done and elapsed + statistics.median(step_s)
                                      > args.seconds):
            break

    attempted, failed = tally(untraced + traced)
    for jid, entry in enumerate(jobs):
        seen = {e for results in untraced + traced for e in results[jid][2]}
        for err in sorted(seen):
            print(f"FAIL {jobmod.job_key(entry)}: {err}", file=sys.stderr)
    correct = failed == 0
    ref = statistics.median(host.samples)

    if tracer is None:
        metrics = {
            "wall_s": (job_medians(untraced, 0), "s"),
            "cpu_s": (job_medians(untraced, 1), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "MiB"),
        }
    else:
        layers, unstable = merge_rounds(layer_rounds)
        for msg in unstable:
            print(f"FAIL determinism: {msg}", file=sys.stderr)
        correct = correct and not unstable
        layers["host.ref_loop_s"] = ref
        layers["trace.overhead_s"] = job_medians(traced, 0) - job_medians(untraced, 0)
        metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "jobs": [jobmod.job_key(e) for e in jobs],
            "fields": ["name", "start", "end", "parent", "job", "counts"],
            "rounds": span_rounds}))

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"rounds={len(untraced)}+{len(traced)} traced "
          f"host.ref_loop_s={ref:.4f} raw wall_s={job_medians(untraced, 3):.4f}")
    print("  raw round wall s: "
          + " ".join(f"{sum(res[3] for res in results):.3f}" for results in untraced))
    for entry in jobs:
        print(f"  job: {jobmod.job_key(entry)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_useful"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
