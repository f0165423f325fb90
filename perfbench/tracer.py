"""Outside-in layer trace: wraps blockq's public functions and records spans.

Nothing inside `src/blockq` knows about the trace.  `Tracer.install` replaces
module attributes with timing wrappers, including the copies other modules
imported by name (`tpverify.check_map`, the re-exports in `blockq`), and
`Tracer.uninstall` puts the originals back.  Spans stay in memory as
(name, start, end, parent, job) until the benchmark writes them out.

Zero propagation and rank live in private helpers of `halfder`, so their
time is part of `halfder.nullspace_s`.
"""

from __future__ import annotations

import functools
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter


def _report_counts(rep) -> dict:
    return {"checked": rep.checked, "violations": rep.total_violations,
            "kept": len(rep.violations)}


# (module, attribute, span name, counts taken from the result).  Every module
# attribute bound to the same function is wrapped, except for names listed in
# HOME_ONLY: `bracket_basis` is the antisymmetry witness only where
# `verify_antisymmetry` looks it up, and `tpverify` evaluates it per triple.
TARGETS = [
    ("halfder", "build_constraints", "halfder.build_constraints",
     lambda cs: {"rows": len(cs.rows), "unknowns": len(cs.unknowns)}),
    ("halfder", "null_space", "halfder.null_space",
     lambda ns: {"dim": ns.dimension}),
    ("halfder", "stabilize", "halfder.stabilize", None),
    ("halfder", "classify", "halfder.classify", None),
    ("halfder", "check_map", "halfder.check_map", _report_counts),
    ("halfder", "half_derivation_sides", "halfder.half_derivation_sides", None),
    ("algebra", "verify_antisymmetry", "algebra.verify_antisymmetry", _report_counts),
    ("algebra", "verify_jacobi", "algebra.verify_jacobi", _report_counts),
    ("algebra", "jacobi_sides", "algebra.jacobi_sides", None),
    ("algebra", "bracket_basis", "algebra.bracket_basis", None),
    ("homlie", "hom_jacobi_check", "homlie.hom_jacobi_check", _report_counts),
    ("homlie", "hom_cyclic_sum", "homlie.hom_cyclic_sum", None),
    ("tpverify", "verify_supercommutative_grading", "tpverify.grading", None),
    ("tpverify", "verify_associative", "tpverify.associative", None),
    ("tpverify", "verify_transposed_leibniz", "tpverify.leibniz", _report_counts),
    ("tpverify", "verify_left_multiplications", "tpverify.left_mult", None),
    ("specdsl", "parse_spec", "specdsl.parse_spec", None),
    ("specdsl", "make_algebra", "specdsl.make_algebra", None),
]
HOME_ONLY = {"bracket_basis"}

# span name -> per-layer metric that receives the span's self time
SELF_TIME = {
    "specdsl.parse_spec": "specdsl.parse_s",
    "specdsl.make_algebra": "specdsl.parse_s",
    "algebra.compiled": "algebra.compile_s",
    "halfder.build_constraints": "halfder.assemble_s",
    "halfder.null_space": "halfder.nullspace_s",
    "halfder.stabilize": "halfder.intersect_s",
    "halfder.classify": "halfder.match_s",
    "halfder.check_map": "halfder.checkmap_s",
    "halfder.half_derivation_sides": "halfder.witness_s",
    "algebra.verify_antisymmetry": "algebra.antisym_s",
    "algebra.verify_jacobi": "algebra.jacobi_s",
    "algebra.jacobi_sides": "algebra.witness_s",
    "algebra.bracket_basis": "algebra.witness_s",
    "homlie.hom_jacobi_check": "homlie.check_s",
    "homlie.hom_cyclic_sum": "homlie.witness_s",
    "tpverify.grading": "tpverify.grading_s",
    "tpverify.associative": "tpverify.assoc_s",
    "tpverify.leibniz": "tpverify.leibniz_s",
    "tpverify.left_mult": "tpverify.lmult_s",
    "cli.report": "cli.report_s",
    "cli.command": "cli.other_s",
}

# per-layer metrics that count work; they must repeat exactly
COUNTS = [
    "halfder.rows", "halfder.unknowns", "halfder.systems", "halfder.kernel_dims",
    "halfder.checkmap_rows", "halfder.witness_calls", "halfder.witness_kept",
    "algebra.antisym_pairs", "algebra.jacobi_triples", "algebra.witness_calls",
    "algebra.witness_kept", "algebra.violations",
    "homlie.triples", "homlie.violations", "homlie.witness_calls",
    "tpverify.leibniz_triples", "cli.report_bytes", "trace.spans",
]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, counts]
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.job, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, counts: dict | None = None) -> None:
        span = self.spans[sid]
        span[2] = perf_counter()
        span[5] = counts
        self._stack.pop()

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid, counts)

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(sid, counter(result) if counter and result is not None else None)

        wrapper.perfbench_wrapped = True
        return wrapper

    def install(self, lib) -> None:
        """Wrap the targets in every loaded `blockq` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "blockq" or n.startswith("blockq.")]
        for home, attr, name, counter in TARGETS:
            original = getattr(getattr(lib, home), attr)
            wrapper = self._wrap(original, name, counter)
            scope = [getattr(lib, home)] if attr in HOME_ONLY else modules
            for mod in scope:
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)
        spec_cls = lib.algebra.AlgebraSpec
        self._patch(spec_cls, "compiled",
                    self._wrap(vars(spec_cls)["compiled"], "algebra.compiled", None))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self times and work counts of one traced round."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _job, _counts in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = {m: 0.0 for m in SELF_TIME.values()}
    out.update({m: 0 for m in COUNTS})
    n = {}
    for sid, (name, start, end, _parent, _job, counts) in enumerate(spans):
        metric = SELF_TIME.get(name)
        if metric:
            out[metric] += (end - start) - child[sid]
        n[name] = n.get(name, 0) + 1
        if not counts:
            continue
        if name == "halfder.build_constraints":
            out["halfder.rows"] += counts["rows"]
            out["halfder.unknowns"] += counts["unknowns"]
        elif name == "halfder.null_space":
            out["halfder.kernel_dims"] += counts["dim"]
        elif name == "halfder.check_map":
            out["halfder.checkmap_rows"] += counts["checked"]
            out["halfder.witness_kept"] += counts["kept"]
        elif name in ("algebra.verify_antisymmetry", "algebra.verify_jacobi"):
            key = ("algebra.antisym_pairs" if name.endswith("antisymmetry")
                   else "algebra.jacobi_triples")
            out[key] += counts["checked"]
            out["algebra.violations"] += counts["violations"]
            out["algebra.witness_kept"] += counts["kept"]
        elif name == "homlie.hom_jacobi_check":
            out["homlie.triples"] += counts["checked"]
            out["homlie.violations"] += counts["violations"]
        elif name == "tpverify.leibniz":
            out["tpverify.leibniz_triples"] += counts["checked"]
        elif name == "cli.report":
            out["cli.report_bytes"] += counts["bytes"]
    out["halfder.systems"] = n.get("halfder.null_space", 0)
    out["halfder.witness_calls"] = n.get("halfder.half_derivation_sides", 0)
    # an antisymmetry witness evaluates both [x,y] and [y,x]
    out["algebra.witness_calls"] = (n.get("algebra.jacobi_sides", 0)
                                    + n.get("algebra.bracket_basis", 0) // 2)
    out["homlie.witness_calls"] = n.get("homlie.hom_cyclic_sum", 0)
    out["trace.spans"] = len(spans)
    return out


def merge_rounds(rounds: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median time per metric over traced rounds; counts must agree exactly."""
    merged = {}
    unstable = []
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        if key in COUNTS:
            if len(set(values)) > 1:
                unstable.append(f"{key} differs between rounds: {values}")
            merged[key] = values[0]
        else:
            merged[key] = statistics.median(values)
    calls = merged["algebra.witness_calls"]
    # kept / calls; with no witness built nothing was wasted
    merged["algebra.witness_useful"] = merged["algebra.witness_kept"] / calls if calls else 1.0
    return merged, unstable
