"""Spans around calls into the public functions of each pathqv module.

The tracer replaces each listed function by a wrapper wherever a pathqv
module holds a reference to it: the defining module, the package namespace
and modules such as ``pathqv.cli`` that import names directly.  Spans are
recorded only while an op is open, kept in memory, and written out once at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

LAYERS = ("paths", "partitions", "quadvar", "roughness", "calculus", "io", "cli")

#: Public entry points per layer.  Tiny helpers called per row or per element
#: (``io.fmt_float``, ``paths.master_index_of``) stay unwrapped: a span per
#: CSV field would cost more than the work it measures.
ENTRY_POINTS = {
    "paths": ("gen_brownian", "gen_fbm", "gen_mixed", "gen_deterministic",
              "estimate_holder"),
    "partitions": ("gen_kadic", "gen_dyadic", "gen_lebesgue", "gen_random_balanced",
                   "balance_report", "comparability", "adjust_subsequence",
                   "map_partition", "stop_partition"),
    "quadvar": ("qv_level", "qv_matrix", "qv_limit_diagnostic", "invariance_check"),
    "roughness": ("grouping", "roughness_statistic", "roughness_double_loop",
                  "select_dyadic_subsequence", "averaging_statistic", "hw_tail_check"),
    "calculus": ("default_u_grid", "follmer_integral", "follmer_path", "ito_residual",
                 "ito_residual_level", "isometry_check", "local_time_discrete",
                 "occupation_check", "tanaka_residual", "weak_l2_convergence"),
    "io": ("write_path_binary", "read_path_binary", "write_path_csv",
           "write_partition_csv", "read_partition_csv", "write_qv_csv", "read_qv_csv",
           "write_localtime_csv", "write_residual_csv", "write_roughness_csv",
           "write_json"),
    "cli": ("main", "parse_config", "build_path", "build_partitions", "cmd_gen_path",
            "cmd_gen_partition", "cmd_qv", "cmd_roughness", "cmd_integrate",
            "cmd_localtime", "cmd_invariance", "cmd_mc"),
}

PATH_GENERATORS = {"gen_brownian", "gen_fbm", "gen_mixed", "gen_deterministic"}
PARTITION_BUILDERS = {"gen_kadic", "gen_dyadic", "gen_lebesgue", "gen_random_balanced"}
CALCULUS_CHECKS = {"occupation_check", "weak_l2_convergence", "tanaka_residual",
                   "ito_residual", "ito_residual_level", "isometry_check"}
IO_READERS = {"read_path_binary", "read_partition_csv", "read_qv_csv"}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for the op span
    op: int
    work: float = 0.0    # points, fine increments, tents or bytes, by function


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(args, kwargs):
    total = 0
    for a in list(args) + list(kwargs.values()):
        if isinstance(a, (str, os.PathLike)) and os.path.isfile(a):
            total += os.path.getsize(a)
    return total


def _tents(args, kwargs, out):
    part = _arg(args, kwargs, 1, "part")
    pidx = part.indices
    t_idx = np.rint(out.t_grid / part.master_step).astype(np.int64)
    complete = int(np.searchsorted(pidx, t_idx[-1], side="right")) - 1
    straddle = (~np.isin(t_idx, pidx)) & (t_idx > pidx[0]) & (t_idx < pidx[-1])
    return complete + int(straddle.sum())


def _work(name, layer, args, kwargs, out):
    if name in PATH_GENERATORS:
        return out.samples.size
    if name == "roughness_statistic":
        return _arg(args, kwargs, 2, "fine").n_intervals
    if name == "local_time_discrete":
        return _tents(args, kwargs, out)
    if layer == "io" and name.startswith("write"):
        return _file_bytes(args, kwargs)
    return 0.0


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple] = []

    # -- ops -----------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack = [self._open("op", "bench", -1)]

    def end_op(self) -> None:
        sid = self._stack.pop()
        self.spans[sid].end = time.perf_counter()
        self._op = None

    def _open(self, name, layer, parent) -> int:
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, self._op))
        return len(self.spans) - 1

    # -- patching ------------------------------------------------------------
    def _wrap(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            sid = tracer._open(name, layer, tracer._stack[-1])
            tracer._stack.append(sid)
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                span = tracer.spans[sid]
                span.end = time.perf_counter()
                tracer._stack.pop()
                if done:
                    span.work = _work(name, layer, args, kwargs, out)

        return traced

    def install(self) -> None:
        import pathqv

        originals = {}
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules[f"pathqv.{layer}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self._wrap(fn, name, layer))
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "pathqv" or k.startswith("pathqv."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        if not hasattr(pathqv.cli.gen_brownian, "__wrapped__"):
            raise RuntimeError("tracer did not reach names imported into pathqv.cli")

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, file) -> None:
        with open(file, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> np.ndarray:
    """Span duration minus the time its direct children cover."""
    dur = np.array([s.end - s.start for s in spans])
    child = np.zeros(len(spans))
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return dur - child


def _outermost(spans, i, names) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return False
        p = spans[p].parent
    return True


def layer_metrics(spans: list[Span], seeds_per_op: int) -> dict:
    """Per-layer counts, self times and layer-specific rates, per traced op."""
    ops = [s for s in spans if s.name == "op"]
    n_ops = max(len(ops), 1)
    wall = sum(s.end - s.start for s in ops)
    selft = self_times(spans)
    out = {}
    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans) if s.layer == layer]
        self_s = float(selft[idx].sum()) if idx else 0.0
        out[f"{layer}.calls_per_op"] = len(idx) / n_ops
        out[f"{layer}.self_ms_per_op"] = 1e3 * self_s / n_ops
        out[f"{layer}.share"] = self_s / wall if wall else 0.0
    bench_self = float(sum(selft[i] for i, s in enumerate(spans) if s.layer == "bench"))
    out["trace.unattributed_share"] = bench_self / wall if wall else 0.0

    def incl(names, outer=False):
        sel = [s for i, s in enumerate(spans) if s.name in names
               and (not outer or _outermost(spans, i, names))]
        return sel, sum(s.end - s.start for s in sel)

    def rate(sel, secs):
        return sum(s.work for s in sel) / secs if secs else 0.0

    gens, t = incl(PATH_GENERATORS, outer=True)
    out["paths.points_per_s"] = rate(gens, t)
    builds, _ = incl(PARTITION_BUILDERS, outer=True)
    out["partitions.builds_per_op"] = len(builds) / n_ops
    out["partitions.lebesgue_ms"] = 1e3 * incl({"gen_lebesgue"})[1] / n_ops
    out["quadvar.invariance_ms"] = 1e3 * incl({"invariance_check"})[1] / n_ops
    out["quadvar.qv_matrix_ms"] = 1e3 * incl({"qv_matrix"})[1] / n_ops
    stats, t = incl({"roughness_statistic"})
    out["roughness.fine_increments_per_s"] = rate(stats, t)
    fields, t = incl({"local_time_discrete"})
    out["calculus.local_time_ms_per_field"] = 1e3 * t / len(fields) if fields else 0.0
    out["calculus.tents_per_s"] = rate(fields, t)
    out["calculus.checks_ms_per_op"] = 1e3 * incl(CALCULUS_CHECKS, outer=True)[1] / n_ops
    writes = [s for s in spans if s.layer == "io" and s.name.startswith("write")]
    written = sum(s.work for s in writes)
    write_s = sum(s.end - s.start for s in writes)
    out["io.bytes_written_per_op"] = written / n_ops
    out["io.write_mb_per_s"] = written / 1e6 / write_s if write_s else 0.0
    out["io.read_ms_per_op"] = 1e3 * incl(IO_READERS)[1] / n_ops
    parses = sum(1 for s in spans if s.name == "parse_config")
    out["cli.parse_per_seed"] = parses / (n_ops * seeds_per_op) if seeds_per_op else 0.0
    return out
