"""One pathqv benchmark workload, run in a process of its own.

``run.py`` starts this script several times per run: a few times with
``--setup-only`` to sample set-up time, and once to time ops.  The process
imports pathqv from the checkout's ``src`` directory, builds its inputs from
``--seed``, times ops for ``--seconds`` of op time, checks every op's outputs
outside the timed region, and writes a JSON report to ``--report``.
"""

from __future__ import annotations

import argparse
import contextlib
import io as stdio
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
import pathqv as pq  # noqa: E402
from pathqv import cli  # noqa: E402

if not Path(pq.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"pathqv imported from {pq.__file__}, not from {SRC}")

import tracing  # noqa: E402

SEED_STRIDE = 1_000_000   # op i of workload seed s uses path seeds from s * SEED_STRIDE

# Throughput and p90 are medians over consecutive blocks of a run, so a burst
# of contention from outside that covers less than half the blocks does not
# move them.
BLOCKS = 5


def quiet_cli(argv) -> int:
    """pqv in-process, with its terminal output captured so it is not timed."""
    with contextlib.redirect_stdout(stdio.StringIO()):
        return cli.main([str(a) for a in argv])


def write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


class Workload:
    """Inputs, op, checks and run-level verdicts of one workload.

    prepare() and check() run outside the timed region; run() is the op.
    check() returns a failure message or None.
    """

    seeds_per_op = 0
    predicted_top: tuple = ()   # the layer(s) expected to hold the largest traced share

    def __init__(self, seed: int, tmp: Path, workers: int):
        self.seed = seed
        self.tmp = tmp
        self.workers = workers
        self.setup_problem = None   # a failed check made before the first op

    def path_seed(self, i: int) -> int:
        return self.seed * SEED_STRIDE + i

    def prepare(self, i: int):
        return None

    def replay_failures(self) -> set:
        return set()

    def verdicts(self) -> list:
        return []


# ---------------------------------------------------------------------------
# roughness-m23: criterion 3, large arrays
# ---------------------------------------------------------------------------

class RoughnessM23(Workload):
    M = 23
    predicted_top = ("paths",)

    def __init__(self, seed, tmp, workers):
        super().__init__(seed, tmp, workers)
        self.rb = pq.gen_random_balanced(7, range(6, 13), self.M, 1.0, 3.0)
        self.ref = pq.gen_dyadic(range(6, self.M + 1), self.M, 1.0)
        sel = pq.select_dyadic_subsequence(self.rb, 0.5, self.ref)
        self.pairs = list(zip(sel.level_ids, sel.l))
        self.abs_s = {n: [] for n, _ in self.pairs}
        self.s12 = []
        self.max_gap_ratio = 0.0
        try:
            self.oracle_gap = self._oracle_gap()
        except Exception as exc:  # a broken kernel makes the run incorrect, not a crash
            self.oracle_gap = math.inf
            self.setup_problem = f"double-loop comparison raised {type(exc).__name__}: {exc}"
        if self.oracle_gap > 1e-12 and self.setup_problem is None:
            self.setup_problem = f"per-cell kernel off the double loop by {self.oracle_gap:.3g}"

    def _oracle_gap(self) -> float:
        """Largest relative gap of the per-cell kernel against the double loop at M=8."""
        worst = 0.0
        for k in range(3):
            w = pq.gen_brownian(self.path_seed(k), 8, 1.0)
            coarse = pq.gen_random_balanced(k, [3], 8, 1.0, 2.0).level(3)
            fine = pq.gen_dyadic([6], 8, 1.0).level(6)
            fast = pq.roughness_statistic(w, coarse, fine).S
            slow = pq.roughness_double_loop(w, coarse, fine)
            worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
        return worst

    def working_set_bytes(self) -> int:
        n = (1 << self.M) + 1
        return 3 * 8 * n   # path, fine increments, level-23 reference indices

    def run(self, i, prep):
        w = pq.gen_brownian(self.path_seed(i), self.M, 1.0)
        stats = [pq.roughness_statistic(w, self.rb.level(n), self.ref.level(l),
                                        coarse_level=n, fine_level=l)
                 for n, l in self.pairs]
        return w, stats

    def check(self, i, out):
        w, stats = out
        x = w.samples[:, 0]
        worst = 0.0
        for st in stats:
            inc = np.diff(x[:: 1 << (self.M - st.fine_level)])
            bound = 1e-9 * max(1.0, float(inc @ inc))   # the kernel's own bound
            worst = max(worst, st.decomposition_gap / bound)
            self.abs_s[st.coarse_level].append(abs(st.S))
            if st.coarse_level == 12:
                self.s12.append(st.S)
        self.max_gap_ratio = max(self.max_gap_ratio, worst)
        return None if worst <= 1.0 else f"decomposition gap {worst:.3g}x its bound"

    def verdicts(self):
        med = {n: float(np.median(v)) for n, v in self.abs_s.items() if v}
        last4 = [med[n] for n, _ in self.pairs[-4:] if n in med]
        out = [("oracle_rel_gap_m8", self.oracle_gap, 1e-12)]
        if last4:
            out.append(("c3_final_median_abs_S", last4[-1], 0.05))
            out.append(("c3_last4_medians_not_decreasing",
                        float(sum(b >= a for a, b in zip(last4, last4[1:]))), 0.0))
        if len(self.s12) > 1:
            budget = 2.0 * self.rb.level(12).mesh * 1.5
            out.append(("c3_var_S12", float(np.var(self.s12, ddof=1)), budget))
        return out


# ---------------------------------------------------------------------------
# localtime-m14: criterion 8 plus the calculus kernels, small arrays
# ---------------------------------------------------------------------------

class LocaltimeM14(Workload):
    M = 14
    predicted_top = ("calculus",)

    def __init__(self, seed, tmp, workers):
        super().__init__(seed, tmp, workers)
        self.part12 = pq.gen_dyadic([12], self.M, 1.0).level(12)
        self.seq = pq.gen_dyadic(range(8, 14), self.M, 1.0)
        self.abs_fn = pq.function_catalogue("abs_smooth", a=0.0, eps=0.1)
        self.sin_fn = pq.function_catalogue("sin")
        self.square_fn = pq.function_catalogue("square")
        self.max_tent_gap_ratio = 0.0
        self.occ_err, self.weak, self.tanaka = [], [], []

    def working_set_bytes(self) -> int:
        n = (1 << self.M) + 1
        parts = sum(p.indices.nbytes for p in self.seq) + self.part12.indices.nbytes
        return 8 * n * 3 + parts + 8 * 512 * 8   # path, integral path, QV terms, fields

    def run(self, i, prep):
        w = pq.gen_brownian(self.path_seed(i), self.M, 1.0)
        u = pq.calculus.default_u_grid(w, n_u=512)
        fld = pq.local_time_discrete(w, self.part12, t_grid=[0.5, 1.0], u_grid=u, level=12)
        fields = [pq.local_time_discrete(w, p, t_grid=[1.0], u_grid=u, level=n)
                  for n, p in zip(self.seq.level_ids, self.seq)]
        occ = pq.occupation_check(fld, w, self.part12, [(0.0, np.inf)])
        weak = pq.weak_l2_convergence(fields, tol=0.05)
        tanaka = pq.tanaka_residual(w, self.abs_fn, self.part12, fld, 1.0)
        ito = pq.ito_residual(w, self.sin_fn, self.seq)
        iso = pq.isometry_check(w, self.sin_fn, self.seq)
        return w, fld, occ, weak, tanaka, ito, iso

    def check(self, i, out):
        w, fld, occ, weak, tanaka, ito, iso = out
        qv = pq.qv_level(w, self.part12, [0.5, 1.0]).at([0.5, 1.0])
        tent_bound = 4.0 * self.part12.n_intervals * fld.du**2
        tent_ratio = float(np.abs(fld.integrate() - qv).max()) / tent_bound
        self.max_tent_gap_ratio = max(self.max_tent_gap_ratio, tent_ratio)
        et, resid = pq.ito_residual_level(w, self.square_fn, self.part12,
                                          eval_times=self.part12.times)
        telescoping = float(np.abs(resid[np.isin(et, self.part12.times)]).max())
        if occ.rhs_full[0, -1] > 1e-6:
            self.occ_err.append(abs(occ.lhs[0, -1] / occ.rhs_full[0, -1] - 1.0))
        self.weak.append(float(weak.cauchy[:, -1].max()))
        self.tanaka.append(abs(tanaka))
        problems = []
        if tent_ratio > 1.0:
            problems.append(f"tent identity gap {tent_ratio:.3g}x its bound")
        if occ.matched[-1] != "full":
            problems.append(f"occupation flag {occ.matched[-1]!r}")
        if iso.sup_distances.max() > 1e-12:
            problems.append(f"isometry sup {iso.sup_distances.max():.3g}")
        if telescoping > 1e-10:
            problems.append(f"telescoping residual {telescoping:.3g}")
        return "; ".join(problems) or None

    def verdicts(self):
        if not self.weak:
            return []
        return [("c8_median_occupation_err", float(np.median(self.occ_err)), 0.10),
                ("c8_median_weak_l2_last_pair", float(np.median(self.weak)), 0.05),
                ("c8_median_tanaka", float(np.median(self.tanaka)), 0.05)]


# ---------------------------------------------------------------------------
# mc-invariance-m20: `pqv mc` with a worker pool
# ---------------------------------------------------------------------------

class McInvarianceM20(Workload):
    seeds_per_op = 8
    predicted_top = ("paths", "quadvar")

    def __init__(self, seed, tmp, workers):
        super().__init__(seed, tmp, workers)
        self.doc = {
            "experiment": "invariance",
            "path": {"kind": "brownian", "M": 20, "T": 1.0},
            "partition": {"generator": "dyadic", "levels": [10, 18], "M": 20, "T": 1.0},
            "partition_b": {"generator": "random_balanced", "levels": [10, 18], "M": 20,
                            "T": 1.0, "seed": 7, "c_target": 3.0},
            "analysis": {"tol": 0.05},
        }
        self.csv = {}
        self.sups = []

    def working_set_bytes(self) -> int:
        return 8 * ((1 << 20) + 1) * 2

    def prepare(self, i):
        lo = self.path_seed(i * self.seeds_per_op)
        doc = dict(self.doc, seeds=[lo, lo + self.seeds_per_op])
        return write_config(self.tmp / f"mc-{i}.json", doc)

    def _call(self, cfg, out_dir):
        return quiet_cli(["mc", cfg, "--workers", self.workers, "--out-dir", out_dir])

    def run(self, i, cfg):
        out_dir = self.tmp / f"op-{i}"
        return self._call(cfg, out_dir), out_dir

    def check(self, i, out):
        rc, out_dir = out
        try:
            if rc != 0:
                return f"pqv mc exit code {rc}"
            data = (out_dir / "mc.csv").read_bytes()
            self.csv[i] = data
            rows = data.decode().splitlines()
            col = rows[0].split(",").index("sup_distance")
            self.sups.extend(float(r.split(",")[col]) for r in rows[1:])
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def replay_failures(self):
        """Re-run the first, middle and last seed batch; mc.csv must match byte for byte."""
        ids = sorted(self.csv)
        failed = set()
        for i in sorted({ids[0], ids[len(ids) // 2], ids[-1]}) if ids else ():
            out_dir = self.tmp / f"replay-{i}"
            rc = self._call(self.tmp / f"mc-{i}.json", out_dir)
            if rc != 0 or (out_dir / "mc.csv").read_bytes() != self.csv[i]:
                failed.add(i)
            shutil.rmtree(out_dir, ignore_errors=True)
        return failed

    def verdicts(self):
        if not self.sups:
            return []
        return [("invariance_median_sup", float(np.median(self.sups)), 0.05)]


# ---------------------------------------------------------------------------
# artifacts-m20: four pqv calls that write and read files
# ---------------------------------------------------------------------------

class ArtifactsM20(Workload):
    M = 20
    predicted_top = ("io",)

    def __init__(self, seed, tmp, workers):
        super().__init__(seed, tmp, workers)
        M = self.M
        self.gen_path = write_config(tmp / "gen-path.json", {
            "path": {"kind": "mixed", "M": M, "T": 1.0, "H": 0.75, "delta": 1.0},
            "output": {"format": "pqv"}})
        self.qv = write_config(tmp / "qv.json", {
            "path": {"kind": "brownian", "M": M, "T": 1.0, "d": 4},
            "partition": {"generator": "dyadic", "levels": [12, 14], "M": M, "T": 1.0},
            "analysis": {"tol": 0.05}})
        self.localtime = write_config(tmp / "localtime.json", {
            "path": {"kind": "brownian", "M": 14, "T": 1.0},
            "partition": {"generator": "dyadic", "levels": [8, 12], "M": 14, "T": 1.0},
            "analysis": {"function": "abs_smooth", "fn_params": {"a": 0.0, "eps": 0.1},
                         "tol": 0.05, "u_points": 512}})
        self.qv_levels = pq.gen_dyadic(range(12, 15), M, 1.0)

    def working_set_bytes(self) -> int:
        return 8 * ((1 << self.M) + 1) * 4

    def prepare(self, i):
        # every call writes into a directory of its own: overwriting a file
        # (report.json) would time the file system's flush-on-truncate
        out = self.tmp / f"op-{i}"
        for step in ("gen-path", "gen-partition", "qv", "localtime"):
            (out / step).mkdir(parents=True)
        part_cfg = write_config(out / "gen-partition.json", {
            "path": {"kind": "mixed", "M": self.M, "T": 1.0, "H": 0.75, "delta": 1.0,
                     "file": str(out / "gen-path" / "path.pqv")},
            "partition": {"generator": "lebesgue", "lebesgue_n": 5, "M": self.M, "T": 1.0}})
        return out, part_cfg

    def run(self, i, prep):
        out, part_cfg = prep
        s = self.path_seed(i)
        return out, [
            quiet_cli(["gen-path", self.gen_path, "--seed", s, "--out-dir", out / "gen-path"]),
            quiet_cli(["gen-partition", part_cfg, "--out-dir", out / "gen-partition"]),
            quiet_cli(["qv", self.qv, "--seed", s, "--out-dir", out / "qv"]),
            quiet_cli(["localtime", self.localtime, "--seed", s,
                       "--out-dir", out / "localtime"]),
        ]

    def check(self, i, result):
        out, rcs = result
        s = self.path_seed(i)
        try:
            if any(rcs):
                return f"exit codes {rcs}"
            back = pq.io.read_path_binary(out / "gen-path" / "path.pqv")
            again = pq.gen_mixed(s, self.M, 1.0, 0.75, 1.0)
            if back.samples.tobytes() != again.samples.tobytes():
                return "path.pqv differs from the regenerated path"
            w4 = pq.gen_brownian(s, self.M, 1.0, 4)
            rows = pq.io.read_qv_csv(out / "qv" / "qv.csv")
            if [lev for lev, _, _ in rows] != list(self.qv_levels.level_ids):
                return "qv.csv levels differ"
            for level, times, values in rows:
                curve = pq.qv_matrix(w4, self.qv_levels.level(level))
                if not (np.array_equal(times, curve.eval_times)
                        and np.array_equal(values, curve.values)):
                    return f"qv.csv level {level} differs from qv_matrix"
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {
    "roughness-m23": RoughnessM23,
    "localtime-m14": LocaltimeM14,
    "mc-invariance-m20": McInvarianceM20,
    "artifacts-m20": ArtifactsM20,
}


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

def run_phase(wl: Workload, seconds: float, first_op: int, failures: list,
              tracer=None) -> list[float]:
    """Op latencies of ops run until their summed time reaches `seconds`.

    At least one op runs.  Failed ops are appended to `failures`.
    """
    latencies: list[float] = []
    i = first_op
    while not latencies or math.fsum(latencies) < seconds:
        try:
            prep = wl.prepare(i)
            if tracer:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                out = wl.run(i, prep)
            finally:
                latencies.append(time.perf_counter() - t0)
                if tracer:
                    tracer.end_op()
            error = wl.check(i, out)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        if error:
            failures.append((i, error))
        i += 1
    return latencies


def percentiles(lat: list[float]) -> tuple[float, float]:
    if len(lat) == 1:
        return lat[0], lat[0]
    return statistics.median(lat), statistics.quantiles(lat, n=10, method="inclusive")[8]


def blocks(lat: list[float], n: int = BLOCKS) -> list[list[float]]:
    """`lat` cut into n consecutive runs of ops of near-equal length."""
    n = min(n, len(lat))
    return [lat[j * len(lat) // n:(j + 1) * len(lat) // n] for j in range(n)]


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest reaped child, in MB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def nproc() -> int:
    """CPUs this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def machine_lines(wl: Workload) -> list[str]:
    l3 = l3_bytes()
    ws = wl.working_set_bytes()
    ratio = f"{ws / l3:.2f}x L3" if l3 else "L3 unknown"
    return [
        f"machine: nproc={nproc()} l3={l3 // 1024 if l3 else '?'}KiB "
        f"python={platform.python_version()} numpy={np.__version__}",
        f"working set per op (computed from array sizes): {ws / 2**20:.2f} MiB, {ratio}",
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-start", type=int, required=True,
                    help="time.monotonic_ns() of the parent just before this process started")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True)
    workers = min(2, nproc())
    wl = WORKLOADS[args.workload](args.seed, tmp, workers)
    setup_s = (time.monotonic_ns() - args.t_start) / 1e9
    report = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.report).write_text(json.dumps(report))
        return 0

    failures: list = []
    trace_lines: list[str] = []
    if not args.trace:
        phases = {"untraced": run_phase(wl, args.seconds, 0, failures)}
    else:
        # mc-invariance-m20 adds an untraced 1-worker phase: it is both the
        # serial baseline of cli.scaling_eff and the untraced twin of the
        # traced phase, which runs with 1 worker so every span stays here
        tracer = tracing.Tracer()
        mc = isinstance(wl, McInvarianceM20)
        share = args.seconds / (3 if mc else 2)
        phases = {"untraced": run_phase(wl, share, 0, failures)}
        if mc:
            wl.workers = 1
            phases["serial"] = run_phase(wl, share, len(phases["untraced"]), failures)
        tracer.install()
        try:
            first = sum(map(len, phases.values()))
            phases["traced"] = run_phase(wl, share, first, failures, tracer)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.dump(args.spans)
    failed_ops = {i for i, _ in failures}
    for i in wl.replay_failures() - failed_ops:
        failures.append((i, "replayed seed batch gave a different mc.csv"))

    attempted = sum(map(len, phases.values()))
    base = phases["untraced"]
    p50, p90 = percentiles(base)
    if not args.trace:
        metrics = {
            "ops_per_s": statistics.median(len(b) / math.fsum(b) for b in blocks(base)),
            "op_p50_ms": 1e3 * p50,
            "op_p90_ms": 1e3 * statistics.median(percentiles(b)[1] for b in blocks(base)),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans, wl.seeds_per_op)
        traced50 = percentiles(phases["traced"])[0]
        serial50 = percentiles(phases["serial"])[0] if "serial" in phases else 0.0
        metrics["cli.serial_op_ms"] = 1e3 * serial50
        metrics["cli.scaling_eff"] = serial50 / (workers * p50) if serial50 else 0.0
        metrics["trace.overhead_pct"] = 100.0 * (traced50 / (serial50 or p50) - 1.0)
        metrics["roughness.max_gap_ratio"] = getattr(wl, "max_gap_ratio", 0.0)
        metrics["calculus.max_tent_gap_ratio"] = getattr(wl, "max_tent_gap_ratio", 0.0)
        shares = {layer: metrics[f"{layer}.share"] for layer in tracing.LAYERS}
        top = max(shares, key=shares.get)
        trace_lines = [
            f"traced op wall = layer self times {sum(shares.values()):.4f} + "
            f"unattributed {metrics['trace.unattributed_share']:.4f}",
            f"largest layer share: {top} {shares[top]:.3f}, predicted "
            f"{'/'.join(wl.predicted_top)}"
            + ("" if top in wl.predicted_top else " (MISMATCH)"),
        ]

    beyond = sum(x > p90 for x in base)
    verdicts = wl.verdicts()
    report.update(
        attempted=attempted,
        failed=len(failures),
        correct=not failures and wl.setup_problem is None,
        metrics=metrics,
        lines=machine_lines(wl)
        + [f"samples: {len(base)} untraced ops in {len(blocks(base))} blocks of "
           f"{len(blocks(base)[0])}+; {beyond} ops beyond the run's own p90"]
        + [f"{name} phase: {len(lat)} ops, median {1e3 * percentiles(lat)[0]:.2f} ms"
           for name, lat in phases.items() if args.trace]
        + trace_lines
        + [f"verdict {name}: value {v:.6g} tol {tol:.6g} ({'pass' if v <= tol else 'FAIL'})"
           for name, v, tol in verdicts]
        + [f"failed op {i}: {msg}" for i, msg in failures[:20]]
        + ([f"set-up check failed: {wl.setup_problem}"] if wl.setup_problem else []),
    )
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
