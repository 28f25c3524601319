"""Experiment runner: JSON-configured pipelines over paths and partitions.

Experiments carry too many parameters for flags, so every subcommand reads a
JSON config; flags are reserved for file paths, seed overrides and worker
count.  All randomness flows from explicit seeds in the config.  Exit codes:
0 all verdicts pass, 2 verdict failure, 1 usage or parameter error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np

from . import __version__, io
from .calculus import (
    default_u_grid,
    follmer_integral,
    function_catalogue,
    ito_residual,
    local_time_discrete,
    occupation_check,
    tanaka_residual,
)
from .errors import ParameterError, PQVError
from .partitions import PartitionSequence, gen_dyadic, gen_kadic, gen_lebesgue, gen_random_balanced
from .paths import gen_brownian, gen_deterministic, gen_fbm, gen_mixed
from .quadvar import invariance_check, qv_level, qv_limit_diagnostic, qv_matrix
from .roughness import roughness_statistic, select_dyadic_subsequence


# ---------------------------------------------------------------------------
# config dataclasses
# ---------------------------------------------------------------------------

@dataclass
class PathConfig:
    kind: str = "brownian"
    seed: int = 0
    M: int = 12
    T: float = 1.0
    d: int = 1
    H: float | None = None
    delta: float | None = None
    params: dict = field(default_factory=dict)
    file: str | None = None


@dataclass
class PartitionConfig:
    generator: str = "dyadic"
    levels: list = field(default_factory=lambda: [4, 10])
    M: int = 12
    T: float = 1.0
    k: int = 2
    c_target: float = 3.0
    seed: int = 0
    lebesgue_n: int = 4


@dataclass
class AnalysisConfig:
    beta: float = 0.5
    kappa: float = 1.5
    tol: float | None = None
    target: float | None = None
    function: str = "square"
    fn_params: dict = field(default_factory=dict)
    h: float = 0.25
    u_points: int = 512
    balance_threshold: float = 8.0


@dataclass
class OutputConfig:
    dir: str = "."
    format: str = "csv"


_SECTIONS = {
    "path": PathConfig,
    "partition": PartitionConfig,
    "partition_b": PartitionConfig,
    "analysis": AnalysisConfig,
    "output": OutputConfig,
}
_TOP_KEYS = set(_SECTIONS) | {"experiment", "seeds"}


def _has_type(value, kind) -> bool:
    if isinstance(value, bool):  # JSON true/false is never a number
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _from_dict(cls, data, where: str):
    if not isinstance(data, dict):
        raise ParameterError(f"section {where!r} must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ParameterError(f"unknown keys in {where}: {sorted(unknown)}")
    for key, value in data.items():
        kinds = typing.get_args(hints[key]) or (hints[key],)  # X | None -> (X, NoneType)
        if not any(_has_type(value, k) for k in kinds):
            expected = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            raise ParameterError(f"{where}.{key} must be {expected}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):  # JSON NaN, Infinity
            raise ParameterError(f"{where}.{key} must be finite, got {value!r}")
    return cls(**data)


def parse_config(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ParameterError("config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParameterError(f"unknown top-level keys: {sorted(unknown)}")
    out = {}
    for key, cls in _SECTIONS.items():
        if key in doc:
            out[key] = _from_dict(cls, doc[key], key)
    if "experiment" in doc:
        if doc["experiment"] not in ("qv", "invariance", "integrate", "roughness"):
            raise ParameterError(f"unknown experiment {doc['experiment']!r}")
        out["experiment"] = doc["experiment"]
    if "seeds" in doc:
        seeds = doc["seeds"]
        if (not isinstance(seeds, list) or len(seeds) != 2
                or not all(_has_type(s, int) for s in seeds) or seeds[0] >= seeds[1]):
            raise ParameterError("seeds must be [lo, hi] with lo < hi")
        out["seeds"] = range(seeds[0], seeds[1])
    return out


def _sections(cfg: dict, command: str, *keys: str) -> list:
    """The named config sections, or a ParameterError naming the missing ones."""
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ParameterError(f"{command} needs the sections {missing}")
    return [cfg[k] for k in keys]


def build_path(cfg: PathConfig, seed_override: int | None = None):
    if cfg.file:
        return io.read_path_binary(cfg.file)
    seed = cfg.seed if seed_override is None else seed_override
    if cfg.kind == "brownian":
        return gen_brownian(seed, cfg.M, cfg.T, cfg.d)
    if cfg.kind == "fbm":
        if cfg.H is None:
            raise ParameterError("fbm needs H")
        return gen_fbm(seed, cfg.M, cfg.T, cfg.H)
    if cfg.kind == "mixed":
        if cfg.H is None or cfg.delta is None:
            raise ParameterError("mixed needs H and delta")
        return gen_mixed(seed, cfg.M, cfg.T, cfg.H, cfg.delta)
    return gen_deterministic(cfg.kind, cfg.params, cfg.M, cfg.T, cfg.d)


def build_partitions(cfg: PartitionConfig, path=None) -> PartitionSequence:
    levels = cfg.levels
    if len(levels) == 2 and levels[0] <= levels[1]:
        levels = range(levels[0], levels[1] + 1)
    if cfg.generator == "dyadic":
        return gen_dyadic(levels, cfg.M, cfg.T)
    if cfg.generator == "kadic":
        return gen_kadic(cfg.k, levels, cfg.M, cfg.T)
    if cfg.generator == "random_balanced":
        return gen_random_balanced(cfg.seed, levels, cfg.M, cfg.T, cfg.c_target)
    if cfg.generator == "lebesgue":
        if path is None:
            raise ParameterError("lebesgue partitions need a path section")
        part = gen_lebesgue(path, cfg.lebesgue_n)
        return PartitionSequence((part,), (cfg.lebesgue_n,), "lebesgue")
    raise ParameterError(f"unknown partition generator {cfg.generator!r}")


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    command: str
    verdicts: dict
    tables: list
    timings: dict
    config: dict
    version: str = __version__

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def _finish(command: str, verdicts: dict, tables: list, t0: float, cfg: dict,
            out_dir: FsPath, **timings) -> int:
    report = RunReport(command, verdicts, [str(t) for t in tables],
                       {"total_s": time.perf_counter() - t0, **timings}, _echo(cfg))
    target = out_dir / "report.json"
    io.write_json(dataclasses.asdict(report), target)
    for name, ok in report.verdicts.items():
        print(f"[{report.command}] {name}: {'PASS' if ok else 'FAIL'}")
    print(f"[{report.command}] report: {target}")
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_path(cfg: dict, out_dir: FsPath, args) -> int:
    t0 = time.perf_counter()
    (path_cfg,) = _sections(cfg, "gen-path", "path")
    path = build_path(path_cfg, args.seed)
    binfile = out_dir / "path.pqv"
    io.write_path_binary(path, str(binfile))
    tables = [binfile]
    if cfg.get("output", OutputConfig()).format == "csv":
        csvfile = out_dir / "path.csv"
        io.write_path_csv(path, str(csvfile))
        tables.append(csvfile)
    return _finish("gen-path", {"generated": True}, tables, t0, cfg, out_dir)


def cmd_gen_partition(cfg: dict, out_dir: FsPath, args) -> int:
    t0 = time.perf_counter()
    (part_cfg,) = _sections(cfg, "gen-partition", "partition")
    path = build_path(cfg["path"], args.seed) if "path" in cfg else None
    seq = build_partitions(part_cfg, path)
    csvfile = out_dir / "partition.csv"
    sidecar = out_dir / "partition.json"
    io.write_partition_csv(seq, str(csvfile), str(sidecar))
    return _finish("gen-partition", {"generated": True}, [csvfile, sidecar], t0, cfg, out_dir)


def cmd_qv(cfg: dict, out_dir: FsPath, args) -> int:
    t0 = time.perf_counter()
    path_cfg, part_cfg = _sections(cfg, "qv", "path", "partition")
    path = build_path(path_cfg, args.seed)
    seq = build_partitions(part_cfg, path)
    ana = cfg.get("analysis", AnalysisConfig())
    curves = []
    for n, part in zip(seq.level_ids, seq):
        curve = qv_matrix(path, part) if path.dim > 1 else qv_level(path, part)
        curves.append((n, curve))
    csvfile = out_dir / "qv.csv"
    io.write_qv_csv(curves, str(csvfile))
    verdicts = {"curves_written": True}
    if len(seq) >= 3:
        tol = ana.tol if ana.tol is not None else 0.05
        diag = qv_limit_diagnostic(path, seq, tol=tol)
        verdicts["cauchy_at_tol"] = diag.cauchy_at_tol
    return _finish("qv", verdicts, [csvfile], t0, cfg, out_dir)


def _dyadic_selection(seq: PartitionSequence, beta: float):
    """Dyadic reference on the master grid of ``seq`` and the subsequence l_n chosen in it."""
    M, T = seq.master_level, seq.horizon
    reference = gen_dyadic(range(min(seq.level_ids), M + 1), M, T)
    return reference, select_dyadic_subsequence(seq, beta, reference)


def cmd_roughness(cfg: dict, out_dir: FsPath, args) -> int:
    t0 = time.perf_counter()
    path_cfg, part_cfg = _sections(cfg, "roughness", "path", "partition")
    path = build_path(path_cfg, args.seed)
    seq = build_partitions(part_cfg, path)
    ana = cfg.get("analysis", AnalysisConfig())
    reference, sel = _dyadic_selection(seq, ana.beta)
    records, max_gap = [], 0.0
    for n, l_n in zip(sel.level_ids, sel.l):
        stat = roughness_statistic(path, seq.level(n), reference.level(l_n),
                                   coarse_level=n, fine_level=l_n)
        records.append((n, path.meta.seed, stat))
        max_gap = max(max_gap, stat.decomposition_gap)
    csvfile = out_dir / "roughness.csv"
    io.write_roughness_csv(records, str(csvfile))
    verdicts = {
        "selection_sandwich": bool(all(sel.sandwich_ok)) if sel.sandwich_ok else True,
        "decomposition_identity": bool(max_gap < 1e-9),
    }
    return _finish("roughness", verdicts, [csvfile], t0, cfg, out_dir)


def cmd_integrate(cfg: dict, out_dir: FsPath, args) -> int:
    t0 = time.perf_counter()
    path_cfg, part_cfg = _sections(cfg, "integrate", "path", "partition")
    path = build_path(path_cfg, args.seed)
    seq = build_partitions(part_cfg, path)
    ana = cfg.get("analysis", AnalysisConfig())
    fn = function_catalogue(ana.function, **ana.fn_params)
    resid = ito_residual(path, fn, seq)
    csvfile = out_dir / "residual.csv"
    io.write_residual_csv(resid, str(csvfile))
    tol = ana.tol if ana.tol is not None else 0.02
    integrals = {str(n): follmer_integral(path, fn.f1, part, seq.horizon)
                 for n, part in zip(seq.level_ids, seq)}
    io.write_json(integrals, out_dir / "integrals.json")
    verdicts = {"residual_sup_finest": bool(resid.sup[-1] < tol)}
    return _finish("integrate", verdicts, [csvfile, out_dir / "integrals.json"], t0, cfg,
                   out_dir)


def cmd_localtime(cfg: dict, out_dir: FsPath, args) -> int:
    t0 = time.perf_counter()
    path_cfg, part_cfg = _sections(cfg, "localtime", "path", "partition")
    path = build_path(path_cfg, args.seed)
    seq = build_partitions(part_cfg, path)
    ana = cfg.get("analysis", AnalysisConfig())
    part = seq.partitions[-1]
    u = default_u_grid(path, n_u=max(256, ana.u_points))
    t_top = seq.horizon
    field_ = local_time_discrete(path, part, t_grid=[t_top / 2, t_top], u_grid=u,
                                 level=seq.level_ids[-1])
    csvfile = out_dir / "localtime.csv"
    io.write_localtime_csv(field_, str(csvfile))
    occ = occupation_check(field_, path, part, [(0.0, np.inf)])
    qv_end = float(qv_level(path, part, [t_top]).values[-1])
    tent_gap = abs(float(field_.integrate()[-1]) - qv_end)
    tent_tol = 4.0 * part.n_intervals * field_.du**2 + 1e-12
    fn = function_catalogue(ana.function, **ana.fn_params)
    tanaka = tanaka_residual(path, fn, part, field_, t_top)
    verdicts = {
        "tent_identity": bool(tent_gap <= tent_tol),
        "occupation_factor_full": occ.matched[-1] == "full",
        "tanaka_small": bool(abs(tanaka) < (ana.tol if ana.tol is not None else 0.05)),
    }
    return _finish("localtime", verdicts, [csvfile], t0, cfg, out_dir)


def cmd_invariance(cfg: dict, out_dir: FsPath, args) -> int:
    t0 = time.perf_counter()
    path_cfg, part_a, part_b = _sections(cfg, "invariance", "path", "partition", "partition_b")
    path = build_path(path_cfg, args.seed)
    seq_a = build_partitions(part_a, path)
    seq_b = build_partitions(part_b, path)
    ana = cfg.get("analysis", AnalysisConfig())
    report = invariance_check(path, seq_a, seq_b, tol=ana.tol,
                              balance_threshold=ana.balance_threshold)
    out = {
        "pairs": [list(p) for p in report.pairs],
        "sup_distances": report.sup_distances.tolist(),
        "tol": report.tol,
        "passed": report.passed,
    }
    io.write_json(out, out_dir / "invariance.json")
    return _finish("invariance", {"invariance": report.passed}, [out_dir / "invariance.json"],
                   t0, cfg, out_dir)


# --- Monte Carlo ------------------------------------------------------------

def _mc_setup(experiment: str, cfg: dict) -> dict:
    """What every seed shares, built once: partitions, the roughness selection,
    the integrand and a path read from file.  A Lebesgue sequence depends on
    the path, so it stays None here and is built per seed."""
    keys = ["partition"]
    if experiment == "invariance" or (experiment == "integrate" and "partition_b" in cfg):
        keys.append("partition_b")
    _sections(cfg, f"mc {experiment}", "path", *keys)
    ana = cfg.get("analysis", AnalysisConfig())
    ctx = {"seqs": {k: None if cfg[k].generator == "lebesgue" else build_partitions(cfg[k])
                    for k in keys}}
    if cfg["path"].file:
        ctx["path"] = io.read_path_binary(cfg["path"].file)
    if experiment == "integrate":
        ctx["fn"] = function_catalogue(ana.function, **ana.fn_params)
    if experiment == "roughness" and ctx["seqs"]["partition"] is not None:
        ctx["selection"] = _dyadic_selection(ctx["seqs"]["partition"], ana.beta)
    return ctx


def _mc_single(experiment: str, seed: int, cfg: dict, ctx: dict) -> dict:
    """One seed: build the path (and any Lebesgue sequence), then run the kernel."""
    path = ctx["path"] if "path" in ctx else build_path(cfg["path"], seed)
    seqs = {k: build_partitions(cfg[k], path) if seq is None else seq
            for k, seq in ctx["seqs"].items()}
    seq_a, seq_b = seqs["partition"], seqs.get("partition_b")
    ana = cfg.get("analysis", AnalysisConfig())
    T = cfg["path"].T
    if experiment == "qv":
        val = float(qv_level(path, seq_a.partitions[-1], [T]).values[-1])
        target = ana.target if ana.target is not None else T
        return {"qv_T": val, "abs_err": abs(val - target)}
    if experiment == "invariance":
        rep = invariance_check(path, seq_a, seq_b, tol=ana.tol,
                               balance_threshold=ana.balance_threshold)
        finest = int(np.argmin(rep.mesh_a))
        return {"sup_distance": float(rep.sup_distances[finest])}
    if experiment == "integrate":
        fn = ctx["fn"]
        out = {"integral_a": follmer_integral(path, fn.f1, seq_a.partitions[-1], T)}
        if seq_b is not None:
            out["integral_b"] = follmer_integral(path, fn.f1, seq_b.partitions[-1], T)
            out["abs_diff"] = abs(out["integral_a"] - out["integral_b"])
        out["residual_sup"] = float(ito_residual(path, fn, seq_a).sup[-1])
        return out
    if "selection" in ctx:
        reference, sel = ctx["selection"]
    else:
        reference, sel = _dyadic_selection(seq_a, ana.beta)
    return {f"S_{n}": roughness_statistic(path, seq_a.level(n), reference.level(l_n)).S
            for n, l_n in zip(sel.level_ids, sel.l)}


def _workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get("PQV_WORKERS")
    if env:
        if not env.isdigit():
            raise ParameterError(f"PQV_WORKERS must be a whole number, got {env!r}")
        return max(1, int(env))
    return min(os.cpu_count() or 1, 8)


def cmd_mc(cfg: dict, out_dir: FsPath, args) -> int:
    t0 = time.perf_counter()
    if "experiment" not in cfg or "seeds" not in cfg:
        raise ParameterError("mc needs 'experiment' and 'seeds' keys")
    experiment = cfg["experiment"]
    seeds = list(cfg["seeds"])
    ctx = _mc_setup(experiment, cfg)

    def run(seed):
        try:
            return seed, _mc_single(experiment, seed, cfg, ctx)
        except Exception as exc:  # name the seed; main prints the message, not a traceback
            raise PQVError(f"seed {seed}: {exc}") from exc

    # numpy's RNG, cumsum and fancy indexing release the GIL, so seeds overlap
    # on threads; map returns them in seed order, the order of the reduction
    n_workers = _workers(args)
    if n_workers == 1 or len(seeds) == 1:
        results = [run(s) for s in seeds]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run, seeds))

    keys = sorted(results[0][1])
    csvfile = out_dir / "mc.csv"
    with open(csvfile, "w") as fh:
        fh.write("seed," + ",".join(keys) + "\n")
        for seed, rec in results:
            fh.write(f"{seed}," + ",".join(io.fmt_float(rec[k]) for k in keys) + "\n")

    ana = cfg.get("analysis", AnalysisConfig())
    tol = ana.tol if ana.tol is not None else 0.05
    columns = {k: np.array([rec[k] for _, rec in results]) for k in keys}
    stats = {f"mean_{k}": float(v.mean()) for k, v in columns.items()}
    stats.update({f"median_{k}": float(np.median(v)) for k, v in columns.items()})
    verdicts = {}
    if experiment == "qv":
        verdicts["mean_abs_err_lt_tol"] = bool(columns["abs_err"].mean() < tol)
    elif experiment == "invariance":
        verdicts["median_sup_lt_tol"] = bool(np.median(columns["sup_distance"]) < tol)
    elif experiment == "integrate":
        if "abs_diff" in columns:
            verdicts["median_diff_lt_tol"] = bool(np.median(columns["abs_diff"]) < tol)
        verdicts["median_residual_lt_tol"] = bool(
            np.median(columns["residual_sup"]) < tol
        )
    elif experiment == "roughness":
        s_cols = sorted(k for k in keys if k.startswith("S_"))
        finest = columns[s_cols[-1]]
        verdicts["final_median_abs_S_lt_tol"] = bool(np.median(np.abs(finest)) < tol)
    io.write_json(stats, out_dir / "mc_stats.json")
    return _finish("mc", verdicts, [csvfile, out_dir / "mc_stats.json"], t0, cfg, out_dir,
                   workers=n_workers)


def cmd_report(args) -> int:
    with open(args.report) as fh:
        doc = json.load(fh)
    print(f"command: {doc.get('command')}  version: {doc.get('version')}")
    ok = True
    for name, verdict in doc.get("verdicts", {}).items():
        print(f"  {name}: {'PASS' if verdict else 'FAIL'}")
        ok &= bool(verdict)
    for table in doc.get("tables", []):
        print(f"  table: {table}")
    return 0 if ok else 2


def _echo(cfg: dict) -> dict:
    return {key: dataclasses.asdict(val) if dataclasses.is_dataclass(val)
            else [val.start, val.stop] if isinstance(val, range) else val
            for key, val in cfg.items()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed JSON config {path}: {exc}") from exc
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pqv",
        description="Quadratic variation, roughness and pathwise calculus pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dispatch = {
        "gen-path": cmd_gen_path,
        "gen-partition": cmd_gen_partition,
        "qv": cmd_qv,
        "roughness": cmd_roughness,
        "integrate": cmd_integrate,
        "localtime": cmd_localtime,
        "invariance": cmd_invariance,
        "mc": cmd_mc,
    }
    for name in dispatch:
        p = sub.add_parser(name)
        p.add_argument("config", help="JSON config file")
        p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override path seed")
        p.add_argument("--workers", type=int, default=None,
                       help="worker count (also PQV_WORKERS)")
    p = sub.add_parser("report")
    p.add_argument("report", help="report.json produced by a previous run")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args)
        cfg = parse_config(_load_config(args.config))
        out_dir = FsPath(args.out_dir if args.out_dir is not None
                         else cfg.get("output", OutputConfig()).dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return dispatch[args.command](cfg, out_dir, args)
    except PQVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
