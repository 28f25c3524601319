"""Print one SHA-256 per kernel family over a fixed input matrix.

A change that must keep every output byte for byte runs this script on the
parent commit and on the change and compares the lines:

    PYTHONPATH=src python scripts/kernel_digest.py
    PYTHONPATH=<parent checkout>/src python scripts/kernel_digest.py

The script imports only ``pathqv``, so the second line hashes the parent's
kernels and writers over this script's matrix, even where the parent's own
copy of the script knows fewer families.

The matrix: master levels M = 8, 11, 14; Brownian, mixed (H = 0.75) and fBm
(H = 0.3) paths, plus a 3-d Brownian path for the matrix QV; dyadic and
random balanced sequences and both stopped to [0.3, 0.7], and dyadic level
6 stopped to [5/64, 60/64] and held as a range that starts after 0; the
default evaluation grid, [0.5, 1.0] and random on-grid times; every catalogue
function, `square` (f1(x(0)) = 0 on paths from 0) included.  The roughness
statistics are truncated at no t, at t = 1/16 (before the first point of every
stopped level), at 0.5 and one master step before T.  Invariance
checks take a balance threshold of 64, so the stopped random balanced
sequence, whose end cells are cut short, is compared too, and so is the
stopped range against the stopped dyadic sequence.  The ``roughness`` family
also hashes each coarsening selection (``select_dyadic_subsequence`` against
the dyadic reference from the sequence's first level to M) at beta = 0.3,
0.5 and 0.9, over every sequence of the matrix and over dyadic and 3-adic
sequences from level 0: its level ids, selected levels, ratio bytes and
whether every sandwich inequality holds.  The ``ito`` family also
hashes ``follmer_path`` for every path (the 3-d one included), every level
of every sequence and every catalogue function, ``follmer_integral`` on the
same matrix at t = 1/16 (before the first point of every stopped level), at
a partition point, one master step inside the interval after it and at T,
and ``tanaka_residual`` at the first and last row of every local-time
field.  The ``localtime`` family hashes each field on the default 256-point
u grid, on the benchmark's 512-point one and on a 1000-point grid summed step
by step, uniform but not a linspace bit for bit; and the fields of a linear
path whose values lie on or within rounding of the nodes of such a grid.
Each digest hashes the dtype, shape and bytes of every output array
and the repr of every other field, so a flipped signed zero changes it.  A library error is hashed by class and
message, and the run goes on.  The ``io`` family hashes the exact text of
every CSV writer, each written to a ``StringIO``: the QV CSV of each
sequence's ``qv_level`` curves per path and of its 3-d ``qv_matrix`` curves,
and the path, local-time, residual, roughness and partition CSVs of the
matrix's outputs.  The ``mc`` family hashes the records of the Monte Carlo
engine (``pathqv.cli.run_seeds``, one worker, three seeds) on each path kind
at each M: ``qv`` on dyadic and Lebesgue levels, ``roughness``, ``integrate``
with and without ``partition_b``, and ``invariance`` against random balanced
levels, against dyadic levels with no partner for the finest A level (so the
record reads a coarser pair), against Lebesgue levels, unbalanced ones among
them, and against levels with no admissible pair.  Stdlib plus numpy.
"""

from __future__ import annotations

import hashlib
import io
import sys
from dataclasses import fields, is_dataclass

import numpy as np

import pathqv as pq
from pathqv import io as pio
from pathqv.calculus import default_u_grid
from pathqv.cli import parse_config, run_seeds

FAMILIES = ("qv", "invariance", "roughness", "localtime", "ito", "isometry", "io", "mc")
FUNCTIONS = ("square", "cubic", "sin", "exp", "identity", "abs_smooth")


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (float, np.floating)):
        h.update(np.float64(obj).tobytes())
    else:
        h.update(repr(obj).encode())


def _record(h, fn, *args, **kwargs):
    """Hash fn(*args, **kwargs) and return it, or hash the library error it raises."""
    try:
        out = fn(*args, **kwargs)
    except pq.PQVError as exc:
        _feed(h, (type(exc).__name__, str(exc)))
        return None
    _feed(h, out)
    return out


def _text(h, writer, obj) -> None:
    """Hash the text that writer(obj, stream) writes."""
    buf = io.StringIO()
    writer(obj, buf)
    h.update(buf.getvalue().encode())


def _paths(M: int) -> list:
    return [pq.gen_brownian(M, M, 1.0), pq.gen_mixed(M, M, 1.0, 0.75, 0.5),
            pq.gen_fbm(M, M, 1.0, 0.3)]


def _sequences(M: int) -> list:
    levels = range(max(2, M - 6), M - 2)
    dyadic = pq.gen_dyadic(levels, M, 1.0)
    balanced = pq.gen_random_balanced(7, levels, M, 1.0, 3.0)
    step = 1 << (M - 6)  # dyadic level 6 stopped to [5/64, 60/64], still held as a range
    stopped_range = pq.PartitionSequence(
        (pq.Partition(range(5 * step, 60 * step + 1, step), M, 1.0),), (6,))
    return [dyadic, balanced,
            pq.stop_partition(dyadic, (0.3, 0.7)), pq.stop_partition(balanced, (0.3, 0.7)),
            stopped_range]


def _eval_grids(M: int) -> list:
    rng = np.random.default_rng(M)
    on_grid = np.sort(rng.integers(0, (1 << M) + 1, 16)) / (1 << M)
    return [None, [0.5, 1.0], on_grid]


def _selection(seq, beta: float) -> tuple:
    """What a coarsening selection decides: level ids, l_n, ratio and the sandwich verdict."""
    M = seq.master_level
    reference = pq.gen_dyadic(range(min(seq.level_ids), M + 1), M, 1.0)
    sel = pq.select_dyadic_subsequence(seq, beta, reference)
    return sel.level_ids, sel.l, sel.ratio, all(sel.sandwich_ok)


def _uniform_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """lo plus n - 1 equal steps summed one by one: uniform to rounding, but not
    np.linspace(lo, hi, n) bit for bit (nor lo + step * arange(n), which is)."""
    return lo + np.concatenate([[0.0], np.cumsum(np.full(n - 1, (hi - lo) / (n - 1)))])


def _extra_u_grids(path) -> list:
    """The benchmark's 512-point linspace, and a summed 1000-point grid."""
    lin = default_u_grid(path, n_u=1000)
    return [default_u_grid(path, n_u=512), _uniform_grid(lin[0], lin[-1], 1000)]


def _integral_times(part) -> list:
    """Before the first point of every stopped level, at a point, inside an interval, at T."""
    mid = float(part.indices_at(part.n_intervals // 2) * part.master_step)
    return [1 / 16, mid, mid + part.master_step, part.horizon]


def _mc_configs(M: int) -> list:
    """(experiment, config) pairs of the Monte Carlo engine on each path kind at M."""
    dyadic = {"generator": "dyadic", "levels": [2, M - 2], "M": M}
    balanced = {"generator": "random_balanced", "levels": [M - 6, M - 2], "M": M, "seed": 7,
                "c_target": 3.0}
    coarse = {"generator": "dyadic", "levels": [2, M - 5], "M": M}  # no partner for M - 2
    finest = {"generator": "dyadic", "levels": [M - 3, M - 2], "M": M}
    rough = {"generator": "random_balanced", "levels": [2, 4], "M": M, "seed": 7,
             "c_target": 3.0}
    paths = [{"kind": "brownian", "M": M}, {"kind": "fbm", "M": M, "H": 0.3},
             {"kind": "mixed", "M": M, "H": 0.75, "delta": 0.5}]
    runs = [("qv", {"partition": dyadic}),
            ("qv", {"partition": {"generator": "lebesgue", "lebesgue_n": 2, "M": M}}),
            ("roughness", {"partition": rough, "analysis": {"beta": 0.5}}),
            ("integrate", {"partition": dyadic, "analysis": {"function": "sin"}}),
            ("integrate", {"partition": dyadic, "partition_b": balanced,
                           "analysis": {"function": "cubic"}}),
            ("invariance", {"partition": dyadic, "partition_b": balanced}),
            ("invariance", {"partition": dyadic, "partition_b": coarse}),
            ("invariance", {"partition": finest, "partition_b": {**coarse, "levels": [2, 3]}})]
    for n, threshold in ((1, 8.0), (2, 1e3)):  # unbalanced Lebesgue levels refused at 8
        runs.append(("invariance", {
            "partition": dyadic, "partition_b": {"generator": "lebesgue", "lebesgue_n": n, "M": M},
            "analysis": {"balance_threshold": threshold}}))
    return [(experiment, dict(doc, path=path, experiment=experiment, seeds=[M, M + 3]))
            for path in paths for experiment, doc in runs]


def _mc_records(experiment: str, doc: dict) -> list:
    """run_seeds on one worker, each record as its items in key order."""
    cfg = parse_config(doc)
    return [(seed, sorted(rec.items())) for seed, rec in run_seeds(experiment, cfg, cfg["seeds"])]


def digests(levels=(8, 11, 14)) -> dict:
    """SHA-256 hex digest per kernel family over the matrix at the given M."""
    hs = {name: hashlib.sha256() for name in FAMILIES}
    fns = [pq.function_catalogue(name) for name in FUNCTIONS]
    for M in levels:
        paths, seqs, grids = _paths(M), _sequences(M), _eval_grids(M)
        w3 = pq.gen_brownian(M + 1, M, 1.0, d=3)
        fine = pq.gen_dyadic([M - 1], M, 1.0)
        fine_of = [fine, fine, pq.stop_partition(fine, (0.3, 0.7)),
                   pq.stop_partition(fine, (0.3, 0.7)),
                   pq.stop_partition(fine, (5 / 64, 60 / 64))]
        for path in paths + [w3]:
            _text(hs["io"], pio.write_path_csv, path)
        for seq in seqs:
            _text(hs["io"], pio.write_partition_csv, seq)
        for grid in grids:
            for seq in seqs:
                # per path its qv_level curves, then the qv_matrix curves of w3
                tables = [[] for _ in range(len(paths) + 2)]
                for n, part in zip(seq.level_ids, seq):
                    for path, table in zip(paths + [w3], tables):
                        table.append((n, _record(hs["qv"], pq.qv_level, path, part, grid)))
                    tables[-1].append((n, _record(hs["qv"], pq.qv_matrix, w3, part, grid)))
                for table in tables:
                    _text(hs["io"], pio.write_qv_csv,
                          [(n, curve) for n, curve in table if curve is not None])
                for path in paths + [w3]:
                    _record(hs["qv"], pq.qv_limit_diagnostic, path, seq, grid)
            for a, b in ((0, 1), (1, 0), (2, 3), (0, 2), (4, 2)):
                for path in paths + [w3]:
                    _record(hs["invariance"], pq.invariance_check, path, seqs[a], seqs[b],
                            grid, balance_threshold=64.0)
        from_zero = [pq.gen_dyadic([0], M, 1.0), pq.gen_dyadic(range(4), M, 1.0),
                     pq.gen_kadic(3, [0], M, 1.0), pq.gen_kadic(3, range(4), M, 1.0)]
        for seq in seqs + from_zero:
            for beta in (0.3, 0.5, 0.9):
                _record(hs["roughness"], _selection, seq, beta)
        for path in paths:
            for seq, ref in zip(seqs, fine_of):
                records = []
                for n, coarse in zip(seq.level_ids, seq):
                    for t in (None, 1 / 16, 0.5, 1 - 2.0**-M):
                        for grid in grids[1:]:
                            stat = _record(hs["roughness"], pq.roughness_statistic, path,
                                           coarse, ref.partitions[0], t, grid)
                            if stat is not None:
                                records.append((n, path.meta.seed, stat))
                _text(hs["io"], pio.write_roughness_csv, records)
                u = default_u_grid(path, n_u=256)
                for part in seq:
                    for grid in grids:
                        field = pq.local_time_discrete(path, part, grid, u)
                        _feed(hs["localtime"], field)
                        _text(hs["io"], pio.write_localtime_csv, field)
                        _record(hs["localtime"], pq.occupation_check, field, path, part,
                                [(u[32], u[128]), (u[128], u[224])])
                        for fn in fns:
                            for t in (field.t_grid[0], field.t_grid[-1]):
                                _record(hs["ito"], pq.tanaka_residual, path, fn, part,
                                        field, float(t))
                for u in _extra_u_grids(path):
                    for part in seq:
                        for grid in grids:
                            _record(hs["localtime"], pq.local_time_discrete, path, part, grid, u)
                qv = pq.qv_level(path, seq.partitions[-1])
                for fn in fns:
                    for grid in grids:
                        for curve in (None, qv):
                            residual = _record(hs["ito"], pq.ito_residual, path, fn, seq,
                                               curve, grid)
                            if residual is not None:
                                _text(hs["io"], pio.write_residual_csv, residual)
                            _record(hs["isometry"], pq.isometry_check, path, fn, seq, curve,
                                    grid)
        # values j / 2^M on or within rounding of the nodes k / 384 of a summed grid
        line = pq.gen_deterministic("linear", {"slope": 1.0}, M, 1.0)
        for part in seqs[0]:
            for grid in grids:
                _record(hs["localtime"], pq.local_time_discrete, line, part, grid,
                        _uniform_grid(0.0, 1.0 + 1 / 384, 386))
        for experiment, doc in _mc_configs(M):
            _record(hs["mc"], _mc_records, experiment, doc)
        for path in paths + [w3]:
            for seq in seqs:
                for part in seq:
                    for fn in fns:
                        _record(hs["ito"], pq.follmer_path, path, fn.f1, part)
                        for t in _integral_times(part):
                            _record(hs["ito"], pq.follmer_integral, path, fn.f1, part, t)
    return {name: h.hexdigest() for name, h in hs.items()}


def format_digests(digests_by_family: dict) -> str:
    """One line per family: its name, then its digest."""
    return "\n".join(f"{name:<11}{digest}" for name, digest in digests_by_family.items())


def main() -> int:
    print(format_digests(digests()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
