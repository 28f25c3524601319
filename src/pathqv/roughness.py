"""Cross-product roughness statistics of fine increments grouped by a coarse partition.

The statistic S sums, over each coarse cell, the cross-products of fine
increments falling in that cell.  Per cell this equals (sum of increments)^2
minus (sum of squared increments), so S collapses to the difference between
the QV along the cell-boundary partition and the QV along the fine partition.
That O(N) identity is the production path; the quadratic double loop stays
available as an oracle for small instances.

Cells are delimited by p[k], the first fine index landing in (t_k, t_{k+1}]:
cell k owns the fine increments from s_{p[k]-1} up to s_{p[k+1]-1}, which
tile the fine partition exactly.  The offsets x(t_k) - x(s_{p[k]-1}) between
coarse points and cell boundaries are surfaced separately as boundary terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExhaustionError,
    GroupingError,
    IdentityCheckError,
    ParameterError,
    StatisticalPowerError,
)
from .partitions import Partition, PartitionSequence, _require_same_grid
from .paths import SampledPath, master_index_of
from .quadvar import _level_samples, _qv_values, qv_level


@dataclass(frozen=True)
class GroupingIndex:
    p: np.ndarray                 # first fine index in (t_k, t_{k+1}], per cell
    cell_points: np.ndarray       # fine points per cell, p[k+1] - p[k]
    n_fine: int

    @property
    def boundaries(self) -> np.ndarray:
        """Fine indices delimiting the cells: p - 1 extended by the last fine index."""
        return np.concatenate([self.p - 1, [self.n_fine]])

    @property
    def max_cell_points(self) -> int:
        return int(self.cell_points.max())


def grouping(coarse: Partition, fine: Partition) -> GroupingIndex:
    """Exact p array locating fine points inside coarse cells.

    Requires every coarse cell to contain at least one fine point (fine mesh
    below the coarse min step is sufficient).
    """
    _require_same_grid(coarse, fine)
    start = fine.first_index
    if coarse.first_index != start or coarse.last_index != fine.last_index:
        raise ParameterError("coarse and fine partitions must span the same interval")
    stride = fine.range_stride
    if stride:
        # fine points at or before each coarse point, what
        # searchsorted(fine.indices, coarse.indices, side="right") returns
        p_ext = (coarse.indices - start) // stride + 1
    else:
        p_ext = np.searchsorted(fine.indices, coarse.indices, side="right")
    if np.any(np.diff(p_ext) < 1):
        empty = int(np.argmax(np.diff(p_ext) < 1))
        raise GroupingError(
            f"coarse cell {empty} contains no fine point "
            f"(fine mesh {fine.mesh:g} vs coarse min step {coarse.min_step:g})"
        )
    p = p_ext[:-1]
    # sandwich s_{p[k]-1} <= t_k < s_{p[k]}, exact on integer indices
    assert np.all(fine.indices_at(p - 1) <= coarse.indices[:-1])
    assert np.all(coarse.indices[:-1] < fine.indices_at(p))
    return GroupingIndex(p=p, cell_points=np.diff(p_ext), n_fine=fine.n_intervals)


@dataclass(frozen=True)
class RoughnessStat:
    coarse_level: int
    fine_level: int
    S: float
    n_cells: int
    max_cell_points: int
    coarse_mesh: float
    coarse_ratio: float
    fine_mesh: float
    horizon: float
    boundary_max: float           # max offset between coarse points and cell boundaries
    boundary_sq_sum: float
    per_cell_max: float
    decomposition_gap: float      # |per-cell S - (QV grouped - QV fine)|
    profile_times: np.ndarray | None = None
    profile: np.ndarray | None = None


def cell_partition(fine: Partition, gi: GroupingIndex) -> Partition:
    """The coarse-through-fine partition made of the cell boundary points."""
    return Partition(fine.indices_at(gi.boundaries), fine.master_level, fine.horizon)


def roughness_statistic(
    path: SampledPath,
    coarse: Partition,
    fine: Partition,
    t: float | None = None,
    profile_times=None,
    coarse_level: int = -1,
    fine_level: int = -1,
) -> RoughnessStat:
    """Cross-product sum of fine increments grouped along the coarse cells.

    Computed per cell as (cell increment)^2 minus the in-cell squared
    increments (inner products in the vector case).  When profile_times is
    given the running statistic S(t) is attached as well.
    """
    _require_same_grid(path, fine)
    gi = grouping(coarse, fine)
    b = gi.boundaries
    x = path.samples
    e = (fine.last_index if t is None
         else int(master_index_of([t], path.master_level, path.horizon)[0]))

    # production path: per-cell identity on increments truncated at t
    xf, xe, inside, _, base = _level_samples(x, fine, np.array([e]))
    if e < fine.last_index:
        xf = xf.copy()                                               # xf may be a view of x
        xf[int(base[0] + inside[0]):] = xe[0]                        # x at min(index, e)
    dxf = np.diff(xf, axis=0)                                        # (F, d)
    if path.dim == 1:
        q = dxf[:, 0]
        np.multiply(q, q, out=q)                                     # dxf is ours: square in place
    else:
        q = np.einsum("ij,ij->i", dxf, dxf)
    q_total = float(q.sum())
    qcells = np.add.reduceat(q, b[:-1])
    c = xf[b[1:]] - xf[b[:-1]]
    per_cell = np.einsum("ij,ij->i", c, c) - qcells
    s_val = float(per_cell.sum())

    # grouped side re-derived through the QV kernel, asserted on every run
    cellp = cell_partition(fine, gi)
    s_qv = _trace_qv_at(path, cellp, e) - q_total
    gap = abs(s_val - s_qv)
    scale = max(1.0, q_total)
    if gap > 1e-9 * scale:
        raise IdentityCheckError(
            f"per-cell roughness sum {s_val:g} disagrees with the QV "
            f"decomposition {s_qv:g} beyond rounding"
        )

    bound = x[coarse.indices[:-1]] - x[fine.indices_at(b[:-1])]
    bnorm = np.linalg.norm(bound, axis=1)

    prof_t = prof = None
    if profile_times is not None:
        fine_curve = qv_level(path, fine, profile_times)
        cell_curve = qv_level(path, cellp, profile_times)
        prof_t = fine_curve.eval_times
        prof = cell_curve.trace() - fine_curve.trace()

    return RoughnessStat(
        coarse_level=int(coarse_level),
        fine_level=int(fine_level),
        S=s_val,
        n_cells=coarse.n_intervals,
        max_cell_points=gi.max_cell_points,
        coarse_mesh=coarse.mesh,
        coarse_ratio=coarse.ratio,
        fine_mesh=fine.mesh,
        horizon=path.horizon,
        boundary_max=float(bnorm.max()),
        boundary_sq_sum=float((bnorm**2).sum()),
        per_cell_max=float(np.abs(per_cell).max()),
        decomposition_gap=gap,
        profile_times=prof_t,
        profile=prof,
    )


def _trace_qv_at(path: SampledPath, part: Partition, eval_idx: int) -> float:
    v = _qv_values(path, part, np.array([eval_idx], dtype=np.int64))
    return float(v[0]) if v.ndim == 1 else float(np.trace(v[0]))


def roughness_double_loop(
    path: SampledPath, coarse: Partition, fine: Partition, t: float | None = None
) -> float:
    """Literal double-loop cross-product sum; oracle for small instances."""
    _require_same_grid(path, fine)
    gi = grouping(coarse, fine)
    b = gi.boundaries
    x = path.samples
    fidx = fine.indices
    if t is None:
        e = 1 << path.master_level
    else:
        e = int(master_index_of([t], path.master_level, path.horizon)[0])
    # truncated fine increments
    left = np.minimum(fidx[:-1], e)
    right = np.minimum(fidx[1:], e)
    dxf = x[right] - x[left]
    total = 0.0
    for k in range(len(b) - 1):
        for i in range(b[k], b[k + 1]):
            for j in range(b[k], b[k + 1]):
                if i != j:
                    total += float(np.dot(dxf[i], dxf[j]))
    return total


@dataclass(frozen=True)
class CoarseningSelection:
    beta: float
    level_ids: tuple
    l: tuple                      # selected fine (dyadic) level per source level
    ratio: np.ndarray             # |T^{l_n}|^beta / |pi^n|
    sandwich_ok: tuple            # defining inequalities per source level


def select_dyadic_subsequence(
    seq: PartitionSequence, beta: float, dyadic: PartitionSequence
) -> CoarseningSelection:
    """Select fine reference levels l_n with |T^{l_n}|^beta at or below |pi^n|.

    One coarsening rule: l_n is the first reference level at or after n with
    |T^{l_n}|^beta <= |pi^n|.  The defining sandwich
    |T^{l_n}| <= |pi^n|^(1/beta) < |T^{l_n - 1}| is recorded per level.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie in (0,1), got {beta}")
    dy_ids = list(dyadic.level_ids)
    dy_log_mesh = {n: math.log2(dyadic.level(n).mesh) for n in dy_ids}

    sel, sandwich, ratio = [], [], []
    for n in seq.level_ids:
        lm = math.log2(seq.level(n).mesh)
        cands = [l for l in dy_ids if l >= n]
        l_n = next((l for l in cands if beta * dy_log_mesh[l] <= lm), None)
        if l_n is None:
            raise ExhaustionError(
                f"no reference level l >= {n} with mesh^beta <= {2.0**lm:g} within "
                f"available levels <= {dy_ids[-1]}; extend the reference sequence",
                level=n,
            )
        sel.append(l_n)
        earlier = [l for l in cands if l < l_n]
        ok = beta * dy_log_mesh[l_n] <= lm and all(
            beta * dy_log_mesh[l] > lm for l in earlier
        )
        if earlier:
            # right side of the sandwich: |pi^n|^(1/beta) < |T^{l_n - 1}|
            prev = max(earlier)
            ok = ok and lm / beta < dy_log_mesh[prev]
        sandwich.append(bool(ok))
        ratio.append(2.0 ** (beta * dy_log_mesh[l_n] - lm))
    return CoarseningSelection(
        beta=float(beta),
        level_ids=seq.level_ids,
        l=tuple(sel),
        ratio=np.asarray(ratio),
        sandwich_ok=tuple(sandwich),
    )


@dataclass(frozen=True)
class AveragingReport:
    kappa: float
    alpha_hat: float
    kappa_ok: bool                # kappa > 1 / (2 alpha_hat)
    level_ids: tuple
    l: tuple                      # selected subsequence level per source level
    sums: np.ndarray              # grouped cross-product sum per level
    holder_bound: np.ndarray      # N(sigma^n) * |sigma^{l_n}|^(2 alpha_hat)


def averaging_statistic(
    path: SampledPath,
    seq: PartitionSequence,
    kappa: float,
    alpha_hat: float,
    big_o_const: float = 1.0,
    levels=None,
) -> AveragingReport:
    """Cross-product sums along a power-law-mesh subsequence of one sequence.

    For each evaluated level n the subsequence level l_n is the first level
    of seq whose mesh falls below big_o_const * mesh_n^kappa; the grouped
    cross-product sum and the Hoelder remainder bound
    N(sigma^n) |sigma^{l_n}|^(2 alpha) are reported per level.  `levels`
    restricts the evaluated coarse levels (the sequence must extend deep
    enough to supply their subsequence levels).
    """
    kappa_ok = kappa > 1.0 / (2.0 * alpha_hat)
    if not kappa_ok:
        warnings.warn(
            f"kappa={kappa:g} does not exceed 1/(2 alpha_hat)={1/(2*alpha_hat):g}; "
            "the averaging sum need not vanish"
        )
    ids = [int(n) for n in levels] if levels is not None else list(seq.level_ids)
    sel, sums, bound = [], [], []
    for n in ids:
        target = big_o_const * seq.level(n).mesh ** kappa
        l_n = next(
            (l for l in seq.level_ids if l >= n and seq.level(l).mesh <= target), None
        )
        if l_n is None:
            raise ExhaustionError(
                f"no level l >= {n} with mesh <= {target:g} within available "
                f"levels <= {ids[-1]}",
                level=n,
            )
        sel.append(l_n)
        stat = roughness_statistic(path, seq.level(n), seq.level(l_n))
        sums.append(stat.S)
        bound.append(seq.level(n).n_intervals * seq.level(l_n).mesh ** (2 * alpha_hat))
    return AveragingReport(
        kappa=float(kappa),
        alpha_hat=float(alpha_hat),
        kappa_ok=bool(kappa_ok),
        level_ids=tuple(ids),
        l=tuple(sel),
        sums=np.asarray(sums),
        holder_bound=np.asarray(bound),
    )


@dataclass(frozen=True)
class TailReport:
    levels: tuple
    deltas: np.ndarray
    exceedance: np.ndarray        # (n_levels, n_deltas) empirical frequencies
    decay_slope: np.ndarray       # LS slope of log freq vs delta/sqrt(mesh)
    var_emp: np.ndarray
    var_budget: np.ndarray        # 2 c T mesh (1 + margin)
    var_ok: np.ndarray
    n_seeds: np.ndarray


def hw_tail_check(
    seq: PartitionSequence, samples: dict, delta_grid, min_seeds: int = 100,
    var_margin: float = 0.5,
) -> TailReport:
    """Empirical tail of |S| per level against a sub-Gaussian decay profile.

    ``samples`` maps a coarse level of ``seq`` to its statistic S over the
    seeds.  Per level this reports exceedance frequencies on delta_grid, fits
    the decay of log frequency against delta/sqrt(mesh), and checks the
    empirical variance against the 2 c T mesh budget within the given
    margin; the mesh, the ratio c and the horizon T are read from ``seq``.
    """
    deltas = np.asarray(delta_grid, dtype=np.float64)
    levels = tuple(sorted(samples))
    exc, slopes, var_e, var_b, var_ok, counts = [], [], [], [], [], []
    for lev in levels:
        s = np.asarray(samples[lev], dtype=np.float64)
        if len(s) < min_seeds:
            raise StatisticalPowerError(
                f"level {lev} has {len(s)} samples; need >= {min_seeds}"
            )
        coarse = seq.level(lev)
        mesh = coarse.mesh
        freq = np.array([(np.abs(s) > d).mean() for d in deltas])
        pos = freq > 0
        if pos.sum() >= 2:
            slope = float(np.polyfit(deltas[pos] / math.sqrt(mesh), np.log(freq[pos]), 1)[0])
        else:
            slope = float("nan")
        budget = 2.0 * coarse.ratio * seq.horizon * mesh * (1.0 + var_margin)
        v = float(s.var(ddof=1))
        exc.append(freq)
        slopes.append(slope)
        var_e.append(v)
        var_b.append(budget)
        var_ok.append(v <= budget)
        counts.append(len(s))
    return TailReport(
        levels=levels,
        deltas=deltas,
        exceedance=np.asarray(exc),
        decay_slope=np.asarray(slopes),
        var_emp=np.asarray(var_e),
        var_budget=np.asarray(var_b),
        var_ok=np.asarray(var_ok),
        n_seeds=np.asarray(counts),
    )
