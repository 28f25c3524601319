"""Partition sequences on the master grid and their balance diagnostics.

A partition is a strictly increasing set of master-grid indices.  Generated
partitions of the full horizon start at 0 and end at 2^M; stopped partitions
(restrictions to a sub-interval) keep the same master grid but span less.
Asymptotic statements (balance, comparability) are certified only as
finite-level proxies over the tested levels; the reports say which levels were
tested and never claim the true limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ExhaustionError,
    GridMismatchError,
    IdentityCheckError,
    ParameterError,
    ResolutionError,
)
from .paths import SampledPath, derive_subseed, master_index_of


def snap_to_grid(frac_idx) -> np.ndarray:
    """Nearest master-grid index, ties resolved to the lower index."""
    return np.ceil(np.asarray(frac_idx, dtype=np.float64) - 0.5).astype(np.int64)


def _require_same_grid(a, b) -> None:
    """Refuse two paths, partitions or sequences on different master grids.

    Indices of one grid address other times on another, so every kernel that
    reads a path at partition indices checks the level M and the horizon T.
    """
    if a.master_level != b.master_level or a.horizon != b.horizon:
        raise GridMismatchError(
            f"master grids differ: 2^{a.master_level} steps on [0, {a.horizon:g}] "
            f"against 2^{b.master_level} steps on [0, {b.horizon:g}]"
        )


@dataclass(frozen=True)
class Partition:
    indices: np.ndarray
    master_level: int
    horizon: float

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size < 2:
            raise ParameterError("a partition needs at least 2 indices")
        if np.any(np.diff(idx) <= 0):
            raise ParameterError("partition indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] > (1 << self.master_level):
            raise ParameterError("partition indices outside the master grid")
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def n_intervals(self) -> int:
        return len(self.indices) - 1

    @property
    def master_step(self) -> float:
        return self.horizon / (1 << self.master_level)

    @cached_property
    def times(self) -> np.ndarray:
        t = self.indices * self.master_step
        t.setflags(write=False)
        return t

    @cached_property
    def index_steps(self) -> np.ndarray:
        d = np.diff(self.indices)
        d.setflags(write=False)
        return d

    @property
    def mesh(self) -> float:
        return float(self.index_steps.max() * self.master_step)

    @property
    def min_step(self) -> float:
        return float(self.index_steps.min() * self.master_step)

    @property
    def ratio(self) -> float:
        """Largest over smallest interval, the per-level balance ratio."""
        return float(self.index_steps.max() / self.index_steps.min())

    @cached_property
    def uniform_stride(self) -> int:
        """Common index step when the partition is uniform, else 0."""
        s = self.index_steps
        return int(s[0]) if bool(np.all(s == s[0])) else 0

    @property
    def span(self) -> float:
        return float((self.indices[-1] - self.indices[0]) * self.master_step)

    def spans_full_horizon(self) -> bool:
        return self.indices[0] == 0 and self.indices[-1] == (1 << self.master_level)


@dataclass(frozen=True)
class PartitionSequence:
    partitions: tuple
    level_ids: tuple
    generator_meta: str = ""
    generator_params: dict = field(default_factory=dict)

    def __post_init__(self):
        parts = tuple(self.partitions)
        ids = tuple(int(n) for n in self.level_ids)
        if len(parts) != len(ids):
            raise ParameterError("partitions and level_ids must have equal length")
        if len(parts) == 0:
            raise ParameterError("empty partition sequence")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ParameterError("level ids must be strictly increasing")
        m0, t0 = parts[0].master_level, parts[0].horizon
        for p in parts:
            if p.master_level != m0 or p.horizon != t0:
                raise ParameterError("all levels must share one master grid")
        object.__setattr__(self, "partitions", parts)
        object.__setattr__(self, "level_ids", ids)

    def __len__(self):
        return len(self.partitions)

    def __iter__(self):
        return iter(self.partitions)

    @property
    def master_level(self) -> int:
        return self.partitions[0].master_level

    @property
    def horizon(self) -> float:
        return self.partitions[0].horizon

    def level(self, n: int) -> Partition:
        try:
            return self.partitions[self.level_ids.index(n)]
        except ValueError:
            raise ParameterError(f"no level {n} in sequence (has {self.level_ids})") from None

    def meshes(self) -> np.ndarray:
        return np.array([p.mesh for p in self.partitions])

    def min_steps(self) -> np.ndarray:
        return np.array([p.min_step for p in self.partitions])

    def counts(self) -> np.ndarray:
        return np.array([p.n_intervals for p in self.partitions])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_kadic(k: int, levels, M: int, T: float) -> PartitionSequence:
    """k-adic partition sequence; level n has k^n intervals.

    k = 2 is exact on the master grid (requires n <= M).  For other k the
    points j*T/k^n are snapped to the nearest master index, which requires
    2^M >= 4*k^n so the snapping cannot collide.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    level_ids = [int(n) for n in levels]
    if not level_ids:
        raise ParameterError("empty level range")
    if any(n < 0 for n in level_ids):
        raise ParameterError("levels must be non-negative")
    parts = []
    for n in level_ids:
        if k == 2:
            if n > M:
                raise ResolutionError(f"dyadic level {n} exceeds master level {M}")
            idx = np.arange((1 << n) + 1, dtype=np.int64) * (1 << (M - n))
        else:
            cells = k**n
            if (1 << M) < 4 * cells:
                raise ResolutionError(
                    f"k-adic level {n} needs 2^M >= 4*k^n = {4 * cells}; raise M"
                )
            frac = np.arange(cells + 1, dtype=np.float64) * ((1 << M) / cells)
            idx = snap_to_grid(frac)
            idx[0], idx[-1] = 0, 1 << M
            if np.any(np.diff(idx) <= 0):
                raise ResolutionError(
                    f"snapping collision at k-adic level {n}; raise M"
                )
        parts.append(Partition(idx, M, T))
    return PartitionSequence(tuple(parts), tuple(level_ids), f"kadic(k={k})",
                             {"k": k})


def gen_dyadic(levels, M: int, T: float) -> PartitionSequence:
    return gen_kadic(2, levels, M, T)


#: First window width of the hitting-time search in gen_lebesgue.
_GALLOP_START = 64


def gen_lebesgue(path: SampledPath, n: int) -> Partition:
    """Partition of time by successive hittings of a spatial grid of width 2^-n.

    Each new point is the first grid time at which the path has moved at
    least 2^-n from its value at the previous point; the final point is
    forced to T.
    """
    x = path.scalar()
    eps = 2.0**-n
    osc = float(np.abs(np.diff(x)).max()) if len(x) > 1 else 0.0
    if osc > 0 and eps <= 2.0 * osc:
        raise ParameterError(
            f"level width 2^-{n}={eps:g} must exceed twice the max one-step "
            f"oscillation {osc:g}; lower n or raise M"
        )
    hits = [0]
    cur = 0
    last = len(x) - 1
    # galloping search: scan a window after the last hit, doubling it on each
    # miss; the comparisons are those of a full rescan, in the same order, so
    # the hits are too, at a cost linear in the total gap length
    lo, width = 1, _GALLOP_START
    while lo <= last:
        hi = min(lo + width, last + 1)
        exceed = np.abs(x[lo:hi] - x[cur]) >= eps
        if exceed.any():
            cur = lo + int(np.argmax(exceed))
            hits.append(cur)
            lo, width = cur + 1, _GALLOP_START
        else:
            lo, width = hi, 2 * width
    if len(hits) < 2:
        warnings.warn("no hitting times found; returning the degenerate partition {0, T}")
        hits = [0]
    if hits[-1] != last:
        hits.append(last)
    return Partition(np.asarray(hits, dtype=np.int64), path.master_level, path.horizon)


def gen_random_balanced(
    seed: int, levels, M: int, T: float, c_target: float = 1.0
) -> PartitionSequence:
    """Random partition sequence with balance ratio <= c_target before snapping.

    Level n has 2^n intervals whose lengths are proportional to i.i.d.
    uniform draws on [1, c_target], so the largest/smallest ratio is bounded
    by c_target by construction; boundaries are then snapped to the master
    grid.  With this level schedule (log n)^2 * mesh decreases from n = 3 on,
    which is the step-size condition the Brownian Monte Carlo checks rely on.
    """
    if c_target < 1.0:
        raise ParameterError(f"c_target must be >= 1, got {c_target}")
    level_ids = [int(n) for n in levels]
    if not level_ids:
        raise ParameterError("empty level range")
    parts = []
    for n in level_ids:
        cells = 1 << n
        if cells > (1 << max(M - 2, 0)):
            raise ResolutionError(
                f"level {n} needs 2^n <= 2^(M-2); raise M above {n + 2}"
            )
        rng = np.random.default_rng(derive_subseed(seed, f"rb-{n}"))
        u = rng.uniform(1.0, c_target, cells) if c_target > 1.0 else np.ones(cells)
        bounds = np.concatenate([[0.0], np.cumsum(u)]) / u.sum()
        idx = snap_to_grid(bounds * (1 << M))
        idx[0], idx[-1] = 0, 1 << M
        if np.any(np.diff(idx) <= 0):
            raise ResolutionError(f"snapping collision at level {n}; raise M")
        parts.append(Partition(idx, M, T))
    return PartitionSequence(
        tuple(parts), tuple(level_ids),
        f"random_balanced(seed={seed}, c={c_target})",
        {"seed": seed, "c_target": c_target},
    )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalanceReport:
    level_ids: tuple
    ratios: np.ndarray            # |pi^n| / min-step per level
    c_hat: float                  # max ratio over tested levels
    threshold: float
    balanced: bool                # c_hat <= threshold, at tested levels only
    count_min: np.ndarray         # N(pi^n) * min-step
    count_mesh: np.ndarray        # N(pi^n) * mesh
    sandwich_exact: bool          # N*min <= span <= N*mesh at every level
    window_h: float
    window_ratios: np.ndarray     # sup/inf window counts at lag h per level
    growth_counts: np.ndarray     # N(pi^{n+1}) / N(pi^n)
    growth_mesh: np.ndarray       # |pi^n| / |pi^{n+1}|
    growth_min: np.ndarray        # min^n / min^{n+1}


def _window_count_ratio(part: Partition, h: float, n_probe: int) -> float:
    # counts partition points in half-open windows [t, t+h) over a probe grid;
    # the half-open convention keeps dyadic windows on dyadic partitions exact
    t0 = part.times[0]
    span = part.span
    probes = t0 + np.linspace(0.0, span - h, n_probe)
    lo = np.searchsorted(part.times, probes, side="left")
    hi = np.searchsorted(part.times, probes + h, side="left")
    counts = hi - lo
    cmin = counts.min()
    if cmin == 0:
        return float("inf")
    return float(counts.max() / cmin)


def balance_report(
    seq: PartitionSequence, h: float, threshold: float = 8.0, n_probe: int = 129
) -> BalanceReport:
    """Per-level balance diagnostics; verdicts are finite-level proxies."""
    if len(seq) < 2:
        raise ParameterError("balance report needs at least 2 levels")
    if not 0.0 < h <= seq.horizon:
        raise ParameterError(f"window h must lie in (0, T], got {h}")
    ratios = np.array([p.ratio for p in seq])
    counts = seq.counts().astype(np.float64)
    count_min = counts * seq.min_steps()
    count_mesh = counts * seq.meshes()
    # exact integer check of N*min <= span <= N*mesh
    sandwich = all(
        p.n_intervals * p.index_steps.min()
        <= int(p.indices[-1] - p.indices[0])
        <= p.n_intervals * p.index_steps.max()
        for p in seq
    )
    window = np.array([_window_count_ratio(p, h, n_probe) for p in seq])
    growth_counts = counts[1:] / counts[:-1]
    meshes = seq.meshes()
    mins = seq.min_steps()
    return BalanceReport(
        level_ids=seq.level_ids,
        ratios=ratios,
        c_hat=float(ratios.max()),
        threshold=float(threshold),
        balanced=bool(ratios.max() <= threshold),
        count_min=count_min,
        count_mesh=count_mesh,
        sandwich_exact=bool(sandwich),
        window_h=float(h),
        window_ratios=window,
        growth_counts=growth_counts,
        growth_mesh=meshes[:-1] / meshes[1:],
        growth_min=mins[:-1] / mins[1:],
    )


@dataclass(frozen=True)
class ComparabilityReport:
    level_ids: tuple
    mesh_ratios: np.ndarray       # |sigma^n| / |tau^n|
    count_ratios: np.ndarray      # N(sigma^n) / N(tau^n)
    liminf_proxy: float           # min of mesh ratios over the tail half
    limsup_proxy: float           # max of mesh ratios over the tail half
    trend_mesh: float             # LS slope of log mesh-ratio vs level
    trend_count: float
    comparable_mesh: bool
    comparable_count: bool
    verdicts_agree: bool
    comparable: bool


def comparability(
    tau: PartitionSequence,
    sigma: PartitionSequence,
    slope_tol: float = 0.2,
    ratio_cap: float = 64.0,
) -> ComparabilityReport:
    """Finite-level comparability of two sequences on common level ids.

    The asymptotic definition (both mesh-ratio limits finite and positive)
    becomes: the log mesh-ratio shows no geometric trend (|LS slope| below
    slope_tol per level) and all tested ratios stay within [1/cap, cap].
    Count ratios get the same treatment; for balanced inputs the two verdicts
    should agree.
    """
    _require_same_grid(tau, sigma)
    common = sorted(set(tau.level_ids) & set(sigma.level_ids))
    if len(common) < 2:
        raise ParameterError("need at least 2 common levels")
    ns = np.array(common, dtype=np.float64)
    mesh_r = np.array([sigma.level(n).mesh / tau.level(n).mesh for n in common])
    count_r = np.array(
        [sigma.level(n).n_intervals / tau.level(n).n_intervals for n in common]
    )
    tail = mesh_r[len(mesh_r) // 2 :]

    def _verdict(r):
        slope = float(np.polyfit(ns, np.log(r), 1)[0])
        ok = abs(slope) <= slope_tol and r.max() <= ratio_cap and r.min() >= 1.0 / ratio_cap
        return slope, bool(ok)

    trend_m, ok_m = _verdict(mesh_r)
    trend_c, ok_c = _verdict(count_r)
    return ComparabilityReport(
        level_ids=tuple(common),
        mesh_ratios=mesh_r,
        count_ratios=count_r,
        liminf_proxy=float(tail.min()),
        limsup_proxy=float(tail.max()),
        trend_mesh=trend_m,
        trend_count=trend_c,
        comparable_mesh=ok_m,
        comparable_count=ok_c,
        verdicts_agree=ok_m == ok_c,
        comparable=ok_m,
    )


@dataclass(frozen=True)
class AdjustmentMap:
    mode: str
    source_levels: tuple          # the n values the map is indexed by
    mapped_levels: tuple          # k(n) for modes i/ii, r(n) for mode iii
    precondition_ok: bool         # max tested |sigma^n|/|tau^n| < 1
    sandwich_ok: tuple            # per-n defining inequalities (modes i/ii)
    sub_ratios: np.ndarray        # |sigma^n| / |tau^{k(n)}| (mode ii), else empty
    fallback_levels: tuple        # n where mode iii fell back to the lowest level

    def as_dict(self) -> dict:
        return dict(zip(self.source_levels, self.mapped_levels))


def adjust_subsequence(
    tau: PartitionSequence, sigma: PartitionSequence, mode: str = "i"
) -> AdjustmentMap:
    """Level maps that align the mesh of tau with the mesh of sigma.

    Modes "i" and "ii" compute k(n), the first tau level at or after n whose
    mesh drops to |sigma^n| or below; mode "ii" additionally reports the mesh
    ratios along the selected subsequence.  Mode "iii" computes r(n), the last
    sigma level at or before n with mesh above |tau^n| (r(n) = n when
    |sigma^n| >= |tau^n| already).
    """
    if mode not in ("i", "ii", "iii"):
        raise ParameterError(f"mode must be one of i, ii, iii; got {mode!r}")
    _require_same_grid(tau, sigma)
    common = sorted(set(tau.level_ids) & set(sigma.level_ids))
    pre_ok = bool(
        common
        and max(sigma.level(n).mesh / tau.level(n).mesh for n in common) < 1.0
    )

    if mode in ("i", "ii"):
        source = sigma.level_ids
        mapped, sandwich, ratios = [], [], []
        tau_ids = list(tau.level_ids)
        for n in source:
            target = sigma.level(n).mesh
            candidates = [k for k in tau_ids if k >= n]
            k_n = next((k for k in candidates if tau.level(k).mesh <= target), None)
            if k_n is None:
                raise ExhaustionError(
                    f"mesh threshold {target:g} not reached by tau within levels "
                    f"<= {tau_ids[-1]} (needed for sigma level {n})",
                    level=n,
                )
            mapped.append(k_n)
            # defining property: condition holds at k(n) and at no earlier k >= n
            earlier = [k for k in candidates if k < k_n]
            sandwich.append(
                tau.level(k_n).mesh <= target
                and all(tau.level(k).mesh > target for k in earlier)
            )
            ratios.append(target / tau.level(k_n).mesh)
        return AdjustmentMap(
            mode=mode,
            source_levels=tuple(source),
            mapped_levels=tuple(mapped),
            precondition_ok=pre_ok,
            sandwich_ok=tuple(sandwich),
            sub_ratios=np.asarray(ratios) if mode == "ii" else np.empty(0),
            fallback_levels=(),
        )

    # mode iii
    source = tau.level_ids
    sigma_ids = list(sigma.level_ids)
    mapped, fallback = [], []
    for n in source:
        target = tau.level(n).mesh
        if n in sigma.level_ids and sigma.level(n).mesh >= target:
            mapped.append(n)
            continue
        candidates = [r for r in sigma_ids if r <= n and sigma.level(r).mesh > target]
        if candidates:
            mapped.append(max(candidates))
        else:
            mapped.append(sigma_ids[0])
            fallback.append(n)
    return AdjustmentMap(
        mode="iii",
        source_levels=tuple(source),
        mapped_levels=tuple(mapped),
        precondition_ok=pre_ok,
        sandwich_ok=(),
        sub_ratios=np.empty(0),
        fallback_levels=tuple(fallback),
    )


# ---------------------------------------------------------------------------
# partition transforms
# ---------------------------------------------------------------------------

def map_partition(seq: PartitionSequence, g_samples) -> PartitionSequence:
    """Image of a partition sequence under a strictly increasing time change.

    g is given by its samples on the master grid.  The image partitions are
    re-anchored to a fresh master grid on [0, g(T) - g(0)] with the same M.
    The balance ratio of the image is checked against the slope-ratio bound
    (max slope / min slope) times the input ratio, with snapping slack.
    """
    g = np.asarray(g_samples, dtype=np.float64)
    M = seq.master_level
    if g.shape != ((1 << M) + 1,):
        raise ParameterError(f"g must be sampled on the master grid ({(1 << M) + 1} points)")
    dg = np.diff(g)
    if np.any(dg <= 0):
        raise ParameterError("g must be strictly increasing on the grid")
    slope_ratio = float(dg.max() / dg.min())
    new_T = float(g[-1] - g[0])
    parts = []
    for p in seq:
        image = g[p.indices] - g[0]
        idx = snap_to_grid(image / new_T * (1 << M))
        idx[0] = 0 if p.indices[0] == 0 else idx[0]
        if p.indices[-1] == (1 << M):
            idx[-1] = 1 << M
        if np.any(np.diff(idx) <= 0):
            raise ResolutionError("snapping collision in image partition; raise M")
        newp = Partition(idx, M, new_T)
        slack = 2.0 * newp.master_step / (np.diff(image).min())
        if newp.ratio > slope_ratio * p.ratio * (1.0 + slack) + 1e-12:
            raise IdentityCheckError(
                f"image balance ratio {newp.ratio:g} exceeds slope bound "
                f"{slope_ratio * p.ratio:g} beyond snapping slack"
            )
        parts.append(newp)
    return PartitionSequence(
        tuple(parts), seq.level_ids, seq.generator_meta + " |> mapped",
        dict(seq.generator_params),
    )


def stop_partition(seq: PartitionSequence, interval) -> PartitionSequence:
    """Restriction of every level to [a, b], with a and b adjoined.

    The interval ends are snapped to the nearest master-grid index.
    """
    a, b = interval
    M = seq.master_level
    ia, ib = snap_to_grid(np.array([a, b]) / seq.horizon * (1 << M))
    ia = max(int(ia), 0)
    ib = min(int(ib), 1 << M)
    if ia >= ib:
        raise ParameterError(f"need a < b on the master grid, got [{a}, {b}]")
    parts = []
    for p in seq:
        inner = p.indices[(p.indices > ia) & (p.indices < ib)]
        idx = np.concatenate([[ia], inner, [ib]])
        parts.append(Partition(idx, M, seq.horizon))
    return PartitionSequence(
        tuple(parts), seq.level_ids, seq.generator_meta + f" |> stopped[{a},{b}]",
        dict(seq.generator_params),
    )
