"""Pathwise integration, change-of-variable residuals and discrete local time.

The pathwise integral is the left Riemann sum of a gradient evaluated at
partition points against truncated path increments.  Second-order terms are
Stieltjes left sums against a quadratic-variation curve.  The discrete local
time is a field of tent functions, one per partition interval, supported on
the half-open band swept by the path over that interval.

Normalisation note: integrating the discrete local time over the whole level
range reproduces the quadratic variation exactly (each tent integrates to the
squared increment), while the classical occupation identity carries a factor
1/2.  The occupation check therefore reports both normalisations and flags
which one matches, rather than silently choosing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .partitions import Partition, PartitionSequence, _require_same_grid
from .paths import PathMeta, SampledPath, _check_params, master_index_of
from .quadvar import (QVCurve, _left_sum, _level_samples, _resolve_eval, _running_qv,
                      _running_sum, default_eval_indices)


# ---------------------------------------------------------------------------
# function catalogue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionTriple:
    """A function with first and second derivative evaluators (vectorised)."""

    name: str
    f: callable
    f1: callable
    f2: callable


def _abs_smooth(center: float, eps: float) -> FunctionTriple:
    def f(x):
        return np.sqrt((x - center) ** 2 + eps**2)

    def f1(x):
        return (x - center) / np.sqrt((x - center) ** 2 + eps**2)

    def f2(x):
        return eps**2 / ((x - center) ** 2 + eps**2) ** 1.5

    return FunctionTriple(f"abs_smooth(a={center:g},eps={eps:g})", f, f1, f2)


def function_catalogue(name: str, **params) -> FunctionTriple:
    """Named C^2 test functions: square, cubic, sin, exp, abs_smooth.

    Only abs_smooth takes parameters (``a``, and ``eps > 0``); an unknown
    parameter name or a value that is not a finite real raises ParameterError.
    """
    _check_params(name, params, ("a", "eps") if name == "abs_smooth" else ())
    if name == "square":
        return FunctionTriple("square", lambda x: x**2, lambda x: 2.0 * x,
                              lambda x: 2.0 * np.ones_like(x))
    if name == "cubic":
        return FunctionTriple("cubic", lambda x: x**3, lambda x: 3.0 * x**2,
                              lambda x: 6.0 * x)
    if name == "sin":
        return FunctionTriple("sin", np.sin, np.cos, lambda x: -np.sin(x))
    if name == "exp":
        return FunctionTriple("exp", np.exp, np.exp, np.exp)
    if name == "identity":
        return FunctionTriple("identity", lambda x: np.asarray(x, dtype=float),
                              lambda x: np.ones_like(x), lambda x: np.zeros_like(x))
    if name == "abs_smooth":
        eps = float(params.get("eps", 0.1))
        if eps <= 0.0:
            raise ParameterError(f"abs_smooth parameter eps must be > 0, got {eps!r}")
        return _abs_smooth(float(params.get("a", 0.0)), eps)
    raise ParameterError(f"unknown catalogue function {name!r}")


def tabulated_function(name, u_grid, f_vals, f1_vals, f2_vals) -> FunctionTriple:
    """Function triple backed by linear interpolation of tabulated values."""
    u = np.asarray(u_grid, dtype=np.float64)
    fv, f1v, f2v = (np.asarray(a, dtype=np.float64) for a in (f_vals, f1_vals, f2_vals))
    return FunctionTriple(
        name,
        lambda x: np.interp(x, u, fv),
        lambda x: np.interp(x, u, f1v),
        lambda x: np.interp(x, u, f2v),
    )


# ---------------------------------------------------------------------------
# pathwise integral
# ---------------------------------------------------------------------------

def _eval_grad(f1, xleft, dim):
    g = np.asarray(f1(xleft[:, 0] if dim == 1 else xleft))
    if dim == 1:
        return g[:, None]
    return g


def _running_integral(g, dx, stra, inside, kin, base):
    """``(cum, values)``: left sums of g . dx at the partition points, and at the
    evaluation indices truncated by stra.  einsum keeps the signed zeros for d = 1.
    """
    cum = _running_sum(np.einsum("ij,ij->i", g, dx))
    return cum, cum[base] + np.where(inside, np.einsum("ij,ij->i", g[kin], stra), 0.0)


def _follmer_at(path: SampledPath, f1, part: Partition, eval_idx: np.ndarray) -> np.ndarray:
    """The running pathwise integral at the master indices eval_idx."""
    xp, xe, inside, kin, base = _level_samples(path.samples, part, eval_idx)
    g = _eval_grad(f1, xp[:-1], path.dim)              # (N, d)
    return _running_integral(g, xp[1:] - xp[:-1], xe - xp[kin], inside, kin, base)[1]


def follmer_integral(path: SampledPath, f1, part: Partition, t: float) -> float:
    """Left Riemann sum of f1 along the partition, truncated at t."""
    _require_same_grid(path, part)
    return float(_follmer_at(path, f1, part,
                             master_index_of([t], path.master_level, path.horizon))[0])


def follmer_path(path: SampledPath, f1, part: Partition) -> SampledPath:
    """The running pathwise integral sampled on the whole master grid."""
    _require_same_grid(path, part)
    vals = _follmer_at(path, f1, part, np.arange(path.n_points))
    meta = PathMeta("custom", path.meta.seed, {})
    return SampledPath(path.horizon, path.master_level, 1, vals[:, None], meta)


def _stieltjes_against_curve(f2_at_left, part: Partition, curve: QVCurve, eval_times,
                             inside, kin, base):
    """Left sums of f2 against curve increments over partition intervals, truncated.

    ``(inside, kin, base)`` are the caller's _level_samples of eval_times.
    """
    q_at_part = curve.at(part.indices_at(np.arange(part.n_intervals + 1)) * part.master_step)
    cum = _running_sum(f2_at_left * np.diff(q_at_part))
    straddle = f2_at_left[kin] * (curve.at(eval_times) - q_at_part[kin])
    return np.where(inside, cum[base] + straddle, cum[base])


def _require_scalar_curve(kernel: str, qv: QVCurve | None) -> None:
    if qv is not None and qv.values.ndim != 1:
        raise ParameterError(f"{kernel} needs a scalar QV curve, got one of dim {qv.dim}")


@dataclass(frozen=True)
class ItoResidual:
    level_ids: tuple
    eval_times: np.ndarray
    residuals: np.ndarray         # (n_levels, n_eval)
    sup: np.ndarray               # per level


def ito_residual_level(
    path: SampledPath,
    fn: FunctionTriple,
    part: Partition,
    qv: QVCurve | None = None,
    eval_times=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Change-of-variable residual along one partition level: (eval_times, residuals).

    residual(t) = f(x(t)) - f(x(0)) - left-sum integral - (1/2) Stieltjes sum
    of f'' against the QV curve (the same-level exact curve when qv is None).
    Supports one-dimensional paths; scalar f, f1, f2 evaluators.
    """
    if path.dim != 1:
        raise ParameterError("ito_residual_level supports one-dimensional paths")
    _require_scalar_curve("ito_residual_level", qv)
    _require_same_grid(path, part)
    x = path.scalar()
    eval_idx = _resolve_eval(path, part, eval_times)
    et = eval_idx * path.master_step
    xp, xe, inside, kin, base = _level_samples(x, part, eval_idx)
    g = np.asarray(fn.f1(xp[:-1]))
    dx = xp[1:] - xp[:-1]
    f2l = np.asarray(fn.f2(xp[:-1]))
    stra = np.where(inside, xe - xp[kin], 0.0)
    integral = _left_sum(g, dx, stra, inside, kin, base)
    if qv is None:
        stieltjes = _left_sum(f2l, dx**2, stra**2, inside, kin, base)
    else:
        stieltjes = _stieltjes_against_curve(f2l, part, qv, et, inside, kin, base)
    resid = np.asarray(fn.f(xe)) - float(fn.f(x[0])) - integral - 0.5 * stieltjes
    return et, resid


def ito_residual(
    path: SampledPath,
    fn: FunctionTriple,
    seq: PartitionSequence,
    qv: QVCurve | None = None,
    eval_times=None,
) -> ItoResidual:
    """Per-level change-of-variable residuals on a shared evaluation grid."""
    if eval_times is None:
        eval_times = default_eval_indices(path, None) * path.master_step
    rows, times = [], None
    for part in seq:
        times, r = ito_residual_level(path, fn, part, qv, eval_times)
        rows.append(r)
    res = np.vstack(rows)
    return ItoResidual(
        level_ids=seq.level_ids,
        eval_times=times,
        residuals=res,
        sup=np.abs(res).max(axis=1),
    )


@dataclass(frozen=True)
class IsometryReport:
    level_ids: tuple
    eval_times: np.ndarray
    sup_distances: np.ndarray
    integral_values: np.ndarray   # I(T) per level


def isometry_check(
    path: SampledPath,
    fn: FunctionTriple,
    seq: PartitionSequence,
    qv: QVCurve | None = None,
    eval_times=None,
) -> IsometryReport:
    """QV of the running integral against the Stieltjes sum of f1 squared.

    Along each level the running integral is evaluated only at the partition
    points and the evaluation indices, where it equals ``follmer_path`` up to
    the sign of a zero; its QV is taken along the same level.  The right-hand
    side is the left Stieltjes sum of f1(x)^2 against the supplied QV curve
    (same-level exact when qv is None, under which the two sides agree to
    rounding).
    """
    if path.dim != 1:
        raise ParameterError("isometry_check supports one-dimensional paths")
    _require_scalar_curve("isometry_check", qv)
    _require_same_grid(path, seq)
    sups, ivals = [], []
    times = None
    for part in seq:
        eval_idx = _resolve_eval(path, part, eval_times)
        et = eval_idx * path.master_step
        xp, xe, inside, kin, base = _level_samples(path.samples, part, eval_idx)
        g = _eval_grad(fn.f1, xp[:-1], 1)                             # (N, 1)
        dx = xp[1:] - xp[:-1]
        stra = xe - xp[kin]
        # the integral and its same-level QV at the evaluation indices, by
        # the kernels of follmer_path and _qv_values
        cum, ie = _running_integral(g, dx, stra, inside, kin, base)
        lhs = _running_qv(cum, ie, inside, kin, base)
        f1l = g[:, 0] ** 2
        if qv is None:
            rhs = _left_sum(f1l, dx[:, 0] ** 2, stra[:, 0] ** 2, inside, kin, base)
        else:
            rhs = _stieltjes_against_curve(f1l, part, qv, et, inside, kin, base)
        sups.append(float(np.abs(lhs - rhs).max()))
        ivals.append(float(cum[-1] + 0.0))
        times = et
    return IsometryReport(
        level_ids=seq.level_ids,
        eval_times=times,
        sup_distances=np.asarray(sups),
        integral_values=np.asarray(ivals),
    )


# ---------------------------------------------------------------------------
# discrete local time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalTimeField:
    u_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray            # (n_t, n_u), non-negative
    level: int = -1

    @property
    def du(self) -> float:
        return float(self.u_grid[1] - self.u_grid[0])

    def integrate(self, weight=None) -> np.ndarray:
        """Trapezoid integral over u of L (optionally times a weight), per t."""
        w = self.values if weight is None else self.values * weight[None, :]
        return np.trapezoid(w, self.u_grid, axis=1)


def _require_u_points(n_u: int) -> None:
    if n_u < 256:
        raise ParameterError(f"u_grid needs at least 2^8 points, got {n_u}")


def default_u_grid(path: SampledPath, n_u: int = 512, margin: float = 0.05) -> np.ndarray:
    _require_u_points(n_u)
    x = path.scalar()
    lo, hi = float(x.min()), float(x.max())
    pad = margin * max(hi - lo, 1e-12)
    return np.linspace(lo - pad, hi + pad, n_u)


def local_time_discrete(
    path: SampledPath,
    part: Partition,
    t_grid=None,
    u_grid=None,
    level: int = -1,
) -> LocalTimeField:
    """Tent-function local time field on a rectangular (t, u) grid.

    Each partition interval [t_j, t_{j+1}] with t_j < t contributes
    2 |x(t_{j+1} and t) - u| on the half-open band between x(t_j) and
    x(t_{j+1}) (closed at the lower value).  At partition points every
    contributing tent is complete and integrates to the squared increment.

    The u grid must be finite, increasing and uniform to 1e-9 of its span
    (steps differ by at most that much) with at least 2^8 points.  Band ends
    are placed on its nodes by arithmetic, with an exact binary-search
    fallback, so they are the nodes ``np.searchsorted`` would find.
    """
    _require_same_grid(path, part)
    x = path.scalar()
    u = default_u_grid(path) if u_grid is None else np.asarray(u_grid, dtype=np.float64)
    _require_u_points(len(u))
    du = np.diff(u)
    if (not np.all(np.isfinite(u)) or np.any(du <= 0)
            or np.ptp(du) > 1e-9 * (u[-1] - u[0])):
        raise ParameterError("u_grid must be finite, uniform and increasing")
    if u[0] > x.min() or u[-1] < x.max():
        raise ParameterError("u_grid does not cover the path range")
    if t_grid is None:
        t_idx = part.indices_at(np.arange(part.n_intervals + 1))
    else:
        t_idx = master_index_of(t_grid, path.master_level, path.horizon)
        if np.any(np.diff(t_idx) < 0):
            raise ParameterError("t_grid must be sorted")
    xp, xe, inside, kin, done = _level_samples(x, part, t_idx)  # done: complete intervals
    # a row strictly inside an interval adds that interval's tent truncated at t
    partial = inside & (part.indices_at(kin) < t_idx)

    # bincount adds its weights in input order from 0.0, so every node takes
    # acc first and then its tents in interval order: the same additions as
    # one slice add per tent, hence the same bits
    n_u = len(u)
    u_nodes = np.arange(n_u)
    acc = np.zeros(n_u)
    values = np.empty((len(t_idx), n_u))
    j = b0 = b1 = 0  # intervals accumulated; tents of [b0, b1) expanded to pairs
    for row in range(len(t_idx)):
        while j < done[row]:
            if j == b1:
                b0, b1 = j, min(j + _TENT_BLOCK, done[-1])
                nodes, vals, ends = _tent_pairs(u, xp[b0 : b1 + 1])
            stop = min(done[row], b1)
            s0, s1 = ends[j - b0], ends[stop - b0]
            acc = np.bincount(np.concatenate([u_nodes, nodes[s0:s1]]),
                              weights=np.concatenate([acc, vals[s0:s1]]), minlength=n_u)
            j = stop
        if partial[row]:
            row_vals = acc.copy()
            _add_tent(row_vals, u, xp[j], xp[j + 1], xe[row])
            values[row] = row_vals
        else:
            values[row] = acc
    return LocalTimeField(u, t_idx * path.master_step, values, level)


_TENT_BLOCK = 2048  # complete tents expanded at once; bounds the (node, value) pairs


def _uniform_search(u, v):
    """``np.searchsorted(u, v, side="left")`` on a grid u uniform to 1e-9 of its span.

    Each node is guessed by arithmetic on the grid's end points and its bracket
    ``u[g - 1] < v <= u[g]`` checked; a value whose bracket fails (within
    rounding of a node, or where the grid's steps drift from its end points) is
    searched.
    """
    n = len(u)
    g = np.ceil((v - u[0]) * ((n - 1) / (u[-1] - u[0])))
    g = np.clip(g, 0, n, out=g).astype(np.intp)
    padded = np.concatenate([[-np.inf], u, [np.inf]])   # padded[g] = u[g - 1]
    miss = (padded[g] >= v) | (padded[g + 1] < v)
    if miss.any():
        g[miss] = np.searchsorted(u, v[miss], side="left")
    return g


def _tent_pairs(u, xb):
    """(node, value) pairs of the complete tents over consecutive points xb.

    Pairs run in interval order; the pairs of tent k are ends[k]:ends[k + 1].
    Each point's node is found once: searchsorted is monotone, so the band
    ends of a tent are the smaller and larger node of its two points.
    """
    ib = _uniform_search(u, xb)
    i0 = np.minimum(ib[:-1], ib[1:])
    cnt = np.maximum(ib[:-1], ib[1:]) - i0
    ends = np.concatenate([[0], np.cumsum(cnt)])
    nodes = np.repeat(i0 - ends[:-1], cnt)
    nodes += np.arange(ends[-1])
    vals = np.repeat(xb[1:], cnt)
    vals -= u[nodes]
    np.abs(vals, out=vals)
    vals *= 2.0
    return nodes, vals, ends


def _add_tent(acc, u, a, b, peak):
    lo, hi = (a, b) if a <= b else (b, a)
    i0 = np.searchsorted(u, lo, side="left")
    i1 = np.searchsorted(u, hi, side="left")
    if i1 > i0:
        acc[i0:i1] += 2.0 * np.abs(peak - u[i0:i1])


@dataclass(frozen=True)
class OccupationReport:
    sets: tuple                   # (lo, hi) bands, plus the full range last
    t_grid: np.ndarray
    lhs: np.ndarray               # (n_sets, n_t) quadrature of L over the band
    rhs_full: np.ndarray          # indicator-weighted QV increments, factor 1
    rhs_half: np.ndarray          # same with the classical 1/2
    matched: tuple                # which normalisation is closer, per set


def occupation_check(
    field: LocalTimeField, path: SampledPath, part: Partition, sets_a
) -> OccupationReport:
    """Band integrals of local time against indicator-weighted QV increments.

    Both the factor-1 and the factor-1/2 normalisations of the right side are
    reported; the full level range is always appended as a consistency row
    (its factor-1 value is the plain quadratic variation).
    """
    _require_same_grid(path, part)
    x = path.scalar()
    u = field.u_grid
    bands = [(float(lo), float(hi)) for lo, hi in sets_a]
    bands.append((-math.inf, math.inf))
    t_idx = master_index_of(field.t_grid, path.master_level, path.horizon)
    xp, xe, inside, kin, base = _level_samples(x, part, t_idx)
    xl, dx2 = xp[:-1], np.diff(xp) ** 2
    stra2 = np.where(inside, xe - xp[kin], 0.0) ** 2
    lhs = np.empty((len(bands), len(t_idx)))
    rhs = np.empty_like(lhs)
    for si, (lo, hi) in enumerate(bands):
        mask = (u >= lo) & (u < hi)
        if mask.sum() < 2:
            raise ParameterError(f"band [{lo}, {hi}) covers fewer than 2 u nodes")
        lhs[si] = np.trapezoid(field.values[:, mask], u[mask], axis=1)
        ind = ((xl >= lo) & (xl < hi)).astype(np.float64)
        rhs[si] = _left_sum(ind, dx2, stra2, inside, kin, base)
    matched = tuple(
        "full" if np.abs(lhs[i] - rhs[i]).sum() <= np.abs(lhs[i] - 0.5 * rhs[i]).sum()
        else "half"
        for i in range(len(bands))
    )
    return OccupationReport(
        sets=tuple(bands),
        t_grid=field.t_grid,
        lhs=lhs,
        rhs_full=rhs,
        rhs_half=0.5 * rhs,
        matched=matched,
    )


def tanaka_residual(
    path: SampledPath, fn: FunctionTriple, part: Partition, field: LocalTimeField, t: float
) -> float:
    """Residual of the local-time change-of-variable formula at time t.

    residual = f(x(t)) - f(x(0)) - left-sum integral of f1
               - (1/2) quadrature of L_t * f'' over the level range.
    """
    rows = np.nonzero(np.isclose(field.t_grid, t, rtol=0, atol=1e-12 * path.horizon))[0]
    if len(rows) == 0:
        raise ParameterError(f"t={t} is not a row of the local time field")
    row = field.values[rows[0]]
    x = path.scalar()
    integral = follmer_integral(path, fn.f1, part, t)
    quad = float(np.trapezoid(row * np.asarray(fn.f2(field.u_grid)), field.u_grid))
    e = int(master_index_of([t], path.master_level, path.horizon)[0])
    return float(fn.f(x[e]) - fn.f(x[0]) - integral - 0.5 * quad)


def default_test_bank(u_grid) -> list:
    """Indicator, Gaussian-bump and clipped-polynomial test functions on u_grid."""
    u = np.asarray(u_grid, dtype=np.float64)
    lo, hi = u[0], u[-1]
    span = hi - lo
    bank = [("one", np.ones_like(u))]
    for k, parts in (("half", 2), ("quarter", 4)):
        for i in range(parts):
            a = lo + span * i / parts
            b = lo + span * (i + 1) / parts
            bank.append((f"ind_{k}_{i}", ((u >= a) & (u < b)).astype(float)))
    for i, c in enumerate((lo + 0.25 * span, lo + 0.5 * span, lo + 0.75 * span)):
        bank.append((f"bump_{i}", np.exp(-0.5 * ((u - c) / (span / 8.0)) ** 2)))
    centered = (u - (lo + hi) / 2.0) / span
    bank.append(("lin", centered))
    bank.append(("quad", centered**2))
    return bank


@dataclass(frozen=True)
class WeakL2Report:
    names: tuple
    level_ids: tuple
    pairings: np.ndarray          # (n_h, n_levels)
    cauchy: np.ndarray            # (n_h, n_levels - 1)
    tol: float
    passed: bool                  # all last-pair differences below tol


def weak_l2_convergence(fields, bank=None, tol: float = 0.05, levels=None) -> WeakL2Report:
    """Pairings of the final-time local time rows against a test-function bank.

    All fields must share the u grid; the pairing at each level is the
    quadrature of L_T * h, and convergence is judged by the gap between
    consecutive levels, with the verdict taken at the last pair.
    """
    if len(fields) < 3:
        raise ParameterError("need at least 3 levels")
    if levels is not None and len(levels) != len(fields):
        raise ParameterError(f"levels names {len(levels)} levels for {len(fields)} fields")
    u = fields[0].u_grid
    for f in fields[1:]:
        if len(f.u_grid) != len(u) or not np.allclose(f.u_grid, u):
            raise ParameterError("all fields must share the same u_grid")
    if bank is None:
        bank = default_test_bank(u)
    names = tuple(n for n, _ in bank)
    rows = np.vstack([f.values[-1] for f in fields])   # (n_levels, n_u)
    pair = np.empty((len(bank), len(fields)))
    for i, (_, h) in enumerate(bank):
        pair[i] = np.trapezoid(rows * h[None, :], u, axis=1)
    cauchy = np.abs(np.diff(pair, axis=1))
    ids = tuple(levels) if levels is not None else tuple(f.level for f in fields)
    return WeakL2Report(
        names=names,
        level_ids=ids,
        pairings=pair,
        cauchy=cauchy,
        tol=float(tol),
        passed=bool(np.all(cauchy[:, -1] < tol)),
    )
