"""Quadratic variation along a partition level and across-level diagnostics.

The running quadratic variation is the exact sum of squared (outer-product)
increments over partition intervals, truncated at the evaluation time, so the
interval straddling t contributes (x(t) - x(t_j)) squared.  The matrix-valued
version is obtained by polarisation of component sums and cross-checked
against the direct cross-product sum, which is algebraically identical at any
finite level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentityCheckError, PairingError, ParameterError
from .partitions import Partition, PartitionSequence, _require_same_grid
from .paths import SampledPath, master_index_of


def default_eval_indices(path: SampledPath, part: Partition | None = None) -> np.ndarray:
    """Evaluation grid: a uniform 2^8 grid plus the partition's own points."""
    M = path.master_level
    coarse = 1 << (M - min(M, 8))
    idx = np.arange(0, (1 << M) + 1, coarse, dtype=np.int64)
    if part is not None:
        idx = _sorted_union(idx, part.indices)
    return idx


def _resolve_eval(path: SampledPath, part: Partition | None, eval_times) -> np.ndarray:
    """Master indices of eval_times plus both ends (the default grid when None)."""
    if eval_times is None:
        return default_eval_indices(path, part)
    idx = master_index_of(eval_times, path.master_level, path.horizon)
    return _sorted_union(idx, np.array([0, 1 << path.master_level], dtype=np.int64))


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.union1d of two int64 arrays by one sort (numpy 2 hashes integer unique)."""
    u = np.concatenate([a, b])
    u.sort()
    return u[np.concatenate([[True], u[1:] != u[:-1]])]


@dataclass(frozen=True)
class QVCurve:
    eval_times: np.ndarray
    values: np.ndarray            # (n,) when dim == 1, else (n, d, d)
    source: tuple = ("", -1)      # (path id, partition level)

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    def trace(self) -> np.ndarray:
        if self.values.ndim == 1:
            return self.values
        return np.trace(self.values, axis1=1, axis2=2)

    def at(self, times) -> np.ndarray:
        """Linear interpolation between evaluation nodes (exact on nodes)."""
        t = np.atleast_1d(np.asarray(times, dtype=np.float64))
        if self.values.ndim == 1:
            return np.interp(t, self.eval_times, self.values)
        d = self.values.shape[1]
        out = np.empty((len(t), d, d))
        for i in range(d):
            for j in range(d):
                out[:, i, j] = np.interp(t, self.eval_times, self.values[:, i, j])
        return out


def _level_samples(x: np.ndarray, part: Partition, eval_idx: np.ndarray):
    """Samples at the partition points and at eval_idx, and each eval index's interval.

    Returns ``(xp, xe, inside, kin, base)``.  A level held as a range (every
    dyadic level) is read as a strided view and each evaluation index finds
    its interval k by arithmetic; an array level is gathered once and
    searched.  Both give ``searchsorted(indices, eval_idx, "right") - 1``
    where that is not negative.  ``inside`` marks k in [0, N), ``kin`` is k
    there (0 elsewhere) and ``base``, k clipped below at 0, counts the
    complete intervals before each evaluation index.
    """
    first, stride, n_int = part.first_index, part.range_stride, part.n_intervals
    if stride:
        xp = x[first:part.last_index + 1:stride]        # (N + 1, d) view
        k = np.minimum((eval_idx - first) // stride, n_int)
    else:
        pidx = part.indices
        xp = x[pidx]
        k = np.searchsorted(pidx, eval_idx, side="right") - 1
    inside = (k >= 0) & (k < n_int)
    return xp, x[eval_idx], inside, np.where(inside, k, 0), np.maximum(k, 0)


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """Partial sums of terms along axis 0, with a 0.0 row in front.

    The first partial sum is terms[0] itself, not 0.0 + terms[0], so a -0.0
    term keeps its sign.
    """
    cum = np.empty((len(terms) + 1,) + terms.shape[1:])
    cum[0] = 0.0
    np.cumsum(terms, axis=0, out=cum[1:])
    return cum


def _left_sum(w, d, s, inside, kin, base) -> np.ndarray:
    """Left sum of the weights w against the terms d, truncated by the straddle terms s.

    ``(inside, kin, base)`` come from _level_samples; s is read only inside.
    """
    return _running_sum(w * d)[base] + np.where(inside, w[kin] * s, 0.0)


def _running_qv(xp, xe, inside, kin, base) -> np.ndarray:
    """Exact truncated-increment QV from the samples of _level_samples.

    A series (one column or 1-d) gives the scalar curve (n,), d columns the
    (n, d, d) matrix; either way the sums are the same floating-point
    operations in the same order, whichever way the samples were read.
    """
    if xp.ndim == 2 and xp.shape[1] == 1:
        xp, xe = xp[:, 0], xe[:, 0]
    dx = xp[1:] - xp[:-1]                               # (N,) or (N, d)
    if dx.ndim == 1:
        cum = _running_sum(np.square(dx, out=dx))
        straddle = np.where(inside, xe - xp[kin], 0.0)
        return cum[base] + straddle ** 2
    cum = _running_sum(dx[:, :, None] * dx[:, None, :])  # (N + 1, d, d)
    straddle = np.where(inside[:, None], xe - xp[kin], 0.0)
    return cum[base] + straddle[:, :, None] * straddle[:, None, :]


def _qv_values(path: SampledPath, part: Partition, eval_idx: np.ndarray) -> np.ndarray:
    """Exact truncated-increment QV at the given master indices."""
    return _running_qv(*_level_samples(path.samples, part, eval_idx))


def qv_level(path: SampledPath, part: Partition, eval_times=None) -> QVCurve:
    """Running quadratic variation of the path along one partition level."""
    _require_same_grid(path, part)
    eval_idx = _resolve_eval(path, part, eval_times)
    vals = _qv_values(path, part, eval_idx)
    return QVCurve(eval_idx * path.master_step, vals, (path.meta.kind, -1))


def qv_matrix(path: SampledPath, part: Partition, eval_times=None) -> QVCurve:
    """Matrix QV by polarisation of component sums.

    Off-diagonals are (QV(x_i + x_j) - QV(x_i) - QV(x_j)) / 2; the result is
    asserted equal, to rounding, to the direct cross-product sum.
    """
    if path.dim < 2:
        raise ParameterError("qv_matrix needs dim >= 2")
    _require_same_grid(path, part)
    eval_idx = _resolve_eval(path, part, eval_times)
    d = path.dim
    xp, xe, *place = _level_samples(path.samples, part, eval_idx)  # (inside, kin, base)
    comp = [_running_qv(xp[:, i], xe[:, i], *place) for i in range(d)]
    vals = np.empty((len(eval_idx), d, d))
    for i in range(d):
        vals[:, i, i] = comp[i]
        for j in range(i + 1, d):
            pol = (_running_qv(xp[:, i] + xp[:, j], xe[:, i] + xe[:, j], *place)
                   - comp[i] - comp[j]) / 2.0
            vals[:, i, j] = pol
            vals[:, j, i] = pol
    direct = _running_qv(xp, xe, *place)
    scale = max(float(np.abs(direct).max()), 1.0)
    if not np.allclose(vals, direct, rtol=1e-9, atol=1e-12 * scale):
        raise IdentityCheckError("polarisation does not match the direct cross sum")
    return QVCurve(eval_idx * path.master_step, vals, (path.meta.kind, -1))


@dataclass(frozen=True)
class QVConvergence:
    level_ids: tuple
    eval_times: np.ndarray
    sup_to_finest: np.ndarray     # sup_t |c_n - c_finest| per level; c_n: qv_limit_diagnostic
    cauchy: np.ndarray            # sup_t |c_{n+1} - c_n| per adjacent pair
    tol: float
    cauchy_at_tol: bool           # last two adjacent gaps below tol


def qv_limit_diagnostic(
    path: SampledPath, seq: PartitionSequence, eval_times=None, tol: float = 0.05
) -> QVConvergence:
    """Across-level sup distances as a finite-level convergence diagnostic.

    They are taken between scalar curves c_n: the QV curve of a scalar path,
    and for d > 1 the largest absolute entry max_ij |QV_n(t)_ij| per time,
    not the (larger or equal) sup-norm distance of the matrix curves.
    """
    if len(seq) < 3:
        raise ParameterError("need at least 3 levels")
    _require_same_grid(path, seq)
    eval_idx = _resolve_eval(path, None, eval_times)
    curves = [_qv_values(path, p, eval_idx) for p in seq]
    if path.dim > 1:
        curves = [np.abs(c).reshape(len(eval_idx), -1).max(axis=1) for c in curves]
    finest = curves[-1]
    sup = np.array([np.abs(c - finest).max() for c in curves])
    cauchy = np.array([np.abs(b - a).max() for a, b in zip(curves, curves[1:])])
    return QVConvergence(
        level_ids=seq.level_ids,
        eval_times=eval_idx * path.master_step,
        sup_to_finest=sup,
        cauchy=cauchy,
        tol=float(tol),
        cauchy_at_tol=bool(np.all(cauchy[-2:] < tol)),
    )


@dataclass(frozen=True)
class InvarianceReport:
    pairs: tuple                  # (level_a, level_b) mesh-matched pairs
    mesh_a: np.ndarray
    mesh_b: np.ndarray
    sup_distances: np.ndarray
    tol: float
    passed: bool                  # verdict at the finest matched pair


def default_qv_tol(mesh: float) -> float:
    """CLT-scaled default tolerance for Brownian-class paths."""
    return 3.0 * np.sqrt(2.0 * mesh)


#: Largest mesh ratio, either way, of a level pair that invariance_check admits.
_MESH_MATCH_CAP = 4.0


def _pair_levels(path: SampledPath, seq_a: PartitionSequence, seq_b: PartitionSequence,
                 balance_threshold: float):
    """The mesh-matched level pairs of invariance_check: (pairs, mesh_a, mesh_b)
    lists and the index of the finest pair, the one its verdict reads.

    Both sequences must sit on the path's grid and be balanced.  Each level of
    A is paired with the B level of nearest log-mesh, when the mesh ratio
    stays within _MESH_MATCH_CAP = 4; the finest pair is the argmin of mesh_a
    (the first on ties).
    """
    for name, s in (("A", seq_a), ("B", seq_b)):
        _require_same_grid(path, s)
        worst = max(p.ratio for p in s)
        if worst > balance_threshold:
            raise ParameterError(
                f"sequence {name} is not balanced at tested levels "
                f"(ratio {worst:g} > {balance_threshold:g})"
            )
    mesh_b = seq_b.meshes()
    pairs, ma, mb = [], [], []
    for na, pa in zip(seq_a.level_ids, seq_a):
        j = int(np.argmin(np.abs(np.log(mesh_b / pa.mesh))))
        ratio = mesh_b[j] / pa.mesh
        if 1.0 / _MESH_MATCH_CAP <= ratio <= _MESH_MATCH_CAP:
            pairs.append((na, seq_b.level_ids[j]))
            ma.append(pa.mesh)
            mb.append(mesh_b[j])
    if not pairs:
        raise PairingError(
            f"no level of B has mesh within x{_MESH_MATCH_CAP:g} of any level of A"
        )
    return pairs, ma, mb, int(np.argmin(ma))


def invariance_check(
    path: SampledPath,
    seq_a: PartitionSequence,
    seq_b: PartitionSequence,
    eval_times=None,
    tol: float | None = None,
    balance_threshold: float = 8.0,
) -> InvarianceReport:
    """Sup distance between QV curves along two balanced sequences.

    Levels are paired by nearest log-mesh; a pair is admissible when the mesh
    ratio stays within _MESH_MATCH_CAP = 4.  The verdict compares the finest
    admissible pair against tol (default CLT-scaled in the finest mesh).
    """
    pairs, ma, mb, finest = _pair_levels(path, seq_a, seq_b, balance_threshold)
    eval_idx = _resolve_eval(path, None, eval_times)
    # pairs follow A's levels; with both sequences ordered by mesh, a B level
    # serving two pairs serves adjacent ones, so holding the last B curve
    # computes each level once while only two curves are alive at a time
    sup, nb_held, cb = [], None, None
    for (na, nb) in pairs:
        ca = _qv_values(path, seq_a.level(na), eval_idx)
        if nb != nb_held:
            nb_held, cb = nb, _qv_values(path, seq_b.level(nb), eval_idx)
        diff = np.abs(ca - cb)
        sup.append(diff.reshape(len(eval_idx), -1).max() if diff.ndim > 1 else diff.max())
    sup = np.asarray(sup)
    if tol is None:
        tol = default_qv_tol(min(ma[finest], mb[finest]))
    return InvarianceReport(
        pairs=tuple(pairs),
        mesh_a=np.asarray(ma),
        mesh_b=np.asarray(mb),
        sup_distances=sup,
        tol=float(tol),
        passed=bool(sup[finest] < tol),
    )
