"""Sample paths on a dyadic master grid.

All paths live on a uniform grid of 2^M + 1 points spanning [0, T]; every
downstream kernel (quadratic variation, roughness sums, local time) evaluates
paths exactly at grid nodes and never interpolates.  Stochastic generators are
pure functions of their seed, so identical inputs reproduce identical arrays.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError, ResolutionError

PATH_KINDS = (
    "brownian",
    "fbm",
    "mixed",
    "linear",
    "constant",
    "weierstrass",
    "takagi",
    "custom",
)

#: Largest fGn covariance matrix we are willing to Cholesky-factor when the
#: circulant embedding is not PSD.
_CHOLESKY_MAX = 1 << 13

#: Largest master level a path may have (2^30 + 1 samples, 8 GiB per
#: coordinate); generators, SampledPath and the PQV1 reader share it, so every
#: path that can be written can be read back.
MAX_LEVEL = 30


def derive_subseed(seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for composite generators: hash of (seed, tag)."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class PathMeta:
    kind: str
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in PATH_KINDS:
            raise ParameterError(f"unknown path kind {self.kind!r}")
        if self.kind in ("fbm", "mixed"):
            h = self.params.get("H")
            if h is None or not 0.0 < h < 1.0:
                raise ParameterError(f"Hurst parameter must lie in (0,1), got {h}")
        if self.kind == "mixed" and self.params.get("H", 1.0) <= 0.5:
            raise ParameterError("mixed paths require H > 1/2")


@dataclass(frozen=True)
class SampledPath:
    """A d-dimensional path sampled on the master grid of 2^M + 1 points."""

    horizon: float
    master_level: int
    dim: int
    samples: np.ndarray  # shape (2^M + 1, d)
    meta: PathMeta

    def __post_init__(self):
        if self.horizon <= 0 or not math.isfinite(self.horizon):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if not 4 <= self.master_level <= MAX_LEVEL:
            raise ParameterError(
                f"master level must lie in 4..{MAX_LEVEL}, got {self.master_level}"
            )
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        expect = (1 << self.master_level) + 1
        if arr.shape != (expect, self.dim):
            raise ParameterError(
                f"samples must have shape ({expect}, {self.dim}), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ParameterError("samples contain non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n_points(self) -> int:
        return (1 << self.master_level) + 1

    @property
    def master_step(self) -> float:
        return self.horizon / (1 << self.master_level)

    @cached_property
    def times(self) -> np.ndarray:
        t = np.arange(self.n_points) * self.master_step
        t.setflags(write=False)
        return t

    def component(self, i: int = 0) -> np.ndarray:
        return self.samples[:, i]

    def scalar(self) -> np.ndarray:
        """The sample array of a one-dimensional path."""
        if self.dim != 1:
            raise ParameterError(f"path has dim {self.dim}, expected 1")
        return self.samples[:, 0]


def master_index_of(times, master_level: int, horizon: float) -> np.ndarray:
    """Map times to master-grid indices, rejecting off-grid values."""
    t = np.atleast_1d(np.asarray(times, dtype=np.float64))
    bad = t[~np.isfinite(t)]
    if len(bad):
        raise ParameterError(f"times must be finite: {bad[:5]}")
    with np.errstate(over="ignore"):  # a huge finite time scales to inf: out of range below
        frac = t * ((1 << master_level) / horizon)
    idx = np.rint(frac)
    bad = t[(idx < 0) | (idx > (1 << master_level))]
    if len(bad):
        raise ParameterError(f"times outside [0, {horizon:g}]: {bad[:5]}")
    bad = t[np.abs(frac - idx) > 1e-6]
    if len(bad):
        raise ParameterError(f"times not on the master grid: {bad[:5]}")
    return idx.astype(np.int64)


def _check_gen_args(seed, M, T):
    if not isinstance(M, (int, np.integer)) or not 4 <= M <= MAX_LEVEL:
        raise ParameterError(f"master level must be an integer in 4..{MAX_LEVEL}, got {M}")
    if not (T > 0 and math.isfinite(T)):
        raise ParameterError(f"horizon must be positive, got {T}")
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")


def gen_brownian(seed: int, M: int, T: float, d: int = 1) -> SampledPath:
    """Brownian path started at 0: i.i.d. N(0, T/2^M) increments per coordinate."""
    _check_gen_args(seed, M, T)
    if d < 1:
        raise ParameterError(f"dim must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    n = 1 << M
    samples = np.empty((n + 1, d))
    samples[0] = 0.0
    inc = samples[1:]  # increments drawn, scaled and summed in place: no 2^M x d temporary
    rng.standard_normal(out=inc)
    inc *= math.sqrt(T / n)
    np.cumsum(inc, axis=0, out=inc)
    return SampledPath(T, int(M), d, samples, PathMeta("brownian", seed, {}))


def fgn_autocov(H: float, lags) -> np.ndarray:
    """Autocovariance of unit-spacing fractional Gaussian noise."""
    k = np.abs(np.asarray(lags, dtype=np.float64))
    return 0.5 * ((k + 1.0) ** (2 * H) - 2.0 * k ** (2 * H) + np.abs(k - 1.0) ** (2 * H))


def _fgn_scale(n: int, H: float):
    """Eigenvalue square roots over 2n of the circulant fGn embedding, or None
    if the embedding is not PSD; its temporaries are freed before the draw."""
    gamma = fgn_autocov(H, np.arange(n + 1))
    circ = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2n
    eig = np.fft.fft(circ).real
    if eig.min() < -1e-9 * eig.max():
        return None
    eig = np.clip(eig, 0.0, None)
    return np.sqrt(eig / (2 * n))


def _fgn_circulant(rng: np.random.Generator, n: int, H: float):
    """Exact fGn sample via circulant embedding; None if the embedding fails.

    The circulant covariance is diagonalised by the DFT; a complex Gaussian
    vector shaped by the eigenvalue square roots has real part distributed as
    the stationary sequence.
    """
    scale = _fgn_scale(n, H)
    if scale is None:
        return None
    # the draw of (a + 1j b) * scale, built in place: real parts drawn first
    z = np.empty(2 * n, dtype=np.complex128)
    draw = rng.standard_normal(2 * n)
    z.real = draw
    z.imag = rng.standard_normal(out=draw)
    z *= scale
    return np.fft.fft(z).real[:n]


def _fgn_cholesky(rng: np.random.Generator, n: int, H: float):
    if n > _CHOLESKY_MAX:
        raise ResolutionError(
            f"circulant embedding failed and n={n} exceeds the Cholesky fallback "
            f"limit {_CHOLESKY_MAX}"
        )
    lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    cov = fgn_autocov(H, lag)
    chol = np.linalg.cholesky(cov)
    return chol @ rng.standard_normal(n)


def gen_fbm(seed: int, M: int, T: float, H: float) -> SampledPath:
    """Fractional Brownian path with Hurst parameter H, exact in distribution.

    Uses circulant embedding of the increment covariance (Davies-Harte style);
    falls back to a Cholesky factorisation if the embedding is not PSD.  The
    method used is recorded in meta.params["cholesky_fallback"].
    """
    _check_gen_args(seed, M, T)
    if not 0.0 < H < 1.0:
        raise ParameterError(f"Hurst parameter must lie in (0,1), got {H}")
    n = 1 << M
    rng = np.random.default_rng(seed)
    fgn = _fgn_circulant(rng, n, H)
    fallback = fgn is None
    if fallback:
        fgn = _fgn_cholesky(rng, n, H)
    samples = np.empty(n + 1)
    samples[0] = 0.0
    inc = samples[1:]  # increments scaled and summed in the output buffer
    np.multiply(fgn, (T / n) ** H, out=inc)
    np.cumsum(inc, out=inc)
    meta = PathMeta("fbm", seed, {"H": H, "cholesky_fallback": float(fallback)})
    return SampledPath(T, int(M), 1, samples, meta)


def gen_mixed(seed: int, M: int, T: float, H: float, delta: float) -> SampledPath:
    """Brownian path plus delta times an independent fBM path (H > 1/2).

    Sub-seeds are derived deterministically from the given seed, so the
    delta=0 case reproduces gen_brownian(derive_subseed(seed, "mixed-bm"), ...)
    sample for sample.
    """
    _check_gen_args(seed, M, T)
    if H <= 0.5:
        raise ParameterError(f"mixed paths require H > 1/2, got {H}")
    if delta < 0:
        raise ParameterError(f"delta must be >= 0, got {delta}")
    bm = gen_brownian(derive_subseed(seed, "mixed-bm"), M, T, 1)
    if delta == 0.0:
        samples = bm.samples.copy()
    else:
        fbm = gen_fbm(derive_subseed(seed, "mixed-fbm"), M, T, H)
        samples = delta * fbm.samples
        samples += bm.samples
    meta = PathMeta("mixed", seed, {"H": H, "delta": delta})
    return SampledPath(T, int(M), 1, samples, meta)


def _takagi(t: np.ndarray) -> np.ndarray:
    # distance to the nearest integer, summed over dyadic rescalings; terms
    # with 2^k t above 2^52 carry no fractional information and are dropped
    out = np.zeros_like(t)
    for k in range(53):
        s = np.ldexp(t, k)
        if np.max(np.abs(s)) >= 2.0**52:
            break
        out += np.abs(s - np.rint(s)) * 2.0**-k
    return out


def _weierstrass(t: np.ndarray, a: float, b: int) -> np.ndarray:
    out = np.zeros_like(t)
    n_prec = int(52 * math.log(2) / math.log(b))  # keep b^k t exactly representable
    n_tail = int(math.ceil(-17 * math.log(10) / math.log(a)))
    for k in range(min(n_prec, n_tail) + 1):
        out += a**k * np.cos((b**k) * np.pi * t)
    return out


def gen_deterministic(kind: str, params: dict, M: int, T: float, d: int = 1) -> SampledPath:
    """Deterministic test paths evaluated exactly at the grid nodes."""
    _check_gen_args(0, M, T)
    if d != 1:
        raise ParameterError("deterministic kinds are one-dimensional")
    params = dict(params or {})
    t = np.arange((1 << M) + 1) * (T / (1 << M))
    if kind == "constant":
        value = float(params.get("value", params.get("c", 0.0)))
        samples = np.full_like(t, value)
        params = {"value": value}
    elif kind == "linear":
        slope = float(params.get("slope", 1.0))
        samples = slope * t
        params = {"slope": slope}
    elif kind == "weierstrass":
        a = float(params.get("a", 0.5))
        b = int(params.get("b", 7))
        if not 0.0 < a < 1.0:
            raise ParameterError(f"weierstrass a must lie in (0,1), got {a}")
        if b < 3 or b % 2 == 0:
            raise ParameterError(f"weierstrass b must be an odd integer >= 3, got {b}")
        if a * b <= 1.0:
            raise ParameterError(f"weierstrass requires a*b > 1, got {a * b}")
        samples = _weierstrass(t, a, b)
        params = {"a": a, "b": float(b)}
    elif kind == "takagi":
        samples = _takagi(t)
        params = {}
    else:
        raise ParameterError(f"unknown deterministic kind {kind!r}")
    return SampledPath(T, int(M), 1, samples, PathMeta(kind, 0, params))


@dataclass(frozen=True)
class HolderEstimate:
    alpha_hat: float
    fit_r2: float
    scales_used: tuple
    degenerate: bool = False


def estimate_holder(path: SampledPath) -> HolderEstimate:
    """Estimate a Hoelder exponent from max increments over dyadic blocks.

    Regresses log(max increment magnitude) on log(scale) for dyadic levels
    M/2..M.  The R^2 of the fit is reported so callers can reject bad fits; a
    constant path yields alpha_hat = 1.0 with the degenerate flag set.
    """
    M = path.master_level
    if M < 8:
        raise ParameterError(f"Hoelder estimation needs master level >= 8, got {M}")
    levels = list(range(M // 2, M + 1))
    maxima = []
    for lev in levels:
        stride = 1 << (M - lev)
        sub = path.samples[::stride]
        inc = np.linalg.norm(np.diff(sub, axis=0), axis=1)
        maxima.append(inc.max())
    maxima = np.asarray(maxima)
    if np.any(maxima == 0.0):
        return HolderEstimate(1.0, 0.0, tuple(levels), degenerate=True)
    log_scale = np.array([math.log(path.horizon / (1 << lev)) for lev in levels])
    log_max = np.log(maxima)
    slope, intercept = np.polyfit(log_scale, log_max, 1)
    fitted = slope * log_scale + intercept
    ss_res = float(np.sum((log_max - fitted) ** 2))
    ss_tot = float(np.sum((log_max - log_max.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    alpha = float(min(max(slope, 1e-12), 1.0))
    return HolderEstimate(alpha, float(r2), tuple(levels))
