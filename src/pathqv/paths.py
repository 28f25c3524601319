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
from numbers import Real

import numpy as np

from .errors import ParameterError

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


def check_master_level(M) -> None:
    """Refuse a master level outside 4..MAX_LEVEL before it reaches a shift."""
    if not isinstance(M, (int, np.integer)) or not 4 <= M <= MAX_LEVEL:
        raise ParameterError(f"master level must be an integer in 4..{MAX_LEVEL}, got {M}")


def _check_gen_args(seed, M, T):
    check_master_level(M)
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
    """Autocovariance of unit-spacing fractional Gaussian noise.

    Below lag 64 it is the second difference ((k+1)^2H - 2 k^2H + (k-1)^2H) / 2.
    From 64 on, where that difference cancels, it is its series
    k^2H sum_{j=1..6} C(2H, 2j) k^-2j by Horner's rule in k^-2 (C the
    generalised binomial); the first omitted term is below 2^-70 relative.
    """
    k = np.array(lags, dtype=np.float64)  # a copy, overwritten with the result
    np.abs(k, out=k)
    near = k < 64
    kn = k[near]
    k[near] = 0.5 * ((kn + 1.0) ** (2 * H) - 2.0 * kn ** (2 * H) + np.abs(kn - 1.0) ** (2 * H))
    kf = k[~near]
    x = 1.0 / (kf * kf)
    binom = [math.prod((2 * H - i) / (i + 1) for i in range(m)) for m in range(13)]
    series = x * binom[12]
    for m in (10, 8, 6, 4, 2):
        series += binom[m]
        series *= x
    series *= np.power(kf, 2 * H, out=kf)
    k[~near] = series
    return k


def _fgn_scale(M: int, H: float) -> np.ndarray:
    """Weights of the n + 1 distinct eigenvalues of the 2n-long circulant fGn
    embedding, n = 2^M: sqrt(n lambda_k), and sqrt(2n lambda_k) at the real
    terms k = 0 and k = n."""
    n = 1 << M
    gamma = fgn_autocov(H, np.arange(n + 1))
    eig = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if eig.min() < -1e-9 * eig.max():
        raise ParameterError(f"circulant fGn embedding at H={H}, M={M} has eigenvalue "
                             f"{eig.min():.3g} against largest {eig.max():.3g}")
    scale = np.clip(eig, 0.0, None) * n  # compact: the complex transform is freed on return
    scale[[0, n]] *= 2.0
    return np.sqrt(scale, out=scale)


def _fgn_circulant(rng: np.random.Generator, M: int, scale: np.ndarray) -> np.ndarray:
    """Exact fGn sample of length n = 2^M by the real Davies-Harte draw: a
    Hermitian half-spectrum of normals, shaped by the eigenvalue weights
    ``_fgn_scale(M, H)``, taken through one irfft (which ignores the imaginary
    parts at k = 0 and n).  The weights are only read."""
    n = 1 << M
    z = rng.standard_normal(2 * n + 2).view(np.complex128)
    z *= scale
    return np.fft.irfft(z, 2 * n)[:n]


def _check_fbm_args(seed, M, T, H) -> None:
    _check_gen_args(seed, M, T)
    if not 0.0 < H < 1.0:
        raise ParameterError(f"Hurst parameter must lie in (0,1), got {H}")


def _fgn_weights(M: int, T: float, H: float) -> np.ndarray:
    """The weights _fgn_scale(M, H) after gen_fbm's checks of M, T and H,
    read-only, so that any number of fBm draws at M and H can share them."""
    _check_fbm_args(0, M, T, H)
    scale = _fgn_scale(M, H)
    scale.setflags(write=False)
    return scale


def _gen_fbm(seed: int, M: int, T: float, H: float, scale=None) -> SampledPath:
    """gen_fbm, drawn with the weights scale = _fgn_weights(M, T, H) when given."""
    _check_fbm_args(seed, M, T, H)
    if scale is None:
        scale = _fgn_scale(M, H)  # first, so its temporaries never meet the draw
    n = 1 << M
    fgn = _fgn_circulant(np.random.default_rng(seed), M, scale)
    samples = np.empty(n + 1)
    samples[0] = 0.0
    inc = samples[1:]  # increments scaled and summed in the output buffer
    np.multiply(fgn, (T / n) ** H, out=inc)
    np.cumsum(inc, out=inc)
    return SampledPath(T, int(M), 1, samples, PathMeta("fbm", seed, {"H": H}))


def gen_fbm(seed: int, M: int, T: float, H: float) -> SampledPath:
    """Fractional Brownian path with Hurst parameter H, exact in distribution by
    circulant embedding (Davies-Harte), which is nonnegative definite for every H."""
    return _gen_fbm(seed, M, T, H)


def _gen_mixed(seed: int, M: int, T: float, H: float, delta: float, scale=None) -> SampledPath:
    """gen_mixed, its fBm part drawn with the weights scale = _fgn_weights(M, T, H)
    when given."""
    _check_gen_args(seed, M, T)
    if H <= 0.5:
        raise ParameterError(f"mixed paths require H > 1/2, got {H}")
    if delta < 0:
        raise ParameterError(f"delta must be >= 0, got {delta}")
    bm_seed = derive_subseed(seed, "mixed-bm")
    if delta == 0.0:
        samples = gen_brownian(bm_seed, M, T, 1).samples.copy()
    else:
        # the fBm part first, so the Brownian path is not held through its peak
        samples = delta * _gen_fbm(derive_subseed(seed, "mixed-fbm"), M, T, H, scale).samples
        samples += gen_brownian(bm_seed, M, T, 1).samples
    meta = PathMeta("mixed", seed, {"H": H, "delta": delta})
    return SampledPath(T, int(M), 1, samples, meta)


def gen_mixed(seed: int, M: int, T: float, H: float, delta: float) -> SampledPath:
    """Brownian path plus delta times an independent fBM path (H > 1/2).

    Sub-seeds are derived deterministically from the given seed, so the
    delta=0 case reproduces gen_brownian(derive_subseed(seed, "mixed-bm"), ...)
    sample for sample.
    """
    return _gen_mixed(seed, M, T, H, delta)


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


def _check_params(name: str, params: dict, allowed: tuple) -> None:
    """Refuse a parameter name outside allowed, or a value that is not a finite real."""
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ParameterError(f"{name} takes the parameters {list(allowed)}, got {unknown}")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise ParameterError(f"{name} parameter {key} must be a finite real, got {value!r}")


#: The parameters each deterministic kind accepts.
_DETERMINISTIC_PARAMS = {"constant": ("value", "c"), "linear": ("slope",),
                         "weierstrass": ("a", "b"), "takagi": ()}


def gen_deterministic(kind: str, params: dict, M: int, T: float, d: int = 1) -> SampledPath:
    """Deterministic test paths evaluated exactly at the grid nodes."""
    _check_gen_args(0, M, T)
    if d != 1:
        raise ParameterError("deterministic kinds are one-dimensional")
    params = dict(params or {})
    allowed = _DETERMINISTIC_PARAMS.get(kind)
    if allowed is None:
        raise ParameterError(f"unknown deterministic kind {kind!r}")
    _check_params(kind, params, allowed)
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
        b = params.get("b", 7)
        if not 0.0 < a < 1.0:
            raise ParameterError(f"weierstrass a must lie in (0,1), got {a}")
        if b != int(b) or b < 3 or int(b) % 2 == 0:  # 7.0 is 7; 7.5 is refused, not cut
            raise ParameterError(f"weierstrass b must be an odd integer >= 3, got {b}")
        b = int(b)
        if a * b <= 1.0:
            raise ParameterError(f"weierstrass requires a*b > 1, got {a * b}")
        samples = _weierstrass(t, a, b)
        params = {"a": a, "b": float(b)}
    else:
        samples = _takagi(t)
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
