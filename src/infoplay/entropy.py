"""Shannon information measures on count tables and LLR blocks.

Conventions shared by every module in this package:

* Log-likelihood ratios (LLRs) are natural-log, ``ln P(bit=0)/P(bit=1)``,
  so a positive LLR favors bit 0 (BPSK symbol +1).
* LLR magnitudes are clamped to ``LLR_CLAMP`` (50 natural-log units);
  beyond that the bit probabilities are indistinguishable from 0/1 in
  double precision.
* Entropies and plug-in mutual information are reported in bits.
  LLR-based information measures are normalized to [0, 1].
* ``0 log 0 = 0`` everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalContractError, ValidationError

LLR_CLAMP = 50.0

_LN2 = np.log(2.0)


def _seed_sequence(seed) -> np.random.SeedSequence:
    """The root a routine spawns its streams from: ``SeedSequence(seed)`` for
    an int-like seed, and for a ``SeedSequence`` a new one in the same state.
    The caller's object is never advanced, so one seed gives one result."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size,
                                      n_children_spawned=seed.n_children_spawned)
    return np.random.SeedSequence(seed)


def _as_bits(x) -> np.ndarray:
    bits = np.asarray(x)
    if bits.ndim != 1:
        raise ValidationError("bit vector must be one-dimensional")
    if bits.dtype.kind not in "biuf" or not ((bits == 0) | (bits == 1)).all():
        raise ValidationError("bit vector entries must be 0 or 1")
    return bits.astype(np.int8)


@dataclass(frozen=True, eq=False)
class LlrBlock:
    """A block of LLRs together with the ground-truth bits they refer to.

    LLRs are real numbers, clamped to ``±LLR_CLAMP`` on construction
    (infinities included); NaN is rejected.
    """

    llrs: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        llrs = np.asarray(self.llrs)
        if llrs.dtype.kind not in "biuf":
            raise ValidationError(f"llrs must be real numbers, got dtype {llrs.dtype}")
        llrs = np.clip(np.asarray(llrs, dtype=float), -LLR_CLAMP, LLR_CLAMP)
        truth = _as_bits(self.truth)
        if llrs.ndim != 1 or llrs.size != truth.size:
            raise ValidationError("llrs and truth must be 1-D vectors of equal length")
        if not np.isfinite(llrs).all():
            raise ValidationError("llrs must be finite (NaN not representable)")
        object.__setattr__(self, "llrs", llrs)
        object.__setattr__(self, "truth", truth)

    def __len__(self) -> int:
        return self.llrs.size


def binary_entropy(p: float) -> float:
    """H_b(p) in bits; symmetric around p = 1/2."""
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p must lie in [0, 1], got {p!r}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def mutual_information_plugin(counts) -> float:
    """Plug-in (maximum-likelihood) mutual information of a 2-D count table,
    in bits, uncorrected, so results stay comparable to closed forms at
    large sample sizes.

    Rows index the first variable, columns the second.  Counts are taken
    as int64, so each count and their total must lie below 2**63, and the
    total must be at least 1.
    """
    c = np.asarray(counts)
    if c.ndim != 2 or c.size == 0:
        raise ValidationError("counts must be a non-empty 2-D table")
    if c.dtype.kind == "f":
        c = c.astype(np.float64)
        if not (np.isfinite(c) & (c == np.rint(c))).all():
            raise ValidationError("counts must be integers")
    elif c.dtype.kind not in "biu":
        raise ValidationError(f"counts must be integers, got dtype {c.dtype}")
    if (c < 0).any():
        raise ValidationError("counts must be non-negative")
    if c.dtype.kind in "uf" and (c >= 2**63).any():
        raise ValidationError("counts must be below 2**63 to fit int64")
    c = c.astype(np.int64)
    n = int(c.sum(dtype=object))  # exact: an int64 sum could wrap
    if n >= 2**63:
        raise ValidationError("the total count must be below 2**63 to fit int64")
    if n < 1:
        raise ValidationError("joint counts are empty: total count must be >= 1")
    p = c / n
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    nz = p > 0
    outer = np.outer(px, py)
    info = float((p[nz] * np.log2(p[nz] / outer[nz])).sum())
    return max(info, 0.0)


def _llr_information(llrs: np.ndarray, truth: np.ndarray) -> np.float64 | np.ndarray:
    """Normalized information of LLRs about their bits, averaged along the
    last axis and clipped to [0, 1]: a float64 for one block, a (B,) float64
    array for a (B, N) batch."""
    # ergodic estimator: I = 1 - E[log2(1 + exp(-x*L))], x = +1 for bit 0
    x = 1.0 - 2.0 * truth
    terms = np.logaddexp(0.0, -x * llrs) / _LN2
    return np.clip(1.0 - terms.mean(axis=-1), 0.0, 1.0)


@lru_cache(maxsize=1)
def _leggauss_16():
    """16-point Gauss-Legendre nodes and weights, made on first use:
    ``np.polynomial`` is not imported by ``import numpy``."""
    return np.polynomial.legendre.leggauss(16)


def _gaussian_softplus_expectation(mu: float, sigma: float, panels: int) -> float:
    # E[ln(1 + e^-L)] for L ~ N(mu, sigma^2), composite Gauss-Legendre
    # over mu +- 10 sigma (tail mass beyond that is ~1e-22 of the value)
    leg_nodes, leg_weights = _leggauss_16()
    edges = np.linspace(mu - 10.0 * sigma, mu + 10.0 * sigma, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = edges[:-1] + half
    nodes = centers[:, None] + half * leg_nodes[None, :]
    pdf = np.exp(-((nodes - mu) ** 2) / (2.0 * sigma * sigma)) / (
        sigma * np.sqrt(2.0 * np.pi)
    )
    vals = pdf * np.logaddexp(0.0, -nodes)
    return float((vals @ leg_weights).sum() * half)


def j_function(sigma: float) -> float:
    """Information content J(sigma) of consistent-Gaussian LLRs N(sigma^2/2, sigma^2).

    Computed by adaptive panel-doubling Gaussian quadrature over +-10
    sigma, so the value is self-validating (no polynomial fit involved).
    Strictly increasing, J(0) = 0, J(sigma) -> 1.
    """
    if sigma < 0:
        raise ValidationError(f"sigma must be >= 0, got {sigma!r}")
    if not np.isfinite(sigma * sigma):  # NaN, inf, or past about 1.3e154
        raise ValidationError(f"sigma must have a finite square, got {sigma!r}")
    if sigma == 0.0:
        return 0.0
    mu = sigma * sigma / 2.0
    val = prev = None
    for panels in (8, 16, 32, 64, 128, 256):
        val = 1.0 - _gaussian_softplus_expectation(mu, sigma, panels) / _LN2
        if prev is not None and abs(val - prev) < 1e-13:
            break
        prev = val
    return float(min(max(val, 0.0), 1.0))


def j_inverse(i: float) -> float:
    """The sigma with J(sigma) = i, by bracketed root search (|J - i| <= 1e-8)."""
    if not (0.0 <= i < 1.0):
        raise ValidationError(f"i must lie in [0, 1) (sigma is unbounded at 1), got {i!r}")
    if i == 0.0:
        return 0.0
    hi = 1.0
    while j_function(hi) < i:
        hi *= 2.0
        if hi > 256.0:  # J(256) is 1 to double precision; unreachable for i < 1
            raise ValidationError(f"no finite sigma reaches J(sigma) = {i!r}")
    return _brentq(lambda s: j_function(s) - i, 0.0, hi, xtol=1e-13)


_BRENT_RTOL = 4 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """A root of ``f`` in [xa, xb], where f(xa) and f(xb) differ in sign, by
    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant steps,
    falling back to bisection.

    A step-for-step transcription of scipy's ``brentq`` with its default
    ``rtol = 4 eps`` and ``maxiter = 100``, so roots agree to the bit.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NumericalContractError(f"root search did not converge in {_BRENT_MAXITER} steps")


def sample_consistent_gaussian_apriori(truth, ia: float, seed) -> LlrBlock:
    """Synthesize a-priori LLRs with information content ``ia`` for the given bits.

    Draws L = (sigma^2/2) x + N(0, sigma^2) with sigma = J^-1(ia) and
    x = +1 for bit 0 / -1 for bit 1; deterministic for a fixed seed.
    """
    bits = _as_bits(truth)
    if not (0.0 <= ia < 1.0):
        raise ValidationError(f"ia must lie in [0, 1), got {ia!r}")
    sigma = j_inverse(ia)
    rng = np.random.default_rng(seed)
    x = 1.0 - 2.0 * bits
    llrs = (sigma * sigma / 2.0) * x + rng.normal(0.0, sigma, size=bits.size)
    return LlrBlock(llrs, bits)
