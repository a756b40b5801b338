"""Proportion-to-effect-size transforms and normality diagnostics.

The double arcsine transform is the workhorse: it stabilizes the sampling
variance of a proportion at 1/(4n+2) regardless of p, which matters when
observed accuracies sit near 1.0 and the logit variance blows up.  The
alternative transforms (plain arcsine, logit, log) are provided so a
dataset can be checked for which scale looks most normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "EffectSample",
    "ft_transform",
    "ft_inverse",
    "alt_transform",
    "shapiro_wilk",
    "transform_diagnostic",
    "DiagnosticRow",
]

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class EffectSample:
    """One transformed effect size with its sampling variance."""

    theta: float
    variance: float
    k: int
    n: int


def ft_theta(k, n):
    """Vectorized double arcsine of k successes out of n."""
    k = np.asarray(k, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    return 0.5 * (np.arcsin(np.sqrt(k / (n + 1.0)))
                  + np.arcsin(np.sqrt((k + 1.0) / (n + 1.0))))


def ft_variance(n):
    """Sampling variance of the double arcsine value: 1/(4n+2)."""
    n = np.asarray(n, dtype=np.float64)
    return 1.0 / (4.0 * n + 2.0)


def ft_transform(k: int, n: int) -> EffectSample:
    """Double arcsine transform of k correct out of n instances."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if k < 0 or k > n:
        raise ValueError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    theta = float(ft_theta(k, n))
    return EffectSample(theta=theta, variance=1.0 / (4 * n + 2), k=int(k), n=int(n))


def ft_inverse_array(t, n_equiv):
    """Vectorized back-transform of double arcsine values to proportions.

    ``n_equiv`` is the effective sample size: a trial's own n, or the
    inverse variance of a pooled estimate.  math.inf is accepted and
    gives the asymptotic inverse sin(t)**2.
    """
    t = np.asarray(t, dtype=np.float64)
    n_equiv = np.broadcast_to(np.asarray(n_equiv, dtype=np.float64), t.shape).copy()
    if np.any(n_equiv <= 0):
        raise ValueError("n_equiv must be positive")
    if np.any(t < -1e-9) or np.any(t > HALF_PI + 1e-9):
        raise ValueError("t outside [0, pi/2]")

    tc = np.clip(t, 0.0, HALF_PI)
    s2t = np.sin(2.0 * tc)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = s2t + (s2t - 1.0 / s2t) / n_equiv
        sign = np.where(np.cos(2.0 * tc) >= 0.0, 1.0, -1.0)
        p = 0.5 * (1.0 - sign * np.sqrt(np.clip(1.0 - inner * inner, 0.0, 1.0)))
        # The inverse folds back outside [theta(0, n), theta(n, n)], the
        # range the transform attains at n; values beyond it map to 0 and 1.
        hi = np.where(np.isinf(n_equiv), HALF_PI, ft_theta(n_equiv, n_equiv))
    return np.where(tc <= ft_theta(0.0, n_equiv), 0.0, np.where(tc >= hi, 1.0, p))


def ft_inverse(t: float, n_equiv: float) -> float:
    """Back-transform one double arcsine value to a proportion."""
    return float(ft_inverse_array(np.asarray([t]), np.asarray([n_equiv]))[0])


def alt_transform(p: float, n: int, kind: str) -> EffectSample:
    """Alternative effect-size transforms: arcsine, logit, or log.

    Requires 0 < p < 1 for logit and p > 0 for log; the failure at the
    boundaries is exactly the variance instability that motivates the
    double arcsine default.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if kind == "arcsine":
        theta = math.asin(math.sqrt(p))
        variance = 1.0 / (4.0 * n)
    elif kind == "logit":
        if p <= 0.0 or p >= 1.0:
            raise ValueError("logit transform undefined at p in {0, 1}")
        theta = math.log(p / (1.0 - p))
        variance = 1.0 / (n * p * (1.0 - p))
    elif kind == "log":
        if p <= 0.0:
            raise ValueError("log transform undefined at p = 0")
        theta = math.log(p)
        variance = (1.0 - p) / (n * p)
    else:
        raise ValueError(f"unknown transform kind: {kind!r}")
    k = int(round(p * n))
    return EffectSample(theta=theta, variance=variance, k=k, n=int(n))


# ---------------------------------------------------------------------------
# Shapiro-Wilk (AS R94 / Royston 1995 approximation, n up to 5000)
# ---------------------------------------------------------------------------

_C1 = [0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056]
_C2 = [0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633]
_C3 = [0.544, -0.39978, 0.025054, -6.714e-4]
_C4 = [1.3822, -0.77857, 0.062767, -0.0020322]
_C5 = [-1.5861, -0.31082, -0.083751, 0.0038915]
_C6 = [-0.4803, -0.082676, 0.0030302]
_G = [-2.273, 0.459]


def _poly(coefs, x):
    # ascending-order polynomial evaluation, as in the published tables
    acc = 0.0
    for c in reversed(coefs):
        acc = acc * x + c
    return acc


def _sw_weights(n: int) -> np.ndarray:
    """Antisymmetric weight vector for the W statistic."""
    half = n // 2
    m = ndtri((np.arange(1, half + 1) - 0.375) / (n + 0.25))
    a = np.zeros(n)
    if n == 3:
        a[0] = -math.sqrt(0.5)
    else:
        summ2 = 2.0 * float(np.sum(m * m))
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_C1, rsn) - m[0] / ssumm2
        if n > 5:
            i1 = 2
            a2 = -m[1] / ssumm2 + _poly(_C2, rsn)
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
                            / (1.0 - 2.0 * a1 ** 2 - 2.0 * a2 ** 2))
            a[1] = a2
        else:
            i1 = 1
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 ** 2))
        a[0] = a1
        a[i1:half] = -m[i1:half] / fac
        # a[:half] currently holds the positive upper-tail weights with a
        # sign flip pending; mirror into the antisymmetric full vector.
    a[:half] *= -1.0
    a[n - half:] = -a[half - 1::-1]
    return a


def shapiro_wilk(values) -> tuple[float, float]:
    """W statistic and p-value of the Shapiro-Wilk normality test.

    Implements the published approximation for 3 <= n <= 5000 (normal
    scores with polynomial-corrected extreme weights; log-normal null
    for n >= 12, gamma-log null for smaller n).
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n < 3:
        raise ValueError("Shapiro-Wilk requires at least 3 observations")
    if n > 5000:
        raise ValueError("Shapiro-Wilk approximation supports n <= 5000")
    if x[-1] - x[0] <= 0.0:
        raise ValueError("Shapiro-Wilk undefined for zero-variance input")

    a = _sw_weights(n)
    xc = x - x.mean()
    ssq = float(np.sum(xc * xc))
    w = float(np.dot(a, x)) ** 2 / ssq
    w = min(w, 1.0)

    if n == 3:
        pi6 = 6.0 / math.pi
        stqr = math.asin(math.sqrt(0.75))
        p = pi6 * (math.asin(math.sqrt(w)) - stqr)
        return w, float(min(max(p, 0.0), 1.0))

    y = math.log(1.0 - w)
    if n <= 11:
        gamma = _poly(_G, n)
        if y >= gamma:
            return w, 0.0
        y = -math.log(gamma - y)
        mu = _poly(_C3, n)
        sigma = math.exp(_poly(_C4, n))
    else:
        ln_n = math.log(n)
        mu = _poly(_C5, ln_n)
        sigma = math.exp(_poly(_C6, ln_n))
    p = float(ndtr(-(y - mu) / sigma))
    return w, p


@dataclass(frozen=True)
class DiagnosticRow:
    """Normality check of one transform applied to a whole dataset."""

    kind: str
    w: float | None
    p_value: float | None
    skipped: str | None = None


_DIAGNOSTIC_KINDS = ("double_arcsine", "arcsine", "logit", "log")


def transform_diagnostic(dataset) -> list[DiagnosticRow]:
    """Shapiro-Wilk comparison of the candidate transforms on a dataset.

    Transforms that are undefined for some trial (logit/log at boundary
    proportions) are reported as skipped rows rather than raising.
    """
    rows = []
    for kind in _DIAGNOSTIC_KINDS:
        try:
            if kind == "double_arcsine":
                vals = [ft_transform(t.k, t.n).theta for t in dataset.trials]
            else:
                vals = [alt_transform(t.k / t.n, t.n, kind).theta for t in dataset.trials]
            w, p = shapiro_wilk(vals)
            rows.append(DiagnosticRow(kind=kind, w=w, p_value=p))
        except ValueError as exc:
            rows.append(DiagnosticRow(kind=kind, w=None, p_value=None, skipped=str(exc)))
    return rows
