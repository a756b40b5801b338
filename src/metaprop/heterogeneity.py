"""Heterogeneity statistics: Q, pooled sampling variance, level-wise I^2 and R^2.

I^2 is split by level: the share of total effect-size variance due to
between-study heterogeneity and the share due to within-study
heterogeneity, with the pooled sampling variance completing the
denominator.  R^2 compares a moderated model's variance components to
the intercept-only fit and is deliberately not truncated at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import FitResult, VarianceComponents, pooled_estimate
from .ingest import ValidationError

__all__ = [
    "FitSummary",
    "cochran_q",
    "pooled_sampling_variance",
    "i_squared_levels",
    "r_squared",
    "summarize",
]

# null variance components at or below this are treated as zero when
# forming R^2 ratios (the optimizer floors components at 1e-12)
_NULL_EPS = 1e-10


def cochran_q(y, X, v):
    """Residual heterogeneity test against sampling error alone.

    Q is the weighted residual sum of squares under weights 1/v after a
    weighted-least-squares fit of the moderators; df = m - f; the
    p-value is the chi-square upper tail.
    """
    y = np.asarray(y, dtype=np.float64)
    mat = np.asarray(X, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    m, f = mat.shape
    if f >= m:
        raise ValidationError(f"Q undefined: no residual degrees of freedom (m={m}, f={f})")
    w = 1.0 / v
    A = mat.T @ (mat * w[:, None])
    beta = np.linalg.solve(A, mat.T @ (w * y))
    r = y - mat @ beta
    q = float(np.sum(w * r * r))
    df = m - f
    return q, df, _chi2_sf(df, q)


def _chi2_sf(df: int, x: float) -> float:
    """Chi-square upper tail for integer df >= 1 at x >= 0.

    With y = x/2 and c = (df mod 2)/2 the tail is erfc(sqrt(y)) for odd df
    (0 for even) plus the finite sum over k < df//2 of the Poisson-like
    terms exp(-y) y^(k+c) / Gamma(k+c+1) (Abramowitz & Stegun
    26.4.4-26.4.5).  The terms rise while k+c+1 <= y and fall after, so
    they are summed outward from the largest one, whose logarithm is
    formed once: a Q in the thousands underflows no term that matters.
    For large k+c that logarithm takes the saddle-point form (Loader 2000),
    in which no terms of size (k+c) log y cancel.
    """
    if x <= 0.0:
        return 1.0
    y, c, count = 0.5 * x, 0.5 * (df % 2), df // 2
    base = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    if count == 0:
        return base
    top = min(count - 1, max(0, int(y - c)))
    total = (1.0 + np.cumprod(y / (np.arange(top + 1, count) + c)).sum()        # rising k
             + np.cumprod((np.arange(top, 0, -1) + c) / y).sum())               # falling k
    a = top + c
    if a < 100.0:
        log_top = a * math.log(y) - y - math.lgamma(a + 1.0)
    else:
        log_top = ((a - y) - a * math.log1p((a - y) / y) - 0.5 * math.log(2.0 * math.pi * a)
                   - (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * a * a)) / (a * a)) / a)
    return base + math.exp(log_top + math.log(total))


def pooled_sampling_variance(v) -> float:
    """Pooled ("typical") sampling variance across trials.

    sigma2_eps = (m-1) * sum(w) / (sum(w)^2 - sum(w^2)) with w = 1/v,
    which reduces to the common value when all v are equal.
    """
    v = np.asarray(v, dtype=np.float64)
    m = v.size
    if m < 2:
        raise ValidationError("pooled sampling variance needs at least 2 trials")
    if np.any(v <= 0):
        raise ValueError("sampling variances must be positive")
    w = 1.0 / v
    sw = float(np.sum(w))
    sw2 = float(np.sum(w * w))
    return (m - 1) * sw / (sw * sw - sw2)


def i_squared_levels(varcomps: VarianceComponents, sigma2_eps: float):
    """Share of total variance at each level: (I2_xi, I2_zeta, total)."""
    if sigma2_eps < 0:
        raise ValueError("sigma2_eps must be nonnegative")
    total = varcomps.sigma2_xi + varcomps.sigma2_zeta + sigma2_eps
    if total <= 0:
        raise ValueError("total variance is zero; I^2 undefined")
    i2_xi = varcomps.sigma2_xi / total
    i2_zeta = varcomps.sigma2_zeta / total
    return i2_xi, i2_zeta, i2_xi + i2_zeta


def r_squared(fit_x: FitResult, fit_null: FitResult):
    """Proportional reduction of each variance component vs. the null fit.

    Negative values are reported as-is.  A component whose null estimate
    is zero has no defined reduction and yields None.
    """
    if fit_null.f != 1:
        raise ValidationError("the reference fit must be intercept-only")
    if fit_x.method != fit_null.method:
        raise ValidationError("fits must share the estimation method")
    if fit_x.m != fit_null.m:
        raise ValidationError("fits must come from the same dataset")

    def one(comp_x: float, comp_null: float):
        if comp_null <= _NULL_EPS:
            return None
        return 1.0 - comp_x / comp_null

    return (one(fit_x.varcomps.sigma2_xi, fit_null.varcomps.sigma2_xi),
            one(fit_x.varcomps.sigma2_zeta, fit_null.varcomps.sigma2_zeta))


@dataclass(frozen=True)
class FitSummary:
    """What one fitted model reports, in ``fit --format json``'s key order;
    ``prop`` is the accuracy of a study at the mean transformed effect (mu
    back-transformed at n = 1/se^2), not the mean accuracy."""

    m: int
    h: int
    f: int
    method: str
    converged: bool
    loglik: float
    mu: float
    se: float
    ci: tuple
    prop: float
    prop_ci: tuple
    sigma2_xi: float
    sigma2_zeta: float
    q: float
    q_df: int
    q_pvalue: float
    sigma2_eps: float
    i2_xi: float
    i2_zeta: float
    i2_total: float


def summarize(fit: FitResult) -> FitSummary:
    """The one place a fit's Q, I^2 and pooled estimate are combined."""
    q, df, p = cochran_q(fit.y, fit.X, fit.v)
    sigma2_eps = pooled_sampling_variance(fit.v)
    i2_xi, i2_zeta, i2_total = i_squared_levels(fit.varcomps, sigma2_eps)
    pooled = pooled_estimate(fit)
    return FitSummary(
        m=fit.m, h=fit.h, f=fit.f, method=fit.method, converged=fit.converged,
        loglik=fit.loglik, mu=pooled.mu, se=pooled.se, ci=(pooled.ci_low, pooled.ci_high),
        prop=pooled.prop, prop_ci=(pooled.prop_low, pooled.prop_high),
        sigma2_xi=fit.varcomps.sigma2_xi, sigma2_zeta=fit.varcomps.sigma2_zeta,
        q=q, q_df=df, q_pvalue=p, sigma2_eps=sigma2_eps,
        i2_xi=i2_xi, i2_zeta=i2_zeta, i2_total=i2_total)
