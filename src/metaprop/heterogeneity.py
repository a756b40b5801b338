"""Heterogeneity statistics: Q, pooled sampling variance, level-wise I^2 and R^2.

I^2 is split by level: the share of total effect-size variance due to
between-study heterogeneity and the share due to within-study
heterogeneity, with the pooled sampling variance completing the
denominator.  R^2 compares a moderated model's variance components to
the intercept-only fit and is deliberately not truncated at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .engine import FitResult, VarianceComponents
from .ingest import ValidationError

__all__ = [
    "HeterogeneityReport",
    "cochran_q",
    "pooled_sampling_variance",
    "i_squared_levels",
    "r_squared",
    "heterogeneity_report",
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
    mat = np.asarray(getattr(X, "matrix", X), dtype=np.float64)
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
    return q, df, float(chdtrc(df, q))


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
class HeterogeneityReport:
    """Q test plus the variance decomposition for one fitted model."""

    q: float
    q_df: int
    q_pvalue: float
    sigma2_eps: float
    i2_xi: float
    i2_zeta: float
    i2_total: float


def heterogeneity_report(fit: FitResult) -> HeterogeneityReport:
    """Assemble the standard heterogeneity summary from a fitted model."""
    q, df, p = cochran_q(fit.y, fit.X, fit.v)
    sigma2_eps = pooled_sampling_variance(fit.v)
    i2_xi, i2_zeta, i2_total = i_squared_levels(fit.varcomps, sigma2_eps)
    return HeterogeneityReport(q=q, q_df=df, q_pvalue=p, sigma2_eps=sigma2_eps,
                               i2_xi=i2_xi, i2_zeta=i2_zeta, i2_total=i2_total)
