"""Three-level random-effects estimation core.

The marginal covariance of the transformed effect sizes is block
diagonal over studies: within study j the covariance of any two trials
is the between-study variance, and each trial adds its own within-study
variance plus known sampling variance on the diagonal,

    V_j = sigma2_xi * ones + diag(sigma2_zeta + v_ij).

Every block is diagonal plus rank one, so inverses and determinants use
Sherman-Morrison per study instead of dense m x m algebra.  The same
per-study sums give the exact ML/REML score (Harville 1977), so variance
components are maximized on the log scale by a bounded quasi-Newton
optimizer with analytic gradients from four deterministic starts,
followed by a direct check of each zero boundary; fixed effects follow
by generalized least squares at the optimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.special import ndtri, stdtrit

from .ingest import ValidationError
from .transforms import HALF_PI, ft_inverse, ft_theta, ft_variance

__all__ = [
    "VAR_FLOOR",
    "VarianceComponents",
    "FitResult",
    "Problem",
    "StudyEffect",
    "PooledEstimate",
    "marginal_covariance",
    "log_likelihood",
    "gls_fixed_effects",
    "fit_model",
    "pooled_estimate",
    "predict_study_effects",
    "study_weights",
    "effect_arrays",
]

VAR_FLOOR = 1e-12
# L-BFGS-B stopping rules, per start
MAX_EVALUATIONS = 2000
FTOL = 1e-10
GTOL = 1e-8
# L-BFGS-B also stops when its line search cannot beat the rounding noise
# of the likelihood; that stop counts as converged when the log-scale
# gradient is no larger than what its FTOL test already accepts.
_STALL_GTOL = 1e-3
_LOG_FLOOR = math.log(VAR_FLOOR)
_LOG_CEIL = math.log(1e6)


@dataclass(frozen=True)
class VarianceComponents:
    """Between-study and within-study variance of true effect sizes."""

    sigma2_xi: float
    sigma2_zeta: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma2_xi) and math.isfinite(self.sigma2_zeta)):
            raise ValueError("variance components must be finite")
        if self.sigma2_xi < 0 or self.sigma2_zeta < 0:
            raise ValueError("variance components must be nonnegative")


@dataclass
class FitResult:
    """Fitted fixed effects, variance components, and bookkeeping."""

    beta: np.ndarray
    labels: list
    cov_beta: np.ndarray
    varcomps: VarianceComponents
    loglik: float
    method: str
    converged: bool
    n_evaluations: int
    m: int
    h: int
    f: int
    y: np.ndarray = field(repr=False, default=None)
    X: np.ndarray = field(repr=False, default=None)
    group_sizes: np.ndarray = field(repr=False, default=None)
    v: np.ndarray = field(repr=False, default=None)


def marginal_covariance(group_sizes, varcomps: VarianceComponents, v) -> np.ndarray:
    """Dense block-diagonal marginal covariance (for inspection and tests)."""
    v = np.asarray(v, dtype=np.float64)
    if np.any(v <= 0):
        raise ValueError("sampling variances must be positive")
    sizes = np.asarray(group_sizes, dtype=np.int64)
    if int(sizes.sum()) != v.size:
        raise ValueError("group sizes must sum to the number of trials")
    m = v.size
    V = np.zeros((m, m))
    start = 0
    for size in sizes:
        stop = start + int(size)
        V[start:stop, start:stop] = varcomps.sigma2_xi
        idx = np.arange(start, stop)
        V[idx, idx] += varcomps.sigma2_zeta + v[start:stop]
        start = stop
    return V


class Problem:
    """One validated likelihood problem: data, study layout, design, method.

    Built once per fit, so the inputs are checked once; each ``evaluate``
    then costs O(m f^2 + f^3).
    """

    def __init__(self, y, X, group_sizes, v, method: str = "reml"):
        if method not in ("reml", "ml"):
            raise ValueError(f"method must be 'reml' or 'ml', got {method!r}")
        self.method = method
        self.y = np.asarray(y, dtype=np.float64)
        self.X = np.asarray(getattr(X, "matrix", X), dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("design must be a 2-d matrix")
        self.group_sizes = np.asarray(group_sizes, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.float64)
        self.m, self.f = self.X.shape
        self.h = len(self.group_sizes)
        if self.y.size != self.m or self.v.size != self.m:
            raise ValueError("y, X, and v must agree on the number of trials")
        if int(self.group_sizes.sum()) != self.m or np.any(self.group_sizes < 1):
            raise ValueError("group sizes must be positive and sum to the number of trials")
        if np.any(self.v <= 0):
            raise ValueError("sampling variances must be positive")
        self.offsets = np.zeros(self.h, dtype=np.int64)
        np.cumsum(self.group_sizes[:-1], out=self.offsets[1:])
        self.index = np.repeat(np.arange(self.h), self.group_sizes)

    def _sums(self, sigma2_xi, sigma2_zeta):
        """Sherman-Morrison accumulators, computed block by block.

        Returns d = diag(D^-1), and per study s = 1'D^-1 1, the rank-one
        correction c, t = 1'D^-1 y and T = 1'D^-1 X; then X'V^-1 X,
        X'V^-1 y and y'V^-1 y.
        """
        d = 1.0 / (self.v + sigma2_zeta)
        s = np.add.reduceat(d, self.offsets)
        c = sigma2_xi / (1.0 + sigma2_xi * s)
        dy = d * self.y
        dX = self.X * d[:, None]
        t = np.add.reduceat(dy, self.offsets)
        T = np.add.reduceat(dX, self.offsets, axis=0)
        XtViX = self.X.T @ dX - T.T @ (c[:, None] * T)
        XtViy = self.X.T @ dy - T.T @ (c * t)
        ytViy = float(np.dot(self.y, dy) - np.dot(c, t * t))
        return d, s, c, t, T, XtViX, XtViy, ytViy

    def evaluate(self, sigma2_xi: float, sigma2_zeta: float):
        """Log-likelihood and its exact score in (sigma2_xi, sigma2_zeta).

        ML: -0.5 [m log 2pi + log|V| + r' V^-1 r] at the GLS solution;
        REML additionally subtracts 0.5 log|X' V^-1 X| and replaces m by
        m-f.  With V_k = dV/dsigma2_k (the study-indicator outer product
        for sigma2_xi, the identity for sigma2_zeta) the score is
        -0.5 [tr(P V_k) - r' V^-1 V_k V^-1 r], where P = V^-1 for ML and
        V^-1 - V^-1 X (X' V^-1 X)^-1 X' V^-1 for REML.
        """
        d, s, c, t, T, XtViX, XtViy, ytViy = self._sums(sigma2_xi, sigma2_zeta)
        sign, logdetA = np.linalg.slogdet(XtViX)
        if sign <= 0:
            raise np.linalg.LinAlgError("design matrix is rank deficient under V^-1")
        beta = np.linalg.solve(XtViX, XtViy)
        rss = ytViy - float(beta @ XtViy)
        logdetV = float(np.sum(np.log(self.v + sigma2_zeta)) + np.sum(np.log1p(sigma2_xi * s)))

        g = 1.0 / (1.0 + sigma2_xi * s)                  # 1'V_j^-1 a_j = g_j 1'D_j^-1 a_j
        rt = t - T @ beta                                # 1'D_j^-1 r_j
        u = d * (self.y - self.X @ beta - (c * rt)[self.index])         # V^-1 r
        tr_xi = float(np.dot(s, g))                      # tr(V^-1 V_xi)
        tr_zeta = float(np.sum(d) - np.dot(c, np.add.reduceat(d * d, self.offsets)))
        if self.method == "ml":
            loglik = -0.5 * (self.m * math.log(2.0 * math.pi) + logdetV + rss)
        else:
            loglik = -0.5 * ((self.m - self.f) * math.log(2.0 * math.pi)
                             + logdetV + logdetA + rss)
            W = d[:, None] * (self.X - (c[:, None] * T)[self.index])   # V^-1 X
            G = T * g[:, None]                                          # 1'V_j^-1 X_j
            A_inv = np.linalg.inv(XtViX)
            tr_xi -= float(np.sum(A_inv * (G.T @ G)))
            tr_zeta -= float(np.sum(A_inv * (W.T @ W)))
        score = -0.5 * np.array([tr_xi - float(np.sum((g * rt) ** 2)),
                                 tr_zeta - float(np.dot(u, u))])
        return loglik, score

    def gls(self, sigma2_xi: float, sigma2_zeta: float):
        """GLS fixed effects and their covariance at the given components."""
        *_, XtViX, XtViy, _ = self._sums(sigma2_xi, sigma2_zeta)
        cov = np.linalg.inv(XtViX)
        beta = cov @ XtViy
        cov = 0.5 * (cov + cov.T)
        return beta, cov


def log_likelihood(y, X, group_sizes, varcomps: VarianceComponents, v, method: str = "reml") -> float:
    """Marginal (ML) or restricted (REML) Gaussian log-likelihood.

    See :meth:`Problem.evaluate`, which also returns the score.
    """
    problem = Problem(y, X, group_sizes, v, method)
    return problem.evaluate(varcomps.sigma2_xi, varcomps.sigma2_zeta)[0]


def gls_fixed_effects(y, X, group_sizes, varcomps: VarianceComponents, v):
    """GLS fixed effects and their covariance at fixed variance components."""
    return Problem(y, X, group_sizes, v).gls(varcomps.sigma2_xi, varcomps.sigma2_zeta)


def _moment_start(y, mat, v) -> float:
    """Total-heterogeneity scale for the multistart.

    Uses the method-of-moments estimate from the weighted residual sum
    of squares, with the raw residual variance as a fallback so the
    scale never collapses to zero when the data visibly disperse.
    """
    w = 1.0 / v
    A = mat.T @ (mat * w[:, None])
    b = mat.T @ (w * y)
    try:
        beta = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return 1e-3
    r = y - mat @ beta
    q = float(np.sum(w * r * r))
    m, f = mat.shape
    trace_corr = float(np.trace(np.linalg.solve(A, mat.T @ (mat * (w * w)[:, None]))))
    denom = float(np.sum(w)) - trace_corr
    moments = (q - (m - f)) / denom if denom > 0 else 0.0
    residual_scale = float(np.mean(r * r))
    return max(moments, residual_scale, 1e-4)


def fit_model(y, X, group_sizes, v, method: str = "reml") -> FitResult:
    """Maximize the log-likelihood over the two variance components.

    Components are optimized as log-variances with a floor, via L-BFGS-B
    with the exact score, from four deterministic starts built around a
    method-of-moments heterogeneity estimate.  On the log scale the score
    vanishes as a component approaches zero, so the optimizer can stop
    short of a maximum on the boundary; each component is then set to
    VAR_FLOOR in turn and kept there if the likelihood rises.  A best
    start that ran out of evaluations away from a stationary point gives
    converged=False.
    """
    problem = Problem(y, X, group_sizes, v, method)
    m, f, h = problem.m, problem.f, problem.h
    if m <= f:
        raise ValidationError(f"need more trials than coefficients (m={m}, f={f})")

    free = slice(0, 2)
    if h < 2:
        warnings.warn("only one study: sigma2_xi is not identifiable and is fixed at 0",
                      stacklevel=2)
        free = slice(1, 2)

    s_hat = _moment_start(problem.y, problem.X, problem.v)
    starts = [(VAR_FLOOR, s_hat), (s_hat, VAR_FLOOR), (0.5 * s_hat, 0.5 * s_hat),
              (4.0 * s_hat, 4.0 * s_hat)]

    def unpack(u):
        point = [VAR_FLOOR, VAR_FLOOR]
        point[free] = [math.exp(min(x, _LOG_CEIL)) for x in u]
        return tuple(point)

    evaluations = 0

    def objective(u):
        nonlocal evaluations
        evaluations += 1
        point = unpack(u)
        loglik, score = problem.evaluate(*point)
        return -loglik, -(score * point)[free]           # gradient in log sigma2

    best = None
    for start in starts:
        u0 = [math.log(max(x, VAR_FLOOR)) for x in start[free]]
        res = optimize.minimize(
            objective, np.asarray(u0), jac=True, method="L-BFGS-B",
            bounds=[(_LOG_FLOOR, _LOG_CEIL)] * len(u0),
            options={"ftol": FTOL, "gtol": GTOL, "maxfun": MAX_EVALUATIONS})
        if best is None or res.fun < best.fun:
            best = res

    converged = bool(best.success) or float(np.max(np.abs(best.jac))) <= _STALL_GTOL
    point, loglik = unpack(best.x), -float(best.fun)
    for k in range(2):
        if point[k] > VAR_FLOOR:
            trial = (VAR_FLOOR, point[1]) if k == 0 else (point[0], VAR_FLOOR)
            evaluations += 1
            trial_loglik = problem.evaluate(*trial)[0]
            if trial_loglik > loglik:
                point, loglik = trial, trial_loglik

    varcomps = VarianceComponents(*point)
    beta, cov = problem.gls(*point)
    labels = getattr(X, "labels", None)
    return FitResult(
        beta=beta, labels=[f"b{i}" for i in range(f)] if labels is None else list(labels),
        cov_beta=cov, varcomps=varcomps,
        loglik=loglik, method=method, converged=converged,
        n_evaluations=evaluations, m=m, h=h, f=f,
        y=problem.y, X=problem.X, group_sizes=problem.group_sizes, v=problem.v)


@dataclass(frozen=True)
class PooledEstimate:
    """Population effect on the transformed and proportion scales."""

    mu: float
    se: float
    ci_low: float
    ci_high: float
    prop: float
    prop_low: float
    prop_high: float


def pooled_estimate(fit: FitResult, level: float = 0.95,
                    quantile: str = "normal") -> PooledEstimate:
    """Population mean with a symmetric CI, on both scales.

    For moderated models the estimate is the model prediction at the
    column means of the design (the average observed trial); for the
    intercept-only model this is exactly the intercept.  The proportion
    scale uses the back-transform with effective sample size 1/se^2.
    The default CI uses normal quantiles; quantile="t" switches to a
    Student-t with m - f degrees of freedom.
    """
    c = fit.X.mean(axis=0)
    mu = float(c @ fit.beta)
    se = math.sqrt(max(float(c @ fit.cov_beta @ c), 0.0))
    if quantile == "normal":
        z = float(ndtri(0.5 + level / 2.0))
    elif quantile == "t":
        z = float(stdtrit(fit.m - fit.f, 0.5 + level / 2.0))
    else:
        raise ValueError(f"unknown quantile kind {quantile!r}")
    lo, hi = mu - z * se, mu + z * se
    n_equiv = math.inf if se == 0.0 else 1.0 / (se * se)
    clamp = lambda t: min(max(t, 0.0), HALF_PI)
    return PooledEstimate(
        mu=mu, se=se, ci_low=lo, ci_high=hi,
        prop=ft_inverse(clamp(mu), n_equiv),
        prop_low=ft_inverse(clamp(lo), n_equiv),
        prop_high=ft_inverse(clamp(hi), n_equiv))


@dataclass(frozen=True)
class StudyEffect:
    """Predicted study-level effect on the transformed scale."""

    study_id: str
    kappa_hat: float
    se: float
    trials: int


def predict_study_effects(fit: FitResult, dataset, method: str = "blup") -> list:
    """Per-study effect predictions for the forest display.

    blup: conditional mean of the study effect given the data at the
    plugged-in variance components, shrunk toward the population mean;
    the se is the conditional standard deviation.  pool: classic
    within-study inverse-variance average, no shrinkage.
    """
    ids = dataset.study_ids()
    sizes = dataset.group_sizes()
    if len(ids) != fit.h or int(sizes.sum()) != fit.m:
        raise ValidationError("dataset does not match the fitted model layout")
    if method not in ("blup", "pool"):
        raise ValueError(f"unknown prediction method {method!r}")

    out = []
    start = 0
    xi = fit.varcomps.sigma2_xi
    zeta = fit.varcomps.sigma2_zeta
    fitted = fit.X @ fit.beta
    for sid, size in zip(ids, sizes):
        stop = start + int(size)
        y_j = fit.y[start:stop]
        v_j = fit.v[start:stop]
        if method == "pool":
            w = 1.0 / v_j
            kappa = float(np.sum(w * y_j) / np.sum(w))
            se = math.sqrt(1.0 / float(np.sum(w)))
        else:
            mean_fit = float(np.mean(fitted[start:stop]))
            d = 1.0 / (v_j + zeta)
            s = float(np.sum(d))
            resid = y_j - fitted[start:stop]
            xi_hat = xi * float(np.sum(d * resid)) / (1.0 + xi * s)
            var = xi / (1.0 + xi * s)
            kappa = mean_fit + xi_hat
            se = math.sqrt(max(var, 0.0))
        out.append(StudyEffect(study_id=sid, kappa_hat=kappa, se=se, trials=int(size)))
        start = stop
    return out


def study_weights(fit: FitResult) -> np.ndarray:
    """Per-study share of the total GLS weight, normalized to sum to 1."""
    problem = Problem(fit.y, fit.X, fit.group_sizes, fit.v)
    _, s, *_ = problem._sums(fit.varcomps.sigma2_xi, fit.varcomps.sigma2_zeta)
    w = s / (1.0 + fit.varcomps.sigma2_xi * s)
    return w / w.sum()


def effect_arrays(dataset):
    """Transformed effect sizes and sampling variances for a dataset."""
    k = dataset.k_array()
    n = dataset.n_array()
    return ft_theta(k, n), ft_variance(n)
