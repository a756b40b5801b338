"""Three-level random-effects estimation core.

The marginal covariance of the transformed effect sizes is block
diagonal over studies: within study j the covariance of any two trials
is the between-study variance, and each trial adds its own within-study
variance plus known sampling variance on the diagonal,

    V_j = sigma2_xi * ones + diag(sigma2_zeta + v_ij).

Every block is diagonal plus rank one, so inverses and determinants use
Sherman-Morrison per study instead of dense m x m algebra.  The same
per-study sums give the exact ML/REML score and expected information
(Harville 1977), so the variance components are maximized by Fisher
scoring directly on the variance scale, within [VAR_FLOOR, VAR_CEIL],
from three deterministic starts; fixed effects follow by generalized
least squares at the optimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri, stdtrit

from .ingest import COLLINEARITY_TOL, ValidationError
from .transforms import HALF_PI, ft_inverse, ft_theta, ft_variance

__all__ = [
    "VAR_FLOOR",
    "VAR_CEIL",
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
VAR_CEIL = 1e6
# Per start: converged once the Newton decrement is at most _DECREMENT_TOL,
# or _STALL_DECREMENT when no step halving raises the loglik any more.
MAX_EVALUATIONS = 2000
_DECREMENT_TOL = 1e-9
_STALL_DECREMENT = 1e-6
_MAX_HALVINGS = 30
_RANK_DEFICIENT = "design matrix is rank deficient under V^-1"


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
    then costs O(m f^2 + f^3).  A design with a column whose residual on
    the columns before it is at most COLLINEARITY_TOL times its own norm
    (the test ``encode_design`` applies) raises LinAlgError: X'V^-1 X has
    the rank of X, and its Cholesky factorization can succeed at a
    condition number near 1e16.
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
        self.Q, R = np.linalg.qr(self.X)                 # |R_ii| = residual norm of column i
        diag = np.abs(np.diag(R))
        if np.any(diag <= COLLINEARITY_TOL * np.linalg.norm(self.X[:, :diag.size], axis=0)):
            raise np.linalg.LinAlgError(_RANK_DEFICIENT)
        self.offsets = np.zeros(self.h, dtype=np.int64)
        np.cumsum(self.group_sizes[:-1], out=self.offsets[1:])
        self.index = np.repeat(np.arange(self.h), self.group_sizes)
        self.yX = np.column_stack([self.y, self.X])

    def _sums(self, sigma2_xi, sigma2_zeta):
        """Sherman-Morrison accumulators, computed block by block.

        Returns d = diag(D^-1), and per study s = 1'D^-1 1, the rank-one
        correction c and S = 1'D^-1 [y X]; then [y X]' V^-1 [y X].
        """
        d = 1.0 / (self.v + sigma2_zeta)
        s = np.add.reduceat(d, self.offsets)
        c = sigma2_xi / (1.0 + sigma2_xi * s)
        dyX = self.yX * d[:, None]
        S = np.add.reduceat(dyX, self.offsets, axis=0)
        return d, s, c, S, self.yX.T @ dyX - S.T @ (c[:, None] * S)

    def _factor(self, M):
        """Li with (X'V^-1 X)^-1 = Li' Li, from the one Cholesky factorization."""
        try:
            return np.linalg.inv(np.linalg.cholesky(M[1:, 1:]))
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(_RANK_DEFICIENT) from None

    def evaluate(self, sigma2_xi: float, sigma2_zeta: float):
        """Log-likelihood, exact score and expected information.

        ML: -0.5 [m log 2pi + log|V| + r' V^-1 r] at the GLS solution;
        REML additionally subtracts 0.5 log|X' V^-1 X| and replaces m by
        m-f.  With V_k = dV/dsigma2_k (the study-indicator outer product
        for sigma2_xi, the identity for sigma2_zeta) the score is
        -0.5 [tr(P V_k) - r' V^-1 V_k V^-1 r] and the information is
        0.5 tr(P V_k P V_l), where P = V^-1 for ML and
        V^-1 - V^-1 X (X' V^-1 X)^-1 X' V^-1 for REML.  Returns
        (loglik, score, information), in the order (sigma2_xi, sigma2_zeta).
        """
        d, s, c, S, M = self._sums(sigma2_xi, sigma2_zeta)
        Li = self._factor(M)
        z = Li @ M[1:, 0]
        beta = Li.T @ z
        rss = M[0, 0] - z @ z
        logdetV = np.log(self.v + sigma2_zeta).sum() + np.log1p(sigma2_xi * s).sum()

        g = 1.0 / (1.0 + sigma2_xi * s)                  # 1'V_j^-1 a_j = g_j 1'D_j^-1 a_j
        sg = s * g                                       # 1'V_j^-1 1
        rt = S[:, 0] - S[:, 1:] @ beta                   # 1'D_j^-1 r_j
        u = d * (self.y - self.X @ beta - (c * rt)[self.index])         # V^-1 r
        s2, s3 = np.add.reduceat(d[:, None] ** [2, 3], self.offsets, axis=0).T
        trace = np.array([sg.sum(), d.sum() - c @ s2])  # tr(V^-1 V_k)
        cross = (g * g) @ s2
        info = np.array([[sg @ sg, cross],               # tr(V^-1 V_k V^-1 V_l)
                         [cross, d @ d - 2.0 * c @ s3 + (c * s2) @ (c * s2)]])
        loglik = -0.5 * (self.m * math.log(2.0 * math.pi) + logdetV + rss)
        if self.method == "reml":                        # log|X'V^-1 X| = -2 sum log diag(Li)
            loglik += 0.5 * self.f * math.log(2.0 * math.pi) + np.log(np.diag(Li)).sum()
            # P = V^-1 - H H' with H = V^-1 X Li'; the rows of G are 1'V_j^-1 H_j
            # and those of E are 1'D_j^-1 H_j, so the H terms are sums over rows.
            T = S[:, 1:]
            H = (d[:, None] * (self.X - (c[:, None] * T)[self.index])) @ Li.T
            G = (T * g[:, None]) @ Li.T
            E = np.add.reduceat(d[:, None] * H, self.offsets, axis=0)
            gg, hh, ge = (G * G).sum(1), (H * H).sum(1), g @ (G * E).sum(1)
            GG, HH = G.T @ G, H.T @ H
            trace -= [gg.sum(), hh.sum()]
            info -= 2.0 * np.array([[sg @ gg, ge], [ge, d @ hh - c @ (E * E).sum(1)]])
            info += [[(GG * GG).sum(), (GG * HH).sum()], [(GG * HH).sum(), (HH * HH).sum()]]
        score = -0.5 * (trace - [(g * rt) @ (g * rt), u @ u])
        return float(loglik), score, 0.5 * info

    def gls(self, sigma2_xi: float, sigma2_zeta: float):
        """GLS fixed effects and their covariance at the given components."""
        M = self._sums(sigma2_xi, sigma2_zeta)[-1]
        Li = self._factor(M)
        cov = Li.T @ Li                                  # numpy forms A'A by syrk: symmetric
        return cov @ M[1:, 0], cov


def log_likelihood(y, X, group_sizes, varcomps: VarianceComponents, v, method: str = "reml") -> float:
    """Marginal (ML) or restricted (REML) Gaussian log-likelihood.

    See :meth:`Problem.evaluate`, which also returns the score and information.
    """
    problem = Problem(y, X, group_sizes, v, method)
    return problem.evaluate(varcomps.sigma2_xi, varcomps.sigma2_zeta)[0]


def gls_fixed_effects(y, X, group_sizes, varcomps: VarianceComponents, v):
    """GLS fixed effects and their covariance at fixed variance components."""
    return Problem(y, X, group_sizes, v).gls(varcomps.sigma2_xi, varcomps.sigma2_zeta)


def _ascend(problem: Problem, start: tuple, pin_xi: bool):
    """Fisher scoring from one start, first on its nonzero components with the
    others held at VAR_FLOOR, then on both: (point, loglik, converged, evaluations)."""
    point = np.array(start)
    loglik, score, info = problem.evaluate(*point)
    evaluations = 1
    for last, movable in ((False, point > VAR_FLOOR), (True, np.ones(2, dtype=bool))):
        movable[0] &= not pin_xi
        while True:
            free = movable & ((point > VAR_FLOOR) | (score > 0))
            while True:
                step = np.zeros(2)
                step[free] = np.linalg.lstsq(info[np.ix_(free, free)], score[free])[0]
                blocked = free & (point <= VAR_FLOOR) & (step < 0)
                if not blocked.any():
                    break
                free &= ~blocked
            decrement = float(score @ step)
            # the last phase still takes, once and unhalved, the step that passes the test
            tries = _MAX_HALVINGS if decrement > _DECREMENT_TOL else int(last and decrement > 0)
            raised = False
            for halving in range(tries):
                if evaluations >= MAX_EVALUATIONS:
                    return point, loglik, decrement <= _DECREMENT_TOL, evaluations
                evaluations += 1
                trial = np.clip(point + 0.5 ** halving * step, VAR_FLOOR, VAR_CEIL)
                try:
                    result = problem.evaluate(*trial)
                except np.linalg.LinAlgError:
                    continue
                if result[0] > loglik:
                    point, (loglik, score, info), raised = trial, result, True
                    break
            if decrement <= _DECREMENT_TOL or not raised:
                converged = decrement <= _STALL_DECREMENT
                break
    return point, loglik, converged, evaluations


def fit_model(y, X, group_sizes, v, method: str = "reml") -> FitResult:
    """Maximize the log-likelihood over the two variance components.

    Fisher scoring on (sigma2_xi, sigma2_zeta) within [VAR_FLOOR, VAR_CEIL]
    from the starts (0, 0), (0, s) and (s, 0), s = var(y); each start first
    fits its nonzero component with the other held at VAR_FLOOR, and the
    best start wins.  A step solves information @ step = score over the
    free components: one at VAR_FLOOR stays there when its score is <= 0 or
    its step points down (the KKT conditions).  A step is halved until the
    loglik rises; a trial point that cannot be factored counts as no rise.
    A start has converged when the Newton decrement score @ step is at most
    1e-9 (that last step is still taken once), or at most 1e-6 once no
    halving raises the loglik (its rounding limit); one that uses up
    MAX_EVALUATIONS gives converged=False.  sigma2_xi stays at VAR_FLOOR
    when the study indicators lie in span(X), as with a single study.
    """
    problem = Problem(y, X, group_sizes, v, method)
    m, f, h = problem.m, problem.f, problem.h
    if m <= f:
        raise ValidationError(f"need more trials than coefficients (m={m}, f={f})")
    if h < 2:
        warnings.warn("only one study: sigma2_xi is not identifiable and is fixed at 0",
                      stacklevel=2)
    # with the study indicators Z in span(X) the GLS mean absorbs any study
    # effect, so neither likelihood rises with sigma2_xi: Z_j in span(Q) iff |Z_j'Q|^2 = n_j
    proj = np.add.reduceat(problem.Q, problem.offsets, axis=0)
    pin_xi = h < 2 or bool(np.all(problem.group_sizes - (proj * proj).sum(1)
                                  <= 1e-8 * problem.group_sizes))
    s = float(np.clip(np.var(problem.y), VAR_FLOOR, VAR_CEIL))
    starts = [(VAR_FLOOR, VAR_FLOOR), (VAR_FLOOR, s), (s, VAR_FLOOR)]

    runs = [_ascend(problem, start, pin_xi)
            for start in dict.fromkeys(starts[:2] if pin_xi else starts)]
    point, loglik, converged, _ = max(runs, key=lambda run: run[1])     # first of ties
    evaluations = sum(run[3] for run in runs)

    varcomps = VarianceComponents(*map(float, point))
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
