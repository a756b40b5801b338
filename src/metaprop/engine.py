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
from two deterministic starts; fixed effects follow by generalized
least squares at the optimum.

A ``Problem`` holds many designs of one width over one study layout,
each with its own effects y and sampling variances v or all sharing one
row of each, and evaluates a stack of (design, point) problems with
batched products and factorizations.  Every per-problem sum runs over
that problem's own row, so a result does not depend on which problems
share its batch.  One Fisher-scoring routine advances every start of
every design in lockstep, each with its own phase, step, halving and
stopping state, so a problem's iterates do not depend on its companions.
``fit_designs`` takes column lists of any widths, builds one Problem per
width itself and yields the fits lazily; it fits the subsets of a model
search (one shared y and v) as well as the replicates of a recovery
experiment (one y and v per design).  ``fit_model`` is its one-design
case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .ingest import ValidationError, collinear_columns
from .transforms import HALF_PI, ft_inverse_array, ft_theta, ft_variance

__all__ = [
    "VAR_FLOOR",
    "VAR_CEIL",
    "VarianceComponents",
    "FitResult",
    "Problem",
    "PooledEstimate",
    "log_likelihood",
    "gls_fixed_effects",
    "fit_designs",
    "fit_or_raise",
    "fit_model",
    "pooled_mean",
    "intervals",
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
_RCOND = 2.0 * np.finfo(np.float64).eps   # np.linalg.lstsq's cutoff for a 2 x 2 system
_BLOCK = 1 << 16       # problems x m x (f + 6) per kernel call at most: bounds memory, not results
_RANK_DEFICIENT = "design matrix is rank deficient under V^-1"
Z95 = NormalDist().inv_cdf(0.975)


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


class Problem:
    """Validated likelihood problems of one study layout: data, designs, method.

    Holds K designs of f columns each: design k is ``X[:, columns[k]]``, or
    X itself when ``columns`` is None, with effects ``y[k]`` and sampling
    variances ``v[k]`` when these have shape (K, m), or the shared y and v
    when they have shape (m,).  ``fit_designs`` builds one per width of the
    designs it fits, so the inputs are checked once.  ``full_rank[k]`` is
    False for a design with more columns than rows or one that
    ``collinear_columns`` (the rule ``encode_design`` applies) flags, and the
    kernels report it as not factored: X'V^-1 X has the rank of X, and its
    Cholesky factorization can succeed at a condition number near 1e16.
    The rule reads X alone, so a design whose X'V^-1 X has a condition
    number near 1/eps may fit or fail by rounding.  ``pin[k]`` marks the components
    (sigma2_xi, sigma2_zeta) not identified on design k.  sigma2_xi is not
    with one study, or with every study indicator in the span, where the GLS
    mean absorbs any study effect.  sigma2_zeta is not when every study has
    one trial: V then depends only on sigma2_xi + sigma2_zeta, so sigma2_xi
    carries the sum (Konstantopoulos 2011).

    ``evaluate_batch`` is the kernel.  It evaluates a stack of problems,
    each a design at its own point, with batched products and
    factorizations, in blocks whose size _BLOCK bounds, and costs
    O(m f^2 + f^3) per problem; ``gls_batch`` gives the GLS fixed effects
    the same way.
    """

    def __init__(self, y, X, group_sizes, v, method: str = "reml", columns=None):
        if method not in ("reml", "ml"):
            raise ValueError(f"method must be 'reml' or 'ml', got {method!r}")
        self.method = method
        self.X = np.asarray(getattr(X, "matrix", X), dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("design must be a 2-d matrix")
        self.columns = (np.arange(self.X.shape[1])[None] if columns is None
                        else np.asarray(columns, dtype=np.intp))
        if self.columns.ndim != 2:
            raise ValueError("columns must be a 2-d array of column indices")
        self.group_sizes = np.asarray(group_sizes, dtype=np.int64)
        self.m, self.f = self.X.shape[0], self.columns.shape[1]
        self.block = max(1, _BLOCK // (self.m * (self.f + 6)))   # problems per kernel call
        self.h = len(self.group_sizes)
        self.y, self.v = self._rows(y), self._rows(v)   # row k belongs to design k
        if int(self.group_sizes.sum()) != self.m or np.any(self.group_sizes < 1):
            raise ValueError("group sizes must be positive and sum to the number of trials")
        if np.any(self.v <= 0):
            raise ValueError("sampling variances must be positive")
        self.offsets = np.zeros(self.h, dtype=np.int64)
        np.cumsum(self.group_sizes[:-1], out=self.offsets[1:])
        self.index = np.repeat(np.arange(self.h), self.group_sizes)
        self.Xt = np.ascontiguousarray(self.X.T)
        self.pin = np.zeros((len(self.columns), 2), dtype=bool)
        self.pin[:, 0] = self.h < 2
        self.pin[:, 1] = np.all(self.group_sizes == 1)
        self.full_rank = np.empty(len(self.columns), dtype=bool)
        # one QR per design; study indicator Z_j lies in span(X) iff |Z_j'Q|^2 = n_j
        for a in range(0, len(self.columns), self.block):
            X = self.Xt[self.columns[a:a + self.block]].transpose(0, 2, 1)
            Q, R = np.linalg.qr(X)
            self.full_rank[a:a + self.block] = ((R.shape[1] == self.f)
                                                & ~collinear_columns(X, R).any(1))
            proj = np.add.reduceat(Q, self.offsets, axis=1)
            self.pin[a:a + self.block, 0] |= np.all(
                self.group_sizes - (proj * proj).sum(2) <= 1e-8 * self.group_sizes, axis=1)

    def _rows(self, a):
        """y or v as a (K, m) array whose row k is design k's: a (K, m) array
        as it is, and a shared (m,) row repeated as a read-only view."""
        a = np.asarray(a, dtype=np.float64)
        if a.shape not in ((self.m,), (len(self.columns), self.m)):
            raise ValueError(f"y and v must have shape (m,) or (designs, m) = "
                             f"{(len(self.columns), self.m)}, got {a.shape}")
        return np.broadcast_to(a, (len(self.columns), self.m))

    def _sums(self, design, point):
        """Sherman-Morrison accumulators of a stack, computed block by block.

        Per problem, over its own rows y and v: d = diag(D^-1), and per study
        s = 1'D^-1 1, the rank-one correction c, Sy = 1'D^-1 y and the
        columns Sx = X'D^-1 1; then (D^-1 X)', y'V^-1 y, X'V^-1 y and
        X'V^-1 X.  The designs are stacked as X' (S, f, m) and y, v as
        (S, m), so elementwise products run along whole rows and every sum
        and product stays within one problem.  Returns y and v too.
        """
        Xt = self.Xt[self.columns[design]]
        y, v = self.y[design], self.v[design]
        xi, zeta = point[:, :1], point[:, 1:]
        d = 1.0 / (v + zeta)
        s = np.add.reduceat(d, self.offsets, axis=1)
        c = xi / (1.0 + xi * s)
        dy = d * y
        Sy = np.add.reduceat(dy, self.offsets, axis=1)
        dXt = Xt * d[:, None, :]
        Sx = self._study_sums(dXt)
        cSx = Sx * c[:, None, :]
        return (y, v, d, s, c, Sy, Sx, dXt, (dy * y).sum(1) - (c * Sy * Sy).sum(1),
                (dXt @ y[:, :, None] - cSx @ Sy[:, :, None])[:, :, 0],
                dXt @ Xt.transpose(0, 2, 1) - cSx @ Sx.transpose(0, 2, 1))

    def _study_sums(self, a):
        """Per-study sums over the last (trial) axis of a (S, f, m) stack."""
        return np.add.reduceat(a.reshape(-1, self.m), self.offsets, axis=1).reshape(
            *a.shape[:2], self.h)

    def _factor(self, A, design):
        """Li with A^-1 = Li' Li for each X'V^-1 X in A, and which ones factored.

        One failure makes a batched Cholesky raise for the whole stack, so the
        stack is then factored problem by problem, with Li = I where it fails.
        """
        ok = np.ones(len(A), dtype=bool)
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            L = np.empty_like(A)
            for i, a in enumerate(A):
                try:
                    L[i] = np.linalg.cholesky(a)
                except np.linalg.LinAlgError:
                    L[i], ok[i] = np.eye(self.f), False
        return np.linalg.inv(L), ok & self.full_rank[design]

    def _blocks(self, kernel, design, point):
        """Apply a kernel to (design, point) stacks in blocks of at most
        ``block`` problems; an empty stack gives empty results."""
        design = np.asarray(design, dtype=np.intp)
        point = np.asarray(point, dtype=np.float64).reshape(-1, 2)
        parts = [kernel(design[a:a + self.block], point[a:a + self.block])
                 for a in range(0, max(len(design), 1), self.block)]
        return tuple(map(np.concatenate, zip(*parts)))

    def evaluate_batch(self, design, point):
        """Log-likelihood, exact score and expected information of many problems.

        Problem i is design ``design[i]`` at ``point[i]`` = (sigma2_xi,
        sigma2_zeta).  ML: -0.5 [m log 2pi + log|V| + r' V^-1 r] at the GLS
        solution; REML additionally subtracts 0.5 log|X' V^-1 X| and replaces
        m by m-f.  With V_k = dV/dsigma2_k (the study-indicator outer product
        for sigma2_xi, the identity for sigma2_zeta) the score is
        -0.5 [tr(P V_k) - r' V^-1 V_k V^-1 r] and the information is
        0.5 tr(P V_k P V_l), where P = V^-1 for ML and
        V^-1 - V^-1 X (X' V^-1 X)^-1 X' V^-1 for REML.  Returns (loglik (S,),
        score (S, 2), information (S, 2, 2), ok (S,)), in the order
        (sigma2_xi, sigma2_zeta).  ok is False where X' V^-1 X cannot be
        factored (see Problem); the other problems' results are those they have alone.
        """
        return self._blocks(self._evaluate_block, design, point)

    def _evaluate_block(self, design, point):
        y, v, d, s, c, Sy, Sx, dXt, yVy, XVy, XVX = self._sums(design, point)
        Li, ok = self._factor(XVX, design)
        z = Li @ XVy[:, :, None]
        beta = (Li.transpose(0, 2, 1) @ z).transpose(0, 2, 1)   # rows (S, 1, f)
        rss = yVy - (z * z).sum((1, 2))
        xi, zeta = point[:, :1], point[:, 1:]
        logdetV = np.log(v + zeta).sum(1) + np.log1p(xi * s).sum(1)

        g = 1.0 / (1.0 + xi * s)                         # 1'V_j^-1 a_j = g_j 1'D_j^-1 a_j
        sg = s * g                                       # 1'V_j^-1 1
        rt = Sy - (beta @ Sx)[:, 0]                      # 1'D_j^-1 r_j
        u = d * (y - (c * rt)[:, self.index]) - (beta @ dXt)[:, 0]  # V^-1 r
        d2 = d * d
        s2 = np.add.reduceat(d2, self.offsets, axis=1)
        s3 = np.add.reduceat(d2 * d, self.offsets, axis=1)
        trace = np.stack([sg.sum(1), d.sum(1) - (c * s2).sum(1)], axis=1)  # tr(V^-1 V_k)
        info = np.empty((len(d), 2, 2))                  # tr(V^-1 V_k V^-1 V_l)
        info[:, 0, 0] = (sg * sg).sum(1)
        info[:, 0, 1] = (g * g * s2).sum(1)
        info[:, 1, 1] = d2.sum(1) - 2.0 * (c * s3).sum(1) + ((c * s2) ** 2).sum(1)
        loglik = -0.5 * (self.m * math.log(2.0 * math.pi) + logdetV + rss)
        if self.method == "reml":                        # log|X'V^-1 X| = -2 sum log diag(Li)
            loglik += (0.5 * self.f * math.log(2.0 * math.pi)
                       + np.log(np.diagonal(Li, axis1=1, axis2=2)).sum(1))
            # P = V^-1 - H H' with H = V^-1 X Li'; the rows of G are 1'V_j^-1 H_j
            # and those of E are 1'D_j^-1 H_j, so the H terms are sums over rows.
            # Ht, Gt and Et hold H', G' and E'; two (S, f, m) arrays do all the work.
            Ht = np.repeat(Sx * c[:, None, :], self.group_sizes, axis=2)
            Ht *= d[:, None, :]
            dXt -= Ht                                    # (V^-1 X)' = (D X - D Z c Sx')'
            np.matmul(Li, dXt, out=Ht)
            Gt = Li @ (Sx * g[:, None, :])
            np.multiply(Ht, d[:, None, :], out=dXt)
            Et = self._study_sums(dXt)
            n, size = len(d), self.f * self.m
            dhh = (Ht.reshape(n, 1, size) @ dXt.reshape(n, size, 1))[:, 0, 0]  # sum_i d_i |H_i|^2
            H = dXt.reshape(n, self.m, self.f)           # H'H runs faster on a copy of H
            np.copyto(H, Ht.transpose(0, 2, 1))
            GG, HH = Gt @ Gt.transpose(0, 2, 1), Ht @ H
            gg = (Gt * Gt).sum(1)
            trace -= np.stack([gg.sum(1), np.diagonal(HH, axis1=1, axis2=2).sum(1)], axis=1)
            info[:, 0, 0] += (GG * GG).sum((1, 2)) - 2.0 * (sg * gg).sum(1)
            info[:, 0, 1] += (GG * HH).sum((1, 2)) - 2.0 * (g * (Gt * Et).sum(1)).sum(1)
            info[:, 1, 1] += ((HH * HH).sum((1, 2))
                              - 2.0 * (dhh - (c * (Et * Et).sum(1)).sum(1)))
        info[:, 1, 0] = info[:, 0, 1]
        gr = g * rt
        score = -0.5 * (trace - np.stack([(gr * gr).sum(1), (u * u).sum(1)], axis=1))
        return loglik, score, 0.5 * info, ok

    def gls_batch(self, design, point):
        """GLS fixed effects (S, f), their covariances (S, f, f) and ok (S,),
        per problem as in ``evaluate_batch``."""
        return self._blocks(self._gls_block, design, point)

    def _gls_block(self, design, point):
        *_, XVy, XVX = self._sums(design, point)
        Li, ok = self._factor(XVX, design)
        cov = Li.transpose(0, 2, 1) @ Li                 # numpy forms A'A by syrk: symmetric
        return (cov @ XVy[:, :, None])[:, :, 0], cov, ok


def log_likelihood(y, X, group_sizes, varcomps: VarianceComponents, v, method: str = "reml") -> float:
    """Marginal (ML) or restricted (REML) Gaussian log-likelihood.

    See :meth:`Problem.evaluate_batch`, which also returns the score and information.
    """
    loglik, _, _, ok = Problem(y, X, group_sizes, v, method).evaluate_batch(
        [0], [varcomps.sigma2_xi, varcomps.sigma2_zeta])
    if not ok[0]:
        raise np.linalg.LinAlgError(_RANK_DEFICIENT)
    return float(loglik[0])


def gls_fixed_effects(y, X, group_sizes, varcomps: VarianceComponents, v):
    """GLS fixed effects and their covariance at fixed variance components."""
    beta, cov, ok = Problem(y, X, group_sizes, v).gls_batch(
        [0], [varcomps.sigma2_xi, varcomps.sigma2_zeta])
    if not ok[0]:
        raise np.linalg.LinAlgError(_RANK_DEFICIENT)
    return beta[0], cov[0]


def _lstsq2(info, score, free):
    """Per problem, the minimum-norm least-squares solution of
    info[F, F] step[F] = score[F] over its free set F, zero off it, as
    np.linalg.lstsq gives it: a singular value at most _RCOND times the
    largest counts as zero."""
    a, b, c = info[:, 0, 0], info[:, 0, 1], info[:, 1, 1]
    s0, s1 = score[:, 0], score[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        det = a * c - b * b
        # both free and numerically rank one: project on the eigenvector of the
        # eigenvalue of largest modulus, taken from the longer row of info - big I
        mean = 0.5 * (a + c)
        big = mean + np.copysign(np.hypot(0.5 * (a - c), b), mean)
        row = abs(big - a) >= abs(big - c)
        v0, v1 = np.where(row, b, big - c), np.where(row, big - a, b)
        along = (v0 * s0 + v1 * s1) / (big * (v0 * v0 + v1 * v1))
        rank1 = (abs(det) <= _RCOND * big * big)
        both = free[:, 0] & free[:, 1]
        step = np.empty_like(score)
        step[:, 0] = np.where(both, np.where(rank1, v0 * along, (c * s0 - b * s1) / det),
                              np.where(free[:, 0] & (a != 0.0), s0 / a, 0.0))
        step[:, 1] = np.where(both, np.where(rank1, v1 * along, (a * s1 - b * s0) / det),
                              np.where(free[:, 1] & (c != 0.0), s1 / c, 0.0))
    step[both & rank1 & (big == 0.0)] = 0.0
    return step


def _bounded_step(info, score, free, at_floor):
    """Fisher steps over the free components; a component at VAR_FLOOR whose
    step points down leaves the free set and the step is solved again."""
    while True:
        step = _lstsq2(info, score, free)
        blocked = free & at_floor & (step < 0)
        if not blocked.any():
            return step
        free = free & ~blocked


def _ascend(problem: Problem, design, start):
    """Fisher scoring of many (design, start) problems in lockstep.

    Each problem keeps its own phase, free set, step, halving count and
    stopping state (see fit_model).  A round evaluates the next trial point
    of every unfinished problem in one batched call, so each problem takes
    the iterates and the evaluations it takes alone.  Returns per problem
    (point, loglik, converged, evaluations, factored); factored is False
    where the start itself cannot be factored, and that problem stops there.
    """
    point = np.array(start, dtype=np.float64)
    loglik, score, info, factored = problem.evaluate_batch(design, point)
    n = len(point)
    evaluations = np.ones(n, dtype=np.int64)
    pin = problem.pin[design]
    last = np.zeros(n, dtype=bool)                       # in the phase that moves both
    movable = (point > VAR_FLOOR) & ~pin
    step, decrement = np.zeros((n, 2)), np.zeros(n)
    tries, halving = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    converged, done = np.zeros(n, dtype=bool), ~factored

    def end_phase(i):
        """End the phase of problems i; returns those that go on to the last phase."""
        converged[i] = decrement[i] <= _STALL_DECREMENT
        done[i[last[i]]] = True
        i = i[~last[i]]
        last[i] = True
        movable[i] = ~pin[i]
        return i

    def plan(i):
        """Next step of problems i; a problem with no trial to take ends its phase."""
        while i.size:
            free = movable[i] & ((point[i] > VAR_FLOOR) | (score[i] > 0))
            step[i] = _bounded_step(info[i], score[i], free, point[i] <= VAR_FLOOR)
            decrement[i] = score[i, 0] * step[i, 0] + score[i, 1] * step[i, 1]
            # the last phase still takes, once and unhalved, the step that passes the test
            tries[i] = np.where(decrement[i] > _DECREMENT_TOL, _MAX_HALVINGS,
                                last[i] & (decrement[i] > 0))
            halving[i] = 0
            i = end_phase(i[tries[i] == 0])

    plan(np.flatnonzero(factored))
    while True:
        i = np.flatnonzero(~done)
        capped = i[evaluations[i] >= MAX_EVALUATIONS]
        converged[capped] = decrement[capped] <= _DECREMENT_TOL
        done[capped] = True
        i = i[evaluations[i] < MAX_EVALUATIONS]
        if not i.size:
            return point, loglik, converged, evaluations, factored
        evaluations[i] += 1
        trial = np.clip(point[i] + 0.5 ** halving[i, None] * step[i], VAR_FLOOR, VAR_CEIL)
        trial_loglik, trial_score, trial_info, ok = problem.evaluate_batch(design[i], trial)
        rose = ok & (trial_loglik > loglik[i])           # an unfactored trial is no rise
        up, flat = i[rose], i[~rose]
        point[up], loglik[up] = trial[rose], trial_loglik[rose]
        score[up], info[up] = trial_score[rose], trial_info[rose]
        halving[flat] += 1
        # a rise ends the phase when its step passed the test, as does the last halving
        passed = decrement[up] <= _DECREMENT_TOL
        ended = end_phase(np.concatenate([up[passed], flat[halving[flat] >= tries[flat]]]))
        plan(np.concatenate([up[~passed], ended]))


def _fit_problem(problem: Problem):
    """One FitResult per design of ``problem``, in order, or, for a design
    that is not full rank or that a start cannot factor, fit_model's LinAlgError.

    The starts of all designs ascend in lockstep (see ``_ascend``), and the
    best start of each design wins.  With one study it warns.
    """
    if problem.h < 2:
        warnings.warn("only one study: sigma2_xi is not identifiable and is fixed at 0")
    count = len(problem.columns)
    s = np.clip(np.var(problem.y, axis=1), VAR_FLOOR, VAR_CEIL)
    starts = np.full((count, 2, 2), VAR_FLOOR)          # (F, s), (s, F) per design
    starts[:, 0, 1] = starts[:, 1, 0] = s
    starts = np.where(problem.pin[:, None], VAR_FLOOR, starts)   # no start lifts a pinned component
    point, loglik, converged, evaluations, factored = _ascend(
        problem, np.repeat(np.arange(count), 2), starts.reshape(-1, 2))
    best = 2 * np.arange(count) + loglik.reshape(count, 2).argmax(1)   # its first best start
    fitted = factored.reshape(count, 2).all(1)
    total = evaluations.reshape(count, 2).sum(1)
    beta, cov, _ = problem.gls_batch(np.flatnonzero(fitted), point[best[fitted]])
    row = np.cumsum(fitted) - 1

    def result(k):
        if not fitted[k]:
            return np.linalg.LinAlgError(_RANK_DEFICIENT)
        i = best[k]
        return FitResult(
            beta=beta[row[k]], cov_beta=cov[row[k]],
            varcomps=VarianceComponents(*map(float, point[i])),
            loglik=float(loglik[i]), method=problem.method, converged=bool(converged[i]),
            n_evaluations=int(total[k]), m=problem.m, h=problem.h, f=problem.f,
            y=problem.y[k], X=problem.X[:, problem.columns[k]],
            group_sizes=problem.group_sizes, v=problem.v[k])
    return map(result, range(count))


def fit_designs(y, X, group_sizes, v, method: str = "reml", columns=None):
    """Fit designs of any widths, each as fit_model fits it alone.

    Design k is ``X[:, columns[k]]``, or X itself when ``columns`` is None.
    y and v have shape (m,), shared by every design, or (K, m), row k
    belonging to design k; the study layout is shared.  The designs of one
    width form one Problem, which gets their rows, and whose designs and
    starts ascend in lockstep.  Yields (k, result) pairs lazily, one width
    at a time in order of first appearance, so only one width's fits are
    alive at once.  result is the FitResult, or the error fit_model raises:
    ValidationError for a design with no more trials than columns,
    LinAlgError for one that is not full rank (see Problem) or that a start
    cannot factor; no design's result depends on the others.
    """
    X = np.asarray(getattr(X, "matrix", X), dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("design must be a 2-d matrix")
    designs = [range(X.shape[1])] if columns is None else list(columns)
    y, v = np.asarray(y, dtype=np.float64), np.asarray(v, dtype=np.float64)
    if any(a.ndim == 2 and len(a) != len(designs) for a in (y, v)):
        raise ValueError("y and v of shape (K, m) need one row per design")
    widths: dict = {}
    for k, cols in enumerate(designs):
        widths.setdefault(len(cols), []).append((k, cols))
    for f, members in widths.items():
        if X.shape[0] <= f:
            error = ValidationError(f"need more trials than coefficients (m={X.shape[0]}, f={f})")
            yield from ((k, error) for k, _ in members)
            continue
        keys = [k for k, _ in members]
        y_rows, v_rows = (a[keys] if a.ndim == 2 and len(keys) < len(a) else a for a in (y, v))
        problem = Problem(y_rows, X, group_sizes, v_rows, method,
                          columns=[cols for _, cols in members])
        yield from zip(keys, _fit_problem(problem))


def fit_or_raise(result) -> FitResult:
    """A result of ``fit_designs`` as fit_model returns it: the FitResult,
    or its error raised."""
    if isinstance(result, Exception):
        raise result
    return result


def fit_model(y, X, group_sizes, v, method: str = "reml") -> FitResult:
    """Maximize the log-likelihood over the two variance components.

    Fisher scoring on (sigma2_xi, sigma2_zeta) within [VAR_FLOOR, VAR_CEIL]
    from the starts (0, s) and (s, 0), s = var(y); each start first fits
    its nonzero component with the other held at VAR_FLOOR, and the best
    start wins.  A pinned component (see below) starts at VAR_FLOOR.  A step
    solves information @ step = score over the free components: one at VAR_FLOOR
    stays there when its score is <= 0 or its step points down (the KKT
    conditions).  A step is halved until the loglik rises; a trial point
    that cannot be factored counts as no rise.  A start has converged when
    the Newton decrement score @ step is at most 1e-9 (that last step is
    still taken once), or at most 1e-6 once no halving raises the loglik
    (its rounding limit); one that uses up MAX_EVALUATIONS gives
    converged=False.  A component that ``Problem.pin`` marks as not
    identified stays at VAR_FLOOR: sigma2_xi with a single study (with a
    warning), sigma2_zeta when every study has one trial.  The fit is the
    one-design case of ``fit_designs``.  A design with no more trials than
    columns raises ValidationError, a collinear one LinAlgError (see
    Problem).
    """
    return fit_or_raise(next(fit_designs(y, X, group_sizes, v, method))[1])


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


def pooled_mean(fit: FitResult) -> tuple:
    """(mu, se) of the model prediction at the column means of the design:
    the transformed-scale part of ``pooled_estimate``."""
    c = fit.X.mean(axis=0)
    return float(c @ fit.beta), math.sqrt(max(float(c @ fit.cov_beta @ c), 0.0))


def intervals(estimate, se, z: float = Z95) -> tuple:
    """Symmetric CIs on both scales for an array of estimates and their SEs.

    Returns (ends, props), each with a last axis of three: ``ends`` holds
    (estimate, low, high) = estimate and estimate -/+ z se on the
    transformed scale, and ``props`` their back-transforms to proportions,
    each end clamped to [0, pi/2] and inverted at the effective sample
    size n = 1/se^2 (inf where se = 0).  The back-transformed estimate is
    the accuracy at the estimated transformed effect, not a mean accuracy.
    """
    estimate, se = np.asarray(estimate, np.float64), np.asarray(se, np.float64)
    ends = np.stack([estimate, estimate - z * se, estimate + z * se], axis=-1)
    with np.errstate(divide="ignore"):
        n_equiv = 1.0 / (se * se)
    return ends, ft_inverse_array(np.clip(ends, 0.0, HALF_PI), n_equiv[..., None])


def pooled_estimate(fit: FitResult, level: float = 0.95,
                    quantile: str = "normal") -> PooledEstimate:
    """Population mean with a symmetric CI, on both scales.

    For moderated models the estimate is the model prediction at the
    column means of the design (the average observed trial); for the
    intercept-only model this is exactly the intercept.  The proportion
    scale uses the back-transform with effective sample size 1/se^2, so
    ``prop`` is the accuracy of a study at the mean transformed effect,
    not the mean accuracy, which averages over the random effects.
    The default CI uses normal quantiles; quantile="t" switches to a
    Student-t with m - f degrees of freedom.  level must lie in (0, 1).
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    mu, se = pooled_mean(fit)
    if quantile == "normal":
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
    elif quantile == "t":
        z = _t_quantile(fit.m - fit.f, 0.5 + level / 2.0)
    else:
        raise ValueError(f"unknown quantile kind {quantile!r}")
    (mu, lo, hi), (prop, prop_low, prop_high) = (a.tolist() for a in intervals(mu, se, z))
    return PooledEstimate(mu=mu, se=se, ci_low=lo, ci_high=hi, prop=prop,
                          prop_low=prop_low, prop_high=prop_high)


def _t_quantile(df: int, p: float) -> float:
    """Student-t quantile for integer df >= 1 and 1/2 <= p < 1.

    With t = sqrt(df) tan(theta), P(|T| <= t) is sin(theta) times a finite
    series in cos(theta) (Abramowitz & Stegun 26.7.3-26.7.4), plus theta for
    odd df, and is concave in theta; so Newton steps from the normal
    quantile, which lies below the t quantile, rise monotonically to the
    root.  The powers of cos(theta)^2 come from log1p(-sin(theta)^2), which
    keeps its relative accuracy when theta is small and df large.
    """
    if df == 1:
        return math.tan(math.pi * (p - 0.5))
    target = 2.0 * p - 1.0
    power = np.arange(df % 2, df - 1, 2)                # the powers of cos(theta)
    coef = np.cumprod(np.r_[1.0, (power[1:] - 1.0) / power[1:]])
    theta = math.atan(NormalDist().inv_cdf(p) / math.sqrt(df))
    for _ in range(100):
        terms = coef * np.exp(0.5 * math.log1p(-math.sin(theta) ** 2) * power)
        value = math.sin(theta) * float(terms.sum())
        slope = (df - 1) * float(terms[-1]) * math.cos(theta)   # d value / d theta
        if df % 2:
            value, slope = (theta + value) * 2.0 / math.pi, slope * 2.0 / math.pi
        step = (target - value) / slope
        theta += step
        if step <= 1e-16 * theta:
            break
    return math.sqrt(df) * math.tan(theta)


def predict_study_effects(fit: FitResult, method: str = "blup") -> tuple:
    """Per-study effect predictions for the forest display: (kappa, se),
    arrays in the study order of ``fit.group_sizes``.

    blup: conditional mean of the study effect given the data at the
    plugged-in variance components, shrunk toward the population mean;
    the se is the conditional standard deviation.  pool: classic
    within-study inverse-variance average, no shrinkage.
    """
    if method not in ("blup", "pool"):
        raise ValueError(f"unknown prediction method {method!r}")

    xi, zeta = fit.varcomps.sigma2_xi, fit.varcomps.sigma2_zeta
    sizes = fit.group_sizes
    offsets = np.cumsum(sizes) - sizes
    if method == "pool":                             # within-study inverse-variance mean
        w = 1.0 / fit.v
        s = np.add.reduceat(w, offsets)
        return np.add.reduceat(w * fit.y, offsets) / s, np.sqrt(1.0 / s)
    d = 1.0 / (fit.v + zeta)                         # mean fit plus the shrunken residual
    s = np.add.reduceat(d, offsets)
    fitted = fit.X @ fit.beta
    kappa = (np.add.reduceat(fitted, offsets) / sizes
             + xi * np.add.reduceat(d * (fit.y - fitted), offsets) / (1.0 + xi * s))
    return kappa, np.sqrt(xi / (1.0 + xi * s))


def study_weights(fit: FitResult) -> np.ndarray:
    """Per-study share of the total GLS weight, normalized to sum to 1."""
    d = 1.0 / (fit.v + fit.varcomps.sigma2_zeta)
    s = np.add.reduceat(d, np.cumsum(fit.group_sizes) - fit.group_sizes)
    w = s / (1.0 + fit.varcomps.sigma2_xi * s)
    return w / w.sum()


def effect_arrays(dataset):
    """Transformed effect sizes and sampling variances for a dataset."""
    return ft_theta(dataset.k, dataset.n), ft_variance(dataset.n)
