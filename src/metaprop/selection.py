"""Subset search over feature groups and the five-model comparison.

Five models are compared: the intercept-only null, the full model with
every feature, and one model optimized for each of AIC, BIC, and RMSE.
Categorical features enter and leave the candidate designs as whole
dummy blocks.  The default search is exhaustive over the feature
groups, which is deliberate: with a dozen groups that is a few thousand
fits and removes any search-strategy ambiguity from the results.

A caveat worth stating once: comparing REML likelihoods across models
with different fixed effects is not strictly clean, but it mirrors the
single estimation method used throughout; an ML mode is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, heterogeneity
from .ingest import Dataset, ValidationError, encode_design

__all__ = [
    "ModelComparisonRow",
    "TrailRecord",
    "SearchResult",
    "criterion",
    "search",
    "five_model_protocol",
]

_CRITERIA = ("aic", "bic", "rmse")
MAX_EXHAUSTIVE_FEATURES = 20


def criterion(fit: engine.FitResult, residuals, kind: str) -> float:
    """Model-selection score; lower is better for all three kinds.

    AIC = -2 loglik + 2 q and BIC = -2 loglik + q log(m_eff), where q
    counts the fixed effects plus the two variance components and m_eff
    is m for ML fits and m - f for REML fits.  RMSE is the root mean
    squared fixed-effect residual on the transformed scale and carries
    no complexity penalty at all.
    """
    if kind == "rmse":
        r = np.asarray(residuals, dtype=np.float64)
        return float(np.sqrt(np.mean(r * r)))
    q = fit.f + 2
    if kind == "aic":
        return -2.0 * fit.loglik + 2.0 * q
    if kind == "bic":
        m_eff = fit.m - fit.f if fit.method == "reml" else fit.m
        return -2.0 * fit.loglik + q * math.log(m_eff)
    raise ValueError(f"unknown criterion kind {kind!r}")


@dataclass(frozen=True)
class TrailRecord:
    """One evaluated candidate subset."""

    index: int
    features: tuple
    f: int
    loglik: float | None
    aic: float | None
    bic: float | None
    rmse: float | None
    converged: bool
    skipped: str | None = None


@dataclass
class SearchResult:
    """Winning subset of a criterion search plus the full trail."""

    features: tuple
    fit: engine.FitResult
    criterion_kind: str
    criterion_value: float
    trail: list


def _fit_subset(dataset: Dataset, y, v, group_sizes, features, method: str):
    design = encode_design(dataset, features)
    fit = engine.fit_model(y, design, group_sizes, v, method=method)
    residuals = y - fit.X @ fit.beta
    return design, fit, residuals


def _evaluate_subset(dataset, y, v, group_sizes, index, features, method):
    try:
        _, fit, residuals = _fit_subset(dataset, y, v, group_sizes, features, method)
    except (ValidationError, np.linalg.LinAlgError) as exc:
        return TrailRecord(index=index, features=tuple(features), f=0, loglik=None,
                           aic=None, bic=None, rmse=None, converged=False,
                           skipped=str(exc))
    return TrailRecord(
        index=index, features=tuple(features), f=fit.f, loglik=fit.loglik,
        aic=criterion(fit, residuals, "aic"),
        bic=criterion(fit, residuals, "bic"),
        rmse=criterion(fit, residuals, "rmse"),
        converged=fit.converged)


def _exhaustive_trail(dataset: Dataset, method: str) -> list:
    names = dataset.schema.names
    n_feat = len(names)
    if n_feat > MAX_EXHAUSTIVE_FEATURES:
        raise ValidationError(
            f"exhaustive search over {n_feat} features is infeasible "
            f"(limit {MAX_EXHAUSTIVE_FEATURES}); use strategy='stepwise'")
    y, v = engine.effect_arrays(dataset)
    group_sizes = dataset.group_sizes()
    return [_evaluate_subset(dataset, y, v, group_sizes, mask,  # mask doubles as index
                             tuple(n for i, n in enumerate(names) if mask >> i & 1), method)
            for mask in range(2 ** n_feat)]


def _best_record(trail, kind: str) -> TrailRecord:
    viable = [r for r in trail if r.skipped is None]
    if not viable:
        raise ValidationError("no candidate subset could be fitted")
    return min(viable, key=lambda r: (getattr(r, kind), r.f, r.features))


def _stepwise_trail(dataset, y, v, group_sizes, method: str, kind: str) -> tuple:
    """Greedy forward-backward passes; returns (best_features, trail)."""
    names = dataset.schema.names
    trail: list = []
    index = 0

    def score(features):
        nonlocal index
        rec = _evaluate_subset(dataset, y, v, group_sizes, index, tuple(features), method)
        index += 1
        trail.append(rec)
        return rec

    current: list = []
    best = score(current)
    if best.skipped is not None:
        raise ValidationError(f"null model failed: {best.skipped}")
    while True:
        moves = []
        for name in names:
            if name in current:
                moves.append([f for f in current if f != name])
            else:
                moves.append(sorted(current + [name], key=names.index))
        candidates = [score(mv) for mv in moves]
        viable = [r for r in candidates if r.skipped is None]
        if not viable:
            break
        challenger = min(viable, key=lambda r: (getattr(r, kind), r.f, r.features))
        if getattr(challenger, kind) < getattr(best, kind):
            best = challenger
            current = list(challenger.features)
        else:
            break
    return best.features, trail


def search(dataset: Dataset, criterion_kind: str, strategy: str = "exhaustive",
           method: str = "reml") -> SearchResult:
    """Find the criterion-minimal feature subset.

    Exhaustive evaluates every subset of the feature groups; stepwise
    runs greedy forward-backward moves until no single-group change
    improves the criterion.  Ties break toward fewer coefficients, then
    lexicographic feature order, so results are deterministic.
    """
    if criterion_kind not in _CRITERIA:
        raise ValueError(f"criterion must be one of {_CRITERIA}, got {criterion_kind!r}")
    y, v = engine.effect_arrays(dataset)
    group_sizes = dataset.group_sizes()
    if strategy == "exhaustive":
        trail = _exhaustive_trail(dataset, method)
        best = _best_record(trail, criterion_kind)
        features = best.features
    elif strategy == "stepwise":
        features, trail = _stepwise_trail(dataset, y, v, group_sizes, method, criterion_kind)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    _, fit, residuals = _fit_subset(dataset, y, v, group_sizes, features, method)
    return SearchResult(features=tuple(features), fit=fit,
                        criterion_kind=criterion_kind,
                        criterion_value=criterion(fit, residuals, criterion_kind),
                        trail=trail)


@dataclass
class ModelComparisonRow:
    """One row of the five-model comparison table."""

    name: str
    features: tuple
    f: int
    aic: float
    bic: float
    rmse: float
    q: float
    q_df: int
    q_pvalue: float
    sigma2_xi: float
    sigma2_zeta: float
    i2_xi: float
    i2_zeta: float
    mu: float
    mu_se: float
    mu_prop: float
    mu_prop_low: float
    mu_prop_high: float
    r2_xi: float | None
    r2_zeta: float | None
    converged: bool
    note: str | None = None


def _comparison_row(name, features, fit, residuals, fit_null, sigma2_eps) -> ModelComparisonRow:
    q, df, p = heterogeneity.cochran_q(fit.y, fit.X, fit.v)
    i2_xi, i2_zeta, _ = heterogeneity.i_squared_levels(fit.varcomps, sigma2_eps)
    pooled = engine.pooled_estimate(fit)
    if name == "Null":
        r2 = (None, None)
    else:
        r2 = heterogeneity.r_squared(fit, fit_null)
    return ModelComparisonRow(
        name=name, features=tuple(features), f=fit.f,
        aic=criterion(fit, residuals, "aic"),
        bic=criterion(fit, residuals, "bic"),
        rmse=criterion(fit, residuals, "rmse"),
        q=q, q_df=df, q_pvalue=p,
        sigma2_xi=fit.varcomps.sigma2_xi, sigma2_zeta=fit.varcomps.sigma2_zeta,
        i2_xi=i2_xi, i2_zeta=i2_zeta,
        mu=pooled.mu, mu_se=pooled.se, mu_prop=pooled.prop,
        mu_prop_low=pooled.prop_low, mu_prop_high=pooled.prop_high,
        r2_xi=r2[0], r2_zeta=r2[1], converged=fit.converged)


def five_model_protocol(dataset: Dataset, strategy: str = "exhaustive",
                        method: str = "reml"):
    """Fit Null, Full, and the AIC/BIC/RMSE-optimized models.

    Returns (rows, trail) with rows ordered by AIC ascending.  Fit
    failures annotate the affected row instead of aborting the protocol.
    """
    y, v = engine.effect_arrays(dataset)
    group_sizes = dataset.group_sizes()
    names = dataset.schema.names
    sigma2_eps = heterogeneity.pooled_sampling_variance(v)

    _, fit_null, resid_null = _fit_subset(dataset, y, v, group_sizes, (), method)

    winners: dict = {}
    if strategy == "exhaustive":
        trail = _exhaustive_trail(dataset, method)
        for kind in _CRITERIA:
            winners[kind] = _best_record(trail, kind).features
    elif strategy == "stepwise":
        trail = []
        for kind in _CRITERIA:
            feats, sub_trail = _stepwise_trail(dataset, y, v, group_sizes, method, kind)
            winners[kind] = feats
            trail.extend(sub_trail)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    plan = [("Null", ()), ("Full", tuple(names)),
            ("AIC", winners["aic"]), ("BIC", winners["bic"]), ("RMSE", winners["rmse"])]
    rows = []
    for title, feats in plan:
        if title == "Null":
            rows.append(_comparison_row(title, feats, fit_null, resid_null, fit_null, sigma2_eps))
            continue
        try:
            _, fit, residuals = _fit_subset(dataset, y, v, group_sizes, feats, method)
            rows.append(_comparison_row(title, feats, fit, residuals, fit_null, sigma2_eps))
        except (ValidationError, np.linalg.LinAlgError) as exc:
            rows.append(ModelComparisonRow(
                name=title, features=tuple(feats), f=0, aic=math.nan, bic=math.nan,
                rmse=math.nan, q=math.nan, q_df=0, q_pvalue=math.nan,
                sigma2_xi=math.nan, sigma2_zeta=math.nan, i2_xi=math.nan,
                i2_zeta=math.nan, mu=math.nan, mu_se=math.nan, mu_prop=math.nan,
                mu_prop_low=math.nan, mu_prop_high=math.nan, r2_xi=None,
                r2_zeta=None, converged=False, note=str(exc)))
    rows.sort(key=lambda r: (math.inf if math.isnan(r.aic) else r.aic))
    return rows, trail
