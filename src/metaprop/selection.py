"""Subset search over feature groups and the five-model comparison.

Five models are compared: the intercept-only null, the full model with
every feature, and one model optimized for each of AIC, BIC, and RMSE.
Categorical features enter and leave the candidate designs as whole
dummy blocks.  The default search is exhaustive over the feature
groups, which is deliberate: with a dozen groups that is a few thousand
fits and removes any search-strategy ambiguity from the results.

Every fit here, the search trail's and the five rows', goes through
``_fits``: each subset's design is a column slice of the dataset's
candidate columns, the kept columns of every subset of one call are
decided together (one batched QR per width and round, not one encoder
call per subset), and ``engine.fit_designs`` fits the slices of one
call together, batched by width inside the engine.  Each fit is still
the one ``engine.fit_model`` gives that subset alone, so a row's AIC,
BIC and RMSE equal its subset's trail record.

A caveat worth stating once: comparing REML likelihoods across models
with different fixed effects is not strictly clean, but it mirrors the
single estimation method used throughout; an ML mode is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, heterogeneity
from .ingest import Dataset, ValidationError, subset_columns

__all__ = [
    "ModelComparisonRow",
    "TrailRecord",
    "criterion",
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
    """One evaluated candidate subset; its index is its position in the trail.
    A subset that failed sets only its features and ``skipped``."""

    features: tuple
    f: int = 0
    loglik: float | None = None
    aic: float | None = None
    bic: float | None = None
    rmse: float | None = None
    converged: bool = False
    skipped: str | None = None


def _fits(dataset: Dataset, subsets, method: str):
    """(j, fit or error) per feature subset, lazily: the one place this module
    fits anything.  Subset j's design is its ``encode_design`` slice of the
    candidate columns, with the kept columns of every subset decided by one
    ``ingest.subset_columns`` call; ``engine.fit_designs`` batches the designs."""
    columns = subset_columns(dataset, subsets)
    y, v = engine.effect_arrays(dataset)
    return engine.fit_designs(y, dataset.candidate_columns[0], dataset.group_sizes(), v,
                              method, columns)


def _record(features, fit) -> TrailRecord:
    if isinstance(fit, (ValidationError, np.linalg.LinAlgError)):
        return TrailRecord(features=tuple(features), skipped=str(fit))
    residuals = fit.y - fit.X @ fit.beta
    return TrailRecord(
        features=tuple(features), f=fit.f, loglik=fit.loglik,
        aic=criterion(fit, residuals, "aic"),
        bic=criterion(fit, residuals, "bic"),
        rmse=criterion(fit, residuals, "rmse"),
        converged=fit.converged)


def _subset_trail(dataset: Dataset, subsets, method: str) -> list:
    """One TrailRecord per feature subset, in order."""
    records = [None] * len(subsets)
    for j, fit in _fits(dataset, subsets, method):
        records[j] = _record(subsets[j], fit)
    return records


def _exhaustive_trail(dataset: Dataset, method: str) -> list:
    names = dataset.schema.names
    n_feat = len(names)
    if n_feat > MAX_EXHAUSTIVE_FEATURES:
        raise ValidationError(
            f"exhaustive search over {n_feat} features is infeasible "
            f"(limit {MAX_EXHAUSTIVE_FEATURES}); use strategy='stepwise'")
    subsets = [tuple(n for i, n in enumerate(names) if mask >> i & 1)  # mask doubles as index
               for mask in range(2 ** n_feat)]
    return _subset_trail(dataset, subsets, method)


def _best_record(trail, kind: str) -> TrailRecord:
    viable = [r for r in trail if r.skipped is None]
    if not viable:
        raise ValidationError("no candidate subset could be fitted")
    return min(viable, key=lambda r: (getattr(r, kind), r.f, r.features))


def _stepwise_trail(dataset: Dataset, method: str, kind: str, trail: list) -> tuple:
    """Greedy forward-backward passes; returns the best features.

    Each candidate's record is appended to ``trail``.  The moves of one
    pass are fitted together."""
    names = dataset.schema.names

    def score(subsets):
        records = _subset_trail(dataset, subsets, method)
        trail.extend(records)
        return records

    current: list = []
    best = score([current])[0]
    if best.skipped is not None:
        raise ValidationError(f"null model failed: {best.skipped}")
    while True:
        moves = []
        for name in names:
            if name in current:
                moves.append([f for f in current if f != name])
            else:
                moves.append(sorted(current + [name], key=names.index))
        candidates = score(moves)
        if all(r.skipped is not None for r in candidates):
            break
        challenger = _best_record(candidates, kind)
        if getattr(challenger, kind) < getattr(best, kind):
            best = challenger
            current = list(challenger.features)
        else:
            break
    return best.features


def _winners(dataset: Dataset, strategy: str, method: str) -> tuple:
    """({kind: criterion-minimal features}, trail) for each of ``_CRITERIA``.

    Exhaustive evaluates every subset of the feature groups once for all
    kinds; stepwise runs its own passes per kind, each appending to one
    trail.  Ties break toward fewer coefficients, then lexicographic
    feature order.
    """
    if strategy == "exhaustive":
        trail = _exhaustive_trail(dataset, method)
        return {kind: _best_record(trail, kind).features for kind in _CRITERIA}, trail
    if strategy == "stepwise":
        trail: list = []
        return {kind: _stepwise_trail(dataset, method, kind, trail) for kind in _CRITERIA}, trail
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass
class ModelComparisonRow:
    """One row of the five-model comparison table; a model that failed sets
    only its name, features and ``note``."""

    name: str
    features: tuple
    f: int = 0
    aic: float = math.nan
    bic: float = math.nan
    rmse: float = math.nan
    q: float = math.nan
    q_df: int = 0
    q_pvalue: float = math.nan
    sigma2_xi: float = math.nan
    sigma2_zeta: float = math.nan
    i2_xi: float = math.nan
    i2_zeta: float = math.nan
    mu: float = math.nan
    mu_se: float = math.nan
    mu_prop: float = math.nan
    mu_prop_low: float = math.nan
    mu_prop_high: float = math.nan
    r2_xi: float | None = None
    r2_zeta: float | None = None
    converged: bool = False
    note: str | None = None


def _comparison_row(name, features, fit, fit_null) -> ModelComparisonRow:
    if isinstance(fit, (ValidationError, np.linalg.LinAlgError)):
        return ModelComparisonRow(name=name, features=tuple(features), note=str(fit))
    record = _record(features, fit)
    het = heterogeneity.heterogeneity_report(fit)
    pooled = engine.pooled_estimate(fit)
    r2 = (None, None) if name == "Null" else heterogeneity.r_squared(fit, fit_null)
    return ModelComparisonRow(
        name=name, features=tuple(features), f=fit.f,
        aic=record.aic, bic=record.bic, rmse=record.rmse,
        q=het.q, q_df=het.q_df, q_pvalue=het.q_pvalue,
        sigma2_xi=fit.varcomps.sigma2_xi, sigma2_zeta=fit.varcomps.sigma2_zeta,
        i2_xi=het.i2_xi, i2_zeta=het.i2_zeta,
        mu=pooled.mu, mu_se=pooled.se, mu_prop=pooled.prop,
        mu_prop_low=pooled.prop_low, mu_prop_high=pooled.prop_high,
        r2_xi=r2[0], r2_zeta=r2[1], converged=fit.converged)


def five_model_protocol(dataset: Dataset, strategy: str = "exhaustive",
                        method: str = "reml"):
    """Fit Null, Full, and the AIC/BIC/RMSE-optimized models.

    Returns (rows, trail) with rows ordered by AIC ascending.  Fit
    failures annotate the affected row instead of aborting the protocol;
    only a failed Null fit, which every R^2 needs, raises.
    """
    winners, trail = _winners(dataset, strategy, method)
    plan = [("Null", ()), ("Full", tuple(dataset.schema.names)),
            ("AIC", winners["aic"]), ("BIC", winners["bic"]), ("RMSE", winners["rmse"])]
    fits = dict(_fits(dataset, [features for _, features in plan], method))
    if not isinstance(fits[0], engine.FitResult):
        raise fits[0]
    rows = [_comparison_row(name, features, fits[j], fits[0])
            for j, (name, features) in enumerate(plan)]
    rows.sort(key=lambda r: (math.inf if math.isnan(r.aic) else r.aic))
    return rows, trail
