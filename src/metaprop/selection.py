"""Subset search over feature groups and the five-model comparison.

Five models are compared: the intercept-only null, the full model with
every feature, and one model optimized for each of AIC, BIC, and RMSE.
Categorical features enter and leave the candidate designs as whole
dummy blocks.  The default search is exhaustive over the feature
groups, which is deliberate: with a dozen groups that is a few thousand
fits and removes any search-strategy ambiguity from the results.

Every fit here, the search trail's and the five rows', goes through
``fit_subsets``, which ``simulate.recovery_experiment`` also uses: each
subset's design is a column slice of its dataset's candidate columns,
the kept columns of every design of one call are decided together (one
batched QR per width and round, not one encoder call per subset), and
``engine.fit_designs`` fits the slices of one call together, batched by
width inside the engine.  Each fit is still the one ``engine.fit_model``
gives that subset alone, so a row's AIC, BIC and RMSE equal its
subset's trail record.

The exhaustive search uses every core this process may run on: its
subsets are grouped by offered width, the width classes are split into
one share per core (at most one per class), and a forked child fits
each share but the first, which this process fits meanwhile and then
merges the children's records in (see ``_exhaustive_trail``).  A
design's fit never depends on its companions, so the trail is the
serial one bit for bit.  Stepwise passes and the five rows' refit stay
serial.

A caveat worth stating once: comparing REML likelihoods across models
with different fixed effects is not strictly clean, but it mirrors the
single estimation method used throughout; an ML mode is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, heterogeneity
from .ingest import Dataset, ValidationError, independent_columns, offered_columns

__all__ = [
    "ModelComparisonRow",
    "TrailRecord",
    "criterion",
    "fit_subsets",
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


def fit_subsets(datasets, subsets, method: str):
    """(i, fit or error) per design, lazily: design i = r * len(subsets) + j
    is feature subset j of dataset r, its ``encode_design`` slice of that
    dataset's candidate columns.

    The datasets are read in order when this is called, and only each one's effects,
    sampling variances, candidate columns and study layout are kept, so an iterable of
    them need not be held at once; a dataset whose ``group_sizes()`` differ from the
    first one's raises ValueError.  One ``independent_columns`` call decides the kept
    columns of every design, and ``engine.fit_designs`` fits them: each design with its
    dataset's y and v row, one row shared by all designs of one dataset."""
    rows, blocks, sets, width, layouts = [], [], [], 0, []
    for data in datasets:
        layouts.append(data.group_sizes())
        if not np.array_equal(layouts[-1], layouts[0]):
            raise ValueError(f"dataset {len(rows)} has another study layout than dataset 0")
        rows.append(engine.effect_arrays(data))
        blocks.append(data.candidate_columns[0])
        sets += [[width + i for i in offered_columns(data, s)] for s in subsets]
        width += blocks[-1].shape[1]
    if len(rows) == 1:
        (y, v), X = rows[0], blocks[0]
    else:
        y, v = (np.repeat(np.array(a), len(subsets), 0) for a in zip(*rows))
        X = np.hstack(blocks)
    return engine.fit_designs(y, X, layouts[0], v, method, independent_columns(X, sets))


def _record(features, fit) -> TrailRecord:
    if isinstance(fit, Exception):
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
    for j, fit in fit_subsets([dataset], subsets, method):
        records[j] = _record(subsets[j], fit)
    return records


def _workers() -> int:
    """How many processes an exhaustive search may use: the cores this
    process may run on, or 1 where ``os.sched_getaffinity`` is missing or
    while another Python thread is alive (a fork copies only the calling
    thread, so a lock another thread holds would stay held in the child)."""
    import os
    import threading

    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _shares(widths: list, count: int) -> list:
    """The subset indices split into ``count`` shares of whole width classes.

    ``widths[j]`` is subset j's offered width f.  A class of d designs
    costs about d (f + 4)^2 + 200; classes go longest first, each to the
    least-loaded share."""
    classes: dict = {}
    for j, f in enumerate(widths):
        classes.setdefault(f, []).append(j)
    cost = {f: len(members) * (f + 4) ** 2 + 200 for f, members in classes.items()}
    shares, loads = [[] for _ in range(count)], [0] * count
    for f in sorted(classes, key=cost.get, reverse=True):
        least = loads.index(min(loads))
        shares[least] += classes[f]
        loads[least] += cost[f]
    return [sorted(share) for share in shares]


def _forked_trail(dataset: Dataset, subsets, method: str, shares: list) -> list:
    """``_subset_trail`` of every subset: shares[0] fitted here, each other
    share in a forked child that pipes back its records and warnings, or
    the exception it raised.  No child outlives the call."""
    import os
    import pickle
    import warnings

    children, reaped, payloads = [], set(), []       # (pid, read end) per child
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:                             # the child: never returns, flushes nothing
                status = 1
                try:
                    for fd in [read] + [other for _, other in children]:
                        os.close(fd)
                    with warnings.catch_warnings(record=True) as caught:
                        try:
                            payload = (_subset_trail(dataset, [subsets[j] for j in share], method),
                                       [(w.message, w.category, w.filename, w.lineno)
                                        for w in caught])
                        except BaseException as exc:
                            payload = exc
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(payload, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, read))
        own = _subset_trail(dataset, [subsets[j] for j in shares[0]], method)
        for pid, read in children:
            # to EOF before waitpid: a child blocks while its pipe is full
            data = b"".join(iter(lambda: os.read(read, 1 << 16), b""))
            os.waitpid(pid, 0)
            reaped.add(pid)
            if not data:
                raise RuntimeError(f"search process {pid} ended without a result")
            payloads.append(pickle.loads(data))
    finally:
        for pid, read in children:
            os.close(read)
            if pid not in reaped:
                os.kill(pid, 9)                      # SIGKILL
                os.waitpid(pid, 0)
    for payload in payloads:
        if isinstance(payload, BaseException):
            raise payload
    records = [None] * len(subsets)
    for share, share_records in zip(shares, [own] + [p[0] for p in payloads]):
        for j, record in zip(share, share_records):
            records[j] = record
    for _, notes in payloads:
        for note in notes:
            warnings.warn_explicit(*note)
    return records


def _exhaustive_trail(dataset: Dataset, method: str) -> list:
    """One TrailRecord per subset of the feature groups, subset index = bit mask.

    The subsets are grouped by offered width (``offered_columns``, before
    the rank rule, which runs inside each process's own ``fit_subsets``
    call) and the width classes split into min(``_workers()``, classes)
    shares (see ``_shares``); a child forked per extra share fits it while
    this process fits the first.  A design's iterates never depend on its
    companions, so every record equals the serial trail's bit for bit, and
    only records cross the pipe.  One share, as with one usable core, one
    width class, no ``os.sched_getaffinity`` (non-Linux) or another Python
    thread alive, is fitted in this process and forks nothing.  Stepwise
    passes stay serial: each pass is a few dozen fits, and on 2 cores a fork
    per pass took the example's stepwise search from 0.58 to 0.51 s of wall
    time but from 0.58 to 0.83 s of CPU.  On Python >= 3.12 a fork in a process
    whose BLAS has started threads issues a DeprecationWarning; the CLI
    runs BLAS on one thread, so its searches fork without one.
    """
    names = dataset.schema.names
    n_feat = len(names)
    if n_feat > MAX_EXHAUSTIVE_FEATURES:
        raise ValidationError(
            f"exhaustive search over {n_feat} features is infeasible "
            f"(limit {MAX_EXHAUSTIVE_FEATURES}); use strategy='stepwise'")
    subsets = [tuple(n for i, n in enumerate(names) if mask >> i & 1)  # mask doubles as index
               for mask in range(2 ** n_feat)]
    widths = [len(offered_columns(dataset, s)) for s in subsets]
    count = min(_workers(), len(set(widths)))
    return _forked_trail(dataset, subsets, method, _shares(widths, count))


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
    record = _record(features, fit)
    if record.skipped is not None:
        return ModelComparisonRow(name=name, features=record.features, note=record.skipped)
    s = heterogeneity.summarize(fit)
    r2 = (None, None) if name == "Null" else heterogeneity.r_squared(fit, fit_null)
    return ModelComparisonRow(
        name=name, features=tuple(features), f=fit.f,
        aic=record.aic, bic=record.bic, rmse=record.rmse,
        q=s.q, q_df=s.q_df, q_pvalue=s.q_pvalue, sigma2_xi=s.sigma2_xi,
        sigma2_zeta=s.sigma2_zeta, i2_xi=s.i2_xi, i2_zeta=s.i2_zeta,
        mu=s.mu, mu_se=s.se, mu_prop=s.prop, mu_prop_low=s.prop_ci[0], mu_prop_high=s.prop_ci[1],
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
    fits = dict(fit_subsets([dataset], [features for _, features in plan], method))
    engine.fit_or_raise(fits[0])
    rows = [_comparison_row(name, features, fits[j], fits[0])
            for j, (name, features) in enumerate(plan)]
    rows.sort(key=lambda r: (math.inf if math.isnan(r.aic) else r.aic))
    return rows, trail
