"""Correctness checks that do not use metaprop's estimation engine.

The reference likelihood builds the full m x m marginal covariance and
uses dense ``slogdet``/``solve``, so it shares no code with the
engine's per-study Sherman-Morrison accumulators.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from itertools import groupby

import numpy as np

LOGLIK_RTOL = 1e-8


def effects(trials):
    """Double arcsine effects, sampling variances and study sizes.

    ``trials`` is a sequence of (study_id, k, n) in study-contiguous order.
    """
    k = np.asarray([t[1] for t in trials], dtype=np.float64)
    n = np.asarray([t[2] for t in trials], dtype=np.float64)
    y = 0.5 * (np.arcsin(np.sqrt(k / (n + 1.0))) + np.arcsin(np.sqrt((k + 1.0) / (n + 1.0))))
    v = 1.0 / (4.0 * n + 2.0)
    sizes = [len(list(group)) for _, group in groupby(t[0] for t in trials)]
    return y, v, sizes


def dense_covariance(v, sizes, sigma2_xi: float, sigma2_zeta: float) -> np.ndarray:
    V = np.diag(np.asarray(v, dtype=np.float64) + sigma2_zeta)
    start = 0
    for size in sizes:
        V[start:start + size, start:start + size] += sigma2_xi
        start += size
    return V


def dense_reml_loglik(y, X, v, sizes, sigma2_xi: float, sigma2_zeta: float) -> float:
    """Restricted log-likelihood at fixed variance components, densely."""
    X = np.asarray(X, dtype=np.float64)
    m, f = X.shape
    V = dense_covariance(v, sizes, sigma2_xi, sigma2_zeta)
    _, logdet_v = np.linalg.slogdet(V)
    vi_x = np.linalg.solve(V, X)
    vi_y = np.linalg.solve(V, y)
    A = X.T @ vi_x
    _, logdet_a = np.linalg.slogdet(A)
    beta = np.linalg.solve(A, X.T @ vi_y)
    r = y - X @ beta
    rss = float(r @ np.linalg.solve(V, r))
    return -0.5 * ((m - f) * math.log(2.0 * math.pi) + logdet_v + logdet_a + rss)


def dense_gls_intercept(y, v, sizes, sigma2_xi: float, sigma2_zeta: float):
    """Intercept-only GLS estimate and its standard error, densely."""
    V = dense_covariance(v, sizes, sigma2_xi, sigma2_zeta)
    vi_one = np.linalg.solve(V, np.ones(len(y)))
    info = float(vi_one.sum())
    return float(vi_one @ y) / info, 1.0 / math.sqrt(info)


def close(ours: float, theirs: float, rtol: float = LOGLIK_RTOL) -> bool:
    return math.isfinite(theirs) and abs(ours - theirs) <= rtol * max(abs(theirs), 1.0)


def loglik_matches(reported: float, y, X, v, sizes, sigma2_xi, sigma2_zeta) -> bool:
    """Whether a reported REML loglik agrees with the dense reference."""
    return close(dense_reml_loglik(y, X, v, sizes, sigma2_xi, sigma2_zeta), reported)


def svg_parses(text: str) -> bool:
    try:
        root = ET.fromstring(text)
    except ET.ParseError:
        return False
    return root.tag.endswith("svg")
