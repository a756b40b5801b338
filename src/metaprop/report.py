"""Report rendering: forest plot SVG, regression tables, comparison tables.

All output here is plain text (SVG 1.1, markdown, CSV) with fixed
geometry and fixed number formatting, so identical inputs produce
byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np
from scipy.special import ndtr, ndtri

from . import engine
from .ingest import ValidationError
from .transforms import HALF_PI, ft_inverse

__all__ = [
    "ForestRow",
    "RegressionRow",
    "RegressionTable",
    "forest_plot",
    "regression_table",
    "comparison_table",
    "simple_table",
]

Z95 = float(ndtri(0.975))


@dataclass(frozen=True)
class ForestRow:
    """One study line of the forest plot, on the proportion scale."""

    study_id: str
    trials: int
    estimate: float
    ci: tuple
    weight: float


def _to_prop(t: float, se: float) -> float:
    n_equiv = math.inf if se <= 0.0 else 1.0 / (se * se)
    return ft_inverse(min(max(t, 0.0), HALF_PI), n_equiv)


def forest_rows(fit: engine.FitResult, dataset, method: str = "blup") -> list:
    effects = engine.predict_study_effects(fit, dataset, method=method)
    weights = engine.study_weights(fit)
    rows = []
    for eff, w in zip(effects, weights):
        est = _to_prop(eff.kappa_hat, eff.se)
        lo = _to_prop(eff.kappa_hat - Z95 * eff.se, eff.se)
        hi = _to_prop(eff.kappa_hat + Z95 * eff.se, eff.se)
        rows.append(ForestRow(study_id=eff.study_id, trials=eff.trials,
                              estimate=est, ci=(lo, hi), weight=float(w)))
    return rows


# fixed geometry: byte-stable SVG without font metrics
_W = 800
_ROW_H = 22
_PLOT_X0, _PLOT_X1 = 300, 620
_TOP = 46


def _x_of(p: float) -> float:
    return _PLOT_X0 + p * (_PLOT_X1 - _PLOT_X0)


def forest_plot(fit: engine.FitResult, dataset, scale: str = "proportion",
                method: str = "blup"):
    """Render the per-study forest plot as SVG text.

    One row per study (shrunken estimate with 95% CI and GLS weight), a
    diamond for the pooled estimate, axis in proportion units on [0, 1].
    Returns (svg_text, forest_rows).
    """
    if fit.f != 1:
        raise ValidationError("forest plot requires an intercept-only fit")
    if scale not in ("proportion", "transformed"):
        raise ValueError(f"unknown scale {scale!r}")
    rows = forest_rows(fit, dataset, method=method)
    pooled = engine.pooled_estimate(fit)

    if scale == "proportion":
        span = (0.0, 1.0)
        to_axis = lambda val: val
        p_est, p_lo, p_hi = pooled.prop, pooled.prop_low, pooled.prop_high
        row_pts = [(r.estimate, r.ci[0], r.ci[1]) for r in rows]
        axis_label = "overall accuracy"
    else:
        span = (0.0, HALF_PI)
        to_axis = lambda val: val / HALF_PI
        p_est, p_lo, p_hi = pooled.mu, pooled.ci_low, pooled.ci_high
        effects = engine.predict_study_effects(fit, dataset, method=method)
        row_pts = [(e.kappa_hat, e.kappa_hat - Z95 * e.se, e.kappa_hat + Z95 * e.se)
                   for e in effects]
        axis_label = "transformed accuracy"

    height = _TOP + (len(rows) + 3) * _ROW_H + 40
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{height}" '
        f'viewBox="0 0 {_W} {height}">',
        f'<rect x="0" y="0" width="{_W}" height="{height}" fill="white"/>',
        '<g font-family="monospace" font-size="12" fill="black">',
        f'<text x="10" y="{_TOP - 22}" font-weight="bold">Study</text>',
        f'<text x="200" y="{_TOP - 22}" font-weight="bold">Trials</text>',
        f'<text x="640" y="{_TOP - 22}" font-weight="bold">Estimate [95% CI]</text>',
    ]
    y = _TOP
    for row, pts in zip(rows, row_pts):
        cy = y + _ROW_H // 2
        est, lo, hi = pts
        x_lo = _x_of(min(max(to_axis(lo), 0.0), 1.0))
        x_hi = _x_of(min(max(to_axis(hi), 0.0), 1.0))
        x_est = _x_of(min(max(to_axis(est), 0.0), 1.0))
        half = 2.5 + 5.0 * row.weight / max(r.weight for r in rows)
        out.append(f'<text x="10" y="{cy + 4}">{escape(row.study_id)}</text>')
        out.append(f'<text x="200" y="{cy + 4}">{row.trials}</text>')
        out.append(f'<line x1="{x_lo:.2f}" y1="{cy}" x2="{x_hi:.2f}" y2="{cy}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<rect x="{x_est - half:.2f}" y="{cy - half:.2f}" '
                   f'width="{2 * half:.2f}" height="{2 * half:.2f}" fill="#444444"/>')
        out.append(f'<text x="640" y="{cy + 4}">{est:.2f} [{lo:.2f}; {hi:.2f}] '
                   f'({100 * row.weight:.1f}%)</text>')
        y += _ROW_H
    # pooled diamond
    y += _ROW_H // 2
    cy = y + _ROW_H // 2
    x_lo = _x_of(min(max(to_axis(p_lo), 0.0), 1.0))
    x_hi = _x_of(min(max(to_axis(p_hi), 0.0), 1.0))
    x_est = _x_of(min(max(to_axis(p_est), 0.0), 1.0))
    out.append(f'<text x="10" y="{cy + 4}" font-weight="bold">Pooled</text>')
    out.append(f'<polygon points="{x_lo:.2f},{cy} {x_est:.2f},{cy - 7} '
               f'{x_hi:.2f},{cy} {x_est:.2f},{cy + 7}" fill="#222222"/>')
    out.append(f'<text x="640" y="{cy + 4}" font-weight="bold">'
               f'{p_est:.2f} [{p_lo:.2f}; {p_hi:.2f}]</text>')
    # axis
    ay = cy + _ROW_H + 10
    out.append(f'<line x1="{_PLOT_X0}" y1="{ay}" x2="{_PLOT_X1}" y2="{ay}" '
               'stroke="black" stroke-width="1"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _x_of(frac)
        val = span[0] + frac * (span[1] - span[0])
        out.append(f'<line x1="{x:.2f}" y1="{ay}" x2="{x:.2f}" y2="{ay + 5}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{x - 10:.2f}" y="{ay + 18}">{val:.2f}</text>')
    out.append(f'<text x="{_PLOT_X0}" y="{ay + 34}">{escape(axis_label)}</text>')
    out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n", rows


def format_p(p: float) -> str:
    """p-values below 1e-4 render as '<.0001', like the result tables."""
    if p < 1e-4:
        return "<.0001"
    return f"{p:.4f}"


@dataclass(frozen=True)
class RegressionRow:
    label: str
    beta: float
    se: float
    p: float
    ci_low: float
    ci_high: float
    feature: str | None = None


@dataclass
class RegressionTable:
    """Coefficient table with reference-level annotations."""

    rows: list
    feature_order: list
    reference_levels: dict
    dropped: list

    def markdown(self) -> str:
        lines = ["|  | beta | SE | p | 95% CI |", "| --- | --- | --- | --- | --- |"]

        def coef_line(row, indent=""):
            return (f"| {indent}{row.label} | {row.beta:.4f} | {row.se:.4f} | "
                    f"{format_p(row.p)} | [{row.ci_low:.4f}; {row.ci_high:.4f}] |")

        by_feature: dict = {}
        for row in self.rows:
            by_feature.setdefault(row.feature, []).append(row)
        for row in by_feature.get(None, []):
            lines.append(coef_line(row))
        for feat in self.feature_order:
            rows = by_feature.get(feat, [])
            ref = self.reference_levels.get(feat)
            if ref is not None:
                lines.append(f"| **{feat}** (Ref: {ref}) |  |  |  |  |")
                for row in rows:
                    lines.append(coef_line(row, indent="&nbsp;&nbsp;"))
            else:
                for row in rows:
                    lines.append(coef_line(row))
        if self.dropped:
            lines.append("")
            lines.append(f"Dropped as redundant (collinear): {', '.join(self.dropped)}.")
        return "\n".join(lines) + "\n"

    def csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "feature", "beta", "se", "p", "ci_low", "ci_high"])
        for row in self.rows:
            writer.writerow([row.label, row.feature or "",
                             f"{row.beta:.6g}", f"{row.se:.6g}", f"{row.p:.6g}",
                             f"{row.ci_low:.6g}", f"{row.ci_high:.6g}"])
        return buf.getvalue()


def regression_table(fit: engine.FitResult, design) -> RegressionTable:
    """Coefficient estimates with normal-theory tests and 95% CIs.

    Labels follow the design matrix; dummy labels are shortened to the
    category name and grouped under a feature heading annotated with the
    reference level.  Columns dropped for collinearity are listed in a
    footnote.
    """
    rows = []
    se_all = np.sqrt(np.maximum(np.diag(fit.cov_beta), 0.0))
    for i, label in enumerate(fit.labels):
        beta = float(fit.beta[i])
        se = float(se_all[i])
        if se > 0:
            p = float(2.0 * ndtr(-abs(beta) / se))
        else:
            p = 1.0 if beta == 0 else 0.0
        feature = None
        display = label
        if label != "intercept":
            for feat, labels in design.feature_groups.items():
                if label in labels:
                    feature = feat
                    display = label.split("=", 1)[1] if "=" in label else label
                    break
        if label == "intercept":
            display = "Intercept"
        rows.append(RegressionRow(label=display, beta=beta, se=se, p=p,
                                  ci_low=beta - Z95 * se, ci_high=beta + Z95 * se,
                                  feature=feature))
    order = [f for f in design.feature_groups.keys()]
    return RegressionTable(rows=rows, feature_order=order,
                           reference_levels=dict(design.reference_levels),
                           dropped=list(design.dropped))


_COMPARISON_HEADERS = [
    "Model", "f", "AIC", "BIC", "RMSE", "Q",
    "sigma2_xi (I2_xi)", "sigma2_zeta (I2_zeta)", "mu [95% CI]",
    "R2_xi", "R2_zeta",
]

_CSV_FIELDS = [
    "model", "f", "aic", "bic", "rmse", "q", "sigma2_xi", "i2_xi",
    "sigma2_zeta", "i2_zeta", "mu_prop", "mu_prop_low", "mu_prop_high",
    "r2_xi", "r2_zeta", "features",
]


def _fmt_r2(val) -> str:
    return "" if val is None else f"{val:.2f}"


def comparison_table(rows, format: str = "markdown") -> str:
    """Serialize comparison rows, AIC-ascending, as markdown or CSV."""
    if not rows:
        raise ValidationError("comparison table needs at least one row")
    rows = sorted(rows, key=lambda r: (math.inf if math.isnan(r.aic) else r.aic))
    if format == "markdown":
        lines = ["| " + " | ".join(_COMPARISON_HEADERS) + " |",
                 "| " + " | ".join(["---"] * len(_COMPARISON_HEADERS)) + " |"]
        for r in rows:
            if r.note is not None:
                lines.append(f"| {r.name} | - | - | - | - | - | - | - | - | - | - |")
                continue
            lines.append(
                f"| {r.name} | {r.f} | {r.aic:.2f} | {r.bic:.2f} | {r.rmse:.2f} "
                f"| {r.q:.2f} | {r.sigma2_xi:.4f} ({r.i2_xi:.2f}) "
                f"| {r.sigma2_zeta:.4f} ({r.i2_zeta:.2f}) "
                f"| {r.mu_prop:.2f} [{r.mu_prop_low:.2f}; {r.mu_prop_high:.2f}] "
                f"| {_fmt_r2(r.r2_xi)} | {_fmt_r2(r.r2_zeta)} |")
        notes = [r for r in rows if r.note is not None]
        if notes:
            lines.append("")
            for r in notes:
                lines.append(f"{r.name}: fit failed ({r.note}).")
        return "\n".join(lines) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        for r in rows:
            writer.writerow([
                r.name, r.f, _g6(r.aic), _g6(r.bic), _g6(r.rmse), _g6(r.q),
                _g6(r.sigma2_xi), _g6(r.i2_xi), _g6(r.sigma2_zeta), _g6(r.i2_zeta),
                _g6(r.mu_prop), _g6(r.mu_prop_low), _g6(r.mu_prop_high),
                "" if r.r2_xi is None else _g6(r.r2_xi),
                "" if r.r2_zeta is None else _g6(r.r2_zeta),
                ";".join(r.features),
            ])
        return buf.getvalue()
    raise ValueError(f"unknown format {format!r}")


def _g6(x: float) -> str:
    return f"{x:.6g}"


def simple_table(headers, rows, format: str = "markdown") -> str:
    """Small generic table writer for diagnostics and feature summaries."""
    if format == "markdown":
        lines = ["| " + " | ".join(str(hdr) for hdr in headers) + " |",
                 "| " + " | ".join(["---"] * len(headers)) + " |"]
        for row in rows:
            lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
        return "\n".join(lines) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    raise ValueError(f"unknown format {format!r}")
