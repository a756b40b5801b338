"""Report rendering: forest plot SVG, regression and comparison tables, and
the recovery summary.

All output here is plain text (SVG 1.1, markdown, CSV) with fixed
geometry and fixed number formatting, so identical inputs produce
byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .ingest import ValidationError
from .transforms import HALF_PI

__all__ = [
    "ForestRow",
    "RegressionRow",
    "RegressionTable",
    "forest_plot",
    "regression_table",
    "comparison_table",
    "recovery_text",
    "simple_table",
]


@dataclass(frozen=True)
class ForestRow:
    """One study line of the forest plot, on the proportion scale."""

    study_id: str
    trials: int
    estimate: float
    ci: tuple
    weight: float


# fixed geometry: byte-stable SVG without font metrics
_W = 800
_ROW_H = 22
_PLOT_X0, _PLOT_X1 = 300, 620
_TOP = 46


def _escape(text: str) -> str:
    """The XML escapes of xml.sax.saxutils.escape, without importing it:
    that module pulls in urllib and http.client, about 40 ms of the start
    of every command."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _x_of(p: float) -> float:
    return _PLOT_X0 + p * (_PLOT_X1 - _PLOT_X0)


def forest_plot(fit: engine.FitResult, dataset, scale: str = "proportion",
                method: str = "blup"):
    """Render the per-study forest plot as SVG text.

    One row per study (shrunken estimate with 95% CI and GLS weight), a
    diamond for the pooled estimate, axis in proportion units on [0, 1].
    The rows take their study ids from ``dataset``, whose study layout
    must be the fit's.  Returns (svg_text, rows), the rows as ForestRows
    on the proportion scale.
    """
    if fit.f != 1:
        raise ValidationError("forest plot requires an intercept-only fit")
    if scale not in ("proportion", "transformed"):
        raise ValueError(f"unknown scale {scale!r}")
    if not np.array_equal(dataset.group_sizes(), fit.group_sizes):
        raise ValidationError("dataset does not match the fitted model layout")
    ends, props = (a.tolist() for a in engine.intervals(
        *engine.predict_study_effects(fit, method=method)))
    rows = [ForestRow(study_id=sid, trials=n, estimate=est, ci=(lo, hi), weight=w)
            for sid, n, w, (est, lo, hi) in zip(dataset.study_ids(), fit.group_sizes.tolist(),
                                                 engine.study_weights(fit).tolist(), props)]
    pooled = engine.pooled_estimate(fit)

    if scale == "proportion":
        span = (0.0, 1.0)
        p_est, p_lo, p_hi = pooled.prop, pooled.prop_low, pooled.prop_high
        row_pts = props
        axis_label = "overall accuracy"
    else:
        span = (0.0, HALF_PI)
        p_est, p_lo, p_hi = pooled.mu, pooled.ci_low, pooled.ci_high
        row_pts = ends
        axis_label = "transformed accuracy"

    def x_at(val):
        """The x of a value on the axis, clamped to the plot."""
        return _x_of(min(max(val / span[1], 0.0), 1.0))

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
    top_weight = max(r.weight for r in rows)
    for row, (est, lo, hi) in zip(rows, row_pts):
        cy = y + _ROW_H // 2
        x_lo, x_hi, x_est = x_at(lo), x_at(hi), x_at(est)
        half = 2.5 + 5.0 * row.weight / top_weight
        out.append(f'<text x="10" y="{cy + 4}">{_escape(row.study_id)}</text>')
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
    x_lo, x_hi, x_est = x_at(p_lo), x_at(p_hi), x_at(p_est)
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
    out.append(f'<text x="{_PLOT_X0}" y="{ay + 34}">{_escape(axis_label)}</text>')
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
        def coef_cells(row, indent=""):
            return [indent + row.label, f"{row.beta:.4f}", f"{row.se:.4f}", format_p(row.p),
                    f"[{row.ci_low:.4f}; {row.ci_high:.4f}]"]

        by_feature: dict = {}
        for row in self.rows:
            by_feature.setdefault(row.feature, []).append(row)
        cells = [coef_cells(row) for row in by_feature.get(None, [])]
        for feat in self.feature_order:
            ref = self.reference_levels.get(feat)
            if ref is not None:
                cells.append([f"**{feat}** (Ref: {ref})", "", "", "", ""])
            cells += [coef_cells(row, "" if ref is None else "&nbsp;&nbsp;")
                      for row in by_feature.get(feat, [])]
        text = simple_table(["", "beta", "SE", "p", "95% CI"], cells)
        if self.dropped:
            text += f"\nDropped as redundant (collinear): {', '.join(self.dropped)}.\n"
        return text

    def csv(self) -> str:
        return simple_table(
            ["label", "feature", "beta", "se", "p", "ci_low", "ci_high"],
            [[row.label, row.feature or "",
              *map(_g6, (row.beta, row.se, row.p, row.ci_low, row.ci_high))]
             for row in self.rows],
            format="csv")


def regression_table(fit: engine.FitResult, design) -> RegressionTable:
    """Coefficient estimates with normal-theory tests and 95% CIs.

    Row i is column i of the design: the intercept, then each selected
    feature's kept columns in ``design.feature_groups`` order.  A dummy
    is named by its category (its label without the feature's ``name=``
    prefix) and grouped under a feature heading annotated with the
    reference level.  Columns dropped for collinearity are listed in a
    footnote.
    """
    names = [("Intercept", None)] + [
        (label[len(feat) + 1:] if feat in design.reference_levels else label, feat)
        for feat, labels in design.feature_groups.items() for label in labels]
    if len(names) != len(fit.beta):
        raise ValueError(f"design has {len(names)} columns, the fit {len(fit.beta)}")
    rows = []
    se_all = np.sqrt(np.maximum(np.diag(fit.cov_beta), 0.0))
    ends = engine.intervals(fit.beta, se_all)[0].tolist()
    for (label, feature), (beta, low, high), se in zip(names, ends, se_all.tolist()):
        if se > 0:
            p = math.erfc(abs(beta) / se / math.sqrt(2.0))
        else:
            p = 1.0 if beta == 0 else 0.0
        rows.append(RegressionRow(label=label, beta=beta, se=se, p=p, ci_low=low, ci_high=high,
                                  feature=feature))
    return RegressionTable(rows=rows, feature_order=list(design.feature_groups),
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
    """Serialize comparison rows, in the order given, as markdown or CSV."""
    if not rows:
        raise ValidationError("comparison table needs at least one row")
    if format == "csv":
        return simple_table(_CSV_FIELDS, [[
            r.name, r.f, _g6(r.aic), _g6(r.bic), _g6(r.rmse), _g6(r.q),
            _g6(r.sigma2_xi), _g6(r.i2_xi), _g6(r.sigma2_zeta), _g6(r.i2_zeta),
            _g6(r.mu_prop), _g6(r.mu_prop_low), _g6(r.mu_prop_high),
            "" if r.r2_xi is None else _g6(r.r2_xi),
            "" if r.r2_zeta is None else _g6(r.r2_zeta),
            ";".join(r.features),
        ] for r in rows], format="csv")
    cells = [[r.name] + ["-"] * 10 if r.note is not None else [
        r.name, r.f, f"{r.aic:.2f}", f"{r.bic:.2f}", f"{r.rmse:.2f}", f"{r.q:.2f}",
        f"{r.sigma2_xi:.4f} ({r.i2_xi:.2f})", f"{r.sigma2_zeta:.4f} ({r.i2_zeta:.2f})",
        f"{r.mu_prop:.2f} [{r.mu_prop_low:.2f}; {r.mu_prop_high:.2f}]",
        _fmt_r2(r.r2_xi), _fmt_r2(r.r2_zeta),
    ] for r in rows]
    text = simple_table(_COMPARISON_HEADERS, cells, format=format)
    notes = [f"{r.name}: fit failed ({r.note}).\n" for r in rows if r.note is not None]
    return text + "\n" + "".join(notes) if notes else text


def recovery_text(summary) -> str:
    """A recovery experiment's summary as ``metaprop recover`` prints it."""
    config = summary.config
    return (f"Replications: {summary.replications} "
            f"(non-converged: {summary.n_nonconverged})\n"
            f"mu: truth {config.mu:.4f}, mean estimate {summary.mean_mu:.4f}, "
            f"95% CI coverage {summary.coverage:.3f} "
            f"(Monte Carlo SE {summary.coverage_se:.3f})\n"
            f"sigma2_xi: truth {config.sigma2_xi:.4f}, "
            f"mean {summary.mean_sigma2_xi:.4f}, bias {summary.abs_bias_sigma2_xi:+.3g} "
            f"(rel. bias {summary.bias_sigma2_xi:+.3f})\n"
            f"sigma2_zeta: truth {config.sigma2_zeta:.4f}, "
            f"mean {summary.mean_sigma2_zeta:.4f}, bias {summary.abs_bias_sigma2_zeta:+.3g} "
            f"(rel. bias {summary.bias_sigma2_zeta:+.3f})")


def _g6(x: float) -> str:
    return f"{x:.6g}"


def simple_table(headers, rows, format: str = "markdown") -> str:
    """Small generic table writer for diagnostics and feature summaries.

    A ``|`` in a markdown cell is written as ``\\|``, so it cannot split
    the cell; CSV quotes what it needs to by itself.
    """
    if format == "markdown":
        line = lambda cells: "| " + " | ".join(str(c).replace("|", "\\|") for c in cells) + " |"
        lines = [line(headers), line(["---"] * len(headers)), *map(line, rows)]
        return "\n".join(lines) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    raise ValueError(f"unknown format {format!r}")
