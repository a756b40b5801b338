"""Command-line interface wiring ingest -> engine -> reports.

Human-readable text goes to stdout; artifacts (tables, plots, search
trails) go to files under --out-dir together with a run manifest; forest
and simulate, which name their output file, write the manifest beside it
when neither --out-dir nor $METAPROP_OUT_DIR is set.  With
--format=json each command prints a single machine-readable document
instead of text.  Exit codes: 0 success, 2 input or validation error,
3 numerical failure (including non-convergence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__, engine, heterogeneity, report, selection, simulate
from .ingest import (Dataset, DesignMatrix, ValidationError, encode_design, load_schema,
                     parse_dataset, read_text, write_dataset_csv)
from .transforms import transform_diagnostic

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


@dataclass
class RunManifest:
    """Reproducibility record written alongside every output set."""

    command: str
    inputs: dict
    seed: int | None
    out_dir: str | None
    version: str
    timestamp: str


def _manifest(command: str, inputs: dict, seed=None, out_dir=None) -> RunManifest:
    return RunManifest(command=command, inputs=inputs, seed=seed,
                       out_dir=out_dir, version=__version__,
                       timestamp=datetime.now(timezone.utc).isoformat())


def _write_manifest(manifest: RunManifest, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2)
        fh.write("\n")


def _default_out_dir(args) -> str | None:
    if args.out_dir is not None:
        return args.out_dir
    return os.environ.get("METAPROP_OUT_DIR")


def _load_dataset(data_path: str, schema_path: str) -> Dataset:
    return parse_dataset(read_text(data_path), load_schema(schema_path))


def _fit_dataset(dataset: Dataset, features,
                 method: str) -> tuple[engine.FitResult, DesignMatrix]:
    y, v = engine.effect_arrays(dataset)
    design = encode_design(dataset, features)
    fit = engine.fit_model(y, design, dataset.group_sizes(), v, method=method)
    return fit, design


def _fit_payload(fit: engine.FitResult, het: heterogeneity.HeterogeneityReport,
                 pooled: engine.PooledEstimate) -> dict:
    return {
        "m": fit.m, "h": fit.h, "f": fit.f,
        "method": fit.method, "converged": fit.converged,
        "loglik": fit.loglik,
        "mu": pooled.mu, "se": pooled.se,
        "ci": [pooled.ci_low, pooled.ci_high],
        "prop": pooled.prop, "prop_ci": [pooled.prop_low, pooled.prop_high],
        "sigma2_xi": fit.varcomps.sigma2_xi,
        "sigma2_zeta": fit.varcomps.sigma2_zeta,
        "q": het.q, "q_df": het.q_df, "q_pvalue": het.q_pvalue,
        "sigma2_eps": het.sigma2_eps,
        "i2_xi": het.i2_xi, "i2_zeta": het.i2_zeta, "i2_total": het.i2_total,
    }


def _print_fit_text(payload: dict) -> None:
    print(f"Trials: {payload['m']}   Studies: {payload['h']}   "
          f"Method: {payload['method'].upper()}   Converged: {payload['converged']}")
    print(f"Pooled accuracy: {payload['prop']:.4f} "
          f"[{payload['prop_ci'][0]:.4f}; {payload['prop_ci'][1]:.4f}]")
    print(f"Transformed scale: mu = {payload['mu']:.4f} (SE {payload['se']:.4f}), "
          f"95% CI [{payload['ci'][0]:.4f}; {payload['ci'][1]:.4f}]")
    print(f"Variance components: sigma2_xi = {payload['sigma2_xi']:.6f}, "
          f"sigma2_zeta = {payload['sigma2_zeta']:.6f}, "
          f"sigma2_eps = {payload['sigma2_eps']:.6f}")
    print(f"Cochran Q = {payload['q']:.2f} (df {payload['q_df']}, "
          f"p = {report.format_p(payload['q_pvalue'])})")
    print(f"I2: between-study {payload['i2_xi']:.2f}, "
          f"within-study {payload['i2_zeta']:.2f}, total {payload['i2_total']:.2f}")


def cmd_fit(args) -> int:
    dataset = _load_dataset(args.data, args.schema)
    fit, _ = _fit_dataset(dataset, (), args.method)
    het = heterogeneity.heterogeneity_report(fit)
    pooled = engine.pooled_estimate(fit)
    payload = _fit_payload(fit, het, pooled)

    if args.diagnostics:
        diagnostics = transform_diagnostic(dataset)
        rows = [(d.kind,
                 "" if d.w is None else f"{d.w:.4f}",
                 "" if d.p_value is None else f"{d.p_value:.4g}",
                 d.skipped or "")
                for d in diagnostics]
        payload["transform_diagnostics"] = [
            {"kind": d.kind, "w": d.w, "p_value": d.p_value, "skipped": d.skipped}
            for d in diagnostics]

    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        _print_fit_text(payload)
        if args.diagnostics:
            print()
            print(report.simple_table(["transform", "W", "p", "skipped"], rows))

    out_dir = _default_out_dir(args)
    if out_dir:
        _write_manifest(_manifest("fit", {"data": args.data, "schema": args.schema},
                                  out_dir=out_dir), out_dir)
        with open(os.path.join(out_dir, "fit.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK if fit.converged else EXIT_NUMERIC


def cmd_regress(args) -> int:
    dataset = _load_dataset(args.data, args.schema)
    names = dataset.schema.names
    if args.features.strip() == "all":
        features = names
    else:
        features = [f.strip() for f in args.features.split(",") if f.strip()]
        unknown = [f for f in features if f not in names]
        if unknown:
            raise ValidationError(f"unknown feature names: {unknown}")
    fit, design = _fit_dataset(dataset, features, args.method)
    fit_null, _ = _fit_dataset(dataset, (), args.method)
    table = report.regression_table(fit, design)
    r2_xi, r2_zeta = heterogeneity.r_squared(fit, fit_null)

    payload = {
        "features": list(features), "f": fit.f, "m": fit.m, "h": fit.h,
        "method": fit.method, "converged": fit.converged, "loglik": fit.loglik,
        "sigma2_xi": fit.varcomps.sigma2_xi, "sigma2_zeta": fit.varcomps.sigma2_zeta,
        "r2_xi": r2_xi, "r2_zeta": r2_zeta,
        "dropped": list(design.dropped),
        "coefficients": [asdict(row) for row in table.rows],
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(table.markdown())
        fmt = lambda x: "undefined" if x is None else f"{x:.4f}"
        print(f"R2 vs null: between-study {fmt(r2_xi)}, within-study {fmt(r2_zeta)}")
        if not fit.converged:
            print("warning: fit did not converge", file=sys.stderr)

    out_dir = _default_out_dir(args)
    if out_dir:
        _write_manifest(_manifest("regress", {"data": args.data, "schema": args.schema,
                                              "features": list(features)},
                                  out_dir=out_dir), out_dir)
        with open(os.path.join(out_dir, "regression.md"), "w", encoding="utf-8") as fh:
            fh.write(table.markdown())
        with open(os.path.join(out_dir, "regression.csv"), "w", encoding="utf-8") as fh:
            fh.write(table.csv())
    return EXIT_OK if fit.converged else EXIT_NUMERIC


def cmd_select(args) -> int:
    dataset = _load_dataset(args.data, args.schema)
    rows, trail = selection.five_model_protocol(
        dataset, strategy=args.strategy, method=args.criterion_likelihood)
    md = report.comparison_table(rows, format="markdown")
    csv_text = report.comparison_table(rows, format="csv")

    if args.format == "json":
        print(json.dumps({"criterion_likelihood": args.criterion_likelihood,
                          "strategy": args.strategy,
                          "rows": [asdict(r) for r in rows],
                          "n_candidates": len(trail)}, indent=2, default=str))
    else:
        print(md)

    out_dir = _default_out_dir(args) or "metaprop_out"
    _write_manifest(_manifest("select", {"data": args.data, "schema": args.schema,
                                         "strategy": args.strategy,
                                         "criterion_likelihood": args.criterion_likelihood},
                              out_dir=out_dir), out_dir)
    with open(os.path.join(out_dir, "comparison.md"), "w", encoding="utf-8") as fh:
        fh.write(md)
    with open(os.path.join(out_dir, "comparison.csv"), "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    with open(os.path.join(out_dir, "search_trail.jsonl"), "w", encoding="utf-8") as fh:
        for rec in trail:
            fh.write(json.dumps(asdict(rec)) + "\n")
    failed = any(r.note is not None or not r.converged for r in rows)
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_forest(args) -> int:
    dataset = _load_dataset(args.data, args.schema)
    fit, _ = _fit_dataset(dataset, (), args.method)
    svg, rows = report.forest_plot(fit, dataset, scale=args.scale, method=args.study_effects)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    out_dir = _default_out_dir(args) or os.path.dirname(args.out) or "."
    _write_manifest(_manifest("forest", {"data": args.data, "schema": args.schema,
                                         "out": args.out, "scale": args.scale},
                              out_dir=out_dir), out_dir)
    if args.format == "json":
        print(json.dumps({"out": args.out, "rows": [asdict(r) for r in rows]}, indent=2))
    else:
        print(f"wrote {args.out} ({len(rows)} studies)")
    return EXIT_OK if fit.converged else EXIT_NUMERIC


def cmd_simulate(args) -> int:
    config = simulate.load_simconfig(args.config)
    dataset = simulate.generate(config, replicate=args.replicate)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_dataset_csv(dataset, fh)
    schema_out = args.schema_out
    if schema_out is None:
        schema_out = os.path.splitext(args.out)[0] + "_schema.yaml"
    with open(schema_out, "w", encoding="utf-8") as fh:
        fh.write(dataset.schema.to_yaml())
    out_dir = _default_out_dir(args) or os.path.dirname(args.out) or "."
    _write_manifest(_manifest("simulate", {"config": args.config, "out": args.out},
                              seed=config.seed, out_dir=out_dir), out_dir)
    if args.format == "json":
        print(json.dumps({"out": args.out, "schema_out": schema_out,
                          "m": dataset.m, "h": dataset.h}, indent=2))
    else:
        print(f"wrote {args.out}: {dataset.m} trials in {dataset.h} studies")
    return EXIT_OK


def cmd_recover(args) -> int:
    config = simulate.load_simconfig(args.config)
    summary = simulate.recovery_experiment(config, args.reps, method=args.method)
    out_dir = _default_out_dir(args)
    if out_dir:
        _write_manifest(_manifest("recover", {"config": args.config, "reps": args.reps,
                                              "method": args.method},
                                  seed=config.seed, out_dir=out_dir), out_dir)
    payload = {
        "replications": summary.replications,
        "truth": {"mu": config.mu, "sigma2_xi": config.sigma2_xi,
                  "sigma2_zeta": config.sigma2_zeta},
        "mean_mu": summary.mean_mu,
        "mean_sigma2_xi": summary.mean_sigma2_xi,
        "mean_sigma2_zeta": summary.mean_sigma2_zeta,
        "coverage": summary.coverage,
        "bias_sigma2_xi": summary.bias_sigma2_xi,
        "bias_sigma2_zeta": summary.bias_sigma2_zeta,
        "n_nonconverged": summary.n_nonconverged,
        "coverage_se": summary.coverage_se,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"Replications: {summary.replications} "
              f"(non-converged: {summary.n_nonconverged})")
        print(f"mu: truth {config.mu:.4f}, mean estimate {summary.mean_mu:.4f}, "
              f"95% CI coverage {summary.coverage:.3f} "
              f"(Monte Carlo SE {summary.coverage_se:.3f})")
        print(f"sigma2_xi: truth {config.sigma2_xi:.4f}, "
              f"mean {summary.mean_sigma2_xi:.4f} "
              f"(rel. bias {summary.bias_sigma2_xi:+.3f})")
        print(f"sigma2_zeta: truth {config.sigma2_zeta:.4f}, "
              f"mean {summary.mean_sigma2_zeta:.4f} "
              f"(rel. bias {summary.bias_sigma2_zeta:+.3f})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaprop",
        description="Three-level random-effects meta-analysis of classifier accuracies.")
    parser.add_argument("--version", action="version", version=f"metaprop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_method=True):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out-dir", default=None,
                       help="artifact directory (default: $METAPROP_OUT_DIR)")
        if with_method:
            p.add_argument("--method", choices=["reml", "ml"], default="reml")

    p = sub.add_parser("fit", help="intercept-only three-level fit")
    p.add_argument("data")
    p.add_argument("schema")
    p.add_argument("--diagnostics", action="store_true",
                   help="include the transform normality comparison")
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("regress", help="meta-regression with chosen features")
    p.add_argument("data")
    p.add_argument("schema")
    p.add_argument("--features", required=True,
                   help="comma-separated feature names, or 'all'")
    common(p)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("select", help="five-model comparison (Null/Full/AIC/BIC/RMSE)")
    p.add_argument("data")
    p.add_argument("schema")
    p.add_argument("--strategy", choices=["exhaustive", "stepwise"], default="exhaustive")
    p.add_argument("--criterion-likelihood", choices=["reml", "ml"], default="reml")
    common(p, with_method=False)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("forest", help="per-study forest plot SVG")
    p.add_argument("data")
    p.add_argument("schema")
    p.add_argument("out")
    p.add_argument("--scale", choices=["proportion", "transformed"], default="proportion")
    p.add_argument("--study-effects", choices=["blup", "pool"], default="blup")
    common(p)
    p.set_defaults(func=cmd_forest)

    p = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    p.add_argument("config")
    p.add_argument("out")
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--schema-out", default=None)
    common(p, with_method=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("recover", help="parameter-recovery experiment")
    p.add_argument("config")
    p.add_argument("--reps", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_recover)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
