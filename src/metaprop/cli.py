"""Command-line interface wiring ingest -> engine -> reports.

Each command returns an ``Outcome`` and writes nothing; ``main`` prints
each distinct warning the command raised once, as a ``warning:`` line on
stderr, then writes its files and prints it (text, or with --format=json
one JSON document, to stdout).  The files are artifacts such as tables,
trails and fit payloads, with a manifest of every parsed argument, in
the out-dir (--out-dir, else $METAPROP_OUT_DIR, else select's
metaprop_out or the directory of forest's and simulate's output), and
forest's SVG and simulate's CSV and schema at the paths named.  Exit
codes: 0 success, 2 input or validation error, 3 numerical failure.
OpenBLAS runs one thread unless $OPENBLAS_NUM_THREADS says otherwise.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone

# Set before numpy loads OpenBLAS: the matrices are at most a few thousand
# rows by ~30 columns, too small for a second BLAS thread, whose start-up
# spin costs ~0.13 s of CPU per process.  A value the user sets wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, engine, heterogeneity, report, selection, simulate
from .ingest import (Dataset, ValidationError, dataset_csv, encode_design, load_schema,
                     parse_dataset, read_text)
from .transforms import transform_diagnostic

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


@dataclass
class Outcome:
    """What a command produced, for ``main`` to print and write."""

    code: int
    payload: dict                  # printed with --format=json
    text: str                      # printed otherwise
    artifacts: list = field(default_factory=list)   # (file name or absolute path, contents)
    out_dir: str | None = None     # when neither --out-dir nor $METAPROP_OUT_DIR is set
    seed: int | None = None


def _finite(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(_finite, value))
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _json(value, indent=None) -> str:
    """The one JSON encoder of the command's output: RFC 8259 has no NaN or
    Infinity, so a non-finite float is written as null."""
    return json.dumps(_finite(value), allow_nan=False, default=str, indent=indent)


def _emit(args, outcome: Outcome) -> None:
    """Write the artifacts, each named by its out-dir name or, for a file the
    command line names, by its absolute path, and the manifest, then print
    the outcome.
    Each file is written under a temporary name in its own directory, and
    all are renamed into place only after the last write succeeds; on any
    error the temporaries are removed, and so are the directories that
    making the out-dir created, so a failed write leaves no file.  Two
    outputs that resolve to one path, a named output's missing directory,
    or an output that is a directory raise before the first write: a
    rename onto a directory would fail only after the renames before it."""
    out_dir = args.out_dir if args.out_dir is not None else os.environ.get("METAPROP_OUT_DIR")
    out_dir = out_dir or outcome.out_dir
    if out_dir:
        manifest = {"command": args.command,
                    "inputs": {key: value for key, value in vars(args).items()
                               if key not in ("command", "func", "format", "out_dir")},
                    "seed": outcome.seed, "out_dir": out_dir, "version": __version__,
                    "timestamp": datetime.now(timezone.utc).isoformat()}
        outputs = [*outcome.artifacts, ("manifest.json", _json(manifest, indent=2) + "\n")]
        paths = [os.path.join(out_dir, name) for name, _ in outputs]
        resolved = list(map(os.path.realpath, paths))
        for path in resolved:
            if resolved.count(path) > 1:
                raise ValidationError(f"two outputs resolve to one path: {path}")
        for path in filter(os.path.isabs, (name for name, _ in outputs)):
            if not os.path.isdir(os.path.dirname(path)):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        for path in filter(os.path.isdir, paths):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        made, directory = [], os.path.normpath(out_dir)
        while directory and not os.path.exists(directory):   # what makedirs makes, deepest first
            made.append(directory)
            directory = os.path.dirname(directory)
        written = []
        try:
            os.makedirs(out_dir, exist_ok=True)
            for path, (_, text) in zip(paths, outputs):
                head, tail = os.path.split(path)
                temporary = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
                with open(temporary, "x", encoding="utf-8") as fh:
                    written.append(temporary)
                    fh.write(text)
            for temporary, path in zip(written, paths):
                os.replace(temporary, path)
        except BaseException:
            for temporary in written:
                try:
                    os.remove(temporary)
                except OSError:                  # already renamed
                    pass
            for directory in made:
                try:
                    os.rmdir(directory)
                except OSError:                  # not empty: a rename succeeded
                    pass
            raise
    if args.format == "json":
        print(_json(outcome.payload, indent=2))
    else:
        print(outcome.text)


def _fit_outcome(fits, *args, **kwargs) -> Outcome:
    """The Outcome of a command whose status is its ``fits``' (or ``select``'s
    rows'): exit 3 with one warning when any of them did not converge."""
    if all(fit.converged for fit in fits):
        return Outcome(EXIT_OK, *args, **kwargs)
    warnings.warn("fit did not converge")
    return Outcome(EXIT_NUMERIC, *args, **kwargs)


def _load_dataset(data_path: str, schema_path: str) -> Dataset:
    return parse_dataset(read_text(data_path), load_schema(schema_path))


def _fits(dataset: Dataset, subsets, method: str) -> list:
    """The FitResult of each feature subset, in order, from one
    ``selection.fit_subsets`` call; the first subset that failed raises."""
    fits = dict(selection.fit_subsets([dataset], subsets, method))
    return [engine.fit_or_raise(fits[j]) for j in range(len(subsets))]


def cmd_fit(args) -> Outcome:
    dataset = _load_dataset(args.data, args.schema)
    fit, = _fits(dataset, [()], args.method)
    s = heterogeneity.summarize(fit)
    payload = asdict(s)
    text = (f"Trials: {s.m}   Studies: {s.h}   "
            f"Method: {s.method.upper()}   Converged: {s.converged}\n"
            f"Pooled accuracy: {s.prop:.4f} [{s.prop_ci[0]:.4f}; {s.prop_ci[1]:.4f}]\n"
            f"Transformed scale: mu = {s.mu:.4f} (SE {s.se:.4f}), "
            f"95% CI [{s.ci[0]:.4f}; {s.ci[1]:.4f}]\n"
            f"Variance components: sigma2_xi = {s.sigma2_xi:.6f}, "
            f"sigma2_zeta = {s.sigma2_zeta:.6f}, sigma2_eps = {s.sigma2_eps:.6f}\n"
            f"Cochran Q = {s.q:.2f} (df {s.q_df}, p = {report.format_p(s.q_pvalue)})\n"
            f"I2: between-study {s.i2_xi:.2f}, "
            f"within-study {s.i2_zeta:.2f}, total {s.i2_total:.2f}")
    if args.diagnostics:
        diagnostics = transform_diagnostic(dataset)
        payload["transform_diagnostics"] = [
            {"kind": d.kind, "w": d.w, "p_value": d.p_value, "skipped": d.skipped}
            for d in diagnostics]
        text += "\n\n" + report.simple_table(
            ["transform", "W", "p", "skipped"],
            [(d.kind, "" if d.w is None else f"{d.w:.4f}",
              "" if d.p_value is None else f"{d.p_value:.4g}", d.skipped or "")
             for d in diagnostics])
    return _fit_outcome([fit], payload, text, [("fit.json", _json(payload, indent=2) + "\n")])


def cmd_regress(args) -> Outcome:
    dataset = _load_dataset(args.data, args.schema)
    if args.features.strip() == "all":
        features = dataset.schema.names
    else:
        features = [f.strip() for f in args.features.split(",") if f.strip()]
    fit, fit_null = _fits(dataset, [features, ()], args.method)
    design = encode_design(dataset, features)   # the table's labels and dropped columns
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
    fmt = lambda x: "undefined" if x is None else f"{x:.4f}"
    markdown = table.markdown()
    text = markdown + f"\nR2 vs null: between-study {fmt(r2_xi)}, within-study {fmt(r2_zeta)}"
    return _fit_outcome([fit, fit_null], payload, text,
                        [("regression.md", markdown), ("regression.csv", table.csv())])


def cmd_select(args) -> Outcome:
    dataset = _load_dataset(args.data, args.schema)
    rows, trail = selection.five_model_protocol(
        dataset, strategy=args.strategy, method=args.criterion_likelihood)
    markdown = report.comparison_table(rows, format="markdown")
    payload = {"criterion_likelihood": args.criterion_likelihood,
               "strategy": args.strategy,
               "rows": [asdict(r) for r in rows],
               "n_candidates": len(trail)}
    return _fit_outcome(rows, payload, markdown,
                        [("comparison.md", markdown),
                         ("comparison.csv", report.comparison_table(rows, format="csv")),
                         ("search_trail.jsonl", "".join(_json({"index": i, **asdict(rec)}) + "\n"
                                                        for i, rec in enumerate(trail)))],
                        out_dir="metaprop_out")


def cmd_forest(args) -> Outcome:
    dataset = _load_dataset(args.data, args.schema)
    fit, = _fits(dataset, [()], args.method)
    svg, rows = report.forest_plot(fit, dataset, scale=args.scale, method=args.study_effects)
    return _fit_outcome([fit], {"out": args.out, "rows": [asdict(r) for r in rows]},
                        f"wrote {args.out} ({len(rows)} studies)",
                        [(os.path.abspath(args.out), svg)],
                        out_dir=os.path.dirname(args.out) or ".")


def _simulated_csv(config, replicate: int) -> tuple:
    """(dataset, CSV text) of one replicate, the dataset read back from the
    text as ``fit`` reads a file: raises where fit would refuse it.  The
    generated dataset is dropped before the text is read back."""
    csv_text = dataset_csv(simulate.generate(config, replicate=replicate))
    dataset = parse_dataset(csv_text, config.schema())
    dataset.candidate_columns
    return dataset, csv_text


def cmd_simulate(args) -> Outcome:
    if args.replicate not in simulate.INT64_RANGE:
        raise ValidationError("--replicate must lie in the signed 64-bit range "
                              f"[-2**63, 2**63 - 1], got {args.replicate}")
    config = simulate.load_simconfig(args.config)
    dataset, csv_text = _simulated_csv(config, args.replicate)
    schema_out = args.schema_out
    if schema_out is None:
        schema_out = os.path.splitext(args.out)[0] + "_schema.yaml"
    return Outcome(EXIT_OK,
                   {"out": args.out, "schema_out": schema_out, "m": dataset.m, "h": dataset.h},
                   f"wrote {args.out}: {dataset.m} trials in {dataset.h} studies",
                   [(os.path.abspath(args.out), csv_text),
                    (os.path.abspath(schema_out), dataset.schema.to_yaml())],
                   out_dir=os.path.dirname(args.out) or ".", seed=config.seed)


def cmd_recover(args) -> Outcome:
    config = simulate.load_simconfig(args.config)
    # refuse a layout that no input file can carry; the experiment sums up
    # replicate 0's clamp note with the others'
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", simulate.ClampWarning)
        _simulated_csv(config, 0)
    summary = simulate.recovery_experiment(config, args.reps, method=args.method)
    payload = {"replications": summary.replications,
               "truth": {"mu": config.mu, "sigma2_xi": config.sigma2_xi,
                         "sigma2_zeta": config.sigma2_zeta}}
    payload.update((f.name, getattr(summary, f.name)) for f in fields(summary)
                   if f.name not in ("config", "replications", "records"))
    return Outcome(EXIT_OK, payload, report.recovery_text(summary), seed=config.seed)


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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            try:
                outcome = args.func(args)
            finally:
                for message in dict.fromkeys(str(w.message) for w in caught):
                    print(f"warning: {message}", file=sys.stderr)
        _emit(args, outcome)
        return outcome.code
    except (ValidationError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
