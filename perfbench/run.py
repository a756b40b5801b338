#!/usr/bin/env python3
"""metaprop benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--seed`` fixes the generated inputs,
``--seconds`` the amount of work (see ``workloads``).  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it performs
the same ops once untraced and once traced, in one process, and reports
per-layer metrics and the tracing overhead.  ``trace.self_coverage`` is
the self time of every span below the top-level spans (each op's entry
point) as a share of traced ``wall_s``; the top-level spans' own time,
which holds whatever no span covers, is ``trace.root_self_share``.  The last line of standard
output is the result object; the line before it records the run's
environment, op count, failure ratio and tail latency.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# layers reported with call counts and self time
SPANNED = [
    "engine.fit_model", "engine.log_likelihood", "engine.minimize", "ingest.encode_design",
    "rng.binomial", "simulate.generate",
]
# layers reported with self time only
SELF_ONLY = [
    "selection.five_model_protocol", "simulate.recovery_experiment", "ingest.load_schema",
    "ingest.parse_dataset",
    "transforms.transform_diagnostic", "heterogeneity", "report.forest_plot",
    "report.regression_table", "report.comparison_table", "cli.main",
]
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    **{f"{name}.calls": "count" for name in SPANNED},
    **{f"{name}.self_s": "s" for name in SPANNED + SELF_ONLY},
    "engine.minimize.calls_per_fit": "ratio",
    "engine.evals_per_fit": "ratio",
    "engine.nonconverged": "count",
    "selection.candidates": "count",
    "selection.useful_ratio": "ratio",
    "rng.next_u64.calls": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_coverage": "ratio",
    "trace.root_self_share": "ratio",
}


def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, if it is OpenBLAS."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        sha = None
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha, "seed": seed, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


def setup_seconds(name: str, seed: int, workdir: Path, env: dict) -> list:
    """Set-up time of fresh interpreters, one sample per probe."""
    samples = []
    for i in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), name, str(seed),
             str(workdir / f"probe{i}")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        samples.append(float(probe.stdout.split()[-1]))
    return samples


def import_seconds(env: dict):
    """Medians of the fresh-interpreter ``import metaprop.cli`` time and of
    the cumulative ``scipy.stats`` share under it, from ``-X importtime``."""
    code = ("import time; t = time.perf_counter(); import metaprop.cli; "
            "print(time.perf_counter() - t)")
    totals, stats = [], []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                               env=env, capture_output=True, text=True,
                               timeout=PROBE_TIMEOUT_S, check=True)
        cumulative = {}
        for line in probe.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1])
        totals.append(float(probe.stdout.split()[-1]))
        stats.append(cumulative.get("scipy.stats", 0) / 1e6)
    return statistics.median(totals), statistics.median(stats)


def per_layer(tracer, traced, plain, imports) -> dict:
    own = tracer.self_times()
    self_s, calls = defaultdict(float), defaultdict(int)
    top_level = 0.0
    for span, seconds in zip(tracer.spans, own):
        self_s[span[0]] += seconds
        calls[span[0]] += 1
        if span[3] < 0:
            top_level += seconds
    stats = traced.stats
    fits, candidates = stats["fits"], stats["candidates"]
    metrics = {
        "cli.import_s": imports[0],
        "cli.import_scipy_stats_s": imports[1],
        **{f"{name}.calls": calls[name] for name in SPANNED},
        **{f"{name}.self_s": self_s[name] for name in SPANNED + SELF_ONLY},
        "engine.minimize.calls_per_fit": calls["engine.minimize"] / fits if fits else 0.0,
        "engine.evals_per_fit": stats["evaluations"] / fits if fits else 0.0,
        "engine.nonconverged": stats["nonconverged"],
        "selection.candidates": candidates,
        "selection.useful_ratio": stats["useful"] / candidates if candidates else 0.0,
        "rng.next_u64.calls": tracer.counts["rng.next_u64"],
        "trace.wall_s": traced.wall_s,
        "trace.untraced_wall_s": plain.wall_s,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.self_coverage": (sum(own) - top_level) / traced.wall_s,
        "trace.root_self_share": top_level / traced.wall_s,
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "metaprop" / "__init__.py").is_file():
        print(f"error: no metaprop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import WORKLOADS, program_env, tail

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = program_env()
    workdir = OUT / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = [] if args.trace else setup_seconds(workload.name, args.seed, workdir, env)
        import metaprop

        if not Path(metaprop.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"imported metaprop from {metaprop.__file__}, not this checkout")
        ctx = workload.prepare(args.seed, workdir)
        count = workload.op_count(args.seconds)
        info = {"workload": workload.name, "ops": count}
        if args.trace:
            plain = workload.run(ctx, count, in_process=True)
            tracer = Tracer()
            traced = workload.run(ctx, count, tracer=tracer, in_process=True)
            passes = [plain, traced]
            metrics = per_layer(tracer, traced, plain, import_seconds(env))
            info["spans"] = str(OUT / f"spans-{workload.name}-{args.seed}.jsonl.gz")
            tracer.write(info["spans"])
        else:
            run = workload.run(ctx, count)
            passes = [run]
            values = {"setup_s": statistics.median(setup), "wall_s": run.wall_s,
                      "op_p50_s": statistics.median(run.latencies), "cpu_s": run.cpu_s,
                      "peak_rss_mb": run.peak_rss_mb}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            info.update(setup_samples=setup, op_tail_s=tail(run.latencies))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [reason for p in passes for reason in p.failures]
    info.update(fail_ratio={"failed": len(failures), "attempted": attempted},
                failures=failures[:5], environment=environment(args.seed))
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
