"""The three benchmark workloads.

Each is a closed loop with one client in one process: the next op starts
when the previous one has returned.  ``prepare`` is the set-up a user
pays before the first op (import plus generating and parsing inputs);
``run`` performs a fixed number of ops, then checks every output.  The
``--seconds`` budget fixes that number through each op's cost at the
seed commit, so two commits compared at one budget do the same work.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import resource
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import inputs
from spans import Tracer, rebind, restore

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OP_TIMEOUT_S = 120.0


@dataclass
class Pass:
    """What one pass of ``count`` ops measured and found."""

    latencies: list
    failures: list          # one reason per failed op
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stats: dict = field(default_factory=dict)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def program_env() -> dict:
    """The user's environment with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _install_tracing(tracer: Tracer, stats: dict) -> list:
    """Wrap every traced function; returns the records that undo it.

    ``stats`` collects what the wrapped calls return: fit evaluations and
    convergence, and the candidates of each search.
    """
    from scipy import optimize

    from metaprop import engine, heterogeneity, ingest, report, rng, selection, simulate, transforms

    def fitted(fit):
        stats["fits"] += 1
        stats["evaluations"] += fit.n_evaluations
        stats["nonconverged"] += not fit.converged

    def searched(result):
        _, trail = result
        stats["candidates"] += len(trail)
        stats["useful"] += sum(1 for r in trail if r.converged and r.skipped is None)

    targets = [
        ("engine.fit_model", engine, "fit_model", fitted),
        ("engine.log_likelihood", engine, "log_likelihood", None),
        ("engine.minimize", optimize, "minimize", None),
        ("ingest.encode_design", ingest, "encode_design", None),
        ("ingest.load_schema", ingest, "load_schema", None),
        ("ingest.parse_dataset", ingest, "parse_dataset", None),
        ("selection.five_model_protocol", selection, "five_model_protocol", searched),
        ("rng.binomial", rng, "binomial", None),
        ("simulate.generate", simulate, "generate", None),
        ("simulate.recovery_experiment", simulate, "recovery_experiment", None),
        ("transforms.transform_diagnostic", transforms, "transform_diagnostic", None),
        ("report.forest_plot", report, "forest_plot", None),
        ("report.regression_table", report, "regression_table", None),
        ("report.comparison_table", report, "comparison_table", None),
    ] + [("heterogeneity", heterogeneity, name, None) for name in heterogeneity.__all__
         if inspect.isfunction(getattr(heterogeneity, name))]
    if "metaprop.cli" in sys.modules:
        targets.append(("cli.main", sys.modules["metaprop.cli"], "main", None))

    records = []
    for name, owner, attr, on_result in targets:
        records += rebind(owner, attr, lambda fn, name=name, hook=on_result: tracer.span(name, fn, hook))
    records += rebind(rng.Streams, "next_u64", lambda fn: tracer.counter("rng.next_u64", fn))
    return records


class Workload:
    name = ""
    NOMINAL_OP_S = 1.0   # one op's wall time at the seed commit
    MIN_OPS = 2          # repeated ops are compared with each other

    def prepare(self, seed: int, workdir: Path):
        raise NotImplementedError

    def op_count(self, seconds: float) -> int:
        return max(self.MIN_OPS, round(seconds / self.NOMINAL_OP_S))

    def run(self, ctx, count: int, tracer: Tracer | None = None, in_process: bool = False) -> Pass:
        stats = {"fits": 0, "evaluations": 0, "nonconverged": 0, "candidates": 0, "useful": 0}
        records = _install_tracing(tracer, stats) if tracer is not None else []
        cpu0 = _cpu_s()
        start = perf_counter()
        try:
            latencies, outputs, peak = self._ops(ctx, count, tracer, in_process)
        finally:
            wall = perf_counter() - start
            cpu = _cpu_s() - cpu0
            restore(records)
        peak = peak if peak is not None else _own_peak_rss_mb()
        return Pass(latencies=latencies, failures=self._check(ctx, outputs), wall_s=wall,
                    cpu_s=cpu, peak_rss_mb=peak, stats=stats)

    def _ops(self, ctx, count, tracer, in_process):
        """Timed phase: (latencies, outputs, peak RSS of children or None)."""
        raise NotImplementedError

    def _check(self, ctx, outputs) -> list:
        raise NotImplementedError


def _failure(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"raised {type(exc).__name__}: {exc}"


class SelectExhaustive(Workload):
    """One op is the five-model protocol with an exhaustive search, default jobs,
    and the comparison table rendered as ``metaprop select`` renders it."""

    name = "select_exhaustive"
    NOMINAL_OP_S = 12.0

    def prepare(self, seed, workdir):
        from metaprop import ingest, report, selection  # noqa: F401  (timed import)

        data = workdir / "trials.csv"
        schema = workdir / "schema.yaml"
        data.write_text(inputs.trials_csv(seed), encoding="utf-8")
        schema.write_text(inputs.schema_yaml(inputs.SEARCH_GROUPS), encoding="utf-8")
        return ingest.parse_dataset(data.read_text(encoding="utf-8"), ingest.load_schema(schema))

    def _ops(self, dataset, count, tracer, in_process):
        from metaprop import report, selection

        latencies, outputs = [], []
        for i in range(count):
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            try:
                rows, trail = selection.five_model_protocol(
                    dataset, strategy="exhaustive", method="reml")
                out = (rows, trail, report.comparison_table(rows, format="markdown"),
                       report.comparison_table(rows, format="csv"))
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            latencies.append(perf_counter() - t0)
            outputs.append(out)
        return latencies, outputs, None

    def _check(self, dataset, outputs):
        from metaprop import ingest

        y, v, sizes = checks.effects([(t.study_id, t.k, t.n) for t in dataset.trials])
        failures, first = [], None
        for out in outputs:
            if isinstance(out, Exception):
                failures.append(_failure(out))
                continue
            rows, *tables = out
            first = first or tables
            problem = None
            if tables != first:
                problem = "comparison table or trail differs from the first op"
            for row in rows:
                if not row.converged or row.note:
                    problem = f"row {row.name} did not converge: {row.note}"
                    break
                design = ingest.encode_design(dataset, row.features)
                loglik = (2.0 * (row.f + 2) - row.aic) / 2.0
                if design.f != row.f or not checks.loglik_matches(
                        loglik, y, design.matrix, v, sizes, row.sigma2_xi, row.sigma2_zeta):
                    problem = f"row {row.name} loglik {loglik!r} disagrees with the dense reference"
                    break
            if problem:
                failures.append(problem)
        return failures


class RecoveryStudy(Workload):
    """Recovery replicates of the example simulation config, seeded by the workload seed."""

    name = "recovery_study"
    NOMINAL_OP_S = 0.2
    MIN_OPS = 12

    def prepare(self, seed, workdir):
        from metaprop import simulate

        template = (ROOT / "data" / "example_simconfig.yaml").read_text(encoding="utf-8")
        configs = []
        for mode in ("gaussian", "binomial"):
            path = workdir / f"simconfig_{mode}.yaml"
            path.write_text(inputs.simconfig_yaml(template, seed, mode), encoding="utf-8")
            configs.append(simulate.load_simconfig(path))
        return configs

    def _ops(self, configs, count, tracer, in_process):
        """One op is replicate r in gaussian mode plus replicate r in binomial mode.

        A replicate starts where ``recovery_experiment`` calls ``generate``,
        so each call to ``generate`` marks an op boundary.
        """
        from metaprop import simulate

        marks, samples = [], []

        def boundary(generate):
            def marked(*args, **kwargs):
                marks.append(perf_counter())
                if tracer is not None:
                    tracer.op = len(marks) - 1
                dataset = generate(*args, **kwargs)
                samples.append([(t.study_id, t.k, t.n) for t in dataset.trials])
                return dataset
            return marked

        records = rebind(simulate, "generate", boundary)
        passes = []
        try:
            for config in configs:
                first = len(marks)
                try:
                    summary = simulate.recovery_experiment(config, count, method="reml")
                except Exception as exc:  # a failed op is counted, not fatal
                    summary = exc
                passes.append((summary, samples[first:], marks[first:] + [perf_counter()]))
        finally:
            restore(records)
        latencies = [0.0] * count
        for _, _, bounds in passes:
            for r in range(min(count, len(bounds) - 1)):
                latencies[r] += bounds[r + 1] - bounds[r]
        return latencies, (count, passes), None

    def _check(self, configs, outputs):
        count, passes = outputs
        bad = {}
        for summary, samples, _ in passes:
            if isinstance(summary, Exception):
                return [_failure(summary)] * count
            for record, trials in zip(summary.records, samples):
                y, v, sizes = checks.effects(trials)
                mu, se = checks.dense_gls_intercept(
                    y, v, sizes, record.sigma2_xi_hat, record.sigma2_zeta_hat)
                if not record.converged:
                    bad.setdefault(record.replicate, f"replicate {record.replicate} did not converge")
                elif not (checks.close(mu, record.mu_hat) and checks.close(se, record.se)):
                    bad.setdefault(record.replicate,
                                   f"replicate {record.replicate} GLS disagrees with the dense reference")
        return list(bad.values())


class CliSession(Workload):
    """One op is one ``python -m metaprop.cli`` command of a four-command session.

    Traced runs call ``metaprop.cli.main`` in-process with the same argv,
    so the per-command import is measured separately as ``cli.import_s``.
    """

    name = "cli_session"
    NOMINAL_OP_S = 1.5

    def prepare(self, seed, workdir):
        from metaprop import cli, ingest  # noqa: F401  (timed import)

        data = workdir / "trials.csv"
        schema = workdir / "schema.yaml"
        data.write_text(inputs.trials_csv(seed), encoding="utf-8")
        schema.write_text(inputs.schema_yaml(), encoding="utf-8")
        out = workdir / "out"
        forest = out / "forest"
        forest.mkdir(parents=True, exist_ok=True)
        d, s = str(data), str(schema)
        commands = [
            ["fit", d, s, "--diagnostics", "--format=json", "--out-dir", str(out / "fit")],
            ["regress", d, s, "--features=all", "--format=json", "--out-dir", str(out / "regress_all")],
            ["regress", d, s, "--features=ml_model", "--out-dir", str(out / "regress_ml_model")],
            ["forest", d, s, str(forest / "forest.svg"), "--out-dir", str(forest)],
        ]
        dataset = ingest.parse_dataset(data.read_text(encoding="utf-8"), ingest.load_schema(schema))
        return {"commands": commands, "dataset": dataset, "svg": forest / "forest.svg",
                "workdir": workdir}

    def op_count(self, seconds):
        # whole sessions of four commands
        return 4 * max(self.MIN_OPS, round(seconds / (4 * self.NOMINAL_OP_S)))

    def _ops(self, ctx, count, tracer, in_process):
        commands = ctx["commands"]
        latencies, outputs, peak = [], [], 0.0
        env = program_env()
        for i in range(count):
            argv = commands[i % len(commands)]
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            if in_process:
                code, stdout = self._in_process(argv)
            else:
                code, stdout, rss_kb = self._subprocess(argv, ctx["workdir"], env)
                peak = max(peak, rss_kb / 1024.0)
            latencies.append(perf_counter() - t0)
            svg = ctx["svg"].read_text(encoding="utf-8") if argv[0] == "forest" else None
            outputs.append((i % len(commands), code, stdout, svg))
        return latencies, outputs, None if in_process else peak

    @staticmethod
    def _in_process(argv):
        from metaprop import cli

        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a failed op is counted, not fatal
                print(f"raised {type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
        if code:
            sys.stderr.write(err.getvalue())
        return code, buf.getvalue().encode("utf-8")

    @staticmethod
    def _subprocess(argv, workdir, env):
        """Run one command; wait4 gives its own CPU and peak RSS."""
        import subprocess

        out_path, err_path = workdir / "stdout", workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "metaprop.cli", *argv],
                                    stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace"))
        return proc.returncode, out_path.read_bytes(), usage.ru_maxrss

    def _check(self, ctx, outputs):
        from metaprop import ingest

        dataset = ctx["dataset"]
        y, v, sizes = checks.effects([(t.study_id, t.k, t.n) for t in dataset.trials])
        first: dict = {}
        failures = []
        for index, code, stdout, svg in outputs:
            argv = ctx["commands"][index]
            problem = None
            if code != 0:
                problem = f"{argv[0]} exited {code}"
            elif first.setdefault(index, stdout) != stdout:
                problem = f"{argv[0]} stdout differs from the first session"
            elif argv[0] == "forest" and not checks.svg_parses(svg):
                problem = "forest SVG does not parse as XML"
            elif "--format=json" in argv:
                payload = json.loads(stdout)
                features = payload.get("features", [])
                design = ingest.encode_design(dataset, features)
                if not payload["converged"] or design.f != payload["f"] or not checks.loglik_matches(
                        payload["loglik"], y, design.matrix, v, sizes,
                        payload["sigma2_xi"], payload["sigma2_zeta"]):
                    problem = f"{argv[0]} loglik disagrees with the dense reference"
            if problem:
                failures.append(problem)
        return failures


WORKLOADS = {w.name: w for w in (SelectExhaustive(), RecoveryStudy(), CliSession())}


def tail(latencies):
    """Latency at the highest percentile with at least ten ops beyond it."""
    n = len(latencies)
    if n <= 10:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "ops": n}

