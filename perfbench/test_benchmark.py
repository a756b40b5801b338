"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer, rebind, restore  # noqa: E402
from workloads import WORKLOADS, CliSession, Pass, SelectExhaustive, tail  # noqa: E402

from metaprop import engine, ingest, report, selection  # noqa: E402


def small_dataset(seed=3, groups=2):
    schema = ingest.FeatureSchema.from_yaml(inputs.schema_yaml(groups))
    return ingest.parse_dataset(inputs.trials_csv(seed), schema)


def test_generator_is_seeded_and_example_shaped():
    assert inputs.trials_csv(5) == inputs.trials_csv(5)
    assert inputs.trials_csv(5) != inputs.trials_csv(6)
    dataset = small_dataset(5, groups=len(inputs.FEATURES))
    assert (dataset.m, dataset.h) == (195, 20)
    restricted = ingest.FeatureSchema.from_yaml(inputs.schema_yaml(inputs.SEARCH_GROUPS))
    assert restricted.names == inputs.FEATURES[:8]


def test_dense_loglik_agrees_with_engine_and_rejects_perturbation():
    dataset = small_dataset()
    design = ingest.encode_design(dataset, dataset.schema.names)
    y, v, sizes = checks.effects([(t.study_id, t.k, t.n) for t in dataset.trials])
    vc = engine.VarianceComponents(0.011, 0.004)
    reported = engine.log_likelihood(y, design, dataset.group_sizes(), vc, v, method="reml")
    args = (y, design.matrix, v, sizes, vc.sigma2_xi, vc.sigma2_zeta)
    assert checks.loglik_matches(reported, *args)
    assert not checks.loglik_matches(reported * (1 + 1e-7), *args)
    assert not checks.loglik_matches(float("nan"), *args)


def test_select_check_flags_a_perturbed_row():
    dataset = small_dataset()
    rows, trail = selection.five_model_protocol(dataset, strategy="exhaustive", method="reml")

    def op(rows):
        return (rows, trail, report.comparison_table(rows, format="markdown"),
                report.comparison_table(rows, format="csv"))

    workload = SelectExhaustive()
    assert workload._check(dataset, [op(rows), op(rows)]) == []
    bad = dataclasses.replace(rows[1], aic=rows[1].aic + 1e-6 * abs(rows[1].aic))
    failures = workload._check(dataset, [op(rows), op([rows[0], bad] + rows[2:])])
    assert len(failures) == 1 and "dense reference" in failures[0]


def test_cli_check_flags_a_perturbed_fit_loglik():
    dataset = small_dataset(groups=len(inputs.FEATURES))
    y, v = engine.effect_arrays(dataset)
    fit = engine.fit_model(y, ingest.encode_design(dataset, ()), dataset.group_sizes(), v)
    payload = {"converged": fit.converged, "f": fit.f, "loglik": fit.loglik,
               "sigma2_xi": fit.varcomps.sigma2_xi, "sigma2_zeta": fit.varcomps.sigma2_zeta}
    ctx = {"dataset": dataset, "commands": [["fit", "d", "s", "--format=json"]]}
    good = json.dumps(payload).encode()
    assert CliSession()._check(ctx, [(0, 0, good, None)]) == []
    payload["loglik"] *= 1 + 1e-7
    bad = json.dumps(payload).encode()
    assert CliSession()._check(ctx, [(0, 0, bad, None)]) != []
    assert CliSession()._check(ctx, [(0, 0, good, None), (0, 0, bad, None)]) != []


def test_svg_check():
    assert checks.svg_parses('<svg xmlns="http://www.w3.org/2000/svg"><g/></svg>')
    assert not checks.svg_parses("<svg><g></svg>")


def test_self_time_subtracts_children_and_rebind_restores():
    import time

    import metaprop
    from metaprop import ingest as ingest_module

    tracer = Tracer()
    original = ingest_module.encode_design
    records = rebind(ingest_module, "encode_design", lambda fn: tracer.span("enc", fn))
    assert metaprop.encode_design is ingest_module.encode_design is not original
    restore(records)
    assert metaprop.encode_design is ingest_module.encode_design is original

    inner = tracer.span("inner", lambda: time.sleep(0.02))
    outer = tracer.span("outer", lambda: (inner(), time.sleep(0.01)))
    outer()
    own = dict(zip((s[0] for s in tracer.spans), tracer.self_times()))
    assert own["inner"] == pytest.approx(0.02, abs=0.01)
    assert own["outer"] == pytest.approx(0.01, abs=0.01)


def test_self_coverage_leaves_out_top_level_self_time():
    import time

    tracer = Tracer()
    inner = tracer.span("engine.log_likelihood", lambda: time.sleep(0.02))
    outer = tracer.span("cli.main", lambda: (inner(), time.sleep(0.02)))
    start = time.perf_counter()
    outer()
    stats = {"fits": 0, "evaluations": 0, "nonconverged": 0, "candidates": 0, "useful": 0}
    traced = Pass([], [], time.perf_counter() - start, 0.0, 0.0, stats)
    metrics = run.per_layer(tracer, traced, traced, (1.0, 0.5))
    assert metrics["trace.self_coverage"]["value"] == pytest.approx(0.5, abs=0.2)
    assert metrics["trace.root_self_share"]["value"] == pytest.approx(0.5, abs=0.2)


def test_tail_needs_ten_ops_beyond():
    assert tail([1.0] * 10) is None
    result = tail(list(range(40)))
    assert result["value"] == 29 and result["percentile"] == 75.0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
