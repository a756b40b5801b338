import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest

from metaprop import cli, engine, selection
from metaprop.ingest import (Dataset, FeatureSchema, FeatureSpec, ValidationError,
                             encode_design, load_schema, parse_dataset)
from metaprop.selection import criterion, five_model_protocol
from metaprop.simulate import Moderator, SimConfig, generate

from test_simulate import MODERATED

# boundary clamping is exercised explicitly in test_simulate; here it is noise
pytestmark = pytest.mark.filterwarnings("ignore:.*clamped.*")


class FakeFit:
    def __init__(self, loglik, f, m, method="reml"):
        self.loglik = loglik
        self.f = f
        self.m = m
        self.method = method


class TestCriterion:
    def test_aic_counts_variance_components(self):
        assert criterion(FakeFit(0.0, 1, 50), None, "aic") == pytest.approx(6.0)

    def test_bic_uses_effective_m(self):
        m_eff = math.e ** 2
        fake = FakeFit(0.0, 1, int(round(m_eff)) + 1, method="reml")
        # reml: m_eff = m - f; build m so that m - f = e^2 is impossible with
        # integer m, so check the formula directly instead
        val = criterion(FakeFit(0.0, 1, 10, "ml"), None, "bic")
        assert val == pytest.approx(3 * math.log(10))
        val = criterion(FakeFit(0.0, 1, 11, "reml"), None, "bic")
        assert val == pytest.approx(3 * math.log(10))

    def test_rmse_zero_residuals(self):
        assert criterion(FakeFit(0.0, 1, 5), np.zeros(5), "rmse") == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            criterion(FakeFit(0.0, 1, 5), None, "mdl")


def _noise_config(seed, effect=0.0):
    return SimConfig(h=8, trials_per_study=3, mu=1.1, sigma2_xi=0.015,
                     sigma2_zeta=0.005, n_range=(300, 2000), seed=seed,
                     moderators=[Moderator("m1", effect), Moderator("m2", 0.0)])


class TestSearchBehavior:
    def test_penalty_ordering_on_null_data(self):
        # pure-noise moderators: both criteria should usually keep the null
        # model, BIC more often than AIC (heavier complexity penalty)
        aic_null = bic_null = 0
        reps = 100
        for rep in range(reps):
            data = generate(_noise_config(900 + rep))
            trail = selection._exhaustive_trail(data, "reml")
            best_aic = selection._best_record(trail, "aic")
            best_bic = selection._best_record(trail, "bic")
            aic_null += best_aic.features == ()
            bic_null += best_bic.features == ()
        assert bic_null >= aic_null
        assert aic_null >= 45
        assert bic_null >= 75

    def test_strong_moderator_selected(self):
        hits_aic = hits_bic = 0
        reps = 100
        for rep in range(reps):
            cfg = SimConfig(h=8, trials_per_study=3, mu=0.9, sigma2_xi=0.005,
                            sigma2_zeta=0.005, n_range=(300, 2000), seed=3300 + rep,
                            moderators=[Moderator("m1", 0.25), Moderator("m2", 0.0)])
            trail = selection._exhaustive_trail(generate(cfg), "reml")
            hits_aic += "m1" in selection._best_record(trail, "aic").features
            hits_bic += "m1" in selection._best_record(trail, "bic").features
        assert hits_aic >= 95
        assert hits_bic >= 95

    def test_rmse_selects_full_on_nested_improving_data(self):
        cfg = SimConfig(h=12, trials_per_study=5, mu=1.05, sigma2_xi=0.004,
                        sigma2_zeta=0.003, n_range=(800, 1200), seed=77,
                        moderators=[Moderator("a", 0.30), Moderator("b", 0.20),
                                    Moderator("c", 0.12)])
        data = generate(cfg)
        trail = selection._exhaustive_trail(data, "reml")
        by_feats = {r.features: r.rmse for r in trail}
        names = data.schema.names
        # verify the nested-improving precondition on every add-one edge
        for feats, rmse in by_feats.items():
            for name in names:
                if name not in feats:
                    bigger = tuple(f for f in names if f in feats or f == name)
                    assert by_feats[bigger] <= rmse + 1e-12
        best = selection._best_record(trail, "rmse")
        assert set(best.features) == set(names)

    def test_exhaustive_beats_stepwise_beats_null(self):
        data = generate(_noise_config(4242, effect=0.25))
        exh, exh_trail = five_model_protocol(data, strategy="exhaustive")
        step, _ = five_model_protocol(data, strategy="stepwise")
        aic = lambda rows: next(r.aic for r in rows if r.name == "AIC")
        null_rec = [r for r in exh_trail if r.features == ()][0]
        assert aic(exh) <= aic(step) + 1e-12
        assert aic(step) <= null_rec.aic + 1e-12

    def test_too_many_features_for_exhaustive(self):
        mods = [Moderator(f"f{i:02d}", 0.0) for i in range(21)]
        cfg = SimConfig(h=4, trials_per_study=2, mu=1.1, sigma2_xi=0.01,
                        sigma2_zeta=0.005, n_range=(100, 200), seed=1, moderators=mods)
        data = generate(cfg)
        with pytest.raises(ValidationError, match="infeasible"):
            five_model_protocol(data, strategy="exhaustive")

    def test_unknown_criterion_and_strategy(self):
        data = generate(_noise_config(5))
        with pytest.raises(ValueError):
            criterion(FakeFit(0.0, 1, data.m), None, "mdl")
        with pytest.raises(ValueError):
            five_model_protocol(data, strategy="annealing")


class TestLockstepSearch:
    """The search fits subsets of one width together; a record must not depend on that."""

    @pytest.fixture(scope="class")
    def small(self):
        from conftest import DATA, TESTDATA

        schema = load_schema(TESTDATA / "small_schema.yaml")
        return parse_dataset((DATA / "example_trials.csv").read_text(encoding="utf-8"), schema)

    @pytest.mark.parametrize("method", ["reml", "ml"])
    def test_record_matches_fit_alone(self, small, method):
        y, v = engine.effect_arrays(small)
        trail = selection._exhaustive_trail(small, method)
        assert len({r.f for r in trail}) < len(trail)    # some subsets share a Problem
        for record in trail:
            fit = engine.fit_model(y, encode_design(small, record.features),
                                   small.group_sizes(), v, method=method)
            assert record.skipped is None
            assert record.loglik == pytest.approx(fit.loglik, abs=1e-12)
            assert (record.f, record.converged) == (fit.f, fit.converged)

    def test_rows_equal_their_trail_records(self, small):
        # the four-trial dataset's Full model has m = f = 4, so its row fails
        failing = parse_dataset("study_id,trial_id,k,n,grp\nS1,t1,80,100,a\nS1,t2,70,90,b\n"
                                "S2,t1,60,100,c\nS2,t2,75,80,d\n",
                                FeatureSchema(entries=[FeatureSpec("grp", "categorical",
                                                                   reference_level="a")]))
        failed = 0
        for data in (small, failing):
            rows, trail = five_model_protocol(data)
            by_features = {r.features: r for r in trail}
            for row in rows:
                record = by_features[row.features]
                if record.skipped is not None:
                    failed += 1
                    assert row.note == record.skipped and row.f == record.f == 0
                else:
                    assert (row.aic, row.bic, row.rmse) == (record.aic, record.bic, record.rmse)
        assert failed == 1

    @pytest.mark.parametrize("mode", ["gaussian", "binomial"])
    def test_replicate_subset_designs_match_each_replicate_trail(self, mode):
        # design (r, S) of one fit_subsets call is subset S of replicate r: 20
        # replicates x all 4 subsets of x and g give each replicate's own trail
        config = dataclasses.replace(MODERATED, mode=mode)
        names = config.schema().names
        subsets = [tuple(n for i, n in enumerate(names) if mask >> i & 1) for mask in range(4)]
        fits = dict(selection.fit_subsets((generate(config, r) for r in range(20)), subsets,
                                          "reml"))
        assert sorted(fits) == list(range(80))
        assert {fits[r * 4 + 3].f for r in range(20)} == {2, 3}   # g drops out in 3 replicates
        for r in range(20):
            trail = selection._exhaustive_trail(generate(config, r), "reml")
            for j, alone in enumerate(trail):
                record = selection._record(subsets[j], fits[r * 4 + j])
                assert (record.features, record.f, record.skipped, record.converged) == (
                    alone.features, alone.f, alone.skipped, alone.converged), (r, j)
                assert record.loglik == pytest.approx(alone.loglik, rel=1e-10)

    def test_one_study_layout_per_call(self):
        # one size, two layouts: b's effects must not be fitted under a's layout
        def dataset(layout):
            trials = [(s, t) for s, size in enumerate(layout) for t in range(size)]
            return parse_dataset("study_id,trial_id,k,n\n" + "".join(
                f"S{s},t{t},{k},12\n" for (s, t), k in zip(trials, [3, 5, 7, 9, 4, 6])),
                FeatureSchema(entries=[]))

        a, b = dataset([3, 3]), dataset([2, 4])
        assert a.group_sizes().tolist() == [3, 3] and b.group_sizes().tolist() == [2, 4]
        with pytest.raises(ValueError, match="another study layout"):
            selection.fit_subsets([a, b], [()], "reml")

    def test_evaluation_cap_reaches_every_record(self, small, monkeypatch):
        monkeypatch.setattr(engine, "MAX_EVALUATIONS", 2)
        trail = selection._exhaustive_trail(small, "reml")
        assert [r.converged for r in trail] == [False] * len(trail)


class TestSearchCost:
    """Counts that do not depend on the machine: evaluations per fit of the
    exhaustive REML search over the example's first 8 features."""

    MEASURED_EVALUATIONS_PER_FIT = 4067 / 256

    def test_two_starts_and_evaluations_per_fit(self, example_dataset, monkeypatch):
        from conftest import DATA

        first8 = FeatureSchema(entries=example_dataset.schema.entries[:8])
        data = parse_dataset((DATA / "example_trials.csv").read_text(encoding="utf-8"), first8)
        problems, starts = [0], []
        evaluate_batch, ascend = engine.Problem.evaluate_batch, engine._ascend

        def counting(problem, design, point):
            problems[0] += len(design)
            return evaluate_batch(problem, design, point)

        def recording(problem, design, start):
            starts.append(np.bincount(design))
            return ascend(problem, design, start)

        monkeypatch.setattr(engine.Problem, "evaluate_batch", counting)
        monkeypatch.setattr(engine, "_ascend", recording)
        monkeypatch.setattr(selection, "_workers", lambda: 1)   # counters see this process only
        trail = selection._exhaustive_trail(data, "reml")
        assert len(trail) == 256 and all(r.skipped is None and r.converged for r in trail)
        assert max(count.max() for count in starts) == 2
        per_fit = problems[0] / len(trail)
        assert per_fit <= 1.1 * self.MEASURED_EVALUATIONS_PER_FIT, per_fit


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedSearch:
    """The exhaustive search splits its width classes over forked children;
    the trail, errors and warnings must be the serial search's."""

    @pytest.fixture(scope="class")
    def first8(self, example_dataset):
        from conftest import DATA

        schema = FeatureSchema(entries=example_dataset.schema.entries[:8])
        return parse_dataset((DATA / "example_trials.csv").read_text(encoding="utf-8"), schema)

    @pytest.fixture(scope="class")
    def one_width(self):
        # every level grouped into the reference: 8 subsets, all of width 1
        from conftest import DATA

        levels = {"language": ["English", "Italian", "Nepali", "Tamil"],
                  "confusion_matrix": ["No", "Yes"], "dataset_type": ["Existing", "Self-scraped"]}
        schema = FeatureSchema(entries=tuple(
            FeatureSpec(name=name, kind="categorical", reference_level=values[0],
                        grouping={value: values[0] for value in values})
            for name, values in levels.items()))
        return parse_dataset((DATA / "example_trials.csv").read_text(encoding="utf-8"), schema)

    @pytest.mark.parametrize("data", ["first8", "one_width"])
    def test_records_equal_at_one_two_and_three_workers(self, data, request, monkeypatch):
        dataset = request.getfixturevalue(data)
        trails = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(selection, "_workers", lambda: workers)
            trails.append(selection._exhaustive_trail(dataset, "reml"))
            no_child_left()
        assert trails[0] == trails[1] == trails[2]           # loglik floats included
        assert [r.loglik for r in trails[0]] == [r.loglik for r in trails[2]]
        assert all(r.skipped is None for r in trails[0])
        assert len({r.f for r in trails[0]}) == (1 if data == "one_width" else 20)

    def test_one_width_class_forks_nothing(self, one_width, first8, monkeypatch):
        # one share, from one width class or from one usable core, is fitted here
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        for dataset, workers, records in ((one_width, 3, 8), (first8, 1, 256)):
            monkeypatch.setattr(selection, "_workers", lambda: workers)
            assert len(selection._exhaustive_trail(dataset, "reml")) == records

    def test_shares_are_whole_width_classes_longest_first(self):
        widths = [1, 2, 2, 3, 3, 3, 9]
        shares = selection._shares(widths, 2)
        # class costs d (f + 4)^2 + 200: f=9 369, f=3 347, f=2 272, f=1 225
        assert shares == [[0, 6], [1, 2, 3, 4, 5]]
        assert sorted(sum(selection._shares(widths, 3), [])) == list(range(7))

    @staticmethod
    def failing_in(where, error, monkeypatch):
        """Patch _subset_trail to raise ``error`` in the parent or in the children."""
        parent, subset_trail = os.getpid(), selection._subset_trail

        def trail(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise error
            return subset_trail(*args)

        monkeypatch.setattr(selection, "_subset_trail", trail)
        monkeypatch.setattr(selection, "_workers", lambda: 3)

    def test_child_exception_reaches_the_caller(self, first8, monkeypatch):
        self.failing_in("child", ValidationError("raised in a child"), monkeypatch)
        with pytest.raises(ValidationError, match="^raised in a child$"):
            five_model_protocol(first8)
        no_child_left()

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError("raised here"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_own_share_failing_reaps_every_child(self, first8, monkeypatch, error):
        self.failing_in("parent", error, monkeypatch)
        with pytest.raises(type(error)):
            selection._exhaustive_trail(first8, "reml")
        no_child_left()

    def test_child_warning_is_reissued(self, first8, monkeypatch):
        parent, subset_trail = os.getpid(), selection._subset_trail

        def trail(*args):
            if os.getpid() != parent:
                warnings.warn("warned in a child")
            return subset_trail(*args)

        monkeypatch.setattr(selection, "_subset_trail", trail)
        monkeypatch.setattr(selection, "_workers", lambda: 2)
        with pytest.warns(UserWarning, match="^warned in a child$") as caught:
            trail = selection._exhaustive_trail(first8, "reml")
        assert len(caught) == 1 and len(trail) == 256
        no_child_left()


class TestFiveModelProtocol:
    def test_structure_and_ordering(self):
        data = generate(_noise_config(606, effect=0.2))
        rows, trail = five_model_protocol(data)
        assert [r.name for r in sorted(rows, key=lambda r: r.aic)] == [r.name for r in rows]
        names = {r.name for r in rows}
        assert names == {"Null", "Full", "AIC", "BIC", "RMSE"}
        null_row = next(r for r in rows if r.name == "Null")
        assert null_row.f == 1
        assert null_row.r2_xi is None and null_row.r2_zeta is None
        assert len(trail) == 4  # 2 features -> 4 subsets
        full_row = next(r for r in rows if r.name == "Full")
        assert set(full_row.features) == set(data.schema.names)

    def test_zero_moderators_full_equals_null(self):
        cfg = SimConfig(h=6, trials_per_study=4, mu=1.1, sigma2_xi=0.02,
                        sigma2_zeta=0.006, n_range=(500, 1500), seed=99)
        data = generate(cfg)
        rows, _ = five_model_protocol(data)
        by_name = {r.name: r for r in rows}
        assert by_name["Full"].f == by_name["Null"].f == 1
        assert by_name["Full"].aic == pytest.approx(by_name["Null"].aic, abs=1e-9)
        assert by_name["Full"].r2_xi == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_across_runs(self):
        from metaprop.report import comparison_table

        data = generate(_noise_config(777, effect=0.15))
        rows1, trail1 = five_model_protocol(data)
        rows2, trail2 = five_model_protocol(data)
        assert comparison_table(rows1, "csv") == comparison_table(rows2, "csv")
        assert [r.aic for r in trail1] == [r.aic for r in trail2]      # position by position

    def test_stepwise_null_failure_raises(self):
        # one trial: the intercept-only model has m == f, so stepwise has no start
        data = Dataset(study_id=["S1"], trial_id=["t1"], k=[8], n=[10], features={},
                       schema=FeatureSchema(entries=()))
        with pytest.raises(ValidationError, match="^null model failed: need more trials"):
            five_model_protocol(data, strategy="stepwise")

    def test_stepwise_protocol_runs(self):
        data = generate(_noise_config(123, effect=0.25))
        rows, trail = five_model_protocol(data, strategy="stepwise")
        assert {r.name for r in rows} == {"Null", "Full", "AIC", "BIC", "RMSE"}
        assert len(trail) > 0

    def test_stepwise_trail_indices_are_positions(self, monkeypatch, capsys, tmp_path):
        # the three criteria's passes append to one trail, and each line of
        # search_trail.jsonl carries its record's position as its index
        data = generate(_noise_config(123, effect=0.25))
        _, trail = five_model_protocol(data, strategy="stepwise")
        monkeypatch.setattr(cli, "_load_dataset", lambda *paths: data)
        cli.main(["select", "data.csv", "schema.yaml", "--strategy", "stepwise",
                  "--out-dir", str(tmp_path)])
        capsys.readouterr()
        with open(tmp_path / "search_trail.jsonl", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert [line["index"] for line in lines] == list(range(len(trail)))
        assert [tuple(line["features"]) for line in lines] == [r.features for r in trail]
        assert [line["aic"] for line in lines] == [r.aic for r in trail]
