import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop import engine, rng, simulate
from metaprop.ingest import ValidationError, dataset_csv, encode_design, parse_dataset
from metaprop.simulate import (Moderator, SimConfig, generate, load_simconfig,
                               recovery_experiment)
from metaprop.transforms import ft_inverse

EXAMPLE_SIMCONFIG = pathlib.Path(__file__).resolve().parents[1] / "data" / "example_simconfig.yaml"
# four studies: in replicates 1, 6 and 13 every study draws the same level of g,
# so g drops out and those designs have two columns instead of three
MODERATED = SimConfig(h=4, trials_per_study=[2, 3, 1, 3], mu=1.1, sigma2_xi=0.01,
                      sigma2_zeta=0.005, n_range=(50, 400), seed=1,
                      moderators=[Moderator("x", 0.1), Moderator("g", 0.05, "categorical")])


def reference_binomial(key, n, p):
    """One binomial draw the plain way: lane j reads its quota of uniforms below p."""
    lanes = min(n, rng._LANES)
    count = 0
    for j in range(lanes):
        lane = rng.Streams(rng._mix64(np.uint64(key) ^ rng._LANE_SALT[j]))
        for _ in range(n // lanes + (j < n % lanes)):
            count += int(lane.uniform()[0] < p)
    return count


def first_read_p(key, step):
    """j * 2**-53 for the first value j that lane 0 of ``key`` reads, moved by
    ``step`` (-1, 0 or 1) to a neighbouring double: the p at which a hit turns."""
    lane = rng.Streams(rng._mix64(np.uint64(key) ^ rng._LANE_SALT[0]))
    p = float(lane.next_u64()[0] >> np.uint64(11)) * 2.0 ** -53
    return float(np.nextafter(p, step * 2.0)) if step else p


_N_CASES = (st.sampled_from([1, 2, 1022, 1023, 1024, 1025, 2047, 2048, 3071, 3072, 3073])
            | st.integers(0, 2100))
_P_CASES = (st.sampled_from([0.0, 1.0, 2.0 ** -53, 1 - 2.0 ** -53]) | st.floats(0.0, 1.0)
            | st.sampled_from([-1, 0, 1]))      # an int is a step for first_read_p


def batch_mismatches(chunk=5):
    """Records of ``recovery_experiment``, fitted ``chunk`` replicates per
    ``fit_designs`` call, that differ in any bit from ``fit_model`` on their
    replicate alone: example gaussian and binomial, and MODERATED by REML
    and by ML.  Returns (config, replicate, record, alone) tuples."""
    example = load_simconfig(EXAMPLE_SIMCONFIG)
    binomial = load_simconfig(EXAMPLE_SIMCONFIG)
    binomial.mode = "binomial"
    cases = [("gaussian", example, 12, "reml"), ("binomial", binomial, 12, "reml"),
             ("moderated", MODERATED, 16, "reml"), ("moderated-ml", MODERATED, 16, "ml")]
    saved, simulate._CHUNK = simulate._CHUNK, chunk
    try:
        mismatches = []
        for name, config, reps, method in cases:
            for rec in recovery_experiment(config, reps, method=method).records:
                data = generate(config, rec.replicate)
                y, v = engine.effect_arrays(data)
                fit = engine.fit_model(y, encode_design(data, data.schema.names),
                                       data.group_sizes(), v, method=method)
                alone = (float(fit.beta[0]), math.sqrt(max(float(fit.cov_beta[0, 0]), 0.0)),
                         fit.varcomps.sigma2_xi, fit.varcomps.sigma2_zeta,
                         engine.pooled_estimate(fit).prop, fit.converged)
                got = (rec.mu_hat, rec.se, rec.sigma2_xi_hat, rec.sigma2_zeta_hat, rec.prop,
                       rec.converged)
                if got != alone:
                    mismatches.append((name, rec.replicate, repr(got), repr(alone)))
        return mismatches
    finally:
        simulate._CHUNK = saved


def base_config(**kw):
    defaults = dict(h=6, trials_per_study=4, mu=1.1, sigma2_xi=0.015,
                    sigma2_zeta=0.006, n_range=(300, 2000), seed=42)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestRng:
    def test_streams_deterministic(self):
        a = rng.Streams(rng.stream_key(1, 2, 3)).uniform()
        b = rng.Streams(rng.stream_key(1, 2, 3)).uniform()
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        a = rng.Streams(rng.stream_key(1, 2, 3)).uniform()
        b = rng.Streams(rng.stream_key(1, 2, 4)).uniform()
        assert not np.array_equal(a, b)

    def test_uniform_range_and_mean(self):
        s = rng.Streams(rng.stream_key(7, np.arange(20000)))
        u = s.uniform()
        assert np.all((0.0 <= u) & (u < 1.0))
        assert abs(float(u.mean()) - 0.5) < 0.01

    def test_normal_moments(self):
        s = rng.Streams(rng.stream_key(8, np.arange(40000)))
        z = s.normal()
        assert abs(float(z.mean())) < 0.02
        assert abs(float(z.std()) - 1.0) < 0.02

    def test_integers_inclusive_range(self):
        s = rng.Streams(rng.stream_key(9, np.arange(5000)))
        vals = s.integers(3, 7)
        assert set(np.unique(vals)) == {3, 4, 5, 6, 7}

    def test_binomial_support_and_mean(self):
        draws = rng.binomial(rng.stream_key(1, np.arange(300)), 500, 0.3)
        assert draws.shape == (300,)
        assert np.all((0 <= draws) & (draws <= 500))
        assert abs(np.mean(draws) - 150) < 5

    def test_binomial_streams_pinned(self):
        # literal draws: any change to the binomial streams changes every binomial dataset
        cases = [(0, .3), (1, .5), (7, 0), (1023, 1), (1024, .7), (1025, .2), (100000, .9)]
        draws = [int(rng.binomial(rng.stream_key(5, i), n, p)) for i, (n, p) in enumerate(cases)]
        assert draws == [0, 0, 0, 1023, 690, 225, 89951]

    def test_binomial_array_matches_one_at_a_time(self):
        # 8 draws of 1024 lanes among the others: more than one lane block
        n = np.array([0, 1, 5, 0, 1023, 1024, 1025, 3000, 2048, 7, 9000, 1, 4097, 0, 600,
                      1500, 2500, 5000])
        p = np.array([.3, 0, 1, 1, .5, 0, 1, .25, .9, .5, .01, .99, .5, 0, .7, .6, .4, 1])
        keys = rng.stream_key(13, np.arange(n.size))
        together = rng.binomial(keys, n, p)
        alone = [int(rng.binomial(keys[i], n[i], p[i])) for i in range(n.size)]
        assert together.dtype == np.int64
        assert together.tolist() == alone
        assert np.all(together[n == 0] == 0)
        assert np.all(together[p == 0] == 0)
        assert np.array_equal(together[p == 1], n[p == 1])
        assert np.array_equal(rng.binomial(keys.reshape(3, 6), n.reshape(3, 6), p.reshape(3, 6)),
                              together.reshape(3, 6))
        for n_bad, p_bad in [([3, -1], 0.5), (3, [0.5, -0.1]), (3, [1.5, 0.5]), (3, np.nan),
                             ([3, 0], [0.5, np.nan])]:
            with pytest.raises(ValueError):
                rng.binomial(keys[:2], n_bad, p_bad)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), draws=st.lists(st.tuples(_N_CASES, _P_CASES),
                                                        min_size=1, max_size=3))
    def test_binomial_matches_plain_reference(self, seed, draws):
        keys = rng.stream_key(seed, np.arange(len(draws)))
        n = [d[0] for d in draws]
        p = [first_read_p(key, d[1]) if isinstance(d[1], int) else d[1]
             for key, d in zip(keys, draws)]
        assert rng.binomial(keys, n, p).tolist() == [
            reference_binomial(key, n_i, p_i) for key, n_i, p_i in zip(keys, n, p)]

    def test_next_u64_is_output_then_advance(self):
        keys = rng.stream_key(21, np.arange(12).reshape(3, 4))
        drawn, stepped = rng.Streams(keys), rng.Streams(keys)
        for _ in range(4):
            x = stepped.output()
            stepped.advance()
            assert x.shape == (3, 4)
            assert np.array_equal(drawn.next_u64(), x)

    @pytest.mark.parametrize("rows", [0, 1, 3, 5])
    def test_advance_leaves_trailing_rows_untouched(self, rows):
        # advance(rows) writes no state word of the rows after the leading ones, and
        # every row then draws what its lanes draw alone after as many steps
        keys = rng.stream_key(22, np.arange(5))
        bank = rng.Streams.grid(keys, rng._LANE_SALT[:3])
        bank.advance(2)                                  # makes s2 and s3 of rows 0 and 1
        before = bank._s[:, rows:].copy()
        bank.advance(rows)
        assert np.array_equal(bank._s[:, rows:], before)
        draws = [bank.next_u64() for _ in range(4)]
        for i, key in enumerate(keys):
            lanes = rng.Streams(rng._mix64(key ^ rng._LANE_SALT[:3]))
            for _ in range((i < 2) + (i < rows)):
                lanes.next_u64()
            assert np.array_equal([d[i] for d in draws], [lanes.next_u64() for _ in range(4)])

    @pytest.mark.parametrize("block_lanes", [4096, rng._BLOCK_LANES], ids=["4096", "module"])
    def test_binomial_mixes_every_kind_of_row(self, monkeypatch, block_lanes):
        # one call: rows of two to four rounds with partial last rounds, one-read rows
        # (n <= 1024; a block of their own at 4096 lanes), p of 0 and 1, and p on and
        # beside the 2**-53 grid point at which a row's first read turns into a hit;
        # the last two rows' first read x is the hit threshold itself, which it meets
        monkeypatch.setattr(rng, "_BLOCK_LANES", block_lanes)
        n = [1, 7, 300, 1024, 1000, 5, 1025, 2048, 3071, 3073, 4000, 900, 2500, 1024, 12, 1,
             2000]
        candidates = rng.stream_key(24, np.arange(20000))
        first = rng.Streams(rng._mix64(candidates ^ rng._LANE_SALT[0])).next_u64()
        at_threshold = candidates[np.flatnonzero(first & np.uint64(2047) == 2047)[0]]
        keys = np.append(rng.stream_key(23, np.arange(len(n) - 2)), [at_threshold] * 2)
        p = [.4, 0, 1, .9, first_read_p(keys[4], 0), first_read_p(keys[5], -1), 1, 0, .3,
             first_read_p(keys[9], 1), first_read_p(keys[10], 0), 2.0 ** -53, 1 - 2.0 ** -53,
             first_read_p(keys[13], -1), .5] + [first_read_p(at_threshold, 1)] * 2
        together = rng.binomial(keys, n, p).tolist()
        assert together == [int(rng.binomial(k, n_i, p_i)) for k, n_i, p_i in zip(keys, n, p)]
        assert together == [reference_binomial(k, n_i, p_i) for k, n_i, p_i in zip(keys, n, p)]
        assert (together[1], together[2], together[6], together[7], together[15]) == (
            0, 300, 1025, 0, 1)

    def test_rows_reading_twice_mix_five_words(self, monkeypatch):
        # a block of rows that each read every lane twice mixes the keys, s0, s1,
        # and at the one step s2 and s3: five _mix64 calls per block
        keys, n, p = rng.stream_key(26, np.arange(4)), 2 * rng._LANES, 0.3
        calls = []
        original = rng._mix64
        monkeypatch.setattr(rng, "_mix64", lambda *a, **k: calls.append(1) or original(*a, **k))
        monkeypatch.setattr(rng, "_BLOCK_LANES", 2 * rng._LANES)   # two blocks of two rows
        draws = rng.binomial(keys, n, p)
        assert len(calls) == 2 * 5
        assert draws.tolist() == [reference_binomial(key, n, p) for key in keys]

    @pytest.mark.parametrize("head, tail", [
        ((3,), (4, 5)),
        ((3, -1), (7,)),
        ((np.arange(4),), (-1,)),
        ((2,), (np.arange(4), np.arange(4) - 2, 7)),
        ((), (np.arange(3).reshape(3, 1), -1)),
    ], ids=["scalar", "minus-one", "array-then-minus-one", "scalar-then-arrays", "seed-only"])
    def test_extend_key_continues_the_path(self, head, tail):
        whole = rng.stream_key(27, *head, *tail)
        extended = rng.extend_key(rng.stream_key(27, *head), *tail)
        assert type(extended) is type(whole)
        assert np.array_equal(extended, whole)
        with np.errstate(over="ignore"):            # the path step, in uint64 arithmetic
            key = rng._mix64(np.int64(27).astype(np.uint64))
            for idx in (*head, *tail):
                idx = np.asarray(idx, dtype=np.int64).astype(np.uint64)
                key = rng._mix64(key ^ rng._mix64((idx + np.uint64(1)) * np.uint64(rng._GOLDEN)))
        assert np.array_equal(whole, key)

    def test_mix64_of_zero_is_not_zero(self):
        # so a stream's s0 and s1 = _mix64(s0) are never both zero
        assert rng._mix64(np.uint64(0)) != 0


class TestGenerate:
    def test_seed_determinism_byte_identical(self):
        assert dataset_csv(generate(base_config())) == dataset_csv(generate(base_config()))

    def test_different_replicates_differ(self):
        d1 = generate(base_config(), replicate=0)
        d2 = generate(base_config(), replicate=1)
        assert [t.k for t in d1.trials] != [t.k for t in d2.trials]

    def test_layout(self):
        cfg = base_config(trials_per_study=[2, 3, 4, 5, 6, 7])
        data = generate(cfg)
        assert data.h == 6
        assert data.m == 27
        assert list(data.group_sizes()) == [2, 3, 4, 5, 6, 7]

    def test_k_within_support(self):
        for mode in ("gaussian", "binomial"):
            data = generate(base_config(mode=mode, h=4, trials_per_study=3))
            for t in data.trials:
                assert 0 <= t.k <= t.n

    def test_degenerate_noise_pins_proportion(self):
        cfg = base_config(sigma2_xi=0.0, sigma2_zeta=0.0,
                          n_range=(500000, 500000), h=3, trials_per_study=2)
        data = generate(cfg)
        # only the epsilon term (sd ~ 7e-4 at this n) separates p from the target
        target = ft_inverse(cfg.mu, 500000)
        for t in data.trials:
            assert t.k / t.n == pytest.approx(target, abs=5e-3)

    def test_clamp_warning(self):
        cfg = base_config(mu=1.55, sigma2_xi=0.05, h=10, trials_per_study=10)
        with pytest.warns(UserWarning, match="clamped"):
            generate(cfg)

    def test_moderators_recorded_in_schema(self):
        cfg = base_config(moderators=[Moderator("x", 0.1),
                                      Moderator("g", 0.05, "categorical")])
        data = generate(cfg)
        assert data.schema.names == ["x", "g"]
        assert all(isinstance(t.features["x"], float) for t in data.trials)
        assert set(t.features["g"] for t in data.trials) <= {"a", "b"}

    def test_moderator_values_constant_within_study(self):
        cfg = base_config(moderators=[Moderator("x", 0.1)])
        data = generate(cfg)
        for sid in data.study_ids():
            vals = {t.features["x"] for t in data.trials if t.study_id == sid}
            assert len(vals) == 1

    def test_xi_variance_law_of_large_numbers(self):
        cfg = base_config(h=10000, trials_per_study=1, sigma2_xi=0.02,
                          sigma2_zeta=0.0, mu=1.1, n_range=(100, 100))
        sizes = cfg.trial_counts()
        streams = rng.Streams(rng.stream_key(cfg.seed, 0, np.arange(cfg.h), -1))
        xi = streams.normal() * math.sqrt(cfg.sigma2_xi)
        assert float(np.var(xi)) == pytest.approx(0.02, rel=0.05)
        assert len(sizes) == 10000

    def test_binomial_concentration_large_n(self):
        cfg = base_config(mode="binomial", h=2, trials_per_study=2,
                          sigma2_xi=0.0, sigma2_zeta=0.0,
                          n_range=(1000000, 1000000))
        data = generate(cfg)
        target = ft_inverse(cfg.mu, 1000000)
        for t in data.trials:
            assert t.k / t.n == pytest.approx(target, abs=1e-2)

    @pytest.mark.parametrize("config, replicate, expected", [
        (SimConfig(h=3, trials_per_study=[1, 2, 3], mu=1.1, sigma2_xi=0.01, sigma2_zeta=0.005,
                   n_range=(1, 3000), mode="binomial", seed=11), 0,
         [(821, 954), (2031, 2931), (1584, 2486), (1138, 1968), (20, 28), (829, 1284)]),
        (SimConfig(h=3, trials_per_study=[1, 2, 3], mu=1.1, sigma2_xi=0.01, sigma2_zeta=0.005,
                   n_range=(1, 3000), mode="binomial", seed=11), 1,
         [(40, 51), (19, 21), (1128, 1286), (1686, 2142), (1829, 2315), (479, 613)]),
        # seven trials of 1024 lanes each span more than one lane block
        (SimConfig(h=3, trials_per_study=[2, 3, 2], mu=1.1, sigma2_xi=0.01, sigma2_zeta=0.005,
                   n_range=(1500, 9000), mode="binomial", seed=3), 0,
         [(5474, 5967), (6430, 7199), (2776, 4204), (3271, 4533), (1708, 2691), (1864, 2198),
          (1627, 2207)]),
    ])
    def test_binomial_counts_pinned(self, config, replicate, expected):
        # literal counts: the binomial streams must not change
        data = generate(config, replicate=replicate)
        assert [(t.k, t.n) for t in data.trials] == expected

    def test_example_binomial_datasets_pinned(self, example_paths):
        # digest of replicates 0-39 of the example config in binomial mode
        cfg = load_simconfig(example_paths["simconfig"])
        cfg.mode = "binomial"
        h = hashlib.sha256()
        for r in range(40):
            h.update(repr([(t.k, t.n) for t in generate(cfg, r).trials]).encode())
        assert h.hexdigest() == "67f795183c480d2f597a33196ecdf2e3da68d9b7a988b444a4775cc886a24a01"

    def test_generated_csv_reingests(self):
        cfg = base_config(moderators=[Moderator("x", 0.1),
                                      Moderator("g", 0.05, "categorical")])
        data = generate(cfg)
        again = parse_dataset(dataset_csv(data), data.schema)
        assert again.m == data.m and again.h == data.h
        assert [t.k for t in again.trials] == [t.k for t in data.trials]


class TestConfigValidation:
    def test_bad_h(self):
        with pytest.raises(ValidationError):
            base_config(h=0)

    def test_bad_trial_counts(self):
        with pytest.raises(ValidationError):
            base_config(trials_per_study=[1, 2])

    def test_bad_n_range(self):
        with pytest.raises(ValidationError):
            base_config(n_range=(10, 5))

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            base_config(mode="poisson")

    def test_load_example_config(self, example_paths):
        cfg = load_simconfig(example_paths["simconfig"])
        assert cfg.h == 20
        assert sum(cfg.trial_counts()) == 195
        assert ft_inverse(cfg.mu, math.inf) == pytest.approx(0.80, abs=1e-9)


class TestRecovery:
    def test_single_replication_equals_single_fit(self):
        cfg = base_config(h=5, trials_per_study=4)
        summary = recovery_experiment(cfg, 1)
        assert summary.replications == 1
        rec = summary.records[0]
        assert summary.mean_mu == rec.mu_hat
        assert summary.coverage in (0.0, 1.0)

    def test_zero_truth_concentrates_at_floor(self):
        cfg = base_config(sigma2_xi=0.0, sigma2_zeta=0.0, h=5, trials_per_study=4)
        summary = recovery_experiment(cfg, 10)
        assert summary.mean_sigma2_xi < 1e-4
        assert summary.mean_sigma2_zeta < 1e-4
        assert math.isnan(summary.bias_sigma2_xi)

    def test_invalid_replications(self):
        with pytest.raises(ValidationError):
            recovery_experiment(base_config(), 0)

    def test_batched_records_equal_fit_model_alone(self):
        with pytest.warns(UserWarning, match="clamped"):    # MODERATED clamps 11.1%
            widths = {encode_design(generate(MODERATED, r), ["x", "g"]).f for r in range(16)}
            assert widths == {2, 3}
            assert batch_mismatches() == []

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_batched_records_equal_fit_model_alone_per_blas_threads(self, threads):
        tests, src = pathlib.Path(__file__).resolve().parent, pathlib.Path(simulate.__file__)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src.parents[1]),
                                                            os.environ.get("PYTHONPATH")])))
        code = (f"import json, sys, warnings; sys.path.insert(0, {str(tests)!r}); "
                "warnings.simplefilter('ignore', UserWarning); import test_simulate; "
                "print(json.dumps(test_simulate.batch_mismatches()))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=300)
        assert json.loads(out.stdout) == []

    def test_records_pinned(self):
        # literal records: the batched fit gives the values of one fit per replicate
        cfg = SimConfig(h=3, trials_per_study=[2, 3, 2], mu=1.0, sigma2_xi=0.01,
                        sigma2_zeta=0.004, n_range=(30, 300), seed=5)
        summary = recovery_experiment(cfg, 3)
        expected = [
            (0.9929871146976402, 0.037496576290223384, 0.0013259796996342563,
             0.005220651036025551, 0.7019596806530423),
            (1.115904756057474, 0.07288019813274939, 0.014621842443514528,
             0.0010391079873322815, 0.8085819774911505),
            (1.0614872562034563, 0.08905993374424655, 0.022185674615876293,
             0.00166287595894873, 0.7643404311435735)]
        for r, (rec, values) in enumerate(zip(summary.records, expected)):
            assert (rec.replicate, rec.covered, rec.converged) == (r, True, True)
            assert (rec.mu_hat, rec.se, rec.sigma2_xi_hat, rec.sigma2_zeta_hat,
                    rec.prop) == pytest.approx(values, rel=1e-10)
        assert summary.coverage == 1.0 and summary.coverage_se == 0.0

    def test_one_rank_decision_per_chunk(self, monkeypatch):
        # 10 replicates in chunks of 4 take three independent_columns calls, by
        # either name, and no encode_design call, and generate still runs once
        # per replicate
        from metaprop import ingest

        calls = {"independent_columns": 0, "encode_design": 0, "generate": []}
        independent_columns, encode = ingest.independent_columns, ingest.encode_design
        def counted_columns(*args):
            calls["independent_columns"] += 1
            return independent_columns(*args)
        def counted_encode(*args):
            calls["encode_design"] += 1
            return encode(*args)
        def counted_generate(config, replicate):
            calls["generate"].append(replicate)
            return generate(config, replicate=replicate)
        monkeypatch.setattr(simulate, "independent_columns", counted_columns)
        monkeypatch.setattr(ingest, "independent_columns", counted_columns)
        monkeypatch.setattr(ingest, "encode_design", counted_encode)
        monkeypatch.setattr(simulate, "generate", counted_generate)
        monkeypatch.setattr(simulate, "_CHUNK", 4)
        example = load_simconfig(EXAMPLE_SIMCONFIG)
        for config in (example, dataclasses.replace(example, mode="binomial"), MODERATED):
            calls.update(independent_columns=0, encode_design=0, generate=[])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # MODERATED clamps
                recovery_experiment(config, 10)
            assert (calls["independent_columns"], calls["encode_design"],
                    calls["generate"]) == (3, 0, list(range(10)))
        # each replicate's kept columns and design values are encode_design's,
        # also where every study draws one level of g and g drops out
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", simulate.ClampWarning)
            kwargs = simulate._replicates(MODERATED, range(16), [])
            datasets = [generate(MODERATED, r) for r in range(16)]
        first = 0
        for data, columns in zip(datasets, kwargs["columns"]):
            design = encode_design(data, data.schema.names)
            assert (columns - first).tolist() == design.columns
            assert np.array_equal(kwargs["X"][:, columns], design.matrix)
            first += data.candidate_columns[0].shape[1]
        assert first == kwargs["X"].shape[1]
        assert [len(columns) for columns in kwargs["columns"]].count(2) == 3   # replicates 1, 6, 13

    def test_chunks_keep_replicate_order_and_errors(self, monkeypatch):
        # 7 replicates in chunks of 3 give the records of one chunk, in order; of
        # two failing replicates, the first raises fit_model's error
        monkeypatch.setattr(simulate, "_CHUNK", 3)
        cfg = base_config(h=5, trials_per_study=2)
        chunked = recovery_experiment(cfg, 7)
        assert [r.replicate for r in chunked.records] == list(range(7))
        monkeypatch.setattr(simulate, "_CHUNK", 256)
        assert recovery_experiment(cfg, 7).records == chunked.records
        fit_designs = engine.fit_designs

        def failing(*args, **kwargs):
            for k, fit in fit_designs(*args, **kwargs):
                yield k, np.linalg.LinAlgError(f"design {k}") if k in (4, 5) else fit
        monkeypatch.setattr(engine, "fit_designs", failing)
        with pytest.raises(np.linalg.LinAlgError, match="design 4"):
            recovery_experiment(cfg, 7)

    def test_single_study_warns(self):
        cfg = base_config(h=1, trials_per_study=6)
        with pytest.warns(UserWarning, match="one study"):
            summary = recovery_experiment(cfg, 3)
        assert all(r.sigma2_xi_hat == engine.VAR_FLOOR for r in summary.records)

    def test_coverage_se(self):
        summary = recovery_experiment(base_config(h=5, trials_per_study=3), 8)
        c = summary.coverage
        assert summary.coverage_se == math.sqrt(c * (1.0 - c) / 8)
