import io
import math

import numpy as np
import pytest

from metaprop import rng
from metaprop.ingest import ValidationError, parse_dataset, write_dataset_csv
from metaprop.simulate import (Moderator, SimConfig, generate, load_simconfig,
                               recovery_experiment)
from metaprop.transforms import ft_inverse


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
        with pytest.raises(ValueError):
            rng.binomial(keys[:2], [3, -1], 0.5)


class TestGenerate:
    def test_seed_determinism_byte_identical(self):
        d1 = generate(base_config())
        d2 = generate(base_config())
        b1, b2 = io.StringIO(), io.StringIO()
        write_dataset_csv(d1, b1)
        write_dataset_csv(d2, b2)
        assert b1.getvalue() == b2.getvalue()

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

    def test_generated_csv_reingests(self):
        cfg = base_config(moderators=[Moderator("x", 0.1),
                                      Moderator("g", 0.05, "categorical")])
        data = generate(cfg)
        buf = io.StringIO()
        write_dataset_csv(data, buf)
        again = parse_dataset(buf.getvalue(), data.schema)
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

    def test_yaml_round_trip(self):
        cfg = base_config(moderators=[Moderator("x", 0.1)])
        again = SimConfig.from_yaml(cfg.to_yaml())
        assert again == cfg

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
