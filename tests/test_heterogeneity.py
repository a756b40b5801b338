import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop.engine import VarianceComponents, fit_model, pooled_estimate
from metaprop.heterogeneity import (_chi2_sf, cochran_q, i_squared_levels,
                                    pooled_sampling_variance, r_squared, summarize)
from metaprop.ingest import ValidationError

from conftest import toy_instance


class TestCochranQ:
    def test_identical_effects(self):
        q, df, p = cochran_q([0.5, 0.5], np.ones((2, 1)), [0.25, 0.25])
        assert q == pytest.approx(0.0, abs=1e-15)
        assert df == 1
        assert p == pytest.approx(1.0)

    def test_hand_example(self):
        q, df, p = cochran_q([0.5, 1.0], np.ones((2, 1)), [0.25, 0.25])
        assert q == pytest.approx(0.5, abs=1e-12)
        assert df == 1
        assert p == pytest.approx(0.4795, abs=1e-3)

    def test_saturated_design_rejected(self):
        with pytest.raises(ValidationError):
            cochran_q([0.5, 1.0], np.eye(2), [0.25, 0.25])

    def test_matrix_equals_summation(self):
        gen = np.random.default_rng(8)
        for _ in range(50):
            m = int(gen.integers(3, 20))
            y = gen.normal(1.0, 0.5, m)
            v = gen.uniform(0.01, 0.4, m)
            X = np.column_stack([np.ones(m), gen.normal(size=m)])
            q, df, _ = cochran_q(y, X, v)
            # summation route
            w = 1.0 / v
            A = X.T @ (X * w[:, None])
            beta = np.linalg.solve(A, X.T @ (w * y))
            resid = y - X @ beta
            q_sum = sum(wi * ri * ri for wi, ri in zip(w, resid))
            assert q == pytest.approx(q_sum, abs=1e-10)
            assert df == m - 2

    def test_reorder_invariance(self):
        gen = np.random.default_rng(9)
        y = gen.normal(size=10)
        v = gen.uniform(0.05, 0.2, 10)
        X = np.ones((10, 1))
        q1, _, _ = cochran_q(y, X, v)
        perm = gen.permutation(10)
        q2, _, _ = cochran_q(y[perm], X, v[perm])
        assert q1 == pytest.approx(q2, abs=1e-10)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25)
    def test_quadratic_scaling(self, c):
        y = np.array([0.2, 0.9, 0.4])
        v = np.array([0.1, 0.2, 0.15])
        X = np.ones((3, 1))
        q1, _, _ = cochran_q(y, X, v)
        q2, _, _ = cochran_q(c * y, X, v)
        assert q2 == pytest.approx(c * c * q1, rel=1e-10)


    def test_chi2_tail_matches_mpmath(self):
        # integer df in [1, 1e4], x in (0, 1e5], wherever the tail is at least 1e-300
        import mpmath

        gen = np.random.default_rng(264)
        dfs = np.r_[1, 2, 3, 4, 7, 194, 999, 1000, 9999, 10000, gen.integers(1, 10001, 20)]
        checked = 0
        with mpmath.workdps(40):
            for df in map(int, dfs):
                assert _chi2_sf(df, 0.0) == 1.0
                xs = np.r_[1e-300, 0.5, df, 1e5, df * np.exp(gen.uniform(-4.0, 1.2, 6))]
                for x in np.minimum(xs, 1e5):
                    ref = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                          regularized=True)
                    if ref >= 1e-300:
                        assert abs(_chi2_sf(df, x) / ref - 1) <= 1e-11, (df, x)
                        checked += 1
        assert checked >= 200


class TestPooledSamplingVariance:
    def test_equal_variances_identity(self):
        assert pooled_sampling_variance([0.07, 0.07, 0.07]) == pytest.approx(0.07, abs=1e-15)

    def test_hand_example(self):
        # w = (10, 5): (1*15)/(225-125) = 0.15
        assert pooled_sampling_variance([0.1, 0.2]) == pytest.approx(0.15, abs=1e-12)

    def test_single_trial_rejected(self):
        with pytest.raises(ValidationError):
            pooled_sampling_variance([0.1])


class TestISquared:
    def test_table_shares_null_row(self):
        i2_xi, i2_zeta, total = i_squared_levels(VarianceComponents(0.020, 0.008), 1e-4)
        assert i2_xi == pytest.approx(0.71, abs=0.01)
        assert i2_zeta == pytest.approx(0.29, abs=0.01)
        assert total == pytest.approx(i2_xi + i2_zeta)

    def test_table_shares_moderated_row(self):
        i2_xi, i2_zeta, _ = i_squared_levels(VarianceComponents(0.013, 0.006), 1e-4)
        assert i2_xi == pytest.approx(0.68, abs=0.01)
        assert i2_zeta == pytest.approx(0.32, abs=0.01)

    def test_pure_sampling_error(self):
        i2_xi, i2_zeta, total = i_squared_levels(VarianceComponents(0.0, 0.0), 0.3)
        assert (i2_xi, i2_zeta, total) == (0.0, 0.0, 0.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            i_squared_levels(VarianceComponents(0.0, 0.0), 0.0)

    def test_shares_sum_to_one_with_eps(self):
        vc = VarianceComponents(0.05, 0.02)
        eps = 0.01
        i2_xi, i2_zeta, _ = i_squared_levels(vc, eps)
        total = vc.sigma2_xi + vc.sigma2_zeta + eps
        assert i2_xi + i2_zeta + eps / total == pytest.approx(1.0, abs=1e-15)


def _fit(seed, **kw):
    y, X, sizes, v = toy_instance(seed, **kw)
    return fit_model(y, X, sizes, v)


class TestRSquared:
    def test_same_fit_is_zero(self):
        fit = _fit(3, n_studies=3, trials=3)
        if fit.varcomps.sigma2_xi > 1e-10 and fit.varcomps.sigma2_zeta > 1e-10:
            assert r_squared(fit, fit) == (0.0, 0.0)

    def test_ratios(self):
        a = _fit(5, n_studies=3, trials=3)
        b = _fit(5, n_studies=3, trials=3)
        a.varcomps = VarianceComponents(0.013, 0.006)
        b.varcomps = VarianceComponents(0.020, 0.008)
        r2_xi, r2_zeta = r_squared(a, b)
        assert r2_xi == pytest.approx(1 - 0.013 / 0.020, abs=1e-12)
        assert r2_zeta == pytest.approx(1 - 0.006 / 0.008, abs=1e-12)

    def test_negative_reported_as_is(self):
        a = _fit(7, n_studies=3, trials=3)
        b = _fit(7, n_studies=3, trials=3)
        a.varcomps = VarianceComponents(0.0202, 0.008)
        b.varcomps = VarianceComponents(0.020, 0.008)
        r2_xi, _ = r_squared(a, b)
        assert r2_xi == pytest.approx(-0.01, abs=1e-12)

    def test_zero_null_component_undefined(self):
        a = _fit(11, n_studies=3, trials=3)
        b = _fit(11, n_studies=3, trials=3)
        a.varcomps = VarianceComponents(0.01, 0.01)
        b.varcomps = VarianceComponents(0.0, 0.02)
        r2_xi, r2_zeta = r_squared(a, b)
        assert r2_xi is None
        assert r2_zeta == pytest.approx(0.5)

    def test_method_mismatch_rejected(self):
        a = _fit(13, n_studies=3, trials=3)
        y, X, sizes, v = toy_instance(13, n_studies=3, trials=3)
        b = fit_model(y, X, sizes, v, method="ml")
        with pytest.raises(ValidationError):
            r_squared(a, b)

    def test_null_must_be_intercept_only(self):
        y, X, sizes, v = toy_instance(15, n_studies=3, trials=4)
        X2 = np.column_stack([X, np.random.default_rng(0).normal(size=X.shape[0])])
        moderated = fit_model(y, X2, sizes, v)
        base = fit_model(y, X, sizes, v)
        with pytest.raises(ValidationError):
            r_squared(base, moderated)


class TestReport:
    def test_assembles_from_fit(self):
        fit = _fit(17, n_studies=4, trials=4)
        rep = summarize(fit)
        assert rep.q > 0 and rep.q_df == fit.m - fit.f
        assert 0 <= rep.q_pvalue <= 1
        assert rep.i2_total == pytest.approx(rep.i2_xi + rep.i2_zeta)
        assert rep.sigma2_eps > 0
        pooled = pooled_estimate(fit)
        assert (rep.mu, rep.se, rep.ci, rep.prop, rep.prop_ci) == (
            pooled.mu, pooled.se, (pooled.ci_low, pooled.ci_high), pooled.prop,
            (pooled.prop_low, pooled.prop_high))
        assert (rep.m, rep.h, rep.f, rep.loglik, rep.sigma2_xi) == (
            fit.m, fit.h, fit.f, fit.loglik, fit.varcomps.sigma2_xi)
