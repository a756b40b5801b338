import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metaprop import engine
from metaprop.engine import (Problem, VarianceComponents, effect_arrays, fit_model,
                             gls_fixed_effects, log_likelihood,
                             marginal_covariance, pooled_estimate,
                             predict_study_effects, study_weights)
from metaprop.ingest import ValidationError
from metaprop.simulate import generate, load_simconfig
from metaprop.transforms import ft_inverse, ft_theta, ft_variance

from conftest import toy_instance


def dense_loglik(y, X, sizes, vc, v, method):
    """Brute-force dense-matrix likelihood, independent of the engine path."""
    m, f = X.shape
    V = np.zeros((m, m))
    start = 0
    for s in sizes:
        stop = start + int(s)
        V[start:stop, start:stop] = vc.sigma2_xi
        start = stop
    V[np.diag_indices(m)] += vc.sigma2_zeta + v
    Vi = np.linalg.inv(V)
    A = X.T @ Vi @ X
    beta = np.linalg.solve(A, X.T @ Vi @ y)
    r = y - X @ beta
    ll = -0.5 * (m * math.log(2 * math.pi) + np.linalg.slogdet(V)[1] + r @ Vi @ r)
    if method == "ml":
        return float(ll)
    return float(ll - 0.5 * np.linalg.slogdet(A)[1] + 0.5 * f * math.log(2 * math.pi))


class TestMarginalCovariance:
    def test_zero_components_diagonal(self):
        V = marginal_covariance([2], VarianceComponents(0.0, 0.0), [0.25, 0.25])
        assert np.allclose(V, np.diag([0.25, 0.25]))

    def test_block_entries(self):
        V = marginal_covariance([2], VarianceComponents(0.02, 0.008), [0.001, 0.001])
        assert V[0, 0] == pytest.approx(0.029)
        assert V[0, 1] == 0.02  # exactly sigma2_xi, not sigma2_xi + sigma2_zeta
        assert V[1, 0] == 0.02

    def test_between_study_independence(self):
        V = marginal_covariance([1, 1], VarianceComponents(0.5, 0.1), [0.2, 0.3])
        assert V[0, 1] == 0.0 and V[1, 0] == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            marginal_covariance([1], VarianceComponents(0.1, 0.1), [-0.5])


class TestLogLikelihood:
    def test_single_point_standard_normal(self):
        ll = log_likelihood([0.0], np.ones((1, 1)), [1],
                            VarianceComponents(0.0, 0.0), [1.0], method="ml")
        assert ll == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_bivariate_closed_form(self):
        # one study, two trials, explicit 2x2 Gaussian density at the GLS mean
        y = np.array([0.4, 0.9])
        v = np.array([0.05, 0.08])
        vc = VarianceComponents(0.03, 0.01)
        X = np.ones((2, 1))
        a, b = v + vc.sigma2_zeta + vc.sigma2_xi, vc.sigma2_xi
        V = np.array([[a[0], b], [b, a[1]]])
        Vi = np.linalg.inv(V)
        mu = float(np.sum(Vi @ y) / np.sum(Vi))
        r = y - mu
        ll_ref = -0.5 * (2 * math.log(2 * math.pi) + math.log(np.linalg.det(V)) + r @ Vi @ r)
        assert log_likelihood(y, X, [2], vc, v, "ml") == pytest.approx(ll_ref, abs=1e-12)

    @pytest.mark.parametrize("method", ["ml", "reml"])
    def test_matches_dense_oracle(self, method):
        gen = np.random.default_rng(11)
        for seed in range(12):
            sizes = gen.integers(1, 5, size=3)
            m = int(sizes.sum())
            y = gen.normal(1.0, 0.4, m)
            v = gen.uniform(0.01, 0.4, m)
            X = np.column_stack([np.ones(m), gen.normal(size=m)])
            vc = VarianceComponents(float(gen.uniform(0, 0.3)), float(gen.uniform(0, 0.2)))
            ours = log_likelihood(y, X, sizes, vc, v, method)
            ref = dense_loglik(y, X, sizes, vc, v, method)
            assert ours == pytest.approx(ref, abs=1e-8)

    def test_permutation_invariance_within_study(self):
        y, X, sizes, v = toy_instance(5, n_studies=2, trials=4)
        vc = VarianceComponents(0.05, 0.02)
        base = log_likelihood(y, X, sizes, vc, v)
        perm = np.r_[np.random.default_rng(0).permutation(4),
                     4 + np.random.default_rng(1).permutation(4)]
        assert log_likelihood(y[perm], X[perm], sizes, vc, v[perm]) == \
            pytest.approx(base, abs=1e-12)

    def test_reml_shift_equivariance(self):
        y, X, sizes, v = toy_instance(9, n_studies=3, trials=3)
        vc = VarianceComponents(0.04, 0.01)
        a = log_likelihood(y, X, sizes, vc, v, "reml")
        b = log_likelihood(y + 3.7, X, sizes, vc, v, "reml")
        assert a == pytest.approx(b, abs=1e-10)


class TestScore:
    @staticmethod
    def instances(method):
        gen = np.random.default_rng(5)
        for _ in range(10):
            sizes = np.array([2, 5, 3, 1])
            m = int(sizes.sum())
            y = gen.normal(1.0, 0.4, m)
            v = gen.uniform(0.01, 0.4, m)
            X = np.column_stack([np.ones(m), gen.normal(size=m)])
            point = gen.uniform(0.005, 0.3, 2)
            yield y, X, sizes, v, point, Problem(y, X, sizes, v, method).evaluate(*point)

    @pytest.mark.parametrize("method", ["reml", "ml"])
    def test_matches_central_differences(self, method):
        for y, X, sizes, v, point, (_, score, _) in self.instances(method):
            for k in range(2):
                step = np.zeros(2)
                step[k] = 1e-6 * point[k]
                up = log_likelihood(y, X, sizes, VarianceComponents(*(point + step)), v, method)
                down = log_likelihood(y, X, sizes, VarianceComponents(*(point - step)), v, method)
                numeric = (up - down) / (2 * step[k])
                assert score[k] == pytest.approx(numeric, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("method", ["reml", "ml"])
    def test_information_matches_dense_trace(self, method):
        for y, X, sizes, v, point, (_, _, info) in self.instances(method):
            m = len(y)
            Z = np.repeat(np.eye(len(sizes)), sizes, axis=0)
            V = point[0] * Z @ Z.T + np.diag(point[1] + v)
            P = np.linalg.inv(V)
            if method == "reml":
                P -= P @ X @ np.linalg.inv(X.T @ P @ X) @ X.T @ P
            derivs = [Z @ Z.T, np.eye(m)]
            dense = [[0.5 * np.trace(P @ a @ P @ b) for b in derivs] for a in derivs]
            assert np.allclose(info, dense, rtol=1e-10, atol=0)


class TestGls:
    def test_degenerate_weighted_mean(self):
        # zero variance components: exact inverse-variance weighting
        gen = np.random.default_rng(3)
        for _ in range(100):
            m = int(gen.integers(2, 12))
            y = gen.normal(0.8, 0.3, m)
            v = gen.uniform(0.01, 0.5, m)
            sizes = [m]
            beta, cov = gls_fixed_effects(y, np.ones((m, 1)), sizes,
                                          VarianceComponents(0.0, 0.0), v)
            w = 1.0 / v
            assert beta[0] == pytest.approx(np.sum(w * y) / np.sum(w), abs=1e-12)
            assert cov[0, 0] == pytest.approx(1.0 / np.sum(w), abs=1e-12)


def grid_oracle_reml(y, sizes, v, lim=0.5, step=1e-4):
    """Exhaustive grid search of the intercept-only REML surface.

    Independent vectorized evaluation via scalar Sherman-Morrison
    identities; scans (sigma2_xi, sigma2_zeta) over [0, lim]^2.
    """
    m = int(np.sum(sizes))
    xi = np.arange(0.0, lim + step / 2, step)
    best_ll, best_xi, best_zeta = -np.inf, 0.0, 0.0
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    groups = [(y[a:b], v[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    chunk = 400
    for zeta in np.arange(0.0, lim + step / 2, step):
        for lo in range(0, xi.size, chunk):
            xs = xi[lo:lo + chunk]
            logdet = np.zeros_like(xs)
            sw = np.zeros_like(xs)     # sum_j 1' Vj^-1 1
            sb = np.zeros_like(xs)     # sum_j 1' Vj^-1 y_j
            qy = np.zeros_like(xs)     # sum_j y_j' Vj^-1 y_j
            for yj, vj in groups:
                d = 1.0 / (vj + zeta)
                s = float(np.sum(d))
                t = float(np.sum(d * yj))
                qd = float(np.sum(d * yj * yj))
                denom = 1.0 + xs * s
                c = xs / denom
                logdet += np.sum(np.log(vj + zeta)) + np.log(denom)
                sw += s / denom
                sb += t / denom
                qy += qd - c * t * t
            mu = sb / sw
            rss = qy - mu * sb
            ll = -0.5 * ((m - 1) * math.log(2 * math.pi) + logdet + np.log(sw) + rss)
            k = int(np.argmax(ll))
            if ll[k] > best_ll:
                best_ll, best_xi, best_zeta = float(ll[k]), float(xs[k]), float(zeta)
    return best_ll, best_xi, best_zeta


class TestFitModel:
    def test_zero_dispersion(self):
        y = np.full(6, 1.1)
        v = np.full(6, 0.04)
        fit = fit_model(y, np.ones((6, 1)), [3, 3], v)
        assert fit.varcomps.sigma2_xi < 1e-6
        assert fit.varcomps.sigma2_zeta < 1e-6
        assert fit.beta[0] == pytest.approx(1.1, abs=1e-9)

    def test_self_consistency_of_reported_loglik(self):
        y, X, sizes, v = toy_instance(21, n_studies=4, trials=3)
        for method in ("reml", "ml"):
            fit = fit_model(y, X, sizes, v, method=method)
            again = log_likelihood(y, X, sizes, fit.varcomps, v, method)
            assert fit.loglik == pytest.approx(again, abs=1e-10)

    def test_matches_grid_oracle_on_toy_instance(self):
        y, X, sizes, v = toy_instance(2, n_studies=2, trials=2)
        fit = fit_model(y, X, sizes, v, method="reml")
        grid_ll, grid_xi, grid_zeta = grid_oracle_reml(y, sizes, v, lim=0.5, step=1e-3)
        assert fit.loglik >= grid_ll - 1e-9
        assert fit.loglik == pytest.approx(grid_ll, abs=1e-4)

    def test_bimodal_ml_surface_reaches_boundary_mode(self):
        # ML surface with an interior local maximum below the one at zero
        y = np.array([0.383, 1.0951, 0.6706, 1.2995, 1.5721, 1.6315, 1.0213, 0.9413])
        v = np.array([0.1032, 0.1634, 0.0058, 0.2133, 0.117, 0.1369, 0.1785, 0.1779])
        X = np.column_stack([np.ones(8), [-0.4734, -0.1854, 0.3326, -0.9776,
                                          -0.0806, -0.6718, -0.2308, 0.7996]])
        sizes = [2, 4, 2]
        fit = fit_model(y, X, sizes, v, method="ml")
        at_zero = log_likelihood(y, X, sizes, VarianceComponents(0.0, 0.0), v, "ml")
        assert fit.loglik >= at_zero - 1e-9

    def test_small_within_study_variance_leaves_the_floor(self, example_paths):
        # example layout with little heterogeneity: the score in sigma2_zeta is
        # positive at VAR_FLOOR, so the maximum lies inside
        config = dataclasses.replace(load_simconfig(example_paths["simconfig"]),
                                     sigma2_xi=1.5e-4, sigma2_zeta=3e-5, seed=0)
        data = generate(config)
        y, v = effect_arrays(data)
        X, sizes = np.ones((data.m, 1)), data.group_sizes()
        fit = fit_model(y, X, sizes, v)
        assert fit.varcomps.sigma2_zeta > engine.VAR_FLOOR
        assert fit.loglik >= dense_loglik(y, X, sizes, VarianceComponents(1.5e-4, 3e-5), v, "reml")

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["reml", "ml"]))
    @settings(max_examples=40, deadline=None)
    def test_no_coordinate_move_raises_loglik(self, seed, method):
        gen = np.random.default_rng(seed)
        sizes = gen.integers(1, 6, size=int(gen.integers(2, 7)))
        m = int(sizes.sum())
        v = 1.0 / (4.0 * np.exp(gen.uniform(math.log(10), math.log(5000), m)) + 2.0)
        xi, zeta = np.exp(gen.uniform(math.log(1e-6), math.log(1e-2), 2))
        X = np.column_stack([np.ones(m), gen.normal(size=m)])[:, :int(gen.integers(1, 3))]
        y = (1.1 + np.repeat(gen.normal(0.0, math.sqrt(xi), sizes.size), sizes)
             + gen.normal(0.0, np.sqrt(zeta + v)))
        assume(m > X.shape[1])
        fit = fit_model(y, X, sizes, v, method=method)
        assert fit.converged is True
        problem = Problem(y, X, sizes, v, method)
        best = np.array([fit.varcomps.sigma2_xi, fit.varcomps.sigma2_zeta])
        for k in range(2):
            for sign in (-1.0, 1.0):
                point = best.copy()
                point[k] += sign * 0.01 * np.var(y)
                if engine.VAR_FLOOR <= point[k] <= engine.VAR_CEIL:
                    assert problem.evaluate(*point)[0] <= fit.loglik + 1e-8

    @pytest.mark.parametrize("method", ["reml", "ml"])
    def test_rank_deficient_design_rejected(self, method):
        # the fourth column is a combination of the second and third; Cholesky
        # of X'V^-1 X alone succeeds on this design
        gen = np.random.default_rng(17)
        a, b = gen.normal(size=8), gen.normal(size=8)
        alpha, beta = gen.normal(size=2)
        X = np.column_stack([np.ones(8), a, b, alpha * a + beta * b])
        y, v = gen.normal(1.0, 0.3, 8), gen.uniform(0.05, 0.3, 8)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            fit_model(y, X, [4, 4], v, method=method)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            Problem(y, np.column_stack([X[:, :3], np.zeros(8)]), [4, 4], v, method)

    def test_m_not_greater_than_f(self):
        with pytest.raises(ValidationError):
            fit_model([1.0], np.ones((1, 1)), [1], [0.1])

    def test_single_study_warns_and_pins_xi(self):
        y, X, _, v = toy_instance(4, n_studies=1, trials=6)
        with pytest.warns(UserWarning, match="one study"):
            fit = fit_model(y, X, [6], v)
        assert fit.varcomps.sigma2_xi <= 1e-12
        assert fit.h == 1

    def test_nonconvergence_flag_surfaces(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_EVALUATIONS", 2)
        y, X, sizes, v = toy_instance(13, n_studies=3, trials=4)
        fit = fit_model(y, X, sizes, v)
        assert fit.converged is False
        assert fit.loglik == pytest.approx(
            log_likelihood(y, X, sizes, fit.varcomps, v, "reml"), abs=1e-10)


class TestPooledEstimate:
    def test_z_quantile(self):
        from scipy.stats import norm

        assert float(norm.ppf(0.975)) == pytest.approx(1.959964, abs=1e-6)

    def test_tiny_se_gives_point_proportion(self):
        y = np.full(8, 1.1071487177940904)
        v = np.full(8, 1e-8)
        fit = fit_model(y, np.ones((8, 1)), [4, 4], v)
        est = pooled_estimate(fit)
        assert est.prop == pytest.approx(0.80, abs=1e-3)

    def test_se_zero_collapses_ci(self):
        y, X, sizes, v = toy_instance(31, n_studies=2, trials=3)
        fit = fit_model(y, X, sizes, v)
        fit.cov_beta = np.zeros((1, 1))
        est = pooled_estimate(fit)
        assert est.ci_low == est.ci_high == est.mu
        assert est.prop_low == est.prop == est.prop_high

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["reml", "ml"]),
           st.sampled_from(["normal", "t"]))
    @settings(max_examples=60, deadline=None)
    def test_ci_brackets_estimate(self, seed, method, quantile):
        # random trials with perfect (k = n) and null (k = 0) accuracies among them
        gen = np.random.default_rng(seed)
        sizes = gen.integers(1, 6, size=int(gen.integers(2, 7)))
        m = int(sizes.sum())
        n = np.floor(np.exp(gen.uniform(0.0, math.log(5000), m))).astype(np.int64)
        k = gen.binomial(n, gen.uniform(0.0, 1.0, m))
        edge = gen.permutation(m)[:int(gen.integers(1, m + 1))]
        k[edge] = np.where(gen.uniform(size=edge.size) < 0.7, n[edge], 0)
        X = np.column_stack([np.ones(m), gen.normal(size=m)])[:, :int(gen.integers(1, 3))]
        assume(m > X.shape[1])
        fit = fit_model(ft_theta(k, n), X, sizes, ft_variance(n), method=method)
        est = pooled_estimate(fit, quantile=quantile)
        assert est.ci_low <= est.mu <= est.ci_high
        assert est.prop_low <= est.prop <= est.prop_high

    def test_prop_uses_inverse_variance_n(self):
        y, X, sizes, v = toy_instance(37, n_studies=3, trials=3)
        fit = fit_model(y, X, sizes, v)
        est = pooled_estimate(fit)
        assert est.prop == pytest.approx(ft_inverse(est.mu, 1.0 / est.se ** 2), abs=1e-12)


class TestPredictStudyEffects:
    def _dataset(self, seed=17, h=3, trials=4):
        from metaprop.simulate import SimConfig, generate

        cfg = SimConfig(h=h, trials_per_study=trials, mu=1.0, sigma2_xi=0.02,
                        sigma2_zeta=0.008, n_range=(200, 800), seed=seed)
        return generate(cfg)

    def test_zero_xi_shrinks_to_mu(self):
        data = self._dataset()
        y, v = effect_arrays(data)
        y = np.full_like(y, 1.2)  # no dispersion at all
        fit = fit_model(y, np.ones((data.m, 1)), data.group_sizes(), v)
        effects = predict_study_effects(fit, data)
        assert len(effects) == data.h
        for eff in effects:
            assert eff.kappa_hat == pytest.approx(float(fit.beta[0]), abs=1e-6)

    def test_conditional_normal_oracle(self):
        data = self._dataset(seed=23, h=2, trials=3)
        y, v = effect_arrays(data)
        sizes = data.group_sizes()
        fit = fit_model(y, np.ones((data.m, 1)), sizes, v)
        effects = predict_study_effects(fit, data)
        mu = float(fit.beta[0])
        xi, zeta = fit.varcomps.sigma2_xi, fit.varcomps.sigma2_zeta
        start = 0
        for eff, size in zip(effects, sizes):
            stop = start + int(size)
            yj, vj = y[start:stop], v[start:stop]
            Vj = np.full((size, size), xi) + np.diag(vj + zeta)
            cov_xy = np.full(size, xi)          # Cov(xi_j, y_j)
            w = np.linalg.solve(Vj, cov_xy)
            cond_mean = mu + float(w @ (yj - mu))
            cond_var = xi - float(w @ cov_xy)
            assert eff.kappa_hat == pytest.approx(cond_mean, abs=1e-10)
            assert eff.se == pytest.approx(math.sqrt(max(cond_var, 0.0)), abs=1e-10)
            start = stop

    def test_trials_sum_to_m(self):
        data = self._dataset(seed=29)
        y, v = effect_arrays(data)
        fit = fit_model(y, np.ones((data.m, 1)), data.group_sizes(), v)
        effects = predict_study_effects(fit, data)
        assert sum(e.trials for e in effects) == data.m

    def test_pool_method_matches_inverse_variance(self):
        data = self._dataset(seed=31)
        y, v = effect_arrays(data)
        sizes = data.group_sizes()
        fit = fit_model(y, np.ones((data.m, 1)), sizes, v)
        effects = predict_study_effects(fit, data, method="pool")
        w = 1.0 / v[:sizes[0]]
        assert effects[0].kappa_hat == pytest.approx(
            float(np.sum(w * y[:sizes[0]]) / np.sum(w)), abs=1e-12)

    def test_weights_normalized(self):
        data = self._dataset(seed=41)
        y, v = effect_arrays(data)
        fit = fit_model(y, np.ones((data.m, 1)), data.group_sizes(), v)
        w = study_weights(fit)
        assert w.shape == (data.h,)
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)


class TestRecoveryShape:
    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_shrinkage_monotone_in_xi(self, seed):
        # kappa_hat moves from the raw study mean toward mu as sigma2_xi -> 0
        y, X, sizes, v = toy_instance(seed, n_studies=2, trials=3, v_range=(0.02, 0.1))

        class FakeDataset:
            def study_ids(self):
                return ["A", "B"]

            def group_sizes(self):
                return np.asarray(sizes)

        fit = fit_model(y, X, sizes, v)
        mu = float(fit.beta[0])
        devs = []
        for xi in (1e-8, 0.01, 0.1, 1.0):
            fit.varcomps = VarianceComponents(xi, fit.varcomps.sigma2_zeta)
            eff = predict_study_effects(fit, FakeDataset())[0]
            devs.append(abs(eff.kappa_hat - mu))
        assert devs[0] == pytest.approx(0.0, abs=1e-6)
        assert devs == sorted(devs)
