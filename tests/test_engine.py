import dataclasses
import math
import runpy
import subprocess
import sys
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metaprop import engine
from metaprop.engine import (Problem, VarianceComponents, effect_arrays, fit_model,
                             gls_fixed_effects, log_likelihood, pooled_estimate,
                             predict_study_effects, study_weights)
from metaprop.ingest import ValidationError
from metaprop.simulate import generate, load_simconfig
from metaprop.transforms import ft_inverse, ft_theta, ft_variance

from conftest import ROOT, toy_instance


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
            loglik, score, info, ok = Problem(y, X, sizes, v, method).evaluate_batch([0], [point])
            assert ok[0]
            yield y, X, sizes, v, point, (loglik[0], score[0], info[0])

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


def dense_evaluate(y, X, sizes, point, v, method):
    """Dense (loglik, score, information), from V, P and the derivatives of V."""
    m = len(y)
    Z = np.repeat(np.eye(len(sizes)), sizes, axis=0)
    V = point[0] * Z @ Z.T + np.diag(point[1] + v)
    Vi = np.linalg.inv(V)
    P = Vi - Vi @ X @ np.linalg.inv(X.T @ Vi @ X) @ X.T @ Vi if method == "reml" else Vi
    r = y - X @ np.linalg.solve(X.T @ Vi @ X, X.T @ Vi @ y)
    derivs = [Z @ Z.T, np.eye(m)]
    score = [-0.5 * (np.trace(P @ a) - r @ Vi @ a @ Vi @ r) for a in derivs]
    info = [[0.5 * np.trace(P @ a @ P @ b) for b in derivs] for a in derivs]
    loglik = dense_loglik(y, X, sizes, VarianceComponents(*point), v, method)
    return loglik, np.array(score), np.array(info)


class TestBatchedKernel:
    """Problem.evaluate_batch on stacks of designs of one width."""

    @staticmethod
    def instance(seed=8, f=3, designs=5, tiny=False):
        gen = np.random.default_rng(seed)
        sizes = np.array([3, 1, 4, 2, 5, 3])
        m = int(sizes.sum())
        y, v = gen.normal(1.0, 0.4, m), gen.uniform(0.01, 0.4, m)
        # the last pool column is 1e-200 times a normal one: the rank rule, which
        # is free of scale, keeps it, but X'V^-1 X underflows and cannot be factored
        pool = np.column_stack([np.ones(m), gen.normal(size=(m, 6)), 1e-200 * gen.normal(size=m)])
        columns = [np.r_[0, np.sort(gen.choice(np.arange(1, 7), f - 1, replace=False))]
                   for _ in range(designs)]
        if tiny:
            columns[1] = np.r_[0, np.arange(1, f - 1), 7]
        return y, v, sizes, pool, np.array(columns), gen

    @pytest.mark.parametrize("method", ["reml", "ml"])
    def test_matches_single_problems_and_dense_oracle(self, method):
        y, v, sizes, pool, columns, gen = self.instance()
        problem = Problem(y, pool, sizes, v, method, columns=columns)
        design = np.array([0, 3, 1, 3, 4, 2, 0, 1])      # repeated designs at mixed points
        points = np.exp(gen.uniform(math.log(1e-5), math.log(0.5), (len(design), 2)))
        points[2] = [engine.VAR_FLOOR, 0.03]
        loglik, score, info, ok = problem.evaluate_batch(design, points)
        assert ok.all()
        for i, k in enumerate(design):
            X = pool[:, columns[k]]
            single = [a[0] for a in Problem(y, X, sizes, v, method).evaluate_batch(
                [0], [points[i]])]
            assert single[3]
            assert loglik[i] == pytest.approx(single[0], rel=1e-12)
            np.testing.assert_allclose(score[i], single[1], rtol=1e-12)
            np.testing.assert_allclose(info[i], single[2], rtol=1e-12)
            dense = dense_evaluate(y, X, sizes, points[i], v, method)
            assert loglik[i] == pytest.approx(dense[0], rel=1e-8)
            np.testing.assert_allclose(score[i], dense[1], rtol=1e-8,
                                       atol=1e-8 * np.abs(dense[2]).max() * points[i].max())
            np.testing.assert_allclose(info[i], dense[2], rtol=1e-8)

    @pytest.mark.parametrize("method", ["reml", "ml"])
    def test_unfactored_problem_leaves_its_companions(self, method):
        y, v, sizes, pool, columns, gen = self.instance(tiny=True)
        problem = Problem(y, pool, sizes, v, method, columns=columns)
        design = np.array([0, 1, 2, 1, 3, 4])
        points = np.exp(gen.uniform(math.log(1e-4), math.log(0.2), (len(design), 2)))
        *results, ok = problem.evaluate_batch(design, points)
        assert ok.tolist() == [True, False, True, False, True, True]
        *alone, alone_ok = problem.evaluate_batch(design[ok], points[ok])
        assert alone_ok.all()
        for batched, single in zip(results, alone):
            assert np.array_equal(batched[ok], single)
        X = pool[:, columns[1]]
        assert not Problem(y, X, sizes, v, method).evaluate_batch([0], [points[1]])[3][0]
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            log_likelihood(y, X, sizes, VarianceComponents(*points[1]), v, method)

    def test_closed_form_step_matches_lstsq(self):
        gen = np.random.default_rng(2)
        infos = [gen.normal(size=(2, 2)) for _ in range(40)]
        infos = [a @ a.T for a in infos] + [np.full((2, 2), 3.0), np.zeros((2, 2)),
                                            np.diag([2.0, 0.0]), np.array([[1.0, 2.0], [2.0, 4.0]])]
        for info in infos:
            score = gen.normal(size=2)
            for free in ([True, True], [True, False], [False, True], [False, False]):
                free = np.array(free)
                want = np.zeros(2)
                if free.any():
                    want[free] = np.linalg.lstsq(info[np.ix_(free, free)], score[free])[0]
                got = engine._lstsq2(info[None], score[None], free[None])[0]
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())


class TestFitDesigns:
    """engine.fit_designs batches designs of any widths behind one call."""

    @pytest.mark.parametrize("method", ["reml", "ml"])
    def test_each_design_fits_as_alone(self, method):
        gen = np.random.default_rng(31)
        sizes = np.array([3, 1, 4, 2, 5, 3])
        m = int(sizes.sum())
        y, v = gen.normal(1.0, 0.4, m), gen.uniform(0.01, 0.4, m)
        pool = np.column_stack([np.ones(m), gen.normal(size=(m, m - 1))])
        columns = [[0], [0, 2, 5], [4], [0, 1], list(range(m))]   # widths 1, 3, 1, 2, m
        results = list(engine.fit_designs(y, pool, sizes, v, method, columns))
        assert [k for k, _ in results] == [0, 2, 1, 3, 4]         # by width, first seen first
        for k, fit in results:
            if k == 4:
                assert isinstance(fit, ValidationError)
                continue
            alone = fit_model(y, pool[:, columns[k]], sizes, v, method=method)
            assert fit.varcomps == alone.varcomps
            assert (fit.converged, fit.n_evaluations) == (alone.converged, alone.n_evaluations)
            assert fit.loglik == pytest.approx(alone.loglik, abs=1e-12)


    @pytest.mark.parametrize("method", ["reml", "ml"])
    def test_rows_per_design_fit_as_separate_calls(self, method):
        # y and v of shape (K, m): design k fits its own rows, as K separate calls
        gen = np.random.default_rng(47)
        sizes = np.array([3, 1, 4, 2, 5, 3])
        m = int(sizes.sum())
        pool = np.column_stack([np.ones(m), gen.normal(size=(m, 3))])
        columns = [[0], [0, 1], [0], [0, 2, 3], [0, 1], [0]]
        ys = gen.normal(1.0, 0.4, (len(columns), m))
        vs = gen.uniform(0.01, 0.4, (len(columns), m))
        for y, v in [(ys, vs), (ys, vs[0]), (ys[0], vs)]:
            results = dict(engine.fit_designs(y, pool, sizes, v, method, columns))
            for k, cols in enumerate(columns):
                y_k, v_k = (a[k] if a.ndim == 2 else a for a in (y, v))
                alone = fit_model(y_k, pool[:, cols], sizes, v_k, method=method)
                fit = results[k]
                assert (fit.varcomps, fit.loglik, fit.converged, fit.n_evaluations) == \
                    (alone.varcomps, alone.loglik, alone.converged, alone.n_evaluations)
                for name in ("beta", "cov_beta", "y", "v", "X"):
                    assert np.array_equal(getattr(fit, name), getattr(alone, name)), name
        with pytest.raises(ValueError, match="one row per design"):
            next(engine.fit_designs(ys[:3], pool, sizes, vs, method, columns))
        with pytest.raises(ValueError, match="shape"):
            Problem(ys[:3], pool, sizes, vs[0], method, columns=[[0], [1]])

    @pytest.mark.parametrize("method, loglik", [("reml", 2.845210549425948),
                                                ("ml", 4.640165133394344)])
    def test_constant_y_runs_two_equal_starts(self, monkeypatch, method, loglik):
        # var(y) = 0 puts s at the floor, where the two starts coincide: that
        # design runs both in lockstep, as its companion with its own y row does
        gen = np.random.default_rng(11)
        sizes = np.array([3, 1, 4, 2])
        m = int(sizes.sum())
        v = gen.uniform(0.01, 0.2, m)
        ys = np.vstack([np.full(m, 0.9), gen.normal(0.9, 0.3, m)])
        starts = []
        ascend = engine._ascend

        def recording(problem, design, start):
            starts.append((design.tolist(), np.asarray(start).tolist()))
            return ascend(problem, design, start)

        monkeypatch.setattr(engine, "_ascend", recording)
        fits = dict(engine.fit_designs(ys, np.ones((m, 1)), sizes, v, method, [[0], [0]]))
        floor = engine.VAR_FLOOR
        [(design, points)] = starts
        assert design == [0, 0, 1, 1] and points[0] == points[1] == [floor, floor]
        # literal values, those of the per-design start loop
        fit = fits[0]
        assert fit.loglik == pytest.approx(loglik, rel=1e-12)
        assert (fit.varcomps.sigma2_xi, fit.varcomps.sigma2_zeta) == (floor, floor)
        assert (fit.n_evaluations, fit.converged) == (2, True)
        alone = fit_model(ys[1], np.ones((m, 1)), sizes, v, method=method)
        assert (fits[1].varcomps, fits[1].loglik, fits[1].n_evaluations) == \
            (alone.varcomps, alone.loglik, alone.n_evaluations)

    @pytest.mark.parametrize("tie", [False, True])
    def test_starts_and_best_match_per_design_loop(self, monkeypatch, tie):
        # the per-design loops that the start array replaced, kept as the
        # reference; with tie, every start of a design reports one loglik, so
        # each design takes its first start
        gen = np.random.default_rng(23)
        sizes = np.array([3, 1, 4, 2])
        m = int(sizes.sum())
        ys = gen.normal(0.9, 0.3, (6, m))
        ys[0] = 0.9
        problem = Problem(ys, np.ones((m, 1)), sizes, gen.uniform(0.01, 0.2, m),
                          columns=[[0]] * 6)
        problem.pin[1:4] = [[True, False], [False, True], [True, True]]
        ascended = []
        ascend = engine._ascend

        def recording(problem, design, start):
            point, loglik, *rest = ascend(problem, design, start)
            if tie:
                loglik = np.zeros_like(loglik)
            ascended.append((design, np.asarray(start), point, loglik, rest[1]))
            return (point, loglik, *rest)

        monkeypatch.setattr(engine, "_ascend", recording)
        fits = list(engine._fit_problem(problem))
        [(design, start, point, loglik, evaluations)] = ascended
        floor, want_design, want_start = engine.VAR_FLOOR, [], []
        for k, pin in enumerate(problem.pin):
            s = float(np.clip(np.var(problem.y[k]), floor, engine.VAR_CEIL))
            starts = np.where(pin, floor, np.array([(floor, s), (s, floor)]))
            want_design += [k, k]
            want_start += starts.tolist()
        assert design.tolist() == want_design and start.tolist() == want_start
        for k, fit in enumerate(fits):
            runs = [i for i, d in enumerate(design) if d == k]
            best = max(runs, key=lambda i: loglik[i])
            assert (fit.varcomps.sigma2_xi, fit.varcomps.sigma2_zeta) == tuple(point[best])
            assert fit.loglik == loglik[best]
            assert fit.n_evaluations == sum(evaluations[i] for i in runs)

    @pytest.mark.parametrize("seed", range(6))
    def test_results_do_not_depend_on_the_batch(self, seed):
        # one call spans random widths and mixes ordinary designs with designs
        # that fail: m <= f, collinear (a column that combines two others) and
        # unfactorable (a 1e-200-scaled column); each yields what it does alone
        gen = np.random.default_rng(seed)
        sizes = gen.integers(1, 5, int(gen.integers(2, 7)))
        m = int(sizes.sum())
        y, v = gen.normal(1.0, 0.3, m), 1.0 / (4.0 * np.exp(gen.uniform(0.0, 8.0, m)) + 2.0)
        method = ("reml", "ml")[seed % 2]
        designs = []
        for kind in gen.permutation(["plain"] * 6 + ["wide", "collinear", "tiny"] * 2):
            f = int(gen.integers(m, m + 2)) if kind == "wide" else int(gen.integers(3, 5))
            X = np.column_stack([np.ones(m), gen.normal(size=(m, f - 1))])
            if kind == "collinear":
                X[:, -1] = gen.normal() * X[:, 0] + gen.normal() * X[:, 1]
            elif kind == "tiny":
                X[:, -1] *= 1e-200
            designs.append(X)
        ends = np.cumsum([X.shape[1] for X in designs])
        columns = [range(end - X.shape[1], end) for X, end in zip(designs, ends)]
        results = dict(engine.fit_designs(y, np.hstack(designs), sizes, v, method, columns))
        assert sorted(results) == list(range(len(designs)))
        for k, X in enumerate(designs):
            try:
                alone = fit_model(y, X, sizes, v, method=method)
            except (ValidationError, np.linalg.LinAlgError) as error:
                assert type(results[k]) is type(error) and str(results[k]) == str(error)
                continue
            fit = results[k]
            assert (fit.varcomps, fit.loglik, fit.converged, fit.n_evaluations) == \
                (alone.varcomps, alone.loglik, alone.converged, alone.n_evaluations)
            for name in ("beta", "cov_beta", "X"):
                assert np.array_equal(getattr(fit, name), getattr(alone, name)), name

    @pytest.mark.parametrize("method", ["reml", "ml"])
    def test_unfactorable_design_leaves_its_companion(self, method):
        # the third column of design 0 is 1e-200 times a normal one: the rank
        # rule, free of scale, keeps it, but X'V^-1 X underflows at every start,
        # so fit_designs yields LinAlgError for it alone
        gen = np.random.default_rng(0)
        sizes = np.array([3, 2, 4, 3, 2, 4])
        m = int(sizes.sum())
        n = np.exp(gen.uniform(0.0, math.log(1e6), m))
        y, v = gen.normal(1.0, 0.3, m), 1.0 / (4.0 * n + 2.0)
        pool = np.column_stack([np.ones(m), gen.normal(size=m), 1e-200 * gen.normal(size=m),
                                gen.normal(size=m)])
        fits = dict(engine.fit_designs(y, pool, sizes, v, method, [[0, 1, 2], [0, 1, 3]]))
        assert isinstance(fits[0], np.linalg.LinAlgError)
        assert "rank deficient" in str(fits[0])
        alone = fit_model(y, pool[:, [0, 1, 3]], sizes, v, method=method)
        assert (fits[1].loglik, fits[1].n_evaluations) == (alone.loglik, alone.n_evaluations)


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
                    assert problem.evaluate_batch([0], [point])[0][0] <= fit.loglik + 1e-8

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
        # at this point the Cholesky factorization of X'V^-1 X succeeds
        vc = VarianceComponents(0.01, 0.01)
        assert Problem(y, X, [4, 4], v, method).evaluate_batch([0], [[0.01, 0.01]])[3] == [False]
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            log_likelihood(y, X, [4, 4], vc, v, method)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            gls_fixed_effects(y, X, [4, 4], vc, v)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            log_likelihood(y, np.column_stack([X[:, :3], np.zeros(8)]), [4, 4], vc, v, method)
        # one collinear design among full-rank ones of its width fails alone
        both = np.column_stack([X, gen.normal(size=8)])
        full_rank = [[0, 1, 2], [0, 1, 4], [0, 2, 4], [1, 2, 4]]
        assert Problem(y, both, [4, 4], v, method, columns=full_rank).full_rank.all()
        fits = dict(engine.fit_designs(y, both, [4, 4], v, method,
                                       full_rank[:2] + [[1, 2, 3]] + full_rank[2:]))
        assert isinstance(fits[2], np.linalg.LinAlgError) and "rank deficient" in str(fits[2])
        for k, cols in zip([0, 1, 3, 4], full_rank):
            alone = fit_model(y, both[:, cols], [4, 4], v, method=method)
            assert (fits[k].varcomps, fits[k].loglik, fits[k].n_evaluations) == \
                (alone.varcomps, alone.loglik, alone.n_evaluations)

    def test_m_not_greater_than_f(self):
        with pytest.raises(ValidationError):
            fit_model([1.0], np.ones((1, 1)), [1], [0.1])

    @pytest.mark.parametrize("method", ["reml", "ml"])
    def test_one_trial_per_study_pins_zeta(self, method):
        # V depends only on sigma2_xi + sigma2_zeta: sigma2_xi carries the sum,
        # at the loglik the fit reaches with sigma2_zeta left free
        gen = np.random.default_rng(5)
        lifted = 0
        for _ in range(24):
            h = int(gen.integers(2, 12))
            sizes = np.ones(h, dtype=np.int64)
            v = 1.0 / (4.0 * np.exp(gen.uniform(math.log(10), math.log(5000), h)) + 2.0)
            X = np.column_stack([np.ones(h), gen.normal(size=h)])[:, :int(gen.integers(1, 3))]
            y = 1.1 + gen.normal(0.0, np.sqrt(np.exp(gen.uniform(math.log(1e-5), math.log(0.05))) + v))
            if h <= X.shape[1]:
                continue
            fit = fit_model(y, X, sizes, v, method=method)
            assert fit.varcomps.sigma2_zeta == engine.VAR_FLOOR
            free = Problem(y, X, sizes, v, method)
            free.pin[:, 1] = False
            unpinned = next(engine._fit_problem(free))
            assert fit.loglik == pytest.approx(unpinned.loglik, abs=1e-8)
            lifted += unpinned.varcomps.sigma2_zeta > 1e-6
        assert lifted > 0

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
        assert engine.Z95 == pytest.approx(float(norm.ppf(0.975)), rel=1e-15)

    def test_normal_quantile_matches_mpmath(self):
        # the stdlib quantile that pooled_estimate, Z95 and the Shapiro-Wilk weights use
        import mpmath

        ps = np.r_[np.logspace(-300, -0.302, 80), 1.0 - np.logspace(-15, -0.302, 40)]
        assert NormalDist().inv_cdf(0.5) == 0.0
        with mpmath.workdps(40):
            for p in ps:
                x = NormalDist().inv_cdf(p)
                lower = mpmath.mpf(p) if p < 0.5 else 1 - mpmath.mpf(p)
                ref = mpmath.findroot(lambda t: mpmath.ncdf(t) - lower, -abs(x))
                assert abs(abs(x) / abs(ref) - 1) <= 2e-15, p

    def test_t_quantile_matches_mpmath(self):
        import mpmath
        from scipy.stats import t as student

        gen = np.random.default_rng(267)
        dfs = np.r_[1, 2, 3, 4, 5, 9, 19, 194, 1000, 9999, 10000, gen.integers(1, 10001, 14)]
        ps = np.r_[0.75, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 0.9995, gen.uniform(0.75, 0.9995, 2)]
        with mpmath.workdps(40):
            for df in map(int, dfs):
                nu = mpmath.mpf(df)
                for p in ps:
                    tail = 1 - mpmath.mpf(p)
                    ref = mpmath.findroot(lambda t: mpmath.betainc(
                        nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) / 2 - tail,
                        float(student.ppf(p, df)))
                    assert abs(engine._t_quantile(df, p) / ref - 1) <= 1e-11, (df, p)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_level_outside_open_unit_interval_raises(self, level):
        y, X, sizes, v = toy_instance(41, n_studies=2, trials=3)
        fit = fit_model(y, X, sizes, v)
        for quantile in ("normal", "t"):
            with pytest.raises(ValueError, match="level"):
                pooled_estimate(fit, level=level, quantile=quantile)

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
        kappa, se = predict_study_effects(fit)
        assert len(kappa) == len(se) == data.h
        for kappa_hat in kappa:
            assert kappa_hat == pytest.approx(float(fit.beta[0]), abs=1e-6)

    def test_conditional_normal_oracle(self):
        data = self._dataset(seed=23, h=2, trials=3)
        y, v = effect_arrays(data)
        sizes = data.group_sizes()
        fit = fit_model(y, np.ones((data.m, 1)), sizes, v)
        kappa, se = predict_study_effects(fit)
        mu = float(fit.beta[0])
        xi, zeta = fit.varcomps.sigma2_xi, fit.varcomps.sigma2_zeta
        start = 0
        for kappa_hat, se_hat, size in zip(kappa, se, sizes):
            stop = start + int(size)
            yj, vj = y[start:stop], v[start:stop]
            Vj = np.full((size, size), xi) + np.diag(vj + zeta)
            cov_xy = np.full(size, xi)          # Cov(xi_j, y_j)
            w = np.linalg.solve(Vj, cov_xy)
            cond_mean = mu + float(w @ (yj - mu))
            cond_var = xi - float(w @ cov_xy)
            assert kappa_hat == pytest.approx(cond_mean, abs=1e-10)
            assert se_hat == pytest.approx(math.sqrt(max(cond_var, 0.0)), abs=1e-10)
            start = stop

    def test_trials_sum_to_m(self):
        from metaprop.report import forest_plot

        data = self._dataset(seed=29)
        y, v = effect_arrays(data)
        fit = fit_model(y, np.ones((data.m, 1)), data.group_sizes(), v)
        _, rows = forest_plot(fit, data)
        assert sum(r.trials for r in rows) == data.m

    def test_pool_method_matches_inverse_variance(self):
        data = self._dataset(seed=31)
        y, v = effect_arrays(data)
        sizes = data.group_sizes()
        fit = fit_model(y, np.ones((data.m, 1)), sizes, v)
        kappa, _ = predict_study_effects(fit, method="pool")
        w = 1.0 / v[:sizes[0]]
        assert kappa[0] == pytest.approx(
            float(np.sum(w * y[:sizes[0]]) / np.sum(w)), abs=1e-12)

    def test_matches_per_study_loop(self):
        # the per-study loop the reduceat sums replaced, on a moderated design
        data = self._dataset(seed=43, h=5, trials=4)
        y, v = effect_arrays(data)
        sizes = data.group_sizes()
        X = np.column_stack([np.ones(data.m), np.linspace(-1.0, 1.0, data.m)])
        fit = fit_model(y, X, sizes, v)
        xi, zeta = fit.varcomps.sigma2_xi, fit.varcomps.sigma2_zeta
        fitted = X @ fit.beta
        pool, blup, weights = [], [], []
        for stop, size in zip(np.cumsum(sizes), sizes):
            part = slice(stop - size, stop)
            w = 1.0 / v[part]
            pool.append((np.sum(w * y[part]) / np.sum(w), math.sqrt(1.0 / np.sum(w))))
            d = 1.0 / (v[part] + zeta)
            s = np.sum(d)
            blup.append((np.mean(fitted[part]) + xi * np.sum(d * (y[part] - fitted[part]))
                         / (1.0 + xi * s), math.sqrt(xi / (1.0 + xi * s))))
            weights.append(s / (1.0 + xi * s))
        for method, expected in (("pool", pool), ("blup", blup)):
            got = np.column_stack(predict_study_effects(fit, method=method))
            assert got == pytest.approx(np.array(expected, dtype=float), rel=1e-14)
        assert study_weights(fit) == pytest.approx(np.array(weights) / sum(weights), rel=1e-14)

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
        fit = fit_model(y, X, sizes, v)
        mu = float(fit.beta[0])
        devs = []
        for xi in (1e-8, 0.01, 0.1, 1.0):
            fit.varcomps = VarianceComponents(xi, fit.varcomps.sigma2_zeta)
            kappa, _ = predict_study_effects(fit)
            devs.append(abs(kappa[0] - mu))
        assert devs[0] == pytest.approx(0.0, abs=1e-6)
        assert devs == sorted(devs)


class TestFitProbe:
    """scripts/fit_probe.py, the seeded probe that compares fits across checkouts."""

    SCRIPT = ROOT / "scripts" / "fit_probe.py"

    def test_this_checkout_is_identical_to_itself(self):
        proc = subprocess.run([sys.executable, str(self.SCRIPT), str(ROOT), "--count", "16"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "identical: 16 of 16\n" in proc.stdout
        assert "worse by more than 1e-08: 0\n" in proc.stdout

    def test_worse_fit_or_new_error_fails(self, capsys):
        compare = runpy.run_path(str(self.SCRIPT))["compare"]
        fit = [1.0, 0.01, 0.02, True, 20]
        assert compare([fit, "LinAlgError"], [fit, "LinAlgError"]) == 0
        assert compare([[1.0 + 1e-6, 0.01, 0.02, True, 9]], [fit]) == 0
        assert compare([[1.0 - 1e-6, 0.01, 0.02, True, 20]], [fit]) == 1
        assert compare(["LinAlgError"], [fit]) == 1
        assert compare(["ValidationError"], ["LinAlgError"]) == 1
        out = capsys.readouterr().out
        assert "worse by more than 1e-08: 1 (worst #0, by 1e-06)" in out
        assert "#0: ValidationError here, LinAlgError in the parent" in out
