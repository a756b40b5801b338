import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop.transforms import (DiagnosticRow, alt_transform, ft_inverse,
                                 ft_inverse_array, ft_theta, ft_transform,
                                 shapiro_wilk, transform_diagnostic)
from metaprop.ingest import Dataset, FeatureSchema

TESTDATA = pathlib.Path(__file__).resolve().parent / "data"


def mp_ft_theta(k, n):
    """Arbitrary-precision evaluation of the double arcsine."""
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.asin(mpmath.sqrt(mpmath.mpf(k) / (n + 1)))
        b = mpmath.asin(mpmath.sqrt(mpmath.mpf(k + 1) / (n + 1)))
        return float((a + b) / 2)


class TestFtTransform:
    def test_boundary_cases(self):
        es = ft_transform(0, 1)
        assert es.theta == pytest.approx(math.pi / 8, abs=1e-15)
        assert es.variance == 1.0 / 6
        es = ft_transform(1, 1)
        assert es.theta == pytest.approx(3 * math.pi / 8, abs=1e-15)

    def test_against_high_precision_oracle(self):
        for k, n in [(80, 100), (0, 7), (7, 7), (3, 11), (999, 1000), (1, 100000)]:
            assert ft_transform(k, n).theta == pytest.approx(mp_ft_theta(k, n), abs=1e-13)

    def test_spec_value_80_of_100(self):
        es = ft_transform(80, 100)
        assert es.theta == pytest.approx(1.10347, abs=5e-6)
        assert es.variance == 1.0 / 402

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ft_transform(5, 4)
        with pytest.raises(ValueError):
            ft_transform(0, 0)
        with pytest.raises(ValueError):
            ft_transform(-1, 4)

    @given(st.integers(min_value=1, max_value=200))
    def test_strictly_increasing_in_k(self, n):
        thetas = ft_theta(np.arange(n + 1), np.full(n + 1, n))
        assert np.all(np.diff(thetas) > 0)

    @given(st.integers(min_value=1, max_value=500), st.data())
    def test_complement_symmetry(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        t1 = ft_transform(k, n).theta
        t2 = ft_transform(n - k, n).theta
        assert t1 + t2 == pytest.approx(math.pi / 2, abs=1e-12)

    @given(st.integers(min_value=1, max_value=10000))
    def test_variance_exact(self, n):
        assert ft_transform(0, n).variance == 1.0 / (4 * n + 2)


class TestFtInverse:
    def test_midpoint(self):
        for n_equiv in (1.0, 10.0, 1e6):
            assert ft_inverse(math.pi / 4, n_equiv) == pytest.approx(0.5, abs=1e-12)

    def test_boundaries(self):
        assert ft_inverse(0.0, 100.0) == 0.0
        assert ft_inverse(math.pi / 2, 100.0) == 1.0

    def test_infinite_n_gives_sin_squared(self):
        t = 1.1071487177940904
        assert ft_inverse(t, math.inf) == pytest.approx(0.8, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ft_inverse(-0.01, 10.0)
        with pytest.raises(ValueError):
            ft_inverse(math.pi / 2 + 0.01, 10.0)
        with pytest.raises(ValueError):
            ft_inverse(0.3, 0.0)

    def test_round_trip_spec_example(self):
        assert ft_inverse(ft_transform(80, 100).theta, 100) == pytest.approx(0.80, abs=1e-6)

    @given(st.integers(min_value=2, max_value=2000), st.data())
    @settings(max_examples=200)
    def test_round_trip_property(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        p = ft_inverse(ft_transform(k, n).theta, n)
        assert p == pytest.approx(k / n, abs=1e-6)

    def test_no_fold_beyond_attainable_range(self):
        n = 10.0
        assert ft_inverse_array(np.array([1.45, 1.5, 1.56]), n).tolist() == [1.0, 1.0, 1.0]
        assert ft_inverse(0.05, n) == 0.0
        assert ft_inverse(float(ft_theta(n, n)), n) == 1.0
        assert ft_inverse(float(ft_theta(0, n)), n) == 0.0

    @given(st.one_of(st.floats(min_value=0.05, max_value=1e7), st.just(math.inf)))
    @settings(max_examples=100)
    def test_monotone_in_t(self, n):
        p = ft_inverse_array(np.linspace(0.0, math.pi / 2, 4001), n)
        assert np.all(np.diff(p) >= 0.0)

    def test_vectorized_round_trip_all_k(self):
        for n in (5, 10, 100, 1000):
            k = np.arange(1, n)
            p = ft_inverse_array(ft_theta(k, np.full(n - 1, n)), float(n))
            assert np.max(np.abs(p - k / n)) <= 1e-6


class TestAltTransforms:
    def test_arcsine(self):
        es = alt_transform(0.5, 100, "arcsine")
        assert es.theta == pytest.approx(math.pi / 4, abs=1e-15)
        assert es.variance == pytest.approx(0.0025)

    def test_logit(self):
        es = alt_transform(0.5, 100, "logit")
        assert es.theta == 0.0
        assert es.variance == pytest.approx(0.04)

    def test_log(self):
        es = alt_transform(0.5, 100, "log")
        assert es.theta == pytest.approx(math.log(0.5))
        assert es.variance == pytest.approx(0.5 / 50)

    def test_logit_instability_at_boundaries(self):
        with pytest.raises(ValueError):
            alt_transform(1.0, 100, "logit")
        with pytest.raises(ValueError):
            alt_transform(0.0, 100, "logit")
        with pytest.raises(ValueError):
            alt_transform(0.0, 100, "log")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            alt_transform(0.5, 100, "probit")


class TestShapiroWilk:
    def test_frozen_reference_cases(self):
        cases = json.loads((TESTDATA / "shapiro_cases.json").read_text())
        assert len(cases) == 10
        for case in cases:
            w, p = shapiro_wilk(case["values"])
            assert w == pytest.approx(case["w"], abs=1e-3), case["n"]
            assert p == pytest.approx(case["p"], abs=2e-3), case["n"]

    def test_near_perfect_normal_scores(self):
        from scipy.stats import norm

        n = 20
        scores = norm.ppf((np.arange(1, n + 1) - 0.375) / (n + 0.25))
        w, p = shapiro_wilk(scores)
        assert w >= 0.99

    def test_one_to_ten(self):
        w, _ = shapiro_wilk(list(range(1, 11)))
        assert w == pytest.approx(0.97, abs=5e-3)

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 1.0, 1.0, 1.0])

    def test_too_small(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])

    def test_small_n_branches_match_scipy(self):
        from scipy.stats import shapiro

        gen = np.random.default_rng(3)
        for n in (3, 4, 5, 7, 11, 12):
            x = gen.normal(size=n)
            w, p = shapiro_wilk(x)
            ref = shapiro(x)
            assert w == pytest.approx(float(ref.statistic), abs=1e-3)
            assert p == pytest.approx(float(ref.pvalue), abs=2e-3)


def _tiny_dataset(ks, ns):
    return Dataset(study_id=["S1"] * len(ks), trial_id=[f"t{i}" for i in range(len(ks))],
                   k=ks, n=ns, features={}, schema=FeatureSchema(entries=()))


class TestTransformDiagnostic:
    def test_skips_untransformable_kinds(self):
        # one perfect accuracy makes logit undefined; log stays defined
        gen = np.random.default_rng(1)
        ns = [50] * 12
        ks = [50] + [int(v) for v in gen.integers(35, 50, 11)]
        rows = transform_diagnostic(_tiny_dataset(ks, ns))
        by_kind = {r.kind: r for r in rows}
        assert by_kind["logit"].skipped is not None
        assert by_kind["double_arcsine"].skipped is None
        assert by_kind["double_arcsine"].w is not None

    def test_requires_three_trials(self):
        rows = transform_diagnostic(_tiny_dataset([10, 12], [20, 20]))
        assert all(isinstance(r, DiagnosticRow) and r.skipped is not None for r in rows)

    def test_ft_most_normal_near_one(self):
        # accuracies piled near 0.99: the double arcsine should look at
        # least as normal as the plain arcsine
        gen = np.random.default_rng(2)
        ns = [400] * 40
        ks = [min(n, int(round(n * p))) for n, p in
              zip(ns, np.clip(gen.normal(0.988, 0.006, 40), 0.9, 1.0))]
        rows = {r.kind: r for r in transform_diagnostic(_tiny_dataset(ks, ns))}
        assert rows["double_arcsine"].w >= rows["arcsine"].w - 1e-6
