import csv
import io
import math
import re
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from metaprop import engine
from metaprop.ingest import ValidationError, encode_design
from metaprop.report import (comparison_table, forest_plot, format_p,
                             regression_table, simple_table)
from metaprop.selection import five_model_protocol
from metaprop.simulate import SimConfig, generate


@pytest.fixture(scope="module")
def fitted_example(example_dataset):
    y, v = engine.effect_arrays(example_dataset)
    design = encode_design(example_dataset, ())
    fit = engine.fit_model(y, design, example_dataset.group_sizes(), v)
    return fit, example_dataset


class TestForestPlot:
    def test_structure(self, fitted_example):
        fit, dataset = fitted_example
        svg, rows = forest_plot(fit, dataset)
        root = ET.fromstring(svg)  # well-formed XML
        assert root.tag.endswith("svg")
        assert len(rows) == dataset.h == 20
        assert svg.count("<rect") == 20 + 1  # one marker per study + background
        assert svg.count("<polygon") == 1    # pooled diamond

    def test_study_ids_are_escaped(self):
        from xml.sax.saxutils import escape

        from metaprop import report
        from metaprop.ingest import FeatureSchema, parse_dataset

        for text in ["A&B", "<x>", "a>b&c<d", "&amp;", "]]>", "plain", ""]:
            assert report._escape(text) == escape(text)
        ids = ["A&B", "<x>", "a>b&c<d"]
        rows = "".join(f'"{sid}",t{j},{30 + 7 * i + 3 * j},{60 + 5 * i}\n'
                       for i, sid in enumerate(ids) for j in range(3))
        dataset = parse_dataset("study_id,trial_id,k,n\n" + rows,
                                FeatureSchema.from_yaml("features: {}"))
        y, v = engine.effect_arrays(dataset)
        fit = engine.fit_model(y, np.ones((dataset.m, 1)), dataset.group_sizes(), v)
        svg, _ = forest_plot(fit, dataset)
        texts = [t.text for t in ET.fromstring(svg).iter() if t.tag.endswith("text")]
        assert set(ids) <= set(texts)

    def test_weights_sum_to_one(self, fitted_example):
        fit, dataset = fitted_example
        _, rows = forest_plot(fit, dataset)
        assert sum(r.weight for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_ci_contains_estimate_inside_axis(self, fitted_example):
        fit, dataset = fitted_example
        _, rows = forest_plot(fit, dataset)
        for r in rows:
            assert 0.0 <= r.ci[0] <= r.estimate <= r.ci[1] <= 1.0

    def test_rows_match_predictions(self, fitted_example):
        from metaprop.transforms import ft_inverse

        fit, dataset = fitted_example
        _, rows = forest_plot(fit, dataset)
        kappa, se = engine.predict_study_effects(fit)
        assert len(rows) == len(kappa)
        for row, kappa_hat, se_hat in zip(rows, kappa, se):
            n_eq = math.inf if se_hat == 0 else 1.0 / se_hat ** 2
            assert row.estimate == pytest.approx(ft_inverse(kappa_hat, n_eq), abs=1e-12)

    def test_zero_xi_puts_all_rows_at_mu(self):
        cfg = SimConfig(h=5, trials_per_study=4, mu=1.1, sigma2_xi=0.0,
                        sigma2_zeta=0.004, n_range=(500, 900), seed=5)
        data = generate(cfg)
        y, v = engine.effect_arrays(data)
        fit = engine.fit_model(y, np.ones((data.m, 1)), data.group_sizes(), v)
        fit.varcomps = engine.VarianceComponents(0.0, fit.varcomps.sigma2_zeta)
        _, rows = forest_plot(fit, data)
        # every study shrinks fully onto mu on the transformed scale
        kappa, _ = engine.predict_study_effects(fit)
        for kappa_hat in kappa:
            assert kappa_hat == pytest.approx(float(fit.beta[0]), abs=1e-12)
        from metaprop.transforms import ft_inverse

        target = ft_inverse(float(fit.beta[0]), math.inf)
        for r in rows:
            assert r.estimate == pytest.approx(target, abs=1e-12)

    def test_transformed_scale_option(self, fitted_example):
        fit, dataset = fitted_example
        svg, _ = forest_plot(fit, dataset, scale="transformed")
        ET.fromstring(svg)
        assert "transformed accuracy" in svg

    @pytest.mark.parametrize("scale", ["proportion", "transformed"])
    def test_study_effects_computed_once(self, fitted_example, monkeypatch, scale):
        fit, dataset = fitted_example
        calls = []
        original = engine.predict_study_effects
        monkeypatch.setattr(engine, "predict_study_effects",
                            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
        forest_plot(fit, dataset, scale=scale)
        assert len(calls) == 1

    def test_other_layout_raises(self, fitted_example):
        fit, dataset = fitted_example
        other = generate(SimConfig(h=5, trials_per_study=4, mu=1.1, sigma2_xi=0.01,
                                   sigma2_zeta=0.004, n_range=(500, 900), seed=5))
        # the same number of studies and trials, split differently
        sizes = dataset.group_sizes()
        moved = generate(SimConfig(h=dataset.h, trials_per_study=[*sizes[1:], sizes[0]],
                                   mu=1.1, sigma2_xi=0.01, sigma2_zeta=0.004,
                                   n_range=(500, 900), seed=5))
        assert moved.m == dataset.m and moved.h == dataset.h
        for data in (other, moved):
            with pytest.raises(ValidationError, match="^dataset does not match the fitted "
                                                      "model layout$"):
                forest_plot(fit, data)

    def test_requires_intercept_only(self, fitted_example):
        _, dataset = fitted_example
        y, v = engine.effect_arrays(dataset)
        design = encode_design(dataset, ["ml_model"])
        fit = engine.fit_model(y, design, dataset.group_sizes(), v)
        with pytest.raises(ValidationError):
            forest_plot(fit, dataset)


class TestRegressionTable:
    def test_intercept_only_single_row(self, fitted_example):
        fit, dataset = fitted_example
        design = encode_design(dataset, ())
        table = regression_table(fit, design)
        assert len(table.rows) == 1
        assert table.rows[0].label == "Intercept"

    def test_reference_annotations_and_footnote(self, example_dataset):
        y, v = engine.effect_arrays(example_dataset)
        design = encode_design(example_dataset, example_dataset.schema.names)
        fit = engine.fit_model(y, design, example_dataset.group_sizes(), v)
        table = regression_table(fit, design)
        md = table.markdown()
        assert "(Ref: Classical machine learning)" in md
        assert "(Ref: TF-IDF)" in md
        assert "topic=Not specified" in md  # dropped-columns footnote
        assert len(table.rows) == fit.f == 29

    def test_p_value_formatting(self):
        assert format_p(0.00005) == "<.0001"
        assert format_p(0.0234) == "0.0234"
        assert format_p(1.0) == "1.0000"

    def test_p_value_matches_mpmath(self):
        # p = 2 Phi(-|z|) = erfc(|z| / sqrt 2), with se = 1 so that z is the coefficient
        import mpmath

        z = np.r_[np.linspace(-37.0, 37.0, 149), 1e-8, -1e-3, 8.3, -8.5]
        fit = SimpleNamespace(beta=z, cov_beta=np.eye(z.size))
        design = SimpleNamespace(feature_groups={"b": [f"b{i}" for i in range(1, z.size)]},
                                 reference_levels={}, dropped=[])
        rows = regression_table(fit, design).rows
        with mpmath.workdps(40):
            for zi, row in zip(z, rows):
                ref = mpmath.erfc(abs(mpmath.mpf(zi)) / mpmath.sqrt(2))
                assert abs(row.p / ref - 1) <= 5e-13, zi

    def test_zero_beta_p_one(self, fitted_example):
        fit, dataset = fitted_example
        design = encode_design(dataset, ())
        fit2 = engine.FitResult(
            beta=np.array([0.0]), cov_beta=np.zeros((1, 1)),
            varcomps=fit.varcomps, loglik=0.0, method="reml", converged=True,
            n_evaluations=0, m=fit.m, h=fit.h, f=1, y=fit.y, X=fit.X,
            group_sizes=fit.group_sizes, v=fit.v)
        table = regression_table(fit2, design)
        assert table.rows[0].p == 1.0

    @pytest.mark.parametrize("schema, columns, expected", [
        # a numeric name with "=", a categorical one with "=", a numeric "intercept"
        ("dose=mg: {kind: numeric}\n"
         "arm=x: {kind: categorical, reference_level: a}\n"
         "intercept: {kind: numeric}\n",
         lambda i: [f"{1.0 + 0.7 * i:.1f}", "abc"[i % 3], f"{i * 7 % 5}"],
         [("Intercept", ""), ("dose=mg", "dose=mg"), ("**arm=x** (Ref: a)", None),
          ("&nbsp;&nbsp;b", "arm=x"), ("&nbsp;&nbsp;c", "arm=x"),
          ("intercept", "intercept")]),
        # a numeric "a=b" whose label equals the dummy of level b of categorical a
        ("a: {kind: categorical, reference_level: x}\n"
         "a=b: {kind: numeric}\n",
         lambda i: ["xb"[i % 2], f"{i * 7 % 5}"],
         [("Intercept", ""), ("**a** (Ref: x)", None), ("&nbsp;&nbsp;b", "a"),
          ("a=b", "a=b")]),
    ], ids=["equals_in_names", "numeric_label_is_a_dummy_label"])
    def test_rows_named_by_design_position(self, schema, columns, expected):
        table = _feature_table(schema, columns)
        md = table.markdown().splitlines()
        assert [line[2:].split(" | ")[0] for line in md[2:]] == [e[0] for e in expected]
        parsed = list(csv.DictReader(io.StringIO(table.csv())))
        rows = [(e[0].replace("&nbsp;", ""), e[1]) for e in expected if e[1] is not None]
        assert [(r["label"], r["feature"]) for r in parsed] == rows

    def test_design_of_another_width_raises(self, fitted_example):
        fit, dataset = fitted_example
        with pytest.raises(ValueError, match="^design has 5 columns, the fit 1$"):
            regression_table(fit, encode_design(dataset, ["ml_model"]))

    def test_pipe_in_level_is_escaped(self):
        table = _feature_table("c: {kind: categorical, reference_level: a}\n",
                               lambda i: [["a", "b|c", "d"][i % 3]])
        md = table.markdown().splitlines()
        assert all(len(re.findall(r"(?<!\\)\|", line)) == 6 for line in md)
        assert md[4].startswith("| &nbsp;&nbsp;b\\|c | ")
        parsed = list(csv.DictReader(io.StringIO(table.csv())))
        assert [r["label"] for r in parsed] == ["Intercept", "b|c", "d"]


def _feature_table(schema, columns):
    """The regression table of every feature of SCHEMA, fitted to twelve
    trials in four studies whose feature values COLUMNS(i) gives per trial."""
    from metaprop.ingest import FeatureSchema, parse_dataset

    schema = FeatureSchema.from_yaml("features:\n" + "".join(
        "  " + line + "\n" for line in schema.splitlines()))
    header = ",".join(["study_id", "trial_id", "k", "n", *schema.names])
    rows = [",".join([f"S{i // 3}", f"t{i % 3}", str(60 + 3 * i + (i * 5) % 7), "100",
                      *columns(i)]) for i in range(12)]
    dataset = parse_dataset("\n".join([header, *rows]) + "\n", schema)
    y, v = engine.effect_arrays(dataset)
    design = encode_design(dataset, schema.names)
    assert not design.dropped
    return regression_table(engine.fit_model(y, design, dataset.group_sizes(), v), design)


def _protocol_rows():
    cfg = SimConfig(h=6, trials_per_study=4, mu=1.0, sigma2_xi=0.01,
                    sigma2_zeta=0.004, n_range=(500, 1500), seed=11,
                    moderators=[])
    data = generate(cfg)
    rows, _ = five_model_protocol(data)
    return rows


class TestComparisonTable:
    def test_markdown_structure(self):
        rows = _protocol_rows()
        md = comparison_table(rows, "markdown")
        lines = md.strip().splitlines()
        assert len(lines) == 2 + 5
        assert lines[0].startswith("| Model | f | AIC | BIC | RMSE | Q |")
        null_line = next(ln for ln in lines if ln.startswith("| Null"))
        assert null_line.rstrip().endswith("|  |  |")  # blank R2 cells

    def test_aic_ordering(self):
        rows = _protocol_rows()
        md_rows = comparison_table(rows, "markdown").strip().splitlines()[2:]
        aics = [float(line.split("|")[3]) for line in md_rows]
        assert aics == sorted(aics)

    def test_csv_round_trip_six_significant_digits(self):
        rows = _protocol_rows()
        text = comparison_table(rows, "csv")
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 5
        by_name = {r.name: r for r in rows}
        for rec in parsed:
            row = by_name[rec["model"]]
            for field, value in (("aic", row.aic), ("bic", row.bic),
                                 ("rmse", row.rmse), ("q", row.q),
                                 ("sigma2_xi", row.sigma2_xi),
                                 ("mu_prop", row.mu_prop)):
                assert float(rec[field]) == pytest.approx(value, rel=1e-5)
            assert int(rec["f"]) == row.f

    def test_single_row(self):
        rows = _protocol_rows()[:1]
        md = comparison_table(rows, "markdown")
        assert len(md.strip().splitlines()) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            comparison_table([], "markdown")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            comparison_table(_protocol_rows(), "xlsx")


class TestSimpleTable:
    def test_markdown(self):
        out = simple_table(["a", "b"], [[1, 2], [3, 4]])
        assert out == "| a | b |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |\n"

    def test_csv(self):
        out = simple_table(["a", "b"], [[1, 2]], format="csv")
        assert out == "a,b\n1,2\n"
