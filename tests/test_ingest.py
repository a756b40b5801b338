import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop.ingest import (FeatureSchema, FeatureSpec, ValidationError,
                             encode_design, parse_dataset, summarize_features,
                             write_dataset_csv)

SCHEMA = FeatureSchema(entries=(
    FeatureSpec(name="size", kind="numeric", scale=1000.0),
    FeatureSpec(name="model", kind="categorical", reference_level="base",
                grouping={"lr": "base", "nb": "base", "svm": "svm", "nn": "nn"}),
    FeatureSpec(name="lang", kind="categorical", reference_level="en"),
))

CSV = """study_id,trial_id,k,n,size,model,lang
S2,t1,80,100,2000,lr,en
S1,t1,45,50,1500,svm,en
S2,t2,70,100,2500,nb,de
S1,t2,40,50,3000,nn,en
"""


class TestParse:
    def test_basic_parse_and_ordering(self):
        ds = parse_dataset(CSV, SCHEMA)
        assert ds.m == 4 and ds.h == 2
        # stable sort: S1 block first, original order inside each study
        assert [t.study_id for t in ds.trials] == ["S1", "S1", "S2", "S2"]
        assert [t.trial_id for t in ds.trials] == ["t1", "t2", "t1", "t2"]
        assert ds.trials[0].p == pytest.approx(0.9)

    def test_scaling_and_grouping_applied(self):
        ds = parse_dataset(CSV, SCHEMA)
        first = ds.trials[0]
        assert first.features["size"] == pytest.approx(1.5)
        assert first.features["model"] == "svm"
        assert ds.trials[1].features["model"] == "nn"
        assert ds.trials[2].features["model"] == "base"

    def test_accuracy_column_instead_of_k(self):
        text = "study_id,trial_id,accuracy,n,size,model,lang\nS1,t1,0.8,100,1000,lr,en\n"
        ds = parse_dataset(text, SCHEMA)
        assert ds.trials[0].k == 80

    def test_k_greater_than_n(self):
        bad = "study_id,trial_id,k,n,size,model,lang\nS1,t1,101,100,1000,lr,en\n"
        with pytest.raises(ValidationError, match="line 2"):
            parse_dataset(bad, SCHEMA)

    def test_nonpositive_n(self):
        bad = "study_id,trial_id,k,n,size,model,lang\nS1,t1,0,0,1000,lr,en\n"
        with pytest.raises(ValidationError, match="positive"):
            parse_dataset(bad, SCHEMA)

    def test_non_integer_k(self):
        bad = "study_id,trial_id,k,n,size,model,lang\nS1,t1,80.5,100,1000,lr,en\n"
        with pytest.raises(ValidationError, match="integer"):
            parse_dataset(bad, SCHEMA)

    def test_missing_column(self):
        with pytest.raises(ValidationError, match="missing"):
            parse_dataset("study_id,trial_id,k,n\nS1,t1,1,2\n", SCHEMA)

    def test_unknown_category_closed_universe(self):
        bad = CSV + "S3,t1,10,20,1000,forest,en\n"
        with pytest.raises(ValidationError, match="unknown category"):
            parse_dataset(bad, SCHEMA)

    def test_open_universe_without_grouping(self):
        ok = CSV + "S3,t1,10,20,1000,lr,fr\n"
        ds = parse_dataset(ok, SCHEMA)
        assert ds.trials[-1].features["lang"] == "fr"

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_numeric_feature(self, raw):
        bad = f"study_id,trial_id,k,n,size,model,lang\nS1,t1,80,100,{raw},lr,en\n"
        with pytest.raises(ValidationError, match="line 2: .*not finite"):
            parse_dataset(bad, SCHEMA)

    def test_duplicate_trial_in_study(self):
        bad = CSV + "S1,t2,10,20,1000,lr,en\n"
        with pytest.raises(ValidationError, match="line 6: duplicate trial 't2' in study 'S1'"):
            parse_dataset(bad, SCHEMA)

    def test_empty_file(self):
        with pytest.raises(ValidationError, match="empty"):
            parse_dataset("", SCHEMA)
        with pytest.raises(ValidationError, match="empty"):
            parse_dataset("study_id,trial_id,k,n,size,model,lang\n", SCHEMA)

    def test_empty_feature_cell(self):
        bad = "study_id,trial_id,k,n,size,model,lang\nS1,t1,1,2,1000,,en\n"
        with pytest.raises(ValidationError, match="encode missing"):
            parse_dataset(bad, SCHEMA)

    def test_round_trip_preserves_counts(self):
        ds = parse_dataset(CSV, SCHEMA)
        buf = io.StringIO()
        write_dataset_csv(ds, buf)
        again = parse_dataset(buf.getvalue(), _identity_schema())
        assert [(t.study_id, t.k, t.n) for t in again.trials] == \
               [(t.study_id, t.k, t.n) for t in ds.trials]


def _identity_schema():
    # same features but no rescaling/regrouping (values already mapped)
    return FeatureSchema(entries=(
        FeatureSpec(name="size", kind="numeric"),
        FeatureSpec(name="model", kind="categorical", reference_level="base"),
        FeatureSpec(name="lang", kind="categorical", reference_level="en"),
    ))


class TestSchemaValidation:
    def test_duplicate_names(self):
        with pytest.raises(ValidationError, match="unique"):
            FeatureSchema(entries=(
                FeatureSpec(name="a", kind="numeric"),
                FeatureSpec(name="a", kind="numeric")))

    def test_nonpositive_scale(self):
        with pytest.raises(ValidationError, match="scale"):
            FeatureSpec(name="a", kind="numeric", scale=0.0)

    def test_categorical_needs_reference(self):
        with pytest.raises(ValidationError, match="reference_level"):
            FeatureSpec(name="a", kind="categorical")

    def test_reference_regrouped_away(self):
        with pytest.raises(ValidationError, match="post-grouping"):
            FeatureSpec(name="a", kind="categorical", reference_level="x",
                        grouping={"x": "y"})

    def test_yaml_round_trip(self):
        text = SCHEMA.to_yaml()
        again = FeatureSchema.from_yaml(text)
        assert again == SCHEMA


class TestEncodeDesign:
    def test_basic_layout(self):
        extra = "S3,t1,30,40,1800,lr,de\nS3,t2,35,40,2200,svm,en\nS3,t3,33,40,2600,nn,de\n"
        ds = parse_dataset(CSV + extra, SCHEMA)
        design = encode_design(ds, ["size", "model", "lang"])
        assert design.labels[0] == "intercept"
        assert design.intercept_included
        # categories sorted, reference omitted
        assert "model=base" not in design.labels
        assert "model=nn" in design.labels and "model=svm" in design.labels
        assert "lang=de" in design.labels
        assert set(np.unique(design.matrix[:, design.labels.index("model=nn")])) <= {0.0, 1.0}

    def test_one_numeric_feature_two_columns(self):
        ds = parse_dataset(CSV, SCHEMA)
        design = encode_design(ds, ["size"])
        assert design.labels == ["intercept", "size"]
        assert design.f == 2

    def test_unknown_feature(self):
        ds = parse_dataset(CSV, SCHEMA)
        with pytest.raises(ValidationError, match="unknown feature"):
            encode_design(ds, ["nope"])

    def test_deterministic(self):
        ds = parse_dataset(CSV, SCHEMA)
        d1 = encode_design(ds, ["model", "size"])
        d2 = encode_design(ds, ["size", "model"])
        assert d1.labels == d2.labels
        assert np.array_equal(d1.matrix, d2.matrix)

    def test_constant_numeric_dropped(self):
        schema = FeatureSchema(entries=(FeatureSpec(name="c", kind="numeric"),))
        text = "study_id,trial_id,k,n,c\nS1,t1,1,2,5\nS1,t2,1,2,5\nS2,t1,1,2,5\n"
        ds = parse_dataset(text, schema)
        design = encode_design(ds, ["c"])
        assert design.dropped == ["c"]
        assert design.f == 1

    def test_duplicate_column_dropped_fit_unchanged(self):
        schema = FeatureSchema(entries=(
            FeatureSpec(name="a", kind="categorical", reference_level="x"),
            FeatureSpec(name="b", kind="categorical", reference_level="p"),
        ))
        rows = ["S1,t1,4,9,x,p", "S1,t2,6,9,y,q", "S2,t1,5,9,y,q", "S2,t2,7,9,x,p"]
        text = "study_id,trial_id,k,n,a,b\n" + "\n".join(rows) + "\n"
        ds = parse_dataset(text, schema)
        design = encode_design(ds, ["a", "b"])
        # b=q duplicates a=y exactly, so it must be dropped
        assert design.dropped == ["b=q"]
        assert design.f == 2
        assert np.linalg.matrix_rank(design.matrix) == design.f

    def test_full_rank_invariant_on_example(self, example_dataset):
        design = encode_design(example_dataset, example_dataset.schema.names)
        assert np.linalg.matrix_rank(design.matrix) == design.f
        assert design.f == len(design.labels)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_rank_equals_columns_with_random_collinear_injections(self, seed):
        gen = np.random.default_rng(seed)
        m = int(gen.integers(8, 25))
        n_num = int(gen.integers(1, 4))
        entries = [FeatureSpec(name=f"x{i}", kind="numeric") for i in range(n_num)]
        base = gen.normal(size=(m, n_num))
        # inject exact duplicates / linear combinations as extra features
        n_dup = int(gen.integers(1, 4))
        dup_cols = []
        for d in range(n_dup):
            w = gen.integers(-2, 3, size=n_num)
            dup_cols.append(base @ w + float(gen.integers(-1, 2)))
            entries.append(FeatureSpec(name=f"dup{d}", kind="numeric"))
        schema = FeatureSchema(entries=tuple(entries))
        names = [e.name for e in entries]
        lines = ["study_id,trial_id,k,n," + ",".join(names)]
        for i in range(m):
            vals = [repr(float(v)) for v in base[i]] + [repr(float(c[i])) for c in dup_cols]
            lines.append(f"S{i % 3},t{i},1,2," + ",".join(vals))
        ds = parse_dataset("\n".join(lines) + "\n", schema)
        design = encode_design(ds, names)
        assert np.linalg.matrix_rank(design.matrix) == design.f


class TestSummarize:
    def test_counts_and_numeric_stats(self):
        ds = parse_dataset(CSV, SCHEMA)
        summaries = {s.name: s for s in summarize_features(ds)}
        assert summaries["model"].counts == {"base": 2, "nn": 1, "svm": 1}
        assert sum(summaries["model"].counts.values()) == ds.m
        assert summaries["size"].minimum == pytest.approx(1.5)
        assert summaries["size"].maximum == pytest.approx(3.0)

    def test_constant_numeric(self):
        schema = FeatureSchema(entries=(FeatureSpec(name="c", kind="numeric"),))
        text = "study_id,trial_id,k,n,c\nS1,t1,1,2,5\nS1,t2,1,2,5\n"
        s = summarize_features(parse_dataset(text, schema))[0]
        assert s.minimum == s.median == s.maximum == 5.0

    def test_empty_categories_omitted(self):
        ds = parse_dataset(CSV, SCHEMA)
        summaries = {s.name: s for s in summarize_features(ds)}
        assert "fr" not in summaries["lang"].counts
