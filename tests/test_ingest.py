import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop.engine import Problem, VarianceComponents, fit_designs, fit_model, log_likelihood
from metaprop import ingest, selection
from metaprop.ingest import (Dataset, FeatureSchema, FeatureSpec, ValidationError,
                             collinear_columns, dataset_csv, encode_design,
                             independent_columns, load_schema, parse_dataset, read_text)

from conftest import DATA, TESTDATA, handed_to_fit_designs

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


def assert_problem_applies_the_same_rule(dataset, design):
    """engine.Problem accepts the encoded design and rejects it with any dropped column."""
    y, v = np.linspace(0.5, 1.5, dataset.m), np.full(dataset.m, 0.1)
    sizes = dataset.group_sizes()
    assert Problem(y, design, sizes, v).full_rank.all()
    candidates, labels, _ = dataset.candidate_columns
    for label in design.dropped:
        X = np.column_stack([design.matrix, candidates[:, labels.index(label)]])
        assert not Problem(y, X, sizes, v).full_rank.any()
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            log_likelihood(y, X, sizes, VarianceComponents(0.01, 0.01), v)
        [(_, error)] = fit_designs(y, X, sizes, v)
        assert isinstance(error, np.linalg.LinAlgError if X.shape[1] < dataset.m
                          else ValidationError)


class TestParse:
    def test_basic_parse_and_ordering(self):
        ds = parse_dataset(CSV, SCHEMA)
        assert ds.m == 4 and ds.h == 2
        # stable sort: S1 block first, original order inside each study
        assert [t.study_id for t in ds.trials] == ["S1", "S1", "S2", "S2"]
        assert [t.trial_id for t in ds.trials] == ["t1", "t2", "t1", "t2"]
        assert ds.trials[0].k / ds.trials[0].n == pytest.approx(0.9)

    def test_scaling_and_grouping_applied(self):
        ds = parse_dataset(CSV, SCHEMA)
        first = ds.trials[0]
        assert first.features["size"] == pytest.approx(1.5)
        assert first.features["model"] == "svm"
        assert ds.trials[1].features["model"] == "nn"
        assert ds.trials[2].features["model"] == "base"

    def test_accuracy_column_instead_of_k(self):
        text = ("study_id,trial_id,accuracy,n,size,model,lang\nS1,t1,0.8,100,1000,lr,en\n"
                "S1,t2,0.45,50,1000,lr,en\n")
        ds = parse_dataset(text, SCHEMA)
        assert [t.k for t in ds.trials] == [80, 23]

    def test_one_trial_rejected(self):
        text = "study_id,trial_id,k,n,size,model,lang\nS1,t1,80,100,1000,lr,en\n"
        with pytest.raises(ValidationError, match="line 2: the file has one data row"):
            parse_dataset(text, SCHEMA)

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

    @pytest.mark.parametrize("rows, line, study", [
        (["S1,t1", "S1,t2", "S1,t1"], 4, "S1"),                     # within one run
        (["S1,t1", "S2,t1", "S1,t2", "S1,t1"], 5, "S1"),            # a study that came back
        (["S1,t1", "S2,t1", "S1,t2", "S3,t1", "S2,t1"], 6, "S2"),   # after the check switched
    ], ids=["run", "returning", "switched"])
    def test_duplicate_trial_in_any_layout(self, rows, line, study):
        text = "study_id,trial_id,k,n,size,model,lang\n" + "".join(
            f"{row},1,2,1000,lr,en\n" for row in rows)
        with pytest.raises(ValidationError, match=f"line {line}: duplicate trial 't1' in study '{study}'"):
            parse_dataset(text, SCHEMA)
        ds = parse_dataset(text.rsplit("\n", 2)[0] + "\n", SCHEMA)      # the same without it
        assert ds.m == len(rows) - 1

    def test_repeated_strings_shared(self):
        """A run of rows shares one study id str, and a category label is one str."""
        text = "study_id,trial_id,k,n,size,model,lang\n" + "".join(
            f"S{i // 3},t{i % 3},1,2,1000,lr,{'en' if i % 2 else 'de'}\n" for i in range(9))
        ds = parse_dataset(text, SCHEMA)
        assert len({id(s) for s in ds.study_id}) == 3
        assert len({id(s) for s in ds.features["lang"]}) == 2

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
        again = parse_dataset(dataset_csv(ds), _identity_schema())
        assert [(t.study_id, t.k, t.n) for t in again.trials] == \
               [(t.study_id, t.k, t.n) for t in ds.trials]


class TestReadText:
    def test_byte_order_mark_is_skipped(self, tmp_path, example_dataset):
        # spreadsheet programs start a UTF-8 CSV with the mark
        plain = (DATA / "example_trials.csv").read_bytes()
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain)
        assert read_text(marked) == plain.decode("utf-8")
        ds = parse_dataset(read_text(marked), example_dataset.schema)
        for name in ("study_id", "trial_id", "k", "n"):
            assert np.array_equal(getattr(ds, name), getattr(example_dataset, name))
        for name, column in example_dataset.features.items():
            assert np.array_equal(ds.features[name], column)

    def test_bad_byte_after_the_mark_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xef\xbb\xbfstudy_id\nS1\nS\xe92\n")
        with pytest.raises(ValidationError, match="line 3: not valid UTF-8"):
            read_text(path)


def _columns(**changes):
    """Keyword arguments of a valid two-study Dataset of SCHEMA, changed by CHANGES."""
    columns = dict(study_id=["S1", "S1", "S2"], trial_id=["t1", "t2", "t1"], k=[45, 40, 80],
                   n=[50, 50, 100], schema=SCHEMA,
                   features={"size": [1.5, 3.0, 2.0], "model": ["svm", "nn", "base"],
                             "lang": ["en", "en", "de"]})
    return {**columns, **changes}


class TestDatasetColumns:
    def test_columns_and_accessors(self):
        ds = Dataset(**_columns())
        assert (ds.m, ds.h, ds.study_ids()) == (3, 2, ["S1", "S2"])
        assert ds.group_sizes().tolist() == [2, 1]
        assert ds.k.dtype == ds.n.dtype == np.int64
        assert ds.features["size"].dtype == np.float64
        assert ds.features["model"].tolist() == ["svm", "nn", "base"]
        with pytest.raises(ValueError, match="read-only"):
            ds.k[0] = 1
        _, labels, _ = ds.candidate_columns
        assert labels == ("intercept", "size", "model=nn", "model=svm", "lang=de")

    @pytest.mark.parametrize("changes, message", [
        ({"n": [50, 0, 100]}, "trial 't2': n must be >= 1"),
        ({"k": [45, 51, 80]}, "trial 't2': need 0 <= k <= n"),
        ({"k": [45, 40, -1]}, "trial 't1': need 0 <= k <= n"),
        ({"trial_id": ["t1", "t2"]}, "one value per trial"),
        ({"features": {"size": [1.5, 3.0], "model": ["svm", "nn", "base"],
                       "lang": ["en", "en", "de"]}}, "one value per trial"),
        ({"study_id": ["S1", "S2", "S1"]}, "study 'S1': its trials are not contiguous"),
        ({"study_id": [], "trial_id": [], "k": [], "n": [],
          "features": {"size": [], "model": [], "lang": []}}, "one trial or more"),
        ({"features": {"size": [1.5, 3.0, 2.0]}}, "do not match the schema"),
        ({"k": [45, 40.5, 80]}, "trial 't2': k must be an integer, got 40.5"),
    ], ids=["n-zero", "k-above-n", "k-negative", "short-id-column", "short-feature-column",
            "non-contiguous", "no-trials", "schema-mismatch", "k-fraction"])
    def test_invalid_columns_rejected(self, changes, message):
        with pytest.raises(ValidationError, match=message):
            Dataset(**_columns(**changes))

    @pytest.mark.parametrize("entries, features, message", [
        ((FeatureSpec(name="intercept", kind="numeric"),
          FeatureSpec(name="m", kind="categorical", reference_level="a")),
         {"intercept": [1.0, 1.0, 1.0], "m": ["a", "b", "c"]},
         "column label 'intercept' names a column of the intercept and one of "
         "feature 'intercept'"),
        ((FeatureSpec(name="a", kind="categorical", reference_level="x"),
          FeatureSpec(name="a=b", kind="numeric")),
         {"a": ["x", "b", "x"], "a=b": [0.0, 1.0, 0.0]},
         "column label 'a=b' names a column of feature 'a' and one of feature 'a=b'"),
        ((FeatureSpec(name="a", kind="categorical", reference_level="x"),
          FeatureSpec(name="a=b", kind="categorical", reference_level="x"),
          FeatureSpec(name="a=b=c", kind="numeric")),
         {"a": ["x", "b=c", "x"], "a=b": ["x", "c", "c"], "a=b=c": [0.0, 1.0, 0.0]},
         "column label 'a=b=c' names a column of feature 'a' and one of feature 'a=b'"),
    ], ids=["numeric-intercept", "numeric-equals-dummy", "three-columns"])
    def test_repeated_column_label_rejected(self, entries, features, message):
        ds = Dataset(**_columns(features=features, schema=FeatureSchema(entries=entries)))
        with pytest.raises(ValidationError, match=f"^{message}: rename a feature$"):
            ds.candidate_columns

    def test_trials_rows_hold_python_scalars(self):
        ds = parse_dataset(CSV, SCHEMA)
        assert ds.trials is ds.trials                    # built once
        for row in ds.trials:
            assert type(row.study_id) is str and type(row.trial_id) is str
            assert type(row.k) is int and type(row.n) is int
            assert type(row.features["size"]) is float
            assert type(row.features["model"]) is str and type(row.features["lang"]) is str
        assert ds.trials[0] == ("S1", "t1", 45, 50, {"size": 1.5, "model": "svm", "lang": "en"})


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

    def test_merge_key_overrides_without_counting_as_repeated(self):
        text = ("features:\n  a: &spec {kind: categorical, reference_level: x}\n"
                "  b:\n    <<: *spec\n    reference_level: y\n")
        assert [e.reference_level for e in FeatureSchema.from_yaml(text).entries] == ["x", "y"]
        with pytest.raises(ValidationError, match="^line 7: key 'kind' is given twice$"):
            FeatureSchema.from_yaml(text + "    kind: numeric\n    kind: categorical\n")


class TestEncodeDesign:
    def test_basic_layout(self):
        extra = "S3,t1,30,40,1800,lr,de\nS3,t2,35,40,2200,svm,en\nS3,t3,33,40,2600,nn,de\n"
        ds = parse_dataset(CSV + extra, SCHEMA)
        design = encode_design(ds, ["size", "model", "lang"])
        assert design.labels[0] == "intercept"
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
        assert_problem_applies_the_same_rule(example_dataset, design)

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
        assert_problem_applies_the_same_rule(ds, design)

    def test_more_candidate_columns_than_trials(self):
        # intercept, four dummies and a numeric column over four trials
        schema = FeatureSchema(entries=(
            FeatureSpec(name="c", kind="categorical", reference_level="a"),
            FeatureSpec(name="x", kind="numeric"),
        ))
        text = ("study_id,trial_id,k,n,c,x\nS1,t1,1,2,b,0.5\nS1,t2,1,2,c,1.5\n"
                "S2,t1,1,2,d,2.0\nS2,t2,1,2,e,3.5\n")
        ds = parse_dataset(text, schema)
        design = encode_design(ds, ["c", "x"])
        assert design.labels == ["intercept", "c=b", "c=c", "c=d"]
        assert design.dropped == ["c=e", "x"]
        assert_problem_applies_the_same_rule(ds, design)
        with pytest.raises(ValidationError, match="more trials than coefficients"):
            fit_model(np.linspace(0.5, 1.5, 4), design, ds.group_sizes(), np.full(4, 0.1))

    def test_columns_index_the_candidates(self, example_dataset):
        # every subset of the small schema, and the example's full model, which
        # drops topic=Not specified
        small = parse_dataset((DATA / "example_trials.csv").read_text(encoding="utf-8"),
                              load_schema(TESTDATA / "small_schema.yaml"))
        names = small.schema.names
        cases = [(small, subset) for r in range(len(names) + 1)
                 for subset in itertools.combinations(names, r)]
        cases.append((example_dataset, example_dataset.schema.names))
        for ds, features in cases:
            design = encode_design(ds, features)
            candidates, labels, _ = ds.candidate_columns
            assert np.array_equal(candidates[:, design.columns], design.matrix)
            assert design.labels == [labels[i] for i in design.columns]
        assert design.dropped == ["topic=Not specified"]


def one_set_at_a_time(X, columns):
    """The rank rule before it was batched, kept as the reference: one set,
    one QR per round, the first flagged column dropped each round."""
    kept = np.asarray(columns, dtype=np.intp)
    while True:
        small = collinear_columns(X[:, kept], np.linalg.qr(X[:, kept], mode="r"))
        if not small.any():
            return kept[:len(small)]
        kept = np.delete(kept, np.argmax(small))


def hostile_columns():
    """Eight rows, fifteen columns: 0 intercept, 1-3 random, 4 all zero, 5
    and 6 two dummies of the same rows (as S20's two 'Not specified' dummies
    in the example), 7 a copy of 1, 8 = 2 + 3, 9 the sum of 5 and its
    complement (the intercept again), 10 a scaled copy of 7, 11-14 random."""
    gen = np.random.default_rng(3)
    X = np.empty((8, 15))
    X[:, 0] = 1.0
    X[:, 1:4] = gen.normal(size=(8, 3))
    X[:, 4] = 0.0
    X[:, 5] = X[:, 6] = [0, 0, 0, 0, 0, 1, 1, 1]
    X[:, 7] = X[:, 1]
    X[:, 8] = X[:, 2] + X[:, 3]
    X[:, 9] = X[:, 5] + (1 - X[:, 5])
    X[:, 10] = 3.0 * X[:, 7]
    X[:, 11:] = gen.normal(size=(8, 4))
    return X


HOSTILE_SETS = [
    [0, 4],                                   # all-zero column
    [0, 5, 6],                                # two dummies of the same rows: 6 goes
    [0, 1, 7, 4, 10],                         # three drop rounds: 7, then 4, then 10
    [0, 9, 5, 6, 1, 7, 2, 3, 8],              # four drop rounds: 9, 6, 7, 8
    list(range(15)),                          # more columns than rows, with drops
    [0, 1, 2, 3, 11, 12, 13, 14, 4, 7],       # rank m reached: 4 and 7 go last
    [0, 1, 2, 3, 11, 5, 6, 7, 8, 9, 10, 4],   # the same columns in another order
    [11, 3, 2, 1, 0, 5, 9, 8],                # independent until past rank m
    [4], [0], [], [1, 2, 3, 11],              # trivial widths
    [0, 5, 6],                                # a repeated set
]


class TestIndependentColumns:
    def test_hostile_sets_match_one_set_at_a_time(self):
        X = hostile_columns()
        got = independent_columns(X, HOSTILE_SETS)
        assert [g.tolist() for g in got] == [one_set_at_a_time(X, c).tolist()
                                             for c in HOSTILE_SETS]
        assert got[0].tolist() == [0] and got[1].tolist() == [0, 5]
        assert got[2].tolist() == [0, 1] and got[8].tolist() == [] and got[10].tolist() == []
        assert got[4].tolist() == [0, 1, 2, 3, 5, 11, 12, 13]
        assert got[5].tolist() == [0, 1, 2, 3, 11, 12, 13, 14]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sets_and_blocks_match_one_set_at_a_time(self, seed, monkeypatch):
        # the sets of one call leave their rounds at different times, and
        # splitting a width into blocks of one set changes no result
        X = hostile_columns()
        gen = np.random.default_rng(seed)
        sets = [gen.permutation(15)[:gen.integers(0, 16)] for _ in range(300)]
        want = [one_set_at_a_time(X, c).tolist() for c in sets]
        assert [g.tolist() for g in independent_columns(X, sets)] == want
        monkeypatch.setattr(ingest, "_QR_BLOCK", 1)
        assert [g.tolist() for g in independent_columns(X, sets)] == want

    def test_every_example_subset_matches_one_set_at_a_time(self, example_dataset, monkeypatch):
        # the kept columns that selection.fit_subsets fits, of one dataset's
        # 4096 subsets, sliced from its candidate columns with its one y and v row
        names = example_dataset.schema.names
        subsets = [subset for r in range(len(names) + 1)
                   for subset in itertools.combinations(names, r)]
        candidates, _, owners = example_dataset.candidate_columns
        y, X, _, v, _, got = handed_to_fit_designs(monkeypatch, [example_dataset], subsets)
        assert X is candidates and y.shape == v.shape == (example_dataset.m,)
        assert len(got) == 4096
        for features, kept in zip(subsets, got):
            offered = [i for i, owner in enumerate(owners) if owner is None or owner in features]
            assert kept.tolist() == one_set_at_a_time(candidates, offered).tolist(), features
        # the full model drops one of S20's two 'Not specified' dummies
        assert encode_design(example_dataset, names).columns == got[-1].tolist()
        assert encode_design(example_dataset, names).dropped == ["topic=Not specified"]

    def test_unknown_feature_in_any_subset(self, example_dataset):
        with pytest.raises(ValidationError, match=r"unknown feature names: \['nope'\]"):
            selection.fit_subsets([example_dataset], [(), ("ml_model", "nope")], "reml")
