"""Metamorphic checks: rewritings of the input that the model cannot see.

The input is the example's first 8 feature groups, whose exhaustive search
fits 256 subsets.  Each rewriting changes the CSV text or the schema and
leaves the three-level model the same: the rows in another order, the
studies renamed so that their order reverses, another reference level
for ``ml_model``, 100 added to ``train_test_ratio`` (the intercept takes
the shift up), and, under ML only, ``training_size`` on another scale
(the REML likelihood moves by the log-determinant of the rescaling).
The search, ``fit`` and ``regress`` must keep every subset, its width and
whether it was skipped, and its log-likelihood to 1e-10 relative.  A
hypothesis property applies random compositions of the same rewritings to
small drawn datasets of one numeric and one three-level feature.
"""

import csv
import dataclasses
import functools
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop import selection
from metaprop.cli import main
from metaprop.ingest import FeatureSchema, load_schema, parse_dataset

from conftest import DATA

RTOL = 1e-10


def example():
    """(header, rows, schema) of the example CSV and its first 8 feature groups."""
    header, *rows = csv.reader(io.StringIO((DATA / "example_trials.csv").read_text("utf-8")))
    entries = load_schema(DATA / "example_schema.yaml").entries[:8]
    return header, rows, FeatureSchema(entries=entries)


def respec(schema, name, **changes):
    return FeatureSchema(entries=tuple(dataclasses.replace(e, **changes) if e.name == name else e
                                       for e in schema.entries))


def shuffled(header, rows, schema, seed=7):
    rows = list(rows)
    random.Random(seed).shuffle(rows)
    return header, rows, schema


def renamed(header, rows, schema):
    ids = sorted({row[0] for row in rows})
    new = {old: f"R{len(ids) - i:03d}" for i, old in enumerate(ids)}   # the last sorts first
    return header, [[new[row[0]], *row[1:]] for row in rows], schema


def rereferenced(header, rows, schema, name="ml_model", level="Tree-based"):
    return header, rows, respec(schema, name, reference_level=level)


def shifted(header, rows, schema, name="train_test_ratio", by=100):
    i = header.index(name)
    return header, [[*row[:i], repr(float(row[i]) + by), *row[i + 1:]] for row in rows], schema


def rescaled(header, rows, schema, name="training_size", scale=1.0):
    # 1 in place of 1000: under REML the loglik would move by the log-determinant
    return header, rows, respec(schema, name, scale=scale)


CASES = [(method, rewrite) for method in ("reml", "ml")
         for rewrite in (shuffled, renamed, rereferenced, shifted, rescaled)
         if method == "ml" or rewrite is not rescaled]
IDS = [f"{method}-{rewrite.__name__}" for method, rewrite in CASES]


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def loglik_gaps(ours, theirs) -> list:
    """(position, ours, theirs) per loglik that differs by more than RTOL relative."""
    return [(i, x, y) for i, (x, y) in enumerate(zip(ours, theirs))
            if (x is None) != (y is None) or (x is not None and not abs(x - y) <= RTOL * abs(y))]


@functools.lru_cache(maxsize=None)
def search(text: str, schema_yaml: str, method: str) -> tuple:
    """(rows, trail) of the five-model protocol with the exhaustive search."""
    dataset = parse_dataset(text, FeatureSchema.from_yaml(schema_yaml))
    return selection.five_model_protocol(dataset, method=method)


def protocol(header, rows, schema, method) -> tuple:
    return search(csv_text(header, rows), schema.to_yaml(), method)


@pytest.mark.parametrize("method, rewrite", CASES, ids=IDS)
def test_search_is_invariant(method, rewrite):
    (rows, trail), (base_rows, base_trail) = (protocol(*rewrite(*example()), method),
                                              protocol(*example(), method))
    assert len(trail) == len(base_trail) == 256
    assert ([(r.features, r.f, r.skipped) for r in trail]
            == [(r.features, r.f, r.skipped) for r in base_trail])
    assert loglik_gaps([r.loglik for r in trail], [r.loglik for r in base_trail]) == []
    assert {r.name: r.features for r in rows} == {r.name: r.features for r in base_rows}


def cli_payload(capsys, tmp_path, header, rows, schema, *argv) -> dict:
    data, schema_path = tmp_path / "data.csv", tmp_path / "schema.yaml"
    data.write_text(csv_text(header, rows), encoding="utf-8")
    schema_path.write_text(schema.to_yaml(), encoding="utf-8")
    code = main([argv[0], str(data), str(schema_path), *argv[1:], "--format", "json"])
    assert code == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("method, rewrite", CASES, ids=IDS)
@pytest.mark.parametrize("command", [("fit",), ("regress", "--features=ml_model")],
                         ids=["fit", "regress"])
def test_commands_are_invariant(capsys, tmp_path, command, method, rewrite):
    argv = (*command, "--method", method)
    ours = cli_payload(capsys, tmp_path, *rewrite(*example()), *argv)
    theirs = cli_payload(capsys, tmp_path, *example(), *argv)
    assert ours["f"] == theirs["f"]
    assert loglik_gaps([ours["loglik"]], [theirs["loglik"]]) == []


SMALL_SCHEMA = FeatureSchema.from_dict({"features": {
    "x": {"kind": "numeric"}, "g": {"kind": "categorical", "reference_level": "a"}}})


@st.composite
def small_example(draw):
    """(header, rows, schema) of 3-6 studies of 2-5 trials, with a numeric x of
    small integers and a categorical g of levels a, b and c."""
    rows = []
    for s in range(draw(st.integers(3, 6))):
        for t in range(draw(st.integers(2, 5))):
            n = draw(st.integers(20, 200))
            rows.append([f"S{s}", f"t{t}", str(draw(st.integers(0, n))), str(n),
                         str(draw(st.integers(-3, 3))), draw(st.sampled_from("abc"))])
    return ["study_id", "trial_id", "k", "n", "x", "g"], rows, SMALL_SCHEMA


@st.composite
def compositions(draw, method):
    """1-4 distinct rewritings of the small example in random order, their
    parameters drawn; the rescale only under ML."""
    rewrites = [functools.partial(shuffled, seed=draw(st.integers(0, 2 ** 16))), renamed,
                functools.partial(rereferenced, name="g", level=draw(st.sampled_from("bc"))),
                functools.partial(shifted, name="x", by=draw(st.integers(-50, 50)))]
    if method == "ml":
        rewrites.append(functools.partial(rescaled, name="x",
                                          scale=draw(st.sampled_from([0.25, 3.0, 10.0]))))
    return draw(st.lists(st.sampled_from(rewrites), min_size=1, max_size=4, unique=True))


@pytest.mark.parametrize("method", ["reml", "ml"])
@given(plain=small_example(), data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_rewritings_compose(method, plain, data):
    rewritten = plain
    for rewrite in data.draw(compositions(method)):
        rewritten = rewrite(*rewritten)
    (_, trail), (_, base_trail) = protocol(*rewritten, method), protocol(*plain, method)
    assert len(trail) == len(base_trail) == 4
    assert ([(r.features, r.f, r.skipped is None) for r in trail]
            == [(r.features, r.f, r.skipped is None) for r in base_trail])
    assert loglik_gaps([r.loglik for r in trail], [r.loglik for r in base_trail]) == []
