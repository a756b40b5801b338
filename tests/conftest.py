import pathlib

import numpy as np
import pytest

from metaprop.ingest import load_schema, parse_dataset

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
TESTDATA = pathlib.Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def example_dataset():
    schema = load_schema(DATA / "example_schema.yaml")
    return parse_dataset((DATA / "example_trials.csv").read_text(encoding="utf-8"), schema)


@pytest.fixture(scope="session")
def example_paths():
    return {"data": str(DATA / "example_trials.csv"),
            "schema": str(DATA / "example_schema.yaml"),
            "simconfig": str(DATA / "example_simconfig.yaml")}


def handed_to_fit_designs(monkeypatch, datasets, subsets, method="reml"):
    """The arguments (y, X, group_sizes, v, method, columns) that
    ``selection.fit_subsets`` hands to ``engine.fit_designs``, fitting nothing."""
    from metaprop import engine, selection

    handed = []
    with monkeypatch.context() as patch:
        patch.setattr(engine, "fit_designs", lambda *args: handed.append(args) or iter(()))
        assert list(selection.fit_subsets(datasets, subsets, method)) == []
    return handed[0]


def toy_instance(seed, n_studies=2, trials=2, v_range=(0.05, 0.3)):
    """Small random intercept-only problem for engine oracles."""
    gen = np.random.default_rng(seed)
    sizes = np.full(n_studies, trials, dtype=np.int64)
    m = int(sizes.sum())
    y = gen.normal(1.0, 0.3, m)
    v = gen.uniform(*v_range, m)
    X = np.ones((m, 1))
    return y, X, sizes, v
