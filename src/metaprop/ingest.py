"""Trial-level CSV ingestion and moderator design-matrix construction.

A dataset is a flat CSV of per-trial classification counts plus study
features, validated against a declared feature schema.  The schema fixes
each feature's kind (numeric or categorical), an optional scaling
divisor for numerics, the reference level for categoricals, and a
grouping map that consolidates raw category labels into coarser ones.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

__all__ = [
    "ValidationError",
    "FeatureSpec",
    "FeatureSchema",
    "TrialRecord",
    "Dataset",
    "DesignMatrix",
    "FeatureSummary",
    "parse_dataset",
    "encode_design",
    "summarize_features",
    "load_schema",
    "write_dataset_csv",
]

# residual-norm ratio below which a column counts as exactly collinear
COLLINEARITY_TOL = 1e-10


class ValidationError(ValueError):
    """Raised for malformed input data or configuration."""


@dataclass(frozen=True)
class FeatureSpec:
    """Declaration of one study feature."""

    name: str
    kind: str
    scale: float = 1.0
    reference_level: str | None = None
    grouping: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise ValidationError(f"feature {self.name!r}: kind must be numeric or categorical")
        if not self.scale > 0:
            raise ValidationError(f"feature {self.name!r}: scale must be positive")
        if self.kind == "categorical":
            if not self.reference_level:
                raise ValidationError(f"feature {self.name!r}: categorical features need a reference_level")
            mapped = self.grouping.get(self.reference_level)
            if mapped is not None and mapped != self.reference_level:
                raise ValidationError(
                    f"feature {self.name!r}: reference_level {self.reference_level!r} "
                    "is regrouped away and is not a valid post-grouping category")
        else:
            if self.reference_level is not None or self.grouping:
                raise ValidationError(f"feature {self.name!r}: numeric features take no reference_level/grouping")

    def map_category(self, raw: str) -> str:
        """Apply the grouping rule to one raw category label.

        Features with a nonempty grouping have a closed category
        universe: a raw label must be a grouping key, a grouping target,
        or the reference level.  Features without grouping accept any
        label as-is.
        """
        if raw in self.grouping:
            return self.grouping[raw]
        if self.grouping:
            known = set(self.grouping.values()) | {self.reference_level}
            if raw not in known:
                raise ValidationError(
                    f"feature {self.name!r}: unknown category {raw!r} with no grouping rule")
        return raw


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered collection of feature declarations."""

    entries: tuple

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValidationError("feature names must be unique")

    @property
    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def __getitem__(self, name: str) -> FeatureSpec:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(e.name == name for e in self.entries)

    @classmethod
    def from_dict(cls, tree: dict) -> "FeatureSchema":
        if "features" not in tree:
            raise ValidationError("schema must contain a 'features' mapping")
        feats = tree.get("features") or {}
        if not isinstance(feats, dict):
            raise ValidationError("'features' must be a mapping")
        entries = []
        for name, spec in feats.items():
            spec = dict(spec or {})
            entries.append(FeatureSpec(
                name=str(name),
                kind=spec.pop("kind", "categorical"),
                scale=float(spec.pop("scale", 1.0)),
                reference_level=spec.pop("reference_level", None),
                grouping={str(k): str(v) for k, v in (spec.pop("grouping", None) or {}).items()},
            ))
            if spec:
                raise ValidationError(f"feature {name!r}: unknown schema fields {sorted(spec)}")
        return cls(entries=tuple(entries))

    @classmethod
    def from_yaml(cls, text: str) -> "FeatureSchema":
        tree = yaml.safe_load(text)
        if not isinstance(tree, dict):
            raise ValidationError("schema file must be a mapping")
        return cls.from_dict(tree)

    def to_dict(self) -> dict:
        feats = {}
        for e in self.entries:
            spec = {"kind": e.kind}
            if e.scale != 1.0:
                spec["scale"] = e.scale
            if e.reference_level is not None:
                spec["reference_level"] = e.reference_level
            if e.grouping:
                spec["grouping"] = dict(e.grouping)
            feats[e.name] = spec
        return {"features": feats}

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False, allow_unicode=True)


def load_schema(path) -> FeatureSchema:
    with open(path, "r", encoding="utf-8") as fh:
        return FeatureSchema.from_yaml(fh.read())


@dataclass(frozen=True)
class TrialRecord:
    """One trial: classification counts plus feature values."""

    study_id: str
    trial_id: str
    k: int
    n: int
    features: dict

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"trial {self.trial_id!r}: n must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise ValidationError(f"trial {self.trial_id!r}: need 0 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def p(self) -> float:
        return self.k / self.n


@dataclass(frozen=True)
class Dataset:
    """Validated trials grouped contiguously by study."""

    trials: tuple
    schema: FeatureSchema

    @property
    def m(self) -> int:
        return len(self.trials)

    @property
    def h(self) -> int:
        return len(set(t.study_id for t in self.trials))

    def study_ids(self) -> list[str]:
        out = []
        for t in self.trials:
            if not out or out[-1] != t.study_id:
                out.append(t.study_id)
        return out

    def group_sizes(self) -> np.ndarray:
        counts: list = []
        prev = None
        for t in self.trials:
            if t.study_id != prev:
                counts.append(0)
                prev = t.study_id
            counts[-1] += 1
        return np.asarray(counts, dtype=np.int64)

    def k_array(self) -> np.ndarray:
        return np.asarray([t.k for t in self.trials], dtype=np.int64)

    def n_array(self) -> np.ndarray:
        return np.asarray([t.n for t in self.trials], dtype=np.int64)


def _parse_int(raw: str, what: str, line: int) -> int:
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"line {line}: {what} is not a number: {raw!r}") from None
    if not val.is_integer():
        raise ValidationError(f"line {line}: {what} must be an integer, got {raw!r}")
    return int(val)


def parse_dataset(csv_text: str, schema: FeatureSchema) -> Dataset:
    """Parse and validate trial-level CSV against a feature schema.

    The header must contain study_id, trial_id, n, one column per schema
    feature, and either k or accuracy (in which case k = round(accuracy*n)).
    Trials are stably sorted by study_id so studies form contiguous blocks;
    input order within a study is preserved.
    """
    reader = csv.DictReader(io.StringIO(csv_text))
    if reader.fieldnames is None:
        raise ValidationError("empty file: no header row")
    cols = set(reader.fieldnames)
    required = {"study_id", "trial_id", "n"}
    missing = required - cols
    if missing:
        raise ValidationError(f"missing required columns: {sorted(missing)}")
    if "k" not in cols and "accuracy" not in cols:
        raise ValidationError("missing required column: need 'k' or 'accuracy'")
    missing_feats = [e.name for e in schema.entries if e.name not in cols]
    if missing_feats:
        raise ValidationError(f"missing feature columns: {missing_feats}")

    trials = []
    seen = set()
    for row in reader:
        line = reader.line_num
        study_id = (row.get("study_id") or "").strip()
        trial_id = (row.get("trial_id") or "").strip()
        if not study_id:
            raise ValidationError(f"line {line}: empty study_id")
        if (study_id, trial_id) in seen:
            raise ValidationError(f"line {line}: duplicate trial {trial_id!r} in study {study_id!r}")
        seen.add((study_id, trial_id))
        n = _parse_int(row["n"], "n", line)
        if n <= 0:
            raise ValidationError(f"line {line}: n must be positive, got {n}")
        if row.get("k") not in (None, ""):
            k = _parse_int(row["k"], "k", line)
        else:
            try:
                acc = float(row["accuracy"])
            except (TypeError, ValueError):
                raise ValidationError(f"line {line}: accuracy is not a number") from None
            if not 0.0 <= acc <= 1.0:
                raise ValidationError(f"line {line}: accuracy must lie in [0, 1], got {acc}")
            k = int(math.floor(acc * n + 0.5))
        if not 0 <= k <= n:
            raise ValidationError(f"line {line}: need 0 <= k <= n, got k={k}, n={n}")

        feats = {}
        for spec in schema.entries:
            raw = row[spec.name]
            if raw is None or raw.strip() == "":
                raise ValidationError(
                    f"line {line}: feature {spec.name!r} is empty; encode missing "
                    "categories explicitly (e.g. 'Not specified')")
            raw = raw.strip()
            if spec.kind == "numeric":
                try:
                    value = float(raw)
                except ValueError:
                    raise ValidationError(
                        f"line {line}: feature {spec.name!r} is not numeric: {raw!r}") from None
                if not math.isfinite(value):
                    raise ValidationError(
                        f"line {line}: feature {spec.name!r} is not finite: {raw!r}")
                feats[spec.name] = value / spec.scale
            else:
                try:
                    feats[spec.name] = spec.map_category(raw)
                except ValidationError as exc:
                    raise ValidationError(f"line {line}: {exc}") from None
        trials.append(TrialRecord(study_id=study_id, trial_id=trial_id, k=k, n=n, features=feats))

    if not trials:
        raise ValidationError("empty file: no data rows")
    trials.sort(key=lambda t: t.study_id)  # stable: keeps input order within studies
    return Dataset(trials=tuple(trials), schema=schema)


def write_dataset_csv(dataset: Dataset, fh) -> None:
    """Serialize a dataset back to the ingest CSV layout."""
    names = dataset.schema.names
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["study_id", "trial_id", "k", "n"] + names)
    for t in dataset.trials:
        writer.writerow([t.study_id, t.trial_id, t.k, t.n] + [_csv_value(t.features[n]) for n in names])


def _csv_value(v):
    if isinstance(v, float):
        return repr(v)
    return v


@dataclass
class DesignMatrix:
    """Full-rank moderator design with dropped-column bookkeeping."""

    labels: list
    matrix: np.ndarray
    intercept_included: bool
    dropped: list
    feature_groups: dict
    reference_levels: dict

    @property
    def f(self) -> int:
        return self.matrix.shape[1]


def _feature_columns(dataset: Dataset, spec: FeatureSpec):
    """Raw (label, values) columns one feature contributes, pre rank filter."""
    if spec.kind == "numeric":
        vals = np.asarray([t.features[spec.name] for t in dataset.trials], dtype=np.float64)
        return [(spec.name, vals)]
    observed = sorted(set(t.features[spec.name] for t in dataset.trials))
    cols = []
    for cat in observed:
        if cat == spec.reference_level:
            continue
        vals = np.asarray([1.0 if t.features[spec.name] == cat else 0.0 for t in dataset.trials])
        cols.append((f"{spec.name}={cat}", vals))
    return cols


def encode_design(dataset: Dataset, selected_features) -> DesignMatrix:
    """Build the intercept + dummy-coded moderator matrix.

    Features are laid out in schema order regardless of selection order.
    Categorical features contribute one 0/1 column per observed
    non-reference category (sorted); the reference level contributes
    none.  Columns exactly collinear with earlier columns (residual norm
    below COLLINEARITY_TOL times their own norm after projection) are
    dropped and recorded, so the result always has full column rank.
    """
    selected = list(selected_features)
    unknown = [f for f in selected if f not in dataset.schema]
    if unknown:
        raise ValidationError(f"unknown feature names: {unknown}")
    m = dataset.m

    candidates = [("intercept", None, np.ones(m))]
    for spec in dataset.schema.entries:
        if spec.name not in selected:
            continue
        for label, vals in _feature_columns(dataset, spec):
            candidates.append((label, spec.name, vals))

    kept_labels: list = []
    kept_cols: list = []
    dropped: list = []
    feature_groups: dict = {f: [] for f in dataset.schema.names if f in selected}
    basis = np.zeros((m, 0))
    for label, feat, col in candidates:
        norm = float(np.linalg.norm(col))
        if norm == 0.0:
            dropped.append(label)
            continue
        resid = col - basis @ (basis.T @ col)
        resid = resid - basis @ (basis.T @ resid)  # re-orthogonalize for stability
        if float(np.linalg.norm(resid)) < COLLINEARITY_TOL * norm:
            dropped.append(label)
            continue
        kept_labels.append(label)
        kept_cols.append(col)
        basis = np.column_stack([basis, resid / np.linalg.norm(resid)])
        if feat is not None:
            feature_groups[feat].append(label)

    matrix = np.column_stack(kept_cols) if kept_cols else np.zeros((m, 0))
    references = {e.name: e.reference_level for e in dataset.schema.entries
                  if e.name in selected and e.kind == "categorical"}
    return DesignMatrix(labels=kept_labels, matrix=matrix, intercept_included=True,
                        dropped=dropped, feature_groups=feature_groups,
                        reference_levels=references)


@dataclass(frozen=True)
class FeatureSummary:
    """Distribution summary of one feature over the dataset."""

    name: str
    kind: str
    counts: dict | None = None
    minimum: float | None = None
    median: float | None = None
    maximum: float | None = None


def summarize_features(dataset: Dataset) -> list:
    """Per-feature category counts, or min/median/max for numerics."""
    if dataset.m == 0:
        raise ValidationError("empty dataset")
    out = []
    for spec in dataset.schema.entries:
        values = [t.features[spec.name] for t in dataset.trials]
        if spec.kind == "numeric":
            arr = np.asarray(values, dtype=np.float64)
            out.append(FeatureSummary(name=spec.name, kind="numeric",
                                      minimum=float(arr.min()),
                                      median=float(np.median(arr)),
                                      maximum=float(arr.max())))
        else:
            counts: dict = {}
            for v in values:
                counts[v] = counts.get(v, 0) + 1
            out.append(FeatureSummary(name=spec.name, kind="categorical",
                                      counts=dict(sorted(counts.items()))))
    return out
