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
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import yaml

__all__ = [
    "ValidationError",
    "FeatureSpec",
    "FeatureSchema",
    "TrialRecord",
    "Dataset",
    "DesignMatrix",
    "parse_dataset",
    "encode_design",
    "collinear_columns",
    "independent_columns",
    "offered_columns",
    "load_schema",
    "dataset_csv",
]

# residual-norm ratio at or below which a column counts as exactly collinear
COLLINEARITY_TOL = 1e-10
_QR_BLOCK = 1 << 20    # sets x m x f per rank-rule QR at most: bounds memory, not results
# the magnitudes a nonzero scaled numeric value may take: squares then lie in
# [1e-200, 1e200], so every sum of d * x**2 over at most 1e90 trials stays finite
# and normal for any allowed n, since the weight d is at most 1/VAR_FLOOR = 1e12
# and, for variance components up to VAR_CEIL = 1e6, at least about 5e-7
NUMERIC_MIN, NUMERIC_MAX = 1e-100, 1e100
COUNT_MAX = 2 ** 53    # the largest k or n a dataset holds: float parsing is exact up to here


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
        if not 0 < self.scale < math.inf:
            raise ValidationError(f"feature {self.name!r}: scale must be positive and finite")
        if self.kind == "categorical":
            if not self.reference_level or not isinstance(self.reference_level, str):
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

    @classmethod
    def from_dict(cls, tree: dict) -> "FeatureSchema":
        if "features" not in tree:
            raise ValidationError("schema must contain a 'features' mapping")
        feats = _mapping(tree.get("features") or {}, "'features'")
        entries = []
        for name, spec in feats.items():
            spec = dict(_mapping(spec or {}, f"feature {name!r}"))
            grouping = _mapping(spec.pop("grouping", None) or {}, f"feature {name!r}: grouping")
            try:
                scale = float(spec.pop("scale", 1.0))
            except (TypeError, ValueError):
                raise ValidationError(f"feature {name!r}: scale must be a number") from None
            entries.append(FeatureSpec(
                name=str(name),
                kind=spec.pop("kind", "categorical"),
                scale=scale,
                reference_level=spec.pop("reference_level", None),
                grouping={str(k): str(v) for k, v in grouping.items()},
            ))
            if spec:
                raise ValidationError(f"feature {name!r}: unknown schema fields {sorted(spec)}")
        return cls(entries=tuple(entries))

    @classmethod
    def from_yaml(cls, text: str) -> "FeatureSchema":
        return cls.from_dict(load_mapping(text, "schema file"))

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


def _mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a mapping")
    return value


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that refuses a key given twice in one mapping (safe_load keeps the last)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise ValidationError(f"line {key_node.start_mark.line + 1}: "
                                          f"key {key!r} is given twice")
                seen.add(key)
        return super().construct_mapping(node, deep)


def load_mapping(text: str, what: str) -> dict:
    """YAML text holding a mapping; bad syntax or a repeated key is a ValidationError naming its line."""
    try:
        tree = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.context_mark or exc.problem_mark
        context = f"{exc.context}: " if exc.context else ""
        raise ValidationError(f"line {mark.line + 1}: invalid YAML: {context}{exc.problem}") from None
    except yaml.reader.ReaderError as exc:               # a character YAML does not allow
        line = text.count("\n", 0, exc.position) + 1
        raise ValidationError(f"line {line}: invalid YAML: {str(exc).splitlines()[0]}") from None
    return _mapping(tree, what)


def read_text(path) -> str:
    """A UTF-8 text file, without the byte-order mark that spreadsheet programs
    write; bytes that are not UTF-8 are a ValidationError naming their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:                    # exc.object lacks the mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}: line {line}: not valid UTF-8") from None


def load_schema(path) -> FeatureSchema:
    return FeatureSchema.from_yaml(read_text(path))


class TrialRecord(NamedTuple):
    """One row of ``Dataset.trials``: a trial's counts and feature values."""

    study_id: str
    trial_id: str
    k: int
    n: int
    features: dict


class Dataset:
    """Validated trials, one read-only array per field: str ``study_id`` and
    ``trial_id`` (object arrays, so a label keeps every character), int64
    ``k`` and ``n``, and ``features``, each schema feature's float64 or str
    column in schema order.  The columns are checked once, here: one value
    per trial in each and at least one trial, k and n integers, n >= 1,
    0 <= k <= n, and each study's trials contiguous.
    """

    def __init__(self, study_id, trial_id, k, n, features: dict, schema: FeatureSchema):
        if set(features) != set(schema.names):
            raise ValidationError(f"feature columns {sorted(features)} do not match the schema")
        self.schema = schema
        self.study_id, self.trial_id = np.array(study_id, object), np.array(trial_id, object)
        counts = {"k": np.asarray(k), "n": np.asarray(n)}
        self.features = {e.name: np.array(features[e.name], float if e.kind == "numeric" else object)
                         for e in schema.entries}
        columns = [self.study_id, self.trial_id, *counts.values(), *self.features.values()]
        if columns[0].ndim != 1 or not len(columns[0]) or any(c.shape != columns[0].shape
                                                              for c in columns):
            raise ValidationError("every column needs one value per trial, for one trial or more")
        for name, column in counts.items():
            if column.dtype.kind not in "biu":           # int64 would truncate 1.7 to 1
                value = np.asarray(column, np.float64)
                bad = ~(np.abs(value) <= COUNT_MAX) | (value != np.trunc(value))
                if bad.any():
                    i = int(np.argmax(bad))
                    raise ValidationError(f"trial {self.trial_id[i]!r}: {name} must be an "
                                          f"integer, got {float(value[i])}")
        self.k, self.n = counts["k"].astype(np.int64), counts["n"].astype(np.int64)
        for column in [self.study_id, self.trial_id, self.k, self.n, *self.features.values()]:
            column.setflags(write=False)
        for bad, rule in ((self.n < 1, "n must be >= 1"),
                          ((self.k < 0) | (self.k > self.n), "need 0 <= k <= n")):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValidationError(f"trial {self.trial_id[i]!r}: {rule}, "
                                      f"got k={self.k[i]}, n={self.n[i]}")
        first = np.ones(self.m, dtype=bool)              # where each study starts
        np.not_equal(self.study_id[1:], self.study_id[:-1], out=first[1:])
        self._starts = np.flatnonzero(first)
        split = [sid for sid, runs in Counter(self.study_ids()).items() if runs > 1]
        if split:
            raise ValidationError(f"study {split[0]!r}: its trials are not contiguous")

    @property
    def m(self) -> int:
        return len(self.k)

    @property
    def h(self) -> int:
        return len(self._starts)

    def study_ids(self) -> list[str]:
        return self.study_id[self._starts].tolist()

    def group_sizes(self) -> np.ndarray:
        return np.diff(self._starts, append=self.m).astype(np.int64)

    @cached_property
    def trials(self) -> tuple:
        """The rows, built on first use: one TrialRecord of Python scalars per trial."""
        names = list(self.features)
        rows = zip(*(column.tolist() for column in self.features.values())) if names else [()] * self.m
        return tuple(map(TrialRecord, self.study_id.tolist(), self.trial_id.tolist(),
                         self.k.tolist(), self.n.tolist(), [dict(zip(names, row)) for row in rows]))

    @cached_property
    def candidate_columns(self) -> tuple:
        """(matrix, labels, owners) of every column ``encode_design`` can slice:
        the intercept (owner None), then per schema feature its numeric column
        or one 0/1 column per observed non-reference category, sorted.  Two
        columns with one label (a numeric feature named ``intercept``, or one
        named ``a=b`` beside level b of a categorical ``a``) are a
        ValidationError, since a label must name one column."""
        blocks, labels, owners = [np.ones((self.m, 1))], ["intercept"], [None]
        for spec in self.schema.entries:
            column = self.features[spec.name]
            if spec.kind == "numeric":
                blocks.append(column[:, None])
                names = [spec.name]
            else:
                levels = sorted(set(column.tolist()) - {spec.reference_level})
                blocks.append(column[:, None] == np.array(levels, dtype=object))
                names = [f"{spec.name}={c}" for c in levels]
            labels += names
            owners += [spec.name] * len(names)
        repeated = [label for label, count in Counter(labels).items() if count > 1]
        if repeated:
            first, second = [owner for label, owner in zip(labels, owners)
                             if label == repeated[0]][:2]
            raise ValidationError(
                f"column label {repeated[0]!r} names a column of "
                f"{'the intercept' if first is None else f'feature {first!r}'} and one of "
                f"feature {second!r}: rename a feature")
        matrix = np.hstack(blocks, dtype=np.float64)
        matrix.setflags(write=False)                     # shared by every design of the dataset
        return matrix, tuple(labels), tuple(owners)


def _parse_int(raw: str, what: str, line: int) -> int:
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"line {line}: {what} is not a number: {raw!r}") from None
    if not val.is_integer():
        raise ValidationError(f"line {line}: {what} must be an integer, got {raw!r}")
    if abs(val) > COUNT_MAX:
        raise ValidationError(f"line {line}: {what} exceeds 2**53, got {raw!r}")
    return int(val)


def _records(csv_text: str):
    """(line, record) per CSV record as it is read, the line its last one; a
    CSV syntax error raises a ValidationError when the reading reaches it."""
    reader = csv.reader(io.StringIO(csv_text, newline=None))  # universal newlines
    try:
        for record in reader:
            yield reader.line_num, record
    except csv.Error as exc:
        raise ValidationError(f"line {reader.line_num}: {exc}") from None


def parse_dataset(csv_text: str, schema: FeatureSchema) -> Dataset:
    """Parse and validate trial-level CSV against a feature schema.

    The header must contain study_id, trial_id, n, one column per schema
    feature, and either k or accuracy (in which case k = round(accuracy*n)).
    Trials are stably sorted by study_id so studies form contiguous blocks;
    input order within a study is preserved.  A file needs at least 2 data
    rows, since no model can be fitted to one trial.  The rows are validated
    as they are read, so an error in the header or in a row is raised before
    a CSV syntax error later in the file.
    """
    records = _records(csv_text)
    line, header = next(records, (None, None))
    if header is None:
        raise ValidationError("empty file: no header row")
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise ValidationError(f"line {line}: the header names column {repeated[0]!r} twice")
    cols = set(header)
    required = {"study_id", "trial_id", "n"}
    missing = required - cols
    if missing:
        raise ValidationError(f"missing required columns: {sorted(missing)}")
    if "k" not in cols and "accuracy" not in cols:
        raise ValidationError("missing required column: need 'k' or 'accuracy'")
    missing_feats = [e.name for e in schema.entries if e.name not in cols]
    if missing_feats:
        raise ValidationError(f"missing feature columns: {missing_feats}")

    study_ids, trial_ids, ks, ns = [], [], array("q"), array("q")   # typed: 8 bytes a value
    features = {e.name: array("d") if e.kind == "numeric" else [] for e in schema.entries}
    # A study's rows usually come as one run: a row of the current run shares its
    # study id str and is checked against the run's trial ids, and `done` holds the
    # studies of the runs before.  A study that comes back after another switches
    # the check to one set of every (study, trial) pair read so far.
    run, run_trials, done, pairs = None, set(), set(), None
    strings = {}                                   # one str per distinct category label
    for line, row in (record for record in records if record[1]):
        if len(row) != len(header):
            raise ValidationError(f"line {line}: {len(row)} fields where the header "
                                  f"has {len(header)}")
        row = dict(zip(header, row))
        study_id, trial_id = row["study_id"].strip(), row["trial_id"].strip()
        if not study_id:
            raise ValidationError(f"line {line}: empty study_id")
        if study_id == run:
            study_id = run
        elif pairs is None and study_id in done:
            run, done, pairs = study_id, None, set(zip(study_ids, trial_ids))
        else:
            run = study_id
            if pairs is None:
                done.add(study_id)
                run_trials.clear()
        trials, key = (run_trials, trial_id) if pairs is None else (pairs, (study_id, trial_id))
        if key in trials:
            raise ValidationError(f"line {line}: duplicate trial {trial_id!r} in study {study_id!r}")
        trials.add(key)
        n = _parse_int(row["n"], "n", line)
        if n <= 0:
            raise ValidationError(f"line {line}: n must be positive, got {n}")
        if row.get("k") not in (None, ""):
            k = _parse_int(row["k"], "k", line)
        else:
            try:
                acc = float(row.get("accuracy"))
            except (TypeError, ValueError):
                raise ValidationError(f"line {line}: accuracy is not a number") from None
            if not 0.0 <= acc <= 1.0:
                raise ValidationError(f"line {line}: accuracy must lie in [0, 1], got {acc}")
            k = int(math.floor(acc * n + 0.5))
        if not 0 <= k <= n:
            raise ValidationError(f"line {line}: need 0 <= k <= n, got k={k}, n={n}")

        for spec in schema.entries:
            raw = row[spec.name].strip()
            if not raw:
                raise ValidationError(
                    f"line {line}: feature {spec.name!r} is empty; encode missing "
                    "categories explicitly (e.g. 'Not specified')")
            if spec.kind == "numeric":
                try:
                    value = float(raw) / spec.scale
                except ValueError:
                    raise ValidationError(
                        f"line {line}: feature {spec.name!r} is not numeric: {raw!r}") from None
                if not math.isfinite(value):
                    raise ValidationError(f"line {line}: feature {spec.name!r} is not finite "
                                          f"after scaling: {raw!r} / {spec.scale!r}")
                if value and not NUMERIC_MIN <= abs(value) <= NUMERIC_MAX:
                    raise ValidationError(
                        f"line {line}: feature {spec.name!r} is outside [{NUMERIC_MIN:g}, "
                        f"{NUMERIC_MAX:g}] in magnitude after scaling: {raw!r} / {spec.scale!r}; "
                        "choose its schema 'scale' to bring it in range")
            else:
                try:
                    value = spec.map_category(raw)
                except ValidationError as exc:
                    raise ValidationError(f"line {line}: {exc}") from None
                value = strings.setdefault(value, value)
            features[spec.name].append(value)
        study_ids.append(study_id)
        trial_ids.append(trial_id)
        ks.append(k)
        ns.append(n)

    if not study_ids:
        raise ValidationError("empty file: no data rows")
    if len(study_ids) < 2:
        raise ValidationError(f"line {line}: the file has one data row and needs at "
                              "least 2: no model can be fitted to one trial")
    # one stable permutation orders every column: input order stays within studies
    order = np.argsort(np.array(study_ids, dtype=object), kind="stable")
    ordered = lambda values: (np.asarray(values) if isinstance(values, array)
                              else np.array(values, dtype=object))[order]
    return Dataset(study_id=ordered(study_ids), trial_id=ordered(trial_ids), k=ordered(ks),
                   n=ordered(ns), schema=schema,
                   features={name: ordered(values) for name, values in features.items()})


def dataset_csv(dataset: Dataset) -> str:
    """A dataset in the ingest CSV layout."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")            # writes a float as its repr
    writer.writerow(["study_id", "trial_id", "k", "n"] + dataset.schema.names)
    columns = [dataset.study_id, dataset.trial_id, dataset.k, dataset.n, *dataset.features.values()]
    writer.writerows(zip(*(column.tolist() for column in columns)))
    return buf.getvalue()


@dataclass
class DesignMatrix:
    """Full-rank moderator design with dropped-column bookkeeping: the kept
    ``columns`` of ``dataset.candidate_columns``, their labels and matrix."""

    columns: list
    labels: list
    matrix: np.ndarray
    dropped: list
    feature_groups: dict
    reference_levels: dict

    @property
    def f(self) -> int:
        return self.matrix.shape[1]


def collinear_columns(X, R):
    """The collinearity rule, on the R of a QR of X: one design (m, f) or a
    stack (S, m, f).  True for column i < min(m, f) when |R_ii|, its residual
    on the columns before it, is at most COLLINEARITY_TOL times its norm."""
    r = R.shape[-2]
    return (np.abs(np.diagonal(R, axis1=-2, axis2=-1))
            <= COLLINEARITY_TOL * np.linalg.norm(X[..., :r], axis=-2))


def independent_columns(X, sets) -> list:
    """The columns of X that the collinearity rule keeps from each set of
    column indices, as one index array per set.

    Per set, the first column ``collinear_columns`` flags is dropped and the
    QR redone until none is flagged (so all-zero columns go too); the
    columns past rank m go last.  Each round, the sets of one width share
    one batched QR, in blocks of at most _QR_BLOCK matrix elements.
    """
    X = np.asarray(X, dtype=np.float64)
    kept = [np.asarray(columns, dtype=np.intp) for columns in sets]
    pending = range(len(kept))
    while pending:
        widths: dict = {}
        for j in pending:
            widths.setdefault(len(kept[j]), []).append(j)
        pending = []
        for f, members in widths.items():
            block = max(1, _QR_BLOCK // (X.shape[0] * max(f, 1)))
            for a in range(0, len(members), block):
                chunk = members[a:a + block]
                stack = X[:, [kept[j] for j in chunk]].transpose(1, 0, 2)
                flagged = collinear_columns(stack, np.linalg.qr(stack, mode="r"))
                for j, small in zip(chunk, flagged):
                    if small.any():
                        kept[j] = np.delete(kept[j], np.argmax(small))
                        pending.append(j)
                    else:
                        kept[j] = kept[j][:len(small)]
    return kept


def offered_columns(dataset: Dataset, selected) -> list:
    """The candidate columns a feature subset offers, before the collinearity
    rule: the intercept and each selected feature's columns, as indices into
    ``dataset.candidate_columns`` in schema order."""
    known, chosen = set(dataset.schema.names), set(selected)
    unknown = [f for f in selected if f not in known]
    if unknown:
        raise ValidationError(f"unknown feature names: {unknown}")
    return [i for i, owner in enumerate(dataset.candidate_columns[2])
            if owner is None or owner in chosen]


def encode_design(dataset: Dataset, selected_features) -> DesignMatrix:
    """Build the intercept + dummy-coded moderator matrix.

    The selected features' slice of ``dataset.candidate_columns``, in schema
    order regardless of selection order: categorical features contribute one
    0/1 column per observed non-reference category (sorted), the reference
    level none.  Columns that ``independent_columns`` drops are recorded, so
    the result always has full column rank.
    """
    selected = list(selected_features)
    offered = offered_columns(dataset, selected)
    candidates, labels, owners = dataset.candidate_columns
    kept = independent_columns(candidates, [offered])[0].tolist()
    references = {e.name: e.reference_level for e in dataset.schema.entries
                  if e.name in selected and e.kind == "categorical"}
    return DesignMatrix(
        columns=kept, labels=[labels[i] for i in kept],
        matrix=np.ascontiguousarray(candidates[:, kept]),  # BLAS rounding depends on layout
        dropped=[labels[i] for i in offered if i not in kept],
        feature_groups={f: [labels[i] for i in kept if owners[i] == f]
                        for f in dataset.schema.names if f in selected},
        reference_levels=references)
