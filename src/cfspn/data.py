"""Dataset ingestion, encoding, scaling, splitting and synthetic generators.

CSV files are described by a small JSON schema sidecar naming the label
column and each feature column's kind.  Categorical features are one-hot
encoded into contiguous column groups; continuous features are min-max
scaled to [0, 1] (or standardized).  The fitted scaling lives in
:class:`FeatureMeta` so encoded vectors can be mapped back to raw values.
"""

from __future__ import annotations

import csv
import gzip
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import _classes, _points


class DataError(ValueError):
    """Unusable input data: bad file, bad cell, unknown category."""


@dataclass
class ColumnSchema:
    name: str
    kind: str                  # "continuous" | "categorical"
    scaling: str = "minmax"    # "minmax" | "standard"; ignored for categorical

    def __post_init__(self):
        if self.kind not in ("continuous", "categorical"):
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.scaling not in ("minmax", "standard"):
            raise DataError(f"column {self.name!r}: unknown scaling {self.scaling!r}")


@dataclass
class Schema:
    label: str
    columns: list[ColumnSchema]

    @classmethod
    def from_dict(cls, obj: dict) -> "Schema":
        try:
            columns = [ColumnSchema(c["name"], c["kind"], c.get("scaling", "minmax"))
                       for c in obj["columns"]]
            return cls(label=obj["label"], columns=columns)
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed schema: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "Schema":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except FileNotFoundError as exc:
            raise DataError(f"schema file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"schema file {path} is not valid JSON: {exc}") from exc


@dataclass
class FeatureColumn:
    """One encoded output column and how it maps back to its source."""

    name: str                      # source column name
    kind: str                      # "continuous" | "onehot"
    group: int | None = None       # one-hot group id, None for continuous
    category: str | None = None    # level this one-hot member stands for
    scaling_kind: str | None = None
    scaling: tuple[float, float] | None = None  # (min, max) or (mean, std)


@dataclass
class FeatureMeta:
    """Column-level encoding record; the bridge between raw and model space."""

    columns: list[FeatureColumn]
    label_name: str
    classes: list[str]

    @property
    def dimension(self) -> int:
        return len(self.columns)

    def group_slices(self) -> dict[int, slice]:
        """Contiguous column range of every one-hot group."""
        out: dict[int, slice] = {}
        for j, col in enumerate(self.columns):
            if col.kind != "onehot":
                continue
            if col.group in out:
                prev = out[col.group]
                if j != prev.stop:
                    raise DataError(f"one-hot group {col.group} is not contiguous")
                out[col.group] = slice(prev.start, j + 1)
            else:
                out[col.group] = slice(j, j + 1)
        return out

    def transform(self, raw_row: list) -> np.ndarray:
        """Encode one raw feature row (schema column order, label excluded)."""
        out = np.zeros(self.dimension)
        j = 0
        k = 0
        while j < self.dimension:
            col = self.columns[j]
            value = raw_row[k]
            if col.kind == "continuous":
                out[j] = _scale(_parse_float(value, col.name), col)
                j += 1
            else:
                group = [self.columns[g] for g in range(j, self.dimension)
                         if self.columns[g].kind == "onehot"
                         and self.columns[g].group == col.group]
                levels = [g.category for g in group]
                text = str(value)
                if text not in levels:
                    raise DataError(
                        f"unknown category {text!r} for column {col.name!r}")
                out[j + levels.index(text)] = 1.0
                j += len(group)
            k += 1
        return out

    def inverse_transform(self, vector: np.ndarray) -> list:
        """Map an encoded vector back to raw values; one-hot groups by argmax."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dimension,):
            raise DataError(f"expected {self.dimension} values, got {vector.shape}")
        out: list = []
        j = 0
        while j < self.dimension:
            col = self.columns[j]
            if col.kind == "continuous":
                out.append(_unscale(float(vector[j]), col))
                j += 1
            else:
                stop = j
                while (stop < self.dimension
                       and self.columns[stop].kind == "onehot"
                       and self.columns[stop].group == col.group):
                    stop += 1
                best = j + int(np.argmax(vector[j:stop]))
                out.append(self.columns[best].category)
                j = stop
        return out

    def to_dict(self) -> dict:
        return {
            "label_name": self.label_name,
            "classes": list(self.classes),
            "columns": [{
                "name": c.name, "kind": c.kind, "group": c.group,
                "category": c.category, "scaling_kind": c.scaling_kind,
                "scaling": list(c.scaling) if c.scaling else None,
            } for c in self.columns],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "FeatureMeta":
        try:
            columns = [FeatureColumn(
                name=c["name"], kind=c["kind"], group=c["group"],
                category=c["category"], scaling_kind=c["scaling_kind"],
                scaling=tuple(c["scaling"]) if c["scaling"] else None,
            ) for c in obj["columns"]]
            return cls(columns=columns, label_name=obj["label_name"],
                       classes=list(obj["classes"]))
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed feature metadata: {exc}") from exc


def _parse_float(value, column: str, row: int | None = None) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        where = f"row {row}, " if row is not None else ""
        raise DataError(
            f"unparseable value {value!r} ({where}column {column!r})") from None


def _scale(v, col: FeatureColumn):
    """v (a float or an array) in the column's scaled units."""
    a, b = col.scaling
    if col.scaling_kind == "minmax":
        return 0.0 if b == a else (v - a) / (b - a)
    return 0.0 if b == 0.0 else (v - a) / b


def _unscale(v: float, col: FeatureColumn) -> float:
    a, b = col.scaling
    if col.scaling_kind == "minmax":
        return a if b == a else v * (b - a) + a
    return a if b == 0.0 else v * b + a


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    meta: FeatureMeta | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DataError(f"features of shape {self.features.shape} are not a table")
        try:
            _points(self.features, self.dimension, missing=False, what="features")
            self.labels = _classes(self.labels, self.num_classes, "label", len(self))
        except ValueError as exc:
            raise DataError(str(exc)) from None

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """The rows at ``indices``, integers in [0, len(self)), in that order."""
        try:
            indices = _classes(indices, len(self), "row index")
        except ValueError as exc:
            raise DataError(str(exc)) from None
        return Dataset(self.features[indices], self.labels[indices],
                       self.num_classes, self.meta)


def load_csv(path: str | Path, schema: Schema) -> Dataset:
    """Parse a header-row CSV into an encoded, scaled dataset.

    Scaling parameters are fitted on the full file and recorded per column.
    Cell errors name the offending row (1-based, excluding header) and column.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = [row for row in reader if row]
    except FileNotFoundError as exc:
        raise DataError(f"dataset file not found: {path}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")

    positions = {name: i for i, name in enumerate(header)}
    if schema.label not in positions:
        raise DataError(f"label column {schema.label!r} not in header")
    for col in schema.columns:
        if col.name not in positions:
            raise DataError(f"schema column {col.name!r} not in header")

    label_pos = positions[schema.label]
    class_names = sorted({row[label_pos] for row in rows})
    class_index = {name: i for i, name in enumerate(class_names)}
    labels = np.array([class_index[row[label_pos]] for row in rows],
                      dtype=np.int64)

    columns: list[FeatureColumn] = []
    group = 0
    for col in schema.columns:
        pos = positions[col.name]
        if col.kind == "continuous":
            raw = np.array([_parse_float(row[pos], col.name, r + 1)
                            for r, row in enumerate(rows)])
            if col.scaling == "minmax":
                params = (float(raw.min()), float(raw.max()))
            else:
                params = (float(raw.mean()), float(raw.std()))
            columns.append(FeatureColumn(col.name, "continuous",
                                         scaling_kind=col.scaling,
                                         scaling=params))
        else:
            levels = sorted({str(row[pos]) for row in rows})
            if len(levels) < 2:
                raise DataError(
                    f"categorical column {col.name!r} has a single level")
            for level in levels:
                columns.append(FeatureColumn(col.name, "onehot", group=group,
                                             category=level))
            group += 1

    meta = FeatureMeta(columns=columns, label_name=schema.label,
                       classes=class_names)
    feature_positions = [positions[c.name] for c in schema.columns]
    features = np.empty((len(rows), meta.dimension))
    for r, row in enumerate(rows):
        try:
            features[r] = meta.transform([row[p] for p in feature_positions])
        except DataError as exc:
            raise DataError(f"row {r + 1}: {exc}") from None
    return Dataset(features, labels, len(class_names), meta)


def split(dataset: Dataset, train_fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Deterministic class-stratified split into (train, test).

    The train side gets round(fraction * N) rows overall; per-class quotas
    come from largest-remainder apportionment, so every class lands within
    one sample of the global fraction.
    """
    if not (0.0 < train_fraction < 1.0):
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(dataset)
    total = int(np.floor(train_fraction * n + 0.5))
    if total == 0 or total == n:
        raise DataError(f"split of {n} rows at {train_fraction} leaves a side empty")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)

    per_class: dict[int, list[int]] = {}
    for i in order:
        per_class.setdefault(int(dataset.labels[i]), []).append(int(i))
    classes = sorted(per_class)
    exact = {c: train_fraction * len(per_class[c]) for c in classes}
    quota = {c: int(np.floor(exact[c])) for c in classes}
    leftover = total - sum(quota.values())
    by_remainder = sorted(classes, key=lambda c: (-(exact[c] - quota[c]), c))
    for c in by_remainder[:max(leftover, 0)]:
        quota[c] += 1

    train_idx: list[int] = []
    test_idx: list[int] = []
    for c in classes:
        members = per_class[c]
        train_idx.extend(members[:quota[c]])
        test_idx.extend(members[quota[c]:])
    return dataset.subset(sorted(train_idx)), dataset.subset(sorted(test_idx))


def _two_curves(n: int, noise: float, seed, angles, inner) -> Dataset:
    """Class 0 on the unit circle at angles(n // 2), class 1 at
    inner(angles(n - n // 2)), plus Gaussian noise, min-max scaled to the
    unit square."""
    if n < 2:
        raise DataError(f"need n >= 2, got {n}")
    if not noise >= 0:      # NaN too
        raise DataError(f"noise must be >= 0, got {noise}")
    n_out = n // 2
    t_out = angles(n_out)
    points = np.concatenate([np.column_stack([np.cos(t_out), np.sin(t_out)]),
                             inner(angles(n - n_out))])
    labels = np.repeat(np.array([0, 1], dtype=np.int64), [n_out, n - n_out])
    rng = np.random.default_rng(seed)
    if noise > 0:
        points = points + rng.normal(0.0, noise, points.shape)
    columns = [FeatureColumn(name, "continuous", scaling_kind="minmax",
                             scaling=(float(lo), float(hi)))
               for name, lo, hi in zip(("x1", "x2"), points.min(axis=0),
                                       points.max(axis=0))]
    meta = FeatureMeta(columns=columns, label_name="class", classes=["0", "1"])
    scaled = np.empty_like(points)
    for j, col in enumerate(columns):
        scaled[:, j] = _scale(points[:, j], col)
    return Dataset(scaled, labels, 2, meta)


def make_moons(n: int, noise: float, seed) -> Dataset:
    """Two interleaving half-circles, min-max scaled to the unit square."""
    return _two_curves(n, noise, seed, lambda k: np.linspace(0.0, np.pi, k),
                       lambda t: np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)]))


def make_rings(n: int, noise: float, seed) -> Dataset:
    """Two concentric circles (radii 1 and 0.5), scaled to the unit square."""
    return _two_curves(n, noise, seed,
                       lambda k: np.linspace(0.0, 2.0 * np.pi, k, endpoint=False),
                       lambda t: 0.5 * np.column_stack([np.cos(t), np.sin(t)]))


def make_onehot_tabular(n: int, seed) -> Dataset:
    """Two 3-level one-hot groups plus 2 continuous columns; logistic labels.

    Columns 0-2 and 3-5 one-hot encode categories a and b, columns 6-7 hold
    c1, c2 ~ U[0, 1]; the label is 1 when
    2[a = 1] - 1.5[b = 2] + 3(c1 - 0.5) - 2(c2 - 0.5) > 0.
    """
    if n < 2:
        raise DataError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    features = np.zeros((n, 8))
    labels = np.zeros(n, dtype=np.int64)
    for i in range(n):
        a = int(rng.integers(3))
        b = int(rng.integers(3))
        c1 = float(rng.random())
        c2 = float(rng.random())
        features[i, a] = 1.0
        features[i, 3 + b] = 1.0
        features[i, 6] = c1
        features[i, 7] = c2
        score = (2.0 * (a == 1) - 1.5 * (b == 2)
                 + 3.0 * (c1 - 0.5) - 2.0 * (c2 - 0.5))
        labels[i] = 1 if score > 0.0 else 0
    columns = (
        [FeatureColumn(name="A", kind="onehot", group=0, category=f"a{k}")
         for k in range(3)]
        + [FeatureColumn(name="B", kind="onehot", group=1, category=f"b{k}")
           for k in range(3)]
        + [FeatureColumn(name="c1", kind="continuous",
                         scaling_kind="minmax", scaling=(0.0, 1.0)),
           FeatureColumn(name="c2", kind="continuous",
                         scaling_kind="minmax", scaling=(0.0, 1.0))])
    meta = FeatureMeta(columns=columns, label_name="y", classes=["0", "1"])
    return Dataset(features, labels, 2, meta)


IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def read_idx(path: str | Path) -> np.ndarray:
    """Read a big-endian IDX file (images or labels), gzip or plain."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(2)
        opener = gzip.open if head == b"\x1f\x8b" else open
        with opener(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise DataError(f"idx file not found: {path}") from exc
    except OSError as exc:
        raise DataError(f"cannot read idx file {path}: {exc}") from exc
    if len(data) < 8:
        raise DataError(f"{path}: truncated idx header")
    magic = struct.unpack(">I", data[:4])[0]
    if magic == IDX_LABELS_MAGIC:
        (count,) = struct.unpack(">I", data[4:8])
        body = np.frombuffer(data, dtype=np.uint8, offset=8)
        if body.size != count:
            raise DataError(f"{path}: expected {count} labels, found {body.size}")
        return body.copy()
    if magic == IDX_IMAGES_MAGIC:
        if len(data) < 16:
            raise DataError(f"{path}: truncated image header")
        count, rows, cols = struct.unpack(">III", data[4:16])
        body = np.frombuffer(data, dtype=np.uint8, offset=16)
        if body.size != count * rows * cols:
            raise DataError(f"{path}: image payload size mismatch")
        return body.reshape(count, rows, cols).copy()
    raise DataError(f"{path}: unknown idx magic 0x{magic:08x}")


def _find_idx(directory: Path, stem: str) -> Path:
    for suffix in ("", ".gz"):
        candidate = directory / (stem + suffix)
        if candidate.exists():
            return candidate
    raise DataError(f"no {stem}[.gz] under {directory}")


def load_mnist(directory: str | Path, digits=(1, 3, 4, 7, 8),
               part: str = "train") -> Dataset:
    """Digit-filtered MNIST from IDX files, pixels scaled to [0, 1].

    ``part`` is "train" or "t10k".  Classes are re-indexed in ascending
    digit order; the original digit is kept as the class name.
    """
    if part not in ("train", "t10k"):
        raise DataError(f"part must be 'train' or 't10k', got {part!r}")
    directory = Path(directory)
    images = read_idx(_find_idx(directory, f"{part}-images-idx3-ubyte"))
    labels = read_idx(_find_idx(directory, f"{part}-labels-idx1-ubyte"))
    if images.ndim != 3 or labels.ndim != 1 or images.shape[0] != labels.shape[0]:
        raise DataError("images and labels disagree")
    digits = sorted(set(int(d) for d in digits))
    keep = np.isin(labels, digits)
    images = images[keep]
    labels = labels[keep]
    remap = {d: i for i, d in enumerate(digits)}
    classes = np.array([remap[int(v)] for v in labels], dtype=np.int64)
    flat = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    columns = [FeatureColumn(f"p{j}", "continuous", scaling_kind="minmax",
                             scaling=(0.0, 255.0))
               for j in range(flat.shape[1])]
    meta = FeatureMeta(columns=columns, label_name="digit",
                       classes=[str(d) for d in digits])
    return Dataset(flat, classes, len(digits), meta)
