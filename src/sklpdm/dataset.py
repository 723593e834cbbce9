"""Labeled data model, CSV ingestion, synthetic generators, and group-aware splitting.

Feature matrices are D x n with one sample per column. Labels are dense
integer ids in [0, K); the original label strings are retained for
reporting. Group ids (video / person identity) are optional and likewise
stored densely alongside their original names.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from ._util import save_float_rows_csv


def _dense_ids(values):
    """Map arbitrary hashable ids to dense ints in first-appearance order."""
    index = {value: i for i, value in enumerate(dict.fromkeys(values))}
    return np.fromiter((index[value] for value in values), dtype=np.int64, count=len(values)), tuple(index)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature columns plus integer class labels and optional group ids.

    features : D x n float matrix, one sample per column
    labels   : n dense class ids in [0, class_count)
    class_count : K
    label_names : original label strings, indexed by dense id
    groups   : optional n dense group ids (video/person identity)
    group_names : original group strings when groups are present
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    label_names: tuple = ()
    groups: np.ndarray | None = None
    group_names: tuple | None = None

    def __post_init__(self):
        # own private copies so freezing them cannot alias caller arrays; C order
        # keeps each feature row contiguous for the distance kernel
        features = np.array(self.features, dtype=np.float64, order="C")
        labels = np.array(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise DataError("features must be a 2-D matrix (columns are samples)")
        if features.shape[0] < 1:
            raise DataError("dataset needs at least one feature dimension")
        if features.shape[1] < 1:
            raise DataError("dataset needs at least one sample")
        if not np.all(np.isfinite(features)):
            raise DataError("all feature entries must be finite")
        if labels.shape != (features.shape[1],):
            raise DataError(
                f"label count {labels.shape} does not match sample count {features.shape[1]}"
            )
        if self.class_count < 1:
            raise DataError("class_count must be positive")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise DataError(f"labels must lie in [0, {self.class_count})")
        if len(np.unique(labels)) != self.class_count:
            raise DataError("every class id in [0, K) must occur at least once")
        names = self.label_names or tuple(f"c{k}" for k in range(self.class_count))
        if len(names) != self.class_count:
            raise DataError("label_names length must equal class_count")
        groups = self.groups
        group_names = self.group_names
        if groups is not None:
            groups = np.array(groups, dtype=np.int64)
            if groups.shape != (features.shape[1],):
                raise DataError("group count does not match sample count")
            if groups.min() < 0:
                raise DataError("group ids must be >= 0")
            if group_names is None:
                group_names = tuple(f"g{g}" for g in range(int(groups.max()) + 1))
            elif groups.max() >= len(group_names):
                raise DataError(f"group ids must lie in [0, {len(group_names)}), one per group name")
        elif group_names is not None:
            raise DataError("group_names given without groups")
        features.flags.writeable = False
        labels.flags.writeable = False
        if groups is not None:
            groups.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_names", tuple(str(n) for n in names))
        object.__setattr__(self, "groups", groups)
        object.__setattr__(
            self, "group_names", tuple(str(n) for n in group_names) if group_names else None
        )

    @property
    def dim(self):
        return self.features.shape[0]

    @property
    def sample_count(self):
        return self.features.shape[1]


def load_csv(path) -> LabeledDataset:
    """Read a dataset from CSV: header row, a `label` column, optional `group`, numeric features.

    Labels are re-indexed to dense ids in first-appearance order; feature
    columns keep header order. Errors report the offending data row
    (1-based) and column name.

    A plain file is streamed once to check its lines and collect the label
    and group fields, and its feature columns are then parsed by numpy's C
    reader, which converts each cell as float() does. Any other file, and
    any file that reader rejects, is parsed row by row with the csv module.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            table = _read_plain(handle)
            if table is None:
                handle.seek(0)
                table = _read_rows(path, handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    values, labels, groups = table
    return from_names(values.T, labels, groups)


def _columns(header):
    """(label column, group column or None, feature columns) of a header holding `label`."""
    label_col = header.index("label")
    group_col = header.index("group") if "group" in header else None
    return label_col, group_col, [c for c in range(len(header)) if c != label_col and c != group_col]


def _read_rows(path, handle):
    """(n x D values, labels, groups or None) of any CSV file, walked row by row with the csv module.

    Feature cells are parsed by float(); the first bad row (1-based) and
    column is reported.
    """
    rows = list(csv.reader(handle))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    if "label" not in header:
        raise DataError(f"{path}: missing `label` column")
    label_col, group_col, feature_cols = _columns(header)
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no data rows")
    values = np.empty((len(body), len(feature_cols)), dtype=np.float64)
    for r, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r}: expected {len(header)} fields, got {len(row)}")
        for j, c in enumerate(feature_cols):
            cell = row[c]
            try:
                parsed = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {r}, column {header[c]}: non-numeric value {cell!r}"
                ) from None
            if not math.isfinite(parsed):
                raise DataError(f"{path}: row {r}, column {header[c]}: non-finite value {cell!r}")
            values[r - 1, j] = parsed
    labels = [row[label_col] for row in body]
    groups = [row[group_col] for row in body] if group_col is not None else None
    return values, labels, groups


# Lines holding one of these need the csv module: a quote or carriage return
# changes how fields split, and numpy's float parser strips \x1c-\x1f as
# whitespace where float() rejects them.
_NOT_PLAIN = '"\r\x1c\x1d\x1e\x1f'


def _is_plain(line):
    # six `in` scans run at memchr speed; one regex character-class search took 3x longer
    return not any(char in line for char in _NOT_PLAIN)


def _field_reader(col, last):
    """Function giving field `col` of a line of fields 0..last, split from the nearer end."""
    if col <= last - col:
        return lambda line: line.split(",", col + 1)[col].removesuffix("\n")
    return lambda line: line.rsplit(",", last - col + 1)[1].removesuffix("\n")


def _read_plain(handle):
    """(n x D values, labels, groups or None) of a plain CSV file, else None.

    Plain means every line has exactly one comma fewer than the header has
    fields and none of the _NOT_PLAIN characters, there is at least one data
    row and one feature column, and every feature cell is a finite number
    numpy's C reader parses. Python picks out only the label and group
    fields; no other cell becomes a Python object of its own.
    """
    first = handle.readline()
    if not first or not _is_plain(first):
        return None
    header = next(csv.reader([first]))
    if "label" not in header:
        return None
    label_col, group_col, feature_cols = _columns(header)
    if not feature_cols:
        return None
    last = len(header) - 1
    label_at = _field_reader(label_col, last)
    group_at = _field_reader(group_col, last) if group_col is not None else None
    labels = []
    groups = [] if group_at else None
    for line in handle:
        if line.count(",") != last or not _is_plain(line):
            return None
        labels.append(label_at(line))
        if group_at:
            groups.append(group_at(line))
    if not labels:
        return None
    handle.seek(0)
    try:
        values = np.loadtxt(
            handle, delimiter=",", comments=None, quotechar=None, skiprows=1,
            usecols=feature_cols, ndmin=2, dtype=np.float64,
        )
    except ValueError:  # a bad cell, which the csv path reports, or one like 1_000 that float() reads
        return None
    if values.shape[0] != len(labels) or not np.isfinite(values).all():
        return None
    return values, labels, groups


def from_names(features, labels, groups=None) -> LabeledDataset:
    """Dataset from per-sample label names and optional group names.

    Both become dense ids in first-appearance order; the names are kept
    for reporting.
    """
    label_ids, label_names = _dense_ids(labels)
    group_ids = group_names = None
    if groups is not None:
        group_ids, group_names = _dense_ids(groups)
    return LabeledDataset(
        features=features,
        labels=label_ids,
        class_count=len(label_names),
        label_names=label_names,
        groups=group_ids,
        group_names=group_names,
    )


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write a dataset as CSV (`label,f0..fN[,group]`), round-tripping features exactly."""
    header = ["label"] + [f"f{j}" for j in range(dataset.dim)]
    groups = None
    if dataset.groups is not None:
        header.append("group")
        groups = [dataset.group_names[g] for g in dataset.groups]
    labels = [dataset.label_names[y] for y in dataset.labels]
    save_float_rows_csv(path, header, dataset.features.T, lead=labels, tail=groups)


def _check_generator_settings(seed, **settings):
    """DataError naming the first setting that is not finite and >= 0, or a negative seed."""
    for name, value in settings.items():
        if not 0 <= value < math.inf:
            raise DataError(f"{name} must be finite and >= 0, got {value!r}")
    if not seed >= 0:
        raise DataError(f"seed must be >= 0, got {seed!r}")


def gen_gaussian_classes(K, n_per_class, D, spread, separation, seed) -> LabeledDataset:
    """Isotropic Gaussian blobs with class means at mutual distance >= `separation`.

    Deterministic per seed (PCG64 generator). For K <= D the means sit on a
    scaled random orthonormal frame (pairwise distances exactly `separation`);
    otherwise they are spaced along a random line.
    """
    if K < 1 or n_per_class < 1 or D < 1:
        raise DataError("gen_gaussian_classes requires K >= 1, n_per_class >= 1, D >= 1")
    _check_generator_settings(seed, spread=spread, separation=separation)
    rng = np.random.default_rng(seed)
    if K <= D:
        frame, _ = np.linalg.qr(rng.standard_normal((D, K)))
        means = frame[:, :K] * (separation / math.sqrt(2.0))
    else:
        direction = rng.standard_normal(D)
        direction /= np.linalg.norm(direction)
        means = np.outer(direction, np.arange(K) * separation)
    features = np.empty((D, K * n_per_class))
    labels = np.empty(K * n_per_class, dtype=np.int64)
    for k in range(K):
        block = slice(k * n_per_class, (k + 1) * n_per_class)
        features[:, block] = means[:, [k]] + spread * rng.standard_normal((D, n_per_class))
        labels[block] = k
    return LabeledDataset(features=features, labels=labels, class_count=K)


def gen_ring_classes(K, n_per_class, noise, ambient_dim, seed) -> LabeledDataset:
    """Concentric rings (radii 1..K) in a random 2-plane of R^D, plus Gaussian noise.

    The plane is a random orthonormal embedding, so with noise=0 each sample's
    distance to the origin equals its ring radius. Deterministic per seed
    (PCG64 generator).
    """
    if K < 2:
        raise DataError("gen_ring_classes requires K >= 2")
    if ambient_dim < 3:
        raise DataError("gen_ring_classes requires ambient_dim >= 3")
    if n_per_class < 1:
        raise DataError("gen_ring_classes requires n_per_class >= 1")
    _check_generator_settings(seed, noise=noise)
    rng = np.random.default_rng(seed)
    plane, _ = np.linalg.qr(rng.standard_normal((ambient_dim, 2)))
    features = np.empty((ambient_dim, K * n_per_class))
    labels = np.empty(K * n_per_class, dtype=np.int64)
    for k in range(K):
        radius = float(k + 1)
        angles = rng.uniform(0.0, 2.0 * math.pi, n_per_class)
        circle = np.vstack([radius * np.cos(angles), radius * np.sin(angles)])
        block = slice(k * n_per_class, (k + 1) * n_per_class)
        features[:, block] = plane @ circle
        if noise > 0:
            features[:, block] += noise * rng.standard_normal((ambient_dim, n_per_class))
        labels[block] = k
    return LabeledDataset(features=features, labels=labels, class_count=K)


def leave_one_group_out(dataset: LabeledDataset) -> tuple:
    """One (train indices, test indices) fold per distinct group id; that group is the test side."""
    if dataset.groups is None:
        raise DataError("leave_one_group_out requires group ids")
    group_ids = np.unique(dataset.groups)
    if len(group_ids) < 2:
        raise DataError("leave_one_group_out requires at least 2 distinct groups")
    indices = np.arange(dataset.sample_count, dtype=np.int64)
    return tuple((indices[dataset.groups != g], indices[dataset.groups == g]) for g in group_ids)


def with_groups(dataset: LabeledDataset, group_count: int) -> LabeledDataset:
    """Assign synthetic group ids round-robin within each class.

    Every (group, class) cell receives a near-equal share of that class's
    samples, so each leave-one-group-out fold keeps all classes in training.
    """
    if group_count < 1:
        raise DataError("group_count must be positive")
    groups = np.zeros(dataset.sample_count, dtype=np.int64)
    for k in range(dataset.class_count):
        members = np.where(dataset.labels == k)[0]
        groups[members] = np.arange(len(members)) % group_count
    return replace(dataset, groups=groups, group_names=None)
