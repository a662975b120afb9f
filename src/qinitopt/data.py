"""Dataset ingestion and preprocessing for the classification experiments.

CSV in, then PCA to a handful of components (the SVD of the covariance,
which for a positive semidefinite matrix is its eigendecomposition), min-max
scaling onto [0, pi] with train-set statistics, and a stratified 80/20
split. Hamiltonians load from a plain text format, one Pauli term per line.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
import math

import numpy as np

from .distributions import child_rng
from .simulator import Observable

ANGLE_SPAN = math.pi


@dataclass(frozen=True)
class Dataset:
    name: str
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(self.features) != len(self.labels):
            raise ValueError("feature and label row counts differ")

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a rectangular numeric CSV with a header; one column holds
    integer-coded labels, every other column becomes a feature. Every cell
    must be a finite number."""
    with open(path, newline="") as handle:
        rows = csv.reader(handle)
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if all(_is_number(cell) for cell in header):
            raise ValueError(f"{path}: missing header row")
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
        width = len(header)
        features = []
        labels = []
        for lineno, row in enumerate(rows, start=2):
            if len(row) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} cells, "
                                 f"got {len(row)}")
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: non-finite cell")
            label = values.pop(label_idx)
            if label != int(label):
                raise ValueError(f"{path}:{lineno}: label {label} is not an integer")
            labels.append(int(label))
            features.append(values)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    name = str(path).rsplit("/", 1)[-1].removesuffix(".csv")
    return Dataset(name, np.array(features, dtype=float),
                   np.array(labels, dtype=int))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (d_in, k) orthonormal columns
    variances: np.ndarray  # descending, one per kept component


def fit_pca(features, k: int = 4) -> PcaModel:
    """Top-k principal axes of the covariance. Component signs follow the
    largest-magnitude entry (made positive) so the fit is reproducible."""
    if k < 1:
        raise ValueError(f"need at least 1 principal component, got {k}")
    features = np.asarray(features, dtype=float)
    n, d = features.shape
    if n <= k:
        raise ValueError(f"need more than {k} rows to fit {k} components")
    if d < k:
        raise ValueError(f"need at least {k} input features")
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0
    # singular values of a PSD matrix are its eigenvalues, already
    # descending; eigh would wake an idle BLAS worker thread here
    vectors, values, _ = np.linalg.svd(cov)
    scale = values[0]
    if values[k - 1] <= 1e-12 * max(scale, 1.0):
        raise ValueError(f"input is rank deficient: fewer than {k} components "
                         "carry variance")
    components = vectors[:, :k].copy()
    for j in range(k):
        pivot = np.argmax(np.abs(components[:, j]))
        if components[pivot, j] < 0:
            components[:, j] = -components[:, j]
    return PcaModel(mean, components, values[:k].copy())


def pca_transform(model: PcaModel, features) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    return (features - model.mean) @ model.components


@dataclass(frozen=True)
class MinMaxScaler:
    mins: np.ndarray
    maxs: np.ndarray


def fit_scaler(features) -> MinMaxScaler:
    features = np.asarray(features, dtype=float)
    return MinMaxScaler(features.min(axis=0), features.max(axis=0))


def scale_features(features, scaler: MinMaxScaler) -> np.ndarray:
    """Column-wise map onto [0, pi] using the scaler's (train) statistics;
    constant columns go to pi/2 and out-of-range values clamp."""
    features = np.asarray(features, dtype=float)
    span = scaler.maxs - scaler.mins
    flat = span == 0
    safe = np.where(flat, 1.0, span)
    scaled = (features - scaler.mins) / safe * ANGLE_SPAN
    scaled = np.where(flat, ANGLE_SPAN / 2.0, scaled)
    return np.clip(scaled, 0.0, ANGLE_SPAN)


def _sorted_labels(labels: np.ndarray) -> list:
    """The distinct labels, ascending."""
    # not np.unique: its first call imports numpy.ma, ~15 ms per CLI run
    return sorted(set(labels.tolist()))


def split_80_20(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split: ceil(0.8 N_c) of each class to train, rest to test,
    class membership shuffled by the seed."""
    train_idx = []
    test_idx = []
    for label in _sorted_labels(dataset.labels):
        members = np.flatnonzero(dataset.labels == label)
        order = child_rng(seed, "split", int(label)).permutation(len(members))
        cut = math.ceil(0.8 * len(members))
        train_idx.extend(members[order[:cut]])
        test_idx.extend(members[order[cut:]])
    train_idx = np.sort(np.array(train_idx, dtype=int))
    test_idx = np.sort(np.array(test_idx, dtype=int))
    return (Dataset(dataset.name, dataset.features[train_idx],
                    dataset.labels[train_idx]),
            Dataset(dataset.name, dataset.features[test_idx],
                    dataset.labels[test_idx]))


def stratified_subsample(dataset: Dataset, max_rows: int, seed: int) -> Dataset:
    """At most max_rows rows, class shares preserved, at least one row per
    class kept; returns the dataset unchanged when it is already small."""
    if max_rows < dataset.num_classes:
        raise ValueError("max_rows smaller than the number of classes")
    if dataset.n_samples <= max_rows:
        return dataset
    kept = []
    labels = _sorted_labels(dataset.labels)
    quota = {}
    for label in labels:
        count = int(np.sum(dataset.labels == label))
        quota[int(label)] = max(1, int(round(max_rows * count / dataset.n_samples)))
    # trim overshoot from the largest classes, deterministically
    while sum(quota.values()) > max_rows:
        largest = max(quota, key=lambda c: (quota[c], -c))
        quota[largest] -= 1
    for label in labels:
        members = np.flatnonzero(dataset.labels == label)
        order = child_rng(seed, "subsample", int(label)).permutation(len(members))
        kept.extend(members[order[:quota[int(label)]]])
    kept = np.sort(np.array(kept, dtype=int))
    return Dataset(dataset.name, dataset.features[kept], dataset.labels[kept])


def load_hamiltonian(path) -> Observable:
    """Pauli-sum text format: one `<coefficient> <word>` per line, words all
    the same length, `#` starts a comment."""
    terms = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected "
                                 "'<coefficient> <pauli word>'")
            try:
                coeff = float(parts[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad coefficient "
                                 f"{parts[0]!r}") from None
            terms.append((coeff, parts[1].upper()))
    if not terms:
        raise ValueError(f"{path}: no Hamiltonian terms found")
    return Observable(terms=tuple(terms))
