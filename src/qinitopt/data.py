"""Dataset ingestion and preprocessing for the classification experiments.

CSV in through numpy's C reader, then PCA (the SVD of the covariance, which
for a positive semidefinite matrix is its eigendecomposition), min-max
scaling onto [0, pi] with train-set statistics, and a stratified 80/20
split. Hamiltonians load from a plain text format, one Pauli term per line.
"""
from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass
import math
import pathlib
import warnings

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


@contextlib.contextmanager
def _open_utf8(path, newline=None):
    """open(path) as UTF-8 text; a byte that is not UTF-8 raises
    ValueError `<path>:<line>: not valid UTF-8`, whatever reads it."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError:
        data = pathlib.Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            line = data.count(b"\n", 0, err.start) + 1
            raise ValueError(f"{path}:{line}: not valid UTF-8") from None
        raise


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a rectangular numeric CSV with a header; one column holds
    integer-coded labels, every other column becomes a feature. numpy's C
    reader parses the body in one pass. Every cell must be a finite number
    and every label an integer in int64's range; a file that breaks a rule
    is read again, only to name its first bad line."""
    with _open_utf8(path, newline="") as handle, warnings.catch_warnings():
        rows = csv.reader(handle)
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if None not in map(_number, header):
            raise ValueError(f"{path}: missing header row")
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        width, label_idx = len(header), header.index(label_column)
        warnings.simplefilter("ignore", UserWarning)  # loadtxt: empty body
        try:
            table = np.loadtxt(handle, delimiter=",", quotechar='"',
                               comments=None, ndmin=2)
        except ValueError:  # the scan below names the line
            table = np.empty((0, 0))
    labels = table[:, label_idx] if table.shape[1] == width else ()
    if (len(labels) and np.isfinite(table).all() and not np.any(labels % 1)
            and -2.0**63 <= labels.min() <= labels.max() < 2.0**63):
        name = str(path).rsplit("/", 1)[-1].removesuffix(".csv")
        return Dataset(name, np.delete(table, label_idx, axis=1),
                       labels.astype(int))
    with _open_utf8(path, newline="") as handle:
        rows = csv.reader(handle)
        next(rows)
        for row in filter(None, rows):  # numpy skips blank lines too
            values = list(map(_number, row))
            label = values[label_idx] if len(row) == width else None
            problem = (
                f"expected {width} cells, got {len(row)}" if len(row) != width
                else "non-numeric cell" if None in values
                else "non-finite cell" if not all(map(math.isfinite, values))
                else f"label {label} is not an integer" if label % 1
                else f"label {label} is outside int64"
                if not -2.0**63 <= label < 2.0**63 else None)
            if problem:  # the line the row ends on
                raise ValueError(f"{path}:{rows.line_num}: {problem}")
    raise ValueError(f"{path}: no data rows")


def _number(cell: str):
    """float(cell) by numpy's rules (no `_`, ASCII digits only), or None."""
    try:
        return float(cell) if "_" not in cell and cell.strip().isascii() else None
    except ValueError:
        return None


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
    if values[k - 1] <= 1e-12 * max(values[0], 1.0):
        raise ValueError(f"input is rank deficient: fewer than {k} components "
                         "carry variance")
    components = vectors[:, :k]
    pivots = components[np.argmax(np.abs(components), axis=0), np.arange(k)]
    components = np.where(pivots < 0, -components, components)
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


def _shuffled_classes(dataset: Dataset, seed: int, stream: str) -> dict:
    """Each class's row indices, shuffled by the seed, classes ascending."""
    classes = {}
    # not np.unique: its first call imports numpy.ma, ~15 ms per CLI run
    for label in sorted(set(dataset.labels.tolist())):
        members = np.flatnonzero(dataset.labels == label)
        order = child_rng(seed, stream, int(label)).permutation(len(members))
        classes[label] = members[order]
    return classes


def _rows(dataset: Dataset, keep: np.ndarray) -> Dataset:
    """The rows a boolean mask keeps, in file order."""
    return Dataset(dataset.name, dataset.features[keep], dataset.labels[keep])


def split_80_20(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split: ceil(0.8 N_c) of each class to train, rest to test,
    class membership shuffled by the seed."""
    train = np.zeros(dataset.n_samples, dtype=bool)
    for members in _shuffled_classes(dataset, seed, "split").values():
        train[members[:math.ceil(0.8 * len(members))]] = True
    return _rows(dataset, train), _rows(dataset, ~train)


def stratified_subsample(dataset: Dataset, max_rows: int, seed: int) -> Dataset:
    """At most max_rows rows, class shares preserved, at least one row per
    class kept; returns the dataset unchanged when it is already small."""
    if max_rows < dataset.num_classes:
        raise ValueError("max_rows smaller than the number of classes")
    if dataset.n_samples <= max_rows:
        return dataset
    classes = _shuffled_classes(dataset, seed, "subsample")
    quota = {label: max(1, round(max_rows * len(members) / dataset.n_samples))
             for label, members in classes.items()}
    # trim overshoot from the largest classes, deterministically
    while sum(quota.values()) > max_rows:
        largest = max(quota, key=lambda c: (quota[c], -c))
        quota[largest] -= 1
    kept = np.zeros(dataset.n_samples, dtype=bool)
    for label, members in classes.items():
        kept[members[:quota[label]]] = True
    return _rows(dataset, kept)


def load_hamiltonian(path) -> Observable:
    """Pauli-sum text format: one `<coefficient> <word>` per line, words all
    the same length, `#` starts a comment."""
    terms = []
    with _open_utf8(path) as handle:
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
