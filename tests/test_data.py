"""Data loading, PCA, scaling, and splitting."""
import csv
import io
import math
import pathlib
import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from qinitopt.cli import main
from qinitopt.data import (Dataset, MinMaxScaler, fit_pca, fit_scaler,
                           load_csv, load_hamiltonian, pca_transform,
                           scale_features, split_80_20, stratified_subsample)

REPO = pathlib.Path(__file__).resolve().parent.parent


def write(path, text):
    path.write_text(text)
    return path


def test_load_csv_echo(tmp_path):
    path = write(tmp_path / "toy.csv",
                 "a,b,label\n1.5,2.0,0\n-3.25,4.0,1\n5.0,6.5,0\n")
    ds = load_csv(path)
    assert ds.n_samples == 3
    assert np.array_equal(ds.features, [[1.5, 2.0], [-3.25, 4.0], [5.0, 6.5]])
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert ds.num_classes == 2
    assert ds.name == "toy"


def test_load_csv_label_column_position(tmp_path):
    path = write(tmp_path / "mid.csv", "a,label,b\n1,0,2\n3,1,4\n")
    ds = load_csv(path)
    assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ds.labels, [0, 1])


def test_load_csv_errors(tmp_path):
    with pytest.raises(ValueError, match="header"):
        load_csv(write(tmp_path / "nohdr.csv", "1,2,0\n3,4,1\n"))
    with pytest.raises(ValueError, match="label"):
        load_csv(write(tmp_path / "nolabel.csv", "a,b\n1,2\n"))
    with pytest.raises(ValueError, match="cells"):
        load_csv(write(tmp_path / "ragged.csv", "a,label\n1,0\n1,2,3\n"))
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(write(tmp_path / "alpha.csv", "a,label\nx,0\n"))
    with pytest.raises(ValueError, match="integer"):
        load_csv(write(tmp_path / "floatlab.csv", "a,label\n1,0.5\n"))
    with pytest.raises(ValueError, match="empty"):
        load_csv(write(tmp_path / "empty.csv", ""))


def test_load_csv_rejects_a_header_without_rows(tmp_path):
    path = write(tmp_path / "header.csv", "a,b,label\n")
    with pytest.raises(ValueError, match=r"header\.csv: no data rows"):
        load_csv(path)


def test_load_csv_rejects_non_finite_cells(tmp_path):
    for cell in ("nan", "inf", "-Infinity", "NaN"):
        path = write(tmp_path / "bad.csv", f"a,b,label\n1,2,0\n3,{cell},1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: non-finite cell"):
            load_csv(path)
    path = write(tmp_path / "badlabel.csv", "a,label\n1,0\n2,nan\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_csv(path)


def test_shipped_corpora_shapes():
    wine = load_csv(REPO / "datasets" / "wine.csv")
    assert wine.features.shape == (178, 13) and wine.num_classes == 3
    cancer = load_csv(REPO / "datasets" / "breast_cancer.csv")
    assert cancer.features.shape == (569, 30) and cancer.num_classes == 2
    digits = load_csv(REPO / "datasets" / "digits.csv")
    assert digits.features.shape == (1797, 64) and digits.num_classes == 10


def per_cell_load_csv(path, label_column: str = "label") -> Dataset:
    """The reader load_csv replaced, kept as the oracle of the differential
    tests below: csv rows, Python's float() on every cell."""
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


CSV_CORPUS = {
    "crlf": b"a,b,label\r\n1,2,0\r\n3,4,1\r\n",
    "cr": b"a,b,label\r1,2,0\r3,4,1\r",
    "bom": b"\xef\xbb\xbfa,b,label\n1,2,0\n",
    "bom-label-first": b"\xef\xbb\xbflabel,a\n0,1\n",
    "no-final-newline": b"a,b,label\n1,2,0\n3,4,1",
    "padded": b"a,b,label\n 1 ,\t2, 0 \n3 ,4,1\t\n",
    "signs-exponents": b"a,b,label\n-1.5e-3,+2E+2,1\n.5,1.,-0\n1e-320,-7E5,+3\n",
    "label-first": b"label,a,b\n1,2,3\n0,4,5\n",
    "label-middle": b"a,label,b\n1,1,3\n2,0,5\n",
    "label-only": b"label\n0\n1\n",
    "quoted": b'a,b,label\n"1.5","2",0\n3," 4 ","1"\n',
    "hash-in-cell": b"a,b,label\n1,2,0#junk\n",
    "hash-row": b"a,b,label\n1,2,0\n# note\n",
    "blank-line": b"a,b,label\n1,2,0\n\n3,4,1\n",
    "blank-crlf": b"a,b,label\r\n1,2,0\r\n\r\n3,4,1\r\n",
    "blank-then-bad": b"a,b,label\n\n1,x,0\n",
    "whitespace-line": b"a,b,label\n1,2,0\n   \n3,4,1\n",
    "whitespace-line-one-column": b"label\n0\n \n1\n",
    "short-row": b"a,b,label\n1,2,0\n3,4\n",
    "long-row": b"a,b,label\n1,2,0\n3,4,1,5\n",
    "one-wide-row": b"a,b,label\n1,2,0,5\n",
    "short-non-numeric-row": b"a,b,label\n1,2,0\nx,4\n",
    "empty-cell": b"a,b,label\n1,,0\n",
    "non-numeric": b"a,b,label\n1,2,0\n1,x,0\n",
    "nan": b"a,b,label\n1,nan,0\n",
    "inf": b"a,b,label\n1,2,0\n1,inf,0\n",
    "-Infinity": b"a,b,label\n1,-Infinity,0\n",
    "nan-label": b"a,label\n1,0\n2,nan\n",
    "huge-cell": b"a,b,label\n1,1e400,0\n",
    "non-integer-label": b"a,label\n1,0\n1,0.5\n",
    "non-finite-before-label": b"a,label\ninf,0.5\n",
    "least-int64-label": b"a,label\n1,-9223372036854775808\n",
    "label-2**63": b"a,label\n1,9223372036854775808\n",
    "label-1e300": b"a,label\n1,0\n2,1e300\n",
    "digit-separator": b"a,b,label\n1,1_0,0\n",
    "non-ascii-digit": "a,b,label\n1,١,0\n".encode(),
    "no-break-space": "a,b,label\n1, 2,0\n".encode(),
    "numeric-header": b"1,2,3\n1,2,0\n",
    "no-label-column": b"a,b\n1,2\n",
    "header-only": b"a,b,label\n",
    "header-only-label": b"label\n",
    "blank-lines-only": b"a,b,label\n\n\n",
    "empty": b"",
}

# Where load_csv differs from the per-cell reader on purpose: what it does
# instead, with {path} for the file. An error is its message; a dataset is
# (features, labels).
CSV_CHANGES = {
    # numpy's reader skips blank lines
    "blank-line": ([[1.0, 2.0], [3.0, 4.0]], [0, 1]),
    "blank-crlf": ([[1.0, 2.0], [3.0, 4.0]], [0, 1]),
    "blank-then-bad": "{path}:3: non-numeric cell",
    "blank-lines-only": "{path}: no data rows",
    # numpy's reader takes ASCII decimals without `_` separators
    "digit-separator": "{path}:2: non-numeric cell",
    "non-ascii-digit": "{path}:2: non-numeric cell",
    # the per-cell reader ended in OverflowError, which names no line
    "label-2**63": "{path}:2: label 9.223372036854776e+18 is outside int64",
    "label-1e300": "{path}:3: label 1e+300 is outside int64",
}


def outcome(reader, path):
    """What reading path gives: its bytes, or the error's class and text."""
    try:
        ds = reader(path)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return (ds.name, ds.features.shape, ds.features.tobytes(),
            ds.labels.dtype.str, ds.labels.tobytes())


def expected_outcome(case, path):
    change = CSV_CHANGES[case]
    if isinstance(change, str):
        return "ValueError", change.format(path=path)
    features, labels = change
    features = np.array(features, dtype=float)
    return ("toy", features.shape, features.tobytes(), "<i8",
            np.array(labels, dtype=np.int64).tobytes())


@pytest.mark.parametrize("name", ["wine", "breast_cancer", "digits"])
def test_load_csv_matches_the_per_cell_reader_on_shipped_datasets(name):
    path = REPO / "datasets" / f"{name}.csv"
    assert outcome(load_csv, path) == outcome(per_cell_load_csv, path)


@pytest.mark.parametrize("case", CSV_CORPUS)
def test_load_csv_matches_the_per_cell_reader(tmp_path, case):
    path = tmp_path / "toy.csv"
    path.write_bytes(CSV_CORPUS[case])
    got = outcome(load_csv, path)
    if case in CSV_CHANGES:
        assert got == expected_outcome(case, path)
        assert got != outcome(per_cell_load_csv, path)
    else:
        assert got == outcome(per_cell_load_csv, path)


FILE_PROBLEMS = {"empty file", "missing header row", "no column named 'label'",
                 "no data rows"}


def test_every_malformed_csv_is_one_cli_error_line(tmp_path, capsys):
    """qml names the file, and the line of a bad row, on one `error:` line
    with exit code 2; a wrong label used to end without either."""
    for case, body in CSV_CORPUS.items():
        path = tmp_path / "toy.csv"
        path.write_bytes(body)
        try:
            load_csv(path)
        except ValueError as exc:
            message = str(exc)
        else:
            continue
        code = main(["qml", "--out", str(tmp_path / "out"),
                     "--set", f'dataset="{path}"'])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), case
        assert captured.err == f"error: {message}\n", case
        where = re.fullmatch(rf"{re.escape(str(path))}(:\d+)?: (.+)", message)
        assert where and bool(where[1]) != (where[2] in FILE_PROBLEMS), case


CSV_CELLS = st.sampled_from(["0", "1", "-2", "3.5", "1e3", "2E-1", " 4",
                             "5 ", '"6"', "", "x", "nan", "-inf", "7#",
                             '"8,9"', "1,2", "0.5"])


@settings(max_examples=300)
@given(rows=st.lists(st.lists(CSV_CELLS, min_size=1, max_size=4),
                     max_size=5),
       header=st.sampled_from(["a,b,label", "label,a,b", "a,label", "label"]),
       newline=st.sampled_from(["\n", "\r\n"]), final=st.booleans())
def test_load_csv_matches_the_per_cell_reader_on_drawn_bodies(
        tmp_path_factory, rows, header, newline, final):
    """Drawn bodies with no blank line, no `_` and ASCII cells only: the
    two readers agree on every byte and every error."""
    body = newline.join([header] + [",".join(row) for row in rows])
    body += newline if final else ""
    parsed = csv.reader(io.StringIO(body, newline=""))
    assume(all(row and parsed.line_num == i
               for i, row in enumerate(parsed, start=1)))
    path = tmp_path_factory.mktemp("drawn") / "toy.csv"
    path.write_bytes(body.encode())
    want = outcome(per_cell_load_csv, path)
    assume(want[0] != "OverflowError")
    assert outcome(load_csv, path) == want


def test_pca_collinear_line():
    t = np.linspace(-2, 3, 30)
    pts = np.stack([t, 2 * t], axis=1)  # exactly on a line
    model = fit_pca(pts, k=1)
    total = np.trace(np.cov(pts.T))
    assert model.variances[0] / total > 1.0 - 1e-12
    assert abs(np.linalg.norm(model.components[:, 0]) - 1.0) < 1e-12


def test_pca_transform_of_mean_is_zero():
    rng = np.random.default_rng(81)
    data = rng.standard_normal((40, 6))
    model = fit_pca(data, k=4)
    assert np.max(np.abs(pca_transform(model, data.mean(axis=0)[None, :]))) < 1e-10
    # train projection is centered
    assert np.max(np.abs(pca_transform(model, data).mean(axis=0))) < 1e-8


def test_pca_orthonormal_and_sorted():
    rng = np.random.default_rng(82)
    data = rng.standard_normal((60, 8)) * np.arange(1, 9)
    model = fit_pca(data, k=4)
    gram = model.components.T @ model.components
    assert np.max(np.abs(gram - np.eye(4))) < 1e-8
    assert np.all(np.diff(model.variances) <= 1e-12)
    # sign convention: the largest-magnitude entry of each column is positive
    for j in range(4):
        pivot = np.argmax(np.abs(model.components[:, j]))
        assert model.components[pivot, j] > 0


def test_pca_variance_conservation_and_reconstruction():
    rng = np.random.default_rng(83)
    data = rng.standard_normal((50, 6)) @ np.diag([5, 4, 3, 2, 1, 0.5])
    full = fit_pca(data, k=6)
    cov = np.cov(data.T)
    assert abs(full.variances.sum() - np.trace(cov)) < 1e-8
    model = fit_pca(data, k=3)
    centered = data - model.mean
    recon = pca_transform(model, data) @ model.components.T
    residual = np.sum((centered - recon) ** 2) / (len(data) - 1)
    discarded = full.variances[3:].sum()
    assert residual <= discarded + 1e-8


def test_pca_axes_match_eigh_up_to_sign():
    rng = np.random.default_rng(85)
    data = rng.standard_normal((80, 7)) @ rng.standard_normal((7, 7))
    model = fit_pca(data, k=5)
    values, vectors = np.linalg.eigh(np.cov(data.T))
    values, vectors = values[::-1], vectors[:, ::-1]
    assert np.allclose(model.variances, values[:5], rtol=1e-10)
    for j in range(5):
        overlap = model.components[:, j] @ vectors[:, j]
        assert abs(abs(overlap) - 1.0) < 1e-10
        assert np.allclose(model.components[:, j],
                           np.sign(overlap) * vectors[:, j], atol=1e-10)


def test_pca_errors():
    rng = np.random.default_rng(84)
    with pytest.raises(ValueError, match="rows"):
        fit_pca(rng.standard_normal((4, 6)), k=4)
    with pytest.raises(ValueError, match="rank deficient"):
        col = rng.standard_normal((30, 1))
        fit_pca(np.hstack([col, col, col, 2 * col, np.ones((30, 1))]), k=4)
    with pytest.raises(ValueError, match="input features"):
        fit_pca(rng.standard_normal((30, 3)), k=4)
    for k in (0, -2):
        with pytest.raises(ValueError,
                           match=f"at least 1 principal component, got {k}"):
            fit_pca(rng.standard_normal((30, 4)), k=k)


def test_scaling_examples():
    scaler = fit_scaler(np.array([[0.0], [5.0], [10.0]]))
    got = scale_features(np.array([[0.0], [5.0], [10.0]]), scaler)
    assert np.allclose(got[:, 0], [0.0, math.pi / 2, math.pi])
    const = fit_scaler(np.full((4, 2), 3.0))
    got = scale_features(np.full((4, 2), 3.0), const)
    assert np.all(got == math.pi / 2)
    # out-of-range test values clamp
    got = scale_features(np.array([[-5.0], [20.0]]), scaler)
    assert np.allclose(got[:, 0], [0.0, math.pi])


def test_split_single_class():
    ds = Dataset("ten", np.arange(10, dtype=float)[:, None],
                 np.zeros(10, dtype=int))
    train, test = split_80_20(ds, seed=0)
    assert train.n_samples == 8 and test.n_samples == 2


def test_split_stratified_counts():
    wine = load_csv(REPO / "datasets" / "wine.csv")
    train, test = split_80_20(wine, seed=3)
    for label in range(3):
        total = np.sum(wine.labels == label)
        kept = np.sum(train.labels == label)
        assert kept == math.ceil(0.8 * total)
    assert train.n_samples + test.n_samples == wine.n_samples


def test_split_deterministic_disjoint_exhaustive():
    rng = np.random.default_rng(85)
    feats = rng.standard_normal((53, 3))
    labels = rng.integers(0, 4, 53)
    ds = Dataset("rand", feats, labels)
    for seed in range(100):
        a_train, a_test = split_80_20(ds, seed)
        b_train, b_test = split_80_20(ds, seed)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.labels, b_test.labels)
        joined = np.vstack([a_train.features, a_test.features])
        assert joined.shape == feats.shape
        assert len(np.unique(joined, axis=0)) == len(np.unique(feats, axis=0))
    different = split_80_20(ds, 0)[0]
    assert not np.array_equal(different.features, split_80_20(ds, 1)[0].features)


def test_stratified_subsample():
    rng = np.random.default_rng(86)
    ds = Dataset("big", rng.standard_normal((300, 2)),
                 np.repeat([0, 1, 2], 100))
    sub = stratified_subsample(ds, 30, seed=0)
    assert sub.n_samples <= 30
    assert set(np.unique(sub.labels)) == {0, 1, 2}
    again = stratified_subsample(ds, 30, seed=0)
    assert np.array_equal(sub.features, again.features)
    assert stratified_subsample(ds, 500, seed=0) is ds
    with pytest.raises(ValueError):
        stratified_subsample(ds, 2, seed=0)


def test_load_hamiltonian(tmp_path):
    path = write(tmp_path / "h.txt", "-1.0 Z\n")
    obs = load_hamiltonian(path)
    assert obs.terms == ((-1.0, "Z"),)
    path = write(tmp_path / "h2.txt",
                 "# comment line\n0.5 ZI\n\n0.5 IZ  # trailing comment\n")
    obs = load_hamiltonian(path)
    assert obs.terms == ((0.5, "ZI"), (0.5, "IZ"))
    assert obs.num_qubits == 2


def test_load_hamiltonian_errors(tmp_path):
    with pytest.raises(ValueError):
        load_hamiltonian(write(tmp_path / "ragged.txt", "0.5 ZI\n0.5 IZZ\n"))
    with pytest.raises(ValueError, match="coefficient"):
        load_hamiltonian(write(tmp_path / "badnum.txt", "zz ZI\n"))
    with pytest.raises(ValueError, match="expected"):
        load_hamiltonian(write(tmp_path / "badline.txt", "0.5 ZI extra\n"))
    with pytest.raises(ValueError, match="no Hamiltonian"):
        load_hamiltonian(write(tmp_path / "empty.txt", "# nothing\n"))
    with pytest.raises(ValueError):
        load_hamiltonian(write(tmp_path / "badchar.txt", "0.5 ZA\n"))


def test_shipped_hamiltonians_load():
    toy = load_hamiltonian(REPO / "hamiltonians" / "toy_2q.txt")
    assert toy.num_qubits == 2 and len(toy.terms) == 3
    h2 = load_hamiltonian(REPO / "hamiltonians" / "h2_4q.txt")
    assert h2.num_qubits == 4 and len(h2.terms) == 15
