"""Record serialization, hashing, and CSV sidecar layouts."""
import csv
import hashlib
import json
import pathlib

import numpy as np
import pytest

from qinitopt.records import (as_jsonable, bp_rows, canonical_json,
                              curve_rows, es_trace_rows, hyperparam_names,
                              histogram_rows, record_hash, write_csv,
                              write_record)


def test_as_jsonable_conversions():
    obj = {"a": np.float64(1.5), "b": np.int32(3), "c": np.array([1.0, 2.0]),
           "d": (True, np.bool_(False)), "e": None,
           "f": pathlib.Path("x/y.txt"), 7: "int key"}
    got = as_jsonable(obj)
    assert got == {"a": 1.5, "b": 3, "c": [1.0, 2.0], "d": [True, False],
                   "e": None, "f": "x/y.txt", "7": "int key"}
    assert all(type(v) is float for v in got["c"])
    with pytest.raises(TypeError):
        as_jsonable({"bad": object()})


def test_canonical_json_is_sorted_and_minimal():
    text = canonical_json({"b": 1, "a": {"d": [2.5], "c": "x"}})
    assert text == '{"a":{"c":"x","d":[2.5]},"b":1}'
    with pytest.raises(ValueError):
        canonical_json({"a": float("nan")})


def test_record_hash_known_value():
    expected = hashlib.sha256(b'{"a":1}').hexdigest()
    assert record_hash({"a": 1}) == expected
    assert record_hash({"a": np.int64(1)}) == expected


def test_write_record_round_trip(tmp_path):
    record = {"command": "hypopt", "config": {"seed": 1},
              "results": {"x": [1.0, 2.0]}, "version": "0.0.0"}
    record_path, meta_path = write_record(tmp_path, "run", record,
                                          {"wall_clock_seconds": 0.5})
    loaded = json.loads(record_path.read_text())
    assert loaded == record
    meta = json.loads(meta_path.read_text())
    assert meta["record_sha256"] == record_hash(record)
    assert meta["wall_clock_seconds"] == 0.5
    assert "created_utc" in meta
    first_bytes = record_path.read_bytes()
    write_record(tmp_path, "run", record)
    assert record_path.read_bytes() == first_bytes


def test_write_record_creates_nothing_for_a_non_finite_record(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_record(out, "run", {"results": {"x": float("inf")}})
    assert not out.exists()


def test_write_csv_full_precision(tmp_path):
    value = 0.1 + 0.2  # not exactly 0.3
    path = write_csv(tmp_path / "t.csv", ("i", "v", "tag"),
                     [(1, value, "a"), (2, 1.0, "b")])
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["i", "v", "tag"]
    assert float(rows[1][1]) == value
    assert rows[2] == ["2", "1.0", "b"]


def test_hyperparam_names():
    assert hyperparam_names("beta") == ("alpha", "beta")
    assert hyperparam_names("gaussian") == ("mu", "sigma")


def test_es_trace_rows_layout():
    trace = {"hyperparams": [[0.5, 1.5], [0.6, 1.4]],
             "mean_score": [1.0, 2.0], "best_score": [1.5, 2.5],
             "update_l1": [0.3, 0.1]}
    header, rows = es_trace_rows(trace, ("alpha", "beta"))
    assert header == ("iter", "alpha", "beta", "mean_score", "best_score",
                      "delta_l1")
    assert rows == [(1, 0.5, 1.5, 1.0, 1.5, 0.3), (2, 0.6, 1.4, 2.0, 2.5, 0.1)]


def test_curve_rows_layout():
    header, rows = curve_rows({"s1": [3.0, 2.0], "manual": [4.0]})
    assert header == ("iter", "cost", "method")
    assert rows == [(0, 3.0, "s1"), (1, 2.0, "s1"), (0, 4.0, "manual")]


def test_histogram_and_bp_rows_layout():
    header, rows = histogram_rows([{"layer": 1, "bin_left": 0.0,
                                    "bin_right": 0.1, "density": 4.0}])
    assert header == ("layer", "bin_left", "bin_right", "density")
    assert rows == [(1, 0.0, 0.1, 4.0)]
    header, rows = bp_rows([{"qubits": 2, "method": "uniform",
                             "variance": 0.07}])
    assert header == ("qubits", "method", "variance")
    assert rows == [(2, "uniform", 0.07)]
