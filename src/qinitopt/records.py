"""Run-record serialization: canonical JSON, content hashing, CSV sidecars.

A run produces one deterministic record file (everything that identifies
and summarizes the experiment) plus a meta file holding the volatile bits:
timestamps, wall clock, and the record's content hash. Keeping those out
of the record proper makes re-runs byte-comparable.
"""
from __future__ import annotations

import csv
import datetime
import hashlib
import json
import pathlib

import numpy as np


def as_jsonable(obj):
    """Recursively convert containers and numpy values to JSON-ready types."""
    if isinstance(obj, dict):
        return {str(key): as_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_jsonable(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return as_jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, pathlib.Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a run record")


def canonical_json(record) -> str:
    """Minimal sorted-key rendering; rejects NaN and infinities."""
    return json.dumps(as_jsonable(record), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def record_hash(record) -> str:
    """sha256 over the canonical JSON form."""
    return hashlib.sha256(canonical_json(record).encode("utf-8")).hexdigest()


def write_record(out_dir, name: str, record, extra_meta=None):
    """Write `<name>.json` (deterministic bytes) and `<name>.meta.json`.

    Returns (record_path, meta_path). The meta file carries the creation
    timestamp, the record hash, and any extra entries (wall clock, worker
    count); none of it affects the record bytes. Both files are serialized
    before out_dir is created, so a record that cannot be written (a NaN
    or an infinity in it) leaves no directory behind.
    """
    body = json.dumps(as_jsonable(record), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    meta = {
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "record_sha256": record_hash(record),
    }
    if extra_meta:
        meta.update(as_jsonable(extra_meta))
    meta_body = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / f"{name}.json"
    record_path.write_text(body)
    meta_path = out_dir / f"{name}.meta.json"
    meta_path.write_text(meta_body)
    return record_path, meta_path


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))  # full round-trip precision


def write_csv(path, header, rows):
    """Flat CSV with repr-precision floats and unix line endings."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(value) for value in row])
    return path


def hyperparam_names(family: str):
    """Column names for a family's hyperparameter vector."""
    return {"beta": ("alpha", "beta"), "gaussian": ("mu", "sigma")}[family]


def es_trace_rows(trace: dict, names):
    """(header, rows) for an ES trace dict with keys hyperparams, mean_score,
    best_score, update_l1; one row per completed iteration."""
    header = ("iter", *names, "mean_score", "best_score", "delta_l1")
    rows = []
    for i, values in enumerate(trace["hyperparams"]):
        rows.append((i + 1, *values, trace["mean_score"][i],
                     trace["best_score"][i], trace["update_l1"][i]))
    return header, rows


def curve_rows(curves: dict):
    """(header, rows) for per-method cost curves: iter, cost, method."""
    header = ("iter", "cost", "method")
    rows = []
    for method, curve in curves.items():
        for i, cost in enumerate(curve):
            rows.append((i, cost, method))
    return header, rows


def histogram_rows(histogram):
    """(header, rows) for per-layer gradient-magnitude histograms."""
    header = ("layer", "bin_left", "bin_right", "density")
    rows = [(entry["layer"], entry["bin_left"], entry["bin_right"],
             entry["density"]) for entry in histogram]
    return header, rows


def bp_rows(table):
    """(header, rows) for the barren-plateau variance table."""
    header = ("qubits", "method", "variance")
    rows = [(entry["qubits"], entry["method"], entry["variance"])
            for entry in table]
    return header, rows
