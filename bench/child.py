"""One workload run in a fresh interpreter, started by run.py.

Usage: child.py JOB, where JOB is a JSON object with keys t0 (the parent's
time.monotonic() just before it started this process), command, overrides,
seed, out, trace (0 or 1) and setup_only. The working directory is the
checkout root and `src` is on PYTHONPATH.

Set-up ends once `qinitopt` is imported and the config is resolved, as in
every CLI call; a machine-speed probe (calibrate.py) follows, and a set-up
probe stops there. A workload run then times the cmd_* call (wall and
process CPU), probes the speed again, writes the CLI outputs and prints one
JSON line with its measurements, the record hash and, when traced, the
per-layer metrics. Errors propagate: a failed run exits non-zero.
"""
import json
import sys
import time


def main(argv) -> int:
    job = json.loads(argv[1])
    from qinitopt import cli
    cfg = cli.resolve_config(job["command"], overrides=job["overrides"],
                             seed=job["seed"], out=job["out"], workers=1)
    setup_s = time.monotonic() - job["t0"]
    import calibrate
    probe_before = calibrate.probe_s()
    if job["setup_only"]:
        print(json.dumps({"setup_s": setup_s, "probe_s": [probe_before]}))
        return 0

    import os
    import pathlib
    import resource

    import numpy as np
    from qinitopt.records import record_hash

    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer)
    runner = getattr(cli, "cmd_" + job["command"].replace("-", "_"))
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    record = runner(cfg)
    run_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    probe_after = calibrate.probe_s()
    written = cli.write_outputs(job["command"], cfg, record, run_s)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "probe_s": [probe_before, probe_after],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "record_sha256": record_hash(record),
        "record_path": str(written[0]),
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}",
                "thread_env": {
                    key: os.environ[key] for key in sorted(os.environ)
                    if key.endswith("_NUM_THREADS")
                    or key == "VECLIB_MAXIMUM_THREADS"}},
    }
    if tracer is not None:
        pathlib.Path(job["out"], "spans.json").write_text(
            json.dumps(tracer.dump()))
        result["layers"] = {name: value for name, (value, _unit)
                            in spans.layer_metrics(tracer.spans).items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
