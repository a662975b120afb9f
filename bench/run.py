"""Benchmark of the qinitopt CLI on four workloads.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Run from anywhere; every run uses the checkout root (the parent of this
directory) as its working directory and `src` as the package source. Each
workload in spec.json is one CLI config, run with the given seed in a fresh
interpreter (child.py) with workers=1 and the user's default thread
settings.

--trace 0  Set-up probes, then workload runs repeated until --seconds is
           spent. Prints the medians of setup_s, run_s, cpu_s and
           peak_rss_mb, and error_rate.
--trace 1  One untraced and one traced run. Prints the per-layer metrics of
           the traced run and trace.overhead_frac; the two record hashes
           must agree.

setup_s, run_s and cpu_s are each process's times scaled by
calibrate.NOMINAL_S over the mean of its machine-speed probes (calibrate.py),
taken right after set-up and, in a workload run, again after the cmd_* call:
on a shared host the speed of a core drifts by tens of percent within
minutes, and a probe timed within a second or two of the work cancels most
of that drift. The unscaled medians are printed as well.

Every record is checked with checks.py: invariants at any seed, reference
values at the reference seed. The last line of standard output is one JSON
object {correct, attempted, failed, metrics}. --workload all, the default,
runs every workload with tracing off and then on. Raw per-run data goes to
.bench_runs/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import spans

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = pathlib.Path(".bench_runs")  # relative to ROOT, the children's cwd
SPEC = json.loads((BENCH / "spec.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())
WORKLOADS = {w["name"]: w for w in SPEC["workloads"]}

SETUP_PROBES = 3  # plus one discarded warm-up that fills bytecode caches
BUDGET_S = 170.0  # every invocation must end within 180 s
E2E_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class RunFailed(Exception):
    pass


def _child(job: dict, deadline: float) -> dict:
    """Start child.py on `job` and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    job = {**job, "t0": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed("timed out") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RunFailed(f"exit code {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _job(workload: str, seed: int, trace: int, setup_only: bool,
         out: str) -> dict:
    spec = WORKLOADS[workload]
    return {"command": spec["command"], "overrides": spec["set"],
            "seed": seed, "trace": trace, "setup_only": setup_only,
            "out": str(RUNS / out)}


def _workload_run(workload: str, seed: int, trace: int,
                  deadline: float) -> dict:
    """One checked workload run; result["problems"] lists why it failed."""
    out = workload + ("-traced" if trace else "")
    try:
        result = _child(_job(workload, seed, trace, False, out), deadline)
    except RunFailed as exc:
        return {"problems": [f"run failed: {exc}"]}
    record = json.loads((ROOT / result["record_path"]).read_text())
    problems = checks.invariant_problems(record)
    result["key_results"] = None if problems else checks.key_results(record)
    reference = REFERENCE["workloads"][workload]
    if seed == REFERENCE["seed"]:
        result["reference_sha256_match"] = (
            result["record_sha256"] == reference["record_sha256"])
        if not problems:
            problems = checks.reference_problems(
                record, reference["values"], REFERENCE["rtol"],
                REFERENCE["atol"])
    result["problems"] = problems
    return result


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _env_stamp(seed: int, runs: list) -> dict:
    stamp = {"nproc": os.cpu_count(),
             "usable_cpus": len(os.sched_getaffinity(0)),
             "git_commit": _git_commit(), "seed": seed}
    for run in runs:
        if "env" in run:
            stamp.update(run["env"])
            break
    return stamp


def _speed_scale(run: dict) -> float:
    """Factor that brings a run's times to the probe's nominal speed."""
    return calibrate.NOMINAL_S / statistics.mean(run["probe_s"])


def _describe(index: int, run: dict) -> str:
    if "run_s" not in run:
        return f"run {index}: {'; '.join(run['problems'])}"
    text = (f"run {index}: unscaled setup {run['setup_s']:.4f} s, run "
            f"{run['run_s']:.4f} s, cpu {run['cpu_s']:.4f} s; speed scale "
            f"{_speed_scale(run):.4f}; rss {run['peak_rss_mb']:.1f} MB, "
            f"record {run['record_sha256'][:16]}")
    if "reference_sha256_match" in run:
        text += (" (reference hash " + ("matches" if run[
            "reference_sha256_match"] else "differs") + ")")
    if run["problems"]:
        text += "; FAILED: " + "; ".join(run["problems"])
    return text


def measure_untraced(workload: str, seed: int, seconds: float,
                     deadline: float) -> tuple[dict, list, int]:
    """Set-up probes, then workload runs until `seconds` is spent.

    Returns the metrics, the runs and the number of set-up samples.
    """
    started = time.monotonic()
    probe = _job(workload, seed, 0, True, workload)
    _child(probe, deadline)
    setups = [_child(probe, deadline) for _ in range(SETUP_PROBES)]
    runs = []
    longest = 0.0
    while not runs or (time.monotonic() - started + longest <= seconds):
        begun = time.monotonic()
        runs.append(_workload_run(workload, seed, 0, deadline))
        longest = max(longest, time.monotonic() - begun)
    done = [run for run in runs if "run_s" in run]
    if not done:
        raise RunFailed("no workload run completed: "
                        + "; ".join(runs[0]["problems"]))
    metrics = {"peak_rss_mb": statistics.median(
        run["peak_rss_mb"] for run in done)}
    for name, samples in (("setup_s", setups + done), ("run_s", done),
                          ("cpu_s", done)):
        metrics[name] = statistics.median(run[name] * _speed_scale(run)
                                          for run in samples)
        metrics["raw_" + name] = statistics.median(run[name]
                                                   for run in samples)
    return metrics, runs, len(setups) + len(done)


def measure_traced(workload: str, seed: int,
                   deadline: float) -> tuple[dict, list]:
    """One untraced and one traced run; per-layer metrics from the latter."""
    runs = [_workload_run(workload, seed, trace, deadline)
            for trace in (0, 1)]
    plain, traced = runs
    if "layers" not in traced:
        raise RunFailed("traced run did not complete: "
                        + "; ".join(traced["problems"]))
    if "run_s" in plain and plain["record_sha256"] != traced["record_sha256"]:
        traced["problems"].append("traced record hash differs from the "
                                  "untraced one")
    metrics = dict(traced["layers"])
    if "run_s" in plain:
        metrics["trace.overhead_frac"] = (
            traced["run_s"] * _speed_scale(traced)
            / (plain["run_s"] * _speed_scale(plain)) - 1.0)
    return metrics, runs


def _layer_units() -> dict:
    units = {name: unit
             for name, (_value, unit) in spans.layer_metrics([]).items()}
    units["trace.overhead_frac"] = "ratio"
    return units


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print its report, return the result object."""
    deadline = time.monotonic() + BUDGET_S
    print(f"== {workload} (seed {seed}, trace {trace}): "
          f"{WORKLOADS[workload]['command']} "
          + " ".join(f"--set {item}" for item in WORKLOADS[workload]["set"]))
    if trace:
        metrics, runs = measure_traced(workload, seed, deadline)
        units = _layer_units()
    else:
        metrics, runs, setup_samples = measure_untraced(
            workload, seed, seconds, deadline)
        units = E2E_UNITS
    env = _env_stamp(seed, runs)
    print("env: " + json.dumps(env, sort_keys=True))
    for index, run in enumerate(runs, start=1):
        print(_describe(index, run))
    failed = sum(1 for run in runs if run["problems"])
    for name in sorted(metrics) if trace else E2E_UNITS:
        line = f"  {name:<40} {metrics[name]:>16.6g} {units[name]}"
        if name.endswith(".tail_ms"):
            calls = metrics[name.replace(".tail_ms", ".calls")]
            if calls > 10:
                pct = 100 * (calls - 10) / calls
                line += f"  (p{pct:.2f} of {calls} calls)"
        print(line)
    if not trace:
        print(f"  {'setup_s, run_s, cpu_s unscaled':<40} "
              f"{metrics.pop('raw_setup_s'):>16.6g} s, "
              f"{metrics.pop('raw_run_s'):.6g} s, "
              f"{metrics.pop('raw_cpu_s'):.6g} s")
        print(f"  {'error_rate':<40} {failed / len(runs):>16.6g} fraction"
              f"  ({failed} of {len(runs)} runs failed; setup_s from "
              f"{setup_samples} samples, the rest from {len(runs)} runs)")
    result = {"correct": failed == 0, "attempted": len(runs),
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in sorted(metrics)}}
    dump = ROOT / RUNS / f"result-{workload}-trace{trace}.json"
    dump.parent.mkdir(parents=True, exist_ok=True)
    dump.write_text(json.dumps({"workload": workload, "env": env,
                                "runs": runs, **result}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE["seed"])
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: 0 for one workload, both for all")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    missing = [path for path in ("src/qinitopt/cli.py",
                                 "datasets/breast_cancer.csv",
                                 "hamiltonians/h2_4q.txt")
               if not (ROOT / path).is_file()]
    if missing:
        print(f"error: not a qinitopt checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        plan = [(args.workload, args.trace or 0)]
    else:
        traces = (0, 1) if args.trace is None else (args.trace,)
        plan = [(name, trace) for name in WORKLOADS for trace in traces]
    results = {}
    try:
        for workload, trace in plan:
            results[workload, trace] = run_one(workload, args.seed,
                                               args.seconds, trace)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(plan) == 1:
        summary = results[plan[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{workload}.{name}": value
                        for (workload, _t), r in results.items()
                        for name, value in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
