"""Print the time of one simulator step for each gate kind and target, of
one adjoint gradient, and of bp-scan's variance call at each qubit count,
all in one process.

    python3 tools/step_timings.py [--repeats N]

The first line is the numpy dispatch line of tools/record_hashes.py, as
timings, like record bits, hold only per numpy build and dispatch level.
Then, at (100, 2^8), (16, 2^4), (8, 2^4) and (4, 2^4) state batches (the
last two are vqe training's adjoint and forward batches on h2), one line
per gate kind gives the microseconds of one simulator.apply_gate step at
each target t = 0 .. n - 1: rx, ry and rz with one angle row per state
row, as the engines run them, and cnot and cz as one-gate runs whose
control is qubit t - 1 (mod n). Every step gets a scratch of twice the
state, which holds what either RX/RY form needs. Next comes the
microseconds of one differentiation.adjoint_gradient call at B = 4 on the
8-layer, 4-qubit strongly-entangling circuit, the shape of a vqe training
step's backward pass. The next lines give the milliseconds of bp-scan's
variance call, expectation(apply_circuit(...)) on 100 rows of its
two-design circuit, at n = 2, 4, 6 and 8, and the last line the
milliseconds of one data.load_csv call on each shipped dataset. Each
figure is the minimum over N repeats (default 15) of the mean of a timed
loop. Comparing the output at two commits on one host shows what a
kernel change moved.
"""
from __future__ import annotations

import argparse
import pathlib
import sys
import timeit

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHAPES = ((100, 8), (16, 4), (8, 4), (4, 4))
ADJOINT_ROWS = 4
DATASETS = ("wine", "breast_cancer", "digits")
VARIANCE_ROWS = 100


def best(call, repeats: int, seconds: float = 0.02) -> float:
    """The minimum over repeats of call's mean time in seconds, each
    repeat a loop of about `seconds`."""
    timer = timeit.Timer(call)
    number = max(1, int(seconds / max(timer.timeit(1), 1e-7)))
    return min(timer.repeat(repeats, number)) / number


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from record_hashes import dispatch_line
    from qinitopt import cli
    from qinitopt.data import load_csv
    from qinitopt.differentiation import adjoint_gradient
    from qinitopt.simulator import (CNOT, CZ, ROTATION_KINDS, Gate,
                                    angle_table, apply_circuit, apply_gate,
                                    build_strongly_entangling,
                                    build_two_design, expectation, gate_plan,
                                    run_gates)

    print(dispatch_line(), flush=True)
    rng = np.random.default_rng(0)
    for rows, n in SHAPES:
        print(f"# apply_gate at ({rows}, 2^{n}), us per step at targets "
              f"0..{n - 1}", flush=True)
        state = (rng.standard_normal((rows, 1 << n))
                 + 1j * rng.standard_normal((rows, 1 << n)))
        state /= np.linalg.norm(state, axis=1, keepdims=True)
        scratch = np.empty(2 * state.size, dtype=complex)
        thetas = rng.uniform(0, 2 * np.pi, (rows, 1))
        for kind in ROTATION_KINDS + (CNOT, CZ):
            times = []
            for t in range(n):
                gate = (Gate(kind, t, param_slot=0) if kind in ROTATION_KINDS
                        else Gate(kind, t, control=(t - 1) % n))
                table = angle_table((gate,), thetas)
                step, = gate_plan((gate,), n)
                times.append(best(
                    lambda: apply_gate(state, step, table, scratch),
                    args.repeats))
            print(f"{kind:5}" + "".join(f"{1e6 * s:8.1f}" for s in times),
                  flush=True)
    circuit = build_strongly_entangling(8, 4)
    thetas = rng.uniform(0, 2 * np.pi, (ADJOINT_ROWS, circuit.num_params))
    psi = run_gates(circuit.gates, 4, thetas)
    seconds = best(lambda: adjoint_gradient(circuit, thetas, psi, psi[::-1]),
                   args.repeats)
    print(f"# adjoint_gradient, B = {ADJOINT_ROWS}, 8 x 4 strongly-entangling,"
          f" us\n{1e6 * seconds:8.1f}", flush=True)
    bp = cli.default_config("bp-scan")
    print(f"# bp-scan variance call, {VARIANCE_ROWS} rows, "
          f"{bp['layers']} layers, ms", flush=True)
    for n in bp["qubit_range"]:
        circuit = build_two_design(bp["layers"], n, bp["structure_seed"])
        obs = cli._default_observable(n)
        thetas = rng.uniform(0, 2 * np.pi, (VARIANCE_ROWS, circuit.num_params))
        seconds = best(lambda: expectation(apply_circuit(circuit, thetas), obs),
                       args.repeats)
        print(f"n={n} {1e3 * seconds:8.3f}", flush=True)
    print("# load_csv of each shipped dataset, ms", flush=True)
    line = []
    for name in DATASETS:
        path = ROOT / "datasets" / f"{name}.csv"
        seconds = best(lambda: load_csv(path), args.repeats)
        line.append(f"{name} {1e3 * seconds:.3f}")
    print("  ".join(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
