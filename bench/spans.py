"""Span tracing of the qinitopt layers from outside the package.

`instrument` wraps the public functions of each layer in every qinitopt
module that holds a reference to them: `from .x import f` binds a copy, so
patching only the defining module would miss the calls made through
`tasks`, `differentiation`, `cli` and the other importers. Each call becomes
one span (name, parent span, start, end, work counts). Spans stay in memory
with one open-span stack per thread; `layer_metrics` turns them into the
per-layer metrics once the run has ended.

Counts are computed at the boundary from argument shapes and results, so
they are exact and repeat from run to run; times are self times, a span's
duration minus the time its child spans cover.
"""
from __future__ import annotations

import collections
import functools
import statistics
import sys
import threading
import time

# A kernel pass reads and writes every amplitude of a row once: 2 x 16 bytes
# per complex128 amplitude. A ROT gate is three passes (RZ, RY, RZ).
_BYTES_PER_AMPLITUDE_PASS = 32
_ROT_PASSES = 3


class Tracer:
    """In-memory span store with one stack of open spans per thread."""

    def __init__(self):
        self.spans = []  # [name, parent span or None, start, end, counts]
        self._local = threading.local()

    def wrap(self, name, fn, count=None):
        """fn traced as span `name`; count(result, *args, **kwargs) -> dict."""
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, stack[-1] if stack else None, clock(), None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(result, *args, **kwargs)
            return result

        return traced

    def dump(self) -> list:
        """Spans as JSON rows [name, parent index, start, end, counts]."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [[name, -1 if parent is None else index[id(parent)],
                 start, end, counts]
                for name, parent, start, end, counts in self.spans]


def _run_gates_counts(result, gates, num_qubits, thetas, features=None):
    rows = thetas.shape[0]
    passes = sum(_ROT_PASSES if gate.kind == "rot" else 1 for gate in gates)
    return {"rows": rows, "gate_applications": rows * len(gates),
            "bytes_computed": rows * passes * _BYTES_PER_AMPLITUDE_PASS
            * (1 << num_qubits)}


def _expectation_counts(result, state, obs):
    rows = state.size // state.shape[-1]
    return {"term_rows": rows * len(obs.terms)}


def _eigen_counts(result, matrix, *args, **kwargs):
    return {"dim": len(matrix)}


def _es_counts(result, score_eval, hp0, cfg, *args, **kwargs):
    iterations = result[1].n_iterations
    return {"iterations": iterations, "rollouts": iterations * cfg.n_samples}


def _train_counts(result, task, theta0, iters=100, lr=0.01):
    return {"steps": iters}


def _file_bytes(result, *args, **kwargs):
    paths = result if isinstance(result, tuple) else (result,)
    return {"bytes": sum(path.stat().st_size for path in paths)}


# (span name, defining module, function name, counter)
_FUNCTIONS = (
    ("simulator.apply_circuit", "simulator", "apply_circuit", None),
    ("simulator.run_gates", "simulator", "run_gates", _run_gates_counts),
    ("simulator.expectation", "simulator", "expectation",
     _expectation_counts),
    ("differentiation.gradient", "differentiation", "gradient", None),
    ("differentiation.qfim", "differentiation", "qfim", None),
    ("differentiation.eigen", "differentiation", "jacobi_eigendecomposition",
     _eigen_counts),
    ("scoring.score", "scoring", "score", None),
    ("scoring.omega_reduce", "scoring", "omega_reduce", None),
    ("es.es_optimize", "es", "es_optimize", _es_counts),
    ("tasks.train", "tasks", "train", _train_counts),
    ("tasks.cost", "tasks", "qml_cost_batch", None),
    ("tasks.exact_ground_energy", "tasks", "exact_ground_energy", None),
    ("distributions.sample_params", "distributions", "sample_params", None),
    ("records.write", "records", "write_record", _file_bytes),
    ("records.write", "records", "write_csv", _file_bytes),
    *(("data", "data", name, None)
      for name in ("load_csv", "load_hamiltonian", "fit_pca", "pca_transform",
                   "fit_scaler", "scale_features", "split_80_20",
                   "stratified_subsample")),
    *(("cli", "cli", f"cmd_{name}", None)
      for name in ("hypopt", "vqe", "qml", "grad_profile", "bp_scan")),
)

# (span name, defining module, class name, method name)
_METHODS = (
    ("tasks.gradient", "tasks", "VqeTask", "gradient"),
    ("tasks.gradient", "tasks", "QmlTask", "gradient"),
    ("tasks.cost", "tasks", "VqeTask", "cost_value"),
    ("tasks.cost", "tasks", "VqeTask", "cost_batch"),
    ("tasks.cost", "tasks", "QmlTask", "cost_value"),
)


def instrument(tracer: Tracer):
    """Patch every traced layer function and method; returns an undo callable.

    qinitopt must already be imported. Every qinitopt module attribute that
    is the original function object is replaced, which covers the copies
    bound by `from .x import f`.
    """
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "qinitopt" or name.startswith("qinitopt.")]
    undo = []
    for span, home, attr, count in _FUNCTIONS:
        original = getattr(sys.modules[f"qinitopt.{home}"], attr)
        wrapper = tracer.wrap(span, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    for span, home, cls_name, attr in _METHODS:
        cls = getattr(sys.modules[f"qinitopt.{home}"], cls_name)
        original = vars(cls)[attr]
        setattr(cls, attr, tracer.wrap(span, original))
        undo.append((cls, attr, original))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


def _tail(durations) -> float:
    """The highest percentile with at least ten samples beyond it, the
    100 (n - 10) / n percentile of n samples; 0 when n <= 10."""
    n = len(durations)
    return sorted(durations)[n - 11] if n > 10 else 0.0


def _aggregate(spans):
    covered = collections.Counter()
    for name, parent, start, end, counts in spans:
        if parent is not None:
            covered[id(parent)] += end - start
    layers = collections.defaultdict(lambda: {
        "calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [],
        "counts": collections.Counter(), "max_dim": 0})
    for span in spans:
        name, parent, start, end, counts = span
        layer = layers[name]
        layer["calls"] += 1
        layer["total_s"] += end - start
        layer["self_s"] += end - start - covered[id(span)]
        layer["durations"].append(end - start)
        if counts:
            layer["counts"].update(counts)
            layer["max_dim"] = max(layer["max_dim"], counts.get("dim", 0))
    return layers


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics {name: (value, unit)} from finished spans; span
    names and counts follow `_FUNCTIONS` and `_METHODS`."""
    layers = _aggregate(spans)
    get = layers.__getitem__
    sim_rows = get("simulator.run_gates")["counts"]["rows"]
    gates = get("simulator.run_gates")["counts"]["gate_applications"]
    rollouts = get("es.es_optimize")["counts"]["rollouts"]
    steps = get("tasks.train")["counts"]["steps"]
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for span in ("simulator.apply_circuit", "simulator.run_gates",
                 "simulator.expectation", "differentiation.gradient",
                 "differentiation.qfim", "differentiation.eigen",
                 "scoring.score", "tasks.gradient", "tasks.cost",
                 "distributions.sample_params"):
        put(f"{span}.calls", get(span)["calls"], "count")
        put(f"{span}.self_s", get(span)["self_s"], "s")
    for span in ("scoring.omega_reduce", "es.es_optimize", "tasks.train",
                 "tasks.exact_ground_energy", "data", "cli"):
        put(f"{span}.self_s", get(span)["self_s"], "s")
    for span in ("scoring.score", "tasks.gradient"):
        durations = get(span)["durations"]
        put(f"{span}.p50_ms",
            1e3 * statistics.median(durations) if durations else 0.0, "ms")
        put(f"{span}.tail_ms", 1e3 * _tail(durations), "ms")
    put("simulator.rows", sim_rows, "count")
    put("simulator.rows_per_call",
        _ratio(sim_rows, get("simulator.run_gates")["calls"]), "rows/call")
    put("simulator.gate_applications", gates, "count")
    put("simulator.gate_rate",
        _ratio(gates, get("simulator.run_gates")["total_s"]), "1/s")
    put("simulator.bytes_computed",
        get("simulator.run_gates")["counts"]["bytes_computed"], "bytes")
    put("simulator.expectation.term_rows",
        get("simulator.expectation")["counts"]["term_rows"], "count")
    put("differentiation.eigen.max_dim",
        get("differentiation.eigen")["max_dim"], "count")
    put("es.iterations", get("es.es_optimize")["counts"]["iterations"],
        "count")
    put("es.rollouts", rollouts, "count")
    put("es.rollouts_per_s",
        _ratio(rollouts, get("es.es_optimize")["total_s"]), "1/s")
    put("tasks.train.steps", steps, "count")
    put("tasks.train.steps_per_s",
        _ratio(steps, get("tasks.train")["total_s"]), "1/s")
    put("records.write_s", get("records.write")["total_s"], "s")
    put("records.bytes", get("records.write")["counts"]["bytes"], "bytes")
    return out
