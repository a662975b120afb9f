"""The benchmark's span tracer finds every function and method it traces.

bench/spans.py looks each traced layer up by name, so deleting or renaming
one of them breaks every traced benchmark run; this test catches that in
the ordinary test run, then restores the package.
"""
import importlib.util
import pathlib
import sys

import numpy as np

from qinitopt import cli, differentiation, scoring, tasks
from qinitopt.records import record_hash
from qinitopt.scoring import LOG_DET, S1, ScoreSpec
from qinitopt.simulator import Observable, build_hea

REPO = pathlib.Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "qinitopt_bench_spans", REPO / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every qinitopt module attribute and traced class attribute."""
    modules = {name: dict(vars(module)) for name, module in sys.modules.items()
               if name == "qinitopt" or name.startswith("qinitopt.")}
    methods = {(cls.__name__, name): value
               for cls in (tasks.VqeTask, tasks.QmlTask)
               for name, value in vars(cls).items()}
    return modules, methods


def test_span_tracer_instruments_and_restores_the_package():
    spans = load_spans()
    before = package_bindings()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        task = tasks.make_vqe_task(Observable(((1.0, "ZZ"), (0.5, "XI"))),
                                   build_hea(1, 2))
        task.gradient(np.zeros(task.circuit.num_params))
        differentiation.jacobi_eigendecomposition(np.eye(2))
    finally:
        restore()
    names = {span[0] for span in tracer.spans}
    assert {"tasks.gradient", "tasks.exact_ground_energy",
            "differentiation.eigen"} <= names
    after = package_bindings()
    assert after[1] == before[1]
    for name, bindings in before[0].items():
        assert all(after[0][name][key] is value
                   for key, value in bindings.items()), name


def test_log_det_score_traces_its_qfim_under_the_score():
    """A log_det score builds its QFIMs through differentiation.qfim, so the
    tracer records that span inside scoring.score, and the eigensolver
    inside scoring.omega_reduce."""
    spans = load_spans()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        circ = build_hea(2, 3)
        thetas = np.random.default_rng(5).uniform(0, 1, (4, circ.num_params))
        scoring.score(thetas, circ, None, ScoreSpec(kind=S1, omega=LOG_DET))
    finally:
        restore()
    edges = {(name, parent and parent[0])
             for name, parent, *_ in tracer.spans}
    assert {("differentiation.qfim", "scoring.score"),
            ("scoring.omega_reduce", "scoring.score"),
            ("differentiation.eigen", "scoring.omega_reduce")} <= edges


def tiny_dataset(tmp_path) -> str:
    """30 rows of 2 classes: 24 train rows, at least the 4 basis rows of
    the 2-qubit classifier, so the task takes the shared path."""
    rng = np.random.default_rng(3)
    rows = ["f0,f1,f2,label"]
    for i in range(30):
        point = rng.standard_normal(3) + 2.0 * (i % 2)
        rows.append(",".join(repr(float(v)) for v in point) + f",{i % 2}")
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_traced_cli_runs_keep_their_record_hash(tmp_path):
    """Every command run under the tracer gives the untraced record: a call
    form that a tracer counter cannot take fails here, not only in a traced
    benchmark run."""
    toy = str(REPO / "hamiltonians" / "toy_2q.txt")
    h2 = str(REPO / "hamiltonians" / "h2_4q.txt")
    search = ["es.n_iters=1", "ansatz.layers=1"]
    hypopt = [f"hamiltonian={toy}", "ansatz.qubits=2", "score.kind=s3",
              *search]
    runs = (
        ("qml", [f"dataset={tiny_dataset(tmp_path)}", "pca_components=2",
                 "score_batch=8", "train.iters=2",
                 'methods=["s3","manual"]', *search]),
        ("vqe", [f"hamiltonian={toy}", "train.iters=2",
                 'methods=["s3","manual"]', *search]),
        ("hypopt", hypopt),
        ("hypopt", [*hypopt, "score.omega=log_det"]),
        # p = 72 takes the block-diagonal QFIM and the harmonic reduction
        ("hypopt", [f"hamiltonian={h2}", "score.kind=s3",
                    "score.omega=harmonic", "ansatz.layers=6",
                    "es.n_iters=1", "es.n_samples=4"]),
        ("bp-scan", ["qubit_range=[2,3]", "m_samples=4", "layers=2",
                     'methods=["uniform","s3"]', "es.n_iters=1"]),
    )
    spans = load_spans()
    for command, overrides in runs:
        run = cli.COMMANDS[command].run
        cfg = cli.resolve_config(command, overrides=overrides)
        untraced = record_hash(run(cfg))
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        try:
            traced = record_hash(run(cfg))
        finally:
            restore()
        assert tracer.spans, overrides
        assert traced == untraced, overrides
