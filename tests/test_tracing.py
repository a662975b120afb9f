"""The benchmark's span tracer finds every function and method it traces.

bench/spans.py looks each traced layer up by name, so deleting or renaming
one of them breaks every traced benchmark run; this test catches that in
the ordinary test run, then restores the package.
"""
import importlib.util
import pathlib
import sys

import numpy as np

import qinitopt.cli  # noqa: F401  (instrument needs every module imported)
from qinitopt import differentiation, tasks
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
