"""The benchmark's tracer wraps `operadlab` functions and methods by name
(`bench/tracer.py`, `_targets`).  A name it lists must stay in the
package, and every name a workload must reach must keep a caller, or the
benchmark's traced runs break; these tests fail first."""

import importlib.util
from pathlib import Path

import pytest

import operadlab

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _load_tracer():
    return _load("bench_tracer", TRACER)


def test_every_traced_name_exists():
    targets = _load_tracer()._targets(operadlab)
    assert targets
    missing = []
    for name, owner, attr, _ in targets:
        # the tracer reads a class attribute from the class's own __dict__
        present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if not present:
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("workload", ["results_table", "full_tower", "star_product",
                                      "multimap"])
def test_traced_pass_passes_the_selftest(workload, monkeypatch):
    # one untraced and one traced pass, as `bench/run.py --trace 1` runs
    # them: no op fails, the outputs agree, and every traced name the
    # workload must reach (e.g. checkers.BPoly.mul on results_table) is
    # called while the names of unused layers are not (e.g. Scalar.inverse
    # and pgcd on star_product, every scalar and free3 name on multimap)
    monkeypatch.syspath_prepend(str(BENCH))     # run.py imports calib
    run = _load("bench_run", BENCH / "run.py")
    workloads = _load("bench_workloads", BENCH / "workloads.py")
    wl = workloads.WORKLOADS[workload](1)
    log = workloads.OpLog()
    tracer = _load_tracer().Tracer(operadlab)
    plain, traced, same = run.measure_traced(wl, log, tracer, 0)
    assert log.failed == 0, log.errors
    assert same
    assert run.selftest(workload, tracer.metrics(passes=len(traced))) == []
