"""The benchmark's tracer wraps `operadlab` functions and methods by name
(`bench/tracer.py`, `_targets`).  A name it lists must stay in the
package, or the benchmark's traced runs break; this test fails first."""

import importlib.util
from pathlib import Path

import operadlab

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
