"""The benchmark's traced run (bench/layers.py) wraps qsurg functions by
name and fails when one is gone; check here that every name still exists,
so a refactor that drops one fails the test suite as well."""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # layers.py imports tracing
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for target in layers.TARGETS:
        module, *owners, leaf = target.path.split(".")
        owner = importlib.import_module(f"qsurg.{module}")
        for attr in owners:
            owner = getattr(owner, attr, None)
        # A method must be defined on the class itself, as the tracer
        # patches it there.
        if owner is None or vars(owner).get(leaf) is None:
            missing.append(target.path)
    assert layers.TARGETS and not missing
