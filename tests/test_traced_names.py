"""The benchmark's traced run (bench/layers.py) wraps qsurg functions by
name and fails when one is gone, and its desk check (bench/checks.py)
wants every ledger key; check both here, so a refactor that drops a name
or a key fails the test suite as well."""

import importlib
import importlib.util
import sys
from pathlib import Path

from qsurg import cli

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


def test_ledger_keys_are_the_benchmarks(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_checks",
                                                  BENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the module executes.
    monkeypatch.setitem(sys.modules, spec.name, checks)
    spec.loader.exec_module(checks)
    desk = cli.Desk(5, max_weight=1, samples=10, trials=1000, frames=10)
    keys = [key for check in cli.DESK_CHECKS for key, _, _ in check(desk)]
    assert keys == list(checks.DESK_KEYS)
