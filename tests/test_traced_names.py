"""The benchmark's traced run (bench/layers.py) wraps qsurg functions by
name and fails when one is gone, and its desk check (bench/checks.py)
wants every ledger key; check both here, so a refactor that drops a name
or a key fails the test suite as well."""

import ast
import importlib
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

from qsurg import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(cli.__file__).resolve().parent


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



def _defined_names(tree):
    """(name, def node, whether it is a method) of every module-level
    function and class, and of every method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield item.name, item, True


def _uses(tree, attributes=False):
    """How often each name is used in code: as an attribute, and unless
    `attributes` is set as a variable or an imported name (docstrings and
    comments do not count)."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif attributes:
            continue
        elif isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.alias):
            uses[node.name.split(".")[-1]] += 1
    return uses


def test_every_src_name_is_reached():
    """A function, class or method of src/ that no code of src/ uses
    outside its own def, and that bench/ does not name, is reached only
    from tests: it belongs in the tests or nowhere.  A method or property
    is reached only as an attribute, so a local variable of the same name
    does not count.  bench/ is scanned word by word, as its TARGETS name
    functions in strings."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = [sum((_uses(tree, method) for tree in trees.values()), Counter())
            for method in (False, True)]
    bench = Counter(re.findall(r"\w+", "".join(
        path.read_text(encoding="utf-8") for path in BENCH.glob("*.py"))))
    unreached = [f"{path.stem}.{name}"
                 for path, tree in trees.items()
                 for name, node, method in _defined_names(tree)
                 if used[method][name] <= _uses(node, method)[name]
                 and not bench[name]]
    assert unreached == []


def test_every_src_import_is_used():
    """A module-level import of src/ that its module's code never names
    (docstrings and comments do not count) is dead: a refactor that drops
    a module's last use of an import drops the import too."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.stem}: {alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0])
                           not in names]
    assert unused == []
