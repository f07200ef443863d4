"""Span tracing of qsurg's functions, installed from outside the package.

A :class:`Tracer` replaces chosen module functions and class methods with
wrappers that record one span per call: name, start, end and parent span;
every span of one process shares the tracer's run id.  Spans are kept in
memory in flat typed arrays (28 bytes each) and written out by
:meth:`Tracer.write` when the run ends.  Self time is computed from the
spans afterwards: a span's duration minus the durations of its direct
children, which nest inside it because the workloads run on one thread.

Counts are recorded at the same boundaries through per-target hooks that
see a call's arguments and result (for example the entries of a built
lookup table), so ratios are measured where the work happens.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Hook = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One traced callable: `path` inside qsurg, recorded under `span`.

    `path` is "module.function", "module.Class.method" or
    "module.Class.staticmethod".  Several targets may share one span name;
    their self times then add up without double counting.
    """

    path: str
    span: str
    hook: Optional[Hook] = None


class Tracer:
    """Collects spans and counters for one traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # ── recording ──────────────────────────────────────────────────────

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def note_distinct(self, key: str, value) -> None:
        self.distinct.setdefault(key, set()).add(value)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, span: str, hook: Optional[Hook] = None):
        nid = self._name_id(span)
        name_idx, parent, start, end = (self.name_idx, self.parent,
                                        self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_idx)
            name_idx.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    # ── installing ─────────────────────────────────────────────────────

    def install(self, targets: list[Target], package: str = "qsurg") -> None:
        """Patch every target; a path that no longer exists is listed in
        `missing` and skipped (bench/worker.py then fails the traced run)."""
        for t in targets:
            parts = t.path.split(".")
            try:
                module = importlib.import_module(f"{package}.{parts[0]}")
            except ImportError:
                self.missing.append(t.path)
                continue
            owner = module
            for attr in parts[1:-1]:
                owner = getattr(owner, attr, None)
                if owner is None:
                    break
            leaf = parts[-1]
            if owner is None or not hasattr(owner, leaf):
                self.missing.append(t.path)
                continue
            if isinstance(owner, type):
                raw = owner.__dict__.get(leaf)
                if raw is None:  # inherited: patch where it is defined
                    self.missing.append(t.path)
                    continue
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(raw.__func__, t.span, t.hook))
                else:
                    new = self.wrap(raw, t.span, t.hook)
                self._restore.append((owner, leaf, raw))
                setattr(owner, leaf, new)
                continue
            orig = getattr(owner, leaf)
            new = self.wrap(orig, t.span, t.hook)
            # Rebind the name in every package module that imported the
            # same function object by name.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package
                                       or mod_name.startswith(package + ".")):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ── analysis ───────────────────────────────────────────────────────

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the span arrays; call only after recording has ended."""
        return {
            "name_idx": np.frombuffer(self.name_idx, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self_s, computed from the spans."""
        return summarize(self.arrays(), self.names)

    def child_calls(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        a = self.arrays()
        par = a["parent"]
        has_parent = par >= 0
        child_mask = a["name_idx"] == self._name_ids[child]
        parent_of = np.full(len(par), -1, dtype=np.int64)
        parent_of[has_parent] = a["name_idx"][par[has_parent]]
        return int(np.count_nonzero(child_mask
                                    & (parent_of == self._name_ids[parent])))

    def write(self, path: str) -> None:
        """Write every span (and the run id and span names) to an .npz file."""
        np.savez(path, run_id=np.array(self.run_id),
                 names=np.array(self.names, dtype=str),
                 **self.arrays())


def summarize(spans: dict[str, np.ndarray], names: list[str]) -> dict:
    name_idx, parent = spans["name_idx"], spans["parent"]
    dur = spans["end"] - spans["start"]
    self_t = dur.copy()
    has_parent = parent >= 0
    if has_parent.any():
        self_t -= np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
    calls = np.bincount(name_idx, minlength=len(names))
    self_s = np.bincount(name_idx, weights=self_t, minlength=len(names))
    return {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(names)}
