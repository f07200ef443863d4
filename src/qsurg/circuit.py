"""Primitive-operation circuit IR with enumerated spacetime fault locations.

Operations are the transversal/projective primitives used throughout this
package: transversal initialization and measurement, single-qubit gate
layers (Hadamard), generalized transversal CNOTs specified by a coupling
matrix, projective Pauli-set measurements, and outcome-conditioned Pauli
feedback.

Fault locations follow the usual convention: quantum locations sit on each
touched qubit immediately after an operation (plus optional input locations
before the first step), and classical locations are single outcome bits.
Location enumeration is total and stable: `Circuit.columns()` numbers the
locations in op order from the ops' qubit arrays, and builds their `Loc`
objects only when something asks for them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import gf2


@dataclass
class InitOp:
    qubits: np.ndarray
    basis: str  # "0" or "+"


@dataclass
class HLayerOp:
    qubits: np.ndarray


@dataclass
class GCnotOp:
    """X(a[j]) applied to targets when control j is set; a is m × n."""

    controls: np.ndarray
    targets: np.ndarray
    a: np.ndarray


@dataclass
class MeasureOp:
    """Transversal measurement; one outcome per qubit, qubits consumed."""

    qubits: np.ndarray
    basis: str  # "X" or "Z"
    start: int = 0  # outcome offset, set on append


@dataclass
class ProjectiveOp:
    """Projective measurement of the commuting Pauli rows sigma(a)."""

    sigma: str  # "X" or "Z"
    a: np.ndarray
    qubits: np.ndarray
    start: int = 0


@dataclass
class FeedbackOp:
    """Pauli layer with support = (outcome bits in [src, src+count)) · m."""

    pauli: str  # "X" or "Z"
    qubits: np.ndarray
    m: np.ndarray  # count × len(qubits)
    src: int
    count: int


@dataclass(frozen=True)
class Loc:
    """One spacetime fault location.

    kind "q": the interval on `index` (a qubit id) right after op `step`
    (step -1 = circuit input).  kind "flip": outcome bit `index` (global
    outcome offset) of the measurement at op `step`.
    """

    kind: str
    step: int
    index: int


def fault_locs(x_locs, z_locs, flip_locs) -> tuple[list, list, list]:
    """The X, Z and flip locations as lists, each checked for its kind."""
    out = []
    for given, kind, fault in ((x_locs, "q", "X fault on non-qubit"),
                               (z_locs, "q", "Z fault on non-qubit"),
                               (flip_locs, "flip", "flip fault on non-classical")):
        out.append(list(given))
        for loc in out[-1]:
            if loc.kind != kind:
                raise ValueError(f"{fault} location {loc}")
    return tuple(out)


class Layout:
    """Named, ordered column groups of a lemma-level fault vector."""

    def __init__(self, groups: list[tuple[str, int]]) -> None:
        self.groups = list(groups)
        self.offsets: dict[str, int] = {}
        off = 0
        for name, width in self.groups:
            self.offsets[name] = off
            off += width
        self.total = off

    def sl(self, name: str) -> slice:
        off = self.offsets[name]
        width = dict(self.groups)[name]
        return slice(off, off + width)

    def part(self, v: np.ndarray, name: str) -> np.ndarray:
        """Group `name` of a fault vector, or of each row of a fault matrix."""
        return np.asarray(v, dtype=np.uint8)[..., self.sl(name)]

    def xor(self, v: np.ndarray, *names: str) -> np.ndarray:
        """XOR of the named groups (all of one width) of v, as in part()."""
        return functools.reduce(np.bitwise_xor,
                                (self.part(v, name) for name in names))


class Circuit:
    def __init__(self) -> None:
        self.n_qubits = 0
        self.n_outcomes = 0
        self.ops: list = []
        self.blocks: dict[str, np.ndarray] = {}
        self.input_qubits: list[int] = []
        self._cache: dict = {}

    # ── construction ────────────────────────────────────────────────

    def new_block(self, name: str, size: int) -> np.ndarray:
        ids = np.arange(self.n_qubits, self.n_qubits + size)
        self.n_qubits += size
        self.blocks[name] = ids
        return ids

    def mark_input(self, qubits) -> None:
        self._cache = {}
        self.input_qubits.extend(int(q) for q in qubits)

    def _append(self, op) -> int:
        self._cache = {}
        self.ops.append(op)
        return len(self.ops) - 1

    def init(self, qubits, basis: str) -> int:
        return self._append(InitOp(np.asarray(qubits), basis))

    def h_layer(self, qubits) -> int:
        return self._append(HLayerOp(np.asarray(qubits)))

    def gcnot(self, controls, targets, a) -> int:
        a = gf2.bitmat(a)
        controls, targets = np.asarray(controls), np.asarray(targets)
        if a.shape != (len(controls), len(targets)):
            raise ValueError("coupling matrix shape mismatch")
        return self._append(GCnotOp(controls, targets, a))

    def measure(self, qubits, basis: str) -> tuple[int, int]:
        """Append a transversal measurement; returns (op_index, outcome_start)."""
        qubits = np.asarray(qubits)
        op = MeasureOp(qubits, basis, start=self.n_outcomes)
        self.n_outcomes += len(qubits)
        return self._append(op), op.start

    def measure_pauli(self, sigma: str, a, qubits) -> tuple[int, int]:
        a = gf2.bitmat(a)
        qubits = np.asarray(qubits)
        if a.shape[1] != len(qubits):
            raise ValueError("pauli-set width mismatch")
        op = ProjectiveOp(sigma, a, qubits, start=self.n_outcomes)
        self.n_outcomes += a.shape[0]
        return self._append(op), op.start

    def feedback(self, pauli: str, qubits, m, src: int, count: int) -> int:
        m = gf2.bitmat(m)
        qubits = np.asarray(qubits)
        if m.shape != (count, len(qubits)):
            raise ValueError("feedback map shape mismatch")
        return self._append(FeedbackOp(pauli, qubits, m, src, count))

    # ── locations ───────────────────────────────────────────────────

    def cached(self, key: str, build):
        """build(self), kept until the next op or input is added."""
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

    def locations(self) -> list[Loc]:
        return self.columns().locs

    def columns(self) -> "Columns":
        """Each location's column: its index in locations()."""
        return self.cached("columns", Circuit._columns)

    def _columns(self) -> "Columns":
        # Read from the ops' qubit arrays: no Loc is built here.
        parts = [np.asarray(self.input_qubits, dtype=np.intp)]
        spans = [(0, len(parts[0]))]
        for op in self.ops:
            if isinstance(op, FeedbackOp):
                # Conditioned Pauli layers are classical frame bookkeeping;
                # their fault layer merges into the adjacent wait location
                # (each qubit's latest), which a Loc right after them names.
                qubits, flips = (), 0
            elif isinstance(op, (InitOp, HLayerOp)):
                qubits, flips = op.qubits, 0
            elif isinstance(op, GCnotOp):
                qubits, flips = np.concatenate([op.controls, op.targets]), 0
            elif isinstance(op, MeasureOp):
                qubits, flips = (), len(op.qubits)
            elif isinstance(op, ProjectiveOp):
                qubits, flips = op.qubits, op.a.shape[0]
            else:
                raise TypeError(f"unknown op {op!r}")
            parts += [np.full(flips, -1, dtype=np.intp),
                      np.asarray(qubits, dtype=np.intp)]
            start = spans[-1][1] + flips
            spans.append((start, start + len(qubits)))
        qubit = np.concatenate(parts)
        return Columns(qubit, np.flatnonzero(qubit < 0), spans,
                       tuple(self.ops))


@dataclass(frozen=True)
class Columns:
    """The columns of Circuit.locations(), one per location.

    qubit: the qubit of each column, −1 at a flip location.  flips: the
    column of each outcome bit's flip location, in outcome order.  spans:
    the (start, stop) columns of the quantum locations right after each
    op, the circuit input first.  ops: the circuit's ops, as read.  The
    Locs are built on first use: locs, the Loc of each column, and at,
    the column of each quantum Loc and of each Loc right after a
    FeedbackOp (that qubit's latest location).
    """

    qubit: np.ndarray
    flips: np.ndarray
    spans: list
    ops: tuple

    @functools.cached_property
    def locs(self) -> list[Loc]:
        qubit, locs, bit = self.qubit.tolist(), [], 0
        for step, (start, stop) in enumerate(self.spans, start=-1):
            measured = start - len(locs)
            locs += [Loc("flip", step, bit + i) for i in range(measured)]
            locs += [Loc("q", step, qubit[c]) for c in range(start, stop)]
            bit += measured
        return locs

    @functools.cached_property
    def at(self) -> dict:
        at, latest = {}, {}  # latest: qubit -> column
        for step, (start, stop) in enumerate(self.spans, start=-1):
            op = self.ops[step] if step >= 0 else None
            if isinstance(op, FeedbackOp):
                at.update((Loc("q", step, q), latest[q])
                          for q in op.qubits.tolist() if q in latest)
            elif isinstance(op, MeasureOp):
                for q in op.qubits.tolist():
                    latest.pop(q, None)
            for c in range(start, stop):
                at[self.locs[c]] = latest[self.locs[c].index] = c
        return at

    def column(self, loc: Loc) -> int:
        """A flip Loc is found by its outcome bit alone, whatever its step."""
        if loc.kind == "flip" and 0 <= loc.index < len(self.flips):
            return int(self.flips[loc.index])
        if loc.kind == "q" and loc in self.at:
            return self.at[loc]
        raise ValueError(f"{loc} is not a location of the circuit")
