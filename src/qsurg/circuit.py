"""Primitive-operation circuit IR with enumerated spacetime fault locations.

Operations are the transversal/projective primitives used throughout this
package: transversal initialization and measurement, single-qubit gate
layers (Hadamard), generalized transversal CNOTs specified by a coupling
matrix, projective Pauli-set measurements, and outcome-conditioned Pauli
feedback.

Fault locations follow the usual convention: quantum locations sit on each
touched qubit immediately after an operation (plus optional input locations
before the first step), and classical locations are single outcome bits.
Location enumeration is total and stable: `finalize()` assigns indices once
and builders may tag index groups with names.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

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

    def vector(self, parts: Optional[dict] = None) -> np.ndarray:
        v = np.zeros(self.total, dtype=np.uint8)
        for name, arr in (parts or {}).items():
            v[self.sl(name)] = arr
        return v

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
        self._locs: Optional[list[Loc]] = None

    # ── construction ────────────────────────────────────────────────

    def new_block(self, name: str, size: int) -> np.ndarray:
        ids = np.arange(self.n_qubits, self.n_qubits + size)
        self.n_qubits += size
        self.blocks[name] = ids
        return ids

    def mark_input(self, qubits) -> None:
        self.input_qubits.extend(int(q) for q in qubits)

    def _append(self, op) -> int:
        self._locs = None
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

    def locations(self) -> list[Loc]:
        if self._locs is not None:
            return self._locs
        locs: list[Loc] = [Loc("q", -1, q) for q in self.input_qubits]
        for step, op in enumerate(self.ops):
            if isinstance(op, FeedbackOp):
                # Conditioned Pauli layers are classical frame bookkeeping;
                # their fault layer merges into the adjacent wait location.
                continue
            if isinstance(op, (InitOp, HLayerOp)):
                locs.extend(Loc("q", step, int(q)) for q in op.qubits)
            elif isinstance(op, GCnotOp):
                locs.extend(Loc("q", step, int(q)) for q in op.controls)
                locs.extend(Loc("q", step, int(q)) for q in op.targets)
            elif isinstance(op, MeasureOp):
                locs.extend(Loc("flip", step, op.start + i)
                            for i in range(len(op.qubits)))
            elif isinstance(op, ProjectiveOp):
                locs.extend(Loc("flip", step, op.start + i)
                            for i in range(op.a.shape[0]))
                locs.extend(Loc("q", step, int(q)) for q in op.qubits)
            else:
                raise TypeError(f"unknown op {op!r}")
        self._locs = locs
        return locs
