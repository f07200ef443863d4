"""Stabilizer-tableau simulator (independent oracle for the frame simulator).

Standard destabilizer/stabilizer tableau with sign tracking.  Supports the
circuit IR directly, general commuting-Pauli-set measurements, and forced
outcomes; `force_zero` runs validate the all-zero reference trajectory that
the Pauli-frame simulator relies on.

A measurement costs no Python loop over tableau rows: anticommutation is
read from the measured Pauli's support columns, a random outcome multiplies
the pivot stabilizer into every anticommuting row in one vectorised
phase-tracked rowsum, and a deterministic sign is accumulated over prefix
XORs of the contributing stabilizer rows (Aaronson–Gottesman,
arXiv:quant-ph/0406196).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gf2
from .circuit import (Circuit, FeedbackOp, GCnotOp, HLayerOp, InitOp,
                      MeasureOp, ProjectiveOp)


class Tableau:
    """Aaronson–Gottesman tableau over n qubits, initialized to |0…0⟩."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = True
            self.z[n + i, i] = True

    # ── gates ───────────────────────────────────────────────────────

    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def cnot(self, c: int, t: int) -> None:
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ True)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def pauli_x(self, q: int) -> None:
        self.r ^= self.z[:, q].astype(np.uint8)

    def pauli_z(self, q: int) -> None:
        self.r ^= self.x[:, q].astype(np.uint8)

    # ── phase-tracked row multiplication ────────────────────────────

    @staticmethod
    def _g(x1, z1, x2, z2):
        """Per-column exponent of i picked up by the product P1·P2."""
        x1, z1 = x1.astype(np.int8), z1.astype(np.int8)
        x2, z2 = x2.astype(np.int8), z2.astype(np.int8)
        return (x1 & z1) * (z2 - x2) \
            + (x1 & ~z1 & 1) * (z2 * (2 * x2 - 1)) \
            + (~x1 & 1 & z1) * (x2 * (1 - 2 * z2))

    # ── measurement ─────────────────────────────────────────────────

    def _anticommute(self, xv, zv) -> np.ndarray:
        """Rows anticommuting with P, read from P's support columns only."""
        supp = np.flatnonzero(xv | zv)
        odd = (self.x[:, supp] & zv[supp]) ^ (self.z[:, supp] & xv[supp])
        return np.bitwise_xor.reduce(odd, axis=1)

    def _stabilizer_sign(self, anti, xv, zv) -> int:
        """Sign bit of +P from the stabilizers paired with `anti` destabilizers.

        The stabilizer rows s_1..s_m whose destabilizers anticommute with P
        multiply to ±P.  Row k is multiplied into the product of the rows
        before it, so its phase term is g(s_k, s_1·…·s_{k-1}); an exclusive
        prefix XOR gives every such partial product at once.
        """
        rows = self.n + np.flatnonzero(anti[:self.n])
        xs, zs = self.x[rows], self.z[rows]
        px = np.bitwise_xor.accumulate(xs, axis=0)
        pz = np.bitwise_xor.accumulate(zs, axis=0)
        xh = px[-1] if rows.size else np.zeros(self.n, dtype=bool)
        zh = pz[-1] if rows.size else np.zeros(self.n, dtype=bool)
        if not (np.array_equal(xh, xv) and np.array_equal(zh, zv)):
            raise ValueError("operator is not in the stabilizer group")
        gs = int(self._g(xs[1:], zs[1:], px[:-1], pz[:-1]).sum())
        return (2 * int(self.r[rows].sum()) + gs) % 4 // 2

    def deterministic_value(self, xv, zv) -> Optional[int]:
        """Sign bit of +P in the stabilizer group, or None if P is random."""
        xv = np.asarray(xv, dtype=bool)
        zv = np.asarray(zv, dtype=bool)
        anti = self._anticommute(xv, zv)
        if anti[self.n:].any():
            return None
        return self._stabilizer_sign(anti, xv, zv)

    def measure_pauli(self, xv, zv, rng=None, forced: Optional[int] = None):
        """Measure +P for P given by support vectors; returns (bit, deterministic).

        A random outcome is `forced` if given, else drawn from `rng`; both
        are ignored when the outcome is deterministic.
        """
        xv = np.asarray(xv, dtype=bool)
        zv = np.asarray(zv, dtype=bool)
        anti = self._anticommute(xv, zv)
        stab_anti = np.flatnonzero(anti[self.n:])
        if stab_anti.size == 0:
            return self._stabilizer_sign(anti, xv, zv), True
        if forced is not None:
            bit = int(forced)
        elif rng is not None:
            bit = int(rng.integers(0, 2))
        else:
            raise ValueError("random outcome requires rng or forced value")
        # Multiply pivot stabilizer p into every other anticommuting row.
        # Row p itself is not among them, so the rows update independently.
        p = self.n + int(stab_anti[0])
        rows = np.flatnonzero(anti)
        rows = rows[rows != p]
        cols = np.flatnonzero(self.x[p] | self.z[p])
        block = np.ix_(rows, cols)
        gs = self._g(self.x[p, cols], self.z[p, cols],
                     self.x[block], self.z[block]).sum(axis=1)
        self.r[rows] = (2 * self.r[rows] + 2 * int(self.r[p]) + gs) % 4 // 2
        self.x[rows] ^= self.x[p]
        self.z[rows] ^= self.z[p]
        self.x[p - self.n] = self.x[p]
        self.z[p - self.n] = self.z[p]
        self.r[p - self.n] = self.r[p]
        self.x[p] = xv
        self.z[p] = zv
        self.r[p] = bit
        return bit, False


@dataclass
class TableauResult:
    outcomes: np.ndarray        # uint8 reported outcome bits
    deterministic: np.ndarray   # bool per outcome bit
    sim: Tableau


def run_tableau(
    circ: Circuit,
    rng=None,
    force_zero: bool = False,
    forced_outcomes=None,
    x_errors=(),
    z_errors=(),
    flip_locs=(),
) -> TableauResult:
    """Execute a circuit on the tableau simulator.

    Random outcomes are drawn from rng, forced to 0 (force_zero=True), or
    forced to the entries of `forced_outcomes`; forcing picks one valid
    trajectory.  force_zero gives the zero-forced noiseless run that frame
    simulator flips are relative to.  Pauli errors are injected at
    quantum locations (interval after Loc.step); flip_locs invert the
    *reported* bit of an outcome location, with any physical projection
    following the true bit.
    """
    sim = Tableau(circ.n_qubits)
    outcomes = np.zeros(circ.n_outcomes, dtype=np.uint8)
    deterministic = np.zeros(circ.n_outcomes, dtype=bool)
    xq: dict[int, list[int]] = {}
    zq: dict[int, list[int]] = {}
    for loc in x_errors:
        xq.setdefault(loc.step, []).append(loc.index)
    for loc in z_errors:
        zq.setdefault(loc.step, []).append(loc.index)
    flips = {loc.index for loc in flip_locs}

    def apply_errors(step: int) -> None:
        for q in xq.get(step, ()):
            sim.pauli_x(q)
        for q in zq.get(step, ()):
            sim.pauli_z(q)

    def measure_row(qubits, sigma, slot):
        xv = np.zeros(circ.n_qubits, dtype=bool)
        zv = np.zeros(circ.n_qubits, dtype=bool)
        vec = xv if sigma == "X" else zv
        vec[np.asarray(qubits, dtype=np.intp)] = True
        flip = 1 if slot in flips else 0
        # A random outcome reports the forced bit; the projection follows
        # the true bit, i.e. the reported one XOR the flip.
        if forced_outcomes is not None:
            forced = int(forced_outcomes[slot]) ^ flip
        elif force_zero:
            forced = flip
        else:
            forced = None
        bit, det = sim.measure_pauli(xv, zv, rng=rng, forced=forced)
        outcomes[slot] = bit ^ flip
        deterministic[slot] = det

    # The tableau starts every qubit in |0⟩ and never resets one, so an
    # init is only valid on a qubit no earlier op (or the input) has used.
    used = np.zeros(circ.n_qubits, dtype=bool)
    used[circ.input_qubits] = True
    apply_errors(-1)
    for step, op in enumerate(circ.ops):
        if isinstance(op, InitOp):
            reused = np.asarray(op.qubits, dtype=np.intp)[used[op.qubits]]
            if reused.size:
                raise ValueError(f"init at op {step} names qubit "
                                 f"{int(reused[0])}, which is already in use")
            if op.basis == "+":
                for q in op.qubits:
                    sim.h(int(q))
        elif isinstance(op, HLayerOp):
            for q in op.qubits:
                sim.h(int(q))
        elif isinstance(op, GCnotOp):
            for j, i in zip(*np.nonzero(op.a)):
                sim.cnot(int(op.controls[j]), int(op.targets[i]))
        elif isinstance(op, MeasureOp):
            for i, q in enumerate(op.qubits):
                measure_row([q], op.basis, op.start + i)
        elif isinstance(op, ProjectiveOp):
            for i, row in enumerate(op.a):
                measure_row(op.qubits[np.nonzero(row)[0]], op.sigma, op.start + i)
        elif isinstance(op, FeedbackOp):
            bits = outcomes[op.src: op.src + op.count]
            supp = gf2.mul(bits, op.m)
            for i in np.nonzero(supp)[0]:
                q = int(op.qubits[i])
                if op.pauli == "X":
                    sim.pauli_x(q)
                else:
                    sim.pauli_z(q)
        else:
            raise TypeError(f"unknown op {op!r}")
        if isinstance(op, GCnotOp):
            used[op.controls] = used[op.targets] = True
        else:
            used[op.qubits] = True
        apply_errors(step)
    return TableauResult(outcomes=outcomes, deterministic=deterministic, sim=sim)


def stabilizer_phase(sim: Tableau, qubits, x_support, z_support) -> Optional[int]:
    """Phase bit of the Pauli with the given supports on `qubits`, if stabilized."""
    xv = np.zeros(sim.n, dtype=bool)
    zv = np.zeros(sim.n, dtype=bool)
    for q, b in zip(qubits, np.asarray(x_support).reshape(-1)):
        if b:
            xv[int(q)] = True
    for q, b in zip(qubits, np.asarray(z_support).reshape(-1)):
        if b:
            zv[int(q)] = True
    try:
        return sim.deterministic_value(xv, zv)
    except ValueError:
        return None
