"""Stabilizer-tableau simulator (independent oracle for the frame simulator).

Destabilizer/stabilizer tableau with sign tracking (Aaronson–Gottesman,
arXiv:quant-ph/0406196) that runs the circuit IR, measures general
commuting Pauli sets and forces outcomes; `force_zero` runs validate the
all-zero reference trajectory that the Pauli-frame simulator relies on.

The circuits it checks leave the tableau sparse, so it is kept as Python-int
bitsets both ways round (cf. Stim, arXiv:2103.02202) and each op costs the
bits it touches: `xr[h]`, `zr[h]` hold generator h's X and Z qubit bits,
`xc[q]`, `zc[q]` the same bits transposed, and bit h of `r` is its sign.
Generators 0..n-1 are destabilizers, n..2n-1 stabilizers.  Paulis are
passed as X and Z qubit bitmasks; a random outcome updates each column it
changes in one pass.  `run_tableau` executes a program of Python ints built
once per circuit (`_program`), cached until an op or input is added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circuit import (Circuit, FeedbackOp, GCnotOp, HLayerOp, InitOp,
                      MeasureOp, ProjectiveOp, fault_locs)


class NotStabilized(ValueError):
    """The Pauli commutes with the stabilizer group but is not in it."""


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


class Tableau:
    """Aaronson–Gottesman tableau over n qubits, initialized to |0…0⟩."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.xr = [1 << h for h in range(n)] + [0] * n
        self.zr = [0] * n + [1 << q for q in range(n)]
        self.xc = [1 << q for q in range(n)]
        self.zc = [1 << (n + q) for q in range(n)]
        self.r = 0

    def h(self, q: int) -> None:
        xr, zr, x, z = self.xr, self.zr, self.xc[q], self.zc[q]
        self.r ^= x & z
        bit, m = 1 << q, x ^ z
        while m:
            m ^= (low := m & -m)
            h = low.bit_length() - 1
            xr[h] ^= bit
            zr[h] ^= bit
        self.xc[q], self.zc[q] = z, x

    def cnot(self, c: int, t: int) -> None:
        xr, zr, xc, zc = self.xr, self.zr, self.xc, self.zc
        self.r ^= xc[c] & zc[t] & ~(xc[t] ^ zc[c])
        for rows, m, bit in ((xr, xc[c], 1 << t), (zr, zc[t], 1 << c)):
            while m:
                m ^= (low := m & -m)
                rows[low.bit_length() - 1] ^= bit
        xc[t] ^= xc[c]
        zc[c] ^= zc[t]

    def pauli_x(self, q: int) -> None:
        self.r ^= self.zc[q]

    def pauli_z(self, q: int) -> None:
        self.r ^= self.xc[q]

    def _anticommuting(self, x: int, z: int) -> int:
        """Generators anticommuting with P, as bits."""
        anti = 0
        for cols, m in ((self.xc, z), (self.zc, x)):
            while m:
                m ^= (low := m & -m)
                anti ^= cols[low.bit_length() - 1]
        return anti

    def _sign(self, anti: int, x: int, z: int) -> int:
        """Sign bit of +P, the product of the stabilizers paired with `anti`
        destabilizers, kept as i^e X^xa Z^za: multiplying in (-1)^r i^|x&z|
        X^x Z^z adds 2r + |x&z| + 2|za&x| to e, and ±P = i^(e - |x&z|) P."""
        xr, zr, r, m = self.xr, self.zr, self.r, anti << self.n
        xa = za = e = 0
        while m:
            m ^= (low := m & -m)
            h = low.bit_length() - 1
            xh, zh = xr[h], zr[h]
            e += (2 * (r & low != 0) + (xh & zh).bit_count()
                  + 2 * (za & xh).bit_count())
            xa ^= xh
            za ^= zh
        if xa != x or za != z:
            raise NotStabilized("operator is not in the stabilizer group")
        return (e - (x & z).bit_count()) % 4 // 2

    def deterministic_value(self, x: int, z: int) -> Optional[int]:
        """Sign bit of +P in the stabilizer group, or None if P is random."""
        anti = self._anticommuting(x, z)
        return None if anti >> self.n else self._sign(anti, x, z)

    def measure_pauli(self, x: int, z: int, rng=None,
                      forced: Optional[int] = None):
        """Measure +P; returns (bit, deterministic).

        A random outcome is `forced` if given, else drawn from `rng`; both
        are ignored when the outcome is deterministic.
        """
        anti = self._anticommuting(x, z)
        stab = anti >> self.n
        if not stab:
            return self._sign(anti, x, z), True
        if forced is None and rng is None:
            raise ValueError("random outcome requires rng or forced value")
        bit = int(rng.integers(0, 2)) if forced is None else int(forced)
        if bit not in (0, 1):
            raise ValueError(f"forced outcome {forced!r} is not 0 or 1")
        # Multiply pivot stabilizer p into each other anticommuting row h, all
        # from the same row p; P_p·P_h is i^e times a Hermitian Pauli.
        xr, zr, r = self.xr, self.zr, self.r
        p = self.n + (stab & -stab).bit_length() - 1
        d, bd, bp = p - self.n, 1 << p - self.n, 1 << p
        xp, zp, rp = xr[p], zr[p], r >> p & 1
        rows = anti ^ bp
        base = 2 * rp + (xp & zp).bit_count()
        m = rows
        while m:
            m ^= (low := m & -m)
            h = low.bit_length() - 1
            xh, zh = xr[h], zr[h]
            e = (base + (xh & zh).bit_count() + 2 * (zp & xh).bit_count()
                 - ((xh ^ xp) & (zh ^ zp)).bit_count())
            r ^= low if e & 2 else 0
            xr[h], zr[h] = xh ^ xp, zh ^ zp
        # The pivot becomes its destabilizer, +P or -P the stabilizer; each
        # column changes once, by its XORed share of `rows`, d and p.
        for cols, gens, pivot, new in ((self.xc, xr, xp, x),
                                       (self.zc, zr, zp, z)):
            to_d, to_p = gens[d] ^ pivot, pivot ^ new
            m = pivot | gens[d] | new
            while m:
                m ^= (low := m & -m)
                change = rows if pivot & low else 0
                if to_d & low:
                    change ^= bd
                if to_p & low:
                    change ^= bp
                cols[low.bit_length() - 1] ^= change
            gens[d], gens[p] = pivot, new
        self.r = r & ~(bd | bp) | rp << d | bit << p
        return bit, False


@dataclass
class TableauResult:
    outcomes: np.ndarray        # uint8 reported outcome bits
    deterministic: np.ndarray   # bool per outcome bit
    sim: Tableau


def _row_supports(m: np.ndarray, qubits: np.ndarray) -> list:
    """qubits[row != 0].tolist() for each row of m, from one np.nonzero."""
    rows, cols = np.nonzero(m)
    supports = [[] for _ in range(len(m))]
    for row, q in zip(rows.tolist(), qubits[cols].tolist()):
        supports[row].append(q)
    return supports


def _program(circ: Circuit) -> list:
    """run_tableau's work at each op of circ: ("h", qubits), ("cnot", pairs),
    ("measure", (first slot, sigma, masks)) or (feedback pauli, (first
    source outcome, qubits per source outcome)).  The tableau never resets
    a qubit, so an init on one that an earlier op or the input used fails."""
    used = set(circ.input_qubits)
    program = []
    for step, op in enumerate(circ.ops):
        if isinstance(op, InitOp):
            reused = [q for q in op.qubits.tolist() if q in used]
            if reused:
                raise ValueError(f"init at op {step} names qubit "
                                 f"{reused[0]}, which is already in use")
            program.append(("h", op.qubits.tolist() if op.basis == "+"
                            else []))
        elif isinstance(op, HLayerOp):
            program.append(("h", op.qubits.tolist()))
        elif isinstance(op, GCnotOp):
            j, i = np.nonzero(op.a)
            program.append(("cnot", list(zip(op.controls[j].tolist(),
                                             op.targets[i].tolist()))))
        elif isinstance(op, MeasureOp):
            program.append(("measure", (op.start, op.basis, [
                1 << q for q in op.qubits.tolist()])))
        elif isinstance(op, ProjectiveOp):
            program.append(("measure", (op.start, op.sigma, [
                _mask(qubits) for qubits in _row_supports(op.a, op.qubits)])))
        elif isinstance(op, FeedbackOp):
            program.append((op.pauli, (op.src,
                                       _row_supports(op.m, op.qubits))))
        else:
            raise TypeError(f"unknown op {op!r}")
        used.update(np.concatenate([op.controls, op.targets]).tolist()
                    if isinstance(op, GCnotOp) else op.qubits.tolist())
    return program


def run_tableau(circ: Circuit, rng=None, force_zero: bool = False,
                forced_outcomes=None, x_errors=(), z_errors=(),
                flip_locs=()) -> TableauResult:
    """Execute a circuit on the tableau simulator.

    Random outcomes are drawn from rng, forced to 0 (force_zero=True, the
    noiseless run that frame simulator flips are relative to), or forced to
    `forced_outcomes`, one bit per circuit outcome.  Pauli errors sit at
    quantum locations (interval after Loc.step); flip_locs, outcome
    locations, invert the *reported* bit; projections follow the true bit.
    """
    x_errors, z_errors, flip_locs = fault_locs(x_errors, z_errors, flip_locs)
    n_out = circ.n_outcomes
    if forced_outcomes is not None:
        forced_outcomes = np.asarray(forced_outcomes)
        if (forced_outcomes.shape != (n_out,)
                or not np.isin(forced_outcomes, (0, 1)).all()):
            raise ValueError(f"forced_outcomes must be {n_out} bits,"
                             f" each 0 or 1; got shape {forced_outcomes.shape}")
        forced = forced_outcomes.astype(np.uint8).tolist()
    else:
        forced = [0] * n_out if force_zero else None
    program = circ.cached("tableau", _program)
    sim = Tableau(circ.n_qubits)
    outcomes, deterministic = [0] * n_out, [False] * n_out
    errors: dict[int, list] = {}
    for locs, pauli in ((x_errors, sim.pauli_x), (z_errors, sim.pauli_z)):
        for loc in locs:
            errors.setdefault(loc.step, []).append((pauli, loc.index))
    flips = {loc.index for loc in flip_locs}
    for pauli, q in errors.get(-1, ()):
        pauli(q)
    h, cnot, measure = sim.h, sim.cnot, sim.measure_pauli
    for step, (kind, args) in enumerate(program):
        if kind == "h":
            for q in args:
                h(q)
        elif kind == "cnot":
            for c, t in args:
                cnot(c, t)
        elif kind == "measure":
            start, sigma, masks = args
            for slot, m in enumerate(masks, start):
                flip = slot in flips
                x, z = (m, 0) if sigma == "X" else (0, m)
                # A random outcome reports the forced bit; the projection
                # follows the true bit, i.e. the reported one XOR the flip.
                bit, det = measure(x, z, rng=rng, forced=None if forced is None
                                   else forced[slot] ^ flip)
                outcomes[slot] = bit ^ flip
                deterministic[slot] = det
        else:
            src, targets = args
            pauli = sim.pauli_x if kind == "X" else sim.pauli_z
            for bit, qubits in zip(outcomes[src:src + len(targets)], targets):
                for q in qubits if bit else ():
                    pauli(q)
        for pauli, q in errors.get(step, ()):
            pauli(q)
    return TableauResult(np.array(outcomes, dtype=np.uint8),
                         np.array(deterministic, dtype=bool), sim)


def stabilizer_phase(sim: Tableau, qubits, x_support, z_support) -> Optional[int]:
    """Phase bit of the Pauli with the given supports (one 0/1 entry per
    entry of `qubits`) on `qubits`, or None if it is not stabilized."""
    qubits = np.asarray(qubits, dtype=np.intp).reshape(-1)
    xs, zs = (np.asarray(s).reshape(-1) for s in (x_support, z_support))
    if xs.size != qubits.size or zs.size != qubits.size:
        raise ValueError(f"supports of {xs.size} and {zs.size} entries "
                         f"for {qubits.size} qubits")
    try:
        return sim.deterministic_value(_mask(qubits[xs != 0]),
                                       _mask(qubits[zs != 0]))
    except NotStabilized:
        return None
