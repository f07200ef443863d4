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
passed as X and Z qubit bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gf2
from .circuit import (Circuit, FeedbackOp, GCnotOp, HLayerOp, InitOp,
                      MeasureOp, ProjectiveOp, fault_locs)


class NotStabilized(ValueError):
    """The Pauli commutes with the stabilizer group but is not in it."""


def _ones(m: int):
    """Indices of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


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
        x, z = self.xc[q], self.zc[q]
        self.r ^= x & z
        for h in _ones(x ^ z):
            self.xr[h] ^= 1 << q
            self.zr[h] ^= 1 << q
        self.xc[q], self.zc[q] = z, x

    def cnot(self, c: int, t: int) -> None:
        xc, zc = self.xc, self.zc
        self.r ^= xc[c] & zc[t] & ~(xc[t] ^ zc[c])
        for h in _ones(xc[c]):
            self.xr[h] ^= 1 << t
        for h in _ones(zc[t]):
            self.zr[h] ^= 1 << c
        xc[t] ^= xc[c]
        zc[c] ^= zc[t]

    def pauli_x(self, q: int) -> None:
        self.r ^= self.zc[q]

    def pauli_z(self, q: int) -> None:
        self.r ^= self.xc[q]

    def _anticommuting(self, x: int, z: int) -> int:
        """Generators anticommuting with P, as bits."""
        anti = 0
        for q in _ones(z):
            anti ^= self.xc[q]
        for q in _ones(x):
            anti ^= self.zc[q]
        return anti

    def _sign(self, anti: int, x: int, z: int) -> int:
        """Sign bit of +P, the product of the stabilizers paired with `anti`
        destabilizers, kept as i^e X^xa Z^za: multiplying in (-1)^r i^|x&z|
        X^x Z^z adds 2r + |x&z| + 2|za&x| to e, and ±P = i^(e - |x&z|) P."""
        xa = za = e = 0
        for h in _ones(anti << self.n):
            xh, zh = self.xr[h], self.zr[h]
            e += (2 * (self.r >> h & 1) + (xh & zh).bit_count()
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
        p = self.n + (stab & -stab).bit_length() - 1
        xp, zp, rp = self.xr[p], self.zr[p], self.r >> p & 1
        rows = anti ^ (1 << p)
        base = 2 * rp + (xp & zp).bit_count()
        for h in _ones(rows):
            xh, zh = self.xr[h], self.zr[h]
            e = (base + (xh & zh).bit_count() + 2 * (zp & xh).bit_count()
                 - ((xh ^ xp) & (zh ^ zp)).bit_count())
            self.r ^= (e >> 1 & 1) << h
            self.xr[h], self.zr[h] = xh ^ xp, zh ^ zp
        for q in _ones(xp):
            self.xc[q] ^= rows
        for q in _ones(zp):
            self.zc[q] ^= rows
        # The pivot becomes its destabilizer, and +P or -P the stabilizer.
        d = p - self.n
        for g, gx, gz in ((d, xp, zp), (p, x, z)):
            for q in _ones(self.xr[g] ^ gx):
                self.xc[q] ^= 1 << g
            for q in _ones(self.zr[g] ^ gz):
                self.zc[q] ^= 1 << g
            self.xr[g], self.zr[g] = gx, gz
        self.r = self.r & ~(1 << d | 1 << p) | rp << d | bit << p
        return bit, False


@dataclass
class TableauResult:
    outcomes: np.ndarray        # uint8 reported outcome bits
    deterministic: np.ndarray   # bool per outcome bit
    sim: Tableau


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
    if forced_outcomes is not None:
        forced_outcomes = np.asarray(forced_outcomes)
        if (forced_outcomes.shape != (circ.n_outcomes,)
                or not np.isin(forced_outcomes, (0, 1)).all()):
            raise ValueError(f"forced_outcomes must be {circ.n_outcomes} bits,"
                             f" each 0 or 1; got shape {forced_outcomes.shape}")
    elif force_zero:
        forced_outcomes = np.zeros(circ.n_outcomes, dtype=np.uint8)
    sim = Tableau(circ.n_qubits)
    outcomes = np.zeros(circ.n_outcomes, dtype=np.uint8)
    deterministic = np.zeros(circ.n_outcomes, dtype=bool)
    errors: dict[int, list] = {}
    for locs, pauli in ((x_errors, sim.pauli_x), (z_errors, sim.pauli_z)):
        for loc in locs:
            errors.setdefault(loc.step, []).append((pauli, loc.index))
    flips = {loc.index for loc in flip_locs}

    def apply_errors(step: int) -> None:
        for pauli, q in errors.get(step, ()):
            pauli(q)

    def measure(sigma: str, masks, start: int) -> None:
        for slot, mask in enumerate(masks, start):
            flip = 1 if slot in flips else 0
            # A random outcome reports the forced bit; the projection
            # follows the true bit, i.e. the reported one XOR the flip.
            forced = (None if forced_outcomes is None
                      else int(forced_outcomes[slot]) ^ flip)
            x, z = (mask, 0) if sigma == "X" else (0, mask)
            bit, det = sim.measure_pauli(x, z, rng=rng, forced=forced)
            outcomes[slot] = bit ^ flip
            deterministic[slot] = det

    # The tableau starts every qubit in |0⟩ and never resets one, so an
    # init is only valid on a qubit no earlier op (or the input) has used.
    used = set(circ.input_qubits)
    apply_errors(-1)
    for step, op in enumerate(circ.ops):
        if isinstance(op, InitOp):
            reused = [int(q) for q in op.qubits if int(q) in used]
            if reused:
                raise ValueError(f"init at op {step} names qubit "
                                 f"{reused[0]}, which is already in use")
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
            measure(op.basis, [1 << int(q) for q in op.qubits], op.start)
        elif isinstance(op, ProjectiveOp):
            measure(op.sigma, [_mask(op.qubits[np.nonzero(row)[0]])
                               for row in op.a], op.start)
        elif isinstance(op, FeedbackOp):
            supp = gf2.mul(outcomes[op.src: op.src + op.count], op.m)
            pauli = sim.pauli_x if op.pauli == "X" else sim.pauli_z
            for q in op.qubits[np.nonzero(supp)[0]]:
                pauli(int(q))
        else:
            raise TypeError(f"unknown op {op!r}")
        used.update(map(int, np.concatenate([op.controls, op.targets])
                        if isinstance(op, GCnotOp) else op.qubits))
        apply_errors(step)
    return TableauResult(outcomes=outcomes, deterministic=deterministic, sim=sim)


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
