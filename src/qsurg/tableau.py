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
changes in one pass.

`run_lanes` runs several runs of one circuit (lanes: each its own outcome
source, Pauli errors and flips) in one pass.  The X/Z part of a run does
not depend on outcomes, errors or flips, so it evolves once; the first
lane's signs are the common sign int, and every other lane keeps only its
signs' XOR delta against them (`Tableau.sign_delta`), so a gate costs the
same whatever the number of lanes, and one lane costs one plain run.  Every
sign update is affine over GF(2): a lane's deterministic outcome is the
common one XOR the parity of its delta on the stabilizers that make it,
and a random outcome adds the pivot's rows to the delta where the delta
flips the pivot's sign.  `run_tableau` is the one-lane call.  Both execute
a program of Python ints built once per circuit (`_program`), cached until
an op or input is added.
"""

from __future__ import annotations

import copy
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


def _outcome(rng, forced) -> int:
    """A random outcome: `forced` if given, else drawn from `rng`."""
    if forced is None and rng is None:
        raise ValueError("random outcome requires rng or forced value")
    bit = int(rng.integers(0, 2)) if forced is None else int(forced)
    if bit not in (0, 1):
        raise ValueError(f"forced outcome {forced!r} is not 0 or 1")
    return bit


class Tableau:
    """Aaronson–Gottesman tableau over n qubits, initialized to |0…0⟩."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.xr = [1 << h for h in range(n)] + [0] * n
        self.zr = [0] * n + [1 << q for q in range(n)]
        self.xc = [1 << q for q in range(n)]
        self.zc = [1 << (n + q) for q in range(n)]
        self.r = 0

    def sign_delta(self) -> Tableau:
        """A tableau sharing this one's X/Z lists, with signs r = 0: a lane
        of run_lanes keeps its signs' XOR delta against this tableau's in
        it, so its Pauli ops move the delta by the current columns."""
        view = copy.copy(self)
        view.r = 0
        return view

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
        """Sign bit of +P under all-zero signs: the product of the
        stabilizers paired with `anti` destabilizers, kept as i^e X^xa Z^za,
        where multiplying in i^|x&z| X^x Z^z adds |x&z| + 2|za&x| to e, and
        ±P = i^(e - |x&z|) P.  Signs r add the parity of r on those
        stabilizers, `anti << n`."""
        xr, zr, m = self.xr, self.zr, anti << self.n
        xa = za = e = 0
        while m:
            m ^= (low := m & -m)
            h = low.bit_length() - 1
            xh, zh = xr[h], zr[h]
            e += (xh & zh).bit_count() + 2 * (za & xh).bit_count()
            xa ^= xh
            za ^= zh
        if xa != x or za != z:
            raise NotStabilized("operator is not in the stabilizer group")
        return (e - (x & z).bit_count()) % 4 // 2

    def deterministic_value(self, x: int, z: int) -> Optional[int]:
        """Sign bit of +P in the stabilizer group, or None if P is random."""
        anti = self._anticommuting(x, z)
        if anti >> self.n:
            return None
        return self._sign(anti, x, z) ^ (self.r & anti << self.n).bit_count() & 1

    def measure_pauli(self, x: int, z: int, rng=None, forced=None,
                      lanes=(), slot: int = 0):
        """Measure +P; returns (bit, deterministic).

        A random outcome is `forced` if given, else drawn from `rng`; both
        are ignored when the outcome is deterministic.  Each of `lanes`
        (run_lanes' `_Lane`s) is one more run whose signs are this
        tableau's XOR `lane.signs.r`: it measures +P as well, with its own
        outcome source, and reports its outcome at `slot`.
        """
        anti = self._anticommuting(x, z)
        stab = anti >> self.n
        if not stab:
            mask = anti << self.n
            bit = self._sign(anti, x, z) ^ (self.r & mask).bit_count() & 1
            for lane in lanes:
                lane.report(slot, bit ^ (lane.signs.r & mask).bit_count() & 1)
            return bit, True
        bit = _outcome(rng, forced)
        own = [_outcome(lane.rng, lane.forced[slot])
               for lane in lanes] if lanes else ()
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
        # A lane whose pivot sign differs from this tableau's differs on
        # every row the pivot was multiplied into; its outcome is its own.
        for lane, lane_bit in zip(lanes, own):
            delta = lane.signs.r
            flip = delta >> p & 1
            if flip:
                delta ^= rows
            lane.signs.r = (delta & ~(bd | bp) | flip << d
                            | (lane_bit ^ bit) << p)
            lane.report(slot, lane_bit)
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


class _Lane:
    """One run of run_lanes, from its settings (run_tableau's keywords):
    its outcome source (`rng`, or `forced`, the true bit of each random
    outcome), its faults and its reported outcomes.  run_lanes adds
    `signs`, the tableau whose r holds its signs (the first lane) or their
    delta against the first lane's (every other lane), and `moves`, the
    tableaux whose signs a Pauli of the lane moves."""

    def __init__(self, n_out: int, rng=None, force_zero: bool = False,
                 forced_outcomes=None, x_errors=(), z_errors=(),
                 flip_locs=()) -> None:
        sources = [name for name, given in (
            ("rng", rng is not None), ("force_zero", force_zero),
            ("forced_outcomes", forced_outcomes is not None)) if given]
        if len(sources) > 1:
            raise ValueError(f"a run takes one outcome source; got "
                             f"{' and '.join(sources)}")
        self.x_errors, self.z_errors, flip_locs = fault_locs(
            x_errors, z_errors, flip_locs)
        self.flips = {loc.index for loc in flip_locs}
        if forced_outcomes is not None:
            forced_outcomes = np.asarray(forced_outcomes)
            if (forced_outcomes.shape != (n_out,)
                    or not np.isin(forced_outcomes, (0, 1)).all()):
                raise ValueError(
                    f"forced_outcomes must be {n_out} bits, each 0 or 1;"
                    f" got shape {forced_outcomes.shape}")
            forced = forced_outcomes.astype(np.uint8).tolist()
        else:
            forced = [0 if force_zero else None] * n_out
        # A random outcome reports the forced bit; the projection follows
        # the true bit, i.e. the reported one XOR the flip.
        self.rng = rng
        self.forced = [None if bit is None else bit ^ (slot in self.flips)
                       for slot, bit in enumerate(forced)
                       ] if self.flips else forced
        self.outcomes = [0] * n_out

    def report(self, slot: int, bit: int) -> None:
        """Record the true outcome `bit` at `slot`, flipped if it is."""
        self.outcomes[slot] = bit ^ (slot in self.flips)


def run_lanes(circ: Circuit, lanes) -> list[TableauResult]:
    """Execute several runs of a circuit on the tableau simulator in one
    pass, one TableauResult per run; their tableaux share the X/Z lists.

    Each lane is a dict of one run's settings, run_tableau's keywords.  Its
    random outcomes are drawn from its `rng`, forced to 0 (force_zero=True,
    the noiseless run that frame simulator flips are relative to), or
    forced to `forced_outcomes`, one bit per circuit outcome; a lane names
    at most one of the three.  Pauli errors sit at quantum locations
    (interval after Loc.step); flip_locs, outcome locations, invert the
    *reported* bit; projections follow the true bit.

    The common signs are the first lane's, so one lane costs one plain run;
    each other lane keeps its sign delta against them, which a Pauli of its
    own moves, and a Pauli of the first lane moves too (it moves the common
    signs, not that lane's).
    """
    n_out = circ.n_outcomes
    program = circ.cached("tableau", _program)
    runs = [_Lane(n_out, **lane) for lane in lanes]
    if not runs:
        return []
    sim = Tableau(circ.n_qubits)
    first, rest = runs[0], runs[1:]
    for run in rest:
        run.signs = sim.sign_delta()
        run.moves = [run.signs]
    first.signs, first.moves = sim, [sim] + [run.signs for run in rest]
    errors: dict[int, list] = {}
    for run in runs:
        for tab in run.moves:
            for locs, pauli in ((run.x_errors, tab.pauli_x),
                                (run.z_errors, tab.pauli_z)):
                for loc in locs:
                    errors.setdefault(loc.step, []).append((pauli, loc.index))
    for pauli, q in errors.get(-1, ()):
        pauli(q)
    rng, forced, flips, outcomes = (first.rng, first.forced, first.flips,
                                    first.outcomes)
    deterministic = [False] * n_out
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
                x, z = (m, 0) if sigma == "X" else (0, m)
                bit, deterministic[slot] = measure(x, z, rng, forced[slot],
                                                   rest, slot)
                outcomes[slot] = bit ^ (slot in flips)
        else:
            src, targets = args
            for run in runs:
                for tab in run.moves:
                    pauli = tab.pauli_x if kind == "X" else tab.pauli_z
                    for bit, qubits in zip(run.outcomes[src:src + len(targets)],
                                           targets):
                        for q in qubits if bit else ():
                            pauli(q)
        for pauli, q in errors.get(step, ()):
            pauli(q)
    for run in rest:
        run.signs.r ^= sim.r
    det = np.array(deterministic, dtype=bool)
    return [TableauResult(np.array(run.outcomes, dtype=np.uint8), det.copy(),
                          run.signs) for run in runs]


def run_tableau(circ: Circuit, rng=None, force_zero: bool = False,
                forced_outcomes=None, x_errors=(), z_errors=(),
                flip_locs=()) -> TableauResult:
    """Execute a circuit on the tableau simulator: run_lanes' one-lane
    call, with the lane's settings as keywords."""
    return run_lanes(circ, [dict(
        rng=rng, force_zero=force_zero, forced_outcomes=forced_outcomes,
        x_errors=x_errors, z_errors=z_errors, flip_locs=flip_locs)])[0]


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
