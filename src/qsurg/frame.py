"""Pauli-frame forward simulation of circuits.

Frames are tracked relative to the all-zero-outcome reference run, which is
a valid noiseless trajectory for every circuit built in this package (the
tableau simulator re-checks that property in the test suite).  Everything
is GF(2)-linear: outcome bits and final frames are XOR-accumulated from the
injected fault locations, X frames flip Z-type outcomes and propagate along
generalized-CNOT couplings, Z frames behave dually, and outcome-conditioned
Pauli feedback turns outcome flips back into frame updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (Circuit, FeedbackOp, GCnotOp, HLayerOp, InitOp,
                      MeasureOp, ProjectiveOp)


@dataclass
class FrameResult:
    outcome_flips: np.ndarray  # uint8, length circuit.n_outcomes
    x_final: int               # bitmask over qubit ids
    z_final: int

    def x_on(self, qubits) -> np.ndarray:
        return np.array([(self.x_final >> int(q)) & 1 for q in qubits], dtype=np.uint8)

    def z_on(self, qubits) -> np.ndarray:
        return np.array([(self.z_final >> int(q)) & 1 for q in qubits], dtype=np.uint8)


def _mask(qubits) -> int:
    m = 0
    for q in qubits:
        m |= 1 << int(q)
    return m


class _Compiled:
    """Per-op integer masks, cached on the circuit object."""

    def __init__(self, circ: Circuit) -> None:
        self.steps = []
        for op in circ.ops:
            if isinstance(op, InitOp):
                self.steps.append(("init", _mask(op.qubits)))
            elif isinstance(op, HLayerOp):
                self.steps.append(("h", _mask(op.qubits)))
            elif isinstance(op, GCnotOp):
                tmask_of = {}
                cmask_of = {}
                for j, c in enumerate(op.controls):
                    tm = _mask(op.targets[np.nonzero(op.a[j])[0]])
                    if tm:
                        tmask_of[int(c)] = tm
                for i, t in enumerate(op.targets):
                    cm = _mask(op.controls[np.nonzero(op.a[:, i])[0]])
                    if cm:
                        cmask_of[int(t)] = cm
                self.steps.append(("gcnot", _mask(op.controls), _mask(op.targets),
                                   tmask_of, cmask_of))
            elif isinstance(op, MeasureOp):
                self.steps.append(("meas", op.basis, [int(q) for q in op.qubits],
                                   op.start, _mask(op.qubits)))
            elif isinstance(op, ProjectiveOp):
                masks = [_mask(op.qubits[np.nonzero(row)[0]]) for row in op.a]
                self.steps.append(("proj", op.sigma, masks, op.start))
            elif isinstance(op, FeedbackOp):
                col_masks = [_mask(op.qubits[np.nonzero(col)[0]]) for col in op.m]
                self.steps.append(("fb", op.pauli, col_masks, op.src, op.count))
            else:
                raise TypeError(f"unknown op {op!r}")


def _compiled(circ: Circuit) -> _Compiled:
    comp = getattr(circ, "_frame_compiled", None)
    if comp is None or getattr(circ, "_frame_compiled_len", -1) != len(circ.ops):
        comp = _Compiled(circ)
        circ._frame_compiled = comp
        circ._frame_compiled_len = len(circ.ops)
    return comp


def run_frames(circ: Circuit, x_locs=(), z_locs=(), flip_locs=()) -> FrameResult:
    """Propagate the faults at the given locations through the circuit.

    x_locs / z_locs are iterables of quantum :class:`Loc` entries (X / Z
    faults); flip_locs are classical flip locations.  Returns outcome flips
    relative to the all-zero reference plus the final frames.
    """
    comp = _compiled(circ)
    xq: dict[int, int] = {}
    zq: dict[int, int] = {}
    flips = np.zeros(circ.n_outcomes, dtype=np.uint8)
    for loc in x_locs:
        if loc.kind != "q":
            raise ValueError(f"X fault on non-qubit location {loc}")
        xq[loc.step] = xq.get(loc.step, 0) ^ (1 << loc.index)
    for loc in z_locs:
        if loc.kind != "q":
            raise ValueError(f"Z fault on non-qubit location {loc}")
        zq[loc.step] = zq.get(loc.step, 0) ^ (1 << loc.index)
    for loc in flip_locs:
        if loc.kind != "flip":
            raise ValueError(f"flip fault on non-classical location {loc}")
        flips[loc.index] ^= 1

    x = xq.get(-1, 0)
    z = zq.get(-1, 0)
    outcomes = flips.copy()

    for step, spec in enumerate(comp.steps):
        kind = spec[0]
        if kind == "init":
            mask = spec[1]
            x &= ~mask
            z &= ~mask
        elif kind == "h":
            mask = spec[1]
            xm, zm = x & mask, z & mask
            x = (x & ~mask) | zm
            z = (z & ~mask) | xm
        elif kind == "gcnot":
            _, cmask, tmask, tmask_of, cmask_of = spec
            dx = 0
            rem = x & cmask
            while rem:
                low = rem & -rem
                dx ^= tmask_of.get(low.bit_length() - 1, 0)
                rem ^= low
            dz = 0
            rem = z & tmask
            while rem:
                low = rem & -rem
                dz ^= cmask_of.get(low.bit_length() - 1, 0)
                rem ^= low
            x ^= dx
            z ^= dz
        elif kind == "meas":
            _, basis, qubits, start, mask = spec
            src = x if basis == "Z" else z
            for i, q in enumerate(qubits):
                outcomes[start + i] ^= (src >> q) & 1
            x &= ~mask
            z &= ~mask
        elif kind == "proj":
            _, sigma, masks, start = spec
            src = x if sigma == "Z" else z
            for i, m in enumerate(masks):
                outcomes[start + i] ^= (src & m).bit_count() & 1
        elif kind == "fb":
            _, pauli, col_masks, src, count = spec
            delta = 0
            for i in range(count):
                if outcomes[src + i]:
                    delta ^= col_masks[i]
            if pauli == "X":
                x ^= delta
            else:
                z ^= delta
        x ^= xq.get(step, 0)
        z ^= zq.get(step, 0)

    return FrameResult(outcome_flips=outcomes, x_final=x, z_final=z)
