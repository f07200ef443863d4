"""Pauli-frame forward simulation of circuits, many fault sets per pass.

Frames and outcome flips are relative to the zero-forced noiseless run (every
random outcome forced to zero), which reads all zeros for every circuit built
in this package (the tableau simulator re-checks that in the test suite) but
not for every Circuit.  Everything is GF(2)-linear: outcome bits and final
frames are XOR-accumulated from the injected fault locations, X frames flip
Z-type outcomes and propagate along generalized-CNOT couplings, Z frames
behave dually, and outcome-conditioned Pauli feedback turns outcome flips
back into frame updates.

`run_lanes` pushes a batch of fault sets through the op list in one pass,
as Stim's frame simulator does (Gidney, arXiv:2103.02202): fault set i is
lane i; the X frame and Z frame of each qubit and the flip of each outcome
bit are rows of lane bits packed into uint64 words, so every op is a few
row XORs for all lanes at once.  `run_frames` is its one-lane call.
`unit_lanes` feeds the same op pass one lane per unit fault, writing each
lane's bit straight into the packed injection rows, with no fault matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .circuit import (Circuit, FeedbackOp, GCnotOp, HLayerOp, InitOp,
                      MeasureOp, ProjectiveOp, fault_locs)


# Fault codes, the entries of a run_lanes fault matrix: an X or Z fault on
# a quantum location (X | Z: both), a flip of a flip location's outcome bit.
X, Z, FLIP = 1, 2, 1


@dataclass
class FrameResult:
    """Outcome flips and final frames: one uint8 row per lane, or a single
    row (1-D) from run_frames."""

    outcome_flips: np.ndarray  # (..., circuit.n_outcomes)
    x_final: np.ndarray        # (..., circuit.n_qubits), over qubit ids
    z_final: np.ndarray

    def x_on(self, qubits) -> np.ndarray:
        return self.x_final[..., np.asarray(qubits, dtype=np.intp)]

    def z_on(self, qubits) -> np.ndarray:
        return self.z_final[..., np.asarray(qubits, dtype=np.intp)]


def _maps(circ: Circuit) -> list[tuple]:
    """The GF(2) maps each op applies to rows of lane bits: a GCNOT's X
    forward (controls to targets) and Z back (targets to controls), a
    check measurement's rows, a feedback's outcome-to-qubit map."""
    return [(gf2.xor_map(op.a.T), gf2.xor_map(op.a)) if isinstance(op, GCnotOp)
            else (gf2.xor_map(op.a),) if isinstance(op, ProjectiveOp)
            else (gf2.xor_map(op.m.T),) if isinstance(op, FeedbackOp)
            else () for op in circ.ops]


def run_lanes(circ: Circuit, faults) -> FrameResult:
    """Propagate fault sets, one per row (lane) of `faults`, whose columns
    are circ.locations() and entries fault codes.  Input faults act before
    the first op, other quantum faults right after their op.  Returns each
    lane's outcome flips relative to the zero-forced noiseless run and its
    final frames."""
    cols = circ.columns()
    faults = np.asarray(faults, dtype=np.uint8)
    if faults.ndim != 2 or faults.shape[1] != len(cols.qubit):
        raise ValueError(f"fault matrix of shape {faults.shape}: it needs "
                         f"one row per lane and one column per location, "
                         f"{len(cols.qubit)}")
    allowed = np.where(cols.qubit >= 0, X | Z, FLIP)
    used = faults.max(axis=0, initial=0)
    bad = np.flatnonzero(used & ~allowed)
    if bad.size:
        raise ValueError(f"fault code {faults[:, bad[0]].max()} at "
                         f"location {circ.locations()[bad[0]]}")
    fx, fz = (gf2.pack_words((faults >> bit & 1).T) for bit in (0, 1))
    return FrameResult(*(
        np.ascontiguousarray(gf2.unpack_words(rows, len(faults)).T)
        for rows in _propagate(circ, fx, fz, used != 0)))


def unit_lanes(circ: Circuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate every unit fault, one lane each: per location in column
    order, one flip lane for a flip location, an X lane then a Z lane for
    a quantum location.  Each lane's one bit is written straight into the
    packed injection rows.  Returns the outcome flips, X frames and Z
    frames as packed rows (outcomes or qubits × lane words), bit c of a
    row for lane c: run_lanes on the unit fault matrix, transposed."""
    on_q = circ.columns().qubit >= 0
    width = 1 + on_q  # lanes per location
    x_lane = np.cumsum(width) - width
    z_lane = x_lane[on_q] + 1
    fx = np.zeros((len(on_q), max(1, -(-int(width.sum()) // 64))),
                  dtype=np.uint64)
    fz = np.zeros_like(fx)
    bit = lambda lane: np.uint64(1) << (lane & 63).astype(np.uint64)
    fx[np.arange(len(on_q)), x_lane >> 6] = bit(x_lane)
    fz[on_q, z_lane >> 6] = bit(z_lane)
    return _propagate(circ, fx, fz, np.ones(len(on_q), dtype=bool))


def _propagate(circ: Circuit, fx: np.ndarray, fz: np.ndarray,
               used: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The op pass of run_lanes and unit_lanes.  fx and fz hold, per
    location, the packed lanes of its X fault (a flip, at a flip location)
    and of its Z fault; `used` marks the locations that hold a fault in
    some lane.  Returns the packed outcome, X frame and Z frame rows."""
    cols = circ.columns()
    # The columns before each that hold a fault in some lane: a span is
    # injected only if this count rises across it.
    before = np.concatenate([[0], np.cumsum(used)])
    xs = np.zeros((circ.n_qubits, fx.shape[1]), dtype=np.uint64)
    zs = np.zeros_like(xs)
    out = fx[cols.flips]

    def inject(step: int) -> None:
        start, stop = cols.spans[step + 1]
        if before[stop] > before[start]:
            qubits = cols.qubit[start:stop]
            xs[qubits] ^= fx[start:stop]
            zs[qubits] ^= fz[start:stop]

    inject(-1)
    for step, (op, maps) in enumerate(zip(circ.ops, circ.cached("frame", _maps))):
        if isinstance(op, InitOp):
            xs[op.qubits] = zs[op.qubits] = 0
        elif isinstance(op, HLayerOp):
            xs[op.qubits], zs[op.qubits] = zs[op.qubits], xs[op.qubits]
        elif isinstance(op, GCnotOp):
            forward, back = maps
            xs[op.targets] ^= forward(xs[op.controls])
            zs[op.controls] ^= back(zs[op.targets])
        elif isinstance(op, MeasureOp):
            src = xs if op.basis == "Z" else zs
            out[op.start:op.start + len(op.qubits)] ^= src[op.qubits]
            xs[op.qubits] = zs[op.qubits] = 0
        elif isinstance(op, ProjectiveOp):
            src = xs if op.sigma == "Z" else zs
            out[op.start:op.start + len(op.a)] ^= maps[0](src[op.qubits])
        elif isinstance(op, FeedbackOp):
            dst = xs if op.pauli == "X" else zs
            dst[op.qubits] ^= maps[0](out[op.src:op.src + op.count])
        else:
            raise TypeError(f"unknown op {op!r}")
        inject(step)
    return out, xs, zs


def run_frames(circ: Circuit, x_locs=(), z_locs=(), flip_locs=()) -> FrameResult:
    """Propagate the faults at the given locations through the circuit.

    x_locs / z_locs are iterables of quantum :class:`Loc` entries (X / Z
    faults); flip_locs are classical flip locations.  The one-lane call of
    run_lanes: outcome flips and final frames as 1-D rows.
    """
    xs, zs, fs = fault_locs(x_locs, z_locs, flip_locs)
    codes = [X] * len(xs) + [Z] * len(zs) + [FLIP] * len(fs)
    res = run_lanes(circ, fault_matrix(circ, xs + zs + fs, [codes]))
    return FrameResult(res.outcome_flips[0], res.x_final[0], res.z_final[0])


def fault_matrix(circ: Circuit, locs, rows) -> np.ndarray:
    """A run_lanes fault matrix, one lane per row of fault codes `rows`,
    with rows[:, i] XORed into the column of locs[i]."""
    cols = circ.columns()
    at = np.array([cols.column(loc) for loc in locs], dtype=np.intp)
    m = gf2.zeros(len(cols.qubit), len(rows))
    np.bitwise_xor.at(m, at, np.asarray(rows, dtype=np.uint8).T)
    return m.T
