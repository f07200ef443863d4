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
row XORs for all lanes at once.  Faults enter as sparse (lane, column,
code) entries that one writer XORs straight into the packed injection rows,
for `run_lanes`, its one-lane call `run_frames` and `unit_lanes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .circuit import (Circuit, FeedbackOp, GCnotOp, HLayerOp, InitOp,
                      MeasureOp, ProjectiveOp, fault_locs)


# Fault codes, the entries of run_lanes' rows: an X or Z fault on a
# quantum location (X | Z: both), a flip of a flip location's outcome bit.
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


def run_lanes(circ: Circuit, locs, rows) -> FrameResult:
    """Propagate fault sets, one per row (lane) of `rows`: rows[i, j] is
    lane i's fault code at locs[j]; codes at a repeated location XOR.  Input
    faults act before the first op, other quantum faults right after their
    op.  Returns each lane's outcome flips and final frames."""
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2 or rows.shape[1] != len(locs):
        raise ValueError(f"fault rows {rows.shape}: need one row per lane "
                         f"and one column per location, {len(locs)}")
    cols = circ.columns()
    at = np.array([cols.column(loc) for loc in locs], dtype=np.intp)
    entry = np.flatnonzero(rows)
    lane, j = np.divmod(entry, len(locs))
    return FrameResult(*(
        np.ascontiguousarray(gf2.unpack_words(words, len(rows)).T)
        for words in _propagate(circ, *_inject(
            circ, lane, at[j], rows.reshape(-1)[entry], len(rows)))))


def unit_lanes(circ: Circuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate every unit fault, one lane each: per location in column
    order, a flip lane, or an X lane then a Z lane.  Returns the outcome
    flips, X frames and Z frames as packed rows (outcomes or qubits × lane
    words, bit c for lane c): run_lanes on the unit faults, transposed."""
    width = 1 + (circ.columns().qubit >= 0)  # lanes per location
    column = np.repeat(np.arange(len(width)), width)
    code = np.where(np.diff(column, prepend=-1) == 0, Z, X)  # X, then Z
    return _propagate(circ, *_inject(circ, np.arange(len(column)), column,
                                     code, len(column)))


def _inject(circ: Circuit, lane, column, code, lanes: int) -> tuple:
    """The one fault entry: fault code code[i] at column[i] in lane
    lane[i], of `lanes`, checked against its location and XORed into the
    packed rows that _propagate reads: its fx, fz and used."""
    qubit = circ.columns().qubit
    bad = np.flatnonzero(code & ~np.where(qubit[column] >= 0, X | Z, FLIP))
    if bad.size:
        raise ValueError(f"fault code {code[bad[0]]} at location "
                         f"{circ.locations()[column[bad[0]]]}")
    words = max(1, -(-lanes // 64))
    fx, fz = np.zeros((2, len(qubit), words), dtype=np.uint64)
    at = column * words + (lane >> 6)
    bit = np.uint64(1) << (lane & 63).astype(np.uint64)
    for fault, rows in ((X, fx), (Z, fz)):
        hit = np.flatnonzero(code & fault)  # only the entries it carries
        np.bitwise_xor.at(rows.reshape(-1), at[hit], bit[hit])
    return fx, fz, np.bincount(column, minlength=len(qubit)) > 0


def _propagate(circ: Circuit, fx: np.ndarray, fz: np.ndarray, used) -> tuple:
    """The one op pass, over _inject's rows: per location, the packed lanes
    of its X fault (a flip, at a flip location) and of its Z fault, and
    whether some entry is there.  Returns the packed outcome, X frame and
    Z frame rows."""
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
    """Propagate the faults at the given locations: x_locs / z_locs are
    quantum :class:`Loc` entries (X / Z faults), flip_locs flip locations.
    The one-lane call of run_lanes: outcome flips and final frames as 1-D
    rows."""
    xs, zs, fs = fault_locs(x_locs, z_locs, flip_locs)
    codes = [X] * len(xs) + [Z] * len(zs) + [FLIP] * len(fs)
    res = run_lanes(circ, xs + zs + fs, [codes])
    return FrameResult(res.outcome_flips[0], res.x_final[0], res.z_final[0])
