"""Fault sampling, lookup decoding, and Monte Carlo logical-error rates.

The noise model is local stochastic: every quantum location suffers an X
and, independently, a Z error each with probability ≤ p_phy, and every
outcome bit flips with probability ≤ p_phy.  Sampling is counter-based:
`trial_rng(seed, index)` is a Philox stream at a fixed counter offset.

Monte Carlo is shot-batched.  One frame.unit_lanes pass propagates every
fault cell (an X or Z fault on a quantum location, or an outcome flip)
into packed words.  Faults are drawn on live cells only: a dead cell's
words are all zero, so its fault could move nothing.  Blocks are the
unit of randomness: trials run in blocks of BLOCK_CELLS live cells,
block b drawing its faults from trial_rng(seed, b).  Passes are the unit
of decoding: a pass gathers consecutive blocks until it holds PASS_FAULTS
faults (or BLOCK_CELLS trials, which bounds its per-trial arrays at low
p).  A pass gathers the words of all its faults, of both bases, from one
matrix, XORs each (trial, basis) group's with one reduceat, and looks up
both decoding stages of every group in one probe of the decoder's two
tables (gf2.TableStack, as decode_x and decode_z do): the only rank index,
for one-word syndromes when each table's is no larger than its keys (d=3
and d=5), else binary search of each table for its own groups.  Trials
decode independently, so the results do not depend on PASS_FAULTS, and a
given (experiment, p_phy, trials, seed) gives byte-identical results.
"""

from __future__ import annotations

import functools
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import frame, gf2, protocol
from .circuit import Circuit
from .codes import CssCode

_TRIAL_STRIDE = 1 << 24


@functools.cache
def _philox():
    """Generator, Philox and a key class passing a seed as Philox's key words
    (no SeedSequence), built on first use: `import sim` skips numpy.random."""
    from numpy.random import Generator, Philox, bit_generator
    class PhiloxKey(bit_generator.ISeedSequence):
        def __init__(self, seed: int) -> None:
            self.words = np.array([seed & (1 << 64) - 1, seed >> 64], np.uint64)

        def generate_state(self, n_words, dtype=np.uint64):
            return self.words
    return Generator, Philox, PhiloxKey


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """Independent stream for (seed, trial): Philox counter offset."""
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed {seed} is not in [0, 2^128)")
    generator, philox, key = _philox()
    return generator(philox(key(seed), counter=trial * _TRIAL_STRIDE))


class StreamOverrun(RuntimeError):
    """A draw used more Philox counters than the stride between streams, so
    it read into the stream of the next index."""


def _stream_position(rng: np.random.Generator) -> int:
    """Philox counter of a trial_rng stream, as one integer."""
    counter = rng.bit_generator.state["state"]["counter"]
    return int.from_bytes(counter.astype("<u8").tobytes(), "little")


def _check_stream(rng: np.random.Generator, index: int) -> None:
    """Raise StreamOverrun when the draws from trial_rng(seed, index) ran
    past the stream's stride."""
    used = _stream_position(rng) - index * _TRIAL_STRIDE
    if used >= _TRIAL_STRIDE:
        raise StreamOverrun(f"stream {index} used {used} Philox counters "
                            f"of {_TRIAL_STRIDE}")


@contextmanager
def checked_rng(seed: int, index: int):
    """trial_rng(seed, index) for the draws of the with-block, checked by
    _check_stream after them."""
    rng = trial_rng(seed, index)
    yield rng
    _check_stream(rng, index)


# ── lookup decoding ─────────────────────────────────────────────────────


class LookupDecoder:
    """Minimum-weight table decoder, complete up to a chosen error weight.

    The table registers, in weight order, the first (hence minimum-weight)
    error for every syndrome it reaches; the default depth ⌊(d−1)/2⌋
    guarantees exact correction of every correctable error.  decode_x
    corrects X errors from Z-check syndromes; decode_z dually.  Unknown
    syndromes return None (a heralded failure, never a silent wrong
    answer for in-table weights).
    """

    def __init__(self, code: CssCode, max_weight: Optional[int] = None) -> None:
        if code.d is None:
            raise ValueError("code distance must be known")
        self.code = code
        self.t = t = (code.d - 1) // 2 if max_weight is None else max_weight
        self._x_table = self._build(code.h_z, t)
        self._z_table = self._build(code.h_x, t)

    @staticmethod
    def _build(checks: np.ndarray, t: int) -> gf2.SyndromeTable:
        return gf2.syndrome_table(checks, t)

    @functools.cached_property
    def stack(self) -> gf2.TableStack:
        """The X table (table 0) and the Z table (1) as one lookup, built on
        first use."""
        return gf2.TableStack([self._x_table, self._z_table])

    def decode_x(self, syndrome: np.ndarray) -> Optional[np.ndarray]:
        return self._lookup(0, syndrome)

    def decode_z(self, syndrome: np.ndarray) -> Optional[np.ndarray]:
        return self._lookup(1, syndrome)

    def _lookup(self, which: int, syndrome: np.ndarray) -> Optional[np.ndarray]:
        idx, hit = self.stack.find(gf2.pack_words(np.asarray(syndrome)[None]),
                                   np.array([which]))
        return gf2.unpack_words(self.stack.errors[idx], self.code.n)[0] if hit[0] else None


def deep_decoder(code: CssCode) -> LookupDecoder:
    """Lookup decoder with the deepest table that fits gf2.TABLE_CAP.

    Scattered multi-fault configurations then decode to their true
    minimum-weight class instead of heralding.
    """
    if code.d is None:
        raise ValueError("code distance must be known")
    return LookupDecoder(code, max_weight=max(
        (code.d - 1) // 2, gf2.sweep_depth(code.n, gf2.TABLE_CAP)))


# ── memory experiment ───────────────────────────────────────────────────


@dataclass
class _BasisView:
    """One basis of the memory experiment, ready for batched decoding.

    A |0…0⟩-logical preparation scores logical X failures (corrupted Z
    readout); the |+…+⟩ preparation scores logical Z failures.  Decoding
    is two-stage: the teleported round's syndrome first, then the ideal
    final syndrome of the residue.
    """

    circuit: Circuit
    mem_out: np.ndarray
    syn: np.ndarray           # outcome combinations -> mid syndrome
    checks: np.ndarray        # final-syndrome check matrix
    logicals: np.ndarray      # logical rows tested on the residue
    frame_is_x: bool
    # Filled by compile_faults: per fault cell (frame.unit_lanes' lanes, in
    # its order) the packed words [mid syndrome | final syndrome | frame],
    # each syndrome `syn_words` wide; the logical rows packed likewise.
    words: Optional[np.ndarray] = None
    syn_words: int = 0
    logical_words: Optional[np.ndarray] = None

    def compile_faults(self) -> None:
        """Fold every fault cell, an X or Z fault on a quantum location or
        a flip of an outcome bit, into packed words: its mid syndrome, the
        final syndrome of its frame, and its frame on mem_out.  Each part
        is taken over rows of lane bits, one lane per cell, and only those
        rows are transposed into per-cell words."""
        if self.words is not None:
            return
        qubit = self.circuit.columns().qubit
        cells = len(qubit) + int(np.count_nonzero(qubit >= 0))
        out, xs, zs = frame.unit_lanes(self.circuit)
        frames = (xs if self.frame_is_x else zs)[self.mem_out]
        mid, final, frames = (
            gf2.pack_words(gf2.unpack_words(rows, cells).T)
            for rows in (gf2.xor_map(self.syn)(out),
                         gf2.xor_map(self.checks)(frames), frames))
        if mid.shape[1] != final.shape[1]:  # syn_words is both widths
            raise ValueError("mid and final syndromes differ in words")
        self.syn_words = mid.shape[1]
        self.logical_words = gf2.pack_words(self.logicals)
        self.words = np.hstack([mid, final, frames])


@dataclass
class MemoryExperiment:
    """One EC cycle of a CSS memory with teleported check readout."""

    code: CssCode
    decoder: LookupDecoder
    z_basis: _BasisView
    x_basis: _BasisView
    # By compile_faults: the live cells, those whose words are not all zero,
    # as indices into z_basis's cells followed by x_basis's; their words in
    # that order (z_basis's z_live first), each syndrome widened to
    # syn_words; and the logical words of z_basis, then of x_basis.
    live: Optional[np.ndarray] = None
    words: Optional[np.ndarray] = None
    z_live: int = 0
    syn_words: int = 0
    logical_words: Optional[np.ndarray] = None

    def compile_faults(self) -> None:
        if self.live is not None:
            return
        views = (self.z_basis, self.x_basis)
        for view in views:
            view.compile_faults()
        live = [view.words.any(axis=1) for view in views]
        self.live = np.flatnonzero(np.concatenate(live))
        self.z_live = int(np.count_nonzero(live[0]))
        s = self.syn_words = max(view.syn_words for view in views)
        parts = []
        for view, rows in zip(views, live):
            t = view.syn_words  # zero words widen each syndrome to s
            widen = [t] * (s - t) + [2 * t] * (s - t)
            parts.append(np.insert(view.words[rows], widen, 0, axis=1))
        self.words = np.vstack(parts)
        self.logical_words = np.stack([view.logical_words for view in views])

    def failures(self, trial: np.ndarray, cell: np.ndarray):
        """Decode a pass, given each fault's trial and live cell (a row of
        words), sorted by trial, then cell.  Returns the key 2·trial + basis
        (0 for z_basis, 1 for x_basis) of each (trial, basis) group with
        faults, in order, and per group whether it failed heralded and
        whether silently.

        A group fails heralded when either decoding stage misses its table
        and silently when both hit and the corrected residue flips a logical
        of its basis; one bitwise_xor.reduceat sums every group's words, and
        one probe of the decoder's table stack looks both stages of every
        group up.
        """
        key = 2 * trial + (cell >= self.z_live)  # a trial's |0⟩ cells first
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = first.nonzero()[0]
        # take gathers rows several times faster than fancy indexing.
        acc = np.bitwise_xor.reduceat(self.words.take(cell, 0), starts, axis=0)
        group = key[starts]
        basis = group & 1
        m, s = len(starts), self.syn_words
        mid = acc[:, :s]
        # Both stages in one lookup: checks·(fr ^ c1) = final ^ mid, as the
        # first correction c1 has syndrome mid by construction of the table.
        stack = self.decoder.stack
        idx, hit = stack.find(np.concatenate([mid, acc[:, s: 2 * s] ^ mid]),
                              np.concatenate([basis, basis]))
        fix = stack.errors.take(idx, 0)
        resid = acc[:, 2 * s:] ^ fix[:m] ^ fix[m:]
        odd = np.bitwise_count(
            resid[:, None] & self.logical_words.take(basis, 0)).sum(axis=2)
        hit = hit[:m] & hit[m:]
        return group, ~hit, hit & (odd & 1).any(axis=1)


def _build_basis(code: CssCode, basis: str) -> _BasisView:
    circ = Circuit()
    mem = circ.new_block("M", code.n)
    if basis == "z":
        protocol._memory_prep(circ, mem, code.h_x)
    else:
        circ.init(mem, "0")
        circ.h_layer(mem)
        _, start = circ.measure_pauli("Z", code.h_z, mem)
        hz_r = gf2.right_inverse(code.h_z)
        circ.feedback("X", mem, hz_r.T, start, code.h_z.shape[0])
    mem2, mu_z1, _ = protocol.append_tele_z(circ, mem, code.h_z)
    circ.h_layer(mem2)
    mem3, mu_z2, _ = protocol.append_tele_z(circ, mem2, code.h_x)
    circ.h_layer(mem3)
    if basis == "z":
        syn = gf2.zeros(code.h_z.shape[0], circ.n_outcomes)
        syn[:, mu_z1: mu_z1 + code.n] = code.h_z
        return _BasisView(circuit=circ, mem_out=mem3, syn=syn,
                          checks=code.h_z, logicals=code.j_z,
                          frame_is_x=True)
    syn = gf2.zeros(code.h_x.shape[0], circ.n_outcomes)
    syn[:, mu_z2: mu_z2 + code.n] = code.h_x
    return _BasisView(circuit=circ, mem_out=mem3, syn=syn,
                      checks=code.h_x, logicals=code.j_x,
                      frame_is_x=False)


def build_memory_experiment(code: CssCode) -> MemoryExperiment:
    return MemoryExperiment(code=code, decoder=deep_decoder(code),
                            z_basis=_build_basis(code, "z"),
                            x_basis=_build_basis(code, "x"))


@dataclass
class RateEstimate:
    """Failures among the trials, with the 95% Wilson interval of the rate,
    and per basis ("z": |0…0⟩, "x": |+…+⟩) the trials that failed heralded
    (a table miss) or silently (a logical flip past both table hits)."""

    trials: int
    failures: int
    rate: float
    ci_low: float
    ci_high: float
    z_heralded: int
    z_silent: int
    x_heralded: int
    x_silent: int


WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(failures: int, trials: int):
    """95% Wilson score interval of a binomial rate."""
    z = WILSON_Z
    if trials == 0:
        return 0.0, 1.0
    phat = failures / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return lo, hi


BLOCK_CELLS = 1 << 20  # live cells (trials × live cells a trial) per block
PASS_FAULTS = 1 << 15  # faults after which a decoding pass ends


def _sample_block(seed: int, block: int, p_phy: float, trials: int,
                 cells: int):
    """The faults of one block: i.i.d. Bernoulli(p_phy) over its trials ×
    cells, drawn from trial_rng(seed, block) as a binomial count followed
    by that many distinct positions.  Returns (trial, cell) index arrays
    sorted by trial, then cell."""
    if p_phy == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    rng = trial_rng(seed, block)  # checked_rng's with-block costs µs per block
    total = trials * cells
    count = rng.binomial(total, p_phy)
    pos = np.sort(rng.choice(total, size=count, replace=False, shuffle=False))
    _check_stream(rng, block)
    trial = pos // cells
    return trial, pos - trial * cells  # np.divmod takes twice as long


def logical_error_rate(exp: MemoryExperiment, p_phy: float, trials: int,
                       seed: int, stream: int = 0) -> RateEstimate:
    """Monte Carlo failure-rate estimate with a 95% Wilson interval.

    Each trial runs the |0…0⟩-basis and |+…+⟩-basis circuits on
    independent fault draws; it fails on a heralded decode, a logical X
    flip in the first, or a logical Z flip in the second, and each basis's
    heralded and silent failures are counted apart.  Faults are drawn on
    the live cells of both bases (exp.live) in blocks of BLOCK_CELLS, block
    b from trial_rng(seed, stream + b), and decoded in passes: a pass takes
    consecutive blocks until it holds PASS_FAULTS faults or BLOCK_CELLS
    trials, then decodes both bases of all its trials in one exp.failures
    call.  The result does not depend on PASS_FAULTS.
    """
    if not 0 <= p_phy < 1:
        raise ValueError("p_phy must lie in [0, 1)")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    exp.compile_faults()
    cells = len(exp.live)
    block = max(1, BLOCK_CELLS // cells)
    failures = 0
    heralded_by_basis, silent_by_basis = np.zeros((2, 2), dtype=np.int64)
    b = start = 0
    while start < trials:
        # One pass of whole blocks, each block's trials numbered on from
        # the trials before it in the pass.
        trial_parts, cell_parts, size, faults = [], [], 0, 0
        while (start < trials and faults < PASS_FAULTS
               and size < BLOCK_CELLS):
            n = min(block, trials - start)
            trial, cell = _sample_block(seed, stream + b, p_phy, n, cells)
            trial_parts.append(trial + size)
            cell_parts.append(cell)
            b, start = b + 1, start + n
            size, faults = size + n, faults + len(trial)
        group, heralded, silent = exp.failures(np.concatenate(trial_parts),
                                               np.concatenate(cell_parts))
        # Per basis (group & 1), the groups that failed each way.
        heralded_by_basis += np.bincount(group[heralded] & 1, minlength=2)
        silent_by_basis += np.bincount(group[silent] & 1, minlength=2)
        failed = group[heralded | silent] >> 1  # a trial's groups adjacent
        failures += len(failed) - int(np.count_nonzero(
            failed[1:] == failed[:-1]))
    z_heralded, x_heralded = heralded_by_basis.tolist()
    z_silent, x_silent = silent_by_basis.tolist()
    lo, hi = wilson_interval(failures, trials)
    return RateEstimate(trials=trials, failures=failures,
                        rate=failures / trials if trials else 0.0,
                        ci_low=lo, ci_high=hi, z_heralded=z_heralded,
                        z_silent=z_silent, x_heralded=x_heralded,
                        x_silent=x_silent)
