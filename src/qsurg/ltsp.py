"""Resource-state preparation over a classical test code, with error bounds.

A teleportation resource state for measuring the Z checks of a CSS source
code lives on two blocks (B, C) of the source; here it is prepared in bulk:
every qubit of the defining circuit is replaced by a block of a classical
code F (the "test code") that protects Z-type information, so one run of
the preparation circuit emits k_F copies.  Measurement errors inside the
run are controlled by a single round of F parity checks, exploiting the
exact soundness of F: undetected X errors reduce to bounded-weight errors
on the output copies, and Z errors never grow at all.

The module provides the block propagation/check matrices of the circuit,
both residual-error constructions with their weight bounds, and sweeps of
them: exhaustive for Z, the fault sets counted per distinct contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import gf2
from .circuit import Circuit, Layout, Loc
from .codes import ClassicalCode, CssCode, validate_css


class ResourceStateError(Exception):
    pass


@dataclass
class ResourceStateSpec:
    """Stabilizer generators of the two-block resource state.

    h_rs_x = [[h_x, h_x], [j_x, j_x]], h_rs_z = [[E, E], [0, h_z]] over the
    2n qubits (B | C).  For a complete source code these generate the full
    stabilizer group of a pure state.
    """

    h_rs_x: np.ndarray
    h_rs_z: np.ndarray
    source: CssCode


def resource_state(source: CssCode) -> ResourceStateSpec:
    """Build and validate the resource-state generators for a source code."""
    bad = validate_css(source)
    if bad:
        raise ResourceStateError(f"invalid source code: {bad[0]}")
    n = source.n
    e = gf2.eye(n)
    h_rs_x = np.concatenate([
        np.concatenate([source.h_x, source.h_x], axis=1),
        np.concatenate([source.j_x, source.j_x], axis=1),
    ])
    h_rs_z = np.concatenate([
        np.concatenate([e, e], axis=1),
        np.concatenate([gf2.zeros(source.h_z.shape[0], n), source.h_z], axis=1),
    ])
    if gf2.mul(h_rs_x, h_rs_z.T).any():
        raise ResourceStateError("resource generators do not commute")
    total = gf2.rank(h_rs_x) + gf2.rank(h_rs_z)
    if total != 2 * n:
        raise ResourceStateError(
            f"stabilizer group not full rank ({total} of {2 * n}); "
            "the source code carries untracked logical pairs")
    # Bell-state rewrite consistency: the row space of (E | E) equals the
    # span of the check/logical/right-inverse decomposition.
    hzr = gf2.right_inverse(source.h_z)
    hxr = gf2.right_inverse(source.h_x)
    if hzr is None or hxr is None:
        raise ResourceStateError("source check matrices are not full rank")
    dec = np.concatenate([source.h_x, source.j_x, hzr.T])
    if gf2.rank(dec) != n:
        raise ResourceStateError("Bell rewrite does not span the X side")
    return ResourceStateSpec(h_rs_x=h_rs_x, h_rs_z=h_rs_z, source=source)


# ── preparation circuit ─────────────────────────────────────────────────


@dataclass
class PrepCircuit:
    """Built preparation circuit plus the lemma-level location dictionary.

    Column groups (the layouts of sp_matrices): B1..B6 / C1..C6 with widths
    n_F·n_D (B6/C6: k_F·n_D), D1..D3 with width n_F·r_Z, and the two
    parity-check outcome groups meaB / meaC of width r_F·n_D.  col_locs
    maps each group to concrete circuit locations (None = no physical
    counterpart; only Z faults on D3, which provably do nothing).
    """

    circuit: Circuit
    source: CssCode
    f: ClassicalCode
    col_locs: dict
    b_ids: np.ndarray
    c_ids: np.ndarray

    @property
    def k_f(self) -> int:
        return self.f.k

    def copy_qubits(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        n_d = self.source.n
        return (self.b_ids[j * n_d:(j + 1) * n_d],
                self.c_ids[j * n_d:(j + 1) * n_d])

    def detector_matrix(self) -> np.ndarray:
        """Single-round detection as combinations of raw circuit outcomes:
        the D3, meaB and meaC columns of h_sp_z, each at its outcome, so
        the rows are those of sp_matrices().h_sp_z."""
        _, lay, h_sp_z = _sp_checks(self.source, self.f)
        out = gf2.zeros(h_sp_z.shape[0], self.circuit.n_outcomes)
        for name in ("D3", "meaB", "meaC"):
            cols = [loc.index for loc in self.col_locs[name]]
            out[:, cols] = h_sp_z[:, lay.sl(name)]
        return out


def build_prep_circuit(source: CssCode, f: ClassicalCode) -> PrepCircuit:
    """Preparation circuit emitting k_F resource-state copies.

    Step order: transversal init, Bell CNOTs (C→B), generalized CNOT into
    the readout blocks (coupling E_{n_F} ⊗ h_zᵀ), transversal Z readout of
    D, one round of F parity checks on B and C, outcome-conditioned X
    feedback on both blocks, and the standard-form decode (tail X
    measurements with Z feedback on the heads).
    """
    if not gf2.is_standard_form(f.g):
        raise ValueError("test-code generator must be in standard form")
    n_d = source.n
    h_z = source.h_z
    r_z = h_z.shape[0]
    n_f, k_f, r_f = f.n, f.k, f.h.shape[0]

    c = Circuit()
    b_ids = c.new_block("B", n_f * n_d)
    c_ids = c.new_block("C", n_f * n_d)
    d_ids = c.new_block("D", n_f * r_z)

    s_init_c = c.init(c_ids, "+")
    s_init_b = c.init(b_ids, "0")
    s_init_d = c.init(d_ids, "0")
    s_bell = c.gcnot(c_ids, b_ids, gf2.eye(n_f * n_d))
    s_gcnot = c.gcnot(c_ids, d_ids, gf2.kron(gf2.eye(n_f), h_z.T))
    _, d_start = c.measure(d_ids, "Z")

    block = lambda ids, a: ids[[fi * n_d + a for fi in range(n_f)]]
    pcm_b, mea_b_start = zip(*[c.measure_pauli("Z", f.h, block(b_ids, a))
                               for a in range(n_d)])
    pcm_c, mea_c_start = zip(*[c.measure_pauli("Z", f.h, block(c_ids, a))
                               for a in range(n_d)])

    # X feedback from the D readout, on both blocks so the Bell-type
    # stabilizers keep their signs.  Support W = h_z^r · V · (g^r g); the
    # per-level pattern lies in rowspace(g), preserving the F syndrome.
    hz_r = gf2.right_inverse(h_z)
    if hz_r is None:
        raise ValueError("source h_z must be full rank")
    proj = gf2.mul(gf2.right_inverse(f.g), f.g)
    m_fb = gf2.kron(proj, hz_r.T)
    s_fb_b = c.feedback("X", b_ids, m_fb, d_start, n_f * r_z)
    s_fb_c = c.feedback("X", c_ids, m_fb, d_start, n_f * r_z)

    # Decode: measure tail levels in X, fix head X-logicals with Z feedback.
    p = f.g[:, k_f:]
    dec_fb = {}  # (block, a) -> the decode's feedback step, if a has a tail
    for ids, tag in ((b_ids, "B"), (c_ids, "C")):
        for a in range(n_d):
            tail = ids[[fi * n_d + a for fi in range(k_f, n_f)]]
            head = ids[[fi * n_d + a for fi in range(k_f)]]
            if len(tail):
                _, mstart = c.measure(tail, "X")
                dec_fb[tag, a] = c.feedback("Z", head, p.T, mstart, n_f - k_f)

    # Concrete locations per layout column (level-major position f·n_D + a).
    def q_locs(ids, step):
        return [Loc("q", step, int(q)) for q in ids]

    def head_locs(ids, tag):
        fb = s_fb_b if tag == "B" else s_fb_c
        return [Loc("q", dec_fb.get((tag, a), fb), int(ids[fi * n_d + a]))
                for fi in range(k_f) for a in range(n_d)]

    def pcm_locs(ids, steps):
        return [Loc("q", steps[pos % n_d], int(ids[pos]))
                for pos in range(n_f * n_d)]

    col_locs = {
        "B1": q_locs(b_ids, s_init_b),
        "B2": q_locs(b_ids, s_bell),
        "B3": q_locs(b_ids, s_bell),
        "B4": q_locs(b_ids, s_bell),
        "B5": pcm_locs(b_ids, pcm_b),
        "B6": head_locs(b_ids, "B"),
        "C1": q_locs(c_ids, s_init_c),
        "C2": q_locs(c_ids, s_bell),
        "C3": q_locs(c_ids, s_gcnot),
        "C4": q_locs(c_ids, s_gcnot),
        "C5": pcm_locs(c_ids, pcm_c),
        "C6": head_locs(c_ids, "C"),
        "D1": q_locs(d_ids, s_init_d),
        "D2": q_locs(d_ids, s_gcnot),
        "D3": [Loc("flip", -1, d_start + i) for i in range(n_f * r_z)],
        "meaB": [Loc("flip", -1, mea_b_start[a] + phi)
                 for phi in range(r_f) for a in range(n_d)],
        "meaC": [Loc("flip", -1, mea_c_start[a] + phi)
                 for phi in range(r_f) for a in range(n_d)],
    }
    # Feedback layers sit inside column 5; their own after-locations are
    # equivalent to the ones above, so the canonical map stays injective.
    return PrepCircuit(circuit=c, source=source, f=f, col_locs=col_locs,
                       b_ids=b_ids, c_ids=c_ids)


# ── displayed propagation/check matrices ────────────────────────────────


@dataclass
class SpPropagation:
    """Spacetime propagation and check matrices for one output copy."""

    j_sp_x: np.ndarray
    j_sp_z: np.ndarray
    h_sp_z: np.ndarray
    layout_z: Layout
    layout_x: Layout
    copy_j: int
    source: CssCode
    f: ClassicalCode
    rs: ResourceStateSpec
    _amplification: Optional[Fraction] = field(
        default=None, init=False, repr=False, compare=False)
    _units: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def amplification(self) -> Fraction:
        """max{1, n_F / (r_F·s)} with the exact computed soundness.

        The soundness sweep is exhaustive over F's syndromes, so it runs
        only when F has none yet (codes.soundness keeps it on F).
        """
        if self._amplification is None:
            from .codes import soundness
            s = self.f.soundness or soundness(self.f)
            self._amplification = Fraction(1) if s is None else max(
                Fraction(1), Fraction(self.f.n, self.f.h.shape[0]) / s)
        return self._amplification

    def _to_copy(self, *rows: np.ndarray) -> list:
        """Each m[copy_j] ⊗ E_n_D: a level-major group's map to the copy."""
        return [gf2.kron(m[self.copy_j:][:1], gf2.eye(self.source.n)) for m in rows]

    def z_units(self) -> tuple[Layout, np.ndarray]:
        """(fields, packed rows), built on first use from the fields as they
        are then: per layout_z location, the residual u_eff of its unit
        fault and the defect h_rs_x·(0 | u_eff) ⊕ j_sp_x·e."""
        if "z" not in self._units:
            g_j, e_j = self._to_copy(self.f.g, gf2.eye(self.f.k))
            u_eff = _assemble(self.layout_z, {
                **{f"B{i}": g_j for i in (2, 3, 4, 5)}, "B6": e_j,
                **{f"C{i}": g_j for i in (1, 2, 3, 4, 5)}, "C6": e_j}).T
            defect = gf2.row_images(self.rs.h_rs_x[:, self.source.n:], u_eff)
            self._units["z"] = _unit_table(u_eff=u_eff, defect=defect ^ self.j_sp_x.T)
        return self._units["z"]

    def x_units(self) -> tuple[Layout, np.ndarray]:
        """As z_units(), per layout_x location, for each linear map that
        check_x_bound reads: h_sp_z, the meaB and meaC flips, the targets
        vec(u_b ⊕ u_c) | vec(h_z·u_c ⊕ u_d), the residual's linear B | C
        parts and the defect h_rs_z·e_rs ⊕ j_sp_z·e."""
        if "x" not in self._units:
            lay, hz = self.layout_x, gf2.kron(gf2.eye(self.f.n), self.source.h_z)
            gr_j, e_j = self._to_copy(gf2.right_inverse(self.f.g).T, gf2.eye(self.f.k))
            eye = lambda *names: {nm: gf2.eye(dict(lay.groups)[nm]) for nm in names}
            residual = np.concatenate([_assemble(lay, {"B5": gr_j, "B6": e_j}),
                                       _assemble(lay, {"C5": gr_j, "C6": e_j})]).T
            self._units["x"] = _unit_table(
                syn=self.h_sp_z.T, meaB=_assemble(lay, eye("meaB")).T,
                meaC=_assemble(lay, eye("meaC")).T, targets=np.concatenate([
                    _assemble(lay, eye("B1", "B2", "B3", "B4", "C2", "C3", "C4")),
                    _assemble(lay, {"C3": hz, "C4": hz, **eye("D1", "D2", "D3")})]).T,
                residual=residual,
                defect=gf2.row_images(self.rs.h_rs_z, residual) ^ self.j_sp_z.T)
        return self._units["x"]


def _assemble(layout: Layout, blocks: dict) -> np.ndarray:
    """Rows over `layout`, each named group's columns set to its block."""
    rows = max(m.shape[0] for m in blocks.values())
    out = gf2.zeros(rows, layout.total)
    for name, m in blocks.items():
        out[:, layout.sl(name)] = m
    return out


def _unit_table(**fields) -> tuple[Layout, np.ndarray]:
    """(field layout, packed rows): the named unit images side by side."""
    return (Layout([(nm, m.shape[1]) for nm, m in fields.items()]),
            gf2.pack_words(np.concatenate(list(fields.values()), axis=1)))


def _images(units: tuple, e) -> tuple[Layout, np.ndarray, np.ndarray]:
    """(fields, images, weights) of the fault rows e (one xor_map of the
    table), or of the unit batch, each location's unit fault in order."""
    fields, table = units
    if e is None:
        return fields, gf2.unpack_words(table, fields.total), np.ones(len(table), int)
    e = gf2.as_rows(e)
    weight = np.bitwise_count(np.packbits(e, axis=1)).sum(axis=1, dtype=int)
    return fields, gf2.unpack_words(gf2.xor_map(e)(table), fields.total), weight


def _sp_checks(source: CssCode, f: ClassicalCode):
    """(layout_z, layout_x, h_sp_z): the column layouts of the Z and X
    faults, and the single-round check matrix over layout_x.  None of them
    depends on the output copy."""
    n_d, r_z = source.n, source.h_z.shape[0]
    n_f, k_f, r_f = f.n, f.k, f.h.shape[0]
    groups_z = [(f"B{i}", n_f * n_d) for i in range(1, 6)] + [("B6", k_f * n_d)]
    groups_z += [(f"C{i}", n_f * n_d) for i in range(1, 6)] + [("C6", k_f * n_d)]
    groups_z += [(f"D{i}", n_f * r_z) for i in range(1, 4)]
    layout_z = Layout(groups_z)
    layout_x = Layout(groups_z + [("meaB", r_f * n_d), ("meaC", r_f * n_d)])

    # Rows: test-code metachecks on the B and C parity outcomes, the B/C
    # outcome-consistency family, and the readout-consistency family tying
    # D to the C parity outcomes.
    meta = gf2.kron(gf2.left_null_space(f.h), gf2.eye(n_d))
    same = gf2.eye(r_f * n_d)
    hf_e = gf2.kron(f.h, gf2.eye(n_d))
    hf_hz = gf2.kron(f.h, source.h_z)
    hf_d = gf2.kron(f.h, gf2.eye(r_z))
    h_sp_z = np.concatenate([
        _assemble(layout_x, {"meaB": meta}),
        _assemble(layout_x, {"meaC": meta}),
        _assemble(layout_x, {**{f"B{i}": hf_e for i in (1, 2, 3, 4)},
                             **{f"C{i}": hf_e for i in (2, 3, 4)},
                             "meaB": same, "meaC": same}),
        _assemble(layout_x, {"C3": hf_hz, "C4": hf_hz,
                             **{f"D{i}": hf_d for i in (1, 2, 3)},
                             "meaC": gf2.kron(gf2.eye(r_f), source.h_z)})])
    return layout_z, layout_x, h_sp_z


def sp_matrices(source: CssCode, f: ClassicalCode, copy_j: int) -> SpPropagation:
    """Block propagation/check matrices for output copy `copy_j` (0-based)."""
    if not 0 <= copy_j < f.k:
        raise ValueError("copy index out of range")
    return next(sp_copies(source, f, [copy_j]))


def sp_copies(source: CssCode, f: ClassicalCode, copies: Iterable[int]):
    """Yield sp_matrices(source, f, j) for each j of copies in turn, built
    on one resource state and one _sp_checks, which no copy changes."""
    n_d, r_z, k_f = source.n, source.h_z.shape[0], f.k
    rs = resource_state(source)
    layout_z, layout_x, h_sp_z = _sp_checks(source, f)
    gr = gf2.right_inverse(f.g).T
    for copy_j in copies:
        g_j, e_j, gr_j = (m[copy_j:][:1] for m in (f.g, gf2.eye(k_f), gr))

        hx_j = np.concatenate([gf2.kron(g_j, source.h_x), gf2.kron(g_j, source.j_x)])
        hx_e = np.concatenate([gf2.kron(e_j, source.h_x), gf2.kron(e_j, source.j_x)])
        j_sp_x = _assemble(layout_z, {
            **{f"B{i}": hx_j for i in (2, 3, 4, 5)}, "B6": hx_e,
            **{f"C{i}": hx_j for i in (1, 2, 3, 4, 5)}, "C6": hx_e,
        })

        bell_j, bell_e = (gf2.kron(v, gf2.eye(n_d)) for v in (gr_j, e_j))
        hz_j, hz_e = (gf2.kron(v, source.h_z) for v in (gr_j, e_j))
        dd_j = gf2.kron(gr_j, gf2.eye(r_z))
        top = _assemble(layout_x, {
            **{f"B{i}": bell_j for i in (1, 2, 3, 4, 5)}, "B6": bell_e,
            **{f"C{i}": bell_j for i in (2, 3, 4, 5)}, "C6": bell_e,
        })
        bot = _assemble(layout_x, {
            **{f"C{i}": hz_j for i in (3, 4, 5)}, "C6": hz_e,
            **{f"D{i}": dd_j for i in (1, 2, 3)},
        })
        j_sp_z = np.concatenate([top, bot])

        yield SpPropagation(j_sp_x=j_sp_x, j_sp_z=j_sp_z, h_sp_z=h_sp_z,
                            layout_z=layout_z, layout_x=layout_x, copy_j=copy_j,
                            source=source, f=f, rs=rs)


# ── residual-error constructions ────────────────────────────────────────


def check_z_bound(spp: SpPropagation, e_sp_z: Optional[np.ndarray]):
    """Residual Z error on the output copy for spacetime Z faults.

    e_sp_z holds one fault per row (a vector is one row), or is None for
    the unit batch (see _images).  Returns (e_rs_z, ok), one row and one
    entry per fault: the equivalent residual (0 | u_eff) satisfying
    h_rs_x·e_rsᵀ = j_sp_x·e_spᵀ, and ok = (|e_rs| ≤ |e_sp|).
    """
    fields, images, weight = _images(spp.z_units(), e_sp_z)
    if fields.part(images, "defect").any():
        raise ResourceStateError("Z-residual equivalence identity failed")
    u_eff = fields.part(images, "u_eff")
    e_rs = np.concatenate([np.zeros_like(u_eff), u_eff], axis=1)
    return e_rs, np.count_nonzero(u_eff, axis=1) <= weight


@dataclass
class XBoundResult:
    status: np.ndarray    # per fault: "detected", "ok", or "inequivalent"
    e_rs_x: np.ndarray    # per fault: the residual, zero unless "ok"
    bound_ok: np.ndarray  # per fault: the bound holds, False unless "ok"


_X_FAILURES = {1: "undetected flips outside colsp(h_f)",
               2: "min-weight preimage beats the soundness bound??",
               3: "X-residual equivalence identity failed"}


def check_x_bound(spp: SpPropagation, e_sp_x: Optional[np.ndarray]) -> XBoundResult:
    """Residual X error construction with the soundness-controlled bound.

    e_sp_x holds one fault per row (a vector is one row; None is the unit
    batch, see _images), and each result field holds one entry per fault.
    Detected faults (nonzero h_sp_z syndrome) are "detected".  For
    undetected faults the F-syndrome preimages are taken minimum-weight per
    block, read once per distinct syndrome from one gf2.syndrome_table of
    h_F (built only when some undetected fault has flips); the two
    test-code equalities behind the construction are then checked, and
    hold whenever the fault weight is below d_F / (ω·amplification()), ω
    the largest row or column weight of the source h_z.  A failed check
    raises ResourceStateError for the first fault that fails one, as a
    row-by-row run would.
    """
    fields, images, weight = _images(spp.x_units(), e_sp_x)
    n_d, f, amp = spp.source.n, spp.f, spp.amplification()
    detected = fields.part(images, "syn").any(axis=1)
    u, weight = images[~detected], weight[~detected]

    # Flip patterns per (fault, B/C, block a): each maps to its
    # minimum-weight preimage under h_F, read once per distinct pattern
    # from h_F's coset table, and a fault's preimages w add
    # vec(w_b ⊕ w_c) | vec(h_z·w_c) to its targets, r = w·gr_j to its
    # residual and h_rs_z·r to its defect.
    v = np.concatenate([gf2.unvec(fields.part(u, nm), n_d)
                        for nm in ("meaB", "meaC")], axis=1)
    has = v.any(axis=(1, 2))
    v = gf2.pack_words(v[has].reshape(-1, f.h.shape[0]))
    _, first, which = np.unique(gf2._row_keys(v), return_index=True,
                                return_inverse=True)
    table, failure = gf2.zeros(len(first), f.n), np.zeros(len(first), np.int8)
    if len(first):  # a pattern outside colsp(h_F) gets some row, unused
        coset = gf2.syndrome_table(f.h, f.n)
        idx, hit = coset.find(v[first])
        table = gf2.unpack_words(coset.errors[idx], f.n)
        over = (np.count_nonzero(table, axis=1) * amp.denominator
                > amp.numerator * np.bitwise_count(v[first]).sum(axis=1))
        failure = np.where(hit, 2 * over, 1)
    fails = np.zeros((len(u), 2 * n_d), dtype=np.int8)
    which = which.reshape(-1, 2 * n_d)
    fails[has], w = failure[which], table[which]
    r = gf2.mul(w, gf2.right_inverse(f.g).T[spp.copy_j])
    vecs = lambda m: m.swapaxes(1, 2).reshape(len(m), m.shape[1] * m.shape[2])
    u[has, fields.offsets["targets"]:] ^= np.concatenate([  # targets, residual, defect
        vecs(w[:, :n_d] ^ w[:, n_d:]), vecs(gf2.mul(spp.source.h_z, w[:, n_d:])),
        r, gf2.mul(r, spp.rs.h_rs_z.T)], axis=1)
    e_rs = fields.part(u, "residual")
    equivalent = ~fields.part(u, "targets").any(axis=1)
    # Row-major order of the checks a row-by-row run makes: each fault's B
    # then C blocks, then its identity (when equivalent).
    codes = np.column_stack([
        fails, 3 * (equivalent & fields.part(u, "defect").any(axis=1))])
    if codes.any():
        raise ResourceStateError(_X_FAILURES[int(codes[codes != 0][0])])
    bound_ok = equivalent & (np.count_nonzero(e_rs, axis=1) * amp.denominator
                             <= amp.numerator * weight)

    status = np.full(len(detected), "detected", dtype="<U12")
    status[~detected] = np.where(equivalent, "ok", "inequivalent")
    e_rs_x, bound = gf2.zeros(len(detected), 2 * n_d), np.zeros(len(detected), bool)
    e_rs_x[~detected], bound[~detected] = e_rs * equivalent[:, None], bound_ok
    return XBoundResult(status=status, e_rs_x=e_rs_x, bound_ok=bound)


# ── sweep drivers ───────────────────────────────────────────────────────


@dataclass
class LemmaSweepReport:
    checked: int = 0
    detected: int = 0
    ok: int = 0
    inequivalent: int = 0
    violations: int = 0

    @property
    def clean(self) -> bool:
        return self.violations == 0


def sweep_z_lemma(spp: SpPropagation, max_weight: int = 2) -> LemmaSweepReport:
    """Exhaustive weight ≤ max_weight check of the Z-residual bound.  The
    map is linear, so a w-fault's residual is the XOR of its locations'
    contributions, each checked by check_z_bound, and must weigh at most w;
    the sets are counted per class of equal contributions, not listed."""
    contrib, _ = check_z_bound(spp, None)
    words, counts = gf2.combination_counts(gf2.pack_words(contrib), max_weight)
    fits = np.bitwise_count(words).sum(axis=1)[:, None] <= np.arange(counts.shape[1])
    checked, ok = int(counts[:, 1:].sum()), int((counts * fits)[:, 1:].sum())
    return LemmaSweepReport(checked=checked, ok=ok, violations=checked - ok)


def sweep_x_lemma(spp: SpPropagation, max_weight: int = 1,
                  samples: int = 0, seed: int = 0,
                  stream: int = 0) -> LemmaSweepReport:
    """Weight-1 exhaustive plus sampled weight-2 checks of the X bound: the
    unit faults as one batch, then the pairs, drawn from
    sim.checked_rng(seed, stream), as another."""
    from . import sim  # sim imports protocol, which imports this module
    if max_weight < 1 and not samples:
        return LemmaSweepReport()
    with sim.checked_rng(seed, stream) as rng:
        pairs = gf2.fault_rows(rng, spp.layout_x.total, [], np.full(samples, 2))
    res = [check_x_bound(spp, faults)
           for faults in [None] * (max_weight >= 1) + [pairs] * (samples > 0)]
    status, bound_ok = (np.concatenate([getattr(r, name) for r in res])
                        for name in ("status", "bound_ok"))
    count = lambda mask: int(np.count_nonzero(mask))
    ok, inequivalent = count(status == "ok"), count(status == "inequivalent")
    return LemmaSweepReport(checked=len(status), ok=ok, inequivalent=inequivalent,
                            detected=count(status == "detected"),
                            violations=inequivalent + ok - count(bound_ok))
