"""Teleported parity-check measurement and full code-surgery runs.

The teleported Z-check measurement consumes a two-block resource state:
the input block A is coupled transversally to block B, A is read out in X
and B in Z, the state moves to block C up to Pauli corrections, and the
check outcomes are the classical combination h_z·mu_z.  Faults anywhere in
the gadget reduce to effective faults on the input and output blocks only,
with the measurement itself error-free; both reductions are implemented
and checked here.

A surgery run measures the selected logical Z set on k_R target copies:
ancilla in |+>, one teleported round of the deformed code's Z checks, an
ancilla X readout, one teleported round of the memory X checks, then Pauli
repair.  The run is built twice: an `abstract` circuit whose two rounds
are primitive projective measurements (every lemma-level fault location is
concrete there) and an `expanded` circuit with the teleported rounds fully
inlined (used for end-to-end and Monte Carlo runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gf2
from .circuit import Circuit, Layout, Loc
from .codes import CssCode
from .ltsp import resource_state
from .surgery import DeformedCode, measured_extraction


# ── teleported measurement gadget ───────────────────────────────────────


@dataclass
class TeleMeasurement:
    """Teleported measurement of Z(h_z) for one CSS source code."""

    source: CssCode
    circuit: Circuit
    layout: Layout                      # A1 A2 B1 B2 C1 C2 C3, width n each
    col_locs: dict
    c_ids: np.ndarray
    mu_z_start: int
    j_m_x: np.ndarray
    j_m_z: np.ndarray
    j_m_mz: np.ndarray
    j_m_oc: np.ndarray

    def derived_outcome(self, outcome_bits: np.ndarray) -> np.ndarray:
        """Measured Z(h_z) values h_z · mu_z, of one run or of each row."""
        start = self.mu_z_start
        mu_z = np.asarray(outcome_bits)[..., start: start + self.source.n]
        return gf2.mul(mu_z, self.source.h_z.T)


def _append_resource_prep(circ: Circuit, h_z: np.ndarray, n: int):
    """Bell pairs plus a projected Z(h_z) on the second block.

    The X feedback acts on both blocks so every Bell-type stabilizer keeps
    its sign; returns (b_ids, c_ids, feedback steps).
    """
    b_ids = circ.new_block(f"rsB{len(circ.ops)}", n)
    c_ids = circ.new_block(f"rsC{len(circ.ops)}", n)
    circ.init(c_ids, "+")
    circ.init(b_ids, "0")
    circ.gcnot(c_ids, b_ids, gf2.eye(n))
    _, nu0 = circ.measure_pauli("Z", h_z, c_ids)
    hz_r = gf2.right_inverse(h_z)
    if hz_r is None:
        raise ValueError("resource checks must be full rank")
    s_fb_b = circ.feedback("X", b_ids, hz_r.T, nu0, h_z.shape[0])
    s_fb_c = circ.feedback("X", c_ids, hz_r.T, nu0, h_z.shape[0])
    return b_ids, c_ids, s_fb_b, s_fb_c


def append_tele_z(circ: Circuit, sys_ids: np.ndarray, h_z: np.ndarray):
    """Inline one teleported Z(h_z) round; the state moves to a fresh block.

    Returns (c_ids, mu_z_start, steps) where steps names the op indices
    needed for location bookkeeping.
    """
    n = len(sys_ids)
    b_ids, c_ids, s_fb_b, s_fb_c = _append_resource_prep(circ, h_z, n)
    s_cnot = circ.gcnot(sys_ids, b_ids, gf2.eye(n))
    _, mu_x = circ.measure(sys_ids, "X")
    _, mu_z = circ.measure(b_ids, "Z")
    circ.feedback("X", c_ids, gf2.eye(n), mu_z, n)
    s_corr = circ.feedback("Z", c_ids, gf2.eye(n), mu_x, n)
    steps = {"fb_b": s_fb_b, "fb_c": s_fb_c, "cnot": s_cnot, "corr": s_corr}
    return c_ids, mu_z, steps


def build_tele_measurement(source: CssCode) -> TeleMeasurement:
    """Gadget circuit plus its displayed propagation matrices."""
    resource_state(source)  # validates the source
    n = source.n
    circ = Circuit()
    a_ids = circ.new_block("A", n)
    circ.mark_input(a_ids)
    c_ids, mu_z, steps = append_tele_z(circ, a_ids, source.h_z)

    layout = Layout([(name, n) for name in
                     ("A1", "A2", "B1", "B2", "C1", "C2", "C3")])
    b_ids = circ.blocks[[k for k in circ.blocks if k.startswith("rsB")][0]]
    q = lambda ids, step: [Loc("q", step, int(i)) for i in ids]
    col_locs = {
        "A1": [Loc("q", -1, int(i)) for i in a_ids],
        "A2": q(a_ids, steps["cnot"]),
        "B1": q(b_ids, steps["fb_b"]),
        "B2": q(b_ids, steps["cnot"]),
        "C1": q(c_ids, steps["fb_c"]),
        "C2": q(c_ids, steps["fb_c"]),
        "C3": q(c_ids, steps["corr"]),
    }

    hj = np.concatenate([source.h_x, source.j_x])
    zero_hj = gf2.zeros(hj.shape[0], n)
    j_m_x = np.concatenate(
        [hj, hj, hj, zero_hj, hj, hj, hj], axis=1)
    hx_r = gf2.right_inverse(source.h_x)
    zj = np.concatenate([hx_r.T, source.j_z])
    zero_zj = gf2.zeros(zj.shape[0], n)
    j_m_z = np.concatenate(
        [zj, zero_zj, zj, zj, zj, zj, zj], axis=1)
    hz = source.h_z
    zero_hz = gf2.zeros(hz.shape[0], n)
    j_m_mz = np.concatenate([hz, zero_hz, hz, hz, hz, hz, hz], axis=1)
    j_m_oc = np.concatenate(
        [hz, zero_hz, hz, hz, zero_hz, zero_hz, zero_hz], axis=1)
    return TeleMeasurement(source=source, circuit=circ, layout=layout,
                           col_locs=col_locs, c_ids=c_ids, mu_z_start=mu_z,
                           j_m_x=j_m_x, j_m_z=j_m_z, j_m_mz=j_m_mz,
                           j_m_oc=j_m_oc)


def effective_z_error(tm: TeleMeasurement, e_m_z: np.ndarray):
    """Push spacetime Z faults of the gadget to the end of block C.

    e_m_z holds one fault per row (a vector is one row).  Returns
    (e_eff, ok), one row and one entry per fault: e_eff supported on C3
    only, equivalent under j_m_x, with ok = (|e_eff| ≤ |e|).
    """
    lay = tm.layout
    e = gf2.as_rows(e_m_z)
    e_eff = np.zeros_like(e)
    e_eff[:, lay.sl("C3")] = lay.xor(e, "A1", "A2", "B1", "C1", "C2", "C3")
    if (gf2.row_images(tm.j_m_x, e_eff) != gf2.row_images(tm.j_m_x, e)).any():
        raise AssertionError("Z effective-error equivalence failed")
    return e_eff, np.count_nonzero(e_eff, axis=1) <= np.count_nonzero(e, axis=1)


def effective_x_error(tm: TeleMeasurement, e_m_x: np.ndarray):
    """Push spacetime X faults to the start of A plus the end of C.

    Equivalence is preserved for all three trackers (unmeasured Z
    operators, measured Z operators, and the reported outcome).  Input and
    result are as in effective_z_error.
    """
    lay = tm.layout
    e = gf2.as_rows(e_m_x)
    e_eff = np.zeros_like(e)
    e_eff[:, lay.sl("A1")] = lay.xor(e, "A1", "B1", "B2")
    e_eff[:, lay.sl("C3")] = lay.xor(e, "C1", "C2", "C3")
    for m in (tm.j_m_z, tm.j_m_mz, tm.j_m_oc):
        if (gf2.row_images(m, e_eff) != gf2.row_images(m, e)).any():
            raise AssertionError("X effective-error equivalence failed")
    return e_eff, np.count_nonzero(e_eff, axis=1) <= np.count_nonzero(e, axis=1)


# ── full surgery run ────────────────────────────────────────────────────


@dataclass
class SurgeryView:
    """One realization of the run plus its outcome bookkeeping.

    nu / mu / nu_tilde are linear reads of the raw outcome vector: nu are
    the deformed-code Z-check values, mu the ancilla X readout, nu_tilde
    the memory X-check values.
    """

    circuit: Circuit
    nu_matrix: np.ndarray
    mu_start: int
    mu_count: int
    nu_tilde_matrix: np.ndarray
    mem_out: np.ndarray
    col_locs: Optional[dict] = None

    def nu(self, outcome_bits) -> np.ndarray:
        return gf2.mul(self.nu_matrix, np.asarray(outcome_bits, dtype=np.uint8))

    def mu(self, outcome_bits) -> np.ndarray:
        bits = np.asarray(outcome_bits, dtype=np.uint8)
        return bits[self.mu_start: self.mu_start + self.mu_count]

    def nu_tilde(self, outcome_bits) -> np.ndarray:
        return gf2.mul(self.nu_tilde_matrix, np.asarray(outcome_bits, dtype=np.uint8))


@dataclass
class SurgeryRun:
    """Surgery for one deformed code: circuits, detectors, lemma matrices."""

    deformed: DeformedCode
    abstract: SurgeryView
    expanded: SurgeryView
    layout: Layout                      # M1..M4, A1, A2 (fault columns)
    gamma_1: np.ndarray
    h_ls_x: np.ndarray
    h_ls_z: np.ndarray
    j_ls_x: np.ndarray
    j_ls_z: np.ndarray
    j_ls_mz: np.ndarray
    j_ls_oc: np.ndarray
    extract: np.ndarray                 # measured bits = extract · nu

    @property
    def n_mem(self) -> int:
        return self.deformed.k_r * self.deformed.target.n

    def measured_bits(self, view: SurgeryView, outcome_bits) -> np.ndarray:
        return gf2.mul(self.extract, view.nu(outcome_bits))

    def detector_bits(self, view: SurgeryView, outcome_bits) -> np.ndarray:
        """Noiselessly-zero detectors: (nu_tilde + mu·t̃ᵀ | mu·h̃_mᵀ | nu·γ1ᵀ)."""
        nu = view.nu(outcome_bits)
        mu = view.mu(outcome_bits)
        nt = view.nu_tilde(outcome_bits)
        d1 = nt ^ gf2.mul(mu, self.deformed.tilde_t().T)
        d2 = gf2.mul(mu, self.deformed.tilde_h_m().T)
        d3 = gf2.mul(self.gamma_1, nu)
        return np.concatenate([d1, d2, d3])


def _memory_prep(circ: Circuit, mem: np.ndarray, tilde_h_x: np.ndarray) -> int:
    """Project |0…0⟩ onto the code space: X-check readout plus Z repair."""
    circ.init(mem, "0")
    _, start = circ.measure_pauli("X", tilde_h_x, mem)
    hx_r = gf2.right_inverse(tilde_h_x)
    return circ.feedback("Z", mem, hx_r.T, start, tilde_h_x.shape[0])


def build_surgery_circuit(dc: DeformedCode) -> SurgeryRun:
    """Assemble both realizations of one surgery run, each starting with
    transversal |0…0⟩ code-space preparation of the memory."""
    k_r, n = dc.k_r, dc.target.n
    n_mem = k_r * n
    _, n2, n3 = dc.n_sectors
    n_anc = n2 + n3
    hdz = dc.css.h_z
    r_dz = hdz.shape[0]
    t_hx = dc.tilde_h_x()
    t_hz = dc.tilde_h_z()
    t_t = dc.tilde_t()
    t_hm = dc.tilde_h_m()
    t_beta = dc.tilde_beta()
    ta_jz = gf2.mul(dc.tilde_alpha(), dc.tilde_j_z())
    # The deformed code's tracked logicals, cut to the memory columns.
    tap_jx, tapr_jz = dc.css.j_x[:, :n_mem], dc.css.j_z[:, :n_mem]
    r_x = dc.target.h_x.shape[0]
    k_rz = k_r * dc.target.h_z.shape[0]

    gamma_1 = np.concatenate([gf2.eye(k_rz), gf2.zeros(k_rz, r_dz - k_rz)], axis=1)
    extract = measured_extraction(dc)

    # Pauli repair: solve [t_hx; tap_jx]·wᵀ = [nu_tilde + mu t̃ᵀ; mu β̃ᵀ].
    stack = np.concatenate([t_hx, tap_jx])
    q_solver = gf2.right_inverse(stack)
    if q_solver is None:
        raise ValueError("memory X checks and logicals are dependent")

    def build(abstract: bool) -> SurgeryView:
        circ = Circuit()
        mem = circ.new_block("M", n_mem)
        anc = circ.new_block("ANC", n_anc)
        prep_step = _memory_prep(circ, mem, t_hx)
        s_anc = circ.init(anc, "+")
        sys_ids = np.concatenate([mem, anc])
        if abstract:
            round1, nu_start = circ.measure_pauli("Z", hdz, sys_ids)
            mem2, anc2 = mem, anc
        else:
            out_ids, nu_start, steps1 = append_tele_z(circ, sys_ids, hdz)
            mem2, anc2 = out_ids[:n_mem], out_ids[n_mem:]
            round1 = steps1["corr"]
        _, mu_start = circ.measure(anc2, "X")
        if abstract:
            _, nt_start = circ.measure_pauli("X", t_hx, mem2)
            mem_out = mem2
        else:
            circ.h_layer(mem2)
            mem_out, nt_start, _ = append_tele_z(circ, mem2, t_hx)
            circ.h_layer(mem_out)

        # Repair feedback from (mu, nu_tilde): w = (d1 | mu β̃ᵀ) · q_solverᵀ.
        span = circ.n_outcomes - mu_start
        d1_rows = t_hx.shape[0]
        rhs_map = gf2.zeros(span, d1_rows + tap_jx.shape[0])
        rhs_map[:n_anc] = np.concatenate([t_t, t_beta]).T  # mu bits
        # nu_tilde bits directly, or, expanded, nu_tilde = t_hx · mu_z2
        # folded into the map.
        nt = gf2.eye(d1_rows) if abstract else t_hx.T
        row = nt_start - mu_start
        rhs_map[row: row + len(nt), :d1_rows] ^= nt
        m_v = gf2.mul(rhs_map, q_solver.T)
        s_v = circ.feedback("Z", mem_out, m_v, mu_start, span)

        nu_matrix = gf2.zeros(r_dz, circ.n_outcomes)
        nt_matrix = gf2.zeros(t_hx.shape[0], circ.n_outcomes)
        if abstract:
            nu_matrix[:, nu_start: nu_start + r_dz] = gf2.eye(r_dz)
            nt_matrix[:, nt_start: nt_start + t_hx.shape[0]] = gf2.eye(t_hx.shape[0])
        else:
            nu_matrix[:, nu_start: nu_start + n_mem + n_anc] = hdz
            nt_matrix[:, nt_start: nt_start + n_mem] = t_hx

        q = lambda ids, step: [Loc("q", step, int(i)) for i in ids]
        col_locs = {"M1": q(mem, prep_step), "M4": q(mem_out, s_v)}
        if abstract:
            col_locs.update({
                "M2": q(mem, round1), "M3": q(mem, round1),
                "A1": q(anc, s_anc), "A2": q(anc, round1),
                "meaX": [Loc("flip", -1, nt_start + i)
                         for i in range(t_hx.shape[0])],
                "meaZ": [Loc("flip", -1, nu_start + i) for i in range(r_dz)],
            })
        return SurgeryView(circuit=circ, nu_matrix=nu_matrix,
                           mu_start=mu_start, mu_count=n_anc,
                           nu_tilde_matrix=nt_matrix, mem_out=mem_out,
                           col_locs=col_locs)

    abstract = build(abstract=True)
    expanded = build(abstract=False)

    layout = Layout([("M1", n_mem), ("M2", n_mem), ("M3", n_mem),
                     ("M4", n_mem), ("A1", n_anc), ("A2", n_anc)])
    k_rx = k_r * r_x
    mea_x = k_rx
    zee = lambda r, c: gf2.zeros(r, c)

    j_ls_x = np.concatenate(
        [tap_jx] * 4 + [t_beta] * 2 + [zee(tap_jx.shape[0], mea_x)], axis=1)
    h_ls_x = np.concatenate([
        np.concatenate([t_hx, t_hx, t_hx, zee(k_rx, n_mem), t_t, t_t,
                        gf2.eye(k_rx)], axis=1),
        np.concatenate([zee(t_hm.shape[0], 4 * n_mem), t_hm, t_hm,
                        zee(t_hm.shape[0], mea_x)], axis=1),
    ])
    j_ls_z = np.concatenate(
        [tapr_jz] * 4 + [zee(tapr_jz.shape[0], 2 * n_anc + r_dz)], axis=1)
    j_ls_mz = np.concatenate(
        [ta_jz] * 4 + [zee(ta_jz.shape[0], 2 * n_anc + r_dz)], axis=1)
    j_ls_oc = np.concatenate(
        [ta_jz, zee(ta_jz.shape[0], 3 * n_mem + 2 * n_anc), extract], axis=1)
    h_ls_z = np.concatenate(
        [t_hz, zee(t_hz.shape[0], 3 * n_mem + 2 * n_anc), gamma_1], axis=1)

    return SurgeryRun(deformed=dc, abstract=abstract, expanded=expanded,
                      layout=layout, gamma_1=gamma_1,
                      h_ls_x=h_ls_x, h_ls_z=h_ls_z, j_ls_x=j_ls_x,
                      j_ls_z=j_ls_z, j_ls_mz=j_ls_mz, j_ls_oc=j_ls_oc,
                      extract=extract)


@dataclass
class ResidualZ:
    status: np.ndarray    # per fault: "ok" or "failure"
    residual: np.ndarray  # per fault: memory Z error at the output
    bound_ok: np.ndarray


def surgery_residual_z(run: SurgeryRun, e_before: np.ndarray,
                       e_after: np.ndarray) -> ResidualZ:
    """Residual Z error of undetectable fault splits (before | after).

    e_before covers (M1, M2, M3, A1, A2), e_after covers M4; each holds
    one fault per row (a vector is one row), and each result field holds
    one entry per fault (residual zero and bound_ok False on "failure"
    rows).  Requires every padded fault to pass h_ls_x; when
    |e_before| is below the certified deformed distance floor the residual
    is exactly the M4 part.  A failed check raises for the first fault
    that fails one, as a row-by-row run would.
    """
    lay = run.layout
    e = gf2.as_rows(e_before).copy()
    after = gf2.as_rows(e_after)
    e[:, lay.sl("M4")] ^= after
    detected = gf2.row_images(run.h_ls_x[:, :lay.total], e).any(axis=1)
    u_eff = np.concatenate([lay.xor(e, "M1", "M2", "M3"),
                            lay.xor(e, "A1", "A2")], axis=1)
    u_res = lay.part(e, "M4")
    dc = run.deformed
    failure = gf2.row_images(dc.css.j_x, u_eff).any(axis=1)
    want = gf2.row_images(run.j_ls_x[:, :lay.total], e)
    got = gf2.row_images(dc.css.j_x[:, :run.n_mem], u_res)
    bad = detected | ~failure & (want != got).any(axis=1)
    if bad.any() and detected[np.argmax(bad)]:
        raise ValueError("fault is detectable; lemma precondition violated")
    if bad.any():
        raise AssertionError("residual decomposition identity failed")
    residual = np.where(failure[:, None], np.uint8(0), u_res)
    bound_ok = ~failure & (np.count_nonzero(u_res, axis=1)
                           <= np.count_nonzero(after, axis=1))
    return ResidualZ(status=np.where(failure, "failure", "ok"),
                     residual=residual, bound_ok=bound_ok)


@dataclass
class OutcomeX:
    outcome_correct: np.ndarray  # per fault
    residual: np.ndarray
    bound_ok: np.ndarray


def surgery_outcome_x(run: SurgeryRun, e_before: np.ndarray,
                      e_after: np.ndarray) -> OutcomeX:
    """Outcome correctness and residual X error for undetectable splits.

    e_before covers (M1, A1), e_after covers (M2, M3, M4, A2); each holds
    one fault per row (a vector is one row), and each result field holds
    one entry per fault.  Requires every padded fault
    to pass h_ls_z (ValueError otherwise); when |e_before| is below the
    target distance the reported logical outcomes are unflipped.
    """
    lay = run.layout
    after = gf2.as_rows(e_after)
    e = gf2.as_rows(e_before) ^ after
    if gf2.row_images(run.h_ls_z[:, :lay.total], e).any():
        raise ValueError("fault is detectable; lemma precondition violated")
    correct = ~gf2.row_images(run.j_ls_oc[:, :lay.total], e).any(axis=1)
    u_res = lay.xor(e, "M2", "M3", "M4")
    bound_ok = (np.count_nonzero(u_res, axis=1)
                <= np.count_nonzero(after, axis=1))
    return OutcomeX(outcome_correct=correct, residual=u_res,
                    bound_ok=bound_ok)
