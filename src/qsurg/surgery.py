"""Deformed codes for batched logical Z measurements (code surgery).

A target CSS code is coupled to one ancilla system so that the same set of
logical Z operators, selected by a full-rank matrix alpha, is measured
simultaneously on k_R copies of the target.  The readout channels are the
codewords of a classical "R code"; the coupling is described by a glue
check matrix H_G together with sparse matrices S, T and certificates R,
beta for the three surgery conditions:

    i)   h_x·sᵀ = t·h_g
    ii)  (alpha j_z)·r·s = alpha j_z   and   h_g·(alpha j_z r)ᵀ = 0
    iii) alpha_perp·j_x·sᵀ = beta·h_g

Construction here ships as a verified contract: `build_glue` uses a direct
selection recipe (s picks the support of the measured operators, h_g is the
restriction of h_x to it, t is the identity) and every output is re-checked
by `verify_glue`, which also re-derives the existence of r and beta by
linear solving instead of trusting the stored certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gf2
from .codes import ClassicalCode, CssCode, least_logical, validate_css


class GlueConstructionError(Exception):
    """No satisfying glue set was found; message names the failed condition."""


class InternalConsistencyError(Exception):
    """A structural identity that must hold by construction failed."""


@dataclass
class GlueSet:
    """Coupling data (h_g, s, t) plus certificates (r, beta) for one target."""

    h_g: np.ndarray        # r_G × n_G
    s: np.ndarray          # n_G × n, row and column weights ≤ 1
    t: np.ndarray          # r_X × r_G
    r: np.ndarray          # n × n_G
    beta: np.ndarray       # (k−q) × r_G
    alpha: np.ndarray      # q × k
    alpha_perp: np.ndarray # (k−q) × k

    @property
    def n_g(self) -> int:
        return self.s.shape[0]

    @property
    def r_g(self) -> int:
        return self.h_g.shape[0]


def build_glue(target: CssCode, alpha: np.ndarray) -> GlueSet:
    """Glue set for measuring Z(alpha·j_z) on the target code.

    The measured operators must act on mutually disjoint logical qubits
    (thickness one).  s selects, with weight-1 rows, every physical qubit
    in the union of their supports; h_g is h_x restricted to the selected
    columns; t is the identity, which satisfies condition i) exactly; and
    r = sᵀ satisfies condition ii) because the measured operators are
    supported inside the selection.  beta is solved row by row; if some
    row of condition iii) is infeasible the construction fails loudly.
    """
    alpha = gf2.bitmat(alpha).reshape(-1, target.k) if target.k else gf2.zeros(0, 0)
    q = alpha.shape[0]
    if q and gf2.rank(alpha) != q:
        raise GlueConstructionError("alpha rows are dependent")
    supports = [set(np.nonzero(row)[0]) for row in alpha]
    for i in range(q):
        for j in range(i + 1, q):
            if supports[i] & supports[j]:
                raise GlueConstructionError(
                    "measured operators share logical qubits (thickness > 1)")
    alpha_perp = gf2.null_space(alpha) if q else gf2.eye(target.k)
    r_x = target.h_x.shape[0]
    if q == 0:
        return GlueSet(
            h_g=gf2.zeros(r_x, 0), s=gf2.zeros(0, target.n), t=gf2.eye(r_x),
            r=gf2.zeros(target.n, 0), beta=gf2.zeros(target.k, r_x),
            alpha=alpha, alpha_perp=alpha_perp,
        )
    measured = gf2.mul(alpha, target.j_z)
    cols = np.nonzero(measured.any(axis=0))[0]
    s = gf2.eye(target.n)[cols]
    h_g = gf2.mul(target.h_x, s.T)
    r = s.T.copy()
    # Condition iii) may need glue checks beyond the restricted X checks:
    # unmeasured-logical restrictions are appended as extra h_g rows.  They
    # are automatically orthogonal to the measured restrictions because
    # alpha_perp·alphaᵀ = 0, so condition ii) survives the extension.
    beta_rows = []
    rhs = gf2.mul(alpha_perp, target.j_x, s.T)
    for j in range(alpha_perp.shape[0]):
        sol = gf2.solve_linear(h_g.T, rhs[j])
        if sol is None:
            if gf2.mul(rhs[j], gf2.mul(measured, r).T).any():
                raise GlueConstructionError(
                    f"condition iii) infeasible for unmeasured logical row {j}")
            h_g = np.concatenate([h_g, rhs[j].reshape(1, -1)])
            sol = gf2.zeros(1, h_g.shape[0])[0]
            sol[-1] = 1
        beta_rows.append(sol)
    beta = gf2.zeros(alpha_perp.shape[0], h_g.shape[0])
    for j, row in enumerate(beta_rows):
        beta[j, : row.size] = row
    t = np.concatenate([gf2.eye(r_x), gf2.zeros(r_x, h_g.shape[0] - r_x)], axis=1)
    glue = GlueSet(h_g=h_g, s=s, t=t, r=r, beta=beta,
                   alpha=alpha, alpha_perp=alpha_perp)
    report = verify_glue(target, glue)
    if report:
        raise GlueConstructionError(f"construction failed: {report[0]}")
    return glue


def verify_glue(target: CssCode, glue: GlueSet) -> list[str]:
    """Check all glue conditions; empty report iff the set is valid.

    The existence halves of conditions ii) and iii) are re-derived with
    fresh linear solves; the stored certificates are checked separately.
    """
    report: list[str] = []
    h_x, j_x, j_z = target.h_x, target.j_x, target.j_z
    a, ap = glue.alpha, glue.alpha_perp
    q, km = a.shape[0], ap.shape[0]
    if q + km != target.k:
        report.append("alpha/alpha_perp row counts do not partition k")
    if q and gf2.rank(a) != q:
        report.append("alpha not full rank")
    if km and gf2.rank(ap) != km:
        report.append("alpha_perp not full rank")
    if gf2.mul(ap, a.T).any():
        report.append("alpha_perp·alphaᵀ != 0")
    # ‖s‖ = 1: every row has weight exactly 1, every column at most 1.
    if glue.n_g and (not np.all(glue.s.sum(axis=1) == 1)
                     or np.any(glue.s.sum(axis=0) > 1)):
        report.append("s is not a weight-1 selection (‖s‖ != 1)")
    if not np.array_equal(gf2.mul(h_x, glue.s.T), gf2.mul(glue.t, glue.h_g)):
        report.append("condition i) h_x·sᵀ != t·h_g")
    measured = gf2.mul(a, j_z)
    if not np.array_equal(gf2.mul(measured, glue.r, glue.s), measured):
        report.append("condition ii) (alpha j_z)·r·s != alpha j_z")
    if gf2.mul(glue.h_g, gf2.mul(measured, glue.r).T).any():
        report.append("condition ii) h_g·(alpha j_z r)ᵀ != 0")
    if q and _solve_r(measured, glue.s, glue.h_g) is None:
        report.append("condition ii) has no solution r at all")
    rhs = gf2.mul(ap, j_x, glue.s.T)
    if not np.array_equal(rhs, gf2.mul(glue.beta, glue.h_g)):
        report.append("condition iii) alpha_perp·j_x·sᵀ != beta·h_g")
    for j in range(km):
        if gf2.solve_linear(glue.h_g.T, rhs[j]) is None:
            report.append(f"condition iii) has no solution beta for row {j}")
            break
    # LDPC preservation: glue rows are restrictions of X checks or of the
    # unmeasured logicals, so weights stay within the input-derived cap.
    wp_x = gf2.weight_profile(h_x)
    wp_l = gf2.weight_profile(gf2.mul(ap, j_x))
    wp_g = gf2.weight_profile(glue.h_g)
    if wp_g.max_row_weight > max(wp_x.max_row_weight, wp_l.max_row_weight):
        report.append("h_g row weights exceed the input-derived cap")
    if wp_g.max_col_weight > wp_x.max_col_weight + km:
        report.append("h_g column weights exceed the input-derived cap")
    if gf2.weight_profile(glue.t).max_row_weight > 1:
        report.append("t rows heavier than weight 1")
    return report


def _solve_r(measured: np.ndarray, s: np.ndarray, h_g: np.ndarray) -> Optional[np.ndarray]:
    """Fresh solve of condition ii) as a linear system in the entries of r."""
    n = s.shape[1]
    # vec(M·R·S) = (Sᵀ ⊗ M)·vec(R), vec(M·R·h_gᵀ) = (h_g ⊗ M)·vec(R)
    sys = np.concatenate([gf2.kron(s.T, measured), gf2.kron(h_g, measured)])
    rhs = np.concatenate([gf2.vec(measured), gf2.zeros(1, measured.shape[0] * h_g.shape[0])[0]])
    sol = gf2.solve_linear(sys, rhs)
    return None if sol is None else gf2.unvec(sol, n)


@dataclass
class DeformedCode:
    """Block check matrices coupling k_R target copies to one ancilla system.

    Column sectors: k_R target copies (k_R·n columns), the glue grid
    (r_R·n_G columns), then the readout grid (n_R·r_G columns).  css.d
    holds the certified distance floor min{d, d_R}; the tracked logical
    pairs are the k_R·(k−q) unmeasured ones.
    """

    css: CssCode
    glue: GlueSet
    r_code: ClassicalCode
    target: CssCode

    @property
    def k_r(self) -> int:
        return self.r_code.k

    @property
    def n_sectors(self) -> tuple[int, int, int]:
        n1 = self.r_code.k * self.target.n
        n2 = self.r_code.h.shape[0] * self.glue.n_g
        n3 = self.r_code.n * self.glue.r_g
        return n1, n2, n3

    # Lifted (tilde) matrices over the full deformed system.

    def tilde_h_x(self) -> np.ndarray:
        return gf2.kron(gf2.eye(self.k_r), self.target.h_x)

    def tilde_h_z(self) -> np.ndarray:
        return gf2.kron(gf2.eye(self.k_r), self.target.h_z)

    def tilde_j_x(self) -> np.ndarray:
        return gf2.kron(gf2.eye(self.k_r), self.target.j_x)

    def tilde_j_z(self) -> np.ndarray:
        return gf2.kron(gf2.eye(self.k_r), self.target.j_z)

    def tilde_alpha(self) -> np.ndarray:
        return gf2.kron(gf2.eye(self.k_r), self.glue.alpha)

    def tilde_alpha_perp(self) -> np.ndarray:
        return gf2.kron(gf2.eye(self.k_r), self.glue.alpha_perp)

    def tilde_s(self) -> np.ndarray:
        gr = gf2.right_inverse(self.r_code.g)
        return gf2.kron(gr, self.glue.s)

    def _readout(self, m: np.ndarray) -> np.ndarray:
        """[0 | g_R^{rT} ⊗ m] over the ancilla (glue | readout) columns."""
        right = gf2.kron(gf2.right_inverse(self.r_code.g).T, m)
        return np.concatenate([gf2.zeros(right.shape[0], self.n_sectors[1]),
                               right], axis=1)

    def tilde_t(self) -> np.ndarray:
        return self._readout(self.glue.t)

    def tilde_h_g(self) -> np.ndarray:
        return np.concatenate([
            gf2.kron(self.r_code.h, gf2.eye(self.glue.n_g)),
            gf2.kron(gf2.eye(self.r_code.n), self.glue.h_g),
        ])

    def tilde_h_m(self) -> np.ndarray:
        return np.concatenate([
            gf2.kron(gf2.eye(self.r_code.h.shape[0]), self.glue.h_g),
            gf2.kron(self.r_code.h, gf2.eye(self.glue.r_g)),
        ], axis=1)

    def tilde_r(self) -> np.ndarray:
        return gf2.kron(self.r_code.g, self.glue.r)

    def tilde_beta(self) -> np.ndarray:
        return self._readout(self.glue.beta)


def build_deformed(
    target: CssCode,
    alpha: np.ndarray,
    r_code: ClassicalCode,
    glue: Optional[GlueSet] = None,
) -> DeformedCode:
    """Assemble the deformed code from a verified glue set and an R code.

    Requires the R-code generator in standard form (E | P) and a full-rank
    R check matrix, which the distance floor min{d, d_R} relies on.  The
    block matrices are assembled from the lifted blocks:
    h_x^D = [[H̃_X, T̃], [0, H̃_M]], h_z^D = [[H̃_Z, 0], [S̃, H̃_Gᵀ]] and
    j_x^D = [α̃⊥·J̃_X | β̃].
    """
    if glue is None:
        glue = build_glue(target, alpha)  # verified as it is built
    elif report := verify_glue(target, glue):
        raise GlueConstructionError(f"invalid glue set: {report[0]}")
    if not gf2.is_standard_form(r_code.g):
        raise ValueError("R-code generator must be in standard form (E | P)")
    h_r = r_code.h
    if gf2.rank(h_r) != h_r.shape[0]:
        raise ValueError("R-code check matrix must be full rank")

    # The lifted blocks read only the target, glue and R code, so they are
    # taken from the code before its css is set.
    dc = DeformedCode(css=None, glue=glue, r_code=r_code, target=target)
    n1, n2, n3 = dc.n_sectors
    t_hz, t_hm = dc.tilde_h_z(), dc.tilde_h_m()
    hdx = np.block([[dc.tilde_h_x(), dc.tilde_t()],
                    [gf2.zeros(t_hm.shape[0], n1), t_hm]])
    hdz = np.block([[t_hz, gf2.zeros(t_hz.shape[0], n2 + n3)],
                    [dc.tilde_s(), dc.tilde_h_g().T]])
    jdx = np.concatenate([gf2.mul(dc.tilde_alpha_perp(), dc.tilde_j_x()),
                          dc.tilde_beta()], axis=1)
    # A verified alpha_perp has full row rank, so it has a right inverse.
    ap_r = gf2.right_inverse(glue.alpha_perp)
    jdz = gf2.kron(gf2.eye(dc.k_r), gf2.mul(ap_r.T, target.j_z))
    jdz = np.concatenate([jdz, gf2.zeros(jdz.shape[0], n2 + n3)], axis=1)

    floor = None if None in (target.d, r_code.d) else min(target.d, r_code.d)
    dc.css = CssCode(h_x=hdx, h_z=hdz, j_x=jdx, j_z=jdz,
                     n=n1 + n2 + n3, k=jdx.shape[0], d=floor)
    bad = validate_css(dc.css)
    if bad:
        raise InternalConsistencyError(f"deformed code invalid: {bad[0]}")
    return dc


def verify_lifted_conditions(dc: DeformedCode) -> list[str]:
    """Bit-exact check of the five lifted surgery conditions on a build."""
    report = []
    ths, tt, thg = dc.tilde_s(), dc.tilde_t(), dc.tilde_h_g()
    thm, tr, tbeta = dc.tilde_h_m(), dc.tilde_r(), dc.tilde_beta()
    thx, tjx, tjz = dc.tilde_h_x(), dc.tilde_j_x(), dc.tilde_j_z()
    ta, tap = dc.tilde_alpha(), dc.tilde_alpha_perp()
    meas = gf2.mul(ta, tjz)
    if not np.array_equal(gf2.mul(thx, ths.T), gf2.mul(tt, thg)):
        report.append("lifted i) failed")
    if not np.array_equal(gf2.mul(meas, tr, ths), meas):
        report.append("lifted ii) first identity failed")
    if gf2.mul(thg, gf2.mul(meas, tr).T).any():
        report.append("lifted ii) second identity failed")
    if not np.array_equal(gf2.mul(tap, tjx, ths.T), gf2.mul(tbeta, thg)):
        report.append("lifted iii) failed")
    if gf2.mul(thm, thg).any():
        report.append("lifted iv) h_m·h_g != 0")
    return report


def measured_extraction(dc: DeformedCode) -> np.ndarray:
    """Row-combination matrix extracting the measured logical eigenvalues.

    Returns C with C·h_z^D = (E ⊗ alpha·j_z | 0 | 0); the identity is
    asserted bit-exactly before returning.
    """
    k_r, q = dc.k_r, dc.glue.alpha.shape[0]
    r_z = dc.target.h_z.shape[0]
    measured_r = gf2.mul(dc.glue.alpha, dc.target.j_z, dc.glue.r)
    coeff = np.concatenate([
        gf2.zeros(k_r * q, k_r * r_z),
        gf2.kron(dc.r_code.g, measured_r),
    ], axis=1)
    _, n2, n3 = dc.n_sectors
    want = np.concatenate([
        gf2.kron(gf2.eye(k_r), gf2.mul(dc.glue.alpha, dc.target.j_z)),
        gf2.zeros(k_r * q, n2 + n3),
    ], axis=1)
    if not np.array_equal(gf2.mul(coeff, dc.css.h_z), want):
        raise InternalConsistencyError("eigenvalue extraction identity failed")
    return coeff


@dataclass(frozen=True)
class DistanceCertificate:
    budget: int
    ok: bool
    side: Optional[str] = None           # "X" or "Z" when violated
    violation: Optional[np.ndarray] = None


def verify_distance_bound(dc: DeformedCode, budget: int) -> DistanceCertificate:
    """Exactly certify that no tracked logical error of weight ≤ budget exists.

    X side: u with h_z^D·uᵀ = 0 and j_z^D·uᵀ != 0; Z side dual.  The budget
    must be non-negative and stay below the claimed floor min{d, d_R}.
    Each side, X first, is searched by one codes.least_logical
    (gf2.flagged_collision to ⌈budget/2⌉); the first side with a logical of
    weight ≤ budget returns the collision's word, a least-weight one, as the
    violation, once its checks, flags and weight are confirmed bit for bit.
    """
    if budget < 0:
        raise ValueError(f"budget={budget} is negative")
    floor = dc.css.d
    if floor is not None and budget > floor - 1:
        raise ValueError(f"budget {budget} exceeds certifiable floor {floor} - 1")
    for side, checks, flags in (("X", dc.css.h_z, dc.css.j_z),
                                ("Z", dc.css.h_x, dc.css.j_x)):
        v = least_logical(checks, flags, budget) if len(flags) else None
        if v is None:
            continue
        if (gf2.mul(checks, v).any() or not gf2.mul(flags, v).any()
                or not 0 < gf2.weight(v) <= budget):
            raise InternalConsistencyError(
                f"collision returned a {side} word that is not a logical of "
                f"weight 1..{budget}")
        return DistanceCertificate(budget=budget, ok=False, side=side,
                                   violation=v)
    return DistanceCertificate(budget=budget, ok=True)
