"""Classical and CSS code objects, example constructors, exact metrics.

Codes are kept as plain dataclasses over GF(2) matrices.  Distances and
soundness are computed exhaustively (desk scale) and never estimated; a
search past gf2.TABLE_CAP sets or words gives a certified lower bound or
is refused with :class:`qsurg.gf2.SearchTooLarge`.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import gf2
from .gf2 import SearchTooLarge


@dataclass
class ClassicalCode:
    """[n, k, d] linear code given by a check matrix and a generator matrix."""

    h: np.ndarray  # r × n
    g: np.ndarray  # k × n
    n: int
    k: int
    d: Optional[int] = None
    soundness: Optional[Fraction] = None  # from a manifest or soundness()
    # soundness() computed it (a manifest's claim may be kept unchecked).
    soundness_exact: bool = field(default=False, init=False, compare=False)


@dataclass
class CssCode:
    """[[n, k, d]] CSS code: stabilizer checks (h_x, h_z), logicals (j_x, j_z).

    The four matrices must satisfy h_x·h_zᵀ = h_x·j_zᵀ = j_x·h_zᵀ = 0 and
    j_x·j_zᵀ = E_k.  k counts the *tracked* logical pairs; the stabilizer
    group is not required to be complete, so a code may carry spectator
    logical degrees of freedom beyond the listed generators.
    """

    h_x: np.ndarray
    h_z: np.ndarray
    j_x: np.ndarray
    j_z: np.ndarray
    n: int
    k: int
    d: Optional[int] = None


@dataclass(frozen=True)
class DistanceResult:
    """Exact distance when `d` is set; otherwise `floor` certifies d > floor."""

    d: Optional[int]
    floor: int

    @property
    def exact(self) -> bool:
        return self.d is not None


# ── validation ──────────────────────────────────────────────────────────


def validate_css(code: CssCode) -> list[str]:
    """Return the list of violated CSS identities (empty iff valid)."""
    report: list[str] = []
    hx, hz, jx, jz = code.h_x, code.h_z, code.j_x, code.j_z
    for m, name, rows in ((hx, "h_x", None), (hz, "h_z", None),
                          (jx, "j_x", code.k), (jz, "j_z", code.k)):
        if m.shape[1] != code.n:
            report.append(f"{name} has {m.shape[1]} columns, expected n={code.n}")
        if rows is not None and m.shape[0] != rows:
            report.append(f"{name} has {m.shape[0]} rows, expected k={code.k}")
    if report:
        return report
    if gf2.mul(hx, hz.T).any():
        report.append("h_x·h_zᵀ != 0")
    if gf2.mul(hx, jz.T).any():
        report.append("h_x·j_zᵀ != 0")
    if gf2.mul(jx, hz.T).any():
        report.append("j_x·h_zᵀ != 0")
    if not np.array_equal(gf2.mul(jx, jz.T), gf2.eye(code.k)):
        report.append("j_x·j_zᵀ != identity (symplectic pairing)")
    if len(_extend_basis(hx, jx)) != code.k:
        report.append("j_x rows not independent of the X stabilizer row space")
    if len(_extend_basis(hz, jz)) != code.k:
        report.append("j_z rows not independent of the Z stabilizer row space")
    return report


def validate_classical(code: ClassicalCode) -> list[str]:
    report: list[str] = []
    if code.h.shape[1] != code.n or code.g.shape[1] != code.n:
        report.append("matrix widths disagree with n")
        return report
    if gf2.mul(code.h, code.g.T).any():
        report.append("h·gᵀ != 0")
    if gf2.rank(code.g) != code.k:
        report.append("generator rows are dependent")
    if gf2.rank(code.h) == code.h.shape[0] and code.k + code.h.shape[0] != code.n:
        report.append("k + rank(h) != n for full-rank h")
    return report


# ── logical-generator completion ────────────────────────────────────────


def _extend_basis(base: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Rows of *candidates* that extend span(base), taken in order: those
    not in the span of base and the candidates before them, which are the
    pivot columns past base in one elimination of [base; candidates]ᵀ."""
    _, pivots = gf2.row_echelon(np.concatenate([base, candidates]).T)
    return candidates[[p - len(base) for p in pivots if p >= len(base)]]


def complete_logicals(h_x: np.ndarray, h_z: np.ndarray):
    """Deterministic symplectic completion of (j_x, j_z) for given checks.

    X candidates span ker(h_z) over the X-stabilizer rows, Z candidates span
    ker(h_x) over the Z-stabilizer rows; the Z side is then recombined so
    j_x·j_zᵀ = E_k.
    """
    h_x, h_z = gf2.bitmat(h_x), gf2.bitmat(h_z)
    lx = _extend_basis(h_x, gf2.null_space(h_z))
    lz = _extend_basis(h_z, gf2.null_space(h_x))
    if lx.shape[0] != lz.shape[0]:
        raise ValueError("logical X/Z dimensions disagree; bad check matrices")
    k = lx.shape[0]
    if k == 0:
        n = h_x.shape[1]
        return gf2.zeros(0, n), gf2.zeros(0, n)
    minv = gf2.right_inverse(gf2.mul(lx, lz.T))
    if minv is None:
        raise ValueError("degenerate logical pairing; bad check matrices")
    jz = gf2.mul(minv.T, lz)
    return lx, jz


def css_from_checks(h_x, h_z, d: Optional[int] = None) -> CssCode:
    """Build a CSS code from orthogonal check matrices, completing logicals."""
    h_x, h_z = gf2.bitmat(h_x), gf2.bitmat(h_z)
    if gf2.mul(h_x, h_z.T).any():
        raise ValueError("check matrices do not commute: h_x·h_zᵀ != 0")
    j_x, j_z = complete_logicals(h_x, h_z)
    n = h_x.shape[1]
    return CssCode(h_x=h_x, h_z=h_z, j_x=j_x, j_z=j_z, n=n, k=j_x.shape[0], d=d)


# ── distance ────────────────────────────────────────────────────────────


def _sides(code) -> list:
    """Each error type with a logical to flag, as (checks, flags): its
    logical errors are the words of ker(checks) with a nonzero flag."""
    if isinstance(code, ClassicalCode):
        # Nonzero codewords, flagged by any nonzero coordinate.
        sides = [(code.h, gf2.eye(code.n))] if code.k else []
    else:
        # X-type errors live in ker(h_z) and are logical iff j_z·uᵀ != 0.
        sides = [(code.h_z, code.j_z), (code.h_x, code.j_x)]
    return [side for side in sides if side[1].shape[0]]


def _min_weight_flagged(basis: np.ndarray, flag: np.ndarray) -> Optional[int]:
    """Min weight over span(basis) of vectors v with flag·vᵀ != 0.

    Each basis row v is packed as [v | flag·vᵀ], and the span is every set
    of basis rows: one combination_sweep to size dim carries both the
    vector and its flags (its 2^dim sets refused past gf2.TABLE_CAP).
    """
    vecs = gf2.pack_words(basis)
    rows = np.hstack([vecs, gf2.pack_words(gf2.mul(flag, basis.T).T)])
    k = vecs.shape[1]
    best: Optional[int] = None
    for _, words in gf2.combination_sweep(rows, basis.shape[0]):
        flagged = words[:, k:].any(axis=1)
        if flagged.any():
            w = int(np.bitwise_count(words[flagged, :k]).sum(axis=1).min())
            best = w if best is None else min(best, w)
    return best


def _exact_side(checks: np.ndarray, flags: np.ndarray):
    """(m, floor) for the least weight m of a flagged word of ker(checks):
    (m, m − 1) when m is found, (None, n) when there is no such word, and
    (None, 2·half) when only the collision's None, which certifies
    m > 2·half, is in reach.  One collision runs at the deepest half whose
    C(n, ≤half) sets fit both 2^dim and gf2.TABLE_CAP; when it finds none,
    the 2^dim kernel words are listed.  A refused listing at half 0, which
    certifies nothing, raises SearchTooLarge."""
    basis = gf2.null_space(checks)
    n = checks.shape[1]
    half = gf2.sweep_depth(n, min(1 << basis.shape[0], gf2.TABLE_CAP))
    v = gf2.flagged_collision(checks, flags, half)
    try:
        m = _min_weight_flagged(basis, flags) if v is None else gf2.weight(v)
    except SearchTooLarge:
        if half == 0:
            raise
        return None, 2 * half
    return (None, n) if m is None else (m, m - 1)


def least_logical(checks: np.ndarray, flags: np.ndarray,
                  budget: int) -> Optional[np.ndarray]:
    """A least-weight word of ker(checks) with a nonzero flag, as a 0/1
    vector, when its weight is ≤ budget, else None: the word of
    gf2.flagged_collision to ⌈budget/2⌉, which is a least one up to the
    budget."""
    v = gf2.flagged_collision(checks, flags, -(-budget // 2))
    return v if v is not None and gf2.weight(v) <= budget else None


def distance(code) -> DistanceResult:
    """Exact distance, or the floor it certifies when out of reach.

    Classical codes: min weight of a nonzero codeword.  CSS codes: min over
    both error types of the min weight of an undetected error with nonzero
    logical action.  Each side is answered by :func:`_exact_side`, with its
    least weight or a floor below it.  `d` is the least weight found when
    no side's floor is below it less one; else `d` is None and `floor`, the
    least floor, is certified.
    """
    sides = [_exact_side(checks, flags) for checks, flags in _sides(code)]
    d = min((m for m, _ in sides if m is not None), default=None)
    floor = min((f for _, f in sides), default=code.n)
    if d is not None and floor == d - 1:
        return DistanceResult(d=d, floor=floor)
    return DistanceResult(d=None, floor=floor)


# ── local testability ───────────────────────────────────────────────────


def soundness(code: ClassicalCode) -> Optional[Fraction]:
    """Largest s with (1/r)·|H uᵀ| ≥ (s/n)·dist(u, C) for all u ∉ C = ker H.

    Exact rational from a table of every syndrome (gf2.syndrome_table,
    refused past gf2.TABLE_CAP), also kept in `code.soundness`.  None when
    every word is a codeword (no nonzero syndrome), so the bound is vacuous.
    """
    r, n = code.h.shape
    # dist(u, C) is the least weight in u's syndrome class u + C, the weight
    # of the class's table entry, and the ratio is the same for all u in it.
    table = gf2.syndrome_table(code.h, n)
    syn_w = np.bitwise_count(table.keys).sum(axis=1, dtype=np.int64)
    least = np.bitwise_count(table.errors).sum(axis=1, dtype=np.int64)
    a, b = syn_w[syn_w > 0], least[syn_w > 0]
    # b ≤ n, so distinct ratios a/b differ by at least 1/n², far above the
    # rounding of a float division: the float argmin is the exact minimum.
    i = int(np.argmin(a / b)) if a.size else None
    code.soundness = None if i is None else Fraction(n * int(a[i]),
                                                     r * int(b[i]))
    code.soundness_exact = True
    return code.soundness


# ── example constructors ────────────────────────────────────────────────


def repetition(n: int) -> ClassicalCode:
    """[n, 1, n] repetition code with chain checks (1 at i, i+1)."""
    h = gf2.zeros(n - 1, n)
    for i in range(n - 1):
        h[i, i] = h[i, i + 1] = 1
    g = np.ones((1, n), dtype=np.uint8)
    return ClassicalCode(h=h, g=g, n=n, k=1, d=n)


_HAMMING_P = gf2.bitmat([[0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]])


def hamming_743() -> ClassicalCode:
    """[7, 4, 3] Hamming code with standard-form generator (E_4 | P)."""
    g = np.concatenate([gf2.eye(4), _HAMMING_P], axis=1)
    h = np.concatenate([_HAMMING_P.T, gf2.eye(3)], axis=1)
    return ClassicalCode(h=h, g=g, n=7, k=4, d=3)


def steane() -> CssCode:
    """[[7, 1, 3]] code with X and Z checks both the Hamming check matrix."""
    h = hamming_743().h
    return css_from_checks(h, h, d=3)


def hypergraph_product(c1: ClassicalCode, c2: ClassicalCode) -> CssCode:
    """Hypergraph product of two classical codes.

    Qubits split into the (vertical) bit×bit sector of size n1·n2 followed
    by the (horizontal) check×check sector of size r1·r2, row-major:
        h_x = (h1 ⊗ E_n2 | E_r1 ⊗ h2ᵀ)
        h_z = (E_n1 ⊗ h2 | h1ᵀ ⊗ E_r2)
    """
    h1, h2 = c1.h, c2.h
    r1, n1 = h1.shape
    r2, n2 = h2.shape
    h_x = np.concatenate([gf2.kron(h1, gf2.eye(n2)), gf2.kron(gf2.eye(r1), h2.T)], axis=1)
    h_z = np.concatenate([gf2.kron(gf2.eye(n1), h2), gf2.kron(h1.T, gf2.eye(r2))], axis=1)
    return css_from_checks(h_x, h_z)


def direct_sum_css(a: CssCode, b: CssCode) -> CssCode:
    """Two CSS codes side by side as one composite block."""
    def stack(ma, mb):
        top = np.concatenate([ma, gf2.zeros(ma.shape[0], mb.shape[1])], axis=1)
        bot = np.concatenate([gf2.zeros(mb.shape[0], ma.shape[1]), mb], axis=1)
        return np.concatenate([top, bot])
    d = None
    if a.d is not None and b.d is not None:
        d = min(a.d, b.d)
    return CssCode(
        h_x=stack(a.h_x, b.h_x), h_z=stack(a.h_z, b.h_z),
        j_x=stack(a.j_x, b.j_x), j_z=stack(a.j_z, b.j_z),
        n=a.n + b.n, k=a.k + b.k, d=d,
    )


def surface_code_via_hgp(d: int) -> CssCode:
    """[[d² + (d−1)², 1, d]] surface code as HGP(rep_d, rep_d)."""
    if d % 2 == 0:
        raise ValueError("surface code distance must be odd")
    code = hypergraph_product(repetition(d), repetition(d))
    return replace(code, d=d)


# ── manifest I/O ────────────────────────────────────────────────────────
# Plain-text key/value blocks; matrices stored next to the manifest in the
# bit-exact text format from qsurg.gf2.


def _save(code, directory: str, name: str, kind: str, extra: list,
          files) -> str:
    """Write each (key, matrix) of `files` and the manifest naming them,
    after its type, n, k, d and the `extra` lines; returns its path."""
    os.makedirs(directory, exist_ok=True)
    lines = [f"type={kind}", f"n={code.n}", f"k={code.k}"]
    if code.d is not None:
        lines.append(f"d={code.d}")
    lines += extra
    for key, m in files:
        fname = f"{name}.{key}.txt"
        gf2.save_matrix(os.path.join(directory, fname), m)
        lines.append(f"{key}={fname}")
    path = os.path.join(directory, f"{name}.manifest")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def save_css(code: CssCode, directory: str, name: str = "code") -> str:
    return _save(code, directory, name, "css", [],
                 (("hx", code.h_x), ("hz", code.h_z), ("jx", code.j_x),
                  ("jz", code.j_z)))


def save_classical(code: ClassicalCode, directory: str, name: str = "code") -> str:
    s = code.soundness
    extra = [] if s is None else [f"soundness={s.numerator}/{s.denominator}"]
    return _save(code, directory, name, "classical", extra,
                 (("h", code.h), ("g", code.g)))


# Per manifest type: its matrices, then those of them with k rows.
_MATRICES = {"css": (("hx", "hz", "jx", "jz"), ("jx", "jz")),
             "classical": (("h", "g"), ("g",))}


def read_pairs(path: str, what: str) -> dict:
    """The key=value lines of a text file, blank lines skipped; raises
    ValueError, naming `what` and the path, on a line without '=' or a
    repeated key."""
    kv: dict[str, str] = {}
    with open(path, encoding="ascii") as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{what} {path}: line {i} ({line!r}) has no '='")
            key, val = line.split("=", 1)
            if key in kv:
                raise ValueError(f"{what} {path}: repeated key {key!r}")
            kv[key] = val
    return kv


def load_manifest(path: str):
    """Load a code manifest; returns a ClassicalCode or CssCode.

    Raises ValueError, naming the manifest and the key, on a line without
    '=', a repeated or missing key, an unknown type, an n or k that is not
    a non-negative integer or disagrees with the matrix shapes, a d= that
    is not a positive integer or is above the true distance (a logical of
    weight < d found by the collision to ⌈(d−1)/2⌉), or a soundness= that
    is not a positive p/q or not the code's exact soundness.  A d= or
    soundness= whose check is refused as too large (gf2.SearchTooLarge) is
    kept as given.
    """
    base = os.path.dirname(os.path.abspath(path))
    kv = read_pairs(path, "manifest")

    def get(key):
        if key not in kv:
            raise ValueError(f"manifest {path}: missing key {key!r}")
        return kv[key]

    def integer(key, least):
        text = get(key)
        if not text.isdecimal() or int(text) < least:
            raise ValueError(f"manifest {path}: {key}={text} is not a "
                             f"{('non-negative', 'positive')[least]} integer")
        return int(text)

    if get("type") not in _MATRICES:
        raise ValueError(f"manifest {path}: unknown type {kv['type']!r}")
    names, k_rows = _MATRICES[kv["type"]]
    m = {key: gf2.load_matrix(os.path.join(base, get(key))) for key in names}
    n, k = integer("n", 0), integer("k", 0)
    for key in names:
        if m[key].shape[1] != n:
            raise ValueError(f"manifest {path}: n={n} but {key} has "
                             f"{m[key].shape[1]} columns")
        if key in k_rows and m[key].shape[0] != k:
            raise ValueError(f"manifest {path}: k={k} but {key} has "
                             f"{m[key].shape[0]} rows")
    d = integer("d", 1) if "d" in kv else None
    if kv["type"] == "css":
        code = CssCode(h_x=m["hx"], h_z=m["hz"], j_x=m["jx"], j_z=m["jz"],
                       n=n, k=k, d=d)
    else:
        code = ClassicalCode(h=m["h"], g=m["g"], n=n, k=k, d=d)
    if d is not None:
        try:
            words = [least_logical(checks, flags, d - 1)
                     for checks, flags in _sides(code)]
            low = min((gf2.weight(v) for v in words if v is not None),
                      default=None)
        except SearchTooLarge:
            low = None  # out of the collision's reach: d= is kept as given
        if low is not None:
            raise ValueError(f"manifest {path}: d={d} but the code has a "
                             f"logical of weight {low}")
    if isinstance(code, ClassicalCode) and "soundness" in kv:
        text = kv["soundness"]
        pq = re.fullmatch(r"(\d+)/(\d+)", text)
        if not pq or not int(pq[1]) or not int(pq[2]):
            raise ValueError(f"manifest {path}: soundness={text} is not a "
                             "positive p/q")
        claimed = Fraction(int(pq[1]), int(pq[2]))
        try:
            true = soundness(code)
        except SearchTooLarge:  # out of the table's reach: kept as given
            true = code.soundness = claimed
        if true != claimed:
            raise ValueError(f"manifest {path}: soundness={text} but the "
                             f"code's soundness is {true or 'undefined'}")
    return code
