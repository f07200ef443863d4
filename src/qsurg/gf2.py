"""Dense GF(2) linear algebra on numpy uint8 arrays.

Every matrix in this package is a 2-D numpy array with entries in {0, 1}
(row-major, dtype uint8) and every vector is a 1-D array.  All arithmetic
is mod 2.  Elimination always picks the leftmost available pivot column and
the first available row, so echelon forms, kernels, right inverses and
solutions are reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


class SearchTooLarge(Exception):
    """Raised when an exhaustive search would exceed its configured cap."""


# Most sets any exhaustive search holds or sweeps: a lookup table (and with
# it a min-weight solve), a collision or a span listing is refused with
# SearchTooLarge, before it allocates anything, when it would exceed this.
TABLE_CAP = 1 << 22


def bitmat(data) -> np.ndarray:
    """Coerce nested lists / arrays to a 2-D uint8 matrix with entries in {0,1}."""
    return np.atleast_2d(np.asarray(data, dtype=np.uint8)) & 1


def bitvec(data) -> np.ndarray:
    return np.asarray(data, dtype=np.uint8).reshape(-1) & 1


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.uint8)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def mul(*ms) -> np.ndarray:
    """Product of matrices (or a trailing vector) over GF(2)."""
    acc = np.asarray(ms[0], dtype=np.int64)
    for m in ms[1:]:
        acc = acc @ np.asarray(m, dtype=np.int64)
        acc &= 1
    return acc.astype(np.uint8)


def weight(v) -> int:
    return int(np.count_nonzero(np.asarray(v)))


def as_rows(e) -> np.ndarray:
    """A fault matrix, or a fault vector as a one-row matrix, as uint8."""
    return np.atleast_2d(np.asarray(e, dtype=np.uint8))


def fault_sets(rng: np.random.Generator, n: int, count: int,
               size: int) -> np.ndarray:
    """`count` rows of `size` distinct indices in [0, n), each row's set
    uniform over the C(n, size) subsets.  A row's k-th index is drawn
    uniform on [0, n − k) and shifted up past each earlier one in ascending
    order (for pairs: j uniform on n − 1, j += j ≥ i); all rows are drawn
    at once."""
    if not 0 <= size <= n:
        raise ValueError(f"set size {size} is outside 0..{n}")
    picks = rng.integers(0, n - np.arange(size), size=(count, size),
                         dtype=np.int32)
    for k in range(1, size):
        taken = np.sort(picks[:, :k], axis=1)
        for i in range(k):
            picks[:, k] += picks[:, k] >= taken[:, i]
    return picks


def xor_map(sel: np.ndarray):
    """The GF(2) product rows ↦ sel · rows for a fixed 0/1 matrix sel, on
    rows of packed bits of any width: row i of the image is the XOR of the
    rows at the set entries of sel[i].

    The set entries are found on sel packed eight to a byte: first the
    nonzero bytes, then the set bits of each, in row-major order."""
    packed = np.packbits(sel, axis=1)
    nonzero = np.flatnonzero(packed != 0)
    bits = np.flatnonzero(np.unpackbits(packed.reshape(-1)[nonzero]) != 0)
    row, col = np.divmod(nonzero[bits >> 3], max(packed.shape[1], 1))
    at = col * 8 + (bits & 7)
    counts = np.bincount(row, minlength=len(sel))
    hit = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[hit]

    def image(rows: np.ndarray) -> np.ndarray:
        out = np.zeros((len(sel),) + rows.shape[1:], dtype=rows.dtype)
        out[hit] = np.bitwise_xor.reduceat(np.take(rows, at, axis=0), starts,
                                           axis=0)
        return out
    return image


def row_images(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The image m·xᵀ of every row x of the 0/1 matrix e, one per row.

    Equal to mul(e, m.T); each image is the XOR of m's packed columns at
    the row's set entries, so e is never widened to a wider integer type.
    """
    return unpack_words(xor_map(e)(pack_words(bitmat(m).T)), len(m))


@dataclass(frozen=True)
class WeightProfile:
    """Maximum row and column Hamming weights of a matrix."""

    max_row_weight: int
    max_col_weight: int


def weight_profile(m: np.ndarray) -> WeightProfile:
    m = bitmat(m)
    if m.size == 0:
        return WeightProfile(0, 0)
    return WeightProfile(
        max_row_weight=int(m.sum(axis=1).max(initial=0)),
        max_col_weight=int(m.sum(axis=0).max(initial=0)),
    )


def row_echelon(m: np.ndarray, ncols: Optional[int] = None):
    """Reduced row-echelon form over GF(2).

    Pivots are searched left to right in the first *ncols* columns; row
    operations act on the full width, and entries above pivots are cleared
    as well (fully reduced form).

    Returns:
        (R, pivots): reduced matrix and the list of pivot column indices.
    """
    r = bitmat(m).copy()
    nrows, nc = r.shape
    if ncols is None:
        ncols = nc
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        sub = np.nonzero(r[prow:, col])[0]
        if sub.size == 0:
            continue
        piv = prow + int(sub[0])
        if piv != prow:
            r[[prow, piv]] = r[[piv, prow]]
        hits = np.nonzero(r[:, col])[0]
        for i in hits:
            if i != prow:
                r[i] ^= r[prow]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return r, pivots


def rank(m: np.ndarray) -> int:
    """GF(2) rank by Gaussian elimination."""
    _, pivots = row_echelon(m)
    return len(pivots)


def _kernel(r: np.ndarray, pivots: list, nc: int) -> np.ndarray:
    """Kernel basis of the first nc columns of a reduced echelon form r
    with these pivots: one row per free column, in ascending order."""
    free = np.ones(nc, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = zeros(len(free), nc)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = r[:len(pivots), free].T
    return basis


def null_space(m: np.ndarray) -> np.ndarray:
    """Basis (as rows) of the right kernel {x : m xᵀ = 0}.

    One basis vector per free column, in ascending free-column order.
    """
    m = bitmat(m)
    return _kernel(*row_echelon(m), m.shape[1])


def left_null_space(m: np.ndarray) -> np.ndarray:
    """Basis (as rows) of {x : x·m = 0}."""
    return null_space(bitmat(m).T)


def right_inverse(m: np.ndarray) -> Optional[np.ndarray]:
    """Right inverse M^r with M·M^r = identity, or None if rows are dependent.

    The inverse is supported on the leftmost pivot columns of M, which makes
    the choice deterministic; for a standard-form generator (E_k | P) this
    yields (E_k | 0)ᵀ.
    """
    m = bitmat(m)
    nrows, ncols = m.shape
    aug = np.concatenate([m, eye(nrows)], axis=1)
    r, pivots = row_echelon(aug, ncols=ncols)
    if len(pivots) < nrows:
        return None
    inv = zeros(ncols, nrows)
    for prow, pc in enumerate(pivots):
        inv[pc] = r[prow, ncols:]
    return inv


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over GF(2)."""
    return (np.kron(bitmat(a), bitmat(b)) & 1).astype(np.uint8)


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(A)[j*rows + i] = A[i, j].

    The column-stacking choice is forced by the selector identity used
    throughout the deformed-code proofs,
        (e_mᵀ ⊗ E_n) · vec(U) = column m of U,
    which holds only when columns are stacked in order.
    """
    return bitmat(a).flatten(order="F")


def unvec(v: np.ndarray, rows: int) -> np.ndarray:
    """Inverse of :func:`vec`; the length of v must be a multiple of rows.

    A matrix is taken as one vector per row and gives a stack of matrices,
    shape (len(v), rows, cols).
    """
    v = bitvec(v) if np.ndim(v) < 2 else bitmat(v)
    size = v.shape[-1]
    if rows == 0:
        if size != 0:
            raise ValueError("cannot unvec a nonempty vector into 0 rows")
        return np.zeros(v.shape[:-1] + (0, 0), dtype=np.uint8)
    if size % rows != 0:
        raise ValueError(f"length {size} not divisible by {rows} rows")
    return v.reshape(v.shape[:-1] + (size // rows, rows)).swapaxes(-1, -2).copy()


def solve_linear(a: np.ndarray, b: np.ndarray,
                 mode: str = "any") -> Optional[np.ndarray]:
    """Solve a·xᵀ = bᵀ over GF(2).

    mode="any" returns one solution (or None when the system is
    inconsistent).  mode="min_weight" returns a minimum-Hamming-weight
    solution, the first in (weight, lexicographic) order: the coset leader
    that syndrome_table keeps for b's syndrome under the lead independent
    rows of the one elimination.  That table is refused with
    :class:`SearchTooLarge`, rather than answered heuristically, only when
    both (n + 1)·2^rank(a) and 2^n exceed TABLE_CAP (read at call time),
    n the number of unknowns: high-rate checks are cheap.
    """
    a = bitmat(a)
    b = bitvec(b)
    nrows, ncols = a.shape
    if b.size != nrows:
        raise ValueError(f"rhs length {b.size} != {nrows} rows")
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    r, pivots = row_echelon(aug, ncols=ncols)
    # Inconsistent iff some row reduces to (0 ... 0 | 1).
    lead = len(pivots)
    if np.any(r[lead:, ncols]):
        return None
    x0 = zeros(1, ncols)[0]
    x0[pivots] = r[:lead, ncols]
    if mode == "any":
        return x0
    if mode != "min_weight":
        raise ValueError(f"unknown mode {mode!r}")
    table = syndrome_table(r[:lead, :ncols], ncols)
    idx, _ = table.find(pack_words(r[None, :lead, ncols]))
    return unpack_words(table.errors[idx], ncols)[0]


def _pack(v: np.ndarray) -> int:
    acc = 0
    for i in np.nonzero(v)[0]:
        acc |= 1 << int(i)
    return acc


def _unpack(bits: int, n: int) -> np.ndarray:
    v = zeros(1, n)[0]
    while bits:
        low = bits & -bits
        v[low.bit_length() - 1] = 1
        bits ^= low
    return v


def pack_words(m) -> np.ndarray:
    """Rows of a 0/1 matrix as uint64 words: bit j of a row is bit j % 64
    of its word j // 64 (at least one word per row)."""
    m = np.asarray(m, dtype=np.uint8)
    words = max(1, -(-m.shape[1] // 64))
    padded = np.zeros((m.shape[0], 64 * words), dtype=np.uint8)
    padded[:, :m.shape[1]] = m
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_words`: the first n bits of each word row."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :n]


# Rows per vectorised step of the enumerator and the table code below.
ENUM_CHUNK = 1 << 16


def extend_sets(acc: np.ndarray, first, stop, cols: np.ndarray):
    """The extensions of each set i in turn (XOR acc[i]) by each row of the
    packed rows `cols` from first[i] to stop[i] − 1, as (row, XOR) chunks of
    about ENUM_CHUNK (one set's at least).  Extension p overall takes row
    p + stop[i] − ends[i], ends the running sum of counts stop − first."""
    counts = stop - first
    ends = np.cumsum(counts)
    shift, start, lo = stop - ends, 0, 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, start + ENUM_CHUNK,
                                             side="right")))
        parent = np.repeat(np.arange(lo, hi), counts[lo:hi])
        nxt = shift[parent] + start + np.arange(parent.size)
        words = np.take(acc, parent, axis=0)
        words ^= np.take(cols, nxt, axis=0)
        yield nxt, words
        start, lo = ends[hi - 1], hi


def combination_sweep(cols: np.ndarray, t: int):
    """XORs of every set of at most t of the packed rows `cols` (n × words),
    yielded as (w, chunk) in (weight, lexicographic) order, chunk holding
    XORs of w rows; the empty set comes first as (0, one zero row).

    The weight-w sets, in lexicographic order, are extend_sets of the
    weight-(w−1) sets; each weight is generated in chunks of about
    ENUM_CHUNK sets and only the lower weights, which seed the next, are
    kept whole; callers must not write to a yielded chunk.
    """
    last, acc = np.array([-1]), np.zeros((1, cols.shape[1]), dtype=np.uint64)
    yield 0, acc
    for w in range(1, min(t, cols.shape[0]) + 1):
        grown = []
        for nxt, words in extend_sets(acc, last + 1, len(cols), cols):
            yield w, words
            if w < t:
                grown.append((nxt, words))
        if w < t:
            last, acc = (np.concatenate(a) for a in zip(*grown))


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per packed row, a view of a C-contiguous `rows`: the
    word itself, or the row's bytes as one np.void when it has several."""
    rows = np.ascontiguousarray(rows)
    if rows.shape[1] == 1:
        return rows.reshape(-1)
    return rows.view(f"V{rows.itemsize * rows.shape[1]}").reshape(-1)


def least_per_key(keys: np.ndarray):
    """Distinct packed rows of `keys` in key order and the first position of
    each.  A C-contiguous `keys` ends sorted in place.

    One-word keys whose bits plus the b position bits fit in 64 are sorted
    as the single words key << b | position, written and compared
    ENUM_CHUNK words at a time: the first word of each key then holds its
    first position, and beyond the keys the peak is a byte a row and two
    words a distinct key.  Other keys (several words, or a key and position
    too wide together) take an argsort of the rows beside the sort, an
    int64 a row more."""
    keys = np.ascontiguousarray(keys)
    flat = _row_keys(keys)
    n = len(flat)
    b = (n - 1).bit_length()
    if (flat.dtype != np.uint64
            or int(flat.max(initial=0)).bit_length() + b > 64):
        order = np.argsort(flat)
        flat.sort()
        starts = np.flatnonzero(np.r_[n > 0, flat[1:] != flat[:-1]])
        least = np.minimum.reduceat(order, starts)
        del order
        return keys[starts], least
    flat <<= b
    for lo in range(0, n, ENUM_CHUNK):
        hi = min(lo + ENUM_CHUNK, n)
        flat[lo:hi] |= np.arange(lo, hi, dtype=np.uint64)
    flat.sort()
    new = np.ones(n, dtype=bool)
    for lo in range(1, n, ENUM_CHUNK):
        hi = min(lo + ENUM_CHUNK, n)
        new[lo:hi] = (flat[lo:hi] ^ flat[lo - 1:hi - 1]) >> b != 0
    # Within a key the words rise with the position: its first is its least.
    # The keys, which callers keep, are allocated before the positions.
    distinct = np.compress(new, flat)
    del new
    least = distinct & np.uint64((1 << b) - 1)
    distinct >>= b
    flat >>= b
    return distinct.reshape(-1, 1), least.view(np.int64)


def flagged_collision(checks: np.ndarray, flags: np.ndarray,
                      half: int) -> Optional[int]:
    """Least |a| + |b| over sets a, b of at most `half` columns with equal
    syndromes (checks·aᵀ = checks·bᵀ) and different flags (flags·aᵀ ≠
    flags·bᵀ), or None when no such pair exists (Stern's collision step).

    a ⊕ b is a kernel word of `checks` with a nonzero flag, so the value is
    at least m, the least weight of such a word, and at most 2·half; a word
    of weight m splits into halves of sizes ⌈m/2⌉ and ⌊m/2⌋.  So v ≤ 2·half
    implies v = m: the value is m when m ≤ 2·half, and None (a certificate
    that m > 2·half) otherwise.  syndrome_tables of [checks; flags] keeps
    the least set of each (syndrome, flag) key; after each weight w ≥ 1
    (the weight-0 table, one row, holds no pair), the two least weights of
    a syndrome class are a candidate, and the first value, at most 2·w, is
    m: the table is grown to weight ⌈m/2⌉ and no further."""
    r, n = checks.shape
    size = sum(math.comb(n, w) for w in range(min(half, n) + 1))
    if size > TABLE_CAP:
        raise SearchTooLarge(f"collision sweep of {size} sets refused")
    syndrome_bits = pack_words(np.arange(r + len(flags))[None] < r)
    tables = syndrome_tables(np.vstack([checks, flags]), half)
    next(tables)
    for table in tables:
        least = np.bitwise_count(table.errors).sum(axis=1, dtype=np.int64)
        _, syndrome = np.unique(_row_keys(table.keys & syndrome_bits),
                                return_inverse=True)
        order = np.lexsort((least, syndrome))
        syndrome, least = syndrome[order], least[order]
        same = syndrome[1:] == syndrome[:-1]
        if same.any():
            return int((least[1:] + least[:-1])[same].min())
    return None


@dataclass(eq=False)
class SyndromeTable:
    """Syndrome → error map.

    One-word keys are looked up in a rank index (Jacobson, FOCS 1989) when
    it takes no more bytes than the keys: a bitmap of the keys over
    0..max(keys), one uint64 word per 64 syndromes, and beside each word the
    int32 count of keys up to its end, 12 bytes per 64 syndromes against 8
    per key.  Other tables are looked up by binary search on the keys."""

    keys: np.ndarray    # (entries, syndrome words) uint64, distinct, sorted
    errors: np.ndarray  # (entries, error words) uint64

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def rank_index(self) -> Optional[tuple]:
        """(bitmap, prefix) of the rank index, or None when the table takes
        binary search; built on first use, ENUM_CHUNK keys at a time."""
        if self.keys.shape[1] != 1:
            return None
        flat = self.keys.reshape(-1)
        words = (int(flat[-1]) >> 6) + 1
        if 12 * words > 8 * len(flat):
            return None
        # Both allocated before the temporaries, which then free to the
        # heap's top.
        bitmap = np.zeros(words, dtype=np.uint64)
        prefix = np.empty(words, dtype=np.int32)
        for lo in range(0, len(flat), ENUM_CHUNK):
            keys = flat[lo: lo + ENUM_CHUNK]
            word = keys >> 6
            starts = np.flatnonzero(np.r_[True, word[1:] != word[:-1]])
            bitmap[word[starts]] |= np.bitwise_or.reduceat(
                np.uint64(1) << (keys & 63), starts)
        np.cumsum(np.bitwise_count(bitmap), out=prefix)
        return bitmap, prefix

    def find(self, rows: np.ndarray):
        """Row index of each packed syndrome and whether it is present; a
        missing syndrome gets some valid row."""
        if self.rank_index is None:
            pos = np.searchsorted(_row_keys(self.keys), _row_keys(rows))
            idx = np.minimum(pos, len(self) - 1)
            return idx, (self.keys[idx] == rows).all(axis=1)
        bitmap, prefix = self.rank_index
        s = rows.reshape(-1)
        # Keys below s: those to the end of its word less those at or above
        # its bit.  A syndrome past the bitmap reads the last word and misses.
        w = s >> 6
        high = bitmap.take(w, mode="clip") >> (s & 63)
        idx = prefix.take(w, mode="clip") - np.bitwise_count(high)
        hit = (high & (s <= self.keys[-1, 0])).astype(bool)
        return np.minimum(idx, len(self) - 1), hit


class TableStack:
    """SyndromeTables looked up as one, each row of a find in its own table.
    A found index is a row of `errors`, the tables' errors stacked in order;
    each table's errors is rebound to a view of its part, so none is held
    twice.

    When every table has a rank index, their bitmaps sit side by side in
    regions of equal length, each padded with at least one zero word, and
    one prefix counts the keys across them: a syndrome's word is clipped to
    the region's last word, where past its table's keys it misses, and
    offset by its table's region.  Otherwise each table is searched for its
    own rows: keys tagged by table would be a second copy of every key, as
    views of one tagged array would need the tables' keys to sort alike
    (one-word keys sort as numbers, wider ones as bytes)."""

    def __init__(self, tables) -> None:
        self.tables = tables
        sizes = [len(table) for table in tables]
        self.starts = np.cumsum(sizes) - sizes
        self.errors = np.concatenate([table.errors for table in tables])
        for table, part in zip(tables, np.split(self.errors, self.starts[1:])):
            table.errors = part
        indexes = [table.rank_index for table in tables]
        self.bitmap = None
        if all(index is not None for index in indexes):
            self.words = 1 + max(len(bitmap) for bitmap, _ in indexes)
            self.bitmap = np.zeros((len(tables), self.words), dtype=np.uint64)
            for region, (bitmap, _) in zip(self.bitmap, indexes):
                region[:len(bitmap)] = bitmap
            self.bitmap = self.bitmap.reshape(-1)
            self.prefix = np.cumsum(np.bitwise_count(self.bitmap),
                                    dtype=np.int32)
            for table in tables:  # the stack's bitmap replaces them
                del table.rank_index

    def find(self, rows: np.ndarray, which: np.ndarray):
        """Row of `errors` of each packed syndrome, looked up in table
        which[i], and whether it is present; a missing syndrome gets some
        valid row.  A syndrome narrower than the rows ends in zero words."""
        if self.bitmap is not None:
            s = rows.reshape(-1)
            w = (np.minimum(s >> 6, self.words - 1).view(np.int64)
                 + which * self.words)
            high = self.bitmap.take(w) >> (s & 63)
            idx = self.prefix.take(w) - np.bitwise_count(high)
            return (np.minimum(idx, len(self.errors) - 1),
                    (high & 1).astype(bool))
        idx = np.empty(len(rows), dtype=np.intp)
        hit = np.empty(len(rows), dtype=bool)
        for i, (table, start) in enumerate(zip(self.tables, self.starts)):
            mine = np.flatnonzero(which == i)
            idx[mine], hit[mine] = table.find(
                rows[mine, :table.keys.shape[1]])
            idx[mine] += start
        return idx, hit


def syndrome_tables(checks: np.ndarray, t: int):
    """syndrome_table(checks, w) for w = 0, 1, …, t: one SyndromeTable,
    yielded after each weight and grown in place (its keys and errors
    rebound, its rank index dropped), so no weight is built twice and none
    outlives its step.  Each entry is the first error of its syndrome in
    combination_sweep's order.  These first sets are downward closed: less
    any index j, such a set E is the first of its own syndrome, or an
    earlier set T of it would put T ⊕ {j} before E.  So a weight-w entry is
    a new weight-(w−1) entry P plus the largest index of a later sibling of
    P (a set that differs from P only there), and each weight's new entries
    are the first of those extend_sets to reach a new syndrome (one
    least_per_key of [keys | joins]; surface5 h_z to depth 5 joins 316,125
    sets, where extending by every larger index took 462,961).  A weight
    that adds none, or that completes all 2^rows syndromes, ends the build.
    A weight holds at most 2^rows keys and n joins of each, so the build is
    refused, before it allocates anything, when both (n + 1)·2^rows and
    C(n, ≤t) exceed TABLE_CAP."""
    rows, n = checks.shape
    size = min(sum(math.comb(n, w) for w in range(t + 1)), (n + 1) << rows)
    if size > TABLE_CAP:
        raise SearchTooLarge(f"syndrome table of {size} sets refused")
    cols = pack_words(checks.T)
    units = pack_words(np.eye(n + 1, n, k=-1, dtype=np.uint8))
    table = SyndromeTable(np.zeros((1, cols.shape[1]), np.uint64), units[:1])
    yield table
    # The last weight's new rows in sweep order, each one's largest index
    # and end of siblings; the empty set's (−1) siblings are the n units.
    front, last, stop = np.zeros(1, np.int64), np.arange(-1, n), np.r_[n + 1]
    for w in range(1, min(t, n) + 1):
        s, first = len(table), np.arange(1, len(front) + 1)
        table.keys, least = least_per_key(np.concatenate([table.keys] + [
            words for _, words in extend_sets(table.keys[front], first, stop,
                                              cols[last])]))
        vars(table).pop("rank_index", None)
        if len(table) == s:
            return
        # Before the temporaries below, which then free to the heap's top.
        grown = np.empty((len(table), table.errors.shape[1]), dtype=np.uint64)
        # Position p's error: row o = origin[p] of [old rows | front] OR row
        # base[o] + p, its sibling's (or itself when p < s, and then o = p).
        origin = np.repeat(np.arange(s + len(front), dtype=np.int32),
                           np.concatenate([np.ones(s, np.int64), stop - first]))
        base = np.concatenate([np.zeros(s, np.int64),
                               stop - np.cumsum(stop - first)])
        table.errors = np.concatenate(
            [table.errors, table.errors[front] if w > 1 else units])
        del first  # before the loop's temporaries, which then peak lower
        for lo in range(0, len(table), ENUM_CHUNK):
            p = least[lo: lo + ENUM_CHUNK]
            o, rows = origin[p], grown[lo: lo + len(p)]
            np.take(table.errors, o, axis=0, out=rows, mode="wrap")  # unbuffered
            rows |= np.take(table.errors, base[o] + p, axis=0)
        table.errors = grown
        yield table
        if len(table) == 1 << len(checks):  # every syndrome in: none to add
            return
        if w < t:  # new rows by position (after the s old), sorted packed
            p = np.sort(least.astype(np.uint64) << 32
                        | np.arange(len(table), dtype=np.uint64))[s:]
            front = (p & 0xFFFFFFFF).astype(np.intp)
            p = (p >> 32).astype(np.intp)
            o = origin[p]
            last = last[base[o] + p - s]
            # A parent's new rows are siblings: each ends where its run ends.
            stop = np.cumsum(np.bincount(o - s))[o - s]
            del p, o  # before the next weight's sort


def syndrome_table(checks: np.ndarray, t: int) -> SyndromeTable:
    """Errors of weight ≤ t by syndrome: the last of syndrome_tables."""
    *_, table = syndrome_tables(checks, t)
    return table


def is_standard_form(g: np.ndarray) -> bool:
    g = bitmat(g)
    k = g.shape[0]
    return g.shape[1] >= k and bool(np.array_equal(g[:, :k], eye(k)))


# ── matrix text format ──────────────────────────────────────────────────
# Line 1: "<rows> <cols>"; then one line of '0'/'1' characters per row.


def to_text(m: np.ndarray) -> str:
    m = bitmat(m)
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines.extend("".join("1" if b else "0" for b in row) for row in m)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> np.ndarray:
    """Inverse of to_text; raises ValueError unless the header is two
    non-negative integers followed by that many rows (none for 0 columns,
    whose rows to_text writes blank)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or not all(t.isdecimal() for t in header):
        raise ValueError(f"header {' '.join(header)!r} is not two "
                         "non-negative integers")
    rows, cols = map(int, header)
    if len(lines) - 1 != rows * (cols > 0):
        raise ValueError(f"{len(lines) - 1} row lines, expected "
                         f"{rows * (cols > 0)}")
    m = zeros(rows, cols)
    for i, row in enumerate(lines[1:]):
        if len(row) != cols:
            raise ValueError(f"row {i} has {len(row)} entries, expected {cols}")
        if row.strip("01"):
            raise ValueError(f"row {i} has entries other than 0 and 1: {row!r}")
        m[i] = [ch == "1" for ch in row]
    return m


def save_matrix(path, m: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_text(m))


def load_matrix(path) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    try:
        return from_text(text)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
