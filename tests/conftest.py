"""Fixtures that more than one test module uses."""

import hashlib

import numpy as np
import pytest

from qsurg import codes, gf2, surgery


@pytest.fixture
def trivial_css():
    """[[1, 1, 1]]: a single qubit with no checks."""
    return codes.CssCode(h_x=gf2.zeros(0, 1), h_z=gf2.zeros(0, 1),
                         j_x=gf2.eye(1), j_z=gf2.eye(1), n=1, k=1, d=1)


@pytest.fixture(scope="session")
def digest():
    """sha256 of a matrix's dtype, shape and bytes."""
    def of(m):
        m = np.ascontiguousarray(m)
        h = hashlib.sha256(repr((m.dtype.str, m.shape)).encode())
        h.update(m.tobytes())
        return h.hexdigest()
    return of


@pytest.fixture(scope="session")
def mixed_rows():
    """A seeded random 0/1 matrix whose rows are each, at random, fresh,
    zero, a copy of an earlier row or the XOR of two earlier rows."""
    def of(seed, rows, cols):
        rng = np.random.default_rng(seed)
        m = gf2.zeros(rows, cols)
        for i in range(rows):
            kind = int(rng.integers(4 if i else 2))
            if kind == 0:
                m[i] = rng.integers(0, 2, size=cols)
            elif kind == 2:
                m[i] = m[rng.integers(i)]
            elif kind == 3:
                m[i] = m[rng.integers(i)] ^ m[rng.integers(i)]
        return m
    return of


@pytest.fixture(scope="session")
def span_walk():
    """The reference span walk: XORs of all 2^dim subsets of the packed rows
    `basis` (dim × words), yielded in chunks of at most gf2.ENUM_CHUNK rows,
    in Gray-code order: entry i is the XOR of the rows at the set bits of
    gray(i) = i ^ (i >> 1).

    A table of the 2^m subsets of the first m rows (2^m ≤ ENUM_CHUNK) is
    built once.  For a multiple a of 2^m and j < 2^m,
    gray(a + j) = gray(a) ^ gray(j), so each chunk is that table XOR the
    rows at the set bits of gray(a); these can include row m − 1."""
    def walk(basis):
        dim = basis.shape[0]
        m = min(dim, gf2.ENUM_CHUNK.bit_length() - 1)
        low = np.zeros((1, basis.shape[1]), dtype=np.uint64)
        for b in range(m):
            low = np.concatenate([low, low[::-1] ^ basis[b]])
        for a in range(0, 1 << dim, 1 << m):
            gray = a ^ (a >> 1)
            rows = [b for b in range(dim) if gray >> b & 1]
            yield low ^ np.bitwise_xor.reduce(basis[rows], axis=0)
    return walk


@pytest.fixture
def row_echelon_calls(monkeypatch):
    """A list that gains one entry per gf2.row_echelon call in the test."""
    calls = []
    real = gf2.row_echelon

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(gf2, "row_echelon", counted)
    return calls


# Deformed codes whose matrices the golden tests pin: (target, alpha, R code).
GOLDEN_BUILDS = {
    "desk": lambda: (codes.surface_code_via_hgp(3), [[1]], codes.hamming_743()),
    "composite": lambda: (codes.direct_sum_css(codes.surface_code_via_hgp(3),
                                               codes.surface_code_via_hgp(3)),
                          [[1, 1]], codes.hamming_743()),
    "surface5_rep3": lambda: (codes.surface_code_via_hgp(5), [[1]],
                              codes.repetition(3)),
}


@pytest.fixture(scope="session", params=sorted(GOLDEN_BUILDS))
def golden_build(request):
    """(name, deformed code) of each GOLDEN_BUILDS entry."""
    target, alpha, r_code = GOLDEN_BUILDS[request.param]()
    return request.param, surgery.build_deformed(target, gf2.bitmat(alpha),
                                                 r_code)


@pytest.fixture(scope="session")
def set_rows():
    """The 0/1 rows of n columns with ones at each row of location sets."""
    def of(sets, n):
        rows = gf2.zeros(len(sets), n)
        rows[np.arange(len(sets))[:, None], sets] = 1
        return rows
    return of
