"""GF(2) kernel: oracle-checked elimination, inverses, kron, vec, solving."""

import itertools
import math
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsurg import codes, gf2, sim

HAMMING_H = gf2.bitmat(
    [
        [0, 1, 1, 1, 1, 0, 0],
        [1, 0, 1, 1, 0, 1, 0],
        [1, 1, 0, 1, 0, 0, 1],
    ]
)


def span_size(m):
    """Brute-force |rowspan| by enumerating all row combinations."""
    seen = set()
    for coeffs in itertools.product([0, 1], repeat=m.shape[0]):
        v = np.zeros(m.shape[1], dtype=np.uint8)
        for c, row in zip(coeffs, m):
            if c:
                v ^= row
        seen.add(v.tobytes())
    return len(seen)


class TestRank:
    def test_identity(self):
        assert gf2.rank(gf2.eye(3)) == 3

    def test_zero(self):
        assert gf2.rank(gf2.zeros(2, 5)) == 0

    def test_hamming_vs_span_oracle(self):
        # rank = log2 of the row-span size, enumerated exhaustively
        assert span_size(HAMMING_H) == 2 ** gf2.rank(HAMMING_H)
        assert gf2.rank(HAMMING_H) == 3

    def test_random_vs_span_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.integers(0, 2, size=(4, 6)).astype(np.uint8)
            assert span_size(m) == 2 ** gf2.rank(m)


class TestRightInverse:
    def test_identity(self):
        assert np.array_equal(gf2.right_inverse(gf2.eye(4)), gf2.eye(4))

    def test_standard_form_generator(self):
        # G = (E_k | P) must get the sparse right inverse (E_k | 0)ᵀ.
        p = gf2.bitmat([[1, 0, 1], [0, 1, 1]])
        g = np.concatenate([gf2.eye(2), p], axis=1)
        r = gf2.right_inverse(g)
        expected = np.concatenate([gf2.eye(2), gf2.zeros(2, 3)], axis=1).T
        assert np.array_equal(r, expected)

    def test_rank_deficient_is_absent(self):
        assert gf2.right_inverse(gf2.bitmat([[1, 1], [1, 1]])) is None

    def test_random_full_rank(self):
        rng = np.random.default_rng(5)
        found = 0
        while found < 25:
            m = rng.integers(0, 2, size=(3, 7)).astype(np.uint8)
            if gf2.rank(m) < 3:
                continue
            found += 1
            r = gf2.right_inverse(m)
            assert np.array_equal(gf2.mul(m, r), gf2.eye(3))


class TestKron:
    def test_identities(self):
        assert np.array_equal(gf2.kron(gf2.eye(2), gf2.eye(3)), gf2.eye(6))

    def test_row_vectors(self):
        out = gf2.kron([[1, 1]], [[1, 0, 1]])
        assert np.array_equal(out, gf2.bitmat([[1, 0, 1, 1, 0, 1]]))

    def test_mixed_product_vs_direct_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b, c, d = (rng.integers(0, 2, size=(3, 3)).astype(np.uint8) for _ in range(4))
            lhs = gf2.mul(gf2.kron(a, b), gf2.kron(c, d))
            rhs = gf2.kron(gf2.mul(a, c), gf2.mul(b, d))
            assert np.array_equal(lhs, rhs)


class TestVec:
    def test_vec_identity(self):
        assert np.array_equal(gf2.vec(gf2.eye(2)), gf2.bitvec([1, 0, 0, 1]))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, size=(3, 4)).astype(np.uint8)
        assert np.array_equal(gf2.unvec(gf2.vec(x), 3), x)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf2.unvec(gf2.bitvec([1, 0, 1]), 2)

    def test_column_selector_identity(self):
        # (e_mᵀ ⊗ E_n) · vec(U) = column m of U, for all m.
        rng = np.random.default_rng(9)
        u = rng.integers(0, 2, size=(4, 3)).astype(np.uint8)
        for m in range(3):
            sel = gf2.zeros(1, 3)
            sel[0, m] = 1
            got = gf2.mul(gf2.kron(sel, gf2.eye(4)), gf2.vec(u))
            assert np.array_equal(got, u[:, m])

    def test_kron_vec_compatibility(self):
        # (P ⊗ Q) · vec(X) = vec(Q X Pᵀ) under column stacking.
        rng = np.random.default_rng(13)
        p = rng.integers(0, 2, size=(2, 3)).astype(np.uint8)
        q = rng.integers(0, 2, size=(4, 5)).astype(np.uint8)
        x = rng.integers(0, 2, size=(5, 3)).astype(np.uint8)
        lhs = gf2.mul(gf2.kron(p, q), gf2.vec(x))
        rhs = gf2.vec(gf2.mul(q, x, p.T))
        assert np.array_equal(lhs, rhs)


class TestSolveLinear:
    def test_identity_system(self):
        x = gf2.solve_linear(gf2.eye(3), [1, 0, 1])
        assert np.array_equal(x, gf2.bitvec([1, 0, 1]))

    def test_inconsistent(self):
        a = gf2.bitmat([[1, 1], [0, 0]])
        assert gf2.solve_linear(a, [1, 1]) is None

    def test_any_mode_satisfies_system(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            a = rng.integers(0, 2, size=(4, 7)).astype(np.uint8)
            x_true = rng.integers(0, 2, size=7).astype(np.uint8)
            b = gf2.mul(a, x_true)
            x = gf2.solve_linear(a, b)
            assert x is not None
            assert np.array_equal(gf2.mul(a, x), b)

    def test_min_weight_hamming_preimage(self):
        v = gf2.bitvec([1, 0, 0])
        # Exhaustive oracle over all 2^7 candidates.
        best = min(
            (sum(u) for u in itertools.product([0, 1], repeat=7)
             if np.array_equal(gf2.mul(HAMMING_H, gf2.bitvec(u)), v)),
        )
        x = gf2.solve_linear(HAMMING_H, v, mode="min_weight")
        assert np.array_equal(gf2.mul(HAMMING_H, x), v)
        assert gf2.weight(x) == best == 1

    def test_min_weight_never_beaten_by_enumeration(self):
        rng = np.random.default_rng(23)
        a = rng.integers(0, 2, size=(3, 6)).astype(np.uint8)
        b = gf2.mul(a, rng.integers(0, 2, size=6).astype(np.uint8))
        x = gf2.solve_linear(a, b, mode="min_weight")
        for u in itertools.product([0, 1], repeat=6):
            u = gf2.bitvec(u)
            if np.array_equal(gf2.mul(a, u), b):
                assert gf2.weight(u) >= gf2.weight(x)

    def test_table_cap_refuses_repetition_31(self):
        # Rank 30: a coset table of both 32·2^30 and 2^31 sets.
        with pytest.raises(gf2.SearchTooLarge):
            gf2.solve_linear(codes.repetition(31).h, gf2.zeros(1, 30)[0],
                             mode="min_weight")

    def test_rank_zero_answered(self):
        # A coset of 2^30 words, but a table of 31 sets: the zero vector.
        x = gf2.solve_linear(gf2.zeros(1, 30), [0], mode="min_weight")
        assert same_bytes(x, gf2.zeros(1, 30)[0])

    def test_default_cap_read_at_call_time(self, monkeypatch):
        # Hamming's coset table holds up to (7 + 1)·2^3 = 64 sets.
        monkeypatch.setattr(gf2, "TABLE_CAP", 15)
        with pytest.raises(gf2.SearchTooLarge):
            gf2.solve_linear(HAMMING_H, [1, 0, 0], mode="min_weight")


class TestKernelsAndForms:
    def test_null_space(self):
        k = gf2.null_space(HAMMING_H)
        assert k.shape == (4, 7)
        assert not gf2.mul(HAMMING_H, k.T).any()
        assert gf2.rank(k) == 4

    def test_left_null_space(self):
        m = gf2.bitmat([[1, 0], [1, 0], [0, 1]])
        l = gf2.left_null_space(m)
        assert l.shape[0] == 1
        assert not gf2.mul(l, m).any()

    @staticmethod
    def standard_form(g):
        """Columns permuted so the pivots of g's echelon form come first,
        and that echelon form so permuted: (E_k | P)."""
        r, pivots = gf2.row_echelon(g)
        rest = [c for c in range(g.shape[1]) if c not in pivots]
        perm = np.array(pivots + rest)
        return r[:, perm], perm

    def test_standard_form(self):
        g = gf2.bitmat([[0, 1, 1, 1], [1, 1, 0, 1]])
        g_std, perm = self.standard_form(g)
        assert gf2.is_standard_form(g_std)
        # Same row space after undoing the permutation.
        undone = gf2.zeros(*g.shape)
        undone[:, perm] = g_std
        assert np.array_equal(gf2.row_echelon(undone)[0],
                              gf2.row_echelon(g)[0])


class TestTextFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(29)
        m = rng.integers(0, 2, size=(5, 9)).astype(np.uint8)
        assert np.array_equal(gf2.from_text(gf2.to_text(m)), m)

    def test_bit_exact_layout(self):
        m = gf2.bitmat([[1, 0, 1], [0, 1, 1]])
        assert gf2.to_text(m) == "2 3\n101\n011\n"

    @pytest.mark.parametrize("row", ["1a1", "1 1", "1.0", "121", "-11"])
    def test_rejects_non_binary_entries(self, row):
        with pytest.raises(ValueError, match="row 1"):
            gf2.from_text(f"2 3\n101\n{row}\n")

    @pytest.mark.parametrize("header", ["", "3", "3 3 3", "-1 3", "3 x",
                                        "2.0 3", "010"])
    def test_rejects_bad_header(self, header):
        with pytest.raises(ValueError, match="not two non-negative integers"):
            gf2.from_text(f"{header}\n010\n111\n")

    @pytest.mark.parametrize("text", ["3 3\n010\n", "1 3\n010\n111\n",
                                      "0 3\n010\n", "2 0\n010\n"])
    def test_rejects_wrong_row_count(self, text):
        with pytest.raises(ValueError, match="row lines, expected"):
            gf2.from_text(text)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_empty_round_trip(self, shape):
        m = gf2.zeros(*shape)
        assert gf2.from_text(gf2.to_text(m)).shape == shape

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 3\n010\n")
        with pytest.raises(ValueError, match="m.txt: 1 row lines"):
            gf2.load_matrix(path)


def random_bits(seed, rows, cols):
    return np.random.default_rng(seed).integers(
        0, 2, size=(rows, cols)).astype(np.uint8)


def first_least(x0, kernel):
    """The first word of the coset x0 + span(kernel) in (weight,
    lexicographic) order, by a Python Gray-code loop over integer-packed
    vectors.  Of two words of one weight, the one holding the lowest index
    where they differ comes first."""
    basis = [gf2._pack(row) for row in kernel]
    cur = best = gf2._pack(x0)
    gray_prev = 0
    for i in range(1, 1 << len(basis)):
        gray = i ^ (i >> 1)
        cur ^= basis[(gray ^ gray_prev).bit_length() - 1]
        gray_prev = gray
        w, best_w = cur.bit_count(), best.bit_count()
        low = (cur ^ best) & -(cur ^ best)
        if w < best_w or (w == best_w and cur & low):
            best = cur
    return gf2._unpack(best, len(x0))


def gray_loop_min_weight(a, b):
    """solve_linear(mode="min_weight") as a Gray-code loop over the coset
    of solve_linear's solution and null_space's kernel."""
    x0 = gf2.solve_linear(a, b)
    return None if x0 is None else first_least(x0, gf2.null_space(a))


def row_loop_null_space(m):
    """null_space with the kernel read by a loop over free and pivot
    columns (the earlier code, kept as a reference)."""
    m = gf2.bitmat(m)
    nc = m.shape[1]
    r, pivots = gf2.row_echelon(m)
    free = [c for c in range(nc) if c not in pivots]
    basis = gf2.zeros(len(free), nc)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for prow, pc in enumerate(pivots):
            basis[i, pc] = r[prow, fc]
    return basis


def two_elimination_min_weight(a, b):
    """solve_linear(mode="min_weight") with the kernel from a second
    elimination, of a alone, and the coset's first least word by
    first_least (the earlier code, kept as a reference)."""
    a, b = gf2.bitmat(a), gf2.bitvec(b)
    ncols = a.shape[1]
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    r, pivots = gf2.row_echelon(aug, ncols=ncols)
    if np.any(r[len(pivots):, ncols]):
        return None
    x0 = gf2.zeros(1, ncols)[0]
    for prow, pc in enumerate(pivots):
        x0[pc] = r[prow, ncols]
    return first_least(x0, row_loop_null_space(a))


def same_bytes(got, want):
    """Both None, or arrays of one dtype, shape and bytes."""
    if got is None or want is None:
        return got is want
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestOneElimination:
    """The kernel and the min-weight solve read from one elimination equal
    the earlier row-loop and two-elimination code byte for byte."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 70), st.integers(0, 2**32 - 1))
    def test_null_space_matches_row_loop(self, mixed_rows, rows, cols, seed):
        m = mixed_rows(seed, rows, cols)
        assert same_bytes(gf2.null_space(m), row_loop_null_space(m))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10), st.integers(1, 12), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_min_weight_matches_two_eliminations(self, mixed_rows, rows, cols,
                                                 consistent, seed):
        a = mixed_rows(seed, rows, cols)
        rng = np.random.default_rng(seed + 1)
        b = (gf2.mul(a, rng.integers(0, 2, size=cols)).reshape(-1)
             if consistent else rng.integers(0, 2, size=rows))
        assert same_bytes(gf2.solve_linear(a, b, mode="min_weight"),
                          two_elimination_min_weight(a, b))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 10), st.integers(0, 2**32 - 1))
    def test_min_weight_is_the_coset_leader(self, mixed_rows, rows, cols,
                                            seed):
        # The table of a itself, dependent rows and all, keys the same
        # vector, and no solution among all 2^cols words is lighter.
        a = mixed_rows(seed, rows, cols)
        x = np.random.default_rng(seed + 1).integers(0, 2, size=cols)
        b = gf2.mul(a, x).reshape(-1)
        got = gf2.solve_linear(a, b, mode="min_weight")
        table = gf2.syndrome_table(a, cols)
        idx, hit = table.find(gf2.pack_words(b[None]))
        assert hit[0] and same_bytes(
            got, gf2.unpack_words(table.errors[idx], cols)[0])
        words = (np.arange(1 << cols)[:, None] >> np.arange(cols)) & 1
        solves = ~(gf2.mul(words, a.T) ^ b).any(axis=1)
        assert gf2.weight(got) == words[solves].sum(axis=1).min()

    @pytest.mark.parametrize("b", [[1, 0, 1, 1], [1, 0, 1, 0]])
    def test_kernel_dimension_zero(self, b):
        # Full column rank: the solution is unique when there is one.
        a = gf2.bitmat([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
        got = gf2.solve_linear(a, b, mode="min_weight")
        assert same_bytes(got, two_elimination_min_weight(a, b))
        assert (got is None) == (b[3] == 0)

    def test_inconsistent(self):
        a = gf2.bitmat([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
        for b in ([1, 0, 0], [0, 0, 1]):
            assert gf2.solve_linear(a, b, mode="min_weight") is None
            assert two_elimination_min_weight(a, b) is None

    def test_one_elimination_per_min_weight_solve(self, row_echelon_calls):
        gf2.solve_linear(HAMMING_H, [1, 0, 0], mode="min_weight")
        assert len(row_echelon_calls) == 1


@contextmanager
def enum_chunk(size):
    """gf2.ENUM_CHUNK set to `size` inside the block."""
    old = gf2.ENUM_CHUNK
    gf2.ENUM_CHUNK = size
    try:
        yield
    finally:
        gf2.ENUM_CHUNK = old


class TestEnumerators:
    # Small chunks split every walk and every weight across many steps;
    # widths above 64 bits take several words per row.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 130), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    def test_span_walk_vs_product(self, span_walk, dim, width, chunk, seed):
        basis = random_bits(seed, dim, width)
        with enum_chunk(chunk):
            parts = list(span_walk(gf2.pack_words(basis)))
        assert all(len(p) <= chunk for p in parts)
        got = gf2.unpack_words(np.concatenate(parts), width)
        by_subset = {}
        for coeffs in itertools.product([0, 1], repeat=dim):
            v = np.zeros(width, dtype=np.uint8)
            for c, row in zip(coeffs, basis):
                if c:
                    v ^= row
            by_subset[sum(c << b for b, c in enumerate(coeffs))] = v
        want = np.array([by_subset[i ^ (i >> 1)] for i in range(1 << dim)])
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10), st.integers(1, 130), st.integers(0, 4),
           st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_combination_sweep_vs_combinations(self, n, width, t, chunk,
                                               seed):
        cols = random_bits(seed, n, width)
        with enum_chunk(chunk):
            parts = list(gf2.combination_sweep(gf2.pack_words(cols), t))
        got_w = [w for w, words in parts for _ in words]
        got = gf2.unpack_words(np.concatenate([p for _, p in parts]), width)
        want_w, want = [], []
        for w in range(min(t, n) + 1):
            for combo in itertools.combinations(range(n), w):
                want_w.append(w)
                want.append(np.bitwise_xor.reduce(
                    cols[list(combo)], axis=0, initial=0))
        assert got_w == want_w
        assert np.array_equal(got, np.array(want, dtype=np.uint8))

    def test_combination_sweep_cap(self, monkeypatch):
        # Past weight 1, a sweep of more than TABLE_CAP sets, C(n, ≤min(t, n)),
        # is refused before extend_sets makes any; one at the cap runs, and
        # one to weight 1 runs whatever the cap.
        calls, real = [], gf2.extend_sets
        monkeypatch.setattr(gf2, "extend_sets",
                            lambda *args: calls.append(1) or real(*args))
        for n, t in ((10, 2), (3, 5)):
            cols = gf2.pack_words(random_bits(n, n, 20))
            size = sum(math.comb(n, w) for w in range(min(t, n) + 1))
            monkeypatch.setattr(gf2, "TABLE_CAP", size - 1)
            with pytest.raises(gf2.SearchTooLarge,
                               match=f"^sweep of {size} sets refused$"):
                list(gf2.combination_sweep(cols, t))
            assert calls == []
            monkeypatch.setattr(gf2, "TABLE_CAP", size)
            assert sum(len(words) for _, words
                       in gf2.combination_sweep(cols, t)) == size
            monkeypatch.setattr(gf2, "TABLE_CAP", 0)
            assert sum(len(words) for _, words
                       in gf2.combination_sweep(cols, 1)) == n + 1
            calls.clear()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_collision_answers_where_its_table_fits(self, seed):
        # 3 checks and 1 flag over 12 columns: a table of at most
        # (12 + 1)·2^4 = 208 sets fits a cap of 250, though C(12, ≤3) = 299
        # does not, so the collision to half 3 answers, as brute force does.
        checks, flags = random_bits(seed, 3, 12), random_bits(seed + 1, 1, 12)
        words = np.array(list(itertools.product([0, 1], repeat=12)),
                         dtype=np.uint8)
        logical = (~gf2.mul(words, checks.T).any(axis=1)
                   & gf2.mul(words, flags.T).any(axis=1))
        m = int(words[logical].sum(axis=1).min()) if logical.any() else None
        with patch.object(gf2, "TABLE_CAP", 250):
            v = gf2.flagged_collision(checks, flags, 3)
        if m is None or m > 6:
            assert v is None
        else:
            assert gf2.weight(v) == m
            assert not gf2.mul(checks, v).any() and gf2.mul(flags, v).any()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 14), st.integers(1, 40),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_min_weight_matches_gray_loop(self, rows, cols, chunk,
                                          consistent, seed):
        a = random_bits(seed, rows, cols)
        rng = np.random.default_rng(seed + 1)
        b = (gf2.mul(a, rng.integers(0, 2, size=cols)) if consistent
             else rng.integers(0, 2, size=rows).astype(np.uint8))
        with enum_chunk(chunk):
            got = gf2.solve_linear(a, b, mode="min_weight")
        assert same_bytes(got, gray_loop_min_weight(a, b))


class TestIdentities:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_rank_kernel_right_inverse(self, rows, cols, seed):
        m = random_bits(seed, rows, cols)
        r = gf2.rank(m)
        assert span_size(m) == 2 ** r
        assert r == gf2.rank(m.T) <= min(rows, cols)
        ker = gf2.null_space(m)
        assert ker.shape == (cols - r, cols)
        assert gf2.rank(ker) == cols - r
        assert not gf2.mul(m, ker.T).any()
        inv = gf2.right_inverse(m)
        if r < rows:
            assert inv is None
        else:
            assert np.array_equal(gf2.mul(m, inv), gf2.eye(rows))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 7), st.integers(0, 2**32 - 1))
    def test_unvec_inverts_vec(self, rows, cols, seed):
        a = random_bits(seed, rows, cols)
        assert np.array_equal(gf2.unvec(gf2.vec(a), rows), a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_unvec_rows_unvec_each_row(self, count, rows, seed):
        m = random_bits(seed, count, rows * 3)
        stack = gf2.unvec(m, rows)
        assert stack.shape == (count, rows, 3)
        for got, v in zip(stack, m):
            assert np.array_equal(got, gf2.unvec(v, rows))


class TestFaultMatrices:
    # Widths off a multiple of 8 and, with `edges`, rows of no set byte
    # and of only set bytes are the edges of xor_map's byte-wise scan.
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 70), st.integers(1, 140),
           st.floats(0, 1), st.booleans(), st.integers(0, 2**32 - 1))
    def test_row_images_equal_mul(self, rows, count, cols, density, edges,
                                  seed):
        rng = np.random.default_rng(seed)
        m = random_bits(seed, rows, cols)
        e = (rng.random((count, cols)) < density).astype(np.uint8)
        if edges:
            e[::3], e[1::3] = 0, 1
        got = gf2.row_images(m, e)
        assert got.shape == (count, rows) and got.dtype == np.uint8
        assert np.array_equal(got, gf2.mul(e, m.T).reshape(count, rows))

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(0, 70), st.integers(0, 2**32 - 1))
    def test_fault_rows(self, data, n, seed):
        count = data.draw(st.integers(0, 40))
        size = data.draw(st.integers(0, min(n, 5)))
        sets = gf2.fault_sets(sim.trial_rng(seed), n, count, size)
        assert sets.shape == (count, size)
        # Each row names `size` distinct locations inside [0, n).
        assert ((sets >= 0) & (sets < n)).all()
        assert all(len(set(row)) == size for row in sets.tolist())

    def test_fault_rows_keyed_by_stream(self):
        draw = lambda seed, index: gf2.fault_sets(
            sim.trial_rng(seed, index), 50, 200, 3)
        assert np.array_equal(draw(7, 2), draw(7, 2))
        assert not np.array_equal(draw(7, 2), draw(7, 3))
        assert not np.array_equal(draw(7, 2), draw(8, 2))

    @pytest.mark.parametrize("size, bound", [(2, 54.64), (3, 63.68)])
    def test_fault_rows_uniform(self, size, bound):
        # Every one of the C(6, size) sets, 20,000 draws: the chi-square
        # statistic stays below its 1 - 1e-6 quantile (14 and 19 degrees of
        # freedom), which a sampler off by one in the shift rule exceeds.
        sets = gf2.fault_sets(sim.trial_rng(2024), 6, 20000, size)
        drawn = Counter(frozenset(row) for row in sets.tolist())
        counts = np.array([drawn[frozenset(c)]
                           for c in itertools.combinations(range(6), size)])
        assert counts.sum() == 20000
        expected = 20000 / len(counts)
        assert ((counts - expected) ** 2 / expected).sum() < bound

    def test_fault_rows_rejects_sizes(self):
        for size in (4, -1):
            with pytest.raises(ValueError, match="set size"):
                gf2.fault_sets(sim.trial_rng(1), 3, 1, size)

    def test_as_rows(self):
        rows = gf2.as_rows([1, 0, 1])
        assert rows.shape == (1, 3) and rows.dtype == np.uint8
        assert gf2.as_rows(gf2.zeros(2, 3)).shape == (2, 3)


class TestLeastPerKey:
    # Keys are drawn from a small pool of distinct rows, so most repeat.
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 8), st.integers(1, 200),
           st.integers(0, 2**32 - 1))
    def test_vs_dict(self, words, pool, rows, seed):
        rng = np.random.default_rng(seed)
        distinct = rng.integers(0, 2**64, size=(pool, words), dtype=np.uint64)
        keys = distinct[rng.integers(0, pool, size=rows)]
        first = {}
        for i, row in enumerate(keys):
            first.setdefault(row.tobytes(), i)
        # Key order: the word for one-word rows, else the row's bytes.
        order = sorted(first, key=lambda b: (
            int(np.frombuffer(b, np.uint64)[0]) if words == 1 else b))
        strided = np.hstack([keys, keys])[:, :words]
        got_keys, got = gf2.least_per_key(strided)
        assert np.array_equal(strided, keys)  # a strided view is copied
        assert [k.tobytes() for k in got_keys] == order
        assert got.tolist() == [first[b] for b in order]
        table = gf2.SyndromeTable(got_keys, got[:, None])
        idx, hit = table.find(keys)
        assert hit.all() and np.array_equal(got_keys[idx], keys)
        _, hit = table.find(~distinct)
        assert hit.tolist() == [r.tobytes() in first for r in ~distinct]

    @staticmethod
    def check_one_word(keys, packed):
        """least_per_key on one-word keys against a dict, with the path it
        must take: one packed word per row, or the argsort of the rows when
        the key and position bits exceed 64."""
        first = {}
        for i, key in enumerate(keys[:, 0].tolist()):
            first.setdefault(key, i)
        order = sorted(first)
        given_keys = keys.copy()
        with patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got_keys, got = gf2.least_per_key(keys)
        assert argsort.called != packed
        assert got_keys[:, 0].tolist() == order
        assert got.tolist() == [first[k] for k in order]
        assert got.dtype == np.int64
        assert np.array_equal(keys, np.sort(given_keys, axis=0))  # in place

    # One-word keys below 2^bits drawn from a small pool.
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 64), st.integers(1, 8), st.integers(0, 300),
           st.integers(0, 2**32 - 1))
    def test_one_word_vs_dict(self, bits, pool, rows, seed):
        rng = np.random.default_rng(seed)
        distinct = rng.integers(0, 1 << bits, size=pool, dtype=np.uint64)
        keys = distinct[rng.integers(0, pool, size=rows)][:, None]
        packed = (int(keys.max(initial=0)).bit_length()
                  + (rows - 1).bit_length() <= 64)
        self.check_one_word(keys, packed)

    @pytest.mark.parametrize("bits, packed", [(20, True), (60, False)])
    def test_one_word_longer_than_a_chunk(self, bits, packed):
        # More rows than ENUM_CHUNK, so the positions are written and the
        # key changes found over several chunks.
        rng = np.random.default_rng(bits)
        rows = 2 * gf2.ENUM_CHUNK + 5
        keys = rng.integers(0, 1 << bits, size=(rows, 1), dtype=np.uint64)
        keys[1::3] = keys[::3][: len(keys[1::3])]  # repeats across chunks
        keys[gf2.ENUM_CHUNK - 1: gf2.ENUM_CHUNK + 2] = 12345
        self.check_one_word(keys, packed)

    def test_one_word_peak(self):
        # Beyond its input the packed path holds a byte a row and two words
        # a distinct key, plus a few chunk-sized temporaries: no index of the
        # distinct keys and no copy of their values.
        rng = np.random.default_rng(17)
        keys = rng.integers(0, 1 << 19, size=(443_000, 1), dtype=np.uint64)
        distinct = len(np.unique(keys))
        assert 250_000 < distinct < len(keys)
        tracemalloc.start()
        try:
            got_keys, least = gf2.least_per_key(keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got_keys) == distinct and least.dtype == np.int64
        assert peak <= len(keys) + 16 * distinct + 24 * gf2.ENUM_CHUNK


def binary_search_find(table, rows):
    """SyndromeTable.find by binary search on the keys: the reference for
    the rank index."""
    pos = np.searchsorted(gf2._row_keys(table.keys), gf2._row_keys(rows))
    idx = np.minimum(pos, len(table) - 1)
    return idx, (table.keys[idx] == rows).all(axis=1)


def indexed(keys) -> bool:
    """The size rule: a rank index of 12 bytes per 64 syndromes up to the
    largest key, against 8 bytes per key."""
    return 12 * (int(keys[-1]) // 64 + 1) <= 8 * len(keys)


@st.composite
def one_word_keys(draw):
    """Distinct sorted one-word keys below 64·words, or anywhere in 64 bits."""
    words = draw(st.integers(1, 4))
    top = draw(st.sampled_from([64 * words - 1, 2**64 - 1]))
    keys = draw(st.lists(st.integers(0, top), min_size=1, max_size=64 * words,
                         unique=True))
    return sorted(keys)


class TestSyndromeTableFind:
    # Examples: key 0; a single key; a full bitmap word; bit 63 set; and
    # three keys whose largest is in word 1 (inside the size rule, 24 ≤ 24
    # bytes) or word 2 (outside, 36 > 24).
    @settings(max_examples=150, deadline=None)
    @given(one_word_keys(), st.lists(st.integers(0, 2**64 - 1), max_size=20),
           st.integers(1, 70))
    @example([0], [], 64)
    @example([5], [4, 6], 64)
    @example(list(range(64, 128)), [0, 63, 128], 7)
    @example([1, 63, 127], [62, 64, 126], 2)
    @example([0, 1, 64], [2, 63, 65, 128], 64)
    @example([0, 1, 128], [2, 63, 64, 129], 64)
    def test_matches_binary_search(self, keys, others, chunk):
        # A one-table TableStack: its rank index, where the size rule
        # gives one, answers as binary search of the table does.
        keys = np.array(keys, dtype=np.uint64)[:, None]
        table = gf2.SyndromeTable(keys, np.arange(len(keys),
                                                  dtype=np.uint64)[:, None])
        largest = int(keys[-1, 0])
        # Present, mostly absent, and past the largest key.
        past = [q for q in (largest + 1, largest + 64, 2**64 - 1)
                if largest < q < 2**64]
        rows = np.array(keys[:, 0].tolist() + others + past,
                        dtype=np.uint64)[:, None]
        with enum_chunk(chunk):
            stack = gf2.TableStack([table])
        idx, hit = stack.find(rows, np.zeros(len(rows), dtype=np.intp))
        assert (stack.bitmap is not None) == indexed(keys[:, 0])
        want_idx, want_hit = binary_search_find(table, rows)
        assert np.array_equal(hit, want_hit)
        assert np.array_equal(idx[hit], want_idx[hit])
        assert ((0 <= idx) & (idx < len(table))).all()
        assert hit[:len(keys)].all() and not hit[len(rows) - len(past):].any()

    def test_multiword_keys_take_binary_search(self):
        # Sorted as the rows' bytes, which put the low word first.
        keys = np.array([[0, 0], [0, 1], [5, 0]], dtype=np.uint64)
        stack = gf2.TableStack([gf2.SyndromeTable(keys, keys)])
        rows = np.array([[5, 0], [6, 0], [0, 1], [0, 2]], dtype=np.uint64)
        idx, hit = stack.find(rows, np.zeros(len(rows), dtype=np.intp))
        assert stack.bitmap is None
        assert hit.tolist() == [True, False, True, False]
        assert idx[hit].tolist() == [2, 1]
