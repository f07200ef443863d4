"""Code objects: validation, distance vs brute force, soundness, constructors."""

import itertools
import os
import pathlib
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsurg import codes, gf2


@contextmanager
def exact_refused():
    """codes._exact_side refuses every side inside the block, which forces
    codes.distance onto its budget path."""
    def refuse(checks, flags):
        raise gf2.SearchTooLarge("exact search refused")

    old = codes._exact_side
    codes._exact_side = refuse
    try:
        yield
    finally:
        codes._exact_side = old


def hamming_31():
    """[31, 26, 3] Hamming code: the checks' columns are the 31 nonzero
    5-bit words."""
    h = ((np.arange(1, 32) >> np.arange(5)[:, None]) & 1).astype(np.uint8)
    return codes.ClassicalCode(h=h, g=gf2.null_space(h), n=31, k=26)


def random_classical(seed, rows, n):
    h = np.random.default_rng(seed).integers(
        0, 2, size=(rows, n)).astype(np.uint8)
    g = gf2.null_space(h)
    return codes.ClassicalCode(h=h, g=g, n=n, k=g.shape[0])


def brute_classical_distance(code):
    """Least weight of a nonzero word with h·uᵀ = 0, over all 2^n words."""
    weights = [sum(bits) for bits in itertools.product([0, 1], repeat=code.n)
               if any(bits) and not gf2.mul(code.h, gf2.bitvec(bits)).any()]
    return min(weights, default=None)


def check_both_paths(code, d, budget):
    """codes.distance against the true distance d (None: no logical), on
    the exact path and, with the exact search refused, on the budget path;
    and gf2.flagged_collision at every half-weight, which reads d once
    2·half ≥ d and nothing before."""
    want = codes.DistanceResult(d, d - 1) if d else codes.DistanceResult(None, code.n)
    assert codes.distance(code) == want
    if d is not None and d > budget:
        want = codes.DistanceResult(None, budget)
    with exact_refused():
        assert codes.distance(code, budget=budget) == want
    if isinstance(code, codes.ClassicalCode):
        sides = [(code.h, gf2.eye(code.n))]
    else:
        sides = [(code.h_z, code.j_z), (code.h_x, code.j_x)]
    for half in range(code.n + 1):
        vals = [gf2.flagged_collision(checks, flags, half)
                for checks, flags in sides]
        v = min((v for v in vals if v is not None), default=None)
        assert v == (d if d is not None and 2 * half >= d else None)


def span_walk_soundness(code, span_walk):
    """codes.soundness by one reference span walk over all 2^n words,
    folding each chunk's (syndrome, weight) pairs through gf2.least_per_key
    (the earlier code, kept as a reference)."""
    r, n = code.h.shape
    if r == 0:
        return None
    units = gf2.pack_words(gf2.eye(n))
    syn_cols = gf2.pack_words(code.h.T)
    k = units.shape[1]
    classes, least = syn_cols[:0], np.zeros(0, dtype=np.int64)
    for words in span_walk(np.hstack([units, syn_cols])):
        wt = np.bitwise_count(words[:, :k]).sum(axis=1, dtype=np.int64)
        classes, least = gf2.least_per_key(
            np.concatenate([classes, words[:, k:]]),
            np.concatenate([least, wt]))
    syn_w = np.bitwise_count(classes).sum(axis=1, dtype=np.int64)
    a, b = syn_w[syn_w > 0], least[syn_w > 0]
    return min((Fraction(n * int(x), r * int(y)) for x, y in zip(a, b)),
               default=None)


def brute_css_distance(code):
    """Independent oracle: scan all 2^n patterns for undetected logical errors."""
    best = None
    for bits in itertools.product([0, 1], repeat=code.n):
        u = gf2.bitvec(bits)
        w = gf2.weight(u)
        if w == 0 or (best is not None and w >= best):
            continue
        if not gf2.mul(code.h_z, u).any() and gf2.mul(code.j_z, u).any():
            best = w
        elif not gf2.mul(code.h_x, u).any() and gf2.mul(code.j_x, u).any():
            best = w
    return best


def rank_per_candidate_extend(base, candidates):
    """codes._extend_basis as a rank per candidate: a row is kept when it
    raises the rank of base and the rows kept before it (the earlier code,
    kept as a reference)."""
    picked = []
    acc = base
    r = gf2.rank(acc)
    for row in candidates:
        trial = np.concatenate([acc, row.reshape(1, -1)])
        tr = gf2.rank(trial)
        if tr > r:
            picked.append(row)
            acc, r = trial, tr
    return np.array(picked, dtype=np.uint8).reshape(len(picked), base.shape[1])


def two_rank_independence(code):
    """validate_css's independence lines from two ranks a side (the
    earlier code, kept as a reference)."""
    report = []
    for h, j, name in ((code.h_x, code.j_x, "X"), (code.h_z, code.j_z, "Z")):
        if gf2.rank(np.concatenate([h, j])) != gf2.rank(h) + code.k:
            report.append(f"j_{name.lower()} rows not independent of the "
                          f"{name} stabilizer row space")
    return report


class TestValidate:
    def test_steane_valid(self):
        code = codes.steane()
        assert codes.validate_css(code) == []
        # Direct numpy re-check of one identity, independent of gf2.mul.
        assert not ((code.h_x.astype(int) @ code.h_z.T.astype(int)) % 2).any()

    def test_broken_pairing_reported(self):
        code = codes.steane()
        code.j_z = gf2.zeros(1, 7)
        report = codes.validate_css(code)
        assert any("pairing" in item for item in report)

    def test_hgp_output_valid(self):
        code = codes.hypergraph_product(codes.hamming_743(), codes.repetition(3))
        assert codes.validate_css(code) == []

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 4), st.integers(0, 6),
           st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_independence_matches_two_ranks(self, mixed_rows, rx, k, rz, n,
                                            seed):
        # Logical rows drawn with the checks: zero, repeated or in their span.
        x = mixed_rows(seed, rx + k, n)
        z = mixed_rows(seed + 1, rz + k, n)
        code = codes.CssCode(h_x=x[:rx], h_z=z[:rz], j_x=x[rx:], j_z=z[rz:],
                             n=n, k=k)
        got = [line for line in codes.validate_css(code)
               if "independent" in line]
        assert got == two_rank_independence(code)

    def test_two_eliminations(self, row_echelon_calls):
        code = codes.surface_code_via_hgp(3)
        row_echelon_calls.clear()
        codes.validate_css(code)
        assert len(row_echelon_calls) == 2


# sha256 (conftest.digest) of (j_x, j_z) of hypergraph products whose
# check matrices have redundant rows, as the rank-per-candidate completion
# gave them.
REDUNDANT_CHECK_DIGESTS = {
    "cycle3_hamming": (
        "879ebb41c6d51bcd6a40371b870bc4958edfb56c02a912dbe3eb0938f36844ae",
        "f1bfd537f240a19a8150e5a3b39a6f7793e175071dfd425e16d5d5e8095e94dd"),
    "cycle3_cycle3": (
        "2eafa914abfaca7cb3f1e1811fe502a546b6ce423a49246bb8a8d6fd34a6bd68",
        "0bba553cae809803dfe9adb9ce082664ad1d684b0ebb7351eaea9dd846445e03"),
}


def cycle3():
    """The length-3 repetition code with all three ring checks, one of
    them the sum of the other two."""
    h = gf2.bitmat([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    return codes.ClassicalCode(h=h, g=gf2.null_space(h), n=3, k=1)


class TestLogicalCompletion:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 8), st.integers(1, 10),
           st.integers(0, 2**32 - 1))
    @example(0, 0, 4, 0)
    @example(0, 3, 4, 1)
    @example(3, 0, 4, 2)
    def test_extend_basis_matches_rank_per_candidate(self, mixed_rows, nb, nc,
                                                     n, seed):
        # Base and candidates drawn together: zero, repeated and dependent
        # base rows, and candidates in the span of the base or of each other.
        m = mixed_rows(seed, nb + nc, n)
        got = codes._extend_basis(m[:nb], m[nb:])
        want = rank_per_candidate_extend(m[:nb], m[nb:])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(REDUNDANT_CHECK_DIGESTS))
    def test_redundant_checks_digests(self, name, digest):
        second = codes.hamming_743() if name.endswith("hamming") else cycle3()
        code = codes.hypergraph_product(cycle3(), second)
        assert gf2.rank(code.h_x) < len(code.h_x)
        assert (digest(code.j_x), digest(code.j_z)) == \
            REDUNDANT_CHECK_DIGESTS[name]
        assert codes.validate_css(code) == []

    def test_surface5_eliminations(self, row_echelon_calls):
        # Two kernels, two extensions and the pairing's inverse.
        codes.surface_code_via_hgp(5)
        assert len(row_echelon_calls) <= 5


class TestHypergraphProduct:
    def test_rep3_rep3_parameters(self):
        code = codes.hypergraph_product(codes.repetition(3), codes.repetition(3))
        assert (code.n, code.k) == (13, 1)
        assert codes.validate_css(code) == []

    def test_degenerate_factor(self):
        ham = codes.hamming_743()
        code = codes.hypergraph_product(codes.repetition(1), ham)
        # A length-1 first factor reproduces the second code's dimensions.
        assert (code.n, code.k) == (ham.n, ham.k)


class TestDistance:
    def test_repetition(self):
        assert codes.distance(codes.repetition(3)).d == 3
        assert codes.distance(codes.repetition(5)).d == 5

    def test_steane_vs_brute_force(self):
        code = codes.steane()
        res = codes.distance(code)
        assert res.exact and res.d == 3 == brute_css_distance(code)

    def test_surface_d3(self):
        code = codes.surface_code_via_hgp(3)
        assert (code.n, code.k, code.d) == (13, 1, 3)
        assert codes.distance(code).d == 3

    def test_constant_rate_product(self):
        # [[58, 16, 3]]: kernels of dimension 37 on each side, answered by
        # one collision at half 2 without a budget.
        code = codes.hypergraph_product(codes.hamming_743(),
                                        codes.hamming_743())
        assert (code.n, code.k) == (58, 16)
        assert codes.distance(code) == codes.DistanceResult(3, 2)

    def test_bounded_sweep_certificate(self):
        code = codes.surface_code_via_hgp(3)
        wide = codes.CssCode(
            h_x=code.h_x, h_z=code.h_z, j_x=code.j_x, j_z=code.j_z,
            n=code.n, k=code.k,
        )
        # Force the budget path by refusing the exact search: one collision
        # to half = 1 finds no logical of weight ≤ 2 and certifies d > 2.
        with exact_refused():
            res = codes.distance(wide, budget=2)
        assert not res.exact and res.floor == 2

    def test_bounded_sweep_sees_both_sides(self):
        # Weight 3 on the X side, weight 2 on the Z side: the sweep must
        # reach the Z side's weight-2 error before the X side's weight 3.
        code = codes.hypergraph_product(codes.repetition(2), codes.repetition(3))
        assert brute_css_distance(code) == 2
        with exact_refused():
            assert codes.distance(code, budget=3) == codes.DistanceResult(2, 1)
            ham = codes.hamming_743()
            assert codes.distance(ham, budget=3) == codes.DistanceResult(3, 2)
            assert codes.distance(ham, budget=2) == codes.DistanceResult(None, 2)

    def test_negative_budget_rejected(self):
        # Out of the exact search's reach, budget -3 once certified d > -3.
        with exact_refused(), pytest.raises(ValueError, match="budget=-3"):
            codes.distance(codes.hamming_743(), budget=-3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 9), st.integers(1, 130), st.integers(0, 4),
           st.integers(0, 2**32 - 1))
    def test_min_weight_flagged_vs_span_walk(self, mixed_rows, span_walk, dim,
                                             n, flags, seed):
        # Dependent and repeated basis rows, and flags that may flag none.
        basis = mixed_rows(seed, dim, n)
        flag = mixed_rows(seed + 1, flags, n)
        rows = gf2.pack_words(np.hstack([basis, gf2.mul(flag, basis.T).T]))
        vecs = gf2.unpack_words(np.concatenate(list(span_walk(rows))),
                                n + flags)
        flagged = vecs[:, n:].any(axis=1)
        want = int(vecs[flagged, :n].sum(axis=1).min()) if flagged.any() else None
        assert codes._min_weight_flagged(basis, flag) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 9), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    def test_classical_vs_brute_force(self, rows, n, budget, seed):
        code = random_classical(seed, rows, n)
        check_both_paths(code, brute_classical_distance(code), budget)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2),
           st.integers(1, 3), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_css_vs_brute_force(self, r1, n1, r2, n2, budget, seed):
        code = codes.hypergraph_product(random_classical(seed, r1, n1),
                                        random_classical(seed + 1, r2, n2))
        check_both_paths(code, brute_css_distance(code), budget)


class TestSoundness:
    def test_identity_checks(self):
        code = codes.ClassicalCode(h=gf2.eye(4), g=gf2.zeros(0, 4), n=4, k=0)
        assert codes.soundness(code) == Fraction(1)

    @pytest.mark.parametrize("n", [3, 20])
    def test_repetition_chain(self, n):
        # Least at a run of n // 2 ones: one violated check, distance n // 2.
        # n = 20 walks 2^20 words in many chunks.
        assert codes.soundness(codes.repetition(n)) == Fraction(
            n, (n - 1) * (n // 2))

    def test_hamming_31(self):
        # A perfect code: every class leader has weight 1, and the lightest
        # column has weight 1, so s = (31 / 5) · 1 / 1.
        assert codes.soundness(hamming_31()) == Fraction(31, 5)

    def test_hamming_vs_plain_oracle(self):
        code = codes.hamming_743()
        s = codes.soundness(code)
        # Plain re-computation: every codeword and every word, no packing.
        words = [gf2.bitvec(b) for b in itertools.product([0, 1], repeat=7)
                 if not gf2.mul(code.h, gf2.bitvec(b)).any()]
        ratios = []
        for bits in itertools.product([0, 1], repeat=7):
            u = gf2.bitvec(bits)
            if not gf2.mul(code.h, u).any():
                continue
            dist = min(gf2.weight(u ^ c) for c in words)
            ratios.append(Fraction(7 * int(gf2.mul(code.h, u).sum()), 3 * dist))
        assert s == min(ratios) == Fraction(7, 3)

    def test_defining_inequality_holds_everywhere(self):
        code = codes.hamming_743()
        s = codes.soundness(code)
        r, n = code.h.shape
        words = [gf2.bitvec(b) for b in itertools.product([0, 1], repeat=7)
                 if not gf2.mul(code.h, gf2.bitvec(b)).any()]
        for bits in itertools.product([0, 1], repeat=7):
            u = gf2.bitvec(bits)
            dist = min(gf2.weight(u ^ c) for c in words)
            assert Fraction(int(gf2.mul(code.h, u).sum()), r) >= Fraction(s * dist, n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 7), st.integers(0, 2**32 - 1))
    def test_random_vs_definition(self, rows, n, seed):
        code = random_classical(seed, rows, n)
        words = [gf2.bitvec(b) for b in itertools.product([0, 1], repeat=n)
                 if not gf2.mul(code.h, gf2.bitvec(b)).any()]
        ratios = []
        for bits in itertools.product([0, 1], repeat=n):
            u = gf2.bitvec(bits)
            syn = int(gf2.mul(code.h, u).sum())
            if syn:
                dist = min(gf2.weight(u ^ c) for c in words)
                ratios.append(Fraction(n * syn, rows * dist))
        assert codes.soundness(code) == min(ratios, default=None)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 14), st.integers(0, 2**32 - 1))
    def test_table_vs_span_walk(self, mixed_rows, span_walk, rows, n, seed):
        # Dependent, zero and repeated check rows leave fewer classes than
        # 2^rows.
        h = mixed_rows(seed, rows, n)
        code = codes.ClassicalCode(h=h, g=gf2.null_space(h), n=n,
                                   k=n - gf2.rank(h))
        assert codes.soundness(code) == span_walk_soundness(code, span_walk)

    def test_zero_checks_undefined(self):
        # Every word is a codeword, so no ratio exists.
        code = codes.ClassicalCode(h=gf2.zeros(2, 4), g=gf2.eye(4), n=4, k=4)
        assert codes.soundness(code) is None

    def test_desk_ledger_leaves_numpy_ma_unloaded(self):
        # A plain np.unique imports numpy.ma, a megabyte of resident memory.
        src = pathlib.Path(codes.__file__).resolve().parents[1]
        code = ("import sys\n"
                "from qsurg import cli\n"
                "cli.run_desk_ledger(seed=5, out_dir=None, max_weight=1,\n"
                "                    samples=10, trials=1000, frames=10)\n"
                "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout == "False\n", out.stderr

    def test_preimage_bound_all_syndromes(self):
        # For every v in colsp(h): min-weight u with h·uᵀ = v has
        # |u| ≤ (n / (r s)) |v|.
        code = codes.hamming_743()
        s = codes.soundness(code)
        r, n = code.h.shape
        for bits in itertools.product([0, 1], repeat=r):
            v = gf2.bitvec(bits)
            u = gf2.solve_linear(code.h, v, mode="min_weight")
            assert u is not None
            assert gf2.weight(u) <= Fraction(n, r) / s * gf2.weight(v)

    def test_hamming_31_preimages_have_weight_1(self):
        # Rank 5: a coset table of 32·2^5 sets, where the 2^26 words of the
        # kernel were once refused.  Syndrome j is column j − 1.
        h = hamming_31().h
        for j in range(1, 32):
            v = h[:, j - 1]
            u = gf2.solve_linear(h, v, mode="min_weight")
            assert np.array_equal(u, gf2.eye(31)[j - 1])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 130), st.integers(1, 8), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    def test_chunked_wide_vs_brute_force(self, rows, n, chunk, seed):
        # Tiny walk chunks fold the classes over many steps; more than 64
        # checks take several words per syndrome.
        code = random_classical(seed, rows, n)
        words = [sum(b << i for i, b in enumerate(bits))
                 for bits in itertools.product([0, 1], repeat=n)]
        cols = [gf2._pack(col) for col in code.h.T]
        syn = {}
        for u in words:
            s = 0
            for i in range(n):
                if u >> i & 1:
                    s ^= cols[i]
            syn[u] = s
        code_words = [u for u in words if not syn[u]]
        ratios = [Fraction(n * syn[u].bit_count(),
                           rows * min((u ^ c).bit_count() for c in code_words))
                  for u in words if syn[u]]
        old = gf2.ENUM_CHUNK
        try:
            gf2.ENUM_CHUNK = chunk
            assert codes.soundness(code) == min(ratios, default=None)
        finally:
            gf2.ENUM_CHUNK = old


class TestConstructors:
    def test_repetition5(self):
        code = codes.repetition(5)
        assert (code.n, code.k, code.d) == (5, 1, 5)
        assert codes.validate_classical(code) == []

    def test_hamming(self):
        code = codes.hamming_743()
        assert code.h.shape == (3, 7)
        assert codes.validate_classical(code) == []
        assert codes.distance(code).d == 3
        assert gf2.is_standard_form(code.g)

    def test_trivial_css(self, trivial_css):
        assert codes.validate_css(trivial_css) == []

    def test_surface_requires_odd(self):
        with pytest.raises(ValueError):
            codes.surface_code_via_hgp(4)


class TestManifests:
    def test_css_round_trip(self, tmp_path):
        code = codes.steane()
        path = codes.save_css(code, str(tmp_path), name="steane")
        loaded = codes.load_manifest(path)
        for attr in ("h_x", "h_z", "j_x", "j_z"):
            assert np.array_equal(getattr(loaded, attr), getattr(code, attr))
        assert (loaded.n, loaded.k, loaded.d) == (7, 1, 3)

    @pytest.mark.parametrize("edit", [
        ("n=13", "n=9", "n=9 but hx has 13 columns"),
        ("k=1", "k=2", "k=2 but jx has 1 rows"),
        ("hz=surface3.hz.txt\n", "", "missing key 'hz'"),
        ("type=css\n", "", "missing key 'type'"),
        ("type=css", "type=quantum", "unknown type 'quantum'"),
        ("d=3", "d=4", "d=4 but the code has a logical of weight 3")])
    def test_css_manifest_checked(self, tmp_path, edit):
        old, new, says = edit
        path = tmp_path / "surface3.manifest"
        codes.save_css(codes.surface_code_via_hgp(3), str(tmp_path),
                       name="surface3")
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ValueError) as err:
            codes.load_manifest(str(path))
        assert str(err.value) == f"manifest {path}: {says}"

    @pytest.mark.parametrize("edit", [
        ("n=7", "n=8", "n=8 but h has 7 columns"),
        ("k=4", "k=3", "k=3 but g has 4 rows"),
        ("k=4\n", "", "missing key 'k'"),
        ("d=3", "d=5", "d=5 but the code has a logical of weight 3")])
    def test_classical_manifest_checked(self, tmp_path, edit):
        old, new, says = edit
        path = tmp_path / "ham.manifest"
        codes.save_classical(codes.hamming_743(), str(tmp_path), name="ham")
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ValueError) as err:
            codes.load_manifest(str(path))
        assert str(err.value) == f"manifest {path}: {says}"

    def test_soundness_checked_past_24_bits(self, tmp_path):
        code = hamming_31()
        code.soundness = Fraction(31, 4)
        path = codes.save_classical(code, str(tmp_path), name="ham31")
        with pytest.raises(ValueError) as err:
            codes.load_manifest(path)
        assert str(err.value) == (f"manifest {path}: soundness=31/4 but the "
                                  "code's soundness is 31/5")

    def test_classical_round_trip(self, tmp_path):
        code = codes.hamming_743()
        code.soundness = Fraction(7, 3)
        path = codes.save_classical(code, str(tmp_path), name="ham")
        loaded = codes.load_manifest(path)
        assert np.array_equal(loaded.h, code.h)
        assert loaded.soundness == Fraction(7, 3)
