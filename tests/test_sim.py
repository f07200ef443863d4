"""Lookup decoding and Monte Carlo."""

import dataclasses
import hashlib
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsurg import cli, codes, frame, gf2, sim, tableau

SRC = pathlib.Path(sim.__file__).resolve().parents[1]


class TestLookupDecoder:
    def test_zero_syndrome_identity(self):
        dec = sim.LookupDecoder(codes.surface_code_via_hgp(3))
        out = dec.decode_x(np.zeros(6, dtype=np.uint8))
        assert out is not None and not out.any()

    def test_all_weight_one_exact(self):
        code = codes.surface_code_via_hgp(3)
        dec = sim.LookupDecoder(code)
        for q in range(code.n):
            e = gf2.zeros(1, code.n)[0]
            e[q] = 1
            got = dec.decode_x(gf2.mul(code.h_z, e))
            assert np.array_equal(got, e)
            got = dec.decode_z(gf2.mul(code.h_x, e))
            assert np.array_equal(got, e)

    def test_weight_two_never_silently_wrong(self):
        # d=3: weight-2 errors either herald or return a syndrome-consistent
        # correction; the reported syndrome is never wrong.
        code = codes.surface_code_via_hgp(3)
        dec = sim.LookupDecoder(code)
        rng = np.random.default_rng(7)
        for _ in range(100):
            e = gf2.zeros(1, code.n)[0]
            e[rng.choice(code.n, size=2, replace=False)] = 1
            syn = gf2.mul(code.h_z, e)
            got = dec.decode_x(syn)
            if got is not None:
                assert np.array_equal(gf2.mul(code.h_z, got), syn)

    def test_deep_decoder_covers_more(self):
        code = codes.surface_code_via_hgp(3)
        deep = sim.deep_decoder(code)
        assert deep.t > (code.d - 1) // 2


class TestMonteCarlo:
    def test_p_zero_no_failures(self):
        exp = sim.build_memory_experiment(codes.surface_code_via_hgp(3))
        est = sim.logical_error_rate(exp, 0.0, 500, seed=9)
        assert est.failures == 0

    def test_seeded_determinism(self):
        exp = sim.build_memory_experiment(codes.surface_code_via_hgp(3))
        a = sim.logical_error_rate(exp, 2e-3, 2000, seed=13)
        b = sim.logical_error_rate(exp, 2e-3, 2000, seed=13)
        assert a == b

    def test_distance_ordering_smoke(self):
        e3 = sim.build_memory_experiment(codes.surface_code_via_hgp(3))
        e5 = sim.build_memory_experiment(codes.surface_code_via_hgp(5))
        r3 = sim.logical_error_rate(e3, 1e-3, 8000, seed=21)
        r5 = sim.logical_error_rate(e5, 1e-3, 8000, seed=21)
        assert r5.rate < r3.rate

    def test_high_noise_sanity_band(self):
        # Near-depolarizing drive: failure probability saturates toward
        # the coin-flip band rather than creeping above it.
        exp = sim.build_memory_experiment(codes.surface_code_via_hgp(3))
        est = sim.logical_error_rate(exp, 0.25, 2000, seed=29)
        assert 0.4 <= est.rate <= 1.0


class TestWilson:
    def test_interval_contains_rate(self):
        lo, hi = sim.wilson_interval(13, 1000)
        assert lo < 13 / 1000 < hi

    def test_zero_failures(self):
        lo, hi = sim.wilson_interval(0, 1000)
        assert lo == 0.0 and hi < 0.01


# ── lookup tables ───────────────────────────────────────────────────────


def dict_table(checks, t):
    """Reference table: the first error of each syndrome over the
    combinations of weight <= t, in (weight, lexicographic) order."""
    cols = [gf2._pack(col) for col in checks.T]
    table = {0: 0}
    for w in range(1, t + 1):
        for combo in combinations(range(checks.shape[1]), w):
            syn = err = 0
            for c in combo:
                syn ^= cols[c]
                err |= 1 << c
            table.setdefault(syn, err)
    return table


def two_sweep_table(checks, t):
    """Reference build, the table as two full sweeps made it: a sweep of
    the syndrome columns and one sort pick the first position of each
    syndrome, and a sweep of the unit columns writes its error."""
    n = checks.shape[1]
    size = sum(math.comb(n, w) for w in range(t + 1))
    syn = gf2.pack_words(checks.T)
    keys = np.empty((size, syn.shape[1]), dtype=np.uint64)
    at = 0
    for _, words in gf2.combination_sweep(syn, t):
        keys[at: at + len(words)] = words
        at += len(words)
    keys, first = gf2.least_per_key(keys)
    # The first positions are distinct, so the least position of each
    # is its slot in the table: one packed sort puts them in sweep order.
    first, slot = gf2.least_per_key(first.astype(np.uint64)[:, None])
    first = first[:, 0]
    units = gf2.pack_words(gf2.eye(n))
    errors = np.empty((len(keys), units.shape[1]), dtype=np.uint64)
    at = lo = 0
    for _, words in gf2.combination_sweep(units, t):
        hi = np.searchsorted(first, at + len(words))
        errors[slot[lo:hi]] = words[first[lo:hi] - at]
        at, lo = at + len(words), hi
    return gf2.SyndromeTable(keys, errors)


def as_int(words):
    return sum(int(w) << (64 * i) for i, w in enumerate(words))


def assert_table_equals_dict(checks, t):
    table = sim.LookupDecoder._build(checks, t)
    ref = dict_table(checks, t)
    assert len(table) == len(ref)
    got = {as_int(k): as_int(e) for k, e in zip(table.keys, table.errors)}
    assert got == ref


class TestTableBuild:
    def test_surface3_whole_space(self):
        code = codes.surface_code_via_hgp(3)
        for checks in (code.h_z, code.h_x):
            assert_table_equals_dict(checks, code.n)

    def test_surface5_depth5(self):
        code = codes.surface_code_via_hgp(5)
        table = sim.LookupDecoder._build(code.h_z, 5)
        assert len(table) == 228461
        assert_table_equals_dict(code.h_z, 5)

    def test_hamming_every_depth(self):
        h = codes.hamming_743().h
        for t in range(8):
            assert_table_equals_dict(h, t)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 90), st.integers(1, 90), st.integers(0, 3),
           st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_random_checks(self, rows, cols, t, chunk, seed):
        # Wide shapes take several words per key or error; tiny chunks
        # split every weight across many build steps.
        while t and sum(math.comb(cols, w) for w in range(t + 1)) > 5000:
            t -= 1
        checks = np.random.default_rng(seed).integers(
            0, 2, size=(rows, cols)).astype(np.uint8)
        old = gf2.ENUM_CHUNK
        try:
            gf2.ENUM_CHUNK = chunk
            assert_table_equals_dict(checks, t)
        finally:
            gf2.ENUM_CHUNK = old

    # Shapes with two syndrome words (rows > 64, the argsort path of
    # least_per_key) or two error words (columns > 64); t = 0 and t ≥ n;
    # zeroed and repeated columns; tiny chunks split every build step.
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 140), st.integers(0, 8) | st.integers(0, 140),
           st.integers(0, 9), st.integers(0, 4), st.integers(0, 4),
           st.integers(1, 60), st.integers(0, 2**32 - 1))
    @example(70, 70, 2, 1, 1, 7, 0).via("two words of both")
    @example(3, 5, 0, 0, 0, 60, 1).via("t = 0")
    @example(6, 5, 9, 1, 1, 2, 2).via("t > n, a zero and a repeated column")
    @example(0, 4, 4, 0, 0, 1, 3).via("no checks")
    def test_matches_two_sweeps(self, rows, cols, t, zero, repeat, chunk,
                                seed):
        while t and sum(math.comb(cols, w) for w in range(t + 1)) > 5000:
            t -= 1
        rng = np.random.default_rng(seed)
        checks = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        if cols:
            checks[:, rng.integers(0, cols, size=zero)] = 0
            checks[:, rng.integers(0, cols, size=repeat)] = checks[
                :, rng.integers(0, cols, size=repeat)]
        want = two_sweep_table(checks, t)
        old = gf2.ENUM_CHUNK
        try:
            gf2.ENUM_CHUNK = chunk
            got = sim.LookupDecoder._build(checks, t)
        finally:
            gf2.ENUM_CHUNK = old
        for a, b in ((got.keys, want.keys), (got.errors, want.errors)):
            assert (a.dtype.str, a.shape) == (b.dtype.str, b.shape)
            assert a.tobytes() == b.tobytes()

    def test_decode_reads_the_table(self):
        code = codes.surface_code_via_hgp(3)
        dec = sim.deep_decoder(code)
        for key, err in dict_table(code.h_z, dec.t).items():
            syn = gf2._unpack(key, code.h_z.shape[0])
            assert gf2._pack(dec.decode_x(syn)) == err

    def test_full_table_ends_the_build(self, monkeypatch):
        # Hamming's 8 syndromes are all in after weight 1: no weight 2 pass.
        calls = []
        real = gf2.extend_sets
        monkeypatch.setattr(gf2, "extend_sets",
                            lambda *a: calls.append(a) or real(*a))
        table = gf2.syndrome_table(codes.hamming_743().h, 7)
        assert len(table) == 8 and len(calls) == 1

    # The last weight yielded: surface3's 64 and Hamming's 8 syndromes are
    # all in at weights 3 and 1.
    @pytest.mark.parametrize("checks, t, last", [
        (codes.surface_code_via_hgp(3).h_z, 4, 3),
        (codes.hamming_743().h, 7, 1), (codes.surface_code_via_hgp(5).h_x, 3, 3)],
        ids=["surface3", "hamming", "surface5"])
    def test_each_weight_yields_its_table(self, checks, t, last):
        # The one table grown in place is, after each weight w, the table
        # to depth w, and its lookups read that weight's rows and index.
        for w, table in enumerate(gf2.syndrome_tables(checks, t)):
            want = gf2.syndrome_table(checks, w)
            assert table_digest(table) == table_digest(want)
            index, fresh = table.rank_index, want.rank_index
            assert (index is None) == (fresh is None)
            assert fresh is None or all(map(np.array_equal, index, fresh))
            idx, hit = table.find(want.keys)
            assert hit.all() and np.array_equal(idx, np.arange(len(want)))
        assert w == last

    def test_cap_refuses_before_sweeping(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a refused table must not be swept")

        h = codes.surface_code_via_hgp(5).h_z  # 41 columns
        monkeypatch.setattr(gf2, "combination_sweep", no_work)
        monkeypatch.setattr(gf2, "extend_sets", no_work)
        monkeypatch.setattr(gf2, "pack_words", no_work)
        monkeypatch.setattr(gf2, "TABLE_CAP", 41)
        with pytest.raises(gf2.SearchTooLarge):
            sim.LookupDecoder._build(h, 1)  # 42 combinations
        monkeypatch.setattr(gf2, "TABLE_CAP", sum(
            math.comb(41, w) for w in range(6)) - 1)
        with pytest.raises(gf2.SearchTooLarge):
            sim.LookupDecoder._build(h, 5)
        # Not vacuous: a table the cap admits makes its sets in extend_sets.
        monkeypatch.undo()
        monkeypatch.setattr(gf2, "extend_sets", no_work)
        monkeypatch.setattr(gf2, "TABLE_CAP", 42)
        with pytest.raises(AssertionError, match="must not be swept"):
            sim.LookupDecoder._build(h, 1)

    # Random checks of low rank (a product through `rank` rows, when
    # nonzero) with zeroed and repeated columns, so syndromes collide.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 24), st.integers(0, 6),
           st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
           st.integers(0, 2**32 - 1))
    def test_downward_closed(self, rows, cols, t, rank, zero, repeat, seed):
        # Less any one index, a table entry is the table's entry for its
        # own syndrome: the invariant that lets each weight grow from the
        # last weight's entries and their siblings alone.
        while t and sum(math.comb(cols, w) for w in range(t + 1)) > 5000:
            t -= 1
        rng = np.random.default_rng(seed)
        checks = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        if rank:
            checks = gf2.mul(rng.integers(0, 2, size=(rows, rank)),
                             rng.integers(0, 2, size=(rank, cols)))
        if cols:
            checks[:, rng.integers(0, cols, size=zero)] = 0
            checks[:, rng.integers(0, cols, size=repeat)] = checks[
                :, rng.integers(0, cols, size=repeat)]
        table = gf2.syndrome_table(checks, t)
        entry = {as_int(k): as_int(e) for k, e in zip(table.keys, table.errors)}
        syn = [gf2._pack(col) for col in checks.T]
        for err in entry.values():
            key = 0
            for j in range(cols):
                key ^= syn[j] * (err >> j & 1)
            for j in range(cols):
                if err >> j & 1:
                    assert entry[key ^ syn[j]] == err ^ 1 << j

    # Traced peaks, in bytes, of each build as it was before the sibling
    # join (extensions by every larger index), which a build must not pass.
    @pytest.mark.parametrize("checks, t, parent_peak", [
        (codes.surface_code_via_hgp(5).h_z, 5, 11_600_558),
        (codes.hypergraph_product(codes.hamming_743(),
                                  codes.hamming_743()).h_z, 4, 8_778_084)],
        ids=["surface5", "hgp_hamming"])
    def test_build_peak(self, checks, t, parent_peak):
        gf2.syndrome_table(checks, t)  # warm
        tracemalloc.start()
        try:
            gf2.syndrome_table(checks, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak


# ── batched Monte Carlo against per-trial decoding ──────────────────────


@pytest.fixture(scope="module")
def experiments():
    out = {d: sim.build_memory_experiment(codes.surface_code_via_hgp(d))
           for d in (3, 5)}
    code7 = codes.surface_code_via_hgp(7)
    dec7 = sim.LookupDecoder(code7, max_weight=1)
    out[7] = sim.MemoryExperiment(code=code7, decoder=dec7,
                                  z_basis=sim._build_basis(code7, "z"),
                                  x_basis=sim._build_basis(code7, "x"))
    for exp in out.values():
        exp.compile_faults()
    return out


def fault_cells(view):
    """The fault cells of a basis as (channel, Loc), in the order of its
    words' rows: per location, a flip, or an X then a Z."""
    return [(ch, loc) for loc in view.circuit.locations()
            for ch in (("X", "Z") if loc.kind == "q" else ("flip",))]


# sha256 of compile_faults' output (see compiled_digest) as the earlier
# engine, one big-int frame run per fault cell, computed it.
COMPILED_DIGESTS = {
    (3, "z"): "17b211e55b580e458f55f50ad4bd2f87c7f646e924329d47d0c8a36aab8ec75c",
    (3, "x"): "3a79d4bba5c97f73748470d8ef62ccae70d70ff126990b238c46e84d4b7f2453",
    (5, "z"): "81b1ac601c0f99851bda872eec524ee0b3350d21750b0964bd432b4975276faf",
    (5, "x"): "09886ac34d200e19478503815f5503ec2a9025286ed4e8740763bfc5b34b1fa5",
    (7, "z"): "a6c45ca2b2b32a686ab23b4a7976a1c9b0cb624b98502ecc193b8aeffed95de0",
    (7, "x"): "543af64a6dc49dab52186ade17f2e496a3bc67e7aad11e39e616b7554dff3876",
}


def compiled_digest(view):
    h = hashlib.sha256()
    for part in (view.words, view.logical_words):
        h.update(repr((part.dtype.str, part.shape)).encode())
        h.update(part.tobytes())
    h.update(repr(view.syn_words).encode())
    h.update("".join(f"{ch} {loc.kind} {loc.step} {loc.index}\n"
                     for ch, loc in fault_cells(view)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("d", [3, 5, 7])
def test_compiled_faults_unchanged(experiments, d):
    exp = experiments[d]
    for basis, view in (("z", exp.z_basis), ("x", exp.x_basis)):
        assert compiled_digest(view) == COMPILED_DIGESTS[d, basis]


# sha256 of deep_decoder(surface5)'s tables (see table_digest) as the
# chunk-by-chunk merge of the sweep into a growing table built them.
DEEP_TABLE_DIGESTS = {
    "_x_table": "227b2f4b4afe7ac8ff4e51c3b80431c82fcbf75722a3526344b33e01d42db954",
    "_z_table": "7d64864b65c6350d6e9db76e3d6cedbbb97b0a021b025eb2961de1e0e877c573",
}


# sha256 of the depth-1 tables of the surface7 experiment (see
# table_digest), as the two-sweep build (two_sweep_table) computed them:
# its errors span two words.
SURFACE7_TABLE_DIGESTS = {
    "_x_table": "a91a04b06a99ebdd1e71b2f5aafd11f2abfca313fcd3856738c2680bfe1c476a",
    "_z_table": "02f630ab06c03b83234f8ab6a47918fcac47fc49ef34e4376b2b92db1940d874",
}


def table_digest(table):
    h = hashlib.sha256()
    for part in (table.keys, table.errors):
        h.update(repr((part.dtype.str, part.shape)).encode())
        h.update(part.tobytes())
    return h.hexdigest()


def test_deep_tables_unchanged(experiments):
    dec = experiments[5].decoder
    assert dec.t == 5
    for name, digest in DEEP_TABLE_DIGESTS.items():
        assert table_digest(getattr(dec, name)) == digest


def test_surface7_tables_unchanged(experiments):
    dec = experiments[7].decoder
    assert dec.t == 1 and dec._x_table.errors.shape[1] == 2
    for name, digest in SURFACE7_TABLE_DIGESTS.items():
        assert table_digest(getattr(dec, name)) == digest


@pytest.mark.parametrize("d,bits,indexed", [(3, 6, True), (5, 20, True),
                                             (7, 42, False)])
def test_lookup_path(experiments, d, bits, indexed):
    # A rank index where it takes no more bytes than the keys: one bitmap
    # word and one int32 count per 64 syndromes of `bits`-bit keys.
    dec = experiments[d].decoder
    for table in (dec._x_table, dec._z_table):
        assert table.keys.shape[1] == 1
        assert int(table.keys[-1, 0]).bit_length() <= bits
        if not indexed:
            assert table.rank_index is None
            continue
        bitmap, prefix = table.rank_index
        assert len(bitmap) == len(prefix) <= 1 << max(0, bits - 6)
        assert bitmap.nbytes + prefix.nbytes <= table.keys.nbytes


@pytest.mark.parametrize("rows,t,indexed", [
    ((9, 7), 1, True), ((9, 7), 2, True), ((6, 9), 3, True),
    ((9, 40), 1, False), ((70, 9), 1, False)])
def test_table_stack_finds_as_each_table(rows, t, indexed):
    """A TableStack answers each row as its own table does: the same hit,
    and for a hit the row of the same error.  The rows are every key,
    every key + 1, the all-ones syndrome and random ones; the last three
    checks are zero, so every key lies below an eighth of the syndromes
    and many rows lie past the rank index's words.  With a 40- or 70-row
    table one table is binary searched, so each is searched for its own
    rows (the 70-row one with two-word keys)."""
    rng = np.random.default_rng(sum(rows) + t)
    checks = [rng.integers(0, 2, size=(r, 14), dtype=np.uint8) for r in rows]
    for c in checks:
        c[-3:] = 0
    tables = [gf2.syndrome_table(c, t) for c in checks]
    width = max(table.keys.shape[1] for table in tables)
    queries, which, want = [], [], []
    for i, (r, table) in enumerate(zip(rows, tables)):
        bits = np.vstack([gf2.unpack_words(table.keys, r),
                          gf2.unpack_words(table.keys + np.uint64(1), r),
                          np.ones((1, r), dtype=np.uint8),
                          rng.integers(0, 2, size=(200, r), dtype=np.uint8)])
        q = gf2.pack_words(bits)
        idx, hit = table.find(q)
        want.append((hit, table.errors[idx[hit]]))
        queries.append(np.hstack([q, np.zeros((len(q), width - q.shape[1]),
                                               dtype=np.uint64)]))
        which.append(np.full(len(q), i))
    stack = gf2.TableStack(tables)
    assert (stack.bitmap is not None) == indexed
    idx, hit = stack.find(np.vstack(queries), np.concatenate(which))
    for i, (want_hit, want_errors) in enumerate(want):
        mine = np.concatenate(which) == i
        assert np.array_equal(hit[mine], want_hit)
        assert np.array_equal(stack.errors[idx[mine][want_hit]], want_errors)
    assert hit.any() and not hit.all()
    for table, part in zip(tables, np.split(stack.errors,
                                            np.cumsum([len(tables[0])]))):
        assert table.errors.base is stack.errors  # a view, not a copy
        assert np.array_equal(table.errors, part)


def reference_failures(view, dec, trial_faults):
    """Each trial decoded on its own: the frame run of its sampled fault set
    (one lane per trial, built from the cells' locations), two table
    lookups, then the logical parity of the residue.  Per trial, its kind
    of failure: "heralded" (a table miss), "silent" (a logical flip) or
    None."""
    code = {"X": frame.X, "Z": frame.Z, "flip": frame.FLIP}
    locs = view.circuit.locations()
    lanes = np.zeros((len(trial_faults), len(locs)), dtype=np.uint8)
    for t, faults in enumerate(trial_faults):
        for ch, loc in faults:
            lanes[t, view.circuit.columns().column(loc)] ^= code[ch]
    res = frame.run_lanes(view.circuit, locs, lanes)
    frames = (res.x_on(view.mem_out) if view.frame_is_x
              else res.z_on(view.mem_out))
    decode = dec.decode_x if view.frame_is_x else dec.decode_z
    out = []
    for flips, fr in zip(res.outcome_flips, frames):
        c1 = decode(gf2.mul(view.syn, flips))
        c2 = None if c1 is None else decode(gf2.mul(view.checks, fr ^ c1))
        if c2 is None:
            out.append("heralded")
        elif gf2.mul(view.logicals, fr ^ c1 ^ c2).any():
            out.append("silent")
        else:
            out.append(None)
    return out


def basis_failures(exp, trial, row, trials):
    """exp.failures per basis: for "z" and "x", the failure bit of each of
    the `trials` trials, and how many groups failed heralded and how many
    silently."""
    group, heralded, silent = exp.failures(trial, row)
    out = {}
    for b, basis in enumerate("zx"):
        mine = group & 1 == b
        fail = np.zeros(trials, dtype=bool)
        fail[group[mine & (heralded | silent)] >> 1] = True
        out[basis] = (fail, int(np.count_nonzero(heralded & mine)),
                      int(np.count_nonzero(silent & mine)))
    return out


@pytest.mark.parametrize("d,p,trials", [(3, 5e-3, 400), (3, 2e-2, 400),
                                        (5, 5e-3, 200), (5, 2e-2, 200),
                                        (7, 1e-4, 100)])
def test_batched_matches_per_trial(experiments, d, p, trials):
    exp = experiments[d]
    if d == 7:
        assert exp.z_basis.words.shape[1] > 3  # frames span two words
    seed = 31
    live, z_cells = exp.live, len(exp.z_basis.words)
    trial, row = sim._sample_block(seed, 0, p, trials, len(live))
    cell = live[row]
    got = basis_failures(exp, trial, row, trials)
    ref = np.zeros(trials, dtype=bool)
    counts = {}
    for basis, view, sel, offset in (("z", exp.z_basis, cell < z_cells, 0),
                                     ("x", exp.x_basis, cell >= z_cells,
                                      z_cells)):
        fail, heralded, silent = got[basis]
        view_cells = fault_cells(view)
        want = reference_failures(
            view, exp.decoder, [[view_cells[c] for c in
                                 cell[sel & (trial == t)] - offset]
                                for t in range(trials)])
        assert np.array_equal(fail, [kind is not None for kind in want])
        assert (heralded, silent) == (want.count("heralded"),
                                      want.count("silent"))
        counts[f"{basis}_heralded"] = heralded
        counts[f"{basis}_silent"] = silent
        ref |= fail
    assert ref.any() and not ref.all()
    est = sim.logical_error_rate(exp, p, trials, seed)
    assert est.failures == ref.sum()
    assert {key: getattr(est, key) for key in counts} == counts


def per_block_rate(exp, p, trials, seed, stream):
    """The estimate with every block decoded on its own: block b is
    _sample_block(seed, stream + b, ...) over the live cells, decoded
    through one failures call, and the counts summed.  Also the faults of
    each block."""
    block = max(1, sim.BLOCK_CELLS // len(exp.live))
    counts = dict.fromkeys(("z_heralded", "z_silent", "x_heralded",
                            "x_silent"), 0)
    failures, block_faults = 0, []
    for b, start in enumerate(range(0, trials, block)):
        size = min(block, trials - start)
        trial, row = sim._sample_block(seed, stream + b, p, size,
                                       len(exp.live))
        block_faults.append(len(trial))
        fail = np.zeros(size, dtype=bool)
        for basis, (got, heralded, silent) in basis_failures(
                exp, trial, row, size).items():
            counts[f"{basis}_heralded"] += heralded
            counts[f"{basis}_silent"] += silent
            fail |= got
        failures += int(np.count_nonzero(fail))
    lo, hi = sim.wilson_interval(failures, trials)
    est = sim.RateEstimate(trials=trials, failures=failures,
                           rate=failures / trials, ci_low=lo, ci_high=hi,
                           **counts)
    return est, block_faults


def per_basis_failures(view, table, trial, cell, trials):
    """The per-basis decode that logical_error_rate made before both bases
    shared one pass: one basis's faults, given each one's trial (sorted) and
    cell of the basis, through its own table.  Per-trial failure bits, and
    how many trials failed heralded and how many silently."""
    out = np.zeros(trials, dtype=bool)
    if not trial.size:
        return out, 0, 0
    first = np.ones(len(trial), dtype=bool)
    np.not_equal(trial[1:], trial[:-1], out=first[1:])
    starts = first.nonzero()[0]
    acc = np.bitwise_xor.reduceat(view.words.take(cell, 0), starts, axis=0)
    m, s = len(starts), view.syn_words
    mid = acc[:, :s]
    idx, hit = table.find(np.concatenate([mid, acc[:, s: 2 * s] ^ mid]))
    fix = table.errors.take(idx, 0)
    resid = acc[:, 2 * s:] ^ fix[:m] ^ fix[m:]
    odd = np.bitwise_count(resid[:, None] & view.logical_words).sum(axis=2)
    hit = hit[:m] & hit[m:]
    fail = ~hit | (odd & 1).any(axis=1)
    out[trial[starts]] = fail
    heralded = m - int(np.count_nonzero(hit))
    return out, heralded, int(np.count_nonzero(fail)) - heralded


def per_basis_rate(exp, p, trials, seed, stream=0):
    """logical_error_rate as it decoded before both bases shared one pass:
    the same blocks and passes, each pass split by basis and decoded by
    per_basis_failures."""
    live, z_cells = exp.live, len(exp.z_basis.words)
    block = max(1, sim.BLOCK_CELLS // len(live))
    counts = dict.fromkeys(("z_heralded", "z_silent", "x_heralded",
                            "x_silent"), 0)
    failures = b = start = 0
    while start < trials:
        trial_parts, cell_parts, size, faults = [], [], 0, 0
        while (start < trials and faults < sim.PASS_FAULTS
               and size < sim.BLOCK_CELLS):
            n = min(block, trials - start)
            trial, cell = sim._sample_block(seed, stream + b, p, n,
                                            len(live))
            trial_parts.append(trial + size)
            cell_parts.append(cell)
            b, start = b + 1, start + n
            size, faults = size + n, faults + len(trial)
        trial = np.concatenate(trial_parts)
        cell = live.take(np.concatenate(cell_parts))
        fail = np.zeros(size, dtype=bool)
        for basis, view, table, sel, offset in (
                ("z", exp.z_basis, exp.decoder._x_table, cell < z_cells, 0),
                ("x", exp.x_basis, exp.decoder._z_table, cell >= z_cells,
                 z_cells)):
            got, heralded, silent = per_basis_failures(
                view, table, trial[sel], cell[sel] - offset, size)
            counts[f"{basis}_heralded"] += heralded
            counts[f"{basis}_silent"] += silent
            fail |= got
        failures += int(np.count_nonzero(fail))
    lo, hi = sim.wilson_interval(failures, trials)
    return sim.RateEstimate(trials=trials, failures=failures,
                            rate=failures / trials if trials else 0.0,
                            ci_low=lo, ci_high=hi, **counts)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_one_pass_matches_per_basis_decoding(experiments, monkeypatch, d):
    """logical_error_rate equals the per-basis decode field for field at
    p = 1e-3, 5e-3 and 2e-2, over several passes of several blocks: d=3
    and d=5 look up by rank index, d=7 by binary search, its frames two
    words wide.  d=3 also takes a weight-1 table, as its deep table holds
    every syndrome and never heralds.  Each basis fails both heralded and
    silently, but at d=7: its weight-1 table passes no draw of a silent
    flip, which takes more faults than any table reachable here corrects."""
    monkeypatch.setattr(sim, "BLOCK_CELLS", 1 << 14)
    monkeypatch.setattr(sim, "PASS_FAULTS", 50)
    exp = experiments[d]
    exps = [exp]
    if d == 3:
        exps.append(sim.MemoryExperiment(
            code=exp.code, decoder=sim.LookupDecoder(exp.code, max_weight=1),
            z_basis=exp.z_basis, x_basis=exp.x_basis))
    passes, real = [], sim.MemoryExperiment.failures

    def counted(*args):
        passes.append(None)
        return real(*args)

    monkeypatch.setattr(sim.MemoryExperiment, "failures", counted)
    totals = dict.fromkeys(("z_heralded", "z_silent", "x_heralded",
                            "x_silent"), 0)
    for e in exps:
        for p, trials in ((1e-3, 3000), (5e-3, 1000), (2e-2, 300)):
            passes.clear()
            est = sim.logical_error_rate(e, p, trials, seed=7, stream=d)
            assert len(passes) > 2
            assert est == per_basis_rate(e, p, trials, seed=7, stream=d)
            for key in totals:
                totals[key] += getattr(est, key)
    assert all(totals[f"{basis}_heralded"] for basis in "zx")
    assert all(totals[f"{basis}_silent"] for basis in "zx") == (d != 7)


def test_unequal_syndrome_widths_match_per_basis_decoding(monkeypatch):
    """HGP(rep 3, rep 30) has 87 Z checks and 60 X checks: the |0⟩ basis's
    syndromes take two words and the |+⟩ basis's one, so the live words
    widen the narrower syndromes with zero words and the table stack
    searches keys of both widths as one; the estimate still equals the
    per-basis decode."""
    monkeypatch.setattr(sim, "BLOCK_CELLS", 1 << 14)
    monkeypatch.setattr(sim, "PASS_FAULTS", 50)
    code = dataclasses.replace(codes.hypergraph_product(
        codes.repetition(3), codes.repetition(30)), d=3)
    exp = sim.MemoryExperiment(code=code,
                               decoder=sim.LookupDecoder(code, max_weight=2),
                               z_basis=sim._build_basis(code, "z"),
                               x_basis=sim._build_basis(code, "x"))
    exp.compile_faults()
    assert (exp.z_basis.syn_words, exp.x_basis.syn_words) == (2, 1)
    est = sim.logical_error_rate(exp, 1e-3, 3000, seed=7)
    assert exp.decoder.stack.bitmap is None  # binary search
    assert est == per_basis_rate(exp, 1e-3, 3000, seed=7)
    assert est.z_heralded and est.x_heralded and est.x_silent


def live_faults(exp, p, trials, seed, stream):
    """Per block of per_block_rate, its faults on live cells (those with a
    nonzero compiled word), read from the words, not from exp.live."""
    live = np.concatenate([view.words.any(axis=1)
                           for view in (exp.z_basis, exp.x_basis)])
    block = max(1, sim.BLOCK_CELLS // len(exp.live))
    out = []
    for b, start in enumerate(range(0, trials, block)):
        size = min(block, trials - start)
        _, cell = sim._sample_block(seed, stream + b, p, size, len(exp.live))
        out.append(int(np.count_nonzero(live[exp.live[cell]])))
    return out


# Per d and basis, the fault cells with a nonzero compiled word, and all
# fault cells: Monte Carlo draws faults on the first alone.
LIVE_CELLS = {(3, "z"): (214, 538), (3, "x"): (227, 564),
              (5, "z"): (676, 1700), (5, "x"): (717, 1782)}


@pytest.mark.parametrize("d", [3, 5])
def test_live_cells(experiments, d):
    exp = experiments[d]
    live = exp.live
    z_cells = len(exp.z_basis.words)
    parts = []
    for basis, view in (("z", exp.z_basis), ("x", exp.x_basis)):
        part = view.words.any(axis=1).nonzero()[0]
        assert (len(part), len(fault_cells(view))) == LIVE_CELLS[d, basis]
        parts.append(part)
    # z_basis's live cells, then x_basis's, numbered on after z_basis's,
    # and their words in that order.
    assert np.array_equal(live, np.r_[parts[0], parts[1] + z_cells])
    assert exp.z_live == len(parts[0])
    assert np.array_equal(exp.words, np.vstack(
        [exp.z_basis.words[parts[0]], exp.x_basis.words[parts[1]]]))
    sim.logical_error_rate(exp, 1e-3, 100, seed=1)
    assert exp.live is live  # recorded once, by compile_faults


@pytest.mark.parametrize("d, columns", [(3, 32), (5, 102)])
def test_fault_distance(experiments, d, columns):
    # The memory cycle's circuit-level fault distance: the fewest live
    # cells whose [mid | final] syndromes cancel while their frames flip a
    # logical.  A repeated column cancels, so one collision over each
    # basis's distinct live columns finds it.
    exp = experiments[d]
    for view in (exp.z_basis, exp.x_basis):
        cols = np.unique(view.words[view.words.any(axis=1)], axis=0)
        assert len(cols) == columns
        s = view.syn_words
        checks = np.vstack([gf2.unpack_words(cols[:, :s], len(view.syn)).T,
                            gf2.unpack_words(cols[:, s: 2 * s],
                                             len(view.checks)).T])
        frames = gf2.unpack_words(cols[:, 2 * s:], len(view.mem_out))
        flags = gf2.mul(view.logicals, frames.T)
        assert gf2.flagged_collision(checks, flags, 3) == d


# Per d and basis (|0…0⟩ then |+…+⟩), the pairs of live cells and how many
# of them the two-stage decoder fails.
FAILING_PAIRS = {3: ((22_791, 3_374), (25_651, 6_065)),
                 5: ((228_150, 1_248), (256_686, 1_054))}


@pytest.mark.parametrize("d", [3, 5])
def test_two_stage_fails_pairs_only(experiments, d):
    # The two-stage decoder's baseline: every live cell alone is corrected,
    # and the failing pairs all fail silently.
    exp = experiments[d]
    for basis, rows, (pairs, failing) in zip(
            "zx", np.split(np.arange(len(exp.words)), [exp.z_live]),
            FAILING_PAIRS[d]):
        i, j = np.triu_indices(len(rows), 1)
        assert len(i) == pairs
        trials = len(rows) + pairs
        trial = np.r_[np.arange(len(rows)),
                      np.repeat(np.arange(len(rows), trials), 2)]
        row = np.r_[rows, np.stack([rows[i], rows[j]], axis=1).reshape(-1)]
        got = basis_failures(exp, trial, row, trials)
        fail, heralded, silent = got[basis]
        assert not fail[:len(rows)].any()
        assert (int(np.count_nonzero(fail)), heralded, silent) == (
            failing, 0, failing)
        other = got["x" if basis == "z" else "z"]
        assert not other[0].any() and other[1:] == (0, 0)


def test_d3_rate_meets_exact_bracket(experiments):
    # Faults are i.i.d. on the m live cells of a basis.  No live cell fails
    # alone and A_2 pairs fail (FAILING_PAIRS), so the basis fails with
    # probability in [A_2 p² (1−p)^(m−2), that + P(Bin(m, p) ≥ 3)].  The
    # bases are independent.  Missing the bracket needs a 5σ estimate.
    p = 1e-3
    ok_low = ok_high = 1.0  # the chance that neither basis fails
    for basis, (_, failing) in zip("zx", FAILING_PAIRS[3]):
        m = LIVE_CELLS[3, basis][0]
        low = failing * p ** 2 * (1 - p) ** (m - 2)
        tail = 1 - sum(math.comb(m, w) * p ** w * (1 - p) ** (m - w)
                       for w in range(3))
        ok_low, ok_high = ok_low * (1 - low), ok_high * (1 - low - tail)
    low, high = 1 - ok_low, 1 - ok_high
    assert (round(low, 6), round(high, 6)) == (0.007558, 0.010549)
    est = sim.logical_error_rate(experiments[3], p, 100_000, seed=42)
    assert est.ci_low <= high and est.ci_high >= low


def test_failing_pair_replays_on_tableau(experiments):
    # The first failing pair of the d=3 |0⟩ basis, run on the tableau with
    # the frame's outcome flips forced: the tableau reports those flips, and
    # decoding its own bits flips the logical with both table lookups hit.
    exp = experiments[3]
    view, decode = exp.z_basis, exp.decoder.decode_x
    live = view.words.any(axis=1).nonzero()[0]
    assert np.array_equal(exp.live[:exp.z_live], live)  # rows of exp.words
    i, j = np.triu_indices(len(live), 1)
    fail, _, _ = basis_failures(
        exp, np.repeat(np.arange(len(i)), 2),
        np.stack([i, j], axis=1).reshape(-1), len(i))["z"]
    first = int(np.argmax(fail))
    pair = [fault_cells(view)[c] for c in (live[i[first]], live[j[first]])]
    code = {"X": frame.X, "Z": frame.Z, "flip": frame.FLIP}
    res = frame.run_lanes(view.circuit, [loc for _, loc in pair],
                          [[code[ch] for ch, _ in pair]])
    flips = res.outcome_flips[0]
    locs = {ch: [loc for c, loc in pair if c == ch] for ch in code}
    tab = tableau.run_tableau(view.circuit, forced_outcomes=flips,
                              x_errors=locs["X"], z_errors=locs["Z"],
                              flip_locs=locs["flip"])
    assert np.array_equal(tab.outcomes, flips)
    zero = np.zeros(len(view.mem_out), dtype=np.uint8)

    def phases(run, rows):  # of the Z-type rows on mem_out
        return np.array([tableau.stabilizer_phase(run.sim, view.mem_out, zero,
                                                  row) for row in rows],
                        dtype=np.uint8)

    # The noiseless run reads every phase 0, so the noisy phases are flips.
    noiseless = tableau.run_tableau(view.circuit, force_zero=True)
    assert not phases(noiseless, np.vstack([view.checks, view.logicals])).any()
    final, logical = phases(tab, view.checks), phases(tab, view.logicals)
    assert np.array_equal(final, gf2.mul(view.checks,
                                         res.x_on(view.mem_out)[0]))
    c1 = decode(gf2.mul(view.syn, tab.outcomes))
    c2 = decode(final ^ gf2.mul(view.checks, c1))
    assert c1 is not None and c2 is not None
    assert (logical ^ gf2.mul(view.logicals, c1 ^ c2)).any()


def test_compile_builds_no_lane_matrix_or_locs(monkeypatch):
    """compile_faults writes each unit fault's lane bit straight into packed
    rows: it calls no dense run_lanes, builds no Loc, and neither
    allocates, packs nor unpacks an array with an entry per (cell,
    location) pair, as a cells × locations fault matrix has."""
    from qsurg import circuit
    views = [sim._build_basis(codes.surface_code_via_hgp(5), basis)
             for basis in "zx"]
    sizes, locs = [], []
    real_loc = circuit.Loc
    monkeypatch.setattr(circuit, "Loc",
                        lambda *args: locs.append(args) or real_loc(*args))
    monkeypatch.setattr(frame, "run_lanes",
                        lambda *args: pytest.fail("dense run_lanes"))
    for module, name in ((np, "zeros"), (np, "empty"), (np, "full"),
                         (gf2, "pack_words"), (gf2, "unpack_words")):
        real = getattr(module, name)

        def recorded(*args, real=real, **kwargs):
            out = real(*args, **kwargs)
            sizes.append(max(out.size, np.asarray(args[0]).size))
            return out
        monkeypatch.setattr(module, name, recorded)
    for view in views:
        view.compile_faults()
        cells, width = len(view.words), len(view.circuit.columns().qubit)
        assert sizes and max(sizes) < cells * width // 8
        sizes.clear()
    assert locs == []
    monkeypatch.undo()
    assert [len(fault_cells(view)) for view in views] == [1700, 1782]


# (d, p, trials, BLOCK_CELLS): every run takes two or more blocks and ends
# in a partial one (a d=3 block at the default BLOCK_CELLS would hold all
# 2002 trials).  At p = 0.25 one block holds more than the default
# PASS_FAULTS faults; the small blocks at p = 1e-4 leave some blocks
# without faults, and at d=3 they close passes at BLOCK_CELLS trials
# before PASS_FAULTS faults.
PASS_CASES = [(3, 5e-3, 2002, 1 << 19), (5, 5e-3, 953, sim.BLOCK_CELLS),
              (3, 0.25, 2002, 1 << 19), (5, 0.25, 953, sim.BLOCK_CELLS),
              (3, 1e-4, 2500, 1 << 10), (5, 1e-4, 1000, 1 << 14)]


@pytest.mark.parametrize("d,p,trials,block_cells", PASS_CASES)
def test_passes_match_per_block_decoding(experiments, monkeypatch, d, p,
                                         trials, block_cells):
    exp = experiments[d]
    stream = (1 << 32) + 5
    monkeypatch.setattr(sim, "BLOCK_CELLS", block_cells)
    want, block_faults = per_block_rate(exp, p, trials, seed=17,
                                        stream=stream)
    if p == 0.25:
        assert max(block_faults) > sim.PASS_FAULTS
    if p == 1e-4:
        assert 0 in block_faults
    # No sampled fault lands on a dead cell.
    assert live_faults(exp, p, trials, seed=17, stream=stream) == block_faults
    sizes, calls, passed = [], [], []
    real_sample, real = sim._sample_block, sim.MemoryExperiment.failures

    def sample(*args):
        sizes.append(args[3])  # the block's trials
        return real_sample(*args)

    def counted(exp, trial, cell):
        calls.append(sum(sizes))  # the pass's trials
        sizes.clear()
        assert exp.words[cell].any(axis=1).all()  # live cells only
        passed.append(len(trial))
        return real(exp, trial, cell)

    monkeypatch.setattr(sim, "_sample_block", sample)
    monkeypatch.setattr(sim.MemoryExperiment, "failures", counted)
    # One block per pass, a few blocks per pass, and every block in one
    # pass (up to BLOCK_CELLS trials).
    for pass_faults in (1, max(1, sum(block_faults) // 3), 1 << 62):
        monkeypatch.setattr(sim, "PASS_FAULTS", pass_faults)
        calls.clear()
        passed.clear()
        assert sim.logical_error_rate(exp, p, trials, seed=17,
                                      stream=stream) == want
        assert sum(calls) == trials
        assert sum(passed) == sum(block_faults)
        if pass_faults == 1:
            # A pass ends at every block with faults, and at the last one.
            ends = np.count_nonzero(block_faults[:-1]) + 1
            assert len(calls) == ends
        elif pass_faults == 1 << 62:
            block = max(1, block_cells // len(exp.live))
            assert calls[0] == min(trials, -(-block_cells // block) * block)
        else:
            assert len(calls) > 1


# Each case makes several passes: one block a pass at d=5, and about
# three at d=7.
@pytest.mark.parametrize("d,p,trials,block_cells,pass_faults", [
    (5, 5e-3, 953, 1 << 18, 1000), (7, 5e-4, 1000, 1 << 18, 300),
    (5, 1e-4, 1000, 1 << 14, 1)])
def test_one_probe_per_pass(experiments, monkeypatch, d, p, trials,
                            block_cells, pass_faults):
    """A pass looks both decoding stages of both bases of its trials up in
    one TableStack.find, of two rows per (trial, basis) group with faults
    ([mid ; final ^ mid]).  d=5 takes the stacked rank index, which probes
    no single table; d=7 binary search, which searches each table once for
    its own rows.  At p = 1e-4 a pass ends at every block with faults, so
    some passes have faults in one basis only."""
    monkeypatch.setattr(sim, "BLOCK_CELLS", block_cells)
    monkeypatch.setattr(sim, "PASS_FAULTS", pass_faults)
    calls = []
    real_failures = sim.MemoryExperiment.failures
    real_find, real_table_find = gf2.TableStack.find, gf2.SyndromeTable.find

    def failures(exp, trial, cell):
        group = np.unique(2 * trial + (cell >= exp.z_live))
        calls.append([np.count_nonzero(group & 1 == b) for b in (0, 1)])
        return real_failures(exp, trial, cell)

    def find(stack, rows, which):
        calls[-1].append(len(rows))
        return real_find(stack, rows, which)

    def table_find(table, rows):
        calls[-1].append(len(rows))
        return real_table_find(table, rows)

    monkeypatch.setattr(sim.MemoryExperiment, "failures", failures)
    monkeypatch.setattr(gf2.TableStack, "find", find)
    monkeypatch.setattr(gf2.SyndromeTable, "find", table_find)
    sim.logical_error_rate(experiments[d], p, trials, seed=17)
    assert len(calls) > 2  # several passes
    assert calls == [[z, x, 2 * (z + x)] + ([2 * z, 2 * x] if d == 7 else [])
                     for z, x, *_ in calls]
    assert any(0 in (z, x) for z, x, *_ in calls) == (p == 1e-4)


# RateEstimate counts (failures, z/x heralded, z/x silent) of the Monte
# Carlo stream as block-by-block decoding gave them: a change to the
# stream, the sampling or the decoding shows here first.  The d=3 and d=5
# tables are looked up by rank index, the d=7 ones (42-bit keys, two-word
# errors) by binary search, as binary search alone gave all of them.
GOLDEN_RATES = {
    (3, 1e-3, 20000, 0): (177, 0, 68, 0, 109),
    (3, 5e-3, 20000, 0): (2943, 0, 1227, 0, 1835),
    (5, 1e-3, 5000, 1 << 32): (12, 0, 4, 0, 8),
    (5, 5e-3, 5000, 1 << 32): (703, 18, 221, 125, 360),
    (7, 5e-4, 2000, 0): (463, 220, 0, 275, 0),
}


@pytest.mark.parametrize("d,p,trials,stream", list(GOLDEN_RATES))
def test_golden_stream(experiments, d, p, trials, stream):
    est = sim.logical_error_rate(experiments[d], p, trials, seed=42,
                                 stream=stream)
    assert (est.trials, est.failures, est.z_heralded, est.z_silent,
            est.x_heralded, est.x_silent) == (trials,) + GOLDEN_RATES[
        d, p, trials, stream]


class TestSampling:
    def test_bernoulli_counts(self):
        trials, cells, p = 500, 300, 0.02
        per_trial = np.zeros(0, dtype=int)
        per_cell = np.zeros(cells, dtype=int)
        for block in range(20):
            trial, cell = sim._sample_block(5, block, p, trials, cells)
            key = trial * cells + cell
            assert np.all(np.diff(key) > 0)  # distinct and sorted
            per_trial = np.concatenate(
                [per_trial, np.bincount(trial, minlength=trials)])
            per_cell += np.bincount(cell, minlength=cells)
        n = len(per_trial)
        assert abs(per_trial.mean() - cells * p) < 4 * np.sqrt(
            cells * p * (1 - p) / n)
        assert per_trial.var() == pytest.approx(cells * p * (1 - p), rel=0.1)
        expect = n * p
        chi2 = ((per_cell - expect) ** 2 / expect).sum()
        assert chi2 < cells + 5 * np.sqrt(2 * cells)

    def test_blocks_are_independent_streams(self):
        a = sim._sample_block(5, 0, 0.1, 50, 40)
        b = sim._sample_block(5, 1, 0.1, 50, 40)
        again = sim._sample_block(5, 0, 0.1, 50, 40)
        assert not np.array_equal(a[1], b[1])
        assert all(np.array_equal(x, y) for x, y in zip(a, again))

    def test_stride_overrun_is_caught(self, monkeypatch):
        monkeypatch.setattr(sim, "_TRIAL_STRIDE", 1)
        with pytest.raises(sim.StreamOverrun):
            sim._sample_block(5, 0, 0.1, 100, 100)

    def test_overrun_caught_under_optimize(self):
        # The check is not an assert, so python -O keeps it.
        code = ("from qsurg import sim\n"
                "sim._TRIAL_STRIDE = 1\n"
                "try:\n"
                "    sim._sample_block(5, 0, 0.1, 100, 100)\n"
                "except sim.StreamOverrun:\n"
                "    print('raised', __debug__)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout == "raised False\n", out.stderr

    def test_cli_import_loads_no_numpy_random(self):
        # Commands that never draw (distance, soundness, compile) should not
        # pay for importing numpy.random.
        code = ("import sys\n"
                "from qsurg import cli\n"
                "print('numpy.random' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout == "False\n", out.stderr

    def test_ledger_site_overrun_is_caught(self, monkeypatch):
        monkeypatch.setattr(sim, "_TRIAL_STRIDE", 1)
        with pytest.raises(sim.StreamOverrun,
                           match=f"stream {cli._SITES['prep.tableau']} "):
            cli.run_desk_ledger(seed=5, out_dir=None, max_weight=1,
                                samples=10, trials=1000, frames=10)

    def test_p_zero_draws_nothing(self, monkeypatch):
        exp = sim.build_memory_experiment(codes.surface_code_via_hgp(3))

        def no_draws(*args):
            raise AssertionError("p = 0 must not draw")

        monkeypatch.setattr(sim, "trial_rng", no_draws)
        assert sim.logical_error_rate(exp, 0.0, 5000, seed=3).failures == 0


class TestInputChecks:
    @pytest.mark.parametrize("p", [-1.0, 1.0, 1.5, float("nan")])
    def test_rate_rejects_bad_p(self, p):
        exp = sim.build_memory_experiment(codes.surface_code_via_hgp(3))
        with pytest.raises(ValueError):
            sim.logical_error_rate(exp, p, 10, seed=1)

    def test_rate_rejects_negative_trials(self):
        exp = sim.build_memory_experiment(codes.surface_code_via_hgp(3))
        with pytest.raises(ValueError):
            sim.logical_error_rate(exp, 1e-3, -1, seed=1)

    def test_zero_trials(self):
        exp = sim.build_memory_experiment(codes.surface_code_via_hgp(3))
        est = sim.logical_error_rate(exp, 1e-3, 0, seed=1)
        assert est.trials == est.failures == 0
