"""Resource-state preparation: noiseless correctness, propagation matrices
probed against the frame simulator, and both residual-error bounds."""

from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsurg import codes, frame, gf2, ltsp, sim, tableau


@pytest.fixture(scope="module")
def memory13():
    return codes.surface_code_via_hgp(3)


@pytest.fixture(scope="module")
def prep13(memory13):
    return ltsp.build_prep_circuit(memory13, codes.hamming_743())


@pytest.fixture(scope="module")
def spp13(memory13):
    return ltsp.sp_matrices(memory13, codes.hamming_743(), copy_j=0)


class TestResourceState:
    def test_memory13_full_rank(self, memory13):
        rs = ltsp.resource_state(memory13)
        assert rs.h_rs_x.shape[1] == 26
        assert gf2.rank(rs.h_rs_x) + gf2.rank(rs.h_rs_z) == 26

    def test_trivial_code_gives_bell_pair(self, trivial_css):
        rs = ltsp.resource_state(trivial_css)
        assert np.array_equal(rs.h_rs_x, gf2.bitmat([[1, 1]]))
        assert np.array_equal(rs.h_rs_z, gf2.bitmat([[1, 1]]))

    def test_steane_commutation(self):
        rs = ltsp.resource_state(codes.steane())
        assert not gf2.mul(rs.h_rs_x, rs.h_rs_z.T).any()

    def test_noncommuting_source_rejected(self, memory13):
        h_x = memory13.h_x.copy()
        h_x[0, np.flatnonzero(memory13.h_z[0])[0]] ^= 1
        bad = codes.CssCode(h_x=h_x, h_z=memory13.h_z, j_x=memory13.j_x,
                            j_z=memory13.j_z, n=memory13.n, k=memory13.k)
        with pytest.raises(ltsp.ResourceStateError, match="h_x·h_zᵀ"):
            ltsp.sp_matrices(bad, codes.hamming_743(), 0)

    def test_incomplete_code_rejected(self, memory13):
        crippled = codes.CssCode(
            h_x=memory13.h_x[:-1], h_z=memory13.h_z, j_x=memory13.j_x,
            j_z=memory13.j_z, n=memory13.n, k=memory13.k)
        with pytest.raises(ltsp.ResourceStateError):
            ltsp.resource_state(crippled)


class TestNoiselessPrep:
    def test_zero_reference_valid(self, prep13):
        res = tableau.run_tableau(prep13.circuit, force_zero=True)
        assert not res.outcomes.any()

    def test_all_copies_stabilized(self, memory13, prep13):
        rs = ltsp.resource_state(memory13)
        rng = np.random.default_rng(19)
        res = tableau.run_tableau(prep13.circuit, rng=rng)
        for j in range(prep13.k_f):
            b, c = prep13.copy_qubits(j)
            qubits = np.concatenate([b, c])
            n = memory13.n
            for row in rs.h_rs_x:
                assert tableau.stabilizer_phase(res.sim, qubits, row,
                                                np.zeros(2 * n)) == 0
            for row in rs.h_rs_z:
                assert tableau.stabilizer_phase(res.sim, qubits,
                                                np.zeros(2 * n), row) == 0

    def test_degenerate_test_code(self):
        # A length-1 test code means no encoding at all: one copy, no
        # parity rounds, still exactly stabilized.
        source = codes.steane()
        prep = ltsp.build_prep_circuit(source, codes.repetition(1))
        res = tableau.run_tableau(prep.circuit, rng=np.random.default_rng(5))
        rs = ltsp.resource_state(source)
        b, c = prep.copy_qubits(0)
        qubits = np.concatenate([b, c])
        for row in rs.h_rs_x:
            assert tableau.stabilizer_phase(res.sim, qubits, row,
                                            np.zeros(14)) == 0
        for row in rs.h_rs_z:
            assert tableau.stabilizer_phase(res.sim, qubits,
                                            np.zeros(14), row) == 0


def layout_position(layout, prep, pos):
    for name, width in layout.groups:
        off = layout.offsets[name]
        if off <= pos < off + width:
            return name, prep.col_locs[name][pos - off]
    raise IndexError(pos)


def probes(circ, locs, pauli):
    """One frame lane per location: a `pauli` fault on a quantum location,
    a flip on a flip location."""
    codes = [getattr(frame, pauli) if loc.kind == "q" else frame.FLIP
             for loc in locs]
    return frame.run_lanes(
        circ, locs, gf2.eye(len(locs)) * np.array(codes, dtype=np.uint8))


class TestDisplayedMatricesVsFrameProbes:
    """Unit-fault frame runs must reproduce every displayed matrix column."""

    def test_z_faults_match_j_sp_x(self, prep13, spp13):
        lay = spp13.layout_z
        rs = spp13.rs
        b, c = prep13.copy_qubits(spp13.copy_j)
        probed = []
        for pos in range(lay.total):
            name, loc = layout_position(lay, prep13, pos)
            if name.startswith("D"):
                # Z faults on readout blocks never touch X operators.
                assert not spp13.j_sp_x[:, pos].any()
                if name == "D3":
                    continue
            probed.append((name, pos, loc))
        r = probes(prep13.circuit, [loc for _, _, loc in probed], "Z")
        flips = gf2.mul(np.hstack([r.z_on(b), r.z_on(c)]), rs.h_rs_x.T)
        for (name, pos, _), got in zip(probed, flips):
            assert np.array_equal(got, spp13.j_sp_x[:, pos]), (name, pos)

    def test_x_faults_match_j_sp_z_and_h_sp_z(self, prep13, spp13):
        lay = spp13.layout_x
        rs = spp13.rs
        b, c = prep13.copy_qubits(spp13.copy_j)
        det = prep13.detector_matrix()
        probed = [layout_position(lay, prep13, pos) for pos in range(lay.total)]
        r = probes(prep13.circuit, [loc for _, loc in probed], "X")
        flips = gf2.mul(np.hstack([r.x_on(b), r.x_on(c)]), rs.h_rs_z.T)
        syndromes = gf2.mul(r.outcome_flips, det.T)
        for pos, (name, _) in enumerate(probed):
            assert np.array_equal(flips[pos], spp13.j_sp_z[:, pos]), (name, pos)
            assert np.array_equal(syndromes[pos], spp13.h_sp_z[:, pos]), (name, pos)

    def test_no_propagation_identity(self, memory13):
        g = codes.hamming_743().g
        lhs = gf2.mul(gf2.kron(g[0].reshape(1, -1), memory13.h_x),
                      gf2.kron(gf2.eye(7), memory13.h_z.T))
        assert not lhs.any()


class TestFrameVsTableauOnPrep:
    def test_random_fault_sets_agree(self, prep13):
        # Full coupling check on the real circuit: force the tableau's
        # random outcomes to the frame-predicted flips and require every
        # deterministic outcome to match.
        circ = prep13.circuit
        qlocs = [l for l in circ.locations() if l.kind == "q"]
        flips = [l for l in circ.locations() if l.kind == "flip"]
        rng = np.random.default_rng(53)
        for _ in range(3):
            xs = [qlocs[i] for i in rng.choice(len(qlocs), size=2, replace=False)]
            zs = [qlocs[i] for i in rng.choice(len(qlocs), size=2, replace=False)]
            fl = [flips[i] for i in rng.choice(len(flips), size=1)]
            fr = frame.run_frames(circ, x_locs=xs, z_locs=zs, flip_locs=fl)
            tr = tableau.run_tableau(circ, forced_outcomes=fr.outcome_flips,
                                     x_errors=xs, z_errors=zs, flip_locs=fl)
            assert np.array_equal(tr.outcomes, fr.outcome_flips)


def reference_z_sweep(contrib, max_weight):
    """sweep_z_lemma's report from listing every fault set of weight
    1..max_weight: one combination_sweep of the unit contributions."""
    rep = ltsp.LemmaSweepReport()
    for w, words in gf2.combination_sweep(gf2.pack_words(contrib), max_weight):
        if w == 0:
            continue
        good = int(np.count_nonzero(np.bitwise_count(words).sum(axis=1) <= w))
        rep.checked += len(words)
        rep.ok += good
        rep.violations += len(words) - good
    return rep


@pytest.fixture(scope="module")
def desk_copies(memory13):
    ham = codes.hamming_743()
    return [ltsp.sp_matrices(memory13, ham, j) for j in range(ham.k)]


class TestZBound:
    def test_zero_fault(self, spp13):
        e = np.zeros(spp13.layout_z.total, dtype=np.uint8)
        e_rs, ok = ltsp.check_z_bound(spp13, e)
        assert ok.tolist() == [True] and e_rs.shape == (1, 2 * spp13.source.n)
        assert not e_rs.any()

    def test_weight_one_exhaustive(self, spp13):
        rep = ltsp.sweep_z_lemma(spp13, max_weight=1)
        assert rep.clean and rep.checked == spp13.layout_z.total

    def test_weight_zero_checks_nothing(self, spp13):
        assert ltsp.sweep_z_lemma(spp13, max_weight=0) == ltsp.LemmaSweepReport()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda b: st.tuples(
        st.lists(st.lists(st.integers(0, 1), min_size=b, max_size=b),
                 min_size=1, max_size=5),
        st.lists(st.integers(0, 4), min_size=6, max_size=14))),
        st.integers(0, 3))
    def test_counts_match_listed_sets(self, draw, max_weight):
        # Rows picked from at most 5 distinct ones, so some repeat; the
        # first weighs at least 2, so there are violations to count.
        base, picks = draw
        base = gf2.bitmat(base)
        base[0, :2] = 1
        contrib = base[[0] + [i % len(base) for i in picks]]
        spp = SimpleNamespace(layout_z=SimpleNamespace(total=len(contrib)))
        with patch.object(ltsp, "check_z_bound",
                          lambda spp, e: (contrib, None)):
            got = ltsp.sweep_z_lemma(spp, max_weight)
        assert got == reference_z_sweep(contrib, max_weight)

    def test_desk_copies_weight_two(self, desk_copies):
        for spp in desk_copies:
            contrib, _ = ltsp.check_z_bound(spp, gf2.eye(spp.layout_z.total))
            # 1,140 contributions in 14 classes: zero and 13 unit words.
            assert len(np.unique(contrib, axis=0)) == 14
            rep = ltsp.sweep_z_lemma(spp, max_weight=2)
            assert rep == reference_z_sweep(contrib, 2)
            assert rep.checked == 650_370 and rep.clean

    def test_desk_copies_weight_three(self, desk_copies, monkeypatch):
        # C(1140, 1) + C(1140, 2) + C(1140, 3) sets, which are not listed.
        def no_listing(*args):
            raise AssertionError("unit contributions decide the sweep")

        monkeypatch.setattr(gf2, "combination_sweep", no_listing)
        for spp in desk_copies:
            rep = ltsp.sweep_z_lemma(spp, max_weight=3)
            assert rep.checked == 246_924_950 and rep.violations == 0

    @pytest.mark.parametrize("source", ["surface3", "hgp_hamming"])
    def test_unit_contributions_weigh_at_most_one(self, desk_copies, source):
        # Each u_eff row is a column of g_j ⊗ E or e_j ⊗ E.
        ham = codes.hamming_743()
        copies = desk_copies if source == "surface3" else list(ltsp.sp_copies(
            codes.hypergraph_product(ham, ham), ham, range(ham.k)))
        for spp in copies:
            contrib, _ = ltsp.check_z_bound(spp, None)
            assert len(contrib) == spp.layout_z.total
            assert np.count_nonzero(contrib, axis=1).max() == 1

    def test_refused_past_table_cap(self, spp13, monkeypatch):
        monkeypatch.setattr(gf2, "TABLE_CAP", 64)
        # A passing map is answered whatever the cap.
        assert ltsp.sweep_z_lemma(spp13, max_weight=2).checked == 650_370
        contrib, _ = ltsp.check_z_bound(spp13, None)
        contrib[0, :2] = 1  # one contribution of weight 2: the sets are listed
        monkeypatch.setattr(ltsp, "check_z_bound", lambda spp, e: (contrib, None))
        with pytest.raises(gf2.SearchTooLarge):
            ltsp.sweep_z_lemma(spp13, max_weight=2)
        # Weight 1 holds at most n + 1 rows and is never refused.
        rep = ltsp.sweep_z_lemma(spp13, max_weight=1)
        assert (rep.checked, rep.violations) == (1140, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=1, max_size=6)))
    def test_unit_images_decide_every_weight(self, rows):
        # For a linear map R, |R·e| ≤ |e| holds for every e exactly when
        # every unit image weighs at most 1: the certificate of the linear
        # lemma rows, against the weight ≤ 3 sweep.
        r = gf2.bitmat(rows)
        units_ok = bool((gf2.row_images(r, gf2.eye(r.shape[1])).sum(axis=1)
                         <= 1).all())
        swept_ok = all(
            (np.bitwise_count(words).sum(axis=1) <= w).all()
            for w, words in gf2.combination_sweep(gf2.pack_words(r.T), 3))
        assert units_ok == swept_ok

    def test_random_weight_three(self, spp13):
        rng = np.random.default_rng(31)
        n = spp13.layout_z.total
        e = np.zeros((200, n), dtype=np.uint8)
        for row in e:
            row[rng.choice(n, size=3, replace=False)] = 1
        _, ok = ltsp.check_z_bound(spp13, e)
        assert ok.all()


class TestXBound:
    def test_zero_fault(self, spp13):
        e = np.zeros(spp13.layout_x.total, dtype=np.uint8)
        res = ltsp.check_x_bound(spp13, e)
        assert res.status.tolist() == ["ok"] and res.bound_ok.tolist() == [True]
        assert res.e_rs_x.shape == (1, 2 * spp13.source.n)
        assert not res.e_rs_x.any()

    def test_detected_flip(self, prep13, spp13):
        # A lone parity-outcome flip violates the B/C consistency family.
        e = np.zeros(spp13.layout_x.total, dtype=np.uint8)
        e[spp13.layout_x.offsets["meaB"]] = 1
        assert ltsp.check_x_bound(spp13, e).status.tolist() == ["detected"]

    def test_amplification_factor(self, spp13):
        from fractions import Fraction
        # n_F/(r_F s) = 7/(3·7/3) = 1 for the Hamming test code.
        assert spp13.amplification() == Fraction(1)

    def test_weight_one_exhaustive(self, spp13):
        rep = ltsp.sweep_x_lemma(spp13, max_weight=1)
        assert rep.clean
        assert rep.detected + rep.ok == rep.checked

    @pytest.mark.parametrize("max_weight", [-1, 2, 3])
    def test_weight_outside_zero_one_rejected(self, spp13, max_weight):
        with pytest.raises(ValueError, match=f"max_weight={max_weight} is not"):
            ltsp.sweep_x_lemma(spp13, max_weight=max_weight, samples=10)

    def test_sampled_weight_two(self, spp13):
        rep = ltsp.sweep_x_lemma(spp13, max_weight=0, samples=300, seed=3)
        assert rep.clean

    def test_sweep_counts_as_one_batch(self, spp13, set_rows):
        # The units and then the pairs, drawn on the same stream, as one
        # batch of dense rows give the sweep's counts.
        n = spp13.layout_x.total
        with sim.checked_rng(4, 9) as rng:
            pairs = gf2.fault_sets(rng, n, 300, 2)
        faults = np.concatenate([gf2.eye(n), set_rows(pairs, n)])
        res = ltsp.check_x_bound(spp13, faults)
        count = lambda status: int(np.count_nonzero(res.status == status))
        rep = ltsp.sweep_x_lemma(spp13, max_weight=1, samples=300, seed=4,
                                 stream=9)
        assert rep == ltsp.LemmaSweepReport(
            checked=len(faults), detected=count("detected"), ok=count("ok"),
            inequivalent=count("inequivalent"),
            violations=count("inequivalent") + count("ok")
            - int(np.count_nonzero(res.bound_ok)))

    def test_amplification_computed_once(self, memory13, monkeypatch):
        from fractions import Fraction
        calls = []
        real_soundness = codes.soundness

        def counted(code):
            calls.append(code)
            return real_soundness(code)

        def uncached(spp):
            s = codes.soundness(spp.f)
            return max(Fraction(1), Fraction(spp.f.n, spp.f.h.shape[0]) / s)

        def sweeps(spp):
            # A sweep checks its faults in two batches, the unit faults and
            # then the sampled pairs: two sweeps make four check_x_bound
            # calls, each reading the amplification.
            return [ltsp.sweep_x_lemma(spp, max_weight=1, samples=200, seed=5)
                    for _ in range(2)]

        monkeypatch.setattr(codes, "soundness", counted)
        spp = ltsp.sp_matrices(memory13, codes.hamming_743(), copy_j=1)
        cached = sweeps(spp)
        assert len(calls) <= 1
        calls.clear()
        monkeypatch.setattr(ltsp.SpPropagation, "amplification", uncached)
        plain = sweeps(spp)
        assert len(calls) > 1
        assert cached == plain and cached[0].checked > cached[0].detected

    def test_soundness_once_per_code(self, memory13, monkeypatch):
        # Every output copy of one test code reads the soundness that the
        # first sweep (or an earlier codes.soundness call) left on the code.
        calls = []
        real_soundness = codes.soundness
        monkeypatch.setattr(codes, "soundness",
                            lambda code: calls.append(code) or real_soundness(code))
        f = codes.hamming_743()
        amps = [ltsp.sp_matrices(memory13, f, j).amplification()
                for j in range(f.k)]
        assert len(calls) == 1 and calls[0] is f and len(set(amps)) == 1
        assert f.soundness == real_soundness(codes.hamming_743())


# sha256 (conftest.digest) of detector_matrix() per (source, test code),
# taken when it wrote its check families out by hand.
DETECTOR_DIGESTS = {
    ("surface3", "hamming"):
        "7e276bd9caa1e81e6262ea4d8e5fbac2be035020f778b71c3a27767276089401",
    ("steane", "hamming"):
        "67a171aad024bc3600a9f0871ba5c8a2477add356ba67c2ce898b4554b394ac0",
    ("surface3", "rep3"):
        "e29e796c8113713c0d4152e185a224452db790682e45ab6a2c8273522b62c54d",
    ("surface5", "rep3"):
        "65973931bc86aafac9a5a74fabbdbd287c48245b86d38eea63423fdad65b5f33",
}


@pytest.mark.parametrize("source, test_code", sorted(DETECTOR_DIGESTS))
def test_detector_matrix_unchanged(source, test_code, digest):
    build = {"surface3": lambda: codes.surface_code_via_hgp(3),
             "surface5": lambda: codes.surface_code_via_hgp(5),
             "steane": codes.steane, "hamming": codes.hamming_743,
             "rep3": lambda: codes.repetition(3)}
    prep = ltsp.build_prep_circuit(build[source](), build[test_code]())
    assert digest(prep.detector_matrix()) == DETECTOR_DIGESTS[source, test_code]
