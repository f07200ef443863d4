"""Teleported measurement and surgery: probes, reductions, noiseless runs."""

import numpy as np
import pytest

from qsurg import cli, codes, frame, gf2, protocol, surgery, tableau


@pytest.fixture(scope="module")
def memory13():
    return codes.surface_code_via_hgp(3)


@pytest.fixture(scope="module")
def tm13(memory13):
    return protocol.build_tele_measurement(memory13)


@pytest.fixture(scope="module")
def deformed13(memory13):
    return surgery.build_deformed(memory13, gf2.bitmat([[1]]), codes.hamming_743())


@pytest.fixture(scope="module")
def run13(deformed13):
    return protocol.build_surgery_circuit(deformed13)


def probes(circ, locs):
    """Frame runs with one lane per location, X faults then Z faults: a
    flip on a flip location in both."""
    unit = gf2.eye(len(locs))
    return tuple(frame.run_lanes(
        circ, locs, unit * np.array([code if loc.kind == "q" else frame.FLIP
                                     for loc in locs], dtype=np.uint8))
        for code in (frame.X, frame.Z))


class TestTeleMeasurement:
    def test_zero_reference(self, tm13):
        res = tableau.run_tableau(tm13.circuit, force_zero=True)
        assert not res.outcomes.any()

    def test_outcome_equals_direct_projection(self, tm13, memory13):
        rng = np.random.default_rng(23)
        x_in = gf2.zeros(200, memory13.n)
        z_in = gf2.zeros(200, memory13.n)
        for x_row, z_row in zip(x_in, z_in):
            x_row[:] = rng.integers(0, 2, size=memory13.n)
            z_row[:] = rng.integers(0, 2, size=memory13.n)
        locs = tm13.col_locs["A1"]
        r = frame.run_lanes(tm13.circuit, locs, x_in * frame.X | z_in * frame.Z)
        # Reported check values match the direct projective syndrome.
        assert np.array_equal(tm13.derived_outcome(r.outcome_flips),
                              gf2.mul(x_in, memory13.h_z.T))
        # The input frame is transferred to the output block exactly.
        assert np.array_equal(r.x_on(tm13.c_ids), x_in)
        assert np.array_equal(r.z_on(tm13.c_ids), z_in)

    def test_operator_transfer_audit(self, tm13, memory13):
        # X(h)⊗X(h)⊗X(h) at the start maps to X(h) on the output block.
        for h in memory13.h_x:
            locs = []
            for name in ("A1", "B1", "C1"):
                locs += [tm13.col_locs[name][i] for i in np.nonzero(h)[0]]
            r = frame.run_frames(tm13.circuit, x_locs=locs)
            assert np.array_equal(r.x_on(tm13.c_ids), h)
            assert not tm13.derived_outcome(r.outcome_flips).any()

    def test_displayed_columns_match_probes(self, tm13, memory13):
        hj = np.concatenate([memory13.h_x, memory13.j_x])
        hx_r = gf2.right_inverse(memory13.h_x)
        zj = np.concatenate([hx_r.T, memory13.j_z])
        lay = tm13.layout
        probed = [(name, i, lay.offsets[name] + i)
                  for name, _ in lay.groups
                  for i in range(len(tm13.col_locs[name]))]
        rx, rz = probes(tm13.circuit, [tm13.col_locs[name][i]
                                       for name, i, _ in probed])
        zc, xc = rz.z_on(tm13.c_ids), rx.x_on(tm13.c_ids)
        for lane, (name, i, pos) in enumerate(probed):
            assert np.array_equal(gf2.mul(hj, zc[lane]),
                                  tm13.j_m_x[:, pos]), (name, i, "j_m_x")
            assert np.array_equal(gf2.mul(zj, xc[lane]), tm13.j_m_z[:, pos])
            assert np.array_equal(gf2.mul(memory13.h_z, xc[lane]),
                                  tm13.j_m_mz[:, pos])
            assert np.array_equal(
                tm13.derived_outcome(rx.outcome_flips[lane]),
                tm13.j_m_oc[:, pos]), (name, i, "j_m_oc")

    def test_effective_errors_weight1_exhaustive(self, tm13):
        e = gf2.eye(tm13.layout.total)
        _, ok_z = protocol.effective_z_error(tm13, e)
        _, ok_x = protocol.effective_x_error(tm13, e)
        assert ok_z.all() and ok_x.all()

    def test_effective_errors_random_weight4(self, tm13):
        rng = np.random.default_rng(17)
        n_tot = tm13.layout.total
        e = np.zeros((500, n_tot), dtype=np.uint8)
        for row in e:
            row[rng.choice(n_tot, size=4, replace=False)] = 1
        _, ok_z = protocol.effective_z_error(tm13, e)
        _, ok_x = protocol.effective_x_error(tm13, e)
        assert ok_z.all() and ok_x.all()

    def test_zero_error_maps_to_zero(self, tm13):
        # A vector is a one-row batch.
        e = np.zeros(tm13.layout.total, dtype=np.uint8)
        ez, ok_z = protocol.effective_z_error(tm13, e)
        ex, ok_x = protocol.effective_x_error(tm13, e)
        assert ez.shape == ex.shape == (1, e.size)
        assert not ez.any() and not ex.any()
        assert ok_z.tolist() == ok_x.tolist() == [True]


class TestSurgeryNoiseless:
    def test_zero_reference_both_views(self, run13):
        for view in (run13.abstract, run13.expanded):
            res = tableau.run_tableau(view.circuit, force_zero=True)
            assert not res.outcomes.any()

    def test_plus_zero_inputs_give_plus_one_outcomes(self, run13):
        rng = np.random.default_rng(41)
        for view in (run13.abstract, run13.expanded):
            res = tableau.run_tableau(view.circuit, rng=rng)
            assert not run13.measured_bits(view, res.outcomes).any()
            assert not run13.detector_bits(view, res.outcomes).any()

    def test_one_inputs_give_minus_one_outcomes(self, run13, deformed13):
        # |1…1⟩ logical inputs: inject the logical X of each copy at M1.
        rng = np.random.default_rng(43)
        n = deformed13.target.n
        jx = deformed13.target.j_x[0]
        for view in (run13.abstract, run13.expanded):
            locs = []
            for copy in range(deformed13.k_r):
                locs += [view.col_locs["M1"][copy * n + i]
                         for i in np.nonzero(jx)[0]]
            res = tableau.run_tableau(view.circuit, rng=rng, x_errors=locs)
            assert run13.measured_bits(view, res.outcomes).all()
            assert not run13.detector_bits(view, res.outcomes).any()

    def test_frame_agrees_with_tableau_on_outcome_bits(self, run13, deformed13):
        n = deformed13.target.n
        jx = deformed13.target.j_x[0]
        view = run13.expanded
        locs = [view.col_locs["M1"][0 * n + i] for i in np.nonzero(jx)[0]]
        r = frame.run_frames(view.circuit, x_locs=locs)
        bits = run13.measured_bits(view, r.outcome_flips)
        want = np.zeros(deformed13.k_r, dtype=np.uint8)
        want[0] = 1
        assert np.array_equal(bits, want)


@pytest.fixture(scope="module")
def run_pair(memory13):
    two = codes.direct_sum_css(memory13, memory13)
    dc = surgery.build_deformed(two, gf2.bitmat([[1, 1]]), codes.hamming_743())
    return dc, protocol.build_surgery_circuit(dc)


class TestSurgeryComposite:
    """Composite two-block target: joint parity and unmeasured logicals."""

    def test_joint_parity_outcomes(self, run_pair, memory13):
        dc, run = run_pair
        rng = np.random.default_rng(47)
        view = run.expanded
        n2 = dc.target.n
        # Flip only the first sub-block of copy 0: parity becomes -1 there.
        jx1 = np.concatenate([memory13.j_x[0], np.zeros(memory13.n, np.uint8)])
        locs = [view.col_locs["M1"][i] for i in np.nonzero(jx1)[0]]
        res = tableau.run_tableau(view.circuit, rng=rng, x_errors=locs)
        bits = run.measured_bits(view, res.outcomes)
        want = np.zeros(dc.k_r, dtype=np.uint8)
        want[0] = 1
        assert np.array_equal(bits, want)
        assert not run.detector_bits(view, res.outcomes).any()

    def test_unmeasured_logical_preserved(self, run_pair):
        dc, run = run_pair
        view = run.expanded
        # The unmeasured X logical of copy 0 (X̄⊗X̄ across sub-blocks).
        unmeas = gf2.mul(dc.tilde_alpha_perp(), dc.tilde_j_x())[0]
        locs = [view.col_locs["M1"][i] for i in np.nonzero(unmeas)[0]]
        r = frame.run_frames(view.circuit, x_locs=locs)
        # Measured parity untouched, output carries the logical X: it flips
        # the paired output Z logical exactly once.
        assert not run.measured_bits(view, r.outcome_flips).any()
        ap_r = gf2.right_inverse(dc.glue.alpha_perp)
        out_jz = gf2.kron(gf2.eye(dc.k_r), gf2.mul(ap_r.T, dc.target.j_z))
        flips = gf2.mul(out_jz, r.x_on(view.mem_out))
        want = np.zeros(out_jz.shape[0], dtype=np.uint8)
        want[0] = 1
        assert np.array_equal(flips, want)


class TestSurgeryDisplayedMatrices:
    def test_columns_match_abstract_probes(self, run13, deformed13):
        run = run13
        view = run.abstract
        lay = run.layout
        dc = deformed13
        tap_jx = gf2.mul(dc.tilde_alpha_perp(), dc.tilde_j_x())
        ap_r = gf2.right_inverse(dc.glue.alpha_perp)
        tapr_jz = gf2.kron(gf2.eye(dc.k_r), gf2.mul(ap_r.T, dc.target.j_z))
        ta_jz = gf2.mul(dc.tilde_alpha(), dc.tilde_j_z())
        d12_rows = run.h_ls_x.shape[0]
        names = [n for n, _ in lay.groups] + ["meaX", "meaZ"]
        probed = [(name, i) for name in names
                  for i in range(len(view.col_locs[name]))]
        rx, rz = probes(view.circuit, [view.col_locs[name][i]
                                       for name, i in probed])
        for lane, (name, i) in enumerate(probed):
            if name in dict(lay.groups):
                pos_z = lay.offsets[name] + i
                pos_x = pos_z
            elif name == "meaX":
                pos_z = lay.total + i
                pos_x = None
            else:
                pos_z = None
                pos_x = lay.total + i
            if pos_z is not None:
                det = run.detector_bits(view, rz.outcome_flips[lane])
                assert np.array_equal(det[:d12_rows],
                                      run.h_ls_x[:, pos_z]), (name, i)
                got = gf2.mul(tap_jx, rz.z_on(view.mem_out)[lane])
                assert np.array_equal(got, run.j_ls_x[:, pos_z])
            if pos_x is not None:
                det = run.detector_bits(view, rx.outcome_flips[lane])
                assert np.array_equal(det[d12_rows:],
                                      run.h_ls_z[:, pos_x]), (name, i)
                oc = run.measured_bits(view, rx.outcome_flips[lane])
                assert np.array_equal(oc, run.j_ls_oc[:, pos_x])
                got = gf2.mul(tapr_jz, rx.x_on(view.mem_out)[lane])
                assert np.array_equal(got, run.j_ls_z[:, pos_x])
                got = gf2.mul(ta_jz, rx.x_on(view.mem_out)[lane])
                assert np.array_equal(got, run.j_ls_mz[:, pos_x])


def rotated_css(code):
    """The code seen through a transversal-Hadamard layer: X and Z swap."""
    return codes.CssCode(h_x=code.h_z, h_z=code.h_x, j_x=code.j_z,
                         j_z=code.j_x, n=code.n, k=code.k, d=code.d)


@pytest.fixture(scope="module")
def run_zx(memory13):
    two = codes.direct_sum_css(memory13, rotated_css(memory13))
    dc = surgery.build_deformed(two, gf2.bitmat([[1, 1]]),
                                codes.hamming_743())
    return dc, protocol.build_surgery_circuit(dc)


class TestRotatedFactor:
    """Z⊗X joint measurement via a composite target with a rotated block."""

    def test_build_is_clean(self, run_zx):
        dc, _ = run_zx
        assert surgery.verify_glue(dc.target, dc.glue) == []
        assert surgery.verify_lifted_conditions(dc) == []

    def test_x_factor_flip_detected_in_outcome(self, run_zx, memory13):
        # In the rotated frame the second factor reads the block's physical
        # X logical; flipping it (a physical Z logical = rotated X logical)
        # flips the joint parity on that copy.
        dc, run = run_zx
        view = run.expanded
        n2 = memory13.n
        flip_op = np.concatenate([np.zeros(n2, np.uint8), memory13.j_x[0]])
        locs = [view.col_locs["M1"][i] for i in np.nonzero(flip_op)[0]]
        r = frame.run_frames(view.circuit, x_locs=locs)
        bits = run.measured_bits(view, r.outcome_flips)
        want = np.zeros(dc.k_r, dtype=np.uint8)
        want[0] = 1
        assert np.array_equal(bits, want)

    def test_noiseless_outcomes(self, run_zx):
        dc, run = run_zx
        res = tableau.run_tableau(run.expanded.circuit,
                                  rng=np.random.default_rng(3))
        assert not run.measured_bits(run.expanded, res.outcomes).any()
        assert not run.detector_bits(run.expanded, res.outcomes).any()


class TestAbstractExpandedAgreement:
    def test_shared_input_faults_agree(self, run13, deformed13):
        # The reduced (abstract) and teleported (expanded) realizations must
        # respond identically to memory-input faults: same measured-bit
        # flips, same detector flips, same output logical action.
        n_mem = run13.n_mem
        dc = deformed13
        ta_jz = gf2.mul(dc.tilde_alpha(), dc.tilde_j_z())
        for i in range(0, n_mem, 5):
            results = []
            for view in (run13.abstract, run13.expanded):
                loc = view.col_locs["M1"][i]
                r = frame.run_frames(view.circuit, x_locs=[loc])
                results.append((
                    run13.measured_bits(view, r.outcome_flips).tobytes(),
                    run13.detector_bits(view, r.outcome_flips).tobytes(),
                    gf2.mul(ta_jz, r.x_on(view.mem_out)).tobytes(),
                ))
            assert results[0] == results[1], f"input fault {i}"
        for i in range(0, n_mem, 5):
            results = []
            for view in (run13.abstract, run13.expanded):
                loc = view.col_locs["M1"][i]
                r = frame.run_frames(view.circuit, z_locs=[loc])
                results.append(
                    run13.detector_bits(view, r.outcome_flips).tobytes())
            assert results[0] == results[1], f"input fault {i}"


def undetected_units(run, h, names):
    """Every weight-1 fault on the named groups of run.layout that h
    misses, one per row."""
    lay = run.layout
    e = np.concatenate([gf2.eye(lay.total)[lay.sl(name)] for name in names])
    full = np.hstack([e, gf2.zeros(len(e), h.shape[1] - lay.total)])
    return e[~gf2.mul(full, h.T).any(axis=1)]


RESIDUAL_GROUPS = ("M1", "M2", "M3", "A1", "A2")


class TestSurgeryLemmas:
    def test_residual_z_weight1(self, run13, run_pair):
        # h_ls_x catches every unit fault on both codes, so the weight-1
        # sweep is empty and the lemma rests on the pairs alone.
        for run in (run13, run_pair[1]):
            assert len(undetected_units(run, run.h_ls_x, RESIDUAL_GROUPS)) == 0
            assert len(cli._surgery_faults(run, run.h_ls_x, RESIDUAL_GROUPS,
                                           1)) == 0

    def test_residual_z_exhaustive(self, run13, run_pair):
        # Every unit is detected, so only pairs remain.  The composite
        # target has k=4: css.j_x has rows and the identity is exercised.
        for run, want in ((run13, 231), (run_pair[1], 445)):
            e = cli._surgery_faults(run, run.h_ls_x, RESIDUAL_GROUPS, 2)
            assert len(e) == want
            res = protocol.surgery_residual_z(run, e,
                                              gf2.zeros(len(e), run.n_mem))
            assert (res.status == "ok").all() and res.bound_ok.all()
        assert run_pair[0].css.j_x.shape[0] == 4

    @pytest.mark.parametrize("lemma", ["residualZ", "outcomeX"])
    def test_surgery_faults_match_brute_force(self, run13, lemma):
        h, names = {"residualZ": (run13.h_ls_x, RESIDUAL_GROUPS),
                    "outcomeX": (run13.h_ls_z, ("M1", "A1"))}[lemma]
        lay = run13.layout
        idx = np.concatenate([np.arange(lay.total)[lay.sl(nm)]
                              for nm in names])
        # Units, then every pair in lexicographic order.
        i, j = np.triu_indices(len(idx), k=1)
        e = gf2.zeros(len(idx) + len(i), lay.total)
        e[np.arange(len(idx)), idx] = 1
        e[len(idx) + np.arange(len(i)), idx[i]] = 1
        e[len(idx) + np.arange(len(i)), idx[j]] = 1
        want = e[~gf2.row_images(h[:, :lay.total], e).any(axis=1)]
        assert np.array_equal(cli._surgery_faults(run13, h, names, 2), want)

    def test_outcome_x_fails_at_target_distance(self, run13):
        # The sweep stops at weight 2 because weight 3, the target's
        # distance, has real violations.
        e = cli._surgery_faults(run13, run13.h_ls_z, ("M1", "A1"), 3)
        res = protocol.surgery_outcome_x(run13, e, np.zeros_like(e))
        assert not (res.outcome_correct & res.bound_ok).all()

    def test_outcome_x_weight1(self, run13):
        e_b = undetected_units(run13, run13.h_ls_z, ("M1", "A1"))
        # Ancilla faults are invisible to h_ls_z.
        assert len(e_b) > 0
        res = protocol.surgery_outcome_x(run13, e_b, np.zeros_like(e_b))
        assert res.outcome_correct.all() and res.bound_ok.all()

    def test_residual_equals_after_part(self, run13):
        rng = np.random.default_rng(3)
        n_mem = run13.n_mem
        after = gf2.eye(n_mem)[rng.integers(0, n_mem, size=100)]
        res = protocol.surgery_residual_z(
            run13, gf2.zeros(100, run13.layout.total), after)
        assert (res.status == "ok").all()
        assert np.array_equal(res.residual, after)


# sha256 (conftest.digest) of each golden deformed code's surgery-run
# matrices, taken when build_surgery_circuit derived its logicals and its
# extraction itself.
SURGERY_RUN_DIGESTS = {
    "composite": {
        "extract":
            "e64a013038a45e95b06d08f0e615869a69b6b7aadeb20e50a8d6d8aac522a973",
        "h_ls_x":
            "0b71a87ba7f3e045c1bb3723e97b8e649c2f7312cb405e3bfc01906331087c27",
        "h_ls_z":
            "dfd1620d13210037090bfd7a868fd9938f256433e020dc23a7ebf09ed95d4d73",
        "j_ls_x":
            "11f74aeff9125b6a9ef0350bc66b35d0e97f95fce095d23a20d1c52e37ab9f5d",
        "j_ls_z":
            "1b7880dd43ac760035816410d42e0b3222671e4dd68ba734dab08380cf641a99",
        "j_ls_mz":
            "be7b9fab5738b70ea2990957a01e6690a87b4e3998e689356a4ee113d1476f4e",
        "j_ls_oc":
            "8a65153e56b1276b05dd4894b4fbfdf3b8e0d0b4cec6b8958718294f44e29308",
    },
    "desk": {
        "extract":
            "481e179f4c455b38dc85034a62de80f51a7cbaadcac4a144683da76357dca0f2",
        "h_ls_x":
            "8fdecbcf5b73d099365ec008c68b708b72b8809697c62e3a35920be44c01ed4a",
        "h_ls_z":
            "41ec7deae4bf2b40f556d680c7f6c01cdb69ce2cca10df9776f0844617327001",
        "j_ls_x":
            "cd1ce5564624cd0bdd45c8fc642d192afd74c1f2117f943bd9c4757c25dcfe8a",
        "j_ls_z":
            "9b8f0ff3a652d1ba43dd957951c77611055f604c667fbf6dcfb98863bfe1d1d9",
        "j_ls_mz":
            "b115e3ab86fb2dfb1a3ebea1f8a58f03e1f38096e602ef3a9836f124fb907281",
        "j_ls_oc":
            "5199ca1950abd8959c87099ab9843b96619e165530826788b34241ee8f00ef42",
    },
    "surface5_rep3": {
        "extract":
            "44148787d0963138b5113576d88a3f36cd531a4b96c57d389bfb1fab9ce38cac",
        "h_ls_x":
            "2ae583521fc9688c61cc81371b16485fe1d2ff329c32383589cb3d985fa89abe",
        "h_ls_z":
            "a2150e01709a4cc37cef4e4d10e9ac121c908ec4c7f3a562c38ce0f99049722a",
        "j_ls_x":
            "75e61b2906f7283b21ddafbbeb80211688be21d01e901f2569df563a2b669a93",
        "j_ls_z":
            "6d7b2c0eeac51ff1af45f328e79120126b3fe4289bcd86142c5007efd47b5472",
        "j_ls_mz":
            "7e323dd1b83adef02f8c943af2bd3d3df598dc4feb27fafa9054510b0748f361",
        "j_ls_oc":
            "1e402501581cdbd8a19d83a61b55f1298d0982cf1bdb90047513dae8f187ba20",
    },
}


# sha256 (conftest.digest) of each view's Pauli-repair feedback matrix,
# taken when build_surgery_circuit filled the repair map row by row.
REPAIR_DIGESTS = {
    "composite": {
        "abstract":
            "a6297d2942fcfd9be2710eb687a29b4d18de018a77cf86f3e72cf68a27f642e8",
        "expanded":
            "da3456caab54dfbafd273293ebe4a318e92dce5d4d15f0c4a39b114e51597c14",
    },
    "desk": {
        "abstract":
            "e4daff42afc86a9480e59b675267935f8df102ddef1b4413508774de53ee68fa",
        "expanded":
            "377028d10a8f80da816bcc88f332c8d3e9771ff1babe1bdfa22a39e32fbc26ec",
    },
    "surface5_rep3": {
        "abstract":
            "3c7686d15e68531eb98869058a4a92d4273f2aeb626de0d6299c2a5f65e7a7d4",
        "expanded":
            "b07858f43187d44d3863662ec39334aab180ef62b700650a86853a3e58b0cf4d",
    },
}


def test_surgery_run_matrices_unchanged(golden_build, digest):
    name, dc = golden_build
    run = protocol.build_surgery_circuit(dc)
    for attr, want in SURGERY_RUN_DIGESTS[name].items():
        assert digest(getattr(run, attr)) == want, attr
    for attr, want in REPAIR_DIGESTS[name].items():
        view = getattr(run, attr)
        repair = view.circuit.ops[view.col_locs["M4"][0].step]
        assert digest(repair.m) == want, attr
