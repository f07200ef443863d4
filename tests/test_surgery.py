"""Deformed-code construction: glue conditions, block structure, distance."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsurg import codes, gf2, surgery


@pytest.fixture(scope="module")
def target13():
    return codes.surface_code_via_hgp(3)


@pytest.fixture(scope="module")
def hamming_r():
    return codes.hamming_743()


@pytest.fixture(scope="module")
def deformed13(target13, hamming_r):
    return surgery.build_deformed(target13, gf2.bitmat([[1]]), hamming_r)


class TestBuildGlue:
    def test_surface_target(self, target13):
        glue = surgery.build_glue(target13, [[1]])
        assert surgery.verify_glue(target13, glue) == []

    def test_empty_measurement(self, target13):
        glue = surgery.build_glue(target13, gf2.zeros(0, 1))
        assert glue.n_g == 0
        assert surgery.verify_glue(target13, glue) == []

    def test_steane_selection_weights(self):
        code = codes.steane()
        glue = surgery.build_glue(code, [[1]])
        assert np.all(glue.s.sum(axis=1) == 1)
        assert np.all(glue.s.sum(axis=0) <= 1)
        assert surgery.verify_glue(code, glue) == []

    def test_thickness_violation_rejected(self):
        two = codes.direct_sum_css(codes.steane(), codes.steane())
        overlapping = gf2.bitmat([[1, 1], [1, 0]])
        with pytest.raises(surgery.GlueConstructionError):
            surgery.build_glue(two, overlapping)


class TestVerifyGlue:
    def test_zeroed_s_cites_condition_ii(self, target13):
        glue = surgery.build_glue(target13, [[1]])
        glue.s = gf2.zeros(*glue.s.shape)
        report = surgery.verify_glue(target13, glue)
        assert any("condition ii)" in item for item in report)

    def test_zeroed_t_cites_condition_i(self, target13):
        glue = surgery.build_glue(target13, [[1]])
        glue.t = gf2.zeros(*glue.t.shape)
        report = surgery.verify_glue(target13, glue)
        assert any("condition i)" in item for item in report)


class TestBuildDeformed:
    def test_column_count(self, deformed13, target13, hamming_r):
        # k_R·n + r_R·n_G + n_R·r_X with n = 13, n_G = 3, r_X = 6
        n_g = deformed13.glue.n_g
        r_x = target13.h_x.shape[0]
        assert deformed13.css.n == 4 * 13 + 3 * n_g + 7 * r_x

    def test_css_identities(self, deformed13):
        assert codes.validate_css(deformed13.css) == []

    def test_lifted_conditions(self, deformed13):
        assert surgery.verify_lifted_conditions(deformed13) == []

    def test_pairing_dimension(self, deformed13):
        # Measuring the only logical leaves no tracked pairs.
        assert deformed13.css.k == 0

    def test_single_block_degenerate(self):
        # k_R = 1 with a length-1 R code collapses to the one-block layout
        # [[h_z, 0], [s, h_gᵀ]] / [h_x | t].
        code = codes.steane()
        glue = surgery.build_glue(code, [[1]])
        dc = surgery.build_deformed(code, [[1]], codes.repetition(1), glue)
        n1, n2, n3 = dc.n_sectors
        assert (n1, n2, n3) == (7, 0, glue.r_g)
        expected_hdz = np.concatenate([
            np.concatenate([code.h_z, gf2.zeros(3, glue.r_g)], axis=1),
            np.concatenate([glue.s, glue.h_g.T], axis=1),
        ])
        assert np.array_equal(dc.css.h_z, expected_hdz)
        expected_hdx = np.concatenate([code.h_x, glue.t], axis=1)
        assert np.array_equal(dc.css.h_x, expected_hdx)

    def test_weight_bound(self, deformed13):
        # The deformed checks stay LDPC: no row or column outweighs the
        # inputs' heaviest row plus heaviest column plus one.
        dc = deformed13
        inputs = [gf2.weight_profile(m)
                  for m in (dc.target.h_x, dc.target.h_z, dc.r_code.h)]
        cap = (max(p.max_row_weight for p in inputs)
               + max(p.max_col_weight for p in inputs) + 1)
        for m in (dc.css.h_x, dc.css.h_z):
            wp = gf2.weight_profile(m)
            assert max(wp.max_row_weight, wp.max_col_weight) <= cap

    def test_bad_supplied_glue_rejected(self, target13, hamming_r):
        glue = surgery.build_glue(target13, [[1]])
        glue.t = gf2.zeros(*glue.t.shape)
        with pytest.raises(surgery.GlueConstructionError,
                           match="invalid glue set: condition i"):
            surgery.build_deformed(target13, [[1]], hamming_r, glue)

    def test_glue_verified_once(self, target13, hamming_r, monkeypatch):
        # A glue build_deformed builds itself is verified as it is built,
        # and a supplied one as it is passed in: once either way.
        calls = []
        verify = surgery.verify_glue
        monkeypatch.setattr(surgery, "verify_glue",
                            lambda *a: calls.append(a) or verify(*a))
        glue = surgery.build_deformed(target13, [[1]], hamming_r).glue
        assert len(calls) == 1
        surgery.build_deformed(target13, [[1]], hamming_r, glue)
        assert len(calls) == 2

    def test_requires_standard_form_r(self, target13):
        bad = codes.hamming_743()
        bad.g = bad.g[:, ::-1].copy()
        with pytest.raises(ValueError):
            surgery.build_deformed(target13, [[1]], bad)


class TestExtraction:
    def test_identity_holds(self, deformed13):
        coeff = surgery.measured_extraction(deformed13)
        assert coeff.shape == (4, deformed13.css.h_z.shape[0])

    def test_empty_measurement(self, target13):
        glue = surgery.build_glue(target13, gf2.zeros(0, 1))
        dc = surgery.build_deformed(target13, gf2.zeros(0, 1),
                                    codes.hamming_743(), glue)
        coeff = surgery.measured_extraction(dc)
        assert coeff.shape[0] == 0

    def test_single_block(self):
        code = codes.steane()
        dc = surgery.build_deformed(code, [[1]], codes.repetition(1))
        coeff = surgery.measured_extraction(dc)
        # One measured operator, reconstructed from the s-coupled rows.
        assert coeff.shape == (1, dc.css.h_z.shape[0])


def first_violation(css, budget):
    """(side, vector) of the first weight-≤budget logical error in
    (weight, lexicographic) order, the whole X side first, else None: its
    side is the first with such an error, and its weight that side's
    least."""
    for side, checks, flags in (("X", css.h_z, css.j_z),
                                ("Z", css.h_x, css.j_x)):
        if flags.shape[0] == 0:
            continue
        for w in range(1, budget + 1):
            for combo in combinations(range(css.n), w):
                u = gf2.zeros(1, css.n)[0]
                u[list(combo)] = 1
                if not gf2.mul(checks, u).any() and gf2.mul(flags, u).any():
                    return side, u
    return None


class TestDistanceBound:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 11), st.integers(0, 8), st.integers(0, 3),
           st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_first_violation_vs_combinations(self, n, rows, k, budget, seed):
        # Arbitrary matrices: the collision that certifies a clean side or
        # returns a violation does not depend on them forming a valid CSS
        # code.  The violation is a least-weight logical of the first side
        # that has one, not necessarily the lexicographically first.
        rng = np.random.default_rng(seed)
        bits = lambda r: rng.integers(0, 2, size=(r, n)).astype(np.uint8)
        css = codes.CssCode(h_x=bits(rows), h_z=bits(rows), j_x=bits(k),
                            j_z=bits(k), n=n, k=k)
        dc = surgery.DeformedCode(css=css, glue=None, r_code=None, target=None)
        cert = surgery.verify_distance_bound(dc, budget)
        want = first_violation(css, budget)
        assert cert.ok == (want is None)
        if want is not None:
            side, u = want
            checks, flags = ((css.h_z, css.j_z) if side == "X"
                             else (css.h_x, css.j_x))
            assert cert.side == side
            assert gf2.weight(cert.violation) == gf2.weight(u)
            assert not gf2.mul(checks, cert.violation).any()
            assert gf2.mul(flags, cert.violation).any()

    def test_budget_zero(self, deformed13):
        assert surgery.verify_distance_bound(deformed13, 0).ok

    def test_negative_budget_rejected(self, deformed13):
        with pytest.raises(ValueError, match="budget=-3 is negative"):
            surgery.verify_distance_bound(deformed13, -3)

    def test_weight2_certified(self, deformed13):
        cert = surgery.verify_distance_bound(deformed13, 2)
        assert cert.ok

    def test_budget_above_floor_rejected(self, deformed13):
        with pytest.raises(ValueError):
            surgery.verify_distance_bound(deformed13, 3)

    def test_asymmetric_target_partial_measurement(self, hamming_r):
        # Four logical qubits; measure two of them, leaving a nontrivial
        # beta certificate and unmeasured logical bookkeeping.
        target = codes.hypergraph_product(codes.hamming_743(), codes.repetition(3))
        assert target.k == 4
        alpha = gf2.bitmat([[1, 0, 0, 0], [0, 1, 0, 0]])
        glue = surgery.build_glue(target, alpha)
        assert surgery.verify_glue(target, glue) == []
        dc = surgery.build_deformed(target, alpha, hamming_r, glue)
        assert codes.validate_css(dc.css) == []
        assert dc.css.k == hamming_r.k * 2
        assert surgery.verify_lifted_conditions(dc) == []
        surgery.measured_extraction(dc)
        assert surgery.verify_distance_bound(dc, 1).ok

    def test_reach_surface5_pair(self):
        # Beyond a plain sweep: C(327, ≤4) ≈ 4.7·10^8 sets per side, where
        # the collision sweeps C(327, ≤2) = 53,629.
        s5 = codes.surface_code_via_hgp(5)
        dc = surgery.build_deformed(codes.direct_sum_css(s5, s5),
                                    gf2.bitmat([[1, 1]]), codes.repetition(5))
        assert (dc.css.n, dc.css.k, dc.css.d) == (327, 1, 5)
        assert surgery.verify_distance_bound(dc, 4).ok

    def test_surface5_pair_violation(self):
        # With d unset the budget may reach d: the X side's collision to
        # weight 3 returns a weight-5 logical, where a sweep to the budget
        # would list C(82, ≤5) ≈ 2.6·10^7 sets.
        s5 = codes.surface_code_via_hgp(5)
        css = replace(codes.direct_sum_css(s5, s5), d=None)
        dc = surgery.DeformedCode(css=css, glue=None, r_code=None,
                                  target=None)
        cert = surgery.verify_distance_bound(dc, 5)
        assert (cert.ok, cert.side, gf2.weight(cert.violation)) == (
            False, "X", 5)
        assert not gf2.mul(css.h_z, cert.violation).any()
        assert gf2.mul(css.j_z, cert.violation).any()

    def test_composite_build_certified(self, target13, hamming_r):
        two = codes.direct_sum_css(target13, target13)
        dc = surgery.build_deformed(two, gf2.bitmat([[1, 1]]), hamming_r)
        assert surgery.verify_lifted_conditions(dc) == []
        assert surgery.verify_distance_bound(dc, 2).ok

    @staticmethod
    def corrupted(target13, hamming_r):
        """A composite target with one unmeasured logical per copy, its
        target-code Z checks and readout couplings of copy 0 zeroed: low
        weight X errors slip through as logical errors."""
        two = codes.direct_sum_css(target13, target13)
        dc = surgery.build_deformed(two, gf2.bitmat([[1, 1]]), hamming_r)
        assert dc.css.k == 4
        corrupt = dc.css
        zapped = corrupt.h_z.copy()
        # Blind copy 0: its target Z checks and its readout couplings.
        r_z, n_g = two.h_z.shape[0], dc.glue.n_g
        zapped[0:r_z] = 0
        zapped[4 * r_z: 4 * r_z + n_g] = 0
        corrupt = codes.CssCode(h_x=corrupt.h_x, h_z=zapped, j_x=corrupt.j_x,
                                j_z=corrupt.j_z, n=corrupt.n, k=corrupt.k)
        return surgery.DeformedCode(css=corrupt, glue=dc.glue,
                                    r_code=dc.r_code, target=dc.target)

    def test_corrupted_checks_flagged(self, target13, hamming_r):
        cert = surgery.verify_distance_bound(
            self.corrupted(target13, hamming_r), 2)
        assert not cert.ok
        assert gf2.weight(cert.violation) <= 2

    def test_violation_without_listing(self, target13, hamming_r,
                                       monkeypatch):
        # The collision's own word is the violation: no combination_sweep.
        bad_dc = self.corrupted(target13, hamming_r)

        def no_listing(cols, t):
            raise AssertionError("combination_sweep called")

        monkeypatch.setattr(gf2, "combination_sweep", no_listing)
        cert = surgery.verify_distance_bound(bad_dc, 2)
        v, css = cert.violation, bad_dc.css
        assert not cert.ok and 0 < gf2.weight(v) <= 2
        checks, flags = ((css.h_z, css.j_z) if cert.side == "X"
                         else (css.h_x, css.j_x))
        assert not gf2.mul(checks, v).any() and gf2.mul(flags, v).any()

    @pytest.mark.parametrize("bad", ["unflagged", "detected", "heavy"])
    def test_wrong_word_raises(self, target13, hamming_r, monkeypatch, bad):
        # The certificate confirms the word it returns bit for bit.
        bad_dc = self.corrupted(target13, hamming_r)
        v = surgery.verify_distance_bound(bad_dc, 2).violation
        u = {"unflagged": gf2.zeros(1, len(v))[0],
             "detected": np.eye(len(v), dtype=np.uint8)[
                 np.flatnonzero(bad_dc.css.h_z.any(axis=0))[0]],
             "heavy": np.ones_like(v)}[bad]
        monkeypatch.setattr(surgery, "least_logical",
                            lambda checks, flags, budget: u)
        with pytest.raises(surgery.InternalConsistencyError,
                           match="not a logical of weight 1..2"):
            surgery.verify_distance_bound(bad_dc, 2)


# sha256 (conftest.digest) of each golden deformed code's matrices, taken
# when build_deformed wrote its block matrices out inline.
DEFORMED_DIGESTS = {
    "composite": {
        "h_x":
            "7f7220c5c145cc8d7199b17753b58de256e938a06a78c93ffa11c144dbedb435",
        "h_z":
            "c25bd6528715a9d4774fd57afbf94adf617cf9acde753f35cdc13f52d0d49b00",
        "j_x":
            "d16583f52279ad34ece2941acb9fd00cbcd7d309232e4720a9eddce09a397d70",
        "j_z":
            "8a9a5db184a1d28cdac301b8f54be77563cb35df3a3865a45bd30126fa14b5e1",
    },
    "desk": {
        "h_x":
            "6c456972f3a319dba363cb620a454a65f54a9869a2f2ae5f024056d762e37464",
        "h_z":
            "385b9facf31af900d4b624404e9dacb13649e38d46ccb4b99c63f87365b40d9f",
        "j_x":
            "9b31659983a89e9f9a17cb775b556dbe12a7cd32164d2a4a6ec416f18d4bf83d",
        "j_z":
            "9b31659983a89e9f9a17cb775b556dbe12a7cd32164d2a4a6ec416f18d4bf83d",
    },
    "surface5_rep3": {
        "h_x":
            "0d91d226c56330a1dd36df09cac71a75cf16e6aa2fde2950d95cbe4291ca3f68",
        "h_z":
            "77dcddd02fb48a6042d288599f8d4dd920b892ebfa561cb22754c3916e8f2acc",
        "j_x":
            "f89ead511948835dbe69cee7304a0d859e8851e4a154df4b49150be344be8db8",
        "j_z":
            "f89ead511948835dbe69cee7304a0d859e8851e4a154df4b49150be344be8db8",
    },
}


def test_deformed_matrices_unchanged(golden_build, digest):
    name, dc = golden_build
    for attr, want in DEFORMED_DIGESTS[name].items():
        assert digest(getattr(dc.css, attr)) == want, attr
