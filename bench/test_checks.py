"""Every benchmark check passes on a right answer and fails on a wrong one.

    python3 -m pytest -q bench/test_checks.py

Each test builds a right answer (from qsurg where that is cheap, by hand
otherwise), confirms every check passes on it, then breaks one part at a
time and confirms that the check guarding that part, and only that
check, fails.  A check that no wrong answer can fail would be vacuous.
"""

import copy
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from qsurg import codes, gf2, surgery  # noqa: E402


def failing(results):
    return sorted(c.name for c in results if not c.ok)


# ── desk ledger ─────────────────────────────────────────────────────────


def desk_rows():
    return [(k, True, f"detail {i}") for i, k in enumerate(checks.DESK_KEYS)]


def desk_tsv(rows):
    return "\n".join(["key\tstatus\tdetail"] + [
        f"{k}\t{'pass' if g else 'FAIL'}\t{d}" for k, g, d in rows]) + "\n"


def test_desk_right_answer_passes():
    rows = desk_rows()
    assert failing(checks.desk_ledger(rows, desk_tsv(rows))) == []


def test_desk_failed_row():
    rows = desk_rows()
    rows[14] = (rows[14][0], False, "checked=0")
    assert failing(checks.desk_ledger(rows, desk_tsv(rows))) == [
        "desk.row.lemma.cs.residualZ"]


def test_desk_missing_key():
    rows = desk_rows()[:-1]
    assert failing(checks.desk_ledger(rows, desk_tsv(rows))) == ["desk.keys"]


def test_desk_tsv_disagrees():
    rows = desk_rows()
    tsv = desk_tsv(rows).replace("pass", "FAIL", 1)
    assert failing(checks.desk_ledger(rows, tsv)) == ["desk.tsv"]


# ── Monte Carlo ─────────────────────────────────────────────────────────


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def mc_right(reference):
    """Pooled counts at each reference point's own rate, 32k trials."""
    points = {}
    for name, band in reference["points"].items():
        trials = 32000
        points[name] = (round(band["rate"] * trials), trials)
    return points, {3: (0, 1000), 5: (0, 1000)}


def test_mc_right_answer_passes(reference):
    points, p0 = mc_right(reference)
    assert failing(checks.mc_memory(points, p0, reference)) == []


def test_mc_p0_failure(reference):
    points, p0 = mc_right(reference)
    p0[5] = (1, 1000)
    assert failing(checks.mc_memory(points, p0, reference)) == ["mc.p0.d5"]


@pytest.mark.parametrize("name", ["mc_d3_sparse", "mc_d5_sparse", "mc_d5_dense"])
@pytest.mark.parametrize("factor", [0.4, 2.0])
def test_mc_rate_off_band(reference, name, factor):
    points, p0 = mc_right(reference)
    fails, trials = points[name]
    points[name] = (round(fails * factor), trials)
    got = failing(checks.mc_memory(points, p0, reference))
    assert f"mc.band.{name}" in got
    assert set(got) <= {f"mc.band.{name}", "mc.trend"}


def test_mc_trend_reversed(reference):
    points, p0 = mc_right(reference)
    f3, t3 = points["mc_d3_sparse"]
    # Same d3 rate for d5: inside neither ordering, so the trend fails.
    points["mc_d5_sparse"] = (f3, t3)
    assert "mc.trend" in failing(checks.mc_memory(points, p0, reference))


def test_mc_no_trials(reference):
    points, p0 = mc_right(reference)
    points["mc_d5_dense"] = (0, 0)
    assert failing(checks.mc_memory(points, p0, reference)) == [
        "mc.band.mc_d5_dense"]


# ── exhaustive certification ────────────────────────────────────────────


@pytest.fixture(scope="module")
def certify_right():
    """A right certify answer, built from qsurg's small instances plus the
    known sizes of the expensive ones."""
    ham = codes.hamming_743()
    s3 = codes.surface_code_via_hgp(3)
    pair = codes.direct_sum_css(s3, s3)
    dc = surgery.build_deformed(pair, gf2.bitmat([[1, 1]]), ham)
    r_z, n_g = pair.h_z.shape[0], dc.glue.n_g
    zapped = dc.css.h_z.copy()
    zapped[0:r_z] = 0
    zapped[4 * r_z: 4 * r_z + n_g] = 0
    css = codes.CssCode(h_x=dc.css.h_x, h_z=zapped, j_x=dc.css.j_x,
                        j_z=dc.css.j_z, n=dc.css.n, k=dc.css.k)
    bad = surgery.verify_distance_bound(
        surgery.DeformedCode(css=css, glue=dc.glue, r_code=dc.r_code,
                             target=dc.target), 2)
    pre = []
    for bits in range(8):
        v = np.array([(bits >> i) & 1 for i in range(3)], dtype=np.uint8)
        pre.append((v, gf2.solve_linear(ham.h, v, mode="min_weight")))
    want = checks.CERTIFY
    return {
        "distance": codes.DistanceResult(d=5, floor=4),
        "soundness": Fraction(7, 3),
        "hamming_h": ham.h,
        "preimages": pre,
        "table": ((want["table_entries"],) * 2, want["table_depth"]),
        "composite": (dc.css.n, dc.css.k,
                      surgery.verify_distance_bound(dc, 2)),
        "corrupt": (bad, css.h_z, css.j_z),
        "z_sweeps": [(want["z_checked"], 0)] * 4,
        "x_sweeps": [(want["x_checked_base"] + 2500, 0)] * 4,
    }


def test_certify_right_answer_passes(certify_right):
    assert failing(checks.certify(certify_right, 2500)) == []


def _broken(ans, key, value):
    out = copy.copy(ans)
    out[key] = value
    return out


def test_certify_wrong_answers(certify_right):
    ans = certify_right
    comp_n, comp_k, comp_cert = ans["composite"]
    bad_cert, h_z, j_z = ans["corrupt"]
    # A heavier preimage: the right one plus a codeword that adds weight.
    h = ans["hamming_h"]
    v, u = ans["preimages"][3]
    heavier = next(u ^ c for c in codes.hamming_743().g
                   if (u ^ c).sum() > u.sum())
    preimages = list(ans["preimages"])
    preimages[3] = (v, heavier)
    # A weight-1 "violation" that the corrupted checks still detect.
    i = int(np.nonzero(h_z.any(axis=0))[0][0])
    detected = np.zeros(h_z.shape[1], dtype=np.uint8)
    detected[i] = 1
    fake_violation = replace(bad_cert, violation=detected)
    assert np.array_equal(gf2.mul(h, heavier), v)
    cases = [
        ("distance", codes.DistanceResult(d=4, floor=3), "certify.distance"),
        ("distance", codes.DistanceResult(d=None, floor=4), "certify.distance"),
        ("soundness", Fraction(2, 1), "certify.soundness"),
        ("preimages", preimages, "certify.preimages"),
        ("preimages", ans["preimages"][:-1], "certify.preimages"),
        ("table", ((228460, 228461), 5), "certify.table"),
        ("table", ((228461, 228461), 4), "certify.table"),
        ("composite", (comp_n, 3, comp_cert), "certify.composite"),
        ("composite", (comp_n, comp_k, replace(comp_cert, ok=False)),
         "certify.composite"),
        ("corrupt", (replace(bad_cert, ok=True, violation=None), h_z, j_z),
         "certify.corrupt"),
        ("corrupt", (fake_violation, h_z, j_z), "certify.corrupt"),
        ("z_sweeps", [(650369, 0)] + ans["z_sweeps"][1:], "certify.sweep_z"),
        ("z_sweeps", ans["z_sweeps"][:3] + [(650370, 1)], "certify.sweep_z"),
        ("z_sweeps", ans["z_sweeps"][:3], "certify.sweep_z"),
        ("x_sweeps", [(3717, 0)] + ans["x_sweeps"][1:], "certify.sweep_x"),
        ("x_sweeps", ans["x_sweeps"][:3] + [(3718, 2)], "certify.sweep_x"),
    ]
    for key, value, name in cases:
        assert failing(checks.certify(_broken(ans, key, value), 2500)) == [name], (
            key, name)


# ── tableau oracle ──────────────────────────────────────────────────────


def oracle_right():
    zeros8 = np.zeros(8, dtype=np.uint8)
    flips = np.array([0, 1, 1, 0, 0, 1, 0, 0], dtype=np.uint8)
    m_flip = np.array([0, 1, 0, 0], dtype=np.uint8)
    m_zero = np.zeros(4, dtype=np.uint8)
    d_zero = np.zeros(3, dtype=np.uint8)
    return [
        {"circuit": "c", "mode": "noiseless", "tableau": flips,
         "frame": zeros8, "measured_tableau": m_zero, "measured_frame": m_zero,
         "measured_expected": m_zero, "detector_tableau": d_zero,
         "detector_frame": d_zero, "detector_expected": d_zero},
        {"circuit": "c", "mode": "x_logical", "tableau": flips.copy(),
         "frame": flips.copy(), "measured_tableau": m_flip.copy(),
         "measured_frame": m_flip.copy(), "measured_expected": m_flip.copy(),
         "detector_tableau": d_zero, "detector_frame": d_zero,
         "detector_expected": d_zero},
    ]


def test_oracle_right_answer_passes():
    assert failing(checks.oracle(oracle_right())) == []


@pytest.mark.parametrize("index,key,name", [
    (1, "tableau", "oracle.c.x_logical.outcomes"),
    (0, "measured_tableau", "oracle.c.noiseless.measured"),
    (0, "detector_tableau", "oracle.c.noiseless.detector"),
    (1, "measured_tableau", "oracle.c.x_logical.measured"),
    (1, "detector_frame", "oracle.c.x_logical.detector"),
])
def test_oracle_disagreement(index, key, name):
    runs = oracle_right()
    runs[index][key] = runs[index][key] ^ np.eye(1, runs[index][key].size,
                                                  dtype=np.uint8)[0]
    assert failing(checks.oracle(runs)) == [name]


def test_oracle_wrong_expected_pattern():
    # Tableau and frame agree, but on the wrong copy.
    runs = oracle_right()
    wrong = np.array([1, 0, 0, 0], dtype=np.uint8)
    runs[1]["measured_tableau"] = wrong
    runs[1]["measured_frame"] = wrong.copy()
    assert failing(checks.oracle(runs)) == ["oracle.c.x_logical.measured"]
