"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with -s or on failure)
and enforces the stated runtime budget where one is given.
"""

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from qsurg import cli, codes, frame, gf2, ltsp, protocol, sim, surgery, tableau
from qsurg import compile as qcompile

SEED = 42


def report(num, name, ok, budget=None, elapsed=None, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{elapsed:.1f}s / {budget:.0f}s]" if budget else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{extra} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


@pytest.fixture(scope="module")
def deformed13():
    target = codes.surface_code_via_hgp(3)
    return surgery.build_deformed(target, gf2.bitmat([[1]]),
                                  codes.hamming_743())


def test_criterion_1_code_suite():
    t0 = time.time()
    suite = [codes.repetition(3), codes.repetition(5), codes.hamming_743(),
             codes.steane(), codes.surface_code_via_hgp(3)]
    ok = True
    for code, d in zip(suite, (3, 5, 3, 3, 3)):
        if isinstance(code, codes.ClassicalCode):
            ok &= codes.validate_classical(code) == []
        else:
            ok &= codes.validate_css(code) == []
        ok &= codes.distance(code).d == d
    report(1, "code suite distances", ok, budget=10, elapsed=time.time() - t0)


def test_criterion_2_soundness():
    t0 = time.time()
    ham = codes.hamming_743()
    s = codes.soundness(ham)
    ok = s == Fraction(7, 3)
    r, n = ham.h.shape
    for bits in range(1 << r):
        v = gf2._unpack(bits, r)
        u = gf2.solve_linear(ham.h, v, mode="min_weight")
        ok &= u is not None
        ok &= gf2.weight(u) <= Fraction(n, r) / s * gf2.weight(v)
    report(2, "soundness + preimage bound", ok, budget=5,
           elapsed=time.time() - t0, detail=f"s={s}")


def test_criterion_3_deformed_build(deformed13):
    t0 = time.time()
    dc = deformed13
    ok = surgery.verify_glue(dc.target, dc.glue) == []
    ok &= surgery.verify_lifted_conditions(dc) == []
    surgery.measured_extraction(dc)  # raises on failure
    bound = min(dc.target.d, dc.r_code.d)
    cert = surgery.verify_distance_bound(dc, bound - 1)
    ok &= cert.ok
    report(3, "deformed-code build + distance", ok, budget=120,
           elapsed=time.time() - t0,
           detail=f"weight<={bound - 1} sweep clean")


def test_criterion_4_preparation_circuit():
    t0 = time.time()
    source = codes.surface_code_via_hgp(3)
    f = codes.hamming_743()
    prep = ltsp.build_prep_circuit(source, f)
    res = tableau.run_tableau(prep.circuit, force_zero=True)
    ok = not res.outcomes.any()
    rs = ltsp.resource_state(source)
    with cli._rng(SEED, "prep.tableau") as rng:
        tres = tableau.run_tableau(prep.circuit, rng=rng)
    for j in range(prep.k_f):
        b, c = prep.copy_qubits(j)
        qubits = np.concatenate([b, c])
        for row in rs.h_rs_x:
            ok &= tableau.stabilizer_phase(
                tres.sim, qubits, row, np.zeros(2 * source.n)) == 0
        for row in rs.h_rs_z:
            ok &= tableau.stabilizer_phase(
                tres.sim, qubits, np.zeros(2 * source.n), row) == 0
    violations = 0
    checked = 0
    for j in range(f.k):
        spp = ltsp.sp_matrices(source, f, j)
        rz = ltsp.sweep_z_lemma(spp, max_weight=2)
        rx = ltsp.sweep_x_lemma(spp, max_weight=1, samples=10000 // f.k,
                                seed=SEED, stream=cli._SITES["ltsp.spZ"] + j)
        violations += rz.violations + rx.violations
        checked += rz.checked + rx.checked
    ok &= violations == 0
    report(4, "preparation circuit + residual bounds", ok, budget=600,
           elapsed=time.time() - t0,
           detail=f"checked={checked} violations={violations}")


def test_criterion_5_teleported_measurement():
    t0 = time.time()
    source = codes.surface_code_via_hgp(3)
    tm = protocol.build_tele_measurement(source)
    ok = True
    n_tot = tm.layout.total
    with cli._rng(SEED, "tele.faults") as rng:
        e = gf2.fault_rows(rng, n_tot, np.arange(n_tot),
                           rng.integers(1, 5, size=10000))
    ok &= bool(protocol.effective_z_error(tm, e)[1].all())
    ok &= bool(protocol.effective_x_error(tm, e)[1].all())
    with cli._rng(SEED, "tele.frames") as rng:
        draws = rng.integers(0, 2, size=(2000, source.n), dtype=np.uint8)
    x_in, z_in = draws.reshape(1000, 2, source.n).transpose(1, 0, 2)
    locs = tm.col_locs["A1"]
    r = frame.run_lanes(tm.circuit, frame.fault_matrix(
        tm.circuit, locs, x_in * frame.X | z_in * frame.Z))
    mismatches = int(np.count_nonzero(
        (tm.derived_outcome(r.outcome_flips)
         != gf2.mul(x_in, source.h_z.T)).any(axis=1)))
    mismatches += int(np.count_nonzero(
        (r.x_on(tm.c_ids) != x_in).any(axis=1)
        | (r.z_on(tm.c_ids) != z_in).any(axis=1)))
    ok &= mismatches == 0
    report(5, "teleported measurement", ok, elapsed=time.time() - t0,
           budget=600, detail=f"mismatches={mismatches}")


def test_criterion_6_surgery_end_to_end(deformed13):
    t0 = time.time()
    dc = deformed13
    target = dc.target
    run = protocol.build_surgery_circuit(dc)
    with cli._rng(SEED, "surgery.tableau") as rng:
        res0 = tableau.run_tableau(run.expanded.circuit, rng=rng)
    ok = not run.measured_bits(run.expanded, res0.outcomes).any()
    ok &= not run.detector_bits(run.expanded, res0.outcomes).any()
    locs = []
    for copy in range(dc.k_r):
        locs += [run.expanded.col_locs["M1"][copy * target.n + i]
                 for i in np.nonzero(target.j_x[0])[0]]
    with cli._rng(SEED, "surgery.tableau", 1) as rng:
        res1 = tableau.run_tableau(run.expanded.circuit, x_errors=locs,
                                   rng=rng)
    ok &= bool(run.measured_bits(run.expanded, res1.outcomes).all())
    with cli._rng(SEED, "cs.residualZ") as rng:
        okz, dz = cli._sweep_residual_z(run, run.layout, 1, 10000, rng)
    with cli._rng(SEED, "cs.outcomeX") as rng:
        okx, dx = cli._sweep_outcome_x(run, run.layout, 1, 10000, rng)
    ok &= okz and okx
    report(6, "surgery end to end", ok, elapsed=time.time() - t0, budget=600,
           detail=f"residualZ {dz}; outcomeX {dx}")


def test_criterion_7_monte_carlo_trend():
    t0 = time.time()
    est = {}
    ok = True
    for d in (3, 5):
        exp = sim.build_memory_experiment(codes.surface_code_via_hgp(d))
        stream = cli._SITES[f"sim.d{d}"]
        zero = sim.logical_error_rate(exp, 0.0, 1000, SEED, stream)
        ok &= zero.failures == 0
        est[d] = sim.logical_error_rate(exp, 1e-3, 100000, SEED, stream)
    ok &= est[5].rate < est[3].rate
    ok &= est[5].ci_high < est[3].ci_low  # non-overlapping Wilson intervals
    report(7, "Monte Carlo distance trend", ok, budget=900,
           elapsed=time.time() - t0,
           detail=(f"d3={est[3].rate:.5f} ({est[3].ci_low:.5f},"
                   f"{est[3].ci_high:.5f}) d5={est[5].rate:.5f} "
                   f"({est[5].ci_low:.5f},{est[5].ci_high:.5f})"))


def test_criterion_8_scheduler():
    t0 = time.time()
    ok = True
    with cli._rng(SEED, "compile.schedule") as rng:
        for _ in range(200):
            k = int(rng.integers(1, 7))
            blocks = int(rng.integers(2, 33))
            ops = cli._random_layer(rng, blocks, k)
            sched = qcompile.serialize(ops, k)
            ok &= sched.validate(ops) == []
            ok &= all(qcompile.is_block_disjoint(cls) for cls in sched.classes)
            ok &= sched.colors <= 2 * k - 1
            flat = [op for cls in sched.classes for op in cls]
            ok &= sorted(map(id, flat)) == sorted(map(id, ops))
    report(8, "scheduler", ok, elapsed=time.time() - t0, budget=120)


def test_criterion_9_cost_arithmetic():
    t0 = time.time()
    with cli._rng(SEED, "compile.batch") as rng:
        grid = [rng.integers(lo, hi, size=1000).tolist()
                for lo, hi in ((0, 5000), (1, 9), (1, 9), (1, 6))]
    ok = True
    for numv, k_r, k_f, d_s in zip(*grid):
        ok &= qcompile.batch(numv, k_r, k_f, d_s) <= \
            qcompile.batch_bound(numv, k_r, k_f, d_s)
    ops = [qcompile.LogicalOp("CNOT", (f"u{i}", f"v{i}"), (0, 0))
           for i in range(10)]
    rep = qcompile.sublayer_cost(ops, k_r=4, k_f=4, d_s=3)
    ok &= rep.sum_batches <= rep.sum_bound
    ok &= qcompile.decompose("MEA").measurements == ("Zj",)
    ok &= qcompile.decompose("H").measurements == ("Zj*Z1", "Xj", "Zj*X1", "Z1")
    ok &= qcompile.decompose("S").measurements == ("Z1*Z1", "Zj*Z1*X1", "X1")
    ok &= qcompile.decompose("T").measurements == (
        "Zj*Z1", "X1", "X1", "Z1*Z1", "Zj*Z1*X1")
    ok &= qcompile.decompose("CNOT").measurements == ("Za*Z1", "Xb*X1", "Z1")
    ok &= qcompile.decompose("INIT").extra_resources == ("HM_X",)
    for a in (1, 1.5, 2):
        ok &= qcompile.overhead_exponents(a)["this scheme"] == ("0", f"{a:g}")
    report(9, "cost arithmetic + static tables", ok,
           elapsed=time.time() - t0, budget=120)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "qsurg.cli", "ledger", "--preset", "desk",
             "--seed", "42", "--out", str(out)],
            capture_output=True, text=True, timeout=1200)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append((out / "ledger.tsv").read_bytes())
        assert b"FAIL" not in outs[-1]
    report(10, "ledger determinism", outs[0] == outs[1],
           elapsed=time.time() - t0, budget=1200)
