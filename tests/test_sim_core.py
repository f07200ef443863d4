"""Circuit IR, frame simulation vs tableau oracle, primitive decompositions."""

import itertools
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsurg import (cli, codes, frame, gf2, ltsp, protocol, sim, surgery,
                   tableau)
from qsurg.circuit import (Circuit, FeedbackOp, GCnotOp, HLayerOp, InitOp, Loc,
                           MeasureOp, ProjectiveOp, fault_locs)


def build_mixed_circuit():
    """Small two-block circuit exercising every primitive op."""
    rng = np.random.default_rng(42)
    c = Circuit()
    a = c.new_block("a", 4)
    b = c.new_block("b", 3)
    c.init(a, "+")
    c.init(b, "0")
    coupling = rng.integers(0, 2, size=(4, 3)).astype(np.uint8)
    c.gcnot(a, b, coupling)
    c.h_layer(b[:2])
    checks = gf2.bitmat([[1, 1, 0, 0], [0, 1, 1, 0]])
    _, s1 = c.measure_pauli("X", checks, a)
    c.feedback("Z", a, gf2.bitmat([[1, 0, 0, 0], [0, 1, 0, 0]]), s1, 2)
    _, s2 = c.measure(b, "Z")
    c.feedback("X", a[:3], gf2.eye(3), s2, 3)
    c.measure(a, "X")
    return c


def frame_vs_tableau(circ, x_locs=(), z_locs=(), flip_locs=(), flips=None):
    """Whether the frame outcome flips (of run_frames, or `flips`) are what
    the faults do in the tableau: its run with the faults, its random
    outcomes forced to the noiseless run's XOR the flips, reports exactly
    the noiseless outcomes XOR the flips.  The noiseless run forces random
    outcomes to zero, so on this package's circuits it reads all zero."""
    if flips is None:
        flips = frame.run_frames(circ, x_locs=x_locs, z_locs=z_locs,
                                 flip_locs=flip_locs).outcome_flips
    want = tableau.run_tableau(circ, force_zero=True).outcomes ^ flips
    tr = tableau.run_tableau(circ, forced_outcomes=want, x_errors=x_locs,
                             z_errors=z_locs, flip_locs=flip_locs)
    return np.array_equal(tr.outcomes, want)


class TestTableauBasics:
    def test_bell_pair_forced_zero(self):
        c = Circuit()
        a = c.new_block("a", 1)
        b = c.new_block("b", 1)
        c.init(a, "+")
        c.init(b, "0")
        c.gcnot(a, b, gf2.eye(1))
        c.measure(np.concatenate([a, b]), "Z")
        res = tableau.run_tableau(c, force_zero=True)
        assert not res.outcomes.any()
        # First bit random, second forced into correlation => deterministic.
        assert not res.deterministic[0] and res.deterministic[1]

    def test_pauli_error_flips_deterministic_outcome(self):
        c = Circuit()
        a = c.new_block("a", 1)
        c.init(a, "0")
        c.measure(a, "Z")
        res = tableau.run_tableau(c, force_zero=True,
                                  x_errors=[Loc("q", 0, 0)])
        assert res.outcomes[0] == 1 and res.deterministic[0]

    def test_plus_state_stabilized(self):
        c = Circuit()
        a = c.new_block("a", 2)
        c.init(a, "+")
        res = tableau.run_tableau(c, force_zero=True)
        assert tableau.stabilizer_phase(res.sim, a, [1, 1], [0, 0]) == 0
        assert tableau.stabilizer_phase(res.sim, a, [0, 0], [1, 1]) is None


class TestFrameVsTableau:
    def test_reference_is_all_zero(self):
        circ = build_mixed_circuit()
        res = tableau.run_tableau(circ, force_zero=True)
        assert not res.outcomes.any()

    def test_all_weight_one_faults(self):
        circ = build_mixed_circuit()
        locs = circ.locations()
        for loc in locs:
            if loc.kind == "q":
                assert frame_vs_tableau(circ, x_locs=[loc]), f"X at {loc}"
                assert frame_vs_tableau(circ, z_locs=[loc]), f"Z at {loc}"
            else:
                assert frame_vs_tableau(circ, flip_locs=[loc]), f"flip at {loc}"

    def test_sampled_weight_two_faults(self):
        circ = build_mixed_circuit()
        qlocs = [l for l in circ.locations() if l.kind == "q"]
        rng = np.random.default_rng(7)
        for _ in range(60):
            l1, l2 = rng.choice(len(qlocs), size=2, replace=False)
            kinds = rng.integers(0, 2, size=2)
            xs = [qlocs[l] for l, k in zip((l1, l2), kinds) if k == 0]
            zs = [qlocs[l] for l, k in zip((l1, l2), kinds) if k == 1]
            assert frame_vs_tableau(circ, x_locs=xs, z_locs=zs)


class TestFrameProperties:
    def test_linearity(self):
        circ = build_mixed_circuit()
        qlocs = [l for l in circ.locations() if l.kind == "q"]
        rng = np.random.default_rng(11)
        for _ in range(25):
            picks = rng.choice(len(qlocs), size=4, replace=False)
            f1 = [qlocs[i] for i in picks[:2]]
            f2 = [qlocs[i] for i in picks[2:]]
            r1 = frame.run_frames(circ, x_locs=f1)
            r2 = frame.run_frames(circ, x_locs=f2)
            r12 = frame.run_frames(circ, x_locs=f1 + f2)
            assert np.array_equal(r12.outcome_flips,
                                  r1.outcome_flips ^ r2.outcome_flips)
            assert np.array_equal(r12.x_final, r1.x_final ^ r2.x_final)
            assert np.array_equal(r12.z_final, r1.z_final ^ r2.z_final)

    def test_xz_decoupling(self):
        # Z-only fault paths never flip X-type outcomes, and conversely —
        # on circuits without basis-changing layers.
        c = Circuit()
        a = c.new_block("a", 3)
        b = c.new_block("b", 3)
        c.init(a, "+")
        c.init(b, "0")
        c.gcnot(a, b, gf2.eye(3))
        _, sx = c.measure(a, "X")
        _, sz = c.measure(b, "Z")
        x_slots = set(range(sx, sx + 3))
        for loc in c.locations():
            if loc.kind != "q":
                continue
            rz = frame.run_frames(c, z_locs=[loc])
            rx = frame.run_frames(c, x_locs=[loc])
            assert not rz.outcome_flips[list(range(sz, sz + 3))].any()
            assert not rx.outcome_flips[list(range(sx, sx + 3))].any()


class TestProjectiveDecomposition:
    """A projective Z(B) measurement equals its ancilla-readout expansion."""

    @staticmethod
    def build_pair():
        checks = gf2.bitmat([[1, 1, 0, 1], [0, 1, 1, 0]])
        direct = Circuit()
        d = direct.new_block("data", 4)
        direct.mark_input(d)
        direct.measure_pauli("Z", checks, d)

        expanded = Circuit()
        e = expanded.new_block("data", 4)
        anc = expanded.new_block("anc", 2)
        expanded.mark_input(e)
        expanded.init(anc, "0")
        expanded.gcnot(e, anc, checks.T)
        expanded.measure(anc, "Z")
        return direct, expanded, d, e

    def test_outcomes_match_on_all_weight_le_2_input_faults(self):
        direct, expanded, d, e = self.build_pair()
        inputs = list(range(4))
        for w in (1, 2):
            for combo in itertools.combinations(inputs, w):
                for kinds in itertools.product("XZ", repeat=w):
                    dx = [Loc("q", -1, q) for q, k in zip(combo, kinds) if k == "X"]
                    dz = [Loc("q", -1, q) for q, k in zip(combo, kinds) if k == "Z"]
                    r_direct = frame.run_frames(direct, x_locs=dx, z_locs=dz)
                    r_exp = frame.run_frames(expanded, x_locs=dx, z_locs=dz)
                    assert np.array_equal(r_direct.outcome_flips,
                                          r_exp.outcome_flips)

    def test_propagation_weight_bounded_by_coupling(self):
        # One fault spreads to at most max-row/col-weight locations through
        # a generalized CNOT.
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, size=(5, 6)).astype(np.uint8)
        wp = gf2.weight_profile(a)
        c = Circuit()
        u = c.new_block("u", 5)
        v = c.new_block("v", 6)
        c.mark_input(np.concatenate([u, v]))
        c.gcnot(u, v, a)
        for q in range(5):
            r = frame.run_frames(c, x_locs=[Loc("q", -1, q)])
            spread = np.count_nonzero(r.x_final) - 1
            assert spread <= wp.max_row_weight
        for q in range(6):
            r = frame.run_frames(c, z_locs=[Loc("q", -1, 5 + q)])
            spread = np.count_nonzero(r.z_final) - 1
            assert spread <= wp.max_col_weight


# ── bitset tableau vs a row-by-row bool reference ───────────────────────


class RowByRowTableau:
    """Reference tableau on bool arrays: one Aaronson–Gottesman g function
    per entry, a full matmul for anticommutation and one rowsum per row, in
    row order.  Takes Paulis as qubit bitmasks, as tableau.Tableau does."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = True
            self.z[n + i, i] = True

    def h(self, q):
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def cnot(self, c, t):
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ True)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def pauli_x(self, q):
        self.r ^= self.z[:, q].astype(np.uint8)

    def pauli_z(self, q):
        self.r ^= self.x[:, q].astype(np.uint8)

    @staticmethod
    def _g(x1, z1, x2, z2):
        """Per-column exponent of i picked up by the product P1·P2."""
        x1, z1 = x1.astype(np.int8), z1.astype(np.int8)
        x2, z2 = x2.astype(np.int8), z2.astype(np.int8)
        return (x1 & z1) * (z2 - x2) \
            + (x1 & ~z1 & 1) * (z2 * (2 * x2 - 1)) \
            + (~x1 & 1 & z1) * (x2 * (1 - 2 * z2))

    def _vectors(self, x, z):
        return (gf2._unpack(x, self.n).astype(bool),
                gf2._unpack(z, self.n).astype(bool))

    def _anticommute(self, xv, zv):
        return ((self.x @ zv.astype(np.int64))
                + (self.z @ xv.astype(np.int64))) % 2 == 1

    def _rowsum_into(self, xh, zh, rh, i):
        gs = int(self._g(self.x[i], self.z[i], xh, zh).sum())
        total = (2 * int(rh) + 2 * int(self.r[i]) + gs) % 4
        return xh ^ self.x[i], zh ^ self.z[i], np.uint8(total // 2)

    def _rowsum(self, h, i):
        self.x[h], self.z[h], self.r[h] = self._rowsum_into(
            self.x[h], self.z[h], self.r[h], i)

    def deterministic_value(self, x, z) -> Optional[int]:
        xv, zv = self._vectors(x, z)
        anti = self._anticommute(xv, zv)
        if anti[self.n:].any():
            return None
        xh = np.zeros(self.n, dtype=bool)
        zh = np.zeros(self.n, dtype=bool)
        rh = np.uint8(0)
        for i in range(self.n):
            if anti[i]:
                xh, zh, rh = self._rowsum_into(xh, zh, rh, self.n + i)
        if not (np.array_equal(xh, xv) and np.array_equal(zh, zv)):
            raise tableau.NotStabilized("operator is not in the stabilizer group")
        return int(rh)

    def measure_pauli(self, x, z, rng=None, forced=None):
        xv, zv = self._vectors(x, z)
        anti = self._anticommute(xv, zv)
        stab_anti = np.nonzero(anti[self.n:])[0]
        if stab_anti.size == 0:
            return self.deterministic_value(x, z), True
        if forced is not None:
            bit = int(forced)
        elif rng is not None:
            bit = int(rng.integers(0, 2))
        else:
            raise ValueError("random outcome requires rng or forced value")
        p = self.n + int(stab_anti[0])
        for i in np.nonzero(anti)[0]:
            if int(i) != p:
                self._rowsum(int(i), p)
        self.x[p - self.n] = self.x[p]
        self.z[p - self.n] = self.z[p]
        self.r[p - self.n] = self.r[p]
        self.x[p] = xv
        self.z[p] = zv
        self.r[p] = bit
        return bit, False


def per_op_run_tableau(circ, rng=None, force_zero=False, forced_outcomes=None,
                       x_errors=(), z_errors=(), flip_locs=()):
    """The earlier tableau.run_tableau: one interpreter step per op, masks,
    couplings and feedback supports read from the ops' numpy arrays on
    every run, and the init-reuse check made as the ops run."""
    x_errors, z_errors, flip_locs = fault_locs(x_errors, z_errors, flip_locs)
    if forced_outcomes is not None:
        forced_outcomes = np.asarray(forced_outcomes)
        if (forced_outcomes.shape != (circ.n_outcomes,)
                or not np.isin(forced_outcomes, (0, 1)).all()):
            raise ValueError(f"forced_outcomes must be {circ.n_outcomes} bits,"
                             f" each 0 or 1; got shape {forced_outcomes.shape}")
    elif force_zero:
        forced_outcomes = np.zeros(circ.n_outcomes, dtype=np.uint8)
    sim = tableau.Tableau(circ.n_qubits)
    outcomes = np.zeros(circ.n_outcomes, dtype=np.uint8)
    deterministic = np.zeros(circ.n_outcomes, dtype=bool)
    errors: dict[int, list] = {}
    for locs, pauli in ((x_errors, sim.pauli_x), (z_errors, sim.pauli_z)):
        for loc in locs:
            errors.setdefault(loc.step, []).append((pauli, loc.index))
    flips = {loc.index for loc in flip_locs}

    def apply_errors(step: int) -> None:
        for pauli, q in errors.get(step, ()):
            pauli(q)

    def measure(sigma: str, masks, start: int) -> None:
        for slot, mask in enumerate(masks, start):
            flip = 1 if slot in flips else 0
            forced = (None if forced_outcomes is None
                      else int(forced_outcomes[slot]) ^ flip)
            x, z = (mask, 0) if sigma == "X" else (0, mask)
            bit, det = sim.measure_pauli(x, z, rng=rng, forced=forced)
            outcomes[slot] = bit ^ flip
            deterministic[slot] = det

    used = set(circ.input_qubits)
    apply_errors(-1)
    for step, op in enumerate(circ.ops):
        if isinstance(op, InitOp):
            reused = [int(q) for q in op.qubits if int(q) in used]
            if reused:
                raise ValueError(f"init at op {step} names qubit "
                                 f"{reused[0]}, which is already in use")
            if op.basis == "+":
                for q in op.qubits:
                    sim.h(int(q))
        elif isinstance(op, HLayerOp):
            for q in op.qubits:
                sim.h(int(q))
        elif isinstance(op, GCnotOp):
            for j, i in zip(*np.nonzero(op.a)):
                sim.cnot(int(op.controls[j]), int(op.targets[i]))
        elif isinstance(op, MeasureOp):
            measure(op.basis, [1 << int(q) for q in op.qubits], op.start)
        elif isinstance(op, ProjectiveOp):
            measure(op.sigma, [_mask(op.qubits[np.nonzero(row)[0]])
                               for row in op.a], op.start)
        elif isinstance(op, FeedbackOp):
            supp = gf2.mul(outcomes[op.src: op.src + op.count], op.m)
            pauli = sim.pauli_x if op.pauli == "X" else sim.pauli_z
            for q in op.qubits[np.nonzero(supp)[0]]:
                pauli(int(q))
        else:
            raise TypeError(f"unknown op {op!r}")
        used.update(map(int, np.concatenate([op.controls, op.targets])
                        if isinstance(op, GCnotOp) else op.qubits))
        apply_errors(step)
    return tableau.TableauResult(outcomes=outcomes,
                                 deterministic=deterministic, sim=sim)


def bool_view(sim):
    """x, z and r of a tableau as bool/uint8 arrays, one row per generator."""
    if isinstance(sim, RowByRowTableau):
        return sim.x, sim.z, sim.r
    n = sim.n
    x, z = (np.array([gf2._unpack(row, n) for row in rows],
                     dtype=bool).reshape(2 * n, n) for rows in (sim.xr, sim.zr))
    return x, z, gf2._unpack(sim.r, 2 * n)


def same_state(a, b) -> bool:
    return all(np.array_equal(u, v) for u, v in zip(bool_view(a), bool_view(b)))


def clear_destabilizer(sim, k):
    """Set destabilizer k to the identity, breaking the tableau's pairing."""
    if isinstance(sim, RowByRowTableau):
        sim.x[k] = sim.z[k] = False
        return
    for q in range(sim.n):
        sim.xc[q] &= ~(1 << k)
        sim.zc[q] &= ~(1 << k)
    sim.xr[k] = sim.zr[k] = 0


def columns_are_transposes(sim) -> bool:
    """Whether xc and zc hold the bits of xr and zr, transposed."""
    x, z, _ = bool_view(sim)
    return all(sim.xc[q] == gf2._pack(x[:, q])
               and sim.zc[q] == gf2._pack(z[:, q]) for q in range(sim.n))


def bits(draw, n, min_weight=0):
    return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)
                         .filter(lambda v: sum(v) >= min_weight)), dtype=bool)


@st.composite
def tableau_programs(draw):
    """Gate, Pauli, measurement and feedback steps on 1-6 qubits; Paulis
    are qubit bitmasks."""
    n = draw(st.integers(1, 6))
    steps = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["h", "cnot", "x", "z", "m", "m", "fb"]))
        if kind in ("h", "x", "z"):
            steps.append((kind, draw(st.integers(0, n - 1))))
        elif kind == "cnot" and n > 1:
            c, t = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
            steps.append(("cnot", c, t))
        elif kind == "m":
            xv = bits(draw, n)
            zv = bits(draw, n, min_weight=0 if xv.any() else 1)
            steps.append(("m", gf2._pack(xv), gf2._pack(zv),
                          draw(st.integers(0, 1))))
        elif kind == "fb":
            steps.append(("fb", draw(st.integers(0, 99)),
                          draw(st.sampled_from("xz")),
                          draw(st.integers(0, n - 1))))
    probe = (gf2._pack(bits(draw, n)), gf2._pack(bits(draw, n)))
    return n, steps, probe


def run_program(sim, steps):
    results = []
    for step in steps:
        kind = step[0]
        if kind == "h":
            sim.h(step[1])
        elif kind == "cnot":
            sim.cnot(step[1], step[2])
        elif kind == "x":
            sim.pauli_x(step[1])
        elif kind == "z":
            sim.pauli_z(step[1])
        elif kind == "m":
            results.append(sim.measure_pauli(step[1], step[2], forced=step[3]))
        elif results and results[step[1] % len(results)][0]:
            (sim.pauli_x if step[2] == "x" else sim.pauli_z)(step[3])
    return results


@st.composite
def random_circuits(draw, inputs=False):
    """Fresh qubits, H layers, GCNOTs, Z/X checks and outcome feedback;
    with inputs, a leading part of the qubits is circuit input instead of
    freshly initialised."""
    n = draw(st.integers(2, 7))
    c = Circuit()
    q = c.new_block("q", n)
    k = draw(st.integers(0, n - 1)) if inputs else 0
    c.mark_input(q[:k])
    c.init(q[k:], draw(st.sampled_from("0+")))
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["h", "gcnot", "check", "check", "fb"]))
        if kind == "h":
            c.h_layer(q[bits(draw, n, min_weight=1)])
        elif kind == "gcnot":
            k = draw(st.integers(1, n - 1))
            perm = np.array(draw(st.permutations(range(n))))
            ctl, tgt = q[perm[:k]], q[perm[k:]]
            a = [bits(draw, len(tgt)) for _ in ctl]
            c.gcnot(ctl, tgt, np.array(a, dtype=np.uint8))
        elif kind == "check":
            rows = [bits(draw, n, min_weight=1)
                    for _ in range(draw(st.integers(1, 3)))]
            sigma = draw(st.sampled_from("XZ"))
            # Rows of one projective op must commute: keep them one type.
            c.measure_pauli(sigma, np.array(rows, dtype=np.uint8), q)
        elif c.n_outcomes:
            count = draw(st.integers(1, c.n_outcomes))
            src = draw(st.integers(0, c.n_outcomes - count))
            m = [bits(draw, n) for _ in range(count)]
            c.feedback(draw(st.sampled_from("XZ")), q,
                       np.array(m, dtype=np.uint8), src, count)
    c.measure(q, draw(st.sampled_from("XZ")))
    forced = np.array(draw(st.lists(st.integers(0, 1), min_size=c.n_outcomes,
                                    max_size=c.n_outcomes)), dtype=np.uint8)
    return c, forced, draw(st.integers(0, 2**32 - 1))


class TestVectorisedTableau:
    @settings(max_examples=200, deadline=None)
    @given(tableau_programs())
    def test_matches_row_by_row_reference(self, program):
        n, steps, (px, pz) = program
        fast, ref = tableau.Tableau(n), RowByRowTableau(n)
        assert run_program(fast, steps) == run_program(ref, steps)
        assert same_state(fast, ref)
        assert fast.deterministic_value(px, pz) == ref.deterministic_value(px, pz)

    @settings(max_examples=50, deadline=None)
    @given(tableau_programs(), st.data())
    def test_broken_pairing_raises(self, program, data):
        # Clearing destabilizer k leaves stabilizer k commuting with every
        # stabilizer row but outside the product the tableau reconstructs.
        n, steps, _ = program
        k = data.draw(st.integers(0, n - 1))
        for cls in (tableau.Tableau, RowByRowTableau):
            sim = cls(n)
            run_program(sim, steps)
            clear_destabilizer(sim, k)
            x, z, _ = bool_view(sim)
            with pytest.raises(tableau.NotStabilized, match="stabilizer group"):
                sim.deterministic_value(gf2._pack(x[n + k]), gf2._pack(z[n + k]))
            assert tableau.stabilizer_phase(
                sim, range(n), x[n + k], z[n + k]) is None

    @settings(max_examples=100, deadline=None)
    @given(tableau_programs())
    def test_rows_and_columns_are_transposes(self, program):
        n, steps, _ = program
        sim = tableau.Tableau(n)
        run_program(sim, steps)
        assert columns_are_transposes(sim)

    @settings(max_examples=100, deadline=None)
    @given(random_circuits())
    def test_run_tableau_matches_reference(self, drawn):
        circ, forced, seed = drawn
        runs = [
            lambda: tableau.run_tableau(circ, forced_outcomes=forced),
            lambda: tableau.run_tableau(circ, rng=np.random.default_rng(seed)),
            lambda: tableau.run_tableau(circ, force_zero=True,
                                        flip_locs=circ.locations()[-1:]),
        ]
        for run in runs:
            fast = run()
            with mock.patch.object(tableau, "Tableau", RowByRowTableau):
                ref = run()
            assert np.array_equal(fast.outcomes, ref.outcomes)
            assert np.array_equal(fast.deterministic, ref.deterministic)
            assert same_state(fast.sim, ref.sim)


def assert_runs_agree(circ, seed=None, **kwargs):
    """run_tableau and per_op_run_tableau give byte-identical outcomes,
    deterministic flags and final tableaux, with consistent columns."""
    fast, ref = (run(circ, rng=None if seed is None
                     else np.random.default_rng(seed), **kwargs)
                 for run in (tableau.run_tableau, per_op_run_tableau))
    for field in ("outcomes", "deterministic"):
        got, want = getattr(fast, field), getattr(ref, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    state = lambda sim: (sim.xr, sim.zr, sim.xc, sim.zc, sim.r)
    assert state(fast.sim) == state(ref.sim)
    assert columns_are_transposes(fast.sim)


def drawn_faults(circ, pick):
    """X and Z errors at quantum locations (those right after feedback
    layers too) and flips of outcome bits, each kept where pick says."""
    qlocs = list(circ.columns().at)
    flocs = [loc for loc in circ.locations() if loc.kind == "flip"]
    return {key: [loc for loc, keep in zip(locs, pick(len(locs))) if keep]
            for key, locs in (("x_errors", qlocs), ("z_errors", qlocs),
                              ("flip_locs", flocs))}


def paper_circuits():
    """The preparation circuit and the expanded desk surgery circuit."""
    s3, ham = codes.surface_code_via_hgp(3), codes.hamming_743()
    desk = surgery.build_deformed(s3, gf2.bitmat([[1]]), ham)
    surgery_run = protocol.build_surgery_circuit(desk)
    return {"prep": ltsp.build_prep_circuit(s3, ham).circuit,
            "desk-surgery": surgery_run.expanded.circuit}


@pytest.fixture(scope="module")
def paper_circuit_set():
    return paper_circuits()


def per_row_entry(op):
    """The program entry of a projective or feedback op with one boolean
    index per row of its matrix: the reference for tableau._row_supports."""
    if isinstance(op, ProjectiveOp):
        return ("measure", (op.start, op.sigma, [
            _mask(op.qubits[row != 0]) for row in op.a]))
    return (op.pauli, (op.src, [op.qubits[row != 0].tolist() for row in op.m]))


def assert_program_per_row(circ):
    program = tableau._program(circ)
    assert len(program) == len(circ.ops)
    for op, entry in zip(circ.ops, program):
        if isinstance(op, (ProjectiveOp, FeedbackOp)):
            assert entry == per_row_entry(op)


class TestTableauProgram:
    """run_tableau runs a program built once per circuit; the per-op loop
    it replaced is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_circuits(), random_circuits(inputs=True)))
    def test_row_supports_match_per_row_build(self, drawn):
        assert_program_per_row(drawn[0])

    @pytest.mark.parametrize("name", ["prep", "desk-surgery"])
    def test_paper_programs_match_per_row_build(self, paper_circuit_set,
                                                name):
        circ = paper_circuit_set[name]
        assert any(isinstance(op, FeedbackOp) for op in circ.ops)
        assert_program_per_row(circ)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_circuits(), random_circuits(inputs=True)),
           st.data())
    def test_matches_per_op_loop(self, drawn, data):
        circ, forced, seed = drawn
        faults = drawn_faults(circ, lambda n: data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n)))
        for run in ({"seed": seed}, {"forced_outcomes": forced},
                    {"force_zero": True}):
            assert_runs_agree(circ, **run)
            assert_runs_agree(circ, **run, **faults)

    @pytest.mark.parametrize("name", ["prep", "desk-surgery"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_paper_circuits_match_per_op_loop(self, paper_circuit_set, name,
                                              seed):
        circ = paper_circuit_set[name]
        rng = np.random.default_rng(seed)
        faults = drawn_faults(circ, lambda n: rng.random(n) < 8 / n)
        forced = rng.integers(0, 2, size=circ.n_outcomes, dtype=np.uint8)
        for run in ({"seed": seed}, {"forced_outcomes": forced},
                    {"force_zero": True}):
            assert_runs_agree(circ, **run)
            assert_runs_agree(circ, **run, **faults)

    def test_rebuilt_after_an_op_or_input_is_added(self):
        c = Circuit()
        a = c.new_block("a", 2)
        c.init(a, "0")
        c.measure(a[:1], "Z")
        assert tableau.run_tableau(c).deterministic.all()
        # A stale program would measure X on |0⟩: a random outcome, which
        # needs an rng or a forced value.
        c.h_layer(a[1:])
        c.measure(a[1:], "X")
        res = tableau.run_tableau(c)
        assert res.deterministic.tolist() == [True, True]
        assert_runs_agree(c)
        c.mark_input(a[:1])
        with pytest.raises(ValueError, match="init at op 0 names qubit 0"):
            tableau.run_tableau(c)

    def test_bad_init_raises_on_every_run(self):
        c = Circuit()
        a = c.new_block("a", 2)
        c.init(a, "+")
        c.measure(a[:1], "X")
        c.init(a[:1], "0")
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                tableau.run_tableau(c, force_zero=True)
            messages.append(str(err.value))
        assert messages == ["init at op 2 names qubit 0, which is already "
                            "in use"] * 2

    def test_one_measure_pauli_call_per_outcome(self):
        # The benchmark's traced tableau.Tableau.measure_pauli.calls counts
        # outcomes, on the run that builds the program and on later ones.
        circ = paper_circuits()["desk-surgery"]
        real = tableau.Tableau.measure_pauli
        with mock.patch.object(tableau.Tableau, "measure_pauli",
                               autospec=True, side_effect=real) as spy:
            for seed in range(2):
                spy.reset_mock()
                tableau.run_tableau(circ, rng=np.random.default_rng(seed))
                assert spy.call_count == circ.n_outcomes


class TestInitReuse:
    def test_reinitialised_qubit_rejected(self):
        c = Circuit()
        a = c.new_block("a", 2)
        c.init(a, "+")
        c.measure(a[:1], "X")
        c.init(a[:1], "0")
        with pytest.raises(ValueError, match="qubit 0"):
            tableau.run_tableau(c, force_zero=True)

    def test_initialised_input_rejected(self):
        c = Circuit()
        a = c.new_block("a", 1)
        c.mark_input(a)
        c.init(a, "0")
        with pytest.raises(ValueError, match="qubit 0"):
            tableau.run_tableau(c, force_zero=True)


class TestTableauInputs:
    @staticmethod
    def circuit():
        c = Circuit()
        a = c.new_block("a", 2)
        c.init(a, "0")
        c.measure(a, "Z")
        return c

    def test_pauli_error_on_flip_location(self):
        c = self.circuit()
        flip = [loc for loc in c.locations() if loc.kind == "flip"][1]
        with pytest.raises(ValueError, match="X fault on non-qubit"):
            tableau.run_tableau(c, force_zero=True, x_errors=[flip])
        with pytest.raises(ValueError, match="Z fault on non-qubit"):
            tableau.run_tableau(c, force_zero=True, z_errors=[flip])

    def test_flip_on_qubit_location(self):
        c = self.circuit()
        with pytest.raises(ValueError, match="flip fault on non-classical"):
            tableau.run_tableau(c, force_zero=True,
                                flip_locs=[c.locations()[0]])

    @pytest.mark.parametrize("forced", [[0], [0, 0, 0], [[0, 0]], [0, 2]])
    def test_forced_outcomes_must_be_one_bit_each(self, forced):
        with pytest.raises(ValueError, match="forced_outcomes must be 2 bits"):
            tableau.run_tableau(self.circuit(), forced_outcomes=forced)

    def test_forced_outcome_must_be_a_bit(self):
        sim = tableau.Tableau(2)
        sim.h(0)
        with pytest.raises(ValueError, match="not 0 or 1"):
            sim.measure_pauli(0, 1, forced=2)

    def test_stabilizer_phase_support_lengths(self):
        c = Circuit()
        a = c.new_block("a", 2)
        c.init(a, "+")
        sim = tableau.run_tableau(c, force_zero=True).sim
        assert tableau.stabilizer_phase(sim, a, [1, 1], [0, 0]) == 0
        for xs, zs in (([1], [0, 0]), ([1, 1], [0]), ([1, 1, 0], [0, 0, 0])):
            with pytest.raises(ValueError, match="supports of"):
                tableau.stabilizer_phase(sim, a, xs, zs)


# ── the lane engine against one-lane calls, linearity, the tableau and the
#    big-int engine it replaced ─────────────────────────────────────────


def _mask(qubits) -> int:
    m = 0
    for q in qubits:
        m |= 1 << int(q)
    return m


def bigint_run_frames(circ, x_locs=(), z_locs=(), flip_locs=()):
    """The earlier frame engine: one fault set as Python big-int masks over
    qubit ids, stepped op by op.  Returns (outcome flips, X mask, Z mask)."""
    xq: dict[int, int] = {}
    zq: dict[int, int] = {}
    for loc in x_locs:
        xq[loc.step] = xq.get(loc.step, 0) ^ (1 << loc.index)
    for loc in z_locs:
        zq[loc.step] = zq.get(loc.step, 0) ^ (1 << loc.index)
    outcomes = np.zeros(circ.n_outcomes, dtype=np.uint8)
    for loc in flip_locs:
        outcomes[loc.index] ^= 1
    x = xq.get(-1, 0)
    z = zq.get(-1, 0)
    for step, op in enumerate(circ.ops):
        if isinstance(op, InitOp):
            x &= ~_mask(op.qubits)
            z &= ~_mask(op.qubits)
        elif isinstance(op, HLayerOp):
            mask = _mask(op.qubits)
            xm, zm = x & mask, z & mask
            x = (x & ~mask) | zm
            z = (z & ~mask) | xm
        elif isinstance(op, GCnotOp):
            dx = dz = 0
            for j, c in enumerate(op.controls):
                if (x >> int(c)) & 1:
                    dx ^= _mask(op.targets[np.nonzero(op.a[j])[0]])
            for i, t in enumerate(op.targets):
                if (z >> int(t)) & 1:
                    dz ^= _mask(op.controls[np.nonzero(op.a[:, i])[0]])
            x ^= dx
            z ^= dz
        elif isinstance(op, MeasureOp):
            src = x if op.basis == "Z" else z
            for i, q in enumerate(op.qubits):
                outcomes[op.start + i] ^= (src >> int(q)) & 1
            x &= ~_mask(op.qubits)
            z &= ~_mask(op.qubits)
        elif isinstance(op, ProjectiveOp):
            src = x if op.sigma == "Z" else z
            for i, row in enumerate(op.a):
                m = _mask(op.qubits[np.nonzero(row)[0]])
                outcomes[op.start + i] ^= (src & m).bit_count() & 1
        elif isinstance(op, FeedbackOp):
            delta = 0
            for i in range(op.count):
                if outcomes[op.src + i]:
                    delta ^= _mask(op.qubits[np.nonzero(op.m[i])[0]])
            if op.pauli == "X":
                x ^= delta
            else:
                z ^= delta
        x ^= xq.get(step, 0)
        z ^= zq.get(step, 0)
    return outcomes, x, z


@st.composite
def lane_batches(draw):
    """A random circuit with input qubits, and 1-4 lanes of X, Z and flip
    faults.  Quantum faults sit on its locations and right after its
    feedback layers; flips are keyed by outcome bit."""
    circ, _, _ = draw(random_circuits(inputs=True))
    qlocs = list(circ.columns().at)
    flocs = [loc for loc in circ.locations() if loc.kind == "flip"]
    lanes = draw(st.integers(1, 4))
    rows = [np.array([bits(draw, len(locs)) for _ in range(lanes)],
                     dtype=np.uint8).reshape(lanes, len(locs))
            for locs in (qlocs, qlocs, flocs)]
    return circ, qlocs, flocs, rows


def lane_locs(qlocs, flocs, rows, lane):
    """The x_locs, z_locs and flip_locs of one lane."""
    return [[locs[i] for i in np.nonzero(m[lane])[0]]
            for locs, m in zip((qlocs, qlocs, flocs), rows)]


class TestLaneEngine:
    @settings(max_examples=150, deadline=None)
    @given(lane_batches())
    def test_lane_properties(self, batch):
        """Each lane equals its one-lane call, the big-int engine's frames
        and the tableau's outcomes; XORing lanes XORs their results."""
        circ, qlocs, flocs, rows = batch
        xr, zr, fr = rows
        locs = qlocs + qlocs + flocs
        faults = np.hstack([xr * frame.X, zr * frame.Z, fr * frame.FLIP])
        res = frame.run_lanes(circ, locs, faults)
        fields = ("outcome_flips", "x_final", "z_final")
        n = circ.n_qubits
        for lane in range(len(faults)):
            xl, zl, fl = lane_locs(qlocs, flocs, rows, lane)
            one = frame.run_frames(circ, x_locs=xl, z_locs=zl, flip_locs=fl)
            for field in fields:
                assert np.array_equal(getattr(res, field)[lane],
                                      getattr(one, field))
            outcomes, x, z = bigint_run_frames(circ, xl, zl, fl)
            assert np.array_equal(one.outcome_flips, outcomes)
            assert np.array_equal(one.x_final, gf2._unpack(x, n))
            assert np.array_equal(one.z_final, gf2._unpack(z, n))
            assert frame_vs_tableau(circ, xl, zl, fl, flips=one.outcome_flips)
        perm = np.roll(np.arange(len(faults)), 1)
        mixed = frame.run_lanes(circ, locs, faults ^ faults[perm])
        for field in fields:
            got = getattr(res, field)
            assert np.array_equal(getattr(mixed, field), got ^ got[perm])


    def test_unit_lanes_through_unsymmetric_couplings(self):
        """Every single X or Z fault through a square and a non-square
        coupling, neither symmetric, against the big-int engine."""
        c = Circuit()
        u, v, w = (c.new_block(name, size) for name, size in
                   (("u", 3), ("v", 3), ("w", 2)))
        c.mark_input(np.concatenate([u, v, w]))
        c.gcnot(u, v, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        c.gcnot(v, w, [[1, 0], [1, 1], [0, 1]])
        locs = c.locations()
        codes = [frame.X] * len(locs) + [frame.Z] * len(locs)
        res = frame.run_lanes(
            c, locs + locs, gf2.eye(len(codes)) * np.array(codes, np.uint8))
        for lane, loc in enumerate(locs + locs):
            paulis = ([loc], []) if lane < len(locs) else ([], [loc])
            _, x, z = bigint_run_frames(c, *paulis)
            assert np.array_equal(res.x_final[lane], gf2._unpack(x, 8))
            assert np.array_equal(res.z_final[lane], gf2._unpack(z, 8))


def unit_fault_matrix(circ):
    """The dense run_lanes matrix of frame.unit_lanes' lanes: per location
    in column order, a flip lane, or an X lane then a Z lane."""
    lanes = [(c, code) for c, q in enumerate(circ.columns().qubit.tolist())
             for code in ((frame.X, frame.Z) if q >= 0 else (frame.FLIP,))]
    faults = gf2.zeros(len(lanes), len(circ.columns().qubit))
    for lane, (c, code) in enumerate(lanes):
        faults[lane, c] = code
    return faults


def assert_unit_lanes_match_dense(circ):
    """unit_lanes equals run_lanes on the unit fault matrix, field by field,
    as packed rows over the lanes (padding bits zero)."""
    dense = frame.run_lanes(circ, circ.locations(), unit_fault_matrix(circ))
    units = frame.unit_lanes(circ)
    fields = ("outcome_flips", "x_final", "z_final")
    assert len(units) == len(fields)
    for name, rows in zip(fields, units):
        want = gf2.pack_words(getattr(dense, name).T)
        assert rows.dtype == want.dtype and np.array_equal(rows, want), name


def enumerated_locations(circ):
    """The Loc-by-Loc enumeration that columns() replaced, as reference:
    every location's Loc in column order, the (start, stop) spans, and
    the column of each quantum Loc and of each Loc right after a feedback
    layer (the qubit's latest location)."""
    locs = [Loc("q", -1, q) for q in circ.input_qubits]
    spans = [(0, len(locs))]
    at = {loc: c for c, loc in enumerate(locs)}
    latest = {loc.index: c for loc, c in at.items()}
    for step, op in enumerate(circ.ops):
        qubits, flips = (), 0
        if isinstance(op, FeedbackOp):
            at.update((Loc("q", step, int(q)), latest[int(q)])
                      for q in op.qubits if int(q) in latest)
        elif isinstance(op, (InitOp, HLayerOp)):
            qubits = op.qubits
        elif isinstance(op, GCnotOp):
            qubits = np.concatenate([op.controls, op.targets])
        elif isinstance(op, MeasureOp):
            flips = len(op.qubits)
            for q in op.qubits:
                latest.pop(int(q), None)
        else:
            qubits, flips = op.qubits, op.a.shape[0]
        locs.extend(Loc("flip", step, op.start + i) for i in range(flips))
        start = len(locs)
        for q in qubits:
            at[Loc("q", step, int(q))] = latest[int(q)] = len(locs)
            locs.append(Loc("q", step, int(q)))
        spans.append((start, len(locs)))
    return locs, spans, at


def assert_columns_match_enumeration(circ):
    """columns(), read from the op arrays, against the Loc enumeration:
    qubit, flips, spans, locations(), and column(loc) for every Loc and
    every feedback-step alias.  Returns the number of aliases."""
    locs, spans, at = enumerated_locations(circ)
    cols = circ.columns()
    assert cols.qubit.tolist() == [loc.index if loc.kind == "q" else -1
                                   for loc in locs]
    assert cols.flips.tolist() == [c for c, loc in enumerate(locs)
                                   if loc.kind == "flip"]
    assert cols.spans == spans
    assert circ.locations() == locs
    assert list(cols.at.items()) == list(at.items())
    for c, loc in enumerate(locs):
        assert cols.column(loc) == c
    aliases = {loc: c for loc, c in at.items() if loc.step >= 0
               and isinstance(circ.ops[loc.step], FeedbackOp)}
    for loc, c in aliases.items():
        assert cols.column(loc) == c
    return len(aliases)


@pytest.fixture(scope="module")
def unit_lane_circuits(paper_circuit_set):
    """The paper's circuits: preparation, expanded desk surgery, the
    teleported measurement on surface3, and the memory circuits at d=3
    and d=5 in both bases."""
    out = dict(paper_circuit_set)
    s3 = codes.surface_code_via_hgp(3)
    out["tele"] = protocol.build_tele_measurement(s3).circuit
    for d in (3, 5):
        code = codes.surface_code_via_hgp(d)
        for basis in "zx":
            out[f"memory-d{d}-{basis}"] = sim._build_basis(code, basis).circuit
    return out


UNIT_LANE_CIRCUITS = ["prep", "desk-surgery", "tele", "memory-d3-z",
                      "memory-d3-x", "memory-d5-z", "memory-d5-x"]


class TestUnitLanes:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(random_circuits(), random_circuits(inputs=True)))
    def test_random_circuits(self, drawn):
        assert_unit_lanes_match_dense(drawn[0])

    @pytest.mark.parametrize("name", UNIT_LANE_CIRCUITS)
    def test_paper_circuits(self, unit_lane_circuits, name):
        assert_unit_lanes_match_dense(unit_lane_circuits[name])


def allocated_shapes(monkeypatch):
    """A list that gains the (dtype, shape) of every array numpy's zeros,
    empty, full, ones or gf2.zeros returns in the test, and of every array
    gf2.pack_words is given."""
    seen = []
    for module, name, arg in ((np, "zeros", False), (np, "empty", False),
                              (np, "full", False), (np, "ones", False),
                              (gf2, "zeros", False), (gf2, "pack_words", True)):
        real = getattr(module, name)

        def recorded(*args, real=real, arg=arg, **kwargs):
            out = real(*args, **kwargs)
            shown = np.asarray(args[0]) if arg else out
            seen.append((shown.dtype, shown.shape))
            return out
        monkeypatch.setattr(module, name, recorded)
    return seen


def assert_no_lane_matrix(seen, lanes, locations):
    """No uint8 array of lanes × locations, nor its transpose, is in `seen`;
    the lanes' packed injection rows (uint64, locations × lane words) are."""
    dense = {(lanes, locations), (locations, lanes)}
    assert not [shape for dtype, shape in seen
                if dtype == np.uint8 and shape in dense]
    assert any(dtype == np.uint64 and shape[-2:] == (locations, -(-lanes // 64))
               for dtype, shape in seen)


class TestLaneEntry:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(random_circuits(), random_circuits(inputs=True)),
           st.integers(1, 70))
    def test_repeated_locations_xor(self, drawn, lanes):
        """Codes entered at one location twice, or at a location and its
        feedback-step alias, act as their XOR."""
        circ, _, seed = drawn
        locs = list(circ.columns().at) + [
            loc for loc in circ.locations() if loc.kind == "flip"]
        top = np.array([frame.X | frame.Z if loc.kind == "q" else frame.FLIP
                        for loc in locs])
        rng = np.random.default_rng(seed)
        a, b = (rng.integers(0, top + 1, size=(lanes, len(locs)),
                             dtype=np.uint8) for _ in "ab")
        twice = frame.run_lanes(circ, locs + locs, np.hstack([a, b]))
        once = frame.run_lanes(circ, locs, a ^ b)
        for field in ("outcome_flips", "x_final", "z_final"):
            assert np.array_equal(getattr(twice, field), getattr(once, field))

    def test_each_entry_is_checked(self):
        """A Z entered twice at one flip location is refused, though the
        two cancel."""
        c = TestFrameInputs.circuit()
        flip = [loc for loc in c.locations() if loc.kind == "flip"][0]
        with pytest.raises(ValueError, match=f"fault code {frame.Z} at"):
            frame.run_lanes(c, [flip, flip], [[frame.Z, frame.Z]])

    def test_one_writer(self, monkeypatch):
        """run_lanes, unit_lanes and run_frames each enter their faults
        through one _inject call."""
        c = build_mixed_circuit()
        locs = c.locations()
        calls, real = [], frame._inject
        monkeypatch.setattr(frame, "_inject",
                            lambda *args: calls.append(args) or real(*args))
        for run in (lambda: frame.run_lanes(c, locs, gf2.eye(len(locs))),
                    lambda: frame.unit_lanes(c),
                    lambda: frame.run_frames(c, x_locs=locs[:1],
                                             flip_locs=locs[-1:])):
            calls.clear()
            run()
            assert len(calls) == 1

    def test_run_frames_builds_no_lane_matrix(self, paper_circuit_set,
                                              monkeypatch):
        circ = paper_circuit_set["desk-surgery"]
        locs = circ.locations()
        seen = allocated_shapes(monkeypatch)
        frame.run_frames(circ, x_locs=[loc for loc in locs[:50]
                                       if loc.kind == "q"])
        assert_no_lane_matrix(seen, 1, len(locs))

    def test_check_teleported_builds_no_lane_matrix(self, monkeypatch):
        desk = cli.Desk(5, frames=300)
        tm = protocol.build_tele_measurement(desk.dc.target)
        seen = allocated_shapes(monkeypatch)
        assert all(good for _, good, _ in cli.check_teleported(desk))
        assert_no_lane_matrix(seen, desk.frames, len(tm.circuit.locations()))


class TestColumns:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_circuits(), random_circuits(inputs=True)))
    def test_random_circuits(self, drawn):
        assert_columns_match_enumeration(drawn[0])

    @pytest.mark.parametrize("name", UNIT_LANE_CIRCUITS)
    def test_paper_circuits(self, unit_lane_circuits, name):
        # Each of them corrects its checked rounds by feedback on live
        # qubits, so the aliases are checked too.
        assert assert_columns_match_enumeration(unit_lane_circuits[name])


class TestFrameInputs:
    @staticmethod
    def circuit():
        c = Circuit()
        a = c.new_block("a", 2)
        c.mark_input(a)
        c.gcnot(a[:1], a[1:], gf2.eye(1))
        c.measure(a, "Z")
        return c

    def test_pauli_fault_on_flip_location(self):
        c = self.circuit()
        flip = [loc for loc in c.locations() if loc.kind == "flip"][0]
        with pytest.raises(ValueError, match="X fault on non-qubit"):
            frame.run_frames(c, x_locs=[flip])
        with pytest.raises(ValueError, match="Z fault on non-qubit"):
            frame.run_frames(c, z_locs=[flip])

    def test_flip_on_qubit_location(self):
        c = self.circuit()
        with pytest.raises(ValueError, match="flip fault on non-classical"):
            frame.run_frames(c, flip_locs=[c.locations()[0]])

    def test_fault_matrix_shape_and_codes(self):
        c = self.circuit()
        width = len(c.locations())
        flip = c.columns().flips[0]
        frame.run_lanes(c, c.locations(), gf2.zeros(3, width))
        for bad in (gf2.zeros(3, width - 1), gf2.zeros(3, width + 1),
                    np.zeros(width, dtype=np.uint8)):
            with pytest.raises(ValueError, match="one row per lane"):
                frame.run_lanes(c, c.locations(), bad)
        for col, code in ((0, 4), (flip, frame.Z), (flip, frame.X | frame.Z)):
            faults = gf2.zeros(3, width)
            faults[1, col] = code
            with pytest.raises(ValueError, match=f"fault code {code} at"):
                frame.run_lanes(c, c.locations(), faults)

    def test_input_marked_after_enumeration(self):
        c = self.circuit()
        width = len(c.locations())
        extra = c.new_block("extra", 1)
        c.mark_input(extra)
        assert len(c.locations()) == width + 1
        r = frame.run_frames(c, x_locs=[Loc("q", -1, int(extra[0]))])
        assert np.array_equal(r.x_on(extra), [1])

    def test_unknown_location(self):
        c = self.circuit()
        with pytest.raises(ValueError, match="not a location"):
            frame.run_frames(c, x_locs=[Loc("q", 1, 0)])
