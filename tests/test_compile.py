"""Operation decomposition, scheduling, cost arithmetic."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qsurg import compile as qc


def random_layer(rng, n_blocks, k, n_ops):
    """Random qubit-disjoint operation layer."""
    free = [(f"b{b}", j) for b in range(n_blocks) for j in range(k)]
    rng.shuffle(free)
    ops = []
    it = iter(free)
    for _ in range(n_ops):
        kind = ["MEA", "H", "S", "T", "CNOT"][rng.integers(0, 5)]
        try:
            if kind == "CNOT":
                (b1, q1), (b2, q2) = next(it), next(it)
                ops.append(qc.LogicalOp("CNOT", (b1, b2), (q1, q2)))
            else:
                b, q = next(it)
                ops.append(qc.LogicalOp(kind, (b,), (q,)))
        except StopIteration:
            break
    return ops


class TestParsing:
    def test_round_trip_kinds(self):
        text = "CNOT u.0 v.1\nT u.2\nMEA w.3\nH u.1\nS v.0\nINIT w\n"
        ops = qc.parse_circuit(text)
        assert [op.kind for op in ops] == ["CNOT", "T", "MEA", "H", "S", "INIT"]
        assert ops[0].blocks == ("u", "v") and ops[0].qubits == (0, 1)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            qc.parse_op("CZ u.1 v.2")


class TestDecomposition:
    def test_table_rows_verbatim(self):
        assert qc.decompose("MEA").measurements == ("Zj",)
        assert qc.decompose("MEA").extra_resources == ()
        assert qc.decompose("INIT").measurements == ()
        assert qc.decompose("INIT").extra_resources == ("HM_X",)
        assert qc.decompose("H").measurements == ("Zj*Z1", "Xj", "Zj*X1", "Z1")
        assert qc.decompose("H").extra_resources == ("HM_Z",)
        assert qc.decompose("S").measurements == ("Z1*Z1", "Zj*Z1*X1", "X1")
        assert qc.decompose("T").measurements == (
            "Zj*Z1", "X1", "X1", "Z1*Z1", "Zj*Z1*X1")
        assert qc.decompose("CNOT").measurements == ("Za*Z1", "Xb*X1", "Z1")
        assert qc.decompose("CNOT").extra_resources == ("HM_Z",)
        assert qc.decompose("NOISY_T_PREP").extra_resources == (
            "HS_X", "HS_Z", "HM_Z")
        assert qc.decompose("S_STATE_PREP").extra_resources == (
            "HC_X", "HC_Z", "HM_Z")

    def test_magic_flags(self):
        assert qc.decompose("T").consumes_t_magic
        assert not qc.decompose("T").uses_s_magic
        assert qc.decompose("S").uses_s_magic
        assert not qc.decompose("S").consumes_t_magic

    def test_measurement_resources(self):
        res = qc.measurement_resources("Zj", k_r=4)
        assert res == {"HD_Z(Zj)": 1, "HM_X": 4}
        res = qc.measurement_resources("Zj*Z1*X1", k_r=3)
        assert res == {"HD_Z(Zj*Z1*X1)": 1, "HM_X": 6, "HM_Z": 6}


class TestDisjointness:
    def test_shared_block_not_block_disjoint(self):
        a = qc.LogicalOp("CNOT", ("u", "v"), (0, 0))
        b = qc.LogicalOp("CNOT", ("u", "v"), (1, 1))
        assert qc.is_qubit_disjoint([a, b])
        assert not qc.is_block_disjoint([a, b])

    def test_init_occupies_its_block(self):
        init = qc.LogicalOp("INIT", ("a",), ())
        assert not qc.is_qubit_disjoint([init, qc.LogicalOp("MEA", ("a",), (0,))])
        assert not qc.is_qubit_disjoint(
            [qc.LogicalOp("CNOT", ("b", "a"), (0, 1)), init])
        assert qc.is_qubit_disjoint([init, qc.LogicalOp("MEA", ("b",), (0,))])
        with pytest.raises(ValueError, match="not qubit-disjoint"):
            qc.serialize([init, qc.LogicalOp("H", ("a",), (1,))], k=2)

    def test_empty_set(self):
        assert qc.is_qubit_disjoint([]) and qc.is_block_disjoint([])

    def test_against_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            ops = random_layer(rng, 6, 3, 8)
            brute_q = all(
                not (o1.qubit_support() & o2.qubit_support())
                for o1, o2 in itertools.combinations(ops, 2))
            brute_b = all(
                not (o1.block_support() & o2.block_support())
                for o1, o2 in itertools.combinations(ops, 2))
            assert qc.is_qubit_disjoint(ops) == brute_q
            assert qc.is_block_disjoint(ops) == brute_b


class TestSerialize:
    def test_parallel_cnots_same_blocks(self):
        ops = [qc.LogicalOp("CNOT", ("u", "v"), (j, j)) for j in range(5)]
        sched = qc.serialize(ops, k=6)
        assert sched.colors == 5
        assert sched.validate(ops) == []

    def test_single_op(self):
        ops = [qc.LogicalOp("H", ("u",), (0,))]
        assert qc.serialize(ops, k=4).colors == 1

    def test_random_layers(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            k = int(rng.integers(1, 7))
            ops = random_layer(rng, int(rng.integers(2, 9)), k, 12)
            sched = qc.serialize(ops, k)
            assert sched.validate(ops) == []
            assert sched.colors <= 2 * k - 1

    def test_rejects_qubit_collision(self):
        ops = [qc.LogicalOp("H", ("u",), (0,)),
               qc.LogicalOp("T", ("u",), (0,))]
        with pytest.raises(ValueError):
            qc.serialize(ops, k=2)

    @pytest.mark.parametrize("text,k,match", [
        ("H u.0", 0, "k=0"),  # the CLI's --k stops this before serialize
        ("MEA u.-1", 2, "outside 0..1"),
    ])
    def test_rejects_out_of_range(self, text, k, match):
        with pytest.raises(ValueError, match=match):
            qc.serialize(qc.parse_circuit(text), k)


class TestBatchArithmetic:
    def test_zero_and_exact_fill(self):
        assert qc.batch(0, 4, 4, 3) == 0
        assert qc.batch(4 * 4 * 9, 4, 4, 3) == 1

    def test_grid_against_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            num = int(rng.integers(0, 5000))
            k_r = int(rng.integers(1, 9))
            k_f = int(rng.integers(1, 9))
            d_s = int(rng.integers(1, 6))
            b = qc.batch(num, k_r, k_f, d_s)
            assert b <= qc.batch_bound(num, k_r, k_f, d_s)

    def test_bound_equals_its_four_terms(self):
        # Over the ledger's grid ranges (num < 5000, k_r, k_f < 9, d_s < 6).
        for k_r, k_f, d_s in itertools.product(range(1, 9), range(1, 9),
                                               range(1, 6)):
            for num in [*range(0, 5000, 97), 4999]:
                terms = (Fraction(num, k_r * k_f * d_s * d_s)
                         + Fraction(1, k_f * d_s * d_s)
                         + Fraction(1, d_s * d_s) + 1)
                assert qc.batch_bound(num, k_r, k_f, d_s) == terms

    def test_sublayer_cost(self):
        ops = [qc.LogicalOp("CNOT", ("u", "v"), (0, 0)),
               qc.LogicalOp("T", ("w",), (1,)),
               qc.LogicalOp("MEA", ("x",), (2,))]
        rep = qc.sublayer_cost(ops, k_r=4, k_f=4, d_s=3)
        assert rep.num == {"CNOT": 1, "T": 1, "MEA": 1}
        assert rep.t_magic_consumed == 1
        assert rep.sum_batches <= rep.sum_bound
        assert rep.resource_counts["HD_Z(Zj)"] == 1

    def test_block_disjointness_required(self):
        ops = [qc.LogicalOp("H", ("u",), (0,)),
               qc.LogicalOp("T", ("u",), (1,))]
        with pytest.raises(ValueError):
            qc.sublayer_cost(ops, 4, 4, 3)


class TestOverheadTable:
    @pytest.mark.parametrize("a", [1, 1.5, 2])
    def test_this_scheme_row(self, a):
        rows = qc.overhead_exponents(a)
        assert rows["this scheme"] == ("0", f"{a:g}")

    def test_static_rows(self):
        rows = qc.overhead_exponents(1)
        assert rows["GM+BFB"] == ("0", ">=2")
        assert rows["DS"] == ("1", "1")
        assert rows["LS (surface code)"] == ("2", "1")
