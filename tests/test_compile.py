"""Operation decomposition, scheduling, cost arithmetic."""

import itertools
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsurg import cli
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

    @pytest.mark.parametrize("line", [
        "MEA u.1_0", "MEA u.+1", "MEA u.-1", "MEA u. 1", "MEA .0", "MEA u.",
        "MEA u.\u0661", "CNOT u.0 v.0x1"])
    def test_non_decimal_operands_rejected(self, line):
        with pytest.raises(ValueError, match="decimal qubit index"):
            qc.parse_op(line)

    def test_decimal_operands(self):
        op = qc.parse_op("CNOT a.b.007 c.12")
        assert op.blocks == ("a.b", "c") and op.qubits == (7, 12)

    def test_op_is_an_immutable_value(self):
        op = qc.parse_op("CNOT u.0 v.1")
        assert (op.kind, op.blocks, op.qubits) == ("CNOT", ("u", "v"), (0, 1))
        assert repr(op) == ("LogicalOp(kind='CNOT', blocks=('u', 'v'), "
                            "qubits=(0, 1))")
        twin = qc.LogicalOp("CNOT", ("u", "v"), (0, 1))
        assert op == twin and hash(op) == hash(twin)
        assert op != qc.LogicalOp("CNOT", ("u", "v"), (1, 0))
        assert len({op, twin}) == 1
        with pytest.raises(AttributeError):
            op.kind = "H"

    def test_errors_name_their_line(self):
        text = "H u.0\n# MEA u.x\n\n  MEA u.+1\n"
        with pytest.raises(ValueError, match=r"^line 4: 'u\.\+1': "):
            qc.parse_circuit(text)
        with pytest.raises(ValueError, match="^line 2: unknown operation"):
            qc.parse_circuit("H u.0\nCZ u.1 v.2\n")


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


def qubit_disjoint(ops):
    """serialize's verdict on shared qubits alone: its k exceeds every
    block load and qubit index."""
    k = len(ops) + max((j for op in ops for j in op.qubits), default=0) + 1
    try:
        qc.serialize(ops, k)
    except ValueError as err:
        assert str(err) == "operation set is not qubit-disjoint"
        return False
    return True


class TestDisjointness:
    def test_shared_block_not_block_disjoint(self):
        a = qc.LogicalOp("CNOT", ("u", "v"), (0, 0))
        b = qc.LogicalOp("CNOT", ("u", "v"), (1, 1))
        assert qubit_disjoint([a, b])
        assert not qc.is_block_disjoint([a, b])

    def test_init_occupies_its_block(self):
        init = qc.LogicalOp("INIT", ("a",), ())
        assert not qubit_disjoint([init, qc.LogicalOp("MEA", ("a",), (0,))])
        assert not qubit_disjoint(
            [qc.LogicalOp("CNOT", ("b", "a"), (0, 1)), init])
        assert qubit_disjoint([init, qc.LogicalOp("MEA", ("b",), (0,))])
        with pytest.raises(ValueError, match="not qubit-disjoint"):
            qc.serialize([init, qc.LogicalOp("H", ("a",), (1,))], k=2)

    def test_empty_set(self):
        assert qubit_disjoint([]) and qc.is_block_disjoint([])

    def test_against_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            ops = random_layer(rng, 6, 3, 8)
            # Half the layers get a clash: an op repeated on its qubits.
            if rng.integers(2):
                ops.append(ops[int(rng.integers(len(ops)))])
            brute_q = all(
                not (set(zip(o1.blocks, o1.qubits)) & set(zip(o2.blocks, o2.qubits)))
                for o1, o2 in itertools.combinations(ops, 2))
            brute_b = all(
                not (set(o1.blocks) & set(o2.blocks))
                for o1, o2 in itertools.combinations(ops, 2))
            assert qubit_disjoint(ops) == brute_q
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
        ("MEA u.-1", 2, "decimal qubit index"),  # rejected as it is parsed
    ])
    def test_rejects_out_of_range(self, text, k, match):
        with pytest.raises(ValueError, match=match):
            qc.serialize(qc.parse_circuit(text), k)


# ── the one-pass scheduler and the ledger's layers against references ──


def ref_serialize(ops, k):
    """serialize as it was written with frozenset supports and Counters."""
    ops = list(ops)
    if k < 1:
        raise ValueError(f"k={k}: a block holds at least one logical qubit")
    for op in ops:
        if any(not 0 <= j < k for j in op.qubits):
            raise ValueError(f"{op.kind} on {op.blocks} qubits {op.qubits}: "
                             f"an index is outside 0..{k - 1}")
    load = Counter(b for op in ops for b in frozenset(op.blocks))
    for b, m in load.items():
        if m > k:
            raise ValueError(f"block {b} hosts {m} operations, more than k={k}")
    seen, disjoint = set(), not any(load[op.blocks[0]] > 1
                                    for op in ops if op.kind == "INIT")
    for op in ops:
        sup = frozenset(zip(op.blocks, op.qubits))
        disjoint &= not seen & sup
        seen |= sup
    if not disjoint:
        raise ValueError("operation set is not qubit-disjoint")
    color_of, by_block = {}, {}
    for idx, op in enumerate(ops):
        used = {color_of[other] for b in frozenset(op.blocks)
                for other in by_block.get(b, ())}
        c = 0
        while c in used:
            c += 1
        color_of[idx] = c
        for b in frozenset(op.blocks):
            by_block.setdefault(b, []).append(idx)
    n_colors = max(color_of.values(), default=-1) + 1
    if n_colors > max(2 * k - 1, 1):
        raise AssertionError("greedy coloring exceeded the 2k-1 bound")
    classes = [[] for _ in range(n_colors)]
    for idx, op in enumerate(ops):
        classes[color_of[idx]].append(op)
    return qc.Schedule(classes=classes, colors=n_colors)


def ref_random_layer(rng, n_blocks, k):
    """cli._random_layer as it was written: one scalar kind draw per op,
    slots read from a list of (block, qubit) tuples."""
    free = [(f"b{b}", j) for b in range(n_blocks) for j in range(k)]
    order = rng.permutation(len(free))
    ops = []
    i = 0
    n_ops = int(rng.integers(1, max(2, n_blocks * k // 2)))
    while len(ops) < n_ops and i < len(free):
        kind = ["MEA", "H", "S", "T", "CNOT"][int(rng.integers(0, 5))]
        if kind == "CNOT" and i + 1 < len(free):
            b1, q1 = free[order[i]]
            b2, q2 = free[order[i + 1]]
            ops.append(qc.LogicalOp("CNOT", (b1, b2), (q1, q2)))
            i += 2
        else:
            b, q = free[order[i]]
            kind = kind if kind != "CNOT" else "MEA"
            ops.append(qc.LogicalOp(kind, (b,), (q,)))
            i += 1
    return ops


OVERFULL = re.compile(r"block (\S+) hosts \d+ operations, more than k=\d+")


def assert_serializes_as_reference(ops, k):
    """Equal classes (the same op objects, in order) and colors, or the
    same exception type and message."""
    try:
        want = ref_serialize(ops, k)
    except (ValueError, AssertionError) as err:
        with pytest.raises(type(err)) as got:
            qc.serialize(ops, k)
        if str(got.value) != str(err):
            # Two over-full blocks first named by one CNOT: the reference
            # reports whichever its frozenset iterates first, serialize
            # the one the CNOT names first.
            named = [OVERFULL.fullmatch(str(e)) for e in (err, got.value)]
            assert all(named), (str(err), str(got.value))
            first = {}
            for i, op in enumerate(ops):
                for b in op.blocks:
                    first.setdefault(b, i)
            want_b, got_b = (m.group(1) for m in named)
            op = ops[first[got_b]]
            assert first[want_b] == first[got_b] and op.blocks[0] == got_b
        return
    got = qc.serialize(ops, k)
    assert got.colors == want.colors
    assert [list(map(id, c)) for c in got.classes] == [
        list(map(id, c)) for c in want.classes]
    assert got.validate(ops) == []


BLOCK = st.sampled_from(["a", "b", "c", "d", "e"])


def layer_ops(k):
    """Ops on five blocks: INITs, single-qubit ops and CNOTs (a CNOT may
    name one block twice), so layers can over-fill a block, share a qubit
    or name an index out of range (−1 or k, about one index in ten)."""
    index = st.integers(0, 20).map(
        lambda j: -1 if j == 0 else k if j == 1 else j % k)
    return st.lists(st.one_of(
        st.builds(lambda b: qc.LogicalOp("INIT", (b,), ()), BLOCK),
        st.builds(lambda kind, b, j: qc.LogicalOp(kind, (b,), (j,)),
                  st.sampled_from(["MEA", "H", "S", "T"]), BLOCK, index),
        st.builds(lambda b1, b2, j1, j2: qc.LogicalOp("CNOT", (b1, b2), (j1, j2)),
                  BLOCK, BLOCK, index, index)), max_size=14)


class TestAgainstReferences:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda k: st.tuples(st.just(k), layer_ops(k))))
    def test_drawn_layers(self, case):
        k, ops = case
        assert_serializes_as_reference(ops, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 12))
    def test_valid_layers(self, seed, k, blocks):
        ops = cli._random_layer(np.random.default_rng(seed), blocks, k)
        assert_serializes_as_reference(ops, k)

    def test_overfull_blocks_named_in_order(self):
        ops = [qc.LogicalOp("CNOT", ("v", "u"), (0, 0)),
               qc.LogicalOp("CNOT", ("u", "v"), (0, 0)),
               qc.LogicalOp("H", ("w",), (0,))]
        with pytest.raises(ValueError, match="^block v hosts 2 operations"):
            qc.serialize(ops, k=1)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
    def test_ledger_layers(self, seed):
        # check_scheduler's 200 layers: the same ops from the same stream
        # as the per-op draws, each scheduled as the reference schedules it.
        layers = []
        for draw in (ref_random_layer, cli._random_layer):
            with cli._rng(seed, "compile.schedule") as rng:
                layers.append([])
                for _ in range(200):
                    k = int(rng.integers(1, 7))
                    blocks = int(rng.integers(2, 33))
                    layers[-1].append((k, draw(rng, blocks, k)))
                layers[-1].append(rng.integers(2**63))
        assert layers[0] == layers[1]
        for k, ops in layers[1][:-1]:
            assert all(type(j) is int for op in ops for j in op.qubits)
            assert_serializes_as_reference(ops, k)


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
