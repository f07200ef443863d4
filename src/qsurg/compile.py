"""Logical-operation decomposition, scheduling, and cost calculators.

Logical operations act on named code blocks; a layer of operations with
pairwise-disjoint qubit supports is serialized into block-disjoint
sub-layers by greedy edge coloring of the block multigraph.  Each
operation decomposes into a fixed list of joint logical measurements plus
extra resource states; the cost calculators turn sub-layer composition
into resource-state batch counts and check the closed-form batch bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

KINDS = ("INIT", "MEA", "H", "S", "T", "CNOT")


class LogicalOp(NamedTuple):
    kind: str
    blocks: tuple            # one block name, or (control, target) for CNOT
    qubits: tuple            # logical indices within the blocks


def _operand(text: str) -> tuple[str, int]:
    """`block.qubit`: a non-empty block name and a decimal index."""
    block, dot, index = text.rpartition(".")
    if not (dot and block and index.isascii() and index.isdigit()):
        raise ValueError(f"{text!r}: operands are block.qubit, a non-empty "
                         "block name and a decimal qubit index")
    return block, int(index)


def parse_op(line: str) -> LogicalOp:
    """One op per line: `CNOT u.a v.b`, `T u.j`, `MEA u.j`, `H u.j`,
    `S u.j`, `INIT u`."""
    parts = line.split()
    kind = parts[0].upper()
    if kind not in KINDS:
        raise ValueError(f"unknown operation {kind!r}")
    if kind == "INIT":
        if len(parts) != 2:
            raise ValueError("INIT takes one block")
        return LogicalOp(kind, (parts[1],), ())
    operands = [_operand(p) for p in parts[1:]]
    blocks = tuple(b for b, _ in operands)
    qubits = tuple(j for _, j in operands)
    if kind == "CNOT" and len(blocks) != 2:
        raise ValueError("CNOT takes two operands")
    if kind != "CNOT" and len(blocks) != 1:
        raise ValueError(f"{kind} takes one operand")
    return LogicalOp(kind, blocks, qubits)


def parse_circuit(text: str) -> list[LogicalOp]:
    """parse_op on each line that is neither blank nor a `#` comment; a
    rejected line raises ValueError prefixed with its line number."""
    ops = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                ops.append(parse_op(line))
            except ValueError as err:
                raise ValueError(f"line {number}: {err}") from None
    return ops


# ── decomposition table ─────────────────────────────────────────────────


@dataclass(frozen=True)
class Decomposition:
    measurements: tuple      # joint logical measurements, in order
    extra_resources: tuple   # resource states beyond the measurements' own
    consumes_t_magic: bool = False
    uses_s_magic: bool = False


_DECOMP = {
    "INIT": Decomposition((), ("HM_X",)),
    "MEA": Decomposition(("Zj",), ()),
    "H": Decomposition(("Zj*Z1", "Xj", "Zj*X1", "Z1"), ("HM_Z",)),
    "S": Decomposition(("Z1*Z1", "Zj*Z1*X1", "X1"), ("HM_Z",), uses_s_magic=True),
    "T": Decomposition(("Zj*Z1", "X1", "X1", "Z1*Z1", "Zj*Z1*X1"),
                       ("T_magic", "HM_Z"), consumes_t_magic=True),
    "CNOT": Decomposition(("Za*Z1", "Xb*X1", "Z1"), ("HM_Z",)),
    # Magic-state preparation operations.
    "NOISY_T_PREP": Decomposition(("ZS*Z1",), ("HS_X", "HS_Z", "HM_Z")),
    "S_STATE_PREP": Decomposition(("ZC*Z1",), ("HC_X", "HC_Z", "HM_Z")),
}


def decompose(op) -> Decomposition:
    kind = op.kind if isinstance(op, LogicalOp) else str(op).upper()
    if kind not in _DECOMP:
        raise ValueError(f"unknown operation kind {kind!r}")
    return _DECOMP[kind]


# Resource states per joint measurement: the tailored deformed-code state
# plus memory/surface/color-code check states, with multiplicity per batch
# of k_R target blocks.
_MEASUREMENT_RESOURCES = {
    "Xj": (("HM_Z", 1),),
    "Zj": (("HM_X", 1),),
    "Xj*X1": (("HM_Z", 2),),
    "Zj*Z1": (("HM_X", 2),),
    "Z1*Z1": (("HM_X", 2),),
    "Za*Z1": (("HM_X", 2),),
    "Xb*X1": (("HM_Z", 2),),
    "Z1": (("HM_X", 1),),
    "X1": (("HM_Z", 1),),
    "Zj*X1": (("HM_X", 1), ("HM_Z", 1)),
    "Zj*Z1*X1": (("HM_X", 2), ("HM_Z", 2)),
    "ZS*Z1": (("HS_X", 1), ("HM_X", 1)),
    "ZC*Z1": (("HC_X", 1), ("HM_X", 1)),
}


def measurement_resources(label: str, k_r: int) -> dict:
    """Resource states for one batched joint measurement on k_R targets."""
    out = {f"HD_Z({label})": 1}
    for name, mult in _MEASUREMENT_RESOURCES[label]:
        out[name] = out.get(name, 0) + mult * k_r
    return out


# ── disjointness and serialization ──────────────────────────────────────


def is_block_disjoint(ops) -> bool:
    """No two operations share a block (a CNOT may name one block twice)."""
    seen: set = set()
    for op in ops:
        if not seen.isdisjoint(op.blocks):
            return False
        seen.update(op.blocks)
    return True


@dataclass
class Schedule:
    classes: list            # list of lists of LogicalOp
    colors: int

    def validate(self, ops) -> list[str]:
        report = []
        flat = [op for cls in self.classes for op in cls]
        if sorted(map(id, flat)) != sorted(map(id, ops)):
            report.append("classes do not partition the input set")
        for i, cls in enumerate(self.classes):
            if not is_block_disjoint(cls):
                report.append(f"class {i} is not block-disjoint")
        return report


def serialize(ops, k: int) -> Schedule:
    """Greedy proper edge coloring of the block multigraph.

    The input layer must hold at most k operations per block and be
    qubit-disjoint with qubit indices in 0..k−1 (k ≥ 1; an INIT occupies
    its whole block, so it shares a qubit with any other op there); then
    greedy needs at most 2k − 1 colors.  Raises ValueError otherwise: the
    first op with an index outside 0..k−1, then the first block, in the
    order the ops name them, that hosts more than k ops, then a shared
    qubit.  One pass checks and colors: each op takes the lowest color
    absent from the bitmasks of colors its blocks already carry.
    """
    ops = list(ops)
    if k < 1:
        raise ValueError(f"k={k}: a block holds at least one logical qubit")
    load: dict[str, int] = {}
    busy: dict[str, int] = {}
    seen: set = set()
    inits, classes, shared = [], [], False
    for op in ops:
        blocks, qubits = op.blocks, op.qubits
        for j in qubits:
            if not 0 <= j < k:
                raise ValueError(f"{op.kind} on {blocks} qubits {qubits}: "
                                 f"an index is outside 0..{k - 1}")
        if len(blocks) == 2 and blocks[0] == blocks[1]:
            blocks = blocks[:1]
        used = 0
        for b in blocks:
            load[b] = load.get(b, 0) + 1
            used |= busy.get(b, 0)
        c = (~used & (used + 1)).bit_length() - 1
        for b in blocks:
            busy[b] = busy.get(b, 0) | 1 << c
        if c == len(classes):
            classes.append([])
        classes[c].append(op)
        if op.kind == "INIT":
            inits.append(blocks[0])
        pairs = tuple(zip(op.blocks, qubits))
        shared = shared or not seen.isdisjoint(pairs)
        seen.update(pairs)
    for b, m in load.items():
        if m > k:
            raise ValueError(f"block {b} hosts {m} operations, more than k={k}")
    if shared or any(load[b] > 1 for b in inits):
        raise ValueError("operation set is not qubit-disjoint")
    if len(classes) > max(2 * k - 1, 1):
        raise AssertionError("greedy coloring exceeded the 2k-1 bound")
    return Schedule(classes=classes, colors=len(classes))


# ── batch and cost arithmetic ───────────────────────────────────────────


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def batch(num: int, k_r: int, k_f: int, d_s: int) -> int:
    """Nested ceiling count of factory runs for `num` copies of one family."""
    if min(k_r, k_f, d_s) <= 0:
        raise ValueError("parameters must be positive")
    if num < 0:
        raise ValueError("count must be nonnegative")
    if num == 0:
        return 0
    return _ceil_div(_ceil_div(_ceil_div(num, k_r), k_f), d_s * d_s)


def batch_bound(num: int, k_r: int, k_f: int, d_s: int) -> Fraction:
    """Closed-form upper bound batch ≤ (num/k_r + 1)/k_f/d_s² + 1/d_s² + 1."""
    den = k_r * k_f * d_s * d_s
    return Fraction(num + k_r + k_r * k_f + den, den)


def sum_batch_bound(total: int, families: int, k_r: int, k_f: int,
                    d_s: int) -> Fraction:
    """Σ_F batch(F) ≤ (M + families·(k_r + k_r·k_f + k_r·k_f·d_s²)) / (k_r·k_f·d_s²)."""
    return Fraction(total + families * (k_r + k_r * k_f + k_r * k_f * d_s * d_s),
                    k_r * k_f * d_s * d_s)


@dataclass
class CostReport:
    """Resource accounting for one block-disjoint sub-layer."""

    num: dict                # family -> occurrence count
    batches: dict            # family -> factory runs
    resource_counts: dict    # resource-state label -> copies needed
    sum_batches: int
    sum_bound: Fraction
    t_magic_consumed: int


def sublayer_cost(ops, k_r: int, k_f: int, d_s: int) -> CostReport:
    """Batch counts, resource-state totals, and the Σ-batch bound over the
    operation families present."""
    ops = list(ops)
    if not is_block_disjoint(ops):
        raise ValueError("sub-layer must be block-disjoint")
    num: dict[str, int] = {}
    resources: dict[str, int] = {}
    t_used = 0
    for op in ops:
        key = op.kind if isinstance(op, LogicalOp) else str(op)
        num[key] = num.get(key, 0) + 1
        dec = decompose(op)
        t_used += dec.consumes_t_magic
        for label in dec.measurements:
            for name, count in measurement_resources(label, k_r).items():
                resources[name] = resources.get(name, 0) + count
        for name in dec.extra_resources:
            resources[name] = resources.get(name, 0) + 1
    batches = {fam: batch(n, k_r, k_f, d_s) for fam, n in num.items()}
    total = sum(num.values())
    sum_b = sum(batches.values())
    bound = sum_batch_bound(total, len(num), k_r, k_f, d_s)
    if sum_b > bound:
        raise AssertionError("batch bound violated")
    return CostReport(num=num, batches=batches, resource_counts=resources,
                      sum_batches=sum_b, sum_bound=bound,
                      t_magic_consumed=t_used)


# ── overhead exponent table ─────────────────────────────────────────────

COMPARISON_ROWS = {
    "GM+BFB": ("0", ">=2"),
    "DS": ("1", "1"),
    "polylog CC+GT": ("0", ">=2a"),
    "log CC+GT (good qLTC)": ("0", "1"),
    "LS (surface code)": ("2", "1"),
}


def overhead_exponents(a: float) -> dict:
    """Qubit/time overhead exponents (0, a) plus the static comparison rows."""
    if a < 1:
        raise ValueError("the distance exponent a is at least 1")
    rows = {"this scheme": ("0", f"{a:g}")}
    rows.update(COMPARISON_ROWS)
    return rows
