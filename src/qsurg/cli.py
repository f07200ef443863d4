"""qsurg command-line interface.

Subcommands map onto the library modules: code construction and metrics,
deformed-code builds with verification reports, preparation-circuit lemma
sweeps, teleported-measurement and surgery lemma checks, Monte Carlo
memory runs, logical-circuit scheduling/cost, and the full desk-scale
`ledger` that runs every check and emits one stable pass/fail row each.

All stochastic subcommands require an explicit seed, and a fixed
(config, seed) pair produces byte-identical artifacts.  Every draw comes
from sim.trial_rng(seed, index), at the indices of _SITES, through
sim.checked_rng, which raises when a site's draws overrun its stream.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import codes, frame, gf2, ltsp, protocol, sim, surgery, tableau
from . import compile as qcompile

_CODE_BUILDERS = {
    "rep3": lambda: codes.repetition(3),
    "rep5": lambda: codes.repetition(5),
    "hamming": codes.hamming_743,
    "steane": codes.steane,
    "surface3": lambda: codes.surface_code_via_hgp(3),
    "surface5": lambda: codes.surface_code_via_hgp(5),
}


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _probability(text: str) -> float:
    p = float(text)
    if not 0 <= p < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a probability in [0, 1)")
    return p


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return n


def _seed(text: str) -> int:
    n = int(text)
    if not 0 <= n < 1 << 128:
        raise argparse.ArgumentTypeError(f"{text} is not a seed in [0, 2^128)")
    return n


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return n


def _path_pair(text: str) -> tuple[str, str]:
    paths = text.split(",")
    if len(paths) != 2 or not all(paths):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not two comma-separated paths")
    return paths[0], paths[1]


def _weight_upto(top: int):
    """argparse type: an exhaustive sweep weight in 0..top."""
    def weight(text: str) -> int:
        n = int(text)
        if not 0 <= n <= top:
            raise argparse.ArgumentTypeError(f"{text} is not in 0..{top}")
        return n
    return weight


# ── random streams ──────────────────────────────────────────────────────

# Site i owns trial_rng indices [i·2^32, (i+1)·2^32), so no two draws of one
# ledger run share a (seed, index) stream; "sim.d3" starts at index 0.
_SITES = {site: i << 32 for i, site in enumerate((
    "sim.d3", "sim.d5", "prep.tableau", "ltsp.spZ", "tele.frames",
    "surgery.tableau", "compile.schedule", "compile.batch"))}


def _rng(seed: int, site: str, i: int = 0):
    """The site's i-th stream, checked against overrun after the with-block."""
    return sim.checked_rng(seed, _SITES[site] + i)


# ── individual subcommands ──────────────────────────────────────────────


class _InputError(Exception):
    """A command's input files could not be read or built from."""


@contextmanager
def _reading():
    """Report an OSError, ValueError or GlueConstructionError raised inside
    the block, which reads or builds from a command's input files, as an
    _InputError: main prints it and exits 2."""
    try:
        yield
    except (OSError, ValueError, surgery.GlueConstructionError) as err:
        raise _InputError(err) from err


def cmd_codes_build(args) -> int:
    builder = _CODE_BUILDERS.get(args.name)
    if builder is None:
        print(f"unknown code {args.name!r}; choose from "
              f"{sorted(_CODE_BUILDERS)}", file=sys.stderr)
        return 2
    code = builder()
    if isinstance(code, codes.ClassicalCode):
        path = codes.save_classical(code, args.out, name=args.name)
    else:
        path = codes.save_css(code, args.out, name=args.name)
    print(path)
    return 0


def cmd_distance(args) -> int:
    with _reading():
        code = codes.load_manifest(args.manifest)
    res = codes.distance(code, budget=args.budget)
    if res.exact:
        print(f"d={res.d} exact")
    else:
        print(f"d>{res.floor} certified")
    return 0


def cmd_soundness(args) -> int:
    with _reading():
        code = codes.load_manifest(args.manifest)
        if not isinstance(code, codes.ClassicalCode):
            raise ValueError(f"{args.manifest} is not a classical code")
    s = code.soundness if code.soundness_exact else codes.soundness(code)
    print("undefined" if s is None else f"{s.numerator}/{s.denominator}")
    return 0


def cmd_surgery_build(args) -> int:
    with _reading():
        target = codes.load_manifest(args.target)
        r_code = codes.load_manifest(args.rcode)
        dc = surgery.build_deformed(target, gf2.load_matrix(args.alpha),
                                    r_code)
    glue = dc.glue
    report = surgery.verify_glue(target, glue)
    lifted = surgery.verify_lifted_conditions(dc)
    surgery.measured_extraction(dc)
    os.makedirs(args.out, exist_ok=True)
    for name, m in (("hdx", dc.css.h_x), ("hdz", dc.css.h_z),
                    ("jdx", dc.css.j_x), ("jdz", dc.css.j_z),
                    ("h_g", glue.h_g), ("s", glue.s), ("t", glue.t),
                    ("r", glue.r), ("beta", glue.beta), ("alpha", glue.alpha)):
        gf2.save_matrix(os.path.join(args.out, f"{name}.txt"), m)
    codes.save_css(target, args.out, name="target")
    codes.save_classical(r_code, args.out, name="rcode")
    lines = [f"glue_report={';'.join(report) or 'ok'}",
             f"lifted_report={';'.join(lifted) or 'ok'}",
             f"n={dc.css.n}", f"k={dc.css.k}", f"d_floor={dc.css.d}"]
    _write(os.path.join(args.out, "report.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if not report and not lifted else 1


def _print_rows(rows) -> int:
    """Print (key, pass, detail) rows; exit code 0 iff every row passed."""
    for key, good, detail in rows:
        print(f"{key}\t{'pass' if good else 'FAIL'}\t{detail}")
    return 0 if all(good for _, good, _ in rows) else 1


def cmd_ltsp_verify(args) -> int:
    with _reading():
        source = codes.load_manifest(args.source)
        f = codes.load_manifest(args.fcode)
        prep = ltsp.build_prep_circuit(source, f)
    rows = [_prep_noiseless(prep, args.seed)]
    for j, (rz, rx) in enumerate(_ltsp_sweeps(source, f,
                                              [args.samples] * f.k,
                                              args.seed)):
        rows.append((f"lemma.ltsp.spX.copy{j}", rz.clean,
                     f"checked={rz.checked} units, all weights (linear)"))
        rows.append((f"lemma.ltsp.spZ.copy{j}", rx.clean,
                     f"checked={rx.checked} detected={rx.detected}"))
    return _print_rows(rows)


def cmd_protocol_check(args) -> int:
    with _reading():
        target = codes.load_manifest(
            os.path.join(args.deformed, "target.manifest"))
        r_code = codes.load_manifest(
            os.path.join(args.deformed, "rcode.manifest"))
        alpha = gf2.load_matrix(os.path.join(args.deformed, "alpha.txt"))
        dc = surgery.build_deformed(target, alpha, r_code)
        if dc.css.d is None:
            raise ValueError("the target and R code manifests must set d=")
    return _print_rows(check_surgery(Desk(args.seed, args.max_weight, dc=dc)))


def _load_sim_spec(path: str) -> dict:
    with open(path, encoding="ascii") as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


def cmd_sim_run(args) -> int:
    with _reading():
        spec = _load_sim_spec(args.circuit)
        if spec.get("kind") != "surface_memory":
            raise ValueError("circuit spec must set kind=surface_memory")
        d = spec.get("d", "").strip()
        if not (d.isdigit() and int(d) % 2 == 1):
            raise ValueError("circuit spec must set d=<odd positive "
                             f"integer>, not d={d!r}")
    exp = sim.build_memory_experiment(codes.surface_code_via_hgp(int(d)))
    est = sim.logical_error_rate(exp, args.p, args.trials, args.seed)
    line = (f"{args.p:.10g}\t{est.trials}\t{est.failures}\t{est.rate:.10g}"
            f"\t{est.ci_low:.10g}\t{est.ci_high:.10g}\t{est.z_heralded}"
            f"\t{est.z_silent}\t{est.x_heralded}\t{est.x_silent}")
    header = ("p\ttrials\tfailures\testimate\tci_low\tci_high"
              "\tz_heralded\tz_silent\tx_heralded\tx_silent")
    text = header + "\n" + line + "\n"
    if args.out:
        _write(args.out, text)
    print(text, end="")
    return 0


def cmd_compile(args) -> int:
    with _reading(), open(args.circuit, encoding="ascii") as fh:
        ops = qcompile.parse_circuit(fh.read())
        sched = qcompile.serialize(ops, args.k)
    bad = sched.validate(ops)
    sched_path, cost_path = args.out
    lines = ["class\tkind\tblocks\tqubits"]
    for i, cls in enumerate(sched.classes):
        for op in cls:
            lines.append(f"{i}\t{op.kind}\t{','.join(op.blocks)}"
                         f"\t{','.join(map(str, op.qubits))}")
    _write(sched_path, "\n".join(lines) + "\n")
    cost_lines = ["class\tfamily\tnum\tbatches\tsum_bound"]
    for i, cls in enumerate(sched.classes):
        rep = qcompile.sublayer_cost(cls, k_r=args.k_r, k_f=args.k_f,
                                     d_s=args.d_s)
        for fam, n in sorted(rep.num.items()):
            cost_lines.append(f"{i}\t{fam}\t{n}\t{rep.batches[fam]}"
                              f"\t{float(rep.sum_bound):.10g}")
    _write(cost_path, "\n".join(cost_lines) + "\n")
    print(f"classes={sched.colors} valid={not bad}")
    return 0 if not bad else 1


# ── desk ledger ─────────────────────────────────────────────────────────


def _prep_noiseless(prep, seed) -> tuple:
    """The ltsp.noiseless row: the zero-forced run of the preparation
    circuit reads zero, and a random-outcome run leaves every copy's
    resource-state stabilizers exactly stabilized with phase +1."""
    good = not tableau.run_tableau(prep.circuit, force_zero=True).outcomes.any()
    rs = ltsp.resource_state(prep.source)
    with _rng(seed, "prep.tableau") as rng:
        tab = tableau.run_tableau(prep.circuit, rng=rng).sim
    zero = np.zeros(2 * prep.source.n)
    for j in range(prep.k_f):
        qubits = np.concatenate(prep.copy_qubits(j))
        for row in rs.h_rs_x:
            good &= tableau.stabilizer_phase(tab, qubits, row, zero) == 0
        for row in rs.h_rs_z:
            good &= tableau.stabilizer_phase(tab, qubits, zero, row) == 0
    return ("ltsp.noiseless", good, "all copies exactly stabilized")


def _ltsp_sweeps(source, f, samples, seed):
    """(Z sweep, X sweep) reports of every output copy.  The Z-residual map
    is linear, so its unit faults decide every weight; the X sweep of copy
    j checks every unit fault plus samples[j] random pairs."""
    for j, spp in enumerate(ltsp.sp_copies(source, f, range(f.k))):
        yield (ltsp.sweep_z_lemma(spp, max_weight=1),
               ltsp.sweep_x_lemma(spp, max_weight=1, samples=samples[j],
                                  seed=seed, stream=_SITES["ltsp.spZ"] + j))


def _surgery_faults(run, h, names, w):
    """Every fault of weight 1..w on the named groups of the run's layout
    that h misses (outcome flips zero), in (weight, lexicographic) order:
    one sweep of the groups' packed [syndrome | unit] columns."""
    lay = run.layout
    idx = np.concatenate([np.arange(lay.total)[lay.sl(nm)] for nm in names])
    syn = gf2.pack_words(h[:, idx].T)
    a = syn.shape[1]
    cols = np.hstack([syn, gf2.pack_words(gf2.eye(len(idx)))])
    # kept[0] is the empty set, whose syndrome is zero too.
    kept = np.concatenate([words[~words[:, :a].any(axis=1), a:]
                           for _, words in gf2.combination_sweep(cols, w)])
    e = gf2.zeros(len(kept) - 1, lay.total)
    e[:, idx] = gf2.unpack_words(kept[1:], len(idx))
    return e


def _sweep_residual_z(run, max_weight):
    """lemma.cs.residualZ below the deformed distance floor."""
    dc = run.deformed
    w = min(max_weight, dc.css.d - 1)
    e = _surgery_faults(run, run.h_ls_x, ("M1", "M2", "M3", "A1", "A2"), w)
    res = protocol.surgery_residual_z(run, e, gf2.zeros(len(e), run.n_mem))
    return (bool(np.all((res.status == "ok") & res.bound_ok)),
            f"checked={len(e)} exhaustive_w={w} k={dc.css.k}")


def _sweep_outcome_x(run, max_weight):
    """lemma.cs.outcomeX below the target distance."""
    w = min(max_weight, run.deformed.target.d - 1)
    e = _surgery_faults(run, run.h_ls_z, ("M1", "A1"), w)
    res = protocol.surgery_outcome_x(run, e, np.zeros_like(e))
    rate = np.count_nonzero(res.outcome_correct) / len(e) if len(e) else 1.0
    ok = bool(np.all(res.outcome_correct & res.bound_ok))
    return ok, f"checked={len(e)} exhaustive_w={w} outcome_rate={rate:.6f}"


@dataclass
class Desk:
    """The desk checks' shared inputs: seed, sizes (the ledger defaults) and
    the alpha=[[1]] deformed code of surface3 with the Hamming R code, built
    once.  A check's table beside ledger.tsv goes to `tables` by file name."""
    seed: int
    max_weight: int = 2
    samples: int = 10000
    trials: int = 100000
    frames: int = 1000
    dc: surgery.DeformedCode = field(default_factory=lambda: (
        surgery.build_deformed(codes.surface_code_via_hgp(3), [[1]],
                               codes.hamming_743())))
    tables: dict = field(default_factory=dict)


def check_code_suite(desk: Desk) -> list[tuple]:
    """1. The example codes are valid and have their exact distances."""
    suite = [codes.repetition(3), codes.repetition(5), codes.hamming_743(),
             codes.steane(), desk.dc.target]
    want_d = (3, 5, 3, 3, 3)
    good = True
    for code, d in zip(suite, want_d):
        if isinstance(code, codes.ClassicalCode):
            good &= codes.validate_classical(code) == []
        else:
            good &= codes.validate_css(code) == []
        good &= codes.distance(code).d == d
    return [("code.suite", good, "distances (3,5,3,3,3) exhaustively verified")]


def check_soundness(desk: Desk) -> list[tuple]:
    """2. The Hamming code's exact soundness and the LTC preimage bound."""
    ham = desk.dc.r_code
    s = codes.soundness(ham)
    good = s == Fraction(7, 3)
    r, n = ham.h.shape
    # Each syndrome v's coset leader u (its min-weight preimage) has
    # |u| ≤ (n / (r·s))·|v|.
    v = (np.arange(1 << r)[:, None] >> np.arange(r)) & 1
    table = gf2.syndrome_table(ham.h, n)
    idx, hit = table.find(gf2.pack_words(v))
    u_w = np.bitwise_count(table.errors[idx]).sum(axis=1)
    good &= bool(hit.all() and (r * s.numerator * u_w
                                <= n * s.denominator * v.sum(axis=1)).all())
    return [("soundness.hamming", s == Fraction(7, 3), f"s={s}"),
            ("lemma.ltc.preimage", good, "all 8 syndromes")]


def check_deformed(desk: Desk) -> list[tuple]:
    """3. The deformed code's coupling conditions and distance floor."""
    dc = desk.dc
    try:
        surgery.measured_extraction(dc)
        extraction = (True, "identity bit-exact")
    except surgery.InternalConsistencyError as err:
        extraction = (False, str(err))
    budget = min(desk.max_weight, min(dc.target.d, dc.r_code.d) - 1)
    cert = surgery.verify_distance_bound(dc, budget)
    return [("lemma.pcs.glue", surgery.verify_glue(dc.target, dc.glue) == [], ""),
            ("lemma.pcs.lifted", surgery.verify_lifted_conditions(dc) == [], ""),
            ("lemma.pcs.extraction", *extraction),
            ("lemma.pcs.distance", cert.ok,
             f"no logical error of weight<={budget} k={dc.css.k}")]


def check_preparation(desk: Desk) -> list[tuple]:
    """4. The preparation circuit's noiseless run and residual bounds."""
    target, ham = desk.dc.target, desk.dc.r_code
    rows = [_prep_noiseless(ltsp.build_prep_circuit(target, ham), desk.seed)]
    # The samples spread over the k_F copies, the first ones taking the
    # remainder.
    share, extra = divmod(desk.samples, ham.k)
    z_reps, x_reps = zip(*_ltsp_sweeps(
        target, ham, [share + (j < extra) for j in range(ham.k)], desk.seed))
    return rows + [
        ("lemma.ltsp.spX", all(r.clean for r in z_reps),
         f"checked={sum(r.checked for r in z_reps)} units, all weights "
         "(linear)"),
        ("lemma.ltsp.spZ", all(r.clean for r in x_reps),
         f"checked={sum(r.checked for r in x_reps)}")]


def check_teleported(desk: Desk) -> list[tuple]:
    """5. The teleported measurement's error reductions and frames."""
    target, frames = desk.dc.target, desk.frames
    tm = protocol.build_tele_measurement(target)
    # Both reductions and their identities are linear: the unit faults
    # decide every weight.
    units = gf2.eye(tm.layout.total)
    rows = [(key, kernel(tm, units)[1].all(),
             f"checked={len(units)} units, all weights (linear)")
            for key, kernel in (("lemma.tele.effZ", protocol.effective_z_error),
                                ("lemma.tele.effX", protocol.effective_x_error))]
    # One lane per frame: random X and Z inputs on A1, drawn X then Z.
    with _rng(desk.seed, "tele.frames") as rng:
        draws = rng.integers(0, 2, size=(2 * frames, target.n),
                             dtype=np.uint8)
    x_in, z_in = draws.reshape(frames, 2, target.n).transpose(1, 0, 2)
    fr = frame.run_lanes(tm.circuit, tm.col_locs["A1"],
                         x_in * frame.X | z_in * frame.Z)
    mis = int(np.count_nonzero(
        (tm.derived_outcome(fr.outcome_flips)
         != gf2.row_images(target.h_z, x_in)).any(axis=1)))
    mis += int(np.count_nonzero((fr.x_on(tm.c_ids) != x_in).any(axis=1)
                                | (fr.z_on(tm.c_ids) != z_in).any(axis=1)))
    return rows + [("tele.projective_equiv", mis == 0,
                    f"frames={frames} mismatches={mis}")]


def check_surgery(desk: Desk) -> list[tuple]:
    """6. Surgery end to end on the deformed code."""
    dc, seed = desk.dc, desk.seed
    run = protocol.build_surgery_circuit(dc)
    view, n = run.expanded, dc.target.n
    with _rng(seed, "surgery.tableau") as rng:
        res = tableau.run_tableau(view.circuit, rng=rng)
    zero_ok = (not run.measured_bits(view, res.outcomes).any()
               and not run.detector_bits(view, res.outcomes).any())
    locs = [view.col_locs["M1"][copy * n + i] for copy in range(dc.k_r)
            for i in np.flatnonzero(dc.target.j_x[0])]
    with _rng(seed, "surgery.tableau", 1) as rng:
        res1 = tableau.run_tableau(view.circuit, x_errors=locs, rng=rng)
    ones_ok = bool(run.measured_bits(view, res1.outcomes).all())
    return [("surgery.noiseless", zero_ok and ones_ok,
             "outcomes +1 on |0>, -1 on |1>"),
            ("lemma.cs.residualZ", *_sweep_residual_z(run, desk.max_weight)),
            ("lemma.cs.outcomeX", *_sweep_outcome_x(run, desk.max_weight))]


def check_monte_carlo(desk: Desk) -> list[tuple]:
    """7. The Monte Carlo distance trend; the rates go to sim_memory.tsv."""
    seed, trials = desk.seed, desk.trials
    rows, est = [], {}
    sim_lines = ["d\tp\ttrials\tfailures\testimate\tci_low\tci_high"]
    for d in (3, 5):
        exp = sim.build_memory_experiment(codes.surface_code_via_hgp(d))
        stream = _SITES[f"sim.d{d}"]
        zero = sim.logical_error_rate(exp, 0.0, min(trials, 1000), seed, stream)
        est[d] = sim.logical_error_rate(exp, 1e-3, trials, seed, stream)
        rows.append((f"sim.memory.d{d}.p0", zero.failures == 0, "exact zero"))
        e = est[d]
        sim_lines.append(f"{d}\t0.001\t{e.trials}\t{e.failures}"
                         f"\t{e.rate:.10g}\t{e.ci_low:.10g}\t{e.ci_high:.10g}")
    desk.tables["sim_memory.tsv"] = sim_lines
    trend = (est[5].rate < est[3].rate
             and est[5].ci_high < est[3].ci_low)
    return rows + [(
        "sim.trend", trend,
        f"d3={est[3].rate:.6g} ({est[3].ci_low:.6g},{est[3].ci_high:.6g}) "
        f"d5={est[5].rate:.6g} ({est[5].ci_low:.6g},{est[5].ci_high:.6g})")]


def check_scheduler(desk: Desk) -> list[tuple]:
    """8. Random layers serialize into at most 2k − 1 valid classes."""
    sched_ok = True
    with _rng(desk.seed, "compile.schedule") as rng:
        for _ in range(200):
            k = int(rng.integers(1, 7))
            blocks = int(rng.integers(2, 33))
            ops = _random_layer(rng, blocks, k)
            sched = qcompile.serialize(ops, k)
            sched_ok &= sched.validate(ops) == [] and sched.colors <= 2 * k - 1
    return [("compile.schedule", sched_ok, "200 random layers")]


def check_costs(desk: Desk) -> list[tuple]:
    """9. Batch counts within their bounds, and the static tables."""
    with _rng(desk.seed, "compile.batch") as rng:
        grid = [rng.integers(lo, hi, size=1000).tolist()
                for lo, hi in ((0, 5000), (1, 9), (1, 9), (1, 6))]
    cnots = [qcompile.LogicalOp("CNOT", (f"u{i}", f"v{i}"), (0, 0))
             for i in range(10)]
    rep = qcompile.sublayer_cost(cnots, k_r=4, k_f=4, d_s=3)
    cost_ok = (all(qcompile.batch(*pt) <= qcompile.batch_bound(*pt)
                   for pt in zip(*grid))
               and rep.sum_batches <= rep.sum_bound)
    measured = {"MEA": ("Zj",), "H": ("Zj*Z1", "Xj", "Zj*X1", "Z1"),
                "S": ("Z1*Z1", "Zj*Z1*X1", "X1"),
                "T": ("Zj*Z1", "X1", "X1", "Z1*Z1", "Zj*Z1*X1"),
                "CNOT": ("Za*Z1", "Xb*X1", "Z1")}
    table_ok = (all(qcompile.decompose(kind).measurements == m
                    for kind, m in measured.items())
                and qcompile.decompose("T").consumes_t_magic
                and qcompile.decompose("S").uses_s_magic
                and qcompile.decompose("INIT").extra_resources == ("HM_X",))
    rows_t = qcompile.overhead_exponents(1.5)
    exp_ok = (rows_t["DS"] == ("1", "1")
              and rows_t["LS (surface code)"] == ("2", "1")
              and all(qcompile.overhead_exponents(a)["this scheme"]
                      == ("0", f"{a:g}") for a in (1, 1.5, 2)))
    return [("compile.batch", cost_ok, "1000-point grid"),
            ("compile.tableIV", table_ok, "decomposition rows verbatim"),
            ("compile.tableI", exp_ok, "overhead exponent rows")]


# The desk ledger's sections, in ledger order; each returns its
# (key, pass, detail) rows.
DESK_CHECKS = (check_code_suite, check_soundness, check_deformed,
               check_preparation, check_teleported, check_surgery,
               check_monte_carlo, check_scheduler, check_costs)


def run_desk_ledger(seed: int, out_dir: str, max_weight: int = Desk.max_weight,
                    samples: int = Desk.samples, trials: int = Desk.trials,
                    frames: int = Desk.frames) -> list[tuple]:
    """Run DESK_CHECKS in order; returns their (key, pass, detail) rows.
    A glue that cannot be built gives one lemma.pcs.glue FAIL row."""
    try:
        desk = Desk(seed, max_weight, samples, trials, frames)
    except surgery.GlueConstructionError as err:
        desk, rows = None, [("lemma.pcs.glue", False, str(err))]
    else:
        rows = [(key, bool(good), detail) for check in DESK_CHECKS
                for key, good, detail in check(desk)]
    if out_dir:
        lines = ["key\tstatus\tdetail"]
        lines += [f"{k}\t{'pass' if g else 'FAIL'}\t{d}" for k, g, d in rows]
        _write(os.path.join(out_dir, "ledger.tsv"), "\n".join(lines) + "\n")
    if out_dir and desk:
        for name, table in desk.tables.items():
            _write(os.path.join(out_dir, name), "\n".join(table) + "\n")
        dc = desk.dc
        for name, m in (("hdx", dc.css.h_x), ("hdz", dc.css.h_z),
                        ("jdx", dc.css.j_x), ("jdz", dc.css.j_z)):
            gf2.save_matrix(os.path.join(out_dir, f"deformed_{name}.txt"), m)
    return rows


def _random_layer(rng, n_blocks, k):
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
            ops.append(qcompile.LogicalOp("CNOT", (b1, b2), (q1, q2)))
            i += 2
        else:
            b, q = free[order[i]]
            kind = kind if kind != "CNOT" else "MEA"
            ops.append(qcompile.LogicalOp(kind, (b,), (q,)))
            i += 1
    return ops


def cmd_ledger(args) -> int:
    if args.preset != "desk":
        print("only --preset desk is available", file=sys.stderr)
        return 2
    return _print_rows(run_desk_ledger(
        seed=args.seed, out_dir=args.out, max_weight=args.max_weight,
        samples=args.samples, trials=args.trials))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qsurg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codes", help="build example code manifests")
    csub = p.add_subparsers(dest="codes_cmd", required=True)
    pb = csub.add_parser("build")
    pb.add_argument("--name", required=True)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=cmd_codes_build)

    p = sub.add_parser("distance", help="exact or certified code distance")
    p.add_argument("--manifest", required=True)
    p.add_argument("--budget", type=_count, default=None)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("soundness", help="exact local-testability constant")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_soundness)

    p = sub.add_parser("surgery", help="deformed-code construction")
    ssub = p.add_subparsers(dest="surgery_cmd", required=True)
    pb = ssub.add_parser("build")
    pb.add_argument("--target", required=True)
    pb.add_argument("--alpha", required=True)
    pb.add_argument("--rcode", required=True)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=cmd_surgery_build)

    p = sub.add_parser("ltsp", help="preparation-circuit verification")
    lsub = p.add_subparsers(dest="ltsp_cmd", required=True)
    pb = lsub.add_parser("verify")
    pb.add_argument("--source", required=True)
    pb.add_argument("--fcode", required=True)
    pb.add_argument("--samples", type=_count, default=1000,
                    help="random pairs of the X sweep, beside every unit "
                         "fault")
    pb.add_argument("--seed", type=_seed, required=True)
    pb.set_defaults(func=cmd_ltsp_verify)

    p = sub.add_parser("protocol", help="surgery lemma checks")
    psub = p.add_subparsers(dest="protocol_cmd", required=True)
    pb = psub.add_parser("check")
    pb.add_argument("--deformed", required=True)
    pb.add_argument("--max-weight", type=_weight_upto(2), default=2,
                    help="exhaustive weight of the lemma.cs sweeps, each "
                         "capped one below its lemma's distance")
    pb.add_argument("--seed", type=_seed, required=True)
    pb.set_defaults(func=cmd_protocol_check)

    p = sub.add_parser("sim", help="Monte Carlo memory runs")
    msub = p.add_subparsers(dest="sim_cmd", required=True)
    pb = msub.add_parser("run")
    pb.add_argument("--circuit", required=True)
    pb.add_argument("--p", type=_probability, required=True)
    pb.add_argument("--trials", type=_count, required=True)
    pb.add_argument("--seed", type=_seed, required=True)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_sim_run)

    p = sub.add_parser("compile", help="schedule and cost a logical circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--k-r", type=_positive, default=4)
    p.add_argument("--k-f", type=_positive, default=4)
    p.add_argument("--d-s", type=_positive, default=3)
    p.add_argument("--out", type=_path_pair, required=True,
                   help="schedule and cost paths, comma-separated")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("ledger", help="run the full desk-scale check suite")
    p.add_argument("--preset", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--max-weight", type=_weight_upto(2), default=2,
                   help="exhaustive weight of the lemma.pcs.distance and "
                        "lemma.cs sweeps, each capped one below its lemma's "
                        "distance; the linear lemma rows check every unit "
                        "fault, which covers all weights")
    p.add_argument("--samples", type=_count, default=10000,
                   help="random pairs of lemma.ltsp.spZ, spread evenly over "
                        "the k_F copies")
    p.add_argument("--trials", type=_count, default=100000)
    p.set_defaults(func=cmd_ledger)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, gf2.SearchTooLarge) as err:
        print(f"{args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
