"""Correctness checks of the benchmark's workloads.

Each function takes the answers a workload produced and returns one
:class:`Check` per property.  The checks hold for any seed and keep
holding when a later change alters the random stream: exact answers are
compared exactly, and Monte Carlo rates only against wide reference bands.
They judge qsurg's answers with code of their own (a Wilson interval,
brute-force preimages, direct syndrome tests), never with qsurg's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _mul(a, b) -> np.ndarray:
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) & 1


# ── desk ledger ─────────────────────────────────────────────────────────

DESK_KEYS = (
    "code.suite", "soundness.hamming", "lemma.ltc.preimage", "lemma.pcs.glue",
    "lemma.pcs.lifted", "lemma.pcs.extraction", "lemma.pcs.distance",
    "ltsp.noiseless", "lemma.ltsp.spX", "lemma.ltsp.spZ", "lemma.tele.effZ",
    "lemma.tele.effX", "tele.projective_equiv", "surgery.noiseless",
    "lemma.cs.residualZ", "lemma.cs.outcomeX", "sim.memory.d3.p0",
    "sim.memory.d5.p0", "sim.trend", "compile.schedule", "compile.batch",
    "compile.tableIV", "compile.tableI",
)


def desk_ledger(rows: list, tsv: str) -> list[Check]:
    """Every returned row passes, every key of the desk ledger is present,
    and ledger.tsv records the same rows."""
    out = [Check(f"desk.row.{key}", bool(good), str(detail))
           for key, good, detail in rows]
    keys = [key for key, _, _ in rows]
    missing = sorted(set(DESK_KEYS) - set(keys))
    out.append(Check("desk.keys", not missing and len(keys) == len(set(keys)),
                     f"{len(keys)} rows; missing={missing}"))
    lines = tsv.splitlines()
    want = ["key\tstatus\tdetail"] + [
        f"{k}\t{'pass' if g else 'FAIL'}\t{d}" for k, g, d in rows]
    out.append(Check("desk.tsv", lines == want, f"{len(lines)} lines"))
    return out


# ── Monte Carlo ─────────────────────────────────────────────────────────


def wilson(failures: int, trials: int, z: float) -> tuple[float, float]:
    if trials <= 0:
        return 0.0, 1.0
    phat = failures / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def mc_memory(points: dict, p0: dict, reference: dict) -> list[Check]:
    """points: name -> (failures, trials) pooled over rounds; p0: d ->
    (failures, trials) at p = 0; reference: the stored bands.

    The interval and band use z = reference["z"] (4 by default, far wider
    than 95%): with the run's own sampling spread and the reference's
    both inside, a correct sampler fails one of these checks with
    probability below 1e-6 per run, while a decoder or sampler that is off
    by a large factor still lands outside.
    """
    z = reference["z"]
    out = []
    for d, (fails, trials) in sorted(p0.items()):
        out.append(Check(f"mc.p0.d{d}", trials > 0 and fails == 0,
                         f"failures={fails} of {trials}"))
    for name, band in reference["points"].items():
        fails, trials = points.get(name, (0, 0))
        lo, hi = wilson(fails, trials, z)
        ok = trials > 0 and hi >= band["lo"] and lo <= band["hi"]
        out.append(Check(f"mc.band.{name}", ok,
                         f"rate={fails / max(trials, 1):.6g} interval=({lo:.6g},"
                         f"{hi:.6g}) band=({band['lo']:.6g},{band['hi']:.6g})"))
    f3, t3 = points.get("mc_d3_sparse", (0, 0))
    f5, t5 = points.get("mc_d5_sparse", (0, 0))
    ok = t3 > 0 and t5 > 0 and f5 / t5 < f3 / t3
    out.append(Check("mc.trend", ok, f"d5={f5}/{t5} d3={f3}/{t3}"))
    return out


# ── exhaustive certification ────────────────────────────────────────────

CERTIFY = {
    "distance": 5,
    "soundness": Fraction(7, 3),
    "table_entries": 228461,
    "table_depth": 5,
    "composite_n": 213,
    "composite_k": 4,
    "z_checked": 650370,
    "x_checked_base": 1218,
    "copies": 4,
}


def _min_preimage_weight(h: np.ndarray, v: np.ndarray):
    n = h.shape[1]
    best = None
    for bits in itertools.product((0, 1), repeat=n):
        u = np.array(bits, dtype=np.uint8)
        if np.array_equal(_mul(h, u), v):
            w = int(u.sum())
            best = w if best is None else min(best, w)
    return best


def certify(ans: dict, x_samples: int) -> list[Check]:
    want = CERTIFY
    out = []
    dist = ans["distance"]
    out.append(Check("certify.distance",
                     dist.d == want["distance"] and dist.floor == want["distance"] - 1,
                     f"d={dist.d} floor={dist.floor}"))
    s = ans["soundness"]
    out.append(Check("certify.soundness", s == want["soundness"], f"s={s}"))
    h = ans["hamming_h"]
    r, n = h.shape
    bad = []
    amp = Fraction(n, r) / want["soundness"]
    for v, u in ans["preimages"]:
        best = _min_preimage_weight(h, v)
        if (u is None or not np.array_equal(_mul(h, u), v)
                or int(u.sum()) != best
                or int(u.sum()) > amp * int(v.sum())):
            bad.append("".join(map(str, v)))
    out.append(Check("certify.preimages",
                     len(ans["preimages"]) == 1 << r and not bad,
                     f"{len(ans['preimages'])} syndromes; wrong={bad}"))
    entries, depth = ans["table"]
    out.append(Check("certify.table",
                     list(entries) == [want["table_entries"]] * 2
                     and depth == want["table_depth"],
                     f"entries={list(entries)} depth={depth}"))
    n_c, k_c, cert = ans["composite"]
    out.append(Check("certify.composite",
                     (n_c, k_c) == (want["composite_n"], want["composite_k"])
                     and cert.ok,
                     f"n={n_c} k={k_c} ok={cert.ok}"))
    bad_cert, checks, flags = ans["corrupt"]
    v = bad_cert.violation
    real = (not bad_cert.ok and v is not None and 0 < int(np.sum(v)) <= 2
            and not _mul(checks, v).any() and _mul(flags, v).any())
    out.append(Check("certify.corrupt", bool(real),
                     f"ok={bad_cert.ok} weight="
                     f"{None if v is None else int(np.sum(v))}"))
    zs, xs = ans["z_sweeps"], ans["x_sweeps"]
    out.append(Check("certify.sweep_z",
                     len(zs) == want["copies"] and all(
                         c == want["z_checked"] and viol == 0 for c, viol in zs),
                     f"(checked, violations)={zs}"))
    x_want = want["x_checked_base"] + x_samples
    out.append(Check("certify.sweep_x",
                     len(xs) == want["copies"] and all(
                         c == x_want and viol == 0 for c, viol in xs),
                     f"(checked, violations)={xs}"))
    return out


# ── tableau oracle ──────────────────────────────────────────────────────


def _show(bits: np.ndarray) -> str:
    return str(bits.tolist()) if bits.size <= 8 else f"{int(bits.sum())} set"


def oracle(runs: list[dict]) -> list[Check]:
    """Each run: circuit, mode ("noiseless" or "x_logical"), tableau and
    frame outcome bits, the measured and detector bits derived from each,
    and where known the bits the run must produce.

    Noiseless tableau runs draw random outcomes, so only derived bits are
    compared; runs with an injected fault force the tableau's random
    outcomes to the frame's flips, so every outcome bit is compared."""
    out = []
    for run in runs:
        tag = f"oracle.{run['circuit']}.{run['mode']}"
        tab, fr = run["tableau"], run["frame"]
        if run["mode"] == "x_logical":
            same_shape = tab.shape == fr.shape
            diff = int(np.count_nonzero(tab != fr)) if same_shape else "shape"
            out.append(Check(f"{tag}.outcomes", same_shape and diff == 0,
                             f"{diff} of {fr.size} bits differ"))
        for kind in ("measured", "detector"):
            if f"{kind}_tableau" not in run:
                continue
            t_bits = run[f"{kind}_tableau"]
            f_bits = run[f"{kind}_frame"]
            expect = run.get(f"{kind}_expected")
            ok = (np.array_equal(t_bits, f_bits)
                  and (expect is None or np.array_equal(f_bits, expect)))
            out.append(Check(f"{tag}.{kind}", ok,
                             f"tableau={_show(t_bits)} frame={_show(f_bits)}"))
    return out
