"""The benchmark's four workloads.

Each workload turns the benchmark seed into its inputs, sets itself up
(timed apart, as setup_s), runs repetitions of a unit of work that time
each part of the unit separately, and checks every answer with
bench/checks.py.  The fixed inputs (sizes, d, p, sample counts) are read
from workloads.json.  All calls go into qsurg's public functions; the
two private names used are the lookup tables' sizes
(`LookupDecoder._x_table`, `_z_table`), which the certify check counts.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def derive_seeds(seed: int, *key: int, count: int = 1) -> list[int]:
    """Independent 63-bit seeds for (benchmark seed, key...)."""
    ss = np.random.SeedSequence([seed & ((1 << 63) - 1), *key])
    return [int(x) >> 1 for x in ss.generate_state(count, dtype=np.uint64)]


class Workload:
    """Base: subclasses define build(), unit(k) and check()."""

    def __init__(self, spec: dict, seed: int, work_dir: str) -> None:
        self.inputs = spec["inputs"]
        self.setup_reps = spec["setup_reps"]
        self.min_units = spec["min_units"]
        self.seed = seed
        self.work_dir = work_dir
        self.results: list = []

    def setup(self) -> tuple[float, float]:
        """Build the workload's state; return when it started and ended."""
        t0 = time.perf_counter()
        self.build()
        return t0, time.perf_counter()

    def build(self) -> None:
        pass

    def unit(self, k: int) -> dict[str, tuple[float, float]]:
        """Run repetition k; return when each part started and ended."""
        raise NotImplementedError

    @contextmanager
    def part(self, parts: dict, name: str):
        t0 = time.perf_counter()
        yield
        parts[name] = (t0, time.perf_counter())

    def check(self) -> list[checks.Check]:
        raise NotImplementedError


# ── desk ledger ─────────────────────────────────────────────────────────


class DeskLedger(Workload):
    def build(self) -> None:
        # The desk-scale objects the ledger builds before its checks, with
        # the builders it calls.  The ledger builds them again on every
        # run, so they stay inside wall_s as well.
        from qsurg import codes, ltsp, protocol, surgery
        target = codes.surface_code_via_hgp(3)
        r_code = codes.hamming_743()
        glue = surgery.build_glue(target, [[1]])
        dc = surgery.build_deformed(target, [[1]], r_code, glue)
        ltsp.build_prep_circuit(target, r_code)
        protocol.build_tele_measurement(target)
        protocol.build_surgery_circuit(dc)

    def unit(self, k: int):
        from qsurg import cli
        seed = derive_seeds(self.seed, k)[0] % (1 << 31)
        inp = self.inputs
        parts = {}
        with tempfile.TemporaryDirectory(dir=self.work_dir) as out:
            with self.part(parts, "ledger"):
                rows = cli.run_desk_ledger(
                    seed, out_dir=out, max_weight=inp["max_weight"],
                    samples=inp["samples"], trials=inp["trials"],
                    frames=inp["frames"])
            with open(os.path.join(out, "ledger.tsv"), encoding="ascii") as fh:
                tsv = fh.read()
        self.results.append((rows, tsv))
        return parts

    def check(self):
        return [c for rows, tsv in self.results
                for c in checks.desk_ledger(rows, tsv)]


# ── Monte Carlo memory ──────────────────────────────────────────────────


class McMemory(Workload):
    def build(self) -> None:
        from qsurg import codes, sim
        self.exps = None  # release the previous build before the next one
        exps = {}
        for d in sorted({pt["d"] for pt in self.inputs["points"]}):
            exp = sim.build_memory_experiment(codes.surface_code_via_hgp(d))
            exp.compile_faults()
            exps[d] = exp
        self.exps = exps

    def unit(self, k: int):
        from qsurg import sim
        points = self.inputs["points"]
        seeds = derive_seeds(self.seed, k, count=len(points))
        out, parts = {}, {}
        for pt, seed in zip(points, seeds):
            with self.part(parts, pt["name"]):
                est = sim.logical_error_rate(self.exps[pt["d"]], pt["p"],
                                             pt["trials_per_round"], seed)
            out[pt["name"]] = (est.failures, est.trials)
        self.results.append(out)
        return parts

    def rates(self, part_s: dict[str, float]) -> dict[str, float]:
        """Per point, trials per second from its median round time."""
        return {f"{pt['name']}_trials_per_s":
                pt["trials_per_round"] / part_s[pt["name"]]
                for pt in self.inputs["points"]}

    def check(self):
        from qsurg import sim
        pooled = {}
        for r in self.results:
            for name, (f, t) in r.items():
                pf, pt = pooled.get(name, (0, 0))
                pooled[name] = (pf + f, pt + t)
        p0 = {}
        n0 = self.inputs["p0_trials"]
        for d, exp in sorted(self.exps.items()):
            est = sim.logical_error_rate(exp, 0.0, n0,
                                         derive_seeds(self.seed, 1 << 20, d)[0])
            p0[d] = (est.failures, est.trials)
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        return checks.mc_memory(pooled, p0, reference)


# ── exhaustive certification ────────────────────────────────────────────


class Certify(Workload):
    def build(self) -> None:
        from qsurg import codes
        self.surface5 = codes.surface_code_via_hgp(5)
        self.surface3 = codes.surface_code_via_hgp(3)
        self.pair = codes.direct_sum_css(self.surface3, self.surface3)
        self.hamming = codes.hamming_743()

    def unit(self, k: int):
        from qsurg import codes, gf2, ltsp, sim, surgery
        parts, ans = {}, {}
        with self.part(parts, "distance"):
            ans["distance"] = codes.distance(self.surface5)
        with self.part(parts, "deep_decoder"):
            dec = sim.deep_decoder(self.surface5)
        ans["table"] = ((len(dec._x_table), len(dec._z_table)), dec.t)
        ham = self.hamming
        r = ham.h.shape[0]
        ans["hamming_h"] = ham.h
        ans["preimages"] = []
        with self.part(parts, "soundness"):
            ans["soundness"] = codes.soundness(ham)
            for bits in range(1 << r):
                v = np.array([(bits >> i) & 1 for i in range(r)], dtype=np.uint8)
                ans["preimages"].append(
                    (v, gf2.solve_linear(ham.h, v, mode="min_weight")))

        with self.part(parts, "distance_bound"):
            dc = surgery.build_deformed(self.pair, gf2.bitmat([[1, 1]]), ham)
            ans["composite"] = (dc.css.n, dc.css.k,
                                surgery.verify_distance_bound(dc, 2))
            # The corrupted twin: copy 0 loses its target Z checks and its
            # readout couplings, so weight <= 2 X errors become logical.
            r_z, n_g = self.pair.h_z.shape[0], dc.glue.n_g
            zapped = dc.css.h_z.copy()
            zapped[0:r_z] = 0
            zapped[4 * r_z: 4 * r_z + n_g] = 0
            css = codes.CssCode(h_x=dc.css.h_x, h_z=zapped, j_x=dc.css.j_x,
                                j_z=dc.css.j_z, n=dc.css.n, k=dc.css.k)
            bad = surgery.DeformedCode(css=css, glue=dc.glue, r_code=dc.r_code,
                                       target=dc.target)
            cert = surgery.verify_distance_bound(bad, 2)
        side = (css.h_z, css.j_z) if cert.side != "Z" else (css.h_x, css.j_x)
        ans["corrupt"] = (cert, *side)

        seeds = derive_seeds(self.seed, k, count=ham.k)
        ans["z_sweeps"], ans["x_sweeps"] = [], []
        for j in range(ham.k):
            with self.part(parts, f"ltsp.copy{j}"):
                spp = ltsp.sp_matrices(self.surface3, ham, j)
                rz = ltsp.sweep_z_lemma(spp, max_weight=2)
                rx = ltsp.sweep_x_lemma(spp, max_weight=1,
                                        samples=self.inputs["x_samples"],
                                        seed=seeds[j])
            ans["z_sweeps"].append((rz.checked, rz.violations))
            ans["x_sweeps"].append((rx.checked, rx.violations))
        self.results.append(ans)
        return parts

    def check(self):
        return [c for ans in self.results
                for c in checks.certify(ans, self.inputs["x_samples"])]


# ── tableau oracle ──────────────────────────────────────────────────────


class Oracle(Workload):
    def build(self) -> None:
        from qsurg import codes, gf2, ltsp, protocol, surgery
        s3 = codes.surface_code_via_hgp(3)
        ham = codes.hamming_743()
        self.surface3 = s3
        self.prep = ltsp.build_prep_circuit(s3, ham)
        self.prep_det = self.prep.detector_matrix()
        desk = surgery.build_deformed(s3, gf2.bitmat([[1]]), ham)
        self.surgery = (desk, protocol.build_surgery_circuit(desk))

    def _pair(self, parts, circ, derive, expected, rng, x_locs, name):
        """One noiseless and one X-logical run of `circ`, both checked
        against the frame simulator."""
        from qsurg import frame, tableau
        runs = []
        for mode, locs in (("noiseless", []), ("x_logical", x_locs)):
            with self.part(parts, f"{name}.{mode}"):
                fr = frame.run_frames(circ, x_locs=locs)
                if mode == "noiseless":
                    tab = tableau.run_tableau(circ, rng=rng)
                else:
                    tab = tableau.run_tableau(
                        circ, forced_outcomes=fr.outcome_flips, x_errors=locs)
            run = {"circuit": name, "mode": mode, "tableau": tab.outcomes,
                   "frame": fr.outcome_flips}
            for kind, fn in derive.items():
                run[f"{kind}_tableau"] = fn(tab.outcomes)
                run[f"{kind}_frame"] = fn(fr.outcome_flips)
                want = expected[mode].get(kind)
                if want is not None:
                    run[f"{kind}_expected"] = want
            runs.append(run)
        return runs

    def unit(self, k: int):
        from qsurg import gf2
        s3 = self.surface3
        n = s3.n
        jx = np.nonzero(s3.j_x[0])[0]
        seeds = derive_seeds(self.seed, k, count=2)
        rng = np.random.default_rng(seeds[0])
        choice = np.random.default_rng(seeds[1])
        runs, parts = [], {}

        prep = self.prep
        copy = int(choice.integers(prep.k_f))
        locs = [prep.col_locs["B1"][copy * n + a] for a in jx]
        det = lambda bits: gf2.mul(self.prep_det, bits)
        zero_det = np.zeros(self.prep_det.shape[0], dtype=np.uint8)
        runs += self._pair(parts, prep.circuit, {"detector": det},
                           {"noiseless": {"detector": zero_det},
                            "x_logical": {}},
                           rng, locs, "prep")

        dc, run = self.surgery
        view = run.expanded
        width = dc.target.n
        copy = int(choice.integers(dc.k_r))
        block = int(choice.integers(width // n))
        locs = [view.col_locs["M1"][copy * width + block * n + a]
                for a in jx]
        derive = {
            "measured": lambda bits: run.measured_bits(view, bits),
            "detector": lambda bits: run.detector_bits(view, bits),
        }
        flip = np.zeros(dc.k_r, dtype=np.uint8)
        flip[copy] = 1
        zero_m = np.zeros(dc.k_r, dtype=np.uint8)
        n_det = run.detector_bits(view, np.zeros(view.circuit.n_outcomes,
                                                 dtype=np.uint8)).shape[0]
        zero_d = np.zeros(n_det, dtype=np.uint8)
        runs += self._pair(parts, view.circuit, derive,
                           {"noiseless": {"measured": zero_m,
                                          "detector": zero_d},
                            "x_logical": {"measured": flip,
                                          "detector": zero_d}},
                           rng, locs, "desk-surgery")
        self.results.append(runs)
        return parts

    def check(self):
        return [c for runs in self.results for c in checks.oracle(runs)]


WORKLOADS = {
    "desk-ledger": DeskLedger,
    "mc-memory": McMemory,
    "certify": Certify,
    "oracle": Oracle,
}
