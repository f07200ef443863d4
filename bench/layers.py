"""Which qsurg functions the traced run wraps, and the per-layer metrics
derived from their spans and counters.

Metric names follow `<module>.<function>.<stat>`: `calls` counts calls,
`self_s` is span time minus the time of child spans, and other stats are
work counts recorded by the hooks below (those computed from sizes are
listed under "computed_metrics" in workloads.json).
"""

from __future__ import annotations

import math

import numpy as np

from tracing import Target, Tracer


def _soundness(tr: Tracer, args, kwargs, result) -> None:
    code = args[0] if args else kwargs["code"]
    h = np.asarray(code.h, dtype=np.uint8)
    tr.note_distinct("codes.soundness", (h.shape, h.tobytes()))


def _distance_bound(tr: Tracer, args, kwargs, result) -> None:
    dc = args[0] if args else kwargs["dc"]
    budget = args[1] if len(args) > 1 else kwargs["budget"]
    n = dc.css.n
    if budget <= 0:
        return
    per_side = sum(math.comb(n, w) for w in range(1, budget + 1))
    sides = [s for s, flags in (("X", dc.css.j_z), ("Z", dc.css.j_x))
             if flags.shape[0]]
    if result.ok:
        tr.count("surgery.verify_distance_bound.cases", per_side * len(sides))
        return
    # Cases up to and including the violation: earlier sides in full, then
    # lower weights in full, then the violation's lexicographic rank.
    combo = [int(i) for i in np.nonzero(result.violation)[0]]
    w = len(combo)
    cases = per_side * sides.index(result.side)
    cases += sum(math.comb(n, v) for v in range(1, w))
    prev = -1
    for pos, c in enumerate(combo):
        for skipped in range(prev + 1, c):
            cases += math.comb(n - skipped - 1, w - pos - 1)
        prev = c
    tr.count("surgery.verify_distance_bound.cases", cases + 1)


def _sweep(key: str):
    def hook(tr: Tracer, args, kwargs, result) -> None:
        tr.count(f"{key}.checked", result.checked)
        tr.count(f"{key}.detected", result.detected)
    return hook


def _run_tableau(tr: Tracer, args, kwargs, result) -> None:
    circ = args[0] if args else kwargs["circ"]
    tr.count("tableau.run_tableau.qubits", circ.n_qubits)
    tr.count("tableau.run_tableau.outcomes", circ.n_outcomes)


def _lookup_build(tr: Tracer, args, kwargs, result) -> None:
    checks, t = args[0], args[1]
    n = checks.shape[1]
    tr.count("sim.LookupDecoder.build.entries", len(result))
    tr.count("sim.LookupDecoder.build.combos",
             sum(math.comb(n, w) for w in range(t + 1)))


def _logical_error_rate(tr: Tracer, args, kwargs, result) -> None:
    tr.count("sim.logical_error_rate.trials", result.trials)


def _decode(tr: Tracer, args, kwargs, result) -> None:
    if result is None:
        tr.count("sim.decode.heralded")


TARGETS = [
    Target("gf2.row_echelon", "gf2.row_echelon"),
    Target("gf2.solve_linear", "gf2.solve_linear"),
    Target("gf2.mul", "gf2.mul"),
    Target("gf2._pack", "gf2.pack"),
    Target("gf2._unpack", "gf2.pack"),
    Target("codes.distance", "codes.distance"),
    Target("codes.soundness", "codes.soundness", _soundness),
    Target("surgery.build_deformed", "surgery.build_deformed"),
    Target("surgery.verify_distance_bound", "surgery.verify_distance_bound",
           _distance_bound),
    Target("ltsp.sweep_z_lemma", "ltsp.sweep_z_lemma",
           _sweep("ltsp.sweep_z_lemma")),
    Target("ltsp.sweep_x_lemma", "ltsp.sweep_x_lemma",
           _sweep("ltsp.sweep_x_lemma")),
    Target("ltsp.check_x_bound", "ltsp.check_x_bound"),
    Target("protocol.effective_z_error", "protocol.effective_z_error"),
    Target("protocol.effective_x_error", "protocol.effective_x_error"),
    Target("protocol.surgery_residual_z", "protocol.surgery_residual_z"),
    Target("protocol.surgery_outcome_x", "protocol.surgery_outcome_x"),
    # The desk ledger's residual-Z sweep: its direct gf2.mul children are
    # the candidates it tries, surgery_residual_z calls the ones it checks.
    Target("cli._sweep_residual_z", "cli.sweep_residual_z"),
    Target("frame.run_frames", "frame.run_frames"),
    Target("tableau.run_tableau", "tableau.run_tableau", _run_tableau),
    Target("tableau.Tableau.measure_pauli", "tableau.Tableau.measure_pauli"),
    Target("sim.LookupDecoder._build", "sim.LookupDecoder.build",
           _lookup_build),
    Target("sim._BasisView.compile_faults", "sim.compile_faults"),
    Target("sim.logical_error_rate", "sim.logical_error_rate",
           _logical_error_rate),
    Target("sim.trial_rng", "sim.trial_rng"),
    Target("sim.LookupDecoder.decode_x", "sim.decode", _decode),
    Target("sim.LookupDecoder.decode_z", "sim.decode", _decode),
    Target("compile.serialize", "compile.serialize"),
    Target("cli.run_desk_ledger", "cli.run_desk_ledger"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric of the traced process, by name."""
    spans = tr.summary()
    cnt = tr.counters

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    m: dict[str, float] = {}
    for name in ("gf2.row_echelon", "gf2.mul", "gf2.pack", "codes.soundness",
                 "ltsp.check_x_bound", "protocol.effective_z_error",
                 "protocol.effective_x_error", "frame.run_frames",
                 "tableau.run_tableau", "tableau.Tableau.measure_pauli",
                 "sim.trial_rng", "compile.serialize"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("gf2.solve_linear", "codes.distance", "surgery.build_deformed",
                 "surgery.verify_distance_bound", "ltsp.sweep_z_lemma",
                 "ltsp.sweep_x_lemma", "sim.LookupDecoder.build",
                 "sim.compile_faults", "sim.logical_error_rate",
                 "cli.run_desk_ledger"):
        m[f"{name}.self_s"] = self_s(name)
    m["codes.soundness.distinct_ratio"] = _ratio(
        len(tr.distinct.get("codes.soundness", ())), calls("codes.soundness"))
    m["surgery.verify_distance_bound.cases"] = cnt.get(
        "surgery.verify_distance_bound.cases", 0)
    m["ltsp.sweep_z_lemma.checked"] = cnt.get("ltsp.sweep_z_lemma.checked", 0)
    m["ltsp.sweep_x_lemma.checked"] = cnt.get("ltsp.sweep_x_lemma.checked", 0)
    m["ltsp.sweep_x_lemma.detected_ratio"] = _ratio(
        cnt.get("ltsp.sweep_x_lemma.detected", 0),
        cnt.get("ltsp.sweep_x_lemma.checked", 0))
    m["protocol.surgery_residual_z.calls"] = calls("protocol.surgery_residual_z")
    m["protocol.surgery_outcome_x.calls"] = calls("protocol.surgery_outcome_x")
    m["protocol.residual_z.useful_ratio"] = _ratio(
        tr.child_calls("protocol.surgery_residual_z", "cli.sweep_residual_z"),
        tr.child_calls("gf2.mul", "cli.sweep_residual_z"))
    for stat in ("qubits", "outcomes"):
        m[f"tableau.run_tableau.{stat}"] = cnt.get(f"tableau.run_tableau.{stat}", 0)
    for stat in ("entries", "combos"):
        m[f"sim.LookupDecoder.build.{stat}"] = cnt.get(
            f"sim.LookupDecoder.build.{stat}", 0)
    trials = cnt.get("sim.logical_error_rate.trials", 0)
    m["sim.logical_error_rate.trials"] = trials
    m["sim.decode.calls"] = calls("sim.decode")
    m["sim.decode.per_trial"] = _ratio(calls("sim.decode"), trials)
    m["sim.decode.herald_ratio"] = _ratio(cnt.get("sim.decode.heralded", 0),
                                          calls("sim.decode"))
    return m
