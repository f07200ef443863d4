"""Run one workload in this (fresh) process and print its result as JSON.

Started by bench/run.py, one process per workload, with PYTHONPATH set to
the checkout's src/ and BLAS/OpenMP thread counts set to 1.

    python3 bench/worker.py --workload certify --seed 1 --seconds 10 \
        --trace 0 --work-dir .bench_out

The last stdout line is a JSON object: set-up and unit times, wall_s
(at the reference speed of bench/speed.py) and the raw wall time, the checks,
peak RSS, and with --trace 1 the per-layer metrics (the span file is
written to --work-dir).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import uuid

import speed
import workloads

SETUP_GAP_S = 4.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    import qsurg  # noqa: F401  (fails here when the checkout has no src/)

    spec = workloads.load_spec()["workloads"][args.workload]
    wl = workloads.WORKLOADS[args.workload](spec, args.seed, args.work_dir)
    trace_units = spec["inputs"].get("trace_rounds", 1)

    tracer = None
    if args.trace:
        import layers
        import tracing
        run_id = f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:8]}"
        tracer = tracing.Tracer(run_id)
        tracer.install(layers.TARGETS)
        # A wrapped function that is gone would read as a layer doing no
        # work, so the layer list in bench/layers.py must follow the code.
        if tracer.missing:
            print("trace targets missing from qsurg: "
                  + ", ".join(tracer.missing), file=sys.stderr)
            return 3

    # The machine this benchmark was tuned on runs the same code up to twice
    # as slowly for fractions of a second to minutes at a time
    # ("machine_noise" in workloads.json).  So runs sample the machine's
    # speed throughout (bench/speed.py) and report each part and set-up at
    # the reference speed; a part's time is the median over its repetitions
    # and wall_s the sum over parts.  Set-up batches run before the first
    # unit, again once SETUP_GAP_S seconds have passed, and after the last
    # unit.  Traced runs set up once, so the per-layer counts cover one
    # build, and run a fixed number of units; their spans include the
    # probes that fell inside them (under 2% of the time).
    setups: list[tuple[float, float]] = []
    unit_times: list[float] = []
    parts: list[dict] = []
    sampler = speed.Sampler()

    def set_up() -> float:
        for _ in range(1 if tracer else wl.setup_reps):
            setups.append(wl.setup())
        return time.perf_counter()

    sampler.start()
    try:
        last_setup = set_up()
        while True:
            if not tracer and time.perf_counter() - last_setup >= SETUP_GAP_S:
                last_setup = set_up()
            t0 = time.perf_counter()
            parts.append(wl.unit(len(unit_times)))
            unit_times.append(time.perf_counter() - t0)
            if tracer:
                if len(unit_times) >= trace_units:
                    break
            elif (sum(unit_times) >= args.seconds
                  and len(unit_times) >= wl.min_units):
                break
        if not tracer:
            set_up()
    finally:
        sampler.stop()

    def medians(seconds) -> dict[str, float]:
        return {name: statistics.median(seconds(*p[name]) for p in parts)
                for name in parts[0]}

    raw = medians(sampler.own)
    part_s = medians(sampler.scaled)
    result = {
        "workload": args.workload,
        "setup_s": [sampler.scaled(*s) for s in setups],
        "unit_s": unit_times,
        "wall_s": sum(part_s.values()),
        "raw_wall_s": sum(raw.values()),
        "probes": len(sampler.took),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if hasattr(wl, "rates"):
        result["rates"] = wl.rates(part_s)
    if tracer:
        tracer.uninstall()
        result["per_layer"] = layers.per_layer(tracer)
        # One file per workload: a later traced run replaces it.
        path = os.path.join(args.work_dir, f"spans-{args.workload}.npz")
        tracer.write(path)
        result["spans_file"] = path
        result["spans"] = len(tracer.name_idx)
    result["checks"] = [[c.name, c.ok, c.detail] for c in wl.check()]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
