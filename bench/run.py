"""qsurg benchmark, run from the repository root.

    python3 bench/run.py --workload certify --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 10

Workloads (inputs and set-up in bench/workloads.json, reasons in
BENCHMARK.json): desk-ledger, mc-memory, certify, oracle; "all" runs the
four in turn and ends with one summary line.

Each run starts a fresh single-threaded Python process for the workload
(bench/worker.py) with the checkout's src/ on PYTHONPATH and BLAS/OpenMP
threads set to 1.  Times are reported at a reference machine speed,
sampled during the run (bench/speed.py), with the raw wall time printed
beside them.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it runs the workload untraced and then
traced, and reports the per-layer metrics plus trace.overhead_ratio; a
traced run whose targets no longer exist in qsurg fails.  The lines
before the last describe the run (environment, checks, metrics with
units); the last line is one JSON object with the keys correct, attempted,
failed and metrics.  Any failed correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("desk-ledger", "mc-memory", "certify", "oracle")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(name: str, args, trace: int, work_dir: str,
               deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def run_workload(name: str, args, bench: dict, work_dir: str):
    """Run one workload (two processes when traced), print its report and
    return (checks, metrics), or None when it did not complete."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        plain = run_worker(name, args, 0, work_dir, deadline)
        traced = (run_worker(name, args, 1, work_dir, deadline)
                  if args.trace else None)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        fail(f"{name} did not complete: {exc}")
        return None

    checks = plain["checks"] + (traced["checks"] if traced else [])
    failed = [c for c in checks if not c[1]]
    for check, ok, detail in checks:
        if not ok:
            print(f"check FAIL {check}: {detail}")
    print(f"{name}: checks {len(checks) - len(failed)}/{len(checks)} passed; "
          f"check_fail_ratio={len(failed) / len(checks):.6g} ratio")

    wall = plain["wall_s"]
    found = {
        "wall_s": wall,
        "setup_s": statistics.median(plain["setup_s"]),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    print(f"{name}: timed units={len(plain['unit_s'])} "
          f"setups={len(plain['setup_s'])} speed probes={plain['probes']} "
          f"raw_wall_s={plain['raw_wall_s']:.6g} s")
    for metric, rate in plain.get("rates", {}).items():
        print(f"metric {metric} {rate:.6g} trials/s")
        found[metric] = rate
    if traced:
        found.update(traced["per_layer"])
        found["trace.overhead_ratio"] = traced["wall_s"] / wall - 1
        print(f"trace spans={traced['spans']} file={traced['spans_file']}")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in found]
    if missing and not args.trace:
        fail(f"end-to-end metrics not measured: {missing}")
        return None
    metrics = {}
    for m in wanted:
        # A layer a workload does not exercise (the MC rates outside
        # mc-memory) reads 0.
        value = found.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value:.6g} {m['unit']}")
    return checks, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS + ("all",):
        return fail(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "qsurg", "__init__.py")):
        return fail(f"no qsurg sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    work_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(work_dir, exist_ok=True)
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items())
          + " threads=1 (" + ",".join(THREAD_VARS) + ")")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    for name in names:
        done = run_workload(name, args, bench, work_dir)
        if done is None:
            return 2
        checks, metrics = done
        attempted += len(checks)
        failed += sum(1 for c in checks if not c[1])
        if args.workload == "all":
            print(json.dumps({"workload": name, "metrics": metrics}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.workload != "all":
        result["metrics"] = metrics
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
