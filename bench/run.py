"""Benchmark of the staircase library: seeded closed-loop workloads.

    python3 bench/run.py --workload hull_scan --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Each round is a fresh worker process
(bench/worker.py) that imports the library from src/, builds the seeded job
list, runs it once with cold caches and once warm, and checks every output.
Rounds repeat while the time budget lasts; a job's time is its median over
the rounds, in CPU time scaled to a fixed core speed (bench/speed.py).  The
percentiles over jobs are Harrell-Davis estimates (see quantile()).
Set-up (import plus input generation) is also timed in extra short
processes, so its median rests on several samples.

With --trace 0 the result holds the end-to-end metrics.  With --trace 1 it
holds the per-layer metrics of one traced round, next to one untraced round
that gives the tracing overhead; the spans go to bench/out/.  The raw
times of an untraced run go to bench/out/rounds-<workload>-<seed>.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 1 without that line when the library is missing or a worker breaks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("hull_scan", "lattice_scan", "ideal_cli")

SETUP_SAMPLES = 7
# every worker must end inside the 180 s a run may take
RUN_LIMIT_S = 170.0

UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}

# A workload that drifts into a layer it is meant to bypass fails the run.
BYPASS = {
    "exactlp.calls": ("lattice_scan", "ideal_cli"),
    "decomposition.irreducible.calls": ("hull_scan", "lattice_scan"),
}


class WorkerError(RuntimeError):
    pass


def worker(args, started: float, *, setup_only=False, trace=False, tag="") -> dict:
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{tag}")
    cmd = [
        sys.executable,
        os.path.join(BENCH, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", str(args.scale),
        "--workdir", workdir,
        "--digests", args.digests,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", "--spans", os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")]
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    if budget <= 0:
        raise WorkerError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {budget:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quantile(values: list[float], p: float, steps: int = 64) -> float:
    """The Harrell-Davis estimate of the p-quantile of values.

    A weighted mean of all order statistics: the i-th smallest of n values
    weighs the mass of the Beta(p(n+1), (1-p)(n+1)) law on [(i-1)/n, i/n].
    The job times of a workload come in clusters (say 3 ms Hilbert tables
    and 9 ms decompositions) with gaps between them; a single order
    statistic that falls in a gap jumps across it from run to run, while
    this estimate moves smoothly with the jobs around the quantile."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):  # midpoint rule on each cell
        cell = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            cell += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(cell)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(rounds: list[dict], setups: list[float]) -> dict[str, float]:
    # Times are at the reference speed of bench/speed.py.  Each job's
    # latency is its median over the rounds; jobs_per_s and the
    # percentiles are then taken over jobs.
    per_job = [statistics.median(times) for times in zip(*(r["job_s"] for r in rounds))]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(per_job) / sum(per_job),
        "job_p50_ms": 1000 * quantile(per_job, 0.5),
        "job_p90_ms": 1000 * quantile(per_job, 0.9),
        "warm_s": statistics.median(r["warm_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    out = dict(traced["trace"])
    plain = len(untraced["job_s"]) / sum(untraced["job_s"])
    slow = len(traced["job_s"]) / sum(traced["job_s"])
    out["trace.jobs_per_s"] = slow
    out["trace.overhead_frac"] = 1 - slow / plain
    out["trace.spans"] = traced["spans"]
    return out


def layer_units(name: str) -> str:
    if name.endswith("jobs_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the staircase library.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time budget of the measured rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="job-count factor; below 1 also drops the fixed probes")
    p.add_argument("--digests", default=os.path.join(BENCH, "digests.json"), help="recorded output digests")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "staircase", "__init__.py")):
        print(f"error: no library source under {ROOT}/src", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    started = time.perf_counter()
    try:
        if args.trace:
            rounds = [worker(args, started, tag="plain"), worker(args, started, trace=True, tag="traced")]
            metrics = per_layer(*rounds)
            units = {name: layer_units(name) for name in metrics}
        else:
            rounds = []
            while True:
                rounds.append(worker(args, started, tag=str(len(rounds))))
                elapsed = time.perf_counter() - started
                if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                    break
            setups = [r["setup_s"] for r in rounds]
            while len(setups) < SETUP_SAMPLES:
                setups.append(worker(args, started, setup_only=True, tag=f"s{len(setups)}")["setup_s"])
            metrics = end_to_end(rounds, setups)
            keep = ("setup_s", "setup_cpu_s", "job_s", "job_cpu_s", "warm_s", "warm_cpu_s", "reference_s", "rss_mb")
            with open(os.path.join(OUT, f"rounds-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as fh:
                json.dump([{k: r[k] for k in keep} for r in rounds], fh)
            units = UNITS
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = all(not r["bad"] for r in rounds)
    for r in rounds:
        for msg in r["bad"]:
            print(f"check failed: {msg}", file=sys.stderr)
    if args.trace:
        for name, workloads in BYPASS.items():
            if args.workload in workloads and metrics[name] != 0:
                print(f"check failed: {name} is {metrics[name]} on {args.workload}, expected 0", file=sys.stderr)
                correct = False
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of {len(rounds[0]['job_s'])} jobs, "
          f"closed loop, 1 client, digests {'checked' if rounds[0]['checked_digests'] else 'not recorded'}")
    for k, r in enumerate(rounds):
        print(f"round {k}: cold {sum(r['job_s']):.3f} s scaled, {sum(r['job_cpu_s']):.3f} s cpu, "
              f"{r['cold_wall_s']:.3f} s wall; warm {r['warm_s']:.3f} s scaled, {r['warm_cpu_s']:.3f} s cpu, "
              f"{r['warm_wall_s']:.3f} s wall; set-up {r['setup_s']:.3f} s scaled, {r['setup_cpu_s']:.3f} s cpu; "
              f"reference median {1000 * statistics.median(r['reference_s']):.3f} ms over {len(r['reference_s'])}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_frac {failed / attempted} ratio ({failed} of {attempted}, "
          f"{sum(r['known_defect'] for r in rounds)} known defect)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
