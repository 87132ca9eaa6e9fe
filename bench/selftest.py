"""Self-test of the benchmark at tiny size (about a minute).

    python3 bench/selftest.py

Checks, on every workload with a tenth of the jobs and no fixed probes:
- an untraced run prints every end-to-end metric of BENCHMARK.json, by name
  and with its unit, on a line of its own and in the final JSON object;
- a traced run does the same for every per-layer metric and its bypass
  assertions hold;
- a corrupted recorded digest makes its job count as failed, in both
  passes, and the run as not correct;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SCALE = "0.1"
SEED = 0


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def bench_args(workload, trace, *extra):
    return ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace), "--scale", SCALE, *extra]


def check_metrics(proc, specs, label, problems):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{label}: exit {proc.returncode}, {proc.stderr.strip()[-500:]}")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in specs}:
        problems.append(f"{label}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    for m in specs:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {m['name']} reported as {got}")
        if not any(line.split()[:1] == [m["name"]] and line.split()[2:3] == [m["unit"]] for line in lines):
            problems.append(f"{label}: no '{m['name']} <value> {m['unit']}' line")
    if not result["correct"]:
        problems.append(f"{label}: not correct: {proc.stderr.strip()[-500:]}")
    return result


def corrupted_digest(workload, problems):
    """Record tiny-size digests, flip one, and expect two failed executions."""
    workdir = os.path.join(OUT, "selftest-work")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--scale", SCALE, "--workdir", workdir, "--digests", os.devnull],
        capture_output=True, text=True, timeout=180, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    digests = report["digests"]
    i = next(k for k, d in enumerate(digests) if d is not None)
    digests[i] = "0" * 16 if digests[i] != "0" * 16 else "1" * 16
    path = os.path.join(OUT, "selftest-digests.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({workload: {f"{SEED}@{float(SCALE)}": digests}}, fh)
    proc = run(bench_args(workload, 0, "--digests", path))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rounds = result["attempted"] // report["attempted"]
    if result["correct"] or result["failed"] != report["failed"] + 2 * rounds:
        problems.append(
            f"{workload}: corrupted digest gave correct={result['correct']}, "
            f"failed={result['failed']} (clean run: {report['failed']} per round)"
        )


def without_library(problems):
    """The benchmark's files alone must make the benchmark fail."""
    bare = os.path.join(OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bench_args("hull_scan", 0), cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without the library: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    problems: list[str] = []
    for w in spec["workloads"]:
        name = w["name"]
        check_metrics(run(bench_args(name, 0)), spec["end_to_end"], f"{name} untraced", problems)
        check_metrics(run(bench_args(name, 1)), spec["per_layer"], f"{name} traced", problems)
    corrupted_digest("ideal_cli", problems)
    without_library(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
