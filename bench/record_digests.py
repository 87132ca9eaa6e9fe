"""Record per-job output digests for the documented seeds.

    python3 bench/record_digests.py            # seeds 0..12, all workloads
    python3 bench/record_digests.py 3 4 5      # only these seeds

Runs one worker round per workload and seed and writes the cold-pass digests
to bench/digests.json, which later runs compare every output against.  Run
it only on a commit whose outputs are known to be right; a round with a
failed structural check is refused.  Jobs that hit the known defect get no
digest, so a library that fixes the defect still passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import BENCH, WORKLOADS

DIGESTS = os.path.join(BENCH, "digests.json")
SEEDS = range(13)


def record(workload: str, seed: int) -> list[str | None]:
    cmd = [
        sys.executable,
        os.path.join(BENCH, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", os.path.join(BENCH, "out", f"record-{os.getpid()}"),
        "--digests", os.devnull,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["bad"]:
        raise SystemExit(f"{workload} seed {seed}: {report['bad']}")
    return report["digests"]


def main(argv) -> int:
    seeds = [int(a) for a in argv] or list(SEEDS)
    store = {}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            store = json.load(fh)
    for workload in WORKLOADS:
        for seed in seeds:
            store.setdefault(workload, {})[str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: recorded", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
