"""One benchmark round in a fresh process: set up, cold pass, warm pass, checks.

A fresh process starts with the library's module-level caches empty, so the
cold pass pays for every fiber, hull and decomposition it needs; the warm
pass runs the same job list again in the same process and shows what the
caches save.  Jobs run one after another from a single caller (a closed
loop with one client), each timed on its own.

Times are CPU time scaled to a fixed core speed (bench/speed.py), with the
raw CPU time and the wall time kept beside them.

Prints one JSON object on its last line of standard output.  Run by
bench/run.py; see that file for the options.
"""

import time

T0 = time.thread_time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
KNOWN_DEFECT = "known defect"


def _import_library():
    """Import staircase from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "staircase", "__init__.py")):
        sys.exit(f"worker: no library source at {SRC}")
    sys.path.insert(0, SRC)
    import staircase

    if os.path.dirname(os.path.dirname(os.path.abspath(staircase.__file__))) != SRC:
        sys.exit(f"worker: staircase imported from {staircase.__file__}, not {SRC}")


def digest_key(seed: int, scale: float) -> str:
    return str(seed) if scale == 1 else f"{seed}@{scale}"


def digest(value) -> str:
    import workloads

    text = json.dumps(workloads.canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _error_digest(exc: BaseException) -> str:
    return digest(f"error: {type(exc).__name__}: {exc}")


def run_pass(jobs, clock, tracer=None) -> list[tuple[float, float, float, object, BaseException | None]]:
    """(scaled_s, cpu_s, wall_s, output, error) for each job, in order."""
    results = []
    cpu, wall = time.thread_time, time.perf_counter
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        start = clock.read(), cpu(), wall()
        try:
            out, err = job.run(), None
        except Exception as exc:  # a failing job is counted, not fatal
            out, err = None, exc
        results.append((clock.read() - start[0], cpu() - start[1], wall() - start[2], out, err))
    return results


def _judge(job, out, err, stored) -> tuple[str, str | None]:
    """(digest, problem) for one execution; problem None means it passed."""
    if err is not None:
        d = _error_digest(err)
        if job.known_defect is not None and job.known_defect(err):
            return d, KNOWN_DEFECT
        return d, f"raised {type(err).__name__}: {err}"
    d = digest(out)
    try:
        problem = job.check(out)
    except Exception as exc:  # a malformed output can break the check itself
        problem = f"check raised {type(exc).__name__}: {exc}"
    if problem is None and stored is not None and d != stored:
        problem = f"output digest {d} differs from the recorded {stored}"
    return d, problem


def evaluate(jobs, cold, warm, stored) -> dict:
    digests, failed, known, bad = [], 0, 0, []
    for i, job in enumerate(jobs):
        want = stored[i] if stored is not None else None
        d, problem = _judge(job, cold[i][3], cold[i][4], want)
        dw, problem_w = _judge(job, warm[i][3], warm[i][4], want)
        if problem_w is None and dw != d:
            problem_w = "warm output differs from the cold output"
        # a known-defect job records no digest: a fixed library may answer it
        digests.append(None if problem is KNOWN_DEFECT else d)
        for p in (problem, problem_w):
            if p is None:
                continue
            failed += 1
            if p is KNOWN_DEFECT:
                known += 1
            elif len(bad) < 20:
                bad.append(f"job {i} ({job.kind}): {p}")
    return {
        "attempted": 2 * len(jobs),
        "failed": failed,
        "known_defect": known,
        "bad": bad,
        "digests": digests,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--workdir", required=True, help="scratch directory for input files")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="where the traced pass writes its spans")
    p.add_argument("--digests", required=True, help="recorded per-job output digests")
    args = p.parse_args(argv)

    _import_library()
    import speed
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    try:
        jobs = workloads.build(args.workload, args.seed, args.scale, args.workdir)
        setup_cpu_s = time.thread_time() - T0
        clock = speed.SpeedClock()
        setup_s = setup_cpu_s * clock.factor
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}))
            return 0

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer(clock.read)
            tracer.install()
        clock.start()
        try:
            cold = run_pass(jobs, clock, tracer)
            if tracer is not None:
                tracer.uninstall()
            warm = run_pass(jobs, clock)
        finally:
            clock.stop()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    stored = None
    if os.path.isfile(args.digests):
        with open(args.digests, encoding="utf-8") as fh:
            stored = json.load(fh).get(args.workload, {}).get(digest_key(args.seed, args.scale))
    if stored is not None and len(stored) != len(jobs):
        sys.exit(f"worker: {len(stored)} recorded digests for {len(jobs)} jobs")
    report = evaluate(jobs, cold, warm, stored)
    report.update(
        setup_s=setup_s,
        setup_cpu_s=setup_cpu_s,
        job_s=[r[0] for r in cold],
        job_cpu_s=[r[1] for r in cold],
        warm_s=sum(r[0] for r in warm),
        warm_cpu_s=sum(r[1] for r in warm),
        cold_wall_s=sum(r[2] for r in cold),
        warm_wall_s=sum(r[2] for r in warm),
        reference_s=clock.samples,
        rss_mb=rss_mb,
        checked_digests=stored is not None,
    )
    if tracer is not None:
        report["trace"] = tracer.metrics()
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
