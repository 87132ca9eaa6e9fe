"""Seeded job lists for the benchmark workloads, with independent output checks.

A job is one call into the library (or one in-process CLI call) that the
worker times on its own.  Every job carries a check that recomputes what it
can from first principles, without calling the library, so that a wrong
answer counts as a failed job even on a seed with no recorded digests.

The three workloads split along the two halves of the library:

hull_scan     vertex-mode atomic scans; exactlp and the Minkowski check do
              most of the work.
lattice_scan  lattice-mode scans over the same matrix family, monoid lifts
              and fibers that may be empty; no LP is ever solved.
ideal_cli     CLI subcommands on monomial ideals, families and the pair
              poset; no fiber hull is ever computed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import random
import re
from typing import Callable

# Library calls go through the package and module namespaces, never through
# names bound here, so that the tracer's wrappers see them.
import staircase as sc
from staircase import FiberMatrix, MonomialIdeal, cli

WORKLOADS = ("hull_scan", "lattice_scan", "ideal_cli")


@dataclasses.dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: Callable[[BaseException], bool] | None = None


def build(workload: str, seed: int, scale: float, workdir: str) -> list[Job]:
    """The job list for one workload; the same seed gives the same jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    # The inputs are drawn once from a fixed corpus stream; the seed then
    # renames the variables (permutes matrix columns and exponent entries)
    # of every input.  Seeds thus get different inputs that cost about the
    # same, which keeps runs on different seeds comparable.  The job order
    # is the same on every seed (see _sample).
    corpus = random.Random(f"{workload}:corpus")
    rng = random.Random(f"{workload}:{seed}")
    return {
        "hull_scan": _hull_scan,
        "lattice_scan": _lattice_scan,
        "ideal_cli": _ideal_cli,
    }[workload](corpus, rng, scale, workdir)


def canonical(value) -> object:
    """Tuples become lists, so equal outputs serialize to equal JSON."""
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return canonical(dataclasses.asdict(value))
    return value


# ---------------------------------------------------------------- exponents


def _apply(rows, u) -> tuple[int, ...]:
    return tuple(sum(r[i] * u[i] for i in range(len(u))) for r in rows)


def _up_to(n: int, bound: int):
    """All u in N^n with |u| <= bound."""
    if n == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _up_to(n - 1, bound - head):
            yield (head,) + tail


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _in_ideal(gens, u) -> bool:
    return any(_divides(g, u) for g in gens)


def _ideal_le(small, big) -> bool:
    """Containment of monomial ideals given by generator lists."""
    return all(_in_ideal(big, g) for g in small)


def _minimal(gens) -> list[tuple[int, ...]]:
    """The minimal generators, sorted: those no other generator divides."""
    gens = set(gens)
    return sorted(g for g in gens if not any(h != g and _divides(h, g) for h in gens))


def _sorted_unique(items) -> bool:
    return all(a < b for a, b in zip(items, items[1:]))


def _brute_fiber(rows, b) -> list[tuple[int, ...]]:
    # every matrix here has a first row with entries >= 1, so |u| <= b[0]
    return [u for u in _up_to(len(rows[0]), b[0]) if _apply(rows, u) == tuple(b)]


def _universe(rows, bound) -> set[tuple[int, ...]]:
    zero = (0,) * len(rows)
    return {_apply(rows, u) for u in _up_to(len(rows[0]), bound)} - {zero}


def _in_monoid(cols, target) -> bool:
    """Is target a sum of columns?  Depth-first over columns with repeats."""
    if not any(target):
        return True

    def rec(i, rest):
        if not any(rest):
            return True
        if i == len(cols):
            return False
        c = cols[i]
        k = 0
        while all(r >= k * x for r, x in zip(rest, c)):
            if rec(i + 1, tuple(r - k * x for r, x in zip(rest, c))):
                return True
            if not any(c):
                break
            k += 1
        return False

    return rec(0, tuple(target))


# ------------------------------------------------------------- hull_scan

# The ROADMAP baseline probes and the paper's 4x6 worked example (Example 3.5):
# fixed across seeds, so they anchor every run to the same heavy work.
PROBE_5 = ((1, 1, 1, 1, 1), (0, 1, 3, 4, 6))
PROBE_4 = ((1, 1, 1, 1), (0, 1, 2, 3))
EXAMPLE_ROWS = (
    (1, 1, 1, 0, 0, 0),
    (0, 3, 2, 1, 0, 0),
    (5, 0, 2, 0, 1, 0),
    (0, 2, 1, 0, 0, 1),
)
EXAMPLE_B1 = (1, 3, 5, 2)
EXAMPLE_B2 = (5, 10, 10, 6)
EXAMPLE_FIBER1 = ((0, 0, 1, 1, 3, 1), (0, 1, 0, 0, 5, 0), (1, 0, 0, 3, 0, 2))
EXAMPLE_FIBER2 = ((0, 0, 5, 0, 0, 1), (1, 2, 2, 0, 1, 0), (2, 3, 0, 1, 0, 0))
EXAMPLE_WITNESS = (1, 1, 4, 2, 2, 2)

# (rows, cols, bound, jobs) per stratum of the corpus.  One-row matrices
# stay at 3 columns and bound 2: their fibers grow far faster.
HULL_STRATA = (
    (1, 3, 2, 6),
    (3, 3, 4, 20),
    (3, 4, 3, 20),
    (2, 3, 4, 20),
    (2, 4, 3, 12),
    (3, 5, 3, 10),
    (3, 3, 6, 12),
)
# The middle of the job-cost distribution is two-row scans and its top tenth
# three-row scans, so p50 and p90 each fall inside one stratum.
LATTICE_STRATA = (
    (1, 3, 4, 6),
    (2, 3, 8, 16),
    (2, 4, 6, 16),
    (2, 5, 5, 16),
    (3, 3, 8, 6),
    (3, 4, 5, 8),
    (3, 5, 4, 8),
)


def _matrix(corpus: random.Random, d: int, n: int, seen: set) -> tuple[tuple[int, ...], ...]:
    """A new matrix: entries 1..4 for one row, else a row of ones on top."""
    while True:
        if d == 1:
            rows = (tuple(corpus.randint(1, 4) for _ in range(n)),)
        else:
            rows = ((1,) * n,) + tuple(
                tuple(corpus.randint(0, 4) for _ in range(n)) for _ in range(d - 1)
            )
        shape = tuple(sorted(zip(*rows)))  # the same matrix up to column order
        if shape not in seen:
            seen.add(shape)
            return rows


def _perm(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(n), n)


def _pvec(u, p) -> tuple[int, ...]:
    return tuple(u[i] for i in p)


def _prows(rng: random.Random, rows, p) -> tuple[tuple[int, ...], ...]:
    """Columns permuted by p; the rows below the first in a seeded order."""
    rows = tuple(_pvec(r, p) for r in rows)
    return rows[:1] + tuple(rng.sample(rows[1:], len(rows) - 1))


def _check_scan(rows, bound):
    def check(out):
        if not _sorted_unique(out):
            return "scan degrees not sorted and unique"
        stray = set(out) - _universe(rows, bound)
        if stray:
            return f"scan degree {min(stray)} outside the universe"
        return None

    return check


def _check_fiber(rows, b, must_contain=None):
    def check(f):
        if f.degree != tuple(b):
            return "fiber degree differs from the request"
        if not _sorted_unique(f.points):
            return "fiber points not sorted and unique"
        if any(_apply(rows, u) != tuple(b) for u in f.points):
            return "fiber point with Au != b"
        if not set(f.vertices) <= set(f.points) or not f.vertices:
            return "hull vertices not a nonempty subset of the points"
        if must_contain is not None and set(f.points) != set(must_contain):
            return "fiber points differ from the known answer"
        return None

    return check


def _expect(value, label):
    def check(out):
        return None if out == value else f"{label}: got {out!r}, expected {value!r}"

    return check


def _worked_example() -> list[Job]:
    A = FiberMatrix(EXAMPLE_ROWS)
    b1, b2 = EXAMPLE_B1, EXAMPLE_B2
    b = tuple(x + y for x, y in zip(b1, b2))
    zero = MonomialIdeal.zero(A.ncols)
    return [
        Job("example.fiber", lambda: sc.fiber(A, b1), _check_fiber(EXAMPLE_ROWS, b1, EXAMPLE_FIBER1)),
        Job("example.fiber", lambda: sc.fiber(A, b2), _check_fiber(EXAMPLE_ROWS, b2, EXAMPLE_FIBER2)),
        Job("example.fiber", lambda: sc.fiber(A, b), _check_fiber(EXAMPLE_ROWS, b)),
        Job(
            "example.minkowski",
            lambda: sc.minkowski_decomposes(A, b, b1, b2),
            _expect(True, "Minkowski equality"),
        ),
        Job(
            "example.lattice_split",
            lambda: sc.ma_decomposes(zero, A, b, b1, b2),
            _expect((False, EXAMPLE_WITNESS), "lattice split and witness"),
        ),
        Job("example.is_atomic", lambda: sc.is_atomic(A, b), _expect(False, "vertex atomicity")),
    ]


def _scan_job(kind, rows, bound, mode="vertex", M=None, known_defect=None) -> Job:
    A = FiberMatrix(rows)
    return Job(
        kind,
        lambda: sc.atomic_scan(A, bound, mode=mode, M=M),
        _check_scan(rows, bound),
        known_defect,
    )


def _hull_scan(corpus: random.Random, rng: random.Random, scale: float, workdir: str) -> list[Job]:
    jobs = []
    if scale >= 1:
        jobs.append(_scan_job("probe.scan", PROBE_5, 7))
        jobs.append(_scan_job("probe.scan", PROBE_4, 9))
    jobs += _worked_example()
    seen: set = set()
    for d, n, bound, count in HULL_STRATA:
        for _ in range(count):
            rows = _matrix(corpus, d, n, seen)
            jobs.append(_scan_job(f"scan.{d}x{n}", _prows(rng, rows, _perm(rng, n)), bound))
    return _sample(jobs, scale, "hull_scan")


def _sample(jobs: list[Job], scale: float, workload: str) -> list[Job]:
    """The jobs in a fixed mixed order; a scale below 1 keeps every k-th one.

    Jobs share the library's caches, so the order decides which job pays
    for a shared entry: a posetx job right after a larger one is almost
    free.  A seeded order moved the median job time by up to 15 % between
    seeds, so the order is the same on every seed."""
    if scale < 1:
        jobs = jobs[:: max(1, round(1 / scale))]
    random.Random(f"{workload}:order").shuffle(jobs)
    return jobs


# ---------------------------------------------------------- lattice_scan

PARITY_ROWS = ((2,) * 8,)


def _avoidance_gens(corpus: random.Random, n: int) -> list[tuple[int, ...]]:
    return [_random_exponent(corpus, n, corpus.randint(3, 5)) for _ in range(corpus.randint(1, 2))]


_EMPTY_MA = re.compile(r"empty \(M,A\) fiber over \(([0-9, ]*)\)")


def _empty_ma_fiber_defect(rows, bound, M: MonomialIdeal):
    """Known defect: a lattice scan with M != 0 raises on a degree whose
    fiber lies entirely inside M, instead of treating it as not atomic
    (or skipping it).  Confirmed here by enumerating that fiber."""

    def predicate(exc):
        if not isinstance(exc, ValueError):
            return False
        m = _EMPTY_MA.fullmatch(str(exc))
        if not m:
            return False
        b = tuple(int(x) for x in m.group(1).split(",") if x.strip())
        if b not in _universe(rows, bound):
            return False
        pts = _brute_fiber(rows, b)
        return bool(pts) and all(_in_ideal(M.gens, u) for u in pts)

    return predicate


def _lift_job(corpus: random.Random, rng: random.Random, seen: set) -> Job:
    n = corpus.randint(3, 4)
    base = _matrix(corpus, 2, n, seen)
    # the ideal's degrees are values G u, which renaming the variables of
    # both G and u leaves alone
    degrees = sorted(
        {_apply(base, _random_exponent(corpus, n, corpus.randint(1, 3))) for _ in range(corpus.randint(1, 2))}
    )
    bound = corpus.randint(6, 8)
    rows = _prows(rng, base, _perm(rng, n))
    cols = [tuple(r[i] for r in rows) for i in range(n)]
    G = FiberMatrix(rows)

    def check(I):
        for a in I.gens:
            if sum(a) > bound:
                return f"lift generator {a} beyond the bound"
            value = _apply(rows, a)
            if not any(
                all(v >= w for v, w in zip(value, bj))
                and _in_monoid(cols, tuple(v - w for v, w in zip(value, bj)))
                for bj in degrees
            ):
                return f"lift generator {a} maps outside the ideal"
        return None

    return Job("lift", lambda: sc.monoid_lift(G, degrees, bound), check)


def _random_exponent(rng: random.Random, n: int, total: int) -> tuple[int, ...]:
    u = [0] * n
    for _ in range(total):
        u[rng.randrange(n)] += 1
    return tuple(u)


def _points_job(rows, b, feasible_at=None) -> Job:
    """fiber_points over b; empty exactly when feasible_at is None."""
    A = FiberMatrix(rows)

    def check(pts):
        if feasible_at is None:
            return None if pts == [] else "points over a degree outside the monoid"
        if not _sorted_unique(pts) or any(_apply(rows, u) != tuple(b) for u in pts):
            return "fiber points not sorted, unique and on Au = b"
        return None if feasible_at in pts else f"known point {feasible_at} missing"

    return Job("points.empty" if feasible_at is None else "points", lambda: sc.fiber_points(A, b), check)


def _lattice_scan(corpus: random.Random, rng: random.Random, scale: float, workdir: str) -> list[Job]:
    jobs = []
    if scale >= 1:
        # the parity probe: every entry even, degree odd, so the fiber is empty
        jobs.append(_points_job(PARITY_ROWS, (31,)))
        jobs.append(_scan_job("probe.scan", PROBE_5, 7, mode="lattice"))
        jobs.append(_scan_job("probe.scan", PROBE_4, 9, mode="lattice"))
    seen: set = set()
    for d, n, bound, count in LATTICE_STRATA:
        for _ in range(count):
            rows = _prows(rng, _matrix(corpus, d, n, seen), _perm(rng, n))
            jobs.append(_scan_job(f"scan.{d}x{n}", rows, bound, mode="lattice"))
    for _ in range(16):
        d, n, bound, _unused = corpus.choice(LATTICE_STRATA[1:])
        base, gens = _matrix(corpus, d, n, seen), _avoidance_gens(corpus, n)
        p = _perm(rng, n)
        rows = _prows(rng, base, p)
        M = sc.minimalize(n, [_pvec(g, p) for g in gens])
        jobs.append(
            _scan_job(
                "scan.avoid", rows, bound, mode="lattice", M=M,
                known_defect=_empty_ma_fiber_defect(rows, bound, M),
            )
        )
    for _ in range(14):
        jobs.append(_lift_job(corpus, rng, seen))
    for _ in range(10):
        # a one-row matrix whose entries share the factor g: degrees off the
        # multiples of g have empty fibers, the others have points
        g = corpus.choice((2, 3))
        base = tuple(g * corpus.randint(1, 3) for _ in range(corpus.randint(5, 6)))
        empty = g * corpus.randint(6, 9) + corpus.randint(1, g - 1)
        u = _random_exponent(corpus, len(base), corpus.randint(3, 6))
        p = _perm(rng, len(base))
        rows = (_pvec(base, p),)
        jobs.append(_points_job(rows, (empty,)))
        jobs.append(_points_job(rows, _apply(rows, _pvec(u, p)), feasible_at=_pvec(u, p)))
    return _sample(jobs, scale, "lattice_scan")


# -------------------------------------------------------------- ideal_cli


def _cli_call(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cli_job(kind, argv, check) -> Job:
    def checked(result):
        code, text = result
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return f"exit {code}, stdout is not one JSON document"
        return check(code, payload)

    return Job(kind, lambda: _cli_call(argv), checked)


def _antichain_gens(rng: random.Random, n: int, r: int, hi: int) -> list[tuple[int, ...]]:
    """r pairwise incomparable nonzero exponents; starts over when boxed in."""
    while True:
        gens: list[tuple[int, ...]] = []
        for _ in range(50 * r):
            g = tuple(rng.randint(0, hi) for _ in range(n))
            if any(g) and all(not _divides(g, h) and not _divides(h, g) for h in gens):
                gens.append(g)
                if len(gens) == r:
                    return sorted(gens)


def _write(workdir: str, name: str, data) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _ideal_json(n, gens) -> dict:
    return {"vars": n, "gens": [list(g) for g in gens]}


def _decompose_jobs(path, n, gens) -> list[Job]:
    def primary(code, comps):
        if code != 0:
            return f"decompose exited {code}"
        taus = [tuple(c["tau"]) for c in comps]
        if len(set(taus)) != len(taus):
            return "two primary components share a prime"
        for c in comps:
            cg = [tuple(g) for g in c["gens"]]
            support = {i for g in cg for i, e in enumerate(g) if e}
            if support != set(range(n)) - set(c["tau"]):
                return "component support does not match its prime"
            if not _ideal_le(gens, cg):
                return "primary component does not contain the ideal"
        return None

    def irreducible(code, comps):
        if code != 0:
            return f"decompose --irreducible exited {code}"
        parts = [[tuple(g) for g in c["gens"]] for c in comps]
        for cg in parts:
            if any(sum(1 for e in g if e) != 1 for g in cg):
                return "irreducible component with a mixed generator"
            if not _ideal_le(gens, cg):
                return "irreducible component does not contain the ideal"
        for a in range(len(parts)):
            for b in range(len(parts)):
                if a != b and _ideal_le(parts[a], parts[b]):
                    return "redundant irreducible component"
        # the corner of a component (one below each pure power, large in
        # the other variables) lies outside it, so outside the ideal too
        for cg in parts:
            corner = [0] * n
            for g in cg:
                i = next(k for k, e in enumerate(g) if e)
                corner[i] = g[i] - 1
            big = [max(g[k] for g in gens) if not any(h[k] for h in cg) else corner[k] for k in range(n)]
            if _in_ideal(gens, big):
                return f"corner {tuple(big)} of a component lies in the ideal"
        return None

    return [
        _cli_job("decompose", ["decompose", "-I", path], primary),
        _cli_job("decompose.irreducible", ["decompose", "-I", path, "--irreducible"], irreducible),
    ]


def _hilbert_job(path, n, gens, grading, bound) -> Job:
    def check(code, payload):
        if code != 0:
            return f"hilbert exited {code}"
        numer = {tuple(e): c for e, c in payload["numerator"]}
        if numer.get((0,) * n) != 1:
            return "numerator constant term is not 1"
        counts: dict[tuple[int, ...], int] = {}
        for u in _up_to(n, bound):
            b = _apply(grading, u)
            if sum(b) <= bound:
                counts[b] = counts.get(b, 0) + (not _in_ideal(gens, u))
        table = {tuple(b): c for b, c in payload["table"]}
        if table != counts:
            return "Hilbert table differs from a direct count"
        return None

    gpath = path[: -len(".json")] + ".grading.json"
    with open(gpath, "w", encoding="utf-8") as fh:
        json.dump({"rows": len(grading), "cols": n, "entries": [list(r) for r in grading]}, fh)
    argv = ["hilbert", "-I", path, "--table-bound", str(bound), "--grading", gpath]
    return _cli_job("hilbert", argv, check)


def _family(corpus: random.Random, n: int, size: int, antichain: bool) -> list[list[tuple[int, ...]]]:
    """Distinct ideals; principal ideals of one total degree form an antichain."""
    if antichain:
        # n = 3 needs total degree 5 for 16 distinct monomials
        total = corpus.randint(5, 6)
        monos: set[tuple[int, ...]] = set()
        while len(monos) < size:
            monos.add(_random_exponent(corpus, n, total))
        return [[m] for m in sorted(monos)]
    fam: list[list[tuple[int, ...]]] = []
    while len(fam) < size:
        gens = _antichain_gens(corpus, n, corpus.randint(1, 3), 3)
        if gens not in fam:
            fam.append(gens)
    return fam


def _longest_chain(fam) -> int:
    n = len(fam)
    below = [[j for j in range(n) if j != i and _ideal_le(fam[j], fam[i])] for i in range(n)]
    memo: dict[int, int] = {}

    def best(i):
        if i not in memo:
            memo[i] = 1 + max((best(j) for j in below[i]), default=0)
        return memo[i]

    return max(best(i) for i in range(n))


def _family_jobs(path, fam) -> list[Job]:
    comparable = any(
        i != j and _ideal_le(fam[i], fam[j]) for i in range(len(fam)) for j in range(len(fam))
    )

    def antichain(code, payload):
        if payload.get("is_antichain") is comparable or payload.get("size") != len(fam):
            return "antichain verdict differs from pairwise containment"
        if code != (1 if comparable else 0):
            return f"antichain exited {code}"
        w = payload.get("witness")
        if comparable and not _ideal_le(fam[w[0]], fam[w[1]]):
            return "antichain witness is not a containment"
        return None

    def chain(code, payload):
        if code != 0:
            return f"chain exited {code}"
        idx = payload["chain"]
        if payload["length"] != len(idx) or len(idx) != _longest_chain(fam):
            return "chain is not a longest one"
        for a, b in zip(idx, idx[1:]):
            if not (_ideal_le(fam[b], fam[a]) and fam[a] != fam[b]):
                return "chain is not strictly descending"
        return None

    return [
        _cli_job("antichain", ["antichain", "-F", path], antichain),
        _cli_job("chain", ["chain", "-F", path], chain),
    ]


def _young_jobs(workdir, tag, corpus: random.Random, rng: random.Random) -> list[Job]:
    n = corpus.randint(2, 3)
    powers = [corpus.randint(2, 5) for _ in range(n)]
    gens = [tuple(p if k == i else 0 for k in range(n)) for i, p in enumerate(powers)]
    for _ in range(corpus.randint(1, 3)):
        gens.append(tuple(corpus.randint(0, p - 1) for p in powers))
    p = _perm(rng, n)
    powers = _pvec(powers, p)
    gens = _minimal(_pvec(g, p) for g in gens)
    points = [u for u in itertools.product(*(range(e) for e in powers)) if not _in_ideal(gens, u)]
    ipath = _write(workdir, f"{tag}.artinian.json", _ideal_json(n, gens))
    opath = _write(workdir, f"{tag}.order.json", {"vars": n, "points": [list(p) for p in points]})

    def to_order(code, payload):
        ok = code == 0 and [tuple(p) for p in payload["points"]] == points
        return None if ok else "order ideal differs from the standard monomials"

    def to_ideal(code, payload):
        ok = code == 0 and [tuple(g) for g in payload["gens"]] == gens
        return None if ok else "complement ideal differs from the original"

    return [
        _cli_job("young.to_order_ideal", ["young", "--to-order-ideal", ipath], to_order),
        _cli_job("young.to_ideal", ["young", "--to-ideal", opath], to_ideal),
    ]


def _posetx_job(J: int) -> Job:
    def check(code, payload):
        ok = code == 0 and payload == {"check": "chain-bound", "ok": True, "upto": J, "violations": []}
        return None if ok else "posetx --chain-bound did not pass"

    return _cli_job("posetx", ["posetx", "--chain-bound", str(J)], check)


# The ROADMAP's 18-generator ideal in 6 variables, fixed across seeds.
ROADMAP_IDEAL_SEED = "roadmap-18"


def _ideal_cli(corpus: random.Random, rng: random.Random, scale: float, workdir: str) -> list[Job]:
    # Decompositions and posetx make the slow tail (p90); Hilbert tables,
    # families and Young round trips, two thirds of the jobs, hold the median.
    jobs = []
    if scale >= 1:
        n = 6
        gens = _antichain_gens(random.Random(ROADMAP_IDEAL_SEED), n, 18, 4)
        path = _write(workdir, "roadmap18.json", _ideal_json(n, gens))
        jobs += _decompose_jobs(path, n, gens)
    # Six variables only with few generators, where the cost of a
    # decomposition varies least.  The splitting recursion follows the
    # variable order, so here the seed raises each variable's nonzero
    # exponents by 0..2 instead: that keeps every comparison, and so the
    # work, while changing the ideal.
    shapes = [(5, r) for r in range(6, 19)] + [(6, r) for r in range(6, 12)]
    for k, (n, r) in enumerate(shapes):
        lift = [rng.randint(0, 2) for _ in range(n)]
        gens = sorted(
            tuple(e + lift[i] if e else 0 for i, e in enumerate(g))
            for g in _antichain_gens(corpus, n, r, 3)
        )
        path = _write(workdir, f"dec{k}.json", _ideal_json(n, gens))
        jobs += _decompose_jobs(path, n, gens)
    for k in range(5):
        # one bound per band of 20..60; the largest sets the cost, as the
        # smaller ones find their chains cached
        jobs.append(_posetx_job(corpus.randint(20 + 8 * k, 28 + 8 * k)))
    for k in range(24):
        n = 4 + k % 2
        gens = _antichain_gens(corpus, n, 4 + k % 7, 3)
        grading = ((1,) * n, tuple(corpus.randint(0, 2) for _ in range(n)))
        p = _perm(rng, n)
        gens = sorted(_pvec(g, p) for g in gens)
        grading = tuple(_pvec(row, p) for row in grading)
        path = _write(workdir, f"hil{k}.json", _ideal_json(n, gens))
        jobs.append(_hilbert_job(path, n, gens, grading, 6 + k % 3))
    for k in range(12):
        n = 3 + k % 2
        fam = _family(corpus, n, 8 + k % 9, antichain=k % 2 == 0)
        p = _perm(rng, n)
        fam = [sorted(_pvec(g, p) for g in gens) for gens in fam]
        rng.shuffle(fam)
        path = _write(workdir, f"fam{k}.json", [_ideal_json(n, gens) for gens in fam])
        jobs += _family_jobs(path, fam)
    for k in range(12):
        jobs += _young_jobs(workdir, f"young{k}", corpus, rng)
    return _sample(jobs, scale, "ideal_cli")
