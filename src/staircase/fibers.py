"""Fibers of nonnegative integer matrices and their atomicity.

A d x n matrix A with no zero column maps u |-> Au; the fiber over a
degree b is the finite set {u in N^n : Au = b}, whose convex hull is a
lattice polytope.  This module enumerates fibers exactly, finds hull
vertices in rational arithmetic, decides Minkowski decomposability and
both flavours of atomicity, scans for atomic degrees, builds vertex
ideals and subalgebra generators from them, and lifts monomial ideals
through a monoid parameterization.

Each matrix has one plan (_Plan), built once by _plan: the matrix's
rows and columns, what the fiber search needs, and every memo this
module keeps, so _plan.cache_clear() resets them all.  The public
functions check their arguments and look the plan up; every private
function below them takes the plan in place of the matrix.  The memos
are plan entries: fibers, graded covers, hull vertices, M-avoiding
points and verdicts (see _Plan).

A graded cover fills the fiber memo a whole grade at a time (_graded).
Pick y >= 0 with every entry of yA at least 1: the unit vector of a row
of ones (a point's weight is then |u|), or y = (1, ..., 1), whose yA are
the column sums.  The cover at weight W enumerates every u with
(yA).u <= W once, bucketed by Au (_bucketed).  Every u over b has weight
y.b, so when y.b <= W the bucket of b is its whole fiber and a degree
with no bucket is outside NA.  _degree_groups is the one reader of the u
with |u| <= bound, for atomic_scan, monoid_lift and the vertex ideals;
hilbert.reachable_degrees reads the y = (1, ..., 1) cover.  Every other
fiber is found by a search that assigns one column at a time
(_enumerate_fiber).

Atomicity is decided in _verdict, the one kernel every check and scan
runs.  Two exact certificates read off the points settle most degrees,
a vertex verdict is screened by the lattice one with M = 0 and then
walked over the exposed vertices (_exposed, which _hull shares), and
what is left walks the split pairs in the sub-box of one point
(_atomic).  _check_in_na is the one test that a degree lies in NA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import repeat
from collections import defaultdict
from operator import add, le, mul, sub

from .exactlp import _integer_points, in_convex_hull
from .monomial import (
    Exponent,
    MonomialIdeal,
    _minimal,
    check_count,
    check_exponent,
    check_vectors,
)

Degree = tuple[int, ...]


@dataclass(frozen=True)
class FiberMatrix:
    """Nonnegative integer matrix with no zero column (all fibers finite)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # rows given as lists are stored as tuples, so they hash and compare
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        if not self.rows:
            raise ValueError("matrix needs at least one row")
        n = len(self.rows[0])
        for r in self.rows:
            if len(r) != n:
                raise ValueError("ragged matrix")
            check_exponent(r)
        if n == 0:
            raise ValueError("matrix needs at least one column")
        for i in range(n):
            if all(r[i] == 0 for r in self.rows):
                raise ValueError(f"column {i} is zero; fibers would be infinite")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def column(self, i: int) -> tuple[int, ...]:
        return tuple(r[i] for r in self.rows)

    def apply(self, u) -> Degree:
        u = check_exponent(u, self.ncols)
        return tuple(sum(map(mul, r, u)) for r in self.rows)

    def to_json(self) -> dict:
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [list(r) for r in self.rows],
        }

    @classmethod
    def from_json(cls, data) -> FiberMatrix:
        if not isinstance(data, dict) or "entries" not in data:
            raise ValueError('matrix JSON must be {"rows": d, "cols": n, "entries": [...]}')
        mat = cls(check_vectors(data["entries"], "entries"))
        for field, size in (("rows", mat.nrows), ("cols", mat.ncols)):
            if field in data and check_count(data[field], field) != size:
                raise ValueError(f'"{field}" is {data[field]}, entries have {size}')
        return mat


@dataclass(frozen=True)
class Fiber:
    """One fiber: its degree, all lattice points, and the hull vertices."""

    degree: Degree
    points: tuple[Exponent, ...]
    vertices: tuple[Exponent, ...]


def _check_degree(A: FiberMatrix, b) -> Degree:
    b = tuple(b)
    if len(b) != A.nrows:
        raise ValueError(f"degree {b} has length {len(b)}, matrix has {A.nrows} rows")
    return check_exponent(b)


def _check_in_na(A: FiberMatrix, b) -> Degree:
    b = _check_degree(A, b)
    if not _fiber_points(_plan(A), b):
        raise ValueError(f"empty fiber over {b}")
    return b


def _check_pair(A: FiberMatrix, b, b1, b2) -> tuple[Degree, Degree, Degree]:
    b, b1, b2 = _check_degree(A, b), _check_degree(A, b1), _check_degree(A, b2)
    if tuple(map(add, b1, b2)) != b:
        raise ValueError(f"degree mismatch: {b1} + {b2} != {b}")
    return b, _check_in_na(A, b1), _check_in_na(A, b2)


def _check_ring(M: MonomialIdeal, A: FiberMatrix) -> None:
    if M.nvars != A.ncols:
        raise ValueError(f"ideal has {M.nvars} variables, matrix has {A.ncols} columns")


@dataclass
class _Plan:
    """One matrix's fiber layer: the handle every private function takes.

    rows and cols are the matrix's, colset holds the columns for
    membership tests, ones is the index of a row of ones or None, and
    zero is the zero ideal.  The rest are memos.
    - fibers maps each degree asked for or covered to its lex-sorted
      points, () when outside NA.
    - covers maps a grade (the index of a row of ones, or None for
      y = (1, ..., 1)) to (top, buckets): the weight its cover is complete
      up to, and the nonempty fibers of weight <= top in lex order.
    - vertices maps a degree in NA to its hull vertices.
    - avoiding[M.gens][b], M nonzero, holds the points over b outside M.
    - atomic[key][b] says whether b is atomic, key M.gens in lattice mode
      and None in vertex mode.  A tuple of generators hashes in C, where a
      MonomialIdeal runs its dataclass hash in Python.
    """

    rows: tuple[tuple[int, ...], ...]
    cols: tuple[Degree, ...]
    colset: frozenset[Degree]
    pos_rows: tuple[tuple[int, ...], ...]
    # rows that no column beyond i can still serve; their residual must be 0
    dead_after: tuple[tuple[int, ...], ...]
    gcds: tuple[int, ...]
    ones: int | None
    zero: MonomialIdeal
    fibers: dict[Degree, tuple[Exponent, ...]] = field(default_factory=dict)
    covers: dict[int | None, tuple[int, dict]] = field(default_factory=dict)
    vertices: dict[Degree, tuple[Exponent, ...]] = field(default_factory=dict)
    avoiding: defaultdict[tuple, dict] = field(default_factory=partial(defaultdict, dict))
    atomic: defaultdict[tuple | None, dict] = field(default_factory=partial(defaultdict, dict))


@cache
def _plan(A: FiberMatrix) -> _Plan:
    d, n = A.nrows, A.ncols
    cols = tuple(A.column(i) for i in range(n))
    return _Plan(
        rows=A.rows,
        cols=cols,
        colset=frozenset(cols),
        pos_rows=tuple(tuple(r for r in range(d) if c[r] > 0) for c in cols),
        dead_after=tuple(
            tuple(r for r in range(d) if not any(A.rows[r][i + 1 :])) for i in range(n)
        ),
        gcds=tuple(math.gcd(*row) for row in A.rows),
        ones=next((r for r, row in enumerate(A.rows) if set(row) == {1}), None),
        zero=MonomialIdeal.zero(n),
    )


def _weight(b: Degree, grade: int | None) -> int:
    """y.b for the y given by grade: the weight every point over b has."""
    return sum(b) if grade is None else b[grade]


def _bucketed(cols, weights, top: int) -> dict[Degree, tuple[Exponent, ...]]:
    """Every u with weights.u <= top, bucketed by Au, degrees in lex order.

    The columns are extended one at a time, each prefix by every value
    its remaining weight allows; prefixes stay in lex order, so the points
    do too, and each bucket is one lex-sorted tuple.  A degree b is carried
    as the integer key sum over r of b_r R^(d-1-r), so adding a column is
    one integer addition, and each point goes into its bucket as the last
    column is assigned.  The radix R = (max entry) top + 1 keeps the keys
    of distinct degrees distinct: weights are all >= 1, so every u has
    |u| <= weights.u <= top, and each b_r = sum_i A_ri u_i is at most
    (max entry) |u| < R, one base-R digit.  So key order is lex order, and
    the buckets are emitted in sorted key order, each key decoded once.
    """
    d = len(cols[0])
    radix = max(map(max, cols)) * top + 1
    keys = [sum(e * radix**r for r, e in enumerate(reversed(c))) for c in cols]
    level = [((), 0, 0)]
    for k, w in zip(keys[:-1], weights[:-1]):
        nxt = []
        for u, key, wt in level:
            for v in range((top - wt) // w + 1):
                nxt.append((u + (v,), key, wt))
                key += k
                wt += w
        level = nxt
    k, w = keys[-1], weights[-1]
    buckets: defaultdict[int, list[Exponent]] = defaultdict(list)
    for u, key, wt in level:
        for v in range((top - wt) // w + 1):
            buckets[key].append(u + (v,))
            key += k
    return {_degree(key, radix, d): tuple(buckets[key]) for key in sorted(buckets)}


def _degree(key: int, radix: int, d: int) -> Degree:
    """The degree of length d whose base-radix digits, most significant first, form key."""
    b = [0] * d
    for r in range(d - 1, -1, -1):
        key, b[r] = divmod(key, radix)
    return tuple(b)


def _graded(plan: _Plan, grade: int | None, top: int) -> dict[Degree, tuple[Exponent, ...]]:
    """Every nonempty fiber of weight <= top for the y given by grade, in lex order.

    Covers y up to weight top first, if it is not yet, and stores the
    fibers in the memo.  At the cover's top the answer is the cover's own
    buckets, which callers only read; below it, those of weight <= top.
    Growing a cover enumerates every u of weight <= top again, so the
    fibers it already held are bucketed anew, to equal tuples.
    """
    held, buckets = plan.covers.get(grade, (-1, None))
    if top > held:
        weights = tuple(map(sum, plan.cols)) if grade is None else plan.rows[grade]
        held, buckets = plan.covers[grade] = top, _bucketed(plan.cols, weights, top)
        plan.fibers.update(buckets)
    if top == held:
        return buckets
    return {b: pts for b, pts in buckets.items() if _weight(b, grade) <= top}


def _degree_groups(plan: _Plan, bound: int) -> dict[Degree, tuple[Exponent, ...]]:
    """The u with |u| <= bound, grouped by Au, each group lex sorted, degrees in lex order.

    With a row of ones, |u| is u's weight in the cover for that row, so
    the groups are the fibers it covers up to weight bound; else they come
    from the same enumeration with unit weights, kept for this call only.
    """
    if plan.ones is not None:
        return _graded(plan, plan.ones, bound)
    return _bucketed(plan.cols, (1,) * len(plan.cols), bound)


def _enumerate_fiber(plan: _Plan, b: Degree) -> list[Exponent]:
    """Level-by-level assignment of exponents with residual-feasibility pruning.

    This serves the degrees no graded cover reaches: scans on a matrix
    with no row of ones, single queries such as a deep degree on a
    one-row matrix, and degrees above every covered weight.  At the root,
    b_r must be a multiple of the gcd of row r; a zero row has gcd 0 and
    admits only b_r = 0.  As in _bucketed, the columns are extended one at
    a time, each prefix u by every value its residual b - Au allows, so
    prefixes stay in lex order and so do the points; there is no
    recursion, however many columns.  A prefix is dropped when it leaves
    a residual on a row no later column serves.  A prefix with residual 0
    admits only zeros after it, so it is padded once and carried along,
    marked by the residual None.  The last exponent is not branched on:
    the residual fixes it, so it is solved by one divmod on the first row
    where the last column is positive and, with more than one row,
    checked on every row, in the same loop that steps the column before
    it.
    """
    if any(br % g if g else br for br, g in zip(b, plan.gcds)):
        return []
    cols, pos_rows, dead_after = plan.cols, plan.pos_rows, plan.dead_after
    n, last = len(cols), cols[-1]
    pivot = pos_rows[-1][0]
    if n == 1:
        w, rem = divmod(b[pivot], last[pivot])
        return [] if rem or b != tuple(map(mul, last, repeat(w))) else [(w,)]
    level = [((), b)]
    for col, rows, dead in zip(cols[:-2], pos_rows, dead_after):
        nxt = []
        for u, rest in level:
            if rest is None:
                nxt.append((u, None))
                continue
            top = min(rest[r] // col[r] for r in rows)
            if not (top or any(rest)):
                nxt.append((u + (0,) * (n - len(u)), None))
                continue
            for v in range(top + 1):
                if not (dead and any(rest[r] for r in dead)):
                    nxt.append((u + (v,), rest))
                if v < top:
                    rest = tuple(map(sub, rest, col))
        level = nxt
    col, rows = cols[-2], pos_rows[-2]
    single = len(b) == 1
    out: list[Exponent] = []
    for u, rest in level:
        if rest is None:
            out.append(u)
            continue
        top = min(rest[r] // col[r] for r in rows)
        for v in range(top + 1):
            w, rem = divmod(rest[pivot], last[pivot])
            if not rem and (single or rest == tuple(map(mul, last, repeat(w)))):
                out.append(u + (v, w))
            if v < top:
                rest = tuple(map(sub, rest, col))
    return out


def _fiber_points(plan: _Plan, b: Degree) -> tuple[Exponent, ...]:
    """All u with Au = b, lex sorted; empty iff b is outside NA.

    Read from the plan's fiber memo.  A degree missing from it is outside
    NA when its weight is within a cover's top, and is otherwise found by
    _enumerate_fiber and stored.
    """
    points = plan.fibers.get(b)
    if points is None:
        covered = any(_weight(b, grade) <= top for grade, (top, _) in plan.covers.items())
        points = plan.fibers[b] = () if covered else tuple(_enumerate_fiber(plan, b))
    return points


def _fiber_vertices(plan: _Plan, b: Degree) -> tuple[Exponent, ...]:
    vertices = plan.vertices
    if b not in vertices:
        # fiber points come unique and lex sorted, as _hull takes them
        vertices[b] = tuple(_hull(_fiber_points(plan, b)))
    return vertices[b]


def fiber_points(A: FiberMatrix, b) -> list[Exponent]:
    """All u with Au = b, in lex order.  Empty means b is outside the monoid NA."""
    return list(_fiber_points(_plan(A), _check_degree(A, b)))


def fiber(A: FiberMatrix, b) -> Fiber:
    """The fiber over b together with its hull vertices; b must lie in NA."""
    b, plan = _check_in_na(A, b), _plan(A)
    return Fiber(b, _fiber_points(plan, b), _fiber_vertices(plan, b))


def in_hull(q, points) -> bool:
    """Exact test: is q a convex combination of the given points?"""
    return in_convex_hull(q, points)


def hull_vertices(points) -> list[Exponent]:
    """Points that are not convex combinations of the others, in lex order."""
    points = [tuple(p) for p in points][::-1]
    if not points:
        raise ValueError("empty point set has no hull")
    # a positive scale keeps lex order and vertices; reversed, each image keeps the
    # first point equal to it, as a set does
    images = dict(zip(_integer_points(points), points))
    if len(lengths := {len(p) for p in images}) > 1:
        raise ValueError(f"points have different lengths {sorted(lengths)}")
    return [images[v] for v in _hull(sorted(images))]


def _exposed(pts) -> set[Exponent]:
    """Vertices of the hull of sorted, distinct points that weights expose.

    For each coordinate and for the weight (1, 2, ..., n), the lex-first
    and lex-last point of least value and of greatest value are vertices:
    they are vertices of the face the weight or its negative exposes, and
    a vertex of a face is one of the hull.  The weight (1, ..., 1) is left
    out: it is constant over every fiber of a matrix with a row of ones.
    """
    weights = range(1, len(pts[0]) + 1)
    exposed = set()
    for values in (*zip(*pts), [sum(map(mul, weights, p)) for p in pts]):
        for extreme in (min(values), max(values)):
            ties = [p for p, v in zip(pts, values) if v == extreme]
            exposed.update((ties[0], ties[-1]))
    return exposed


def _hull(pts):
    """hull_vertices for sorted, distinct integer points of one length, unchecked.

    One or two points are returned as given, as their own vertices.  Two
    passes of exact certificates leave the LP only the candidates.  First,
    the exposed points (_exposed) are vertices.  Then a point p with
    2p - q in the set for some q != p is the midpoint of two others, so
    not a vertex; a point neither test settles is undecided.  The
    candidates, exposed and undecided points, hold every vertex, as each
    other point is a midpoint.  So when an undecided p is no vertex, it
    lies in the hull of the vertices, all among the other candidates, and
    p is a vertex iff the exact LP finds it outside the other candidates'
    hull.

    The midpoint test reads one key per point, key(p) = sum p_i R^i with
    R = 2m + 1, m the greatest minus the least coordinate c.  Then 2p - q
    is a point r iff 2 key(p) - key(q) = key(r): the difference is the sum
    of the digits 2p_i - q_i - r_i = 2(p_i - c) - (q_i - c) - (r_i - c),
    each in [-2m, 2m] and so below R in size, times R^i, and such a sum is
    0 only when every digit is, as its lowest nonzero digit is no multiple
    of R.
    """
    if len(pts) <= 2:
        return pts
    vertices = _exposed(pts)
    radix = 2 * (max(map(max, pts)) - min(map(min, pts))) + 1
    powers = [radix**i for i in range(len(pts[0]))]
    keys = [sum(map(mul, powers, p)) for p in pts]
    present = set(keys)
    # one of q, 2p - q is lex-smaller than p, so earlier points suffice
    undecided = [
        p
        for k, (p, key) in enumerate(zip(pts, keys))
        if p not in vertices and present.isdisjoint(map((2 * key).__sub__, keys[:k]))
    ]
    candidates = sorted(vertices.union(undecided))
    for p in undecided:
        if not in_convex_hull(p, [q for q in candidates if q != p]):
            vertices.add(p)
    return sorted(vertices)


def _first_unsplit(points, f1):
    """First of points that no u1 in f1 divides, or None.

    For p over b and u1 <= p over b1, u2 = p - u1 >= 0 lies over b - b1.
    """
    for point in points:
        for u1 in f1:
            if all(map(le, u1, point)):
                break
        else:
            return point
    return None


def minkowski_decomposes(A: FiberMatrix, b, b1, b2) -> bool:
    """Does the hull over b equal the Minkowski sum of the hulls over b1, b2?

    Decided by a set test, with no LP.  A point over b1 plus a point over
    b2 is a point over b, so the sum polytope always lies in the hull P_b.
    It is the hull of the pairwise sums of the summands' vertices, and a
    vertex of P_b, being an extreme point, lies in the hull of a subset S
    of P_b only if it is in S.  So equality holds iff every vertex of P_b
    is a vertex over b1 plus a vertex over b2.  A vertex v = u1 + u2 of P_b
    with u1, u2 any lattice points over b1, b2 is already such a sum: were
    u1 the midpoint of two points of P_b1, v would be the midpoint of two
    points of P_b.  So the test reads the lattice points over b1 alone,
    with no hull: u1 <= v over b1 leaves u2 = v - u1 >= 0 over b2.
    """
    b, b1, b2 = _check_pair(A, b, b1, b2)
    plan = _plan(A)
    return _first_unsplit(_fiber_vertices(plan, b), _fiber_points(plan, b1)) is None


def _atomic(plan: _Plan, b: Degree, whole) -> bool:
    """Does no nontrivial pair b1 + b2 = b in NA split whole?

    A pair splits whole when each of its points has a divisor over b1:
    the rest lies over b2, and avoids M when the point does.  A pair that
    splits whole splits its point p:
    p = u1 + u2 with A u1 = b1, so u1 <= p.  So b1 runs over A u1 for
    0 <= u1 <= p, p the point with the fewest sub-box points, prod(p_i + 1),
    and each pair is in NA, as b - b1 = A(p - u1).  b1 = 0 only when
    u1 = 0, and b1 = b only when u1 = p, because no column is zero; b1 = b
    fails b1 <= b - b1 in lex order.  Each nontrivial unordered pair from
    the sub-box is tried at most once, in any order, since the verdict
    does not depend on the order.  This is the plain walk: _verdict
    calls it only on what its certificates and screen leave open.

    The b1 are formed as one sumset of integer keys.  In radix
    R = max(b) + 1 a degree c has key(c) = sum over r of c_r R^(d-1-r).
    Every b1 = A u1 with u1 <= p has b - b1 = A(p - u1) >= 0, so each b1_r
    and each b2_r is at most b_r < R, one base-R digit.  So distinct b1
    have distinct keys, key order is lex order, and key(b - b1) =
    key(b) - key(b1).  The set of sums of t_i key(column i), 0 <= t_i <=
    p_i, is then the set of distinct b1, and 0 < key(b1), 2 key(b1) <=
    key(b) says b1 != 0 and b1 <= b2 in lex order.  Each kept key is
    decoded to its degree once.
    """
    p = min(whole, key=lambda u: math.prod(e + 1 for e in u))
    radix = max(b) + 1
    keys, top = [0] * len(p), 0
    for row, e in zip(plan.rows, b):
        keys = [key * radix + a for key, a in zip(keys, row)]
        top = top * radix + e
    sums = {0}
    for key, e in zip(keys, p):
        if e:
            sums = {s + t for s in sums for t in range(0, key * e + 1, key)}
    for key in sums:
        if 0 < 2 * key <= top:
            if _first_unsplit(whole, _fiber_points(plan, _degree(key, radix, len(b)))) is None:
                return False
    return True


def is_atomic(A: FiberMatrix, b) -> bool:
    """No nontrivial pair b1 + b2 = b Minkowski-decomposes the hull over b.

    The zero degree is never atomic: its hull is the single point 0 and
    0 + 0 = 0 decomposes it.  Nontrivial means b1, b2 outside {0, b}.
    Each pair is tested as minkowski_decomposes tests it.
    """
    return _verdict(_plan(A), None, _check_in_na(A, b))


def _ma_fiber(plan: _Plan, M: MonomialIdeal, b: Degree) -> tuple[Exponent, ...]:
    # the zero ideal avoids every point: its fiber is the memo's own tuple
    if not M.gens:
        return _fiber_points(plan, b)
    avoiding = plan.avoiding[M.gens]
    if b not in avoiding:
        avoiding[b] = tuple(u for u in _fiber_points(plan, b) if not M._member(u))
    return avoiding[b]


def ma_fiber(M: MonomialIdeal, A: FiberMatrix, b) -> list[Exponent]:
    """Fiber points whose monomials avoid M, in lex order."""
    _check_ring(M, A)
    return list(_ma_fiber(_plan(A), M, _check_degree(A, b)))


def ma_decomposes(M: MonomialIdeal, A: FiberMatrix, b, b1, b2):
    """Does every M-avoiding point over b split additively over b1 and b2?

    Returns (True, None), or (False, witness) with the lex-first point
    admitting no split.  A point p splits iff some u1 over b1 divides it:
    then u2 = p - u1 lies over b2, and u1, u2 avoid M as p does.
    """
    _check_ring(M, A)
    b, b1, b2 = _check_pair(A, b, b1, b2)
    plan = _plan(A)
    witness = _first_unsplit(_ma_fiber(plan, M, b), _fiber_points(plan, b1))
    return (witness is None), witness


def is_ma_atomic(M: MonomialIdeal, A: FiberMatrix, b) -> bool:
    """No nontrivial pair in NA splits every M-avoiding point over b."""
    _check_ring(M, A)
    b, plan = _check_degree(A, b), _plan(A)
    if not _ma_fiber(plan, M, b):
        raise ValueError(f"empty (M,A) fiber over {b}")
    return _verdict(plan, M, b)


def _verdict(plan: _Plan, M: MonomialIdeal | None, b: Degree) -> bool:
    """The verdict on (M, b), M None for vertex mode, kept in the plan.

    The caller checked its arguments and gives b in NA.  The verdict is
    kept under M's generators, None in vertex mode.  The points are those
    over b outside M, all of them in vertex mode.  Two exact certificates
    are read off them before any walk.
    - A unit vector e_i among the points makes b atomic.  Then b is column
      i, and a pair that splits e_i has b1 = A u1 with u1 <= e_i, so b1 is
      0 or b.  In vertex mode e_i is a vertex: a point p != e_i over b
      with p_i > 0 would give A(p - e_i) = 0 with p - e_i >= 0 nonzero,
      which no zero column allows, so e_i alone maximises x_i.
    - Else a variable x_i dividing every point makes b not atomic.  Column
      i is not b, since then every point p >= e_i over b would be e_i.
      So the pair (column i, b - column i) splits every point, with both
      parts in NA and neither 0 nor b, and so every vertex.
    So a degree with a single point is atomic iff that point is a unit
    vector: else it is 0, over the zero degree, or has a variable
    dividing it.  In vertex mode the lattice verdict with M = 0, kept
    under the key (), screens the rest: a pair that splits every point
    splits every vertex, so a degree that is not lattice-atomic is not
    vertex-atomic.  A lattice-atomic degree is
    vertex-atomic when b is a column, as e_i is then a point, or when it
    has at most two points, which are then its vertices.  The rest are
    walked over the exposed vertices E (_exposed) first, with no hull:
    E is a subset of the vertices V, so a pair that splits every vertex
    splits every point of E, and when no pair splits E none splits V.
    Only a degree some pair splits E of builds its hull and walks V.
    """
    verdicts = plan.atomic[None if M is None else M.gens]
    verdict = verdicts.get(b)
    if verdict is None:
        if M is None:
            verdict = _verdict(plan, plan.zero, b)
            if verdict and b not in plan.colset:
                points = _fiber_points(plan, b)
                verdict = (
                    len(points) <= 2
                    or _atomic(plan, b, sorted(_exposed(points)))
                    or _atomic(plan, b, _fiber_vertices(plan, b))
                )
        else:
            points = _ma_fiber(plan, M, b)
            if b in plan.colset and any(sum(p) == 1 for p in points):
                verdict = True
            elif len(points) < 2 or any(map(min, *points)):
                # no point outside M leaves nothing to decompose
                verdict = False
            else:
                verdict = _atomic(plan, b, points)
        verdicts[b] = verdict
    return verdict


def atomic_scan(
    A: FiberMatrix,
    bound: int,
    mode: str = "vertex",
    M: MonomialIdeal | None = None,
) -> list[Degree]:
    """All atomic degrees Au with |u| <= bound, sorted lex.

    mode "vertex" uses Minkowski decomposability of hulls; mode "lattice"
    uses additive splitting of the (M,A) fiber points, with M defaulting
    to the zero ideal, and skips degrees whose points all lie in M.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if mode not in ("vertex", "lattice"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "vertex":
        if M is not None:
            raise ValueError("vertex mode takes no ideal")
    elif M is None:
        M = MonomialIdeal.zero(A.ncols)
    else:
        _check_ring(M, A)
    plan = _plan(A)
    # with a row of ones the groups are the fibers that row's cover holds,
    # and it then holds every fiber the scan reads: a split part has b1_r <= b_r
    return [b for b in _degree_groups(plan, bound) if any(b) and _verdict(plan, M, b)]


def atomicity_ideal(A: FiberMatrix, b) -> MonomialIdeal:
    """Monomial ideal generated by the hull vertices of the fiber over b."""
    b = _check_in_na(A, b)
    return _minimal(A.ncols, _fiber_vertices(_plan(A), b))


def _vertex_split(plan: _Plan, bound: int) -> tuple[list[Exponent], list[Exponent]]:
    """The u with |u| <= bound that are hull vertices of their own fiber, and the rest."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    vertices, others = [], []
    for b, points in _degree_groups(plan, bound).items():
        hull = _fiber_vertices(plan, b)
        for u in points:
            (vertices if u in hull else others).append(u)
    return vertices, others


def vertex_ideal_standard(A: FiberMatrix, bound: int) -> list[Exponent]:
    """All u with |u| <= bound that are hull vertices of their own fiber, lex sorted."""
    return sorted(_vertex_split(_plan(A), bound)[0])


def vertex_ideal_gens_truncated(A: FiberMatrix, bound: int) -> MonomialIdeal:
    """Minimal generators, within |u| <= bound, of the non-vertex monomials."""
    return _minimal(A.ncols, _vertex_split(_plan(A), bound)[1])


def sagbi_generators(A: FiberMatrix, coeffs, bound: int) -> list[tuple[int, Degree]]:
    """(k_b, b) pairs over the vertex-atomic degrees within the bound.

    k_b is the gcd of prod(c_i^{u_i}) over the fiber points u; with the
    atomic degrees these generate every c^u x^{Au} up to an integer factor.
    """
    coeffs = tuple(coeffs)
    for c in coeffs:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"coefficient {c!r} must be an integer")
    if len(coeffs) != A.ncols:
        raise ValueError(f"need {A.ncols} coefficients, got {len(coeffs)}")
    if any(c == 0 for c in coeffs):
        raise ValueError("coefficients must be nonzero")
    out, plan = [], _plan(A)
    for b in atomic_scan(A, bound, mode="vertex"):
        k = 0
        for u in _fiber_points(plan, b):
            k = math.gcd(k, abs(math.prod(c**e for c, e in zip(coeffs, u))))
        out.append((k, b))
    return out


def monoid_lift(G: FiberMatrix, ideal_degrees, bound: int) -> MonomialIdeal:
    """Pull a monomial ideal of the monoid algebra back along x_i -> t^(column i).

    G's columns generate a submonoid of N^(nrows); the ideal is generated
    by the monoid elements ideal_degrees.  Returns the minimal a with
    |a| <= bound whose value G.a lands in the ideal, i.e. in some
    ideal_degree plus the monoid.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    degrees = [_check_degree(G, b) for b in ideal_degrees]
    members, plan = [], _plan(G)
    # with a row of ones, a gap's weight is at most |a| <= bound, so the
    # cover answers membership in NG
    for value, points in _degree_groups(plan, bound).items():
        for bj in degrees:
            gap = tuple(v - w for v, w in zip(value, bj))
            if all(g >= 0 for g in gap) and _fiber_points(plan, gap):
                members.extend(points)
                break
    return _minimal(G.ncols, members)
