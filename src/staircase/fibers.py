"""Fibers of nonnegative integer matrices and their atomicity.

A d x n matrix A with no zero column maps u |-> Au; the fiber over a
degree b is the finite set {u in N^n : Au = b}, whose convex hull is a
lattice polytope.  This module enumerates fibers exactly, finds hull
vertices in rational arithmetic, decides Minkowski decomposability and
both flavours of atomicity, scans for atomic degrees, builds vertex
ideals and subalgebra generators from them, and lifts monomial ideals
through a monoid parameterization.

Each matrix has one plan (_Plan), built once by _plan: the matrix's
rows and columns, the fiber search's tables, built on first use, and
every memo this module keeps, so _plan.cache_clear() resets them all.
The public functions check their arguments and look the plan up; every
private function below them takes the plan in place of the matrix.  The
memos are plan entries: fibers, graded covers, scan atoms, hull
vertices, M-avoiding points and verdicts (see _Plan).

A graded cover (_Cover) holds a whole grade of fibers by integer key.
Pick y >= 0 with every entry of yA at least 1: the unit vector of a row
of ones (a point's weight is then |u|), or y = (1, ..., 1), whose yA
are the column sums.  The cover at weight W enumerates every u with
(yA).u <= W once, bucketed by the key of Au (_bucketed).  Every u over
b has weight y.b, so when y.b <= W the bucket of b is its whole fiber
and a degree with no bucket is outside NA.  The fiber memo keeps the
fibers read off a cover (_fiber_points, _graded) or searched.  A scan
on a row of ones walks that row's cover; any other scan reads its
degrees off least-count levels of integer degree keys (_scan_degrees),
and on one row also covers y = (1, ..., 1) when that holds at most twice
the points of its own fibers (_one_row_top), the cover
hilbert.reachable_degrees reads.  Every other fiber is found by a search
that assigns one column at a time and solves the last two together
(_enumerate_fiber).

A scan's cover carries each point's sub-box as an integer bitset and
keeps the keys of the degrees one pair splits every point of (_bucketed):
for a degree it holds, that is one set lookup, which settles the lattice
verdict with M = 0 and rules out atomicity in every mode.  Every cover
holds its points.  A lattice scan with M = 0 reads nothing but split
keys, so when the bitsets pay it walks them with no points, keeps nothing
of the walk (_split_walk), and returns the keys not split, 0 aside (_scan).

Atomicity is otherwise decided in _verdict, the one kernel every check
and every scan that reads points runs, save that a scan settles each
degree with one point itself.  Two exact
certificates read off the points settle most other degrees, a vertex
verdict is screened by the lattice one with M = 0 and then walked over
the exposed vertices (_exposed, which _hull shares), and what is left
walks the split pairs in the sub-box of one end of the points, pruned by
the sub-box of the other end (_atomic), reading the split parts off the
cover that holds b, when one does, by integer key.
_check_in_na is the one test that a degree lies in NA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import repeat
from collections import defaultdict
from operator import add, mul, sub

from .exactlp import _integer_points, in_convex_hull
from .monomial import (
    Exponent,
    MonomialIdeal,
    _check_int,
    _has_divisor,
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
        try:
            object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        except TypeError:
            raise ValueError(f"rows must be a sequence of integer rows, got {self.rows!r}") from None
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


def _check_degree(A: FiberMatrix, b, name: str = "b") -> Degree:
    try:
        b = tuple(b)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integers, got {b!r}") from None
    if len(b) != A.nrows:
        raise ValueError(f"degree {b} has length {len(b)}, matrix has {A.nrows} rows")
    return check_exponent(b)


def _check_in_na(A: FiberMatrix, b, *pair) -> tuple:
    """A's plan, looked up once, and the checked degrees b, *pair, in order.

    Every length is checked first.  A pair b1, b2 must then sum to b, and
    b1, then b2, must lie in NA, so b does too; with no pair, b must.
    """
    plan, b, pair = _plan(A), _check_degree(A, b), [_check_degree(A, d, f"b{k}") for k, d in enumerate(pair, 1)]
    if pair and tuple(map(add, *pair)) != b:
        raise ValueError("degree mismatch: {} + {} != {}".format(*pair, b))
    for d in pair or (b,):
        if not _fiber_points(plan, d):
            raise ValueError(f"empty fiber over {d}")
    return plan, b, *pair


def _check_ring(M: MonomialIdeal, A: FiberMatrix) -> None:
    if M.nvars != A.ncols:
        raise ValueError(f"ideal has {M.nvars} variables, matrix has {A.ncols} columns")


@dataclass
class _Plan:
    """One matrix's fiber layer: the handle every private function takes.

    rows and cols are the matrix's, colset holds the columns for
    membership tests, ones is the index of a row of ones or None, and
    zero is the zero ideal.  search holds the tables and the two-column
    solver _enumerate_fiber reads, built on its first read: a scan on a
    matrix with a row of ones reads every fiber from the cover and never
    searches.  The rest are memos.
    - fibers maps each degree read or searched to its lex-sorted points,
      () when outside NA.
    - covers maps a grade (the index of a row of ones, or None for
      y = (1, ..., 1)) to its cover (_Cover), which holds its points.
    - atoms maps (bound, mode, M.gens) to the atoms of that scan.
    - vertices maps a degree in NA to its hull vertices.
    - avoiding[M.gens][b], M nonzero, holds the points over b outside M.
    - atomic[key][b] says whether b is atomic, key M.gens in lattice mode
      and None in vertex mode.  A tuple of generators hashes in C, where a
      MonomialIdeal runs its dataclass hash in Python.
    """

    rows: tuple[tuple[int, ...], ...]
    cols: tuple[Degree, ...]
    colset: frozenset[Degree]
    ones: int | None
    zero: MonomialIdeal
    fibers: dict[Degree, tuple[Exponent, ...]] = field(default_factory=dict)
    covers: dict[int | None, _Cover] = field(default_factory=dict)
    atoms: dict[tuple, list[Degree]] = field(default_factory=dict)
    vertices: dict[Degree, tuple[Exponent, ...]] = field(default_factory=dict)
    avoiding: defaultdict[tuple, dict] = field(default_factory=partial(defaultdict, dict))
    atomic: defaultdict[tuple | None, dict] = field(default_factory=partial(defaultdict, dict))

    @cached_property
    def search(self) -> tuple:
        """Per column the rows it is positive on; per column i the rows no
        column beyond i serves, whose residual must be 0; each row's gcd;
        the solver of the last two columns, None for one column."""
        rows, cols = range(len(self.rows)), self.cols
        return (
            tuple(tuple(r for r in rows if c[r] > 0) for c in cols),
            tuple(tuple(r for r in rows if not any(self.rows[r][i + 1 :])) for i in range(len(cols))),
            tuple(math.gcd(*row) for row in self.rows),
            _two_column_solver(*cols[-2:]) if len(cols) > 1 else None,
        )


def _two_column_solver(c: Degree, l: Degree):
    """The function from r to every (v, w) in N^2 with v c + w l = r, v ascending.

    If some 2 x 2 minor c_s l_t - c_t l_s is nonzero, v and w are fixed by
    Cramer's rule on rows s and t, and kept when they are nonnegative
    integers that fit every row.  Else c = alpha q and l = beta q for the
    primitive q = c / gcd(c), alpha = gcd(c), beta = gcd(l), and r must be
    t q.  Then v alpha + w beta = t, and with g = gcd(alpha, beta) the
    solutions are the v = (t / g)(alpha / g)^-1 mod beta / g, one residue
    class, with 0 <= v alpha <= t, each fixing w = (t - v alpha) / beta.
    """
    d = len(c)
    for s in range(d):
        for t in range(s + 1, d):
            if det := c[s] * l[t] - c[t] * l[s]:

                def cramer(r):
                    v, rem_v = divmod(r[s] * l[t] - r[t] * l[s], det)
                    w, rem_w = divmod(c[s] * r[t] - c[t] * r[s], det)
                    if rem_v or rem_w or v < 0 or w < 0:
                        return ()
                    return ((v, w),) if all(v * x + w * y == z for x, y, z in zip(c, l, r)) else ()

                return cramer
    alpha, beta = math.gcd(*c), math.gcd(*l)
    q = tuple(x // alpha for x in c)
    pivot = next(r for r, x in enumerate(q) if x)
    g = math.gcd(alpha, beta)
    step = beta // g
    inverse = pow(alpha // g, -1, step)

    def proportional(r):
        t, rem = divmod(r[pivot], q[pivot])
        if rem or t % g or r != tuple(map(mul, q, repeat(t))):
            return ()
        first = t // g * inverse % step
        return [(v, (t - v * alpha) // beta) for v in range(first, t // alpha + 1, step)]

    return proportional


@cache
def _plan(A: FiberMatrix) -> _Plan:
    cols = tuple(A.column(i) for i in range(A.ncols))
    return _Plan(
        rows=A.rows,
        cols=cols,
        colset=frozenset(cols),
        ones=next((r for r, row in enumerate(A.rows) if set(row) == {1}), None),
        zero=MonomialIdeal.zero(A.ncols),
    )


def _weight(b: Degree, grade: int | None) -> int:
    """y.b for the y given by grade: the weight every point over b has."""
    return sum(b) if grade is None else b[grade]


#: the most bits a sub-box bitset of _bucketed may have, R^d for d rows,
#: and the most of them a cover may have per point
_MEET_BITS = 1 << 11
_MEET_BITS_PER_POINT = 16


@dataclass(slots=True)
class _Cover:
    """Every nonempty fiber of weight <= top for one y, by integer key alone.

    keyed maps each degree's key to its lex-sorted points in key order,
    lex order, with the place values powers of radix and the columns'
    keys (_place_values); no key is decoded.  Every digit of a degree it
    holds is below radix.  splits holds the keys of the degrees one pair
    splits every point of, or None (_bucketed); a scan asked for the cover
    when it is not None.
    """

    top: int
    radix: int
    powers: list[int]
    keys: list[int]
    keyed: dict[int, tuple[Exponent, ...]]
    splits: set[int] | None


def _radix(cols, top: int) -> int:
    """(max entry) top + 1: above every digit of a degree of a u with |u| <= top."""
    return max(map(max, cols)) * top + 1


def _place_values(cols, radix: int) -> tuple[list[int], list[int]]:
    """The place values radix^(d-1-r) of a degree's d digits, and each column's key.

    A degree's key is its dot product with the place values.  When every
    digit is below radix, key order is lex order and key(Au) = sum u_i key(column i).
    """
    powers = [radix**r for r in range(len(cols[0]) - 1, -1, -1)]
    return powers, [sum(map(mul, powers, c)) for c in cols]


def _decoded(keys, powers, radix: int) -> list[Degree]:
    """The degrees of keys, in order: one list of digits per place value, zipped."""
    return list(zip(*[[key // power % radix for key in keys] for power in powers]))


def _by_degree(cover: _Cover) -> dict[Degree, tuple[Exponent, ...]]:
    """A cover's points by degree in lex order: its keys decoded in bulk."""
    keyed = cover.keyed
    return dict(zip(_decoded(keyed, cover.powers, cover.radix), keyed.values()))


def _tails(keys, weights, rest: int) -> list[tuple[Exponent, int]]:
    """Every t with weights.t <= rest in lex order, with its key offset keys.t."""
    tails = [((), 0, rest)]
    for k, w in zip(keys, weights):
        tails = [(t + (v,), off + v * k, left - v * w) for t, off, left in tails for v in range(left // w + 1)]
    return [(t, off) for t, off, _ in tails]


def _bucketed(cols, weights, top: int, split: bool = False) -> _Cover:
    """The cover of every u with weights.u <= top, bucketed by Au.

    The columns are extended one at a time, each prefix by every value
    its remaining weight allows; prefixes stay in lex order, so the points
    do too, and each bucket is one lex-sorted tuple.  A degree is carried
    as its integer key (_place_values), so adding a column is one integer
    addition, and each point goes into its bucket as the last column is
    assigned.  The radix R = (max entry) top + 1 keeps the keys exact:
    weights are all >= 1, so every u has |u| <= weights.u <= top, and each
    b_r = sum_i A_ri u_i is at most (max entry) |u| < R, one digit.  The
    buckets are kept in sorted key order, lex order.  With no bitsets each
    prefix takes the last columns, two of four or more and else one, off
    a table per remaining weight (_tails), built once per call.

    With split, which only a scan asks, as its buckets are whole fibers,
    and when the bitsets pay (see below), each prefix and point u also
    carries its sub-box as a bitset: bit key(A u1) for 0 <= u1 <= u.  It
    starts at 1, the sub-box {0} of u = 0, and each copy of a column with
    key k does sub |= sub << k, since a u1 <= u + e_j has u1_j = 0, so
    u1 <= u, or u1 - e_j <= u.  Each digit of A u1 is at most that of A u,
    below R, so the keys are exact and below R^d.  Each point's bitset is
    ANDed into its degree's meet: the b1 in every point's sub-box, always
    0 and b.  A nonzero b whose meet holds a third b1 is split: each point
    p over b is u1 + (p - u1) with A u1 = b1, so the pair (b1, b - b1),
    both in NA and neither 0 nor b, splits every point.  Only the keys of
    split degrees are kept; the meets, up to R^d bits each, are not.  The
    bitsets are carried only when they pay (_bitsets_pay): above the bound
    they would cost more memory than the walks they save time, and on a
    cover of fewer than R^d / _MEET_BITS_PER_POINT points most fibers have
    one point, which the scan settles with no walk.  The points are counted
    as the C(n + top, n) u with |u| <= top, which hold them all, and are
    them on a row of ones.  Else the split keys are None.  _split_walk
    walks the same bitsets with no points.
    """
    radix = _radix(cols, top)
    powers, keys = _place_values(cols, radix)
    # meets[key] is -1 until a point over key comes
    meets = [-1] * radix ** len(powers) if split and _bitsets_pay(cols, top) else None
    buckets: defaultdict[int, list[Exponent]] = defaultdict(list)
    # two walks, so that a cover pays only for what it carries
    if meets is None:
        # a table is read by more prefixes than it has remaining weights
        # only when the columns before it are two or more
        tabled = 2 if len(cols) > 3 else 1
        level = [((), 0, 0)]
        for k, w in zip(keys[:-tabled], weights[:-tabled]):
            nxt = []
            for u, key, wt in level:
                for v in range((top - wt) // w + 1):
                    nxt.append((u + (v,), key, wt))
                    key += k
                    wt += w
            level = nxt
        tables: dict[int, list[tuple[Exponent, int]]] = {}
        for u, key, wt in level:
            rest = top - wt
            if (tails := tables.get(rest)) is None:
                tails = tables[rest] = _tails(keys[-tabled:], weights[-tabled:], rest)
            for tail, offset in tails:
                buckets[key + offset].append(u + tail)
    else:
        level = [((), 0, 0, 1)]
        for k, w in zip(keys[:-1], weights[:-1]):
            nxt = []
            for u, key, wt, sub in level:
                for v in range((top - wt) // w + 1):
                    nxt.append((u + (v,), key, wt, sub))
                    key += k
                    wt += w
                    sub |= sub << k
            level = nxt
        k, w = keys[-1], weights[-1]
        for u, key, wt, sub in level:
            for v in range((top - wt) // w + 1):
                buckets[key].append(u + (v,))
                meets[key] &= sub
                sub |= sub << k
                key += k
    order = sorted(buckets)
    keyed = dict(zip(order, map(tuple, map(buckets.__getitem__, order))))
    splits = None if meets is None else {key for key in order if meets[key].bit_count() > 2}
    return _Cover(top, radix, powers, keys, keyed, splits)


def _split_walk(cols, weights, top: int) -> tuple[list[int], set[int]]:
    """The keys of A u for every u with weights.u <= top, in order, and the split keys.

    _bucketed's walk with split, less its points, for a caller that checked
    that the bitsets pay (_bitsets_pay): each prefix is its key, weight
    and sub-box bitset alone, and a point only ANDs its bitset into the
    meet of its key, so no tuple or bucket is built.  The keys are those
    whose meet a point reached, and the split keys those whose meet holds
    a third b1.  A lattice scan with M = 0 reads this alone (_scan).
    """
    radix = _radix(cols, top)
    keys = _place_values(cols, radix)[1]
    meets = [-1] * radix ** len(cols[0])
    level = [(0, 0, 1)]
    for k, w in zip(keys[:-1], weights[:-1]):
        nxt = []
        for key, wt, sub in level:
            for _ in range((top - wt) // w + 1):
                nxt.append((key, wt, sub))
                key += k
                wt += w
                sub |= sub << k
        level = nxt
    k, w = keys[-1], weights[-1]
    for key, wt, sub in level:
        for _ in range((top - wt) // w + 1):
            meets[key] &= sub
            sub |= sub << k
            key += k
    held = [key for key, meet in enumerate(meets) if meet != -1]
    return held, {key for key in held if meets[key].bit_count() > 2}


def _bitsets_pay(cols, top: int) -> bool:
    """Do the sub-box bitsets of a cover up to top pay, R^d bits each (_bucketed)?"""
    size = _radix(cols, top) ** len(cols[0])
    return size <= _MEET_BITS and size <= _MEET_BITS_PER_POINT * math.comb(len(cols) + top, top)


def _covered(plan: _Plan, grade: int | None, top: int, split: bool = False) -> _Cover:
    """The cover of the y given by grade, up to top or above, built when it must be.

    A cover is built up to top when it is not held that far.  A scan asks
    with split, and a cover with split keys keeps them as it grows; a
    cover with none is built once more with split, at its own top if
    higher, when a scan asks and the bitsets pay there.
    """
    cover = plan.covers.get(grade)
    held, asked = (-1, False) if cover is None else (cover.top, cover.splits is not None)
    if top > held or (split and not asked and _bitsets_pay(plan.cols, max(top, held))):
        weights = tuple(map(sum, plan.cols)) if grade is None else plan.rows[grade]
        cover = plan.covers[grade] = _bucketed(plan.cols, weights, max(top, held), split or asked)
    return cover


def _graded(plan: _Plan, grade: int | None, top: int) -> dict[Degree, tuple[Exponent, ...]]:
    """Every nonempty fiber of weight <= top for the y given by grade, in lex order.

    Decoded off the cover that holds them (_covered), and kept in the
    fiber memo as they are decoded.  A cover held above top has its
    heavier fibers left out.
    """
    cover = _covered(plan, grade, top)
    fibers = _by_degree(cover)
    if top < cover.top:
        fibers = {b: pts for b, pts in fibers.items() if _weight(b, grade) <= top}
    plan.fibers.update(fibers)
    return fibers


def _cover_of(plan: _Plan, b: Degree) -> _Cover | None:
    """The plan's cover that holds b, one with split keys first; None if none does."""
    held = None
    for grade, cover in plan.covers.items():
        if _weight(b, grade) <= cover.top:
            if cover.splits is not None:
                return cover
            held = held or cover
    return held


def _degree_groups(plan: _Plan, bound: int) -> dict[Degree, tuple[Exponent, ...]]:
    """The u with |u| <= bound, grouped by Au, each group lex sorted, degrees in lex order.

    With a row of ones, |u| is u's weight in the cover for that row, so
    the groups are the fibers it covers up to weight bound; else they come
    from the same enumeration with unit weights, kept for this call only,
    and no group is a whole fiber, so none enters the fiber memo.
    """
    if plan.ones is not None:
        return _graded(plan, plan.ones, bound)
    return _by_degree(_bucketed(plan.cols, (1,) * len(plan.cols), bound))


def _enumerate_fiber(plan: _Plan, b: Degree) -> list[Exponent]:
    """Level-by-level assignment of exponents with residual-feasibility pruning.

    This serves the degrees no graded cover reaches: scans on a matrix
    with several rows and no row of ones, single queries such as a deep
    degree on a one-row matrix, and degrees above every covered weight.
    At the root, b_r must be a multiple of the gcd of row r; a zero row
    has gcd 0 and admits only b_r = 0.  As in _bucketed, the columns are
    extended one at a time, each prefix u by every value its residual
    b - Au allows, so prefixes stay in lex order and so do the points;
    there is no recursion, however many columns.  A prefix is dropped when
    it leaves a residual on a row no later column serves.  A prefix with
    residual 0 admits only zeros after it, so it is padded once and
    carried along, marked by the residual None.  The last two exponents
    are not branched on: v c + w l = r for the last two columns c, l and
    the residual r is solved exactly, by Cramer's rule or, when c and l
    are proportional, over one residue class (_two_column_solver), and
    its solutions come with v ascending, so in lex order.  One column is
    solved by one divmod, checked on every row.
    """
    pos_rows, dead_after, gcds, solve = plan.search
    if any(br % g if g else br for br, g in zip(b, gcds)):
        return []
    cols = plan.cols
    n = len(cols)
    if n == 1:
        last, pivot = cols[0], pos_rows[0][0]
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
    out: list[Exponent] = []
    for u, rest in level:
        if rest is None:
            out.append(u)
        else:
            out.extend(u + vw for vw in solve(rest))
    return out


def _fiber_points(plan: _Plan, b: Degree) -> tuple[Exponent, ...]:
    """All u with Au = b, lex sorted; empty iff b is outside NA.

    Read from the plan's fiber memo, else off the cover that holds b
    (_cover_of) by key, else by _enumerate_fiber, and stored.  A digit
    past the cover's radix puts b outside NA, and its key may be another
    degree's: (1, 27) in radix 25 keys as (2, 2).
    """
    points = plan.fibers.get(b)
    if points is None:
        cover = _cover_of(plan, b)
        if cover is None:
            points = tuple(_enumerate_fiber(plan, b))
        elif max(b) < cover.radix:
            points = cover.keyed.get(sum(map(mul, cover.powers, b)), ())
        else:
            points = ()
        plan.fibers[b] = points
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
    plan, b = _check_in_na(A, b)
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
    end = len(pts) - 1
    exposed = set()
    for values in (*zip(*pts), [sum(map(mul, weights, p)) for p in pts]):
        backwards = values[::-1]
        for extreme in (min(values), max(values)):
            exposed.update((pts[values.index(extreme)], pts[end - backwards.index(extreme)]))
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
    return next((p for p in points if not _has_divisor(f1, p)), None)


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
    plan, b, b1, _ = _check_in_na(A, b, b1, b2)
    return _first_unsplit(_fiber_vertices(plan, b), _fiber_points(plan, b1)) is None


def _atomic(plan: _Plan, b: Degree, whole, cover: _Cover | None) -> bool:
    """Does no nontrivial pair b1 + b2 = b in NA split whole?

    A pair splits whole when each of its points has a divisor over b1:
    the rest lies over b2, and avoids M when the point does.  A pair that
    splits whole splits each of its points, so any point p of whole will
    do: p = u1 + u2 with A u1 = b1, so u1 <= p.  So b1 runs over A u1 for
    0 <= u1 <= p, and each pair is in NA, as b - b1 = A(p - u1).  b1 = 0
    only when u1 = 0, and b1 = b only when u1 = p, because no column is
    zero; b1 = b fails b1 <= b - b1 in lex order.  Each nontrivial
    unordered pair from the sub-box is tried at most once, in any order,
    since the verdict does not depend on the order.  This is the plain
    walk: _verdict calls it only on what its certificates and screen
    leave open.

    The pair splits a second point q as well, so b1 is also A u1 for some
    u1 <= q.  Once the first pair fails, the walk skips every b1 outside
    q's sub-box: those pairs leave q unsplit, so the verdict is the plain
    walk's.  A walk that ends at its first pair builds no second sub-box.
    p and q are the two ends of whole, lex-first and lex-last, read with
    no pass over whole; p is the one with fewer sub-box points,
    prod(p_i + 1), the lex-first on a tie.  When whole is a fiber or its
    hull vertices, the ends are vertices of the fiber's hull, as the
    lex-extreme points of a set are, so no two u1 in their sub-boxes lie
    over one degree: were u1 != u1' two, p would be the midpoint of the
    points p - u1 + u1' and p + u1 - u1' over b.

    The b1 are formed as one sumset of integer keys (_sub_box), in a
    radix R above every b_r.  Every b1 = A u1 with u1 <= p has
    b - b1 = A(p - u1) >= 0, so each b1_r and each b2_r is at most b_r,
    one digit, and key(b - b1) = key(b) - key(b1) (_place_values).  The
    set of sums of t_i key(column i), 0 <= t_i <= p_i, is then the set of
    distinct b1, and 0 < key(b1), 2 key(b1) <= key(b) says b1 != 0 and
    b1 <= b2 in lex order.  The same holds for q, a point over b too.  The
    caller gives the cover that holds b (_cover_of), or None: a cover's
    radix is above b_r, since each u over b has |u| at most its weight,
    and every b1, of no greater weight, is held too, so the points over b1
    are the cover's entry at key(b1).  With no cover R = max(b) + 1, and
    each tried key is decoded to its degree and read by _fiber_points.
    """
    p, q = whole[0], whole[-1]
    if math.prod(e + 1 for e in q) < math.prod(e + 1 for e in p):
        p, q = q, p
    if cover is None:
        radix = max(b) + 1
        powers, keys = _place_values(plan.cols, radix)

        def read(key):
            return _fiber_points(plan, tuple(key // power % radix for power in powers))

    else:
        powers, keys, read = cover.powers, cover.keys, cover.keyed.__getitem__
    top = sum(map(mul, powers, b))
    within_q = None
    for key in _sub_box(keys, p):
        if not 0 < 2 * key <= top or (within_q is not None and key not in within_q):
            continue
        if _first_unsplit(whole, read(key)) is None:
            return False
        if within_q is None:
            within_q = _sub_box(keys, q)
    return True


def _sub_box(keys, p) -> set[int]:
    """The sums of t_i keys_i over 0 <= t_i <= p_i: the keys of A u1 for 0 <= u1 <= p."""
    sums = {0}
    for key, e in zip(keys, p):
        if e:
            sums = {s + t for s in sums for t in range(0, key * e + 1, key)}
    return sums


def is_atomic(A: FiberMatrix, b) -> bool:
    """No nontrivial pair b1 + b2 = b Minkowski-decomposes the hull over b.

    The zero degree is never atomic: its hull is the single point 0 and
    0 + 0 = 0 decomposes it.  Nontrivial means b1, b2 outside {0, b}.
    Each pair is tested as minkowski_decomposes tests it.
    """
    plan, b = _check_in_na(A, b)
    return _verdict(plan, None, b, _cover_of(plan, b))


def _ma_fiber(plan: _Plan, M: MonomialIdeal, b: Degree) -> tuple[Exponent, ...]:
    # the zero ideal avoids every point: its fiber is the memo's own tuple
    if not M.gens:
        return _fiber_points(plan, b)
    avoiding = plan.avoiding[M.gens]
    if b not in avoiding:
        avoiding[b] = tuple(u for u in _fiber_points(plan, b) if not _has_divisor(M.gens, u))
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
    plan, b, b1, _ = _check_in_na(A, b, b1, b2)
    witness = _first_unsplit(_ma_fiber(plan, M, b), _fiber_points(plan, b1))
    return (witness is None), witness


def is_ma_atomic(M: MonomialIdeal, A: FiberMatrix, b) -> bool:
    """No nontrivial pair in NA splits every M-avoiding point over b."""
    _check_ring(M, A)
    b, plan = _check_degree(A, b), _plan(A)
    if not _ma_fiber(plan, M, b):
        raise ValueError(f"empty (M,A) fiber over {b}")
    return _verdict(plan, M, b, _cover_of(plan, b))


def _verdict(plan: _Plan, M: MonomialIdeal | None, b: Degree, cover: _Cover | None) -> bool:
    """The verdict on (M, b), M None for vertex mode, kept in the plan.

    The caller checked its arguments and gives b in NA and the cover that
    holds b (_cover_of), or None, which the walks read (_atomic).  The
    verdict is kept under M's generators, None in vertex mode.  The points
    are those over b outside M, all of them in vertex mode.  In lattice
    mode the first certificate is the meet of that cover, if it has split
    keys and b is nonzero.  A split key means some pair splits every point
    over b, so every point outside M: b is not atomic.  No split key with
    M = 0 means no pair splits every point: b is atomic.  With M != 0 and
    no split key, the points outside M decide.  The zero degree is left to
    the rest, as its meet {0} holds no split and yet 0 is no atom.  Two
    more exact certificates are read off the points before any walk.
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
            verdict = _verdict(plan, plan.zero, b, cover)
            if verdict and b not in plan.colset:
                points = _fiber_points(plan, b)
                verdict = (
                    len(points) <= 2
                    or _atomic(plan, b, sorted(_exposed(points)), cover)
                    or _atomic(plan, b, _fiber_vertices(plan, b), cover)
                )
        elif cover is not None and cover.splits is not None and any(b) and (
            (split := sum(map(mul, cover.powers, b)) in cover.splits) or not M.gens
        ):
            verdict = not split
        else:
            points = _ma_fiber(plan, M, b)
            if b in plan.colset and any(sum(p) == 1 for p in points):
                verdict = True
            elif len(points) < 2 or any(map(min, *points)):
                # no point outside M leaves nothing to decompose
                verdict = False
            else:
                verdict = _atomic(plan, b, points, cover)
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
    to the zero ideal, and skips degrees whose points all lie in M.  The
    plan keeps each scan's atoms (_scan) under (bound, mode, M's
    generators), and each call returns a fresh list of them.
    """
    _check_int(bound, "bound", 1)
    if mode not in ("vertex", "lattice"):
        raise ValueError(f"unknown mode {mode!r}")
    plan = _plan(A)
    if mode == "vertex":
        if M is not None:
            raise ValueError("vertex mode takes no ideal")
    elif M is None:
        M = plan.zero
    else:
        _check_ring(M, A)
    key = bound, mode, () if M is None else M.gens
    atoms = plan.atoms.get(key)
    if atoms is None:
        atoms = plan.atoms[key] = _scan(plan, bound, M)
    return list(atoms)


def _scan(plan: _Plan, bound: int, M: MonomialIdeal | None) -> list[Degree]:
    """atomic_scan's atoms, M None in vertex mode.

    A lattice scan with M = 0 whose bitsets pay at its top, bound on a row
    of ones and max(row) * bound on one row (_one_row_top), reads split
    keys alone (_split_walk): a nonzero degree is then atomic exactly when
    its key is not split.  That holds for a lone point p too, whose meet,
    its sub-box, has prod(p_i + 1) bits, as no two u1 <= p lie over one
    degree, so two bits only for a unit vector.  On a row of ones the atoms
    are the walk's keys less its split keys and 0, and on one row the
    scan's degrees whose key, their one digit, is not split.  Such a scan
    reads no cover and keeps nothing of its walk.

    Every other scan reads whole fibers, so a nonzero degree with one
    point p is atomic iff p is a unit vector that avoids M (_verdict's
    certificates), iff b is a column and no generator of M divides p.  The
    scan settles those itself and keeps no verdict for them; the rest go
    to _verdict with the cover that holds them.  On a row of ones the scan
    walks the cover's keys and decodes, in bulk, only the keys with two or
    more points, whose points it puts in the fiber memo, and the atoms'
    keys at the end.  A column has weight 1, and a key's weight is its
    digit on the row of ones, so a cover held above bound has its heavier
    keys skipped with no decode.
    """
    gens = () if M is None else M.gens
    bare = M is not None and not gens
    if plan.ones is None:
        degrees = _scan_degrees(plan, bound)
        top = _one_row_top(plan, degrees, bound) if len(plan.rows) == 1 else None
        if bare and top is not None and _bitsets_pay(plan.cols, top):
            # on one row a degree's key is its one digit, and degrees[0] is 0
            splits = _split_walk(plan.cols, plan.rows[0], top)[1]
            return [b for b in degrees[1:] if b[0] not in splits]
        if top is not None:
            _covered(plan, None, top, True)

        def atomic(b):
            points = _fiber_points(plan, b)
            if len(points) == 1:
                return b in plan.colset and not _has_divisor(gens, points[0])
            return _verdict(plan, M, b, _cover_of(plan, b))

        return list(filter(atomic, degrees))
    if bare and _bitsets_pay(plan.cols, bound):
        held, splits = _split_walk(plan.cols, plan.rows[plan.ones], bound)
        radix = _radix(plan.cols, bound)
        atoms = [key for key in held if key and key not in splits]
        return _decoded(atoms, _place_values(plan.cols, radix)[0], radix)
    # the row of ones' cover holds every fiber the scan reads, as a split
    # part has b1_r <= b_r, and no other cover of the matrix has split keys
    cover = _covered(plan, plan.ones, bound, True)
    powers, radix = cover.powers, cover.radix
    keyed, columns, weight = cover.keyed, set(cover.keys), powers[plan.ones]
    atoms, several = [], []
    for key, points in keyed.items():
        if len(points) == 1:
            if key in columns and not _has_divisor(gens, points[0]):
                atoms.append(key)
        elif key // weight % radix <= bound:
            several.append(key)
    degrees = _decoded(several, powers, radix)
    plan.fibers.update(zip(degrees, map(keyed.__getitem__, several)))
    atoms += [key for key, b in zip(several, degrees) if _verdict(plan, M, b, cover)]
    return _decoded(sorted(atoms), powers, radix)


def _scan_degrees(plan: _Plan, bound: int) -> list[Degree]:
    """The degrees Au with |u| <= bound, in lex order, off a least-count table.

    least[t] is the least |u| with key(Au) = t, in radix (max entry) bound
    + 1, filled a level at a time: level k, the t with least[t] = k, holds
    the sums t + k_i of a t in level k - 1 and a column key k_i that no
    lower level holds.  The degrees are the t with least[t] <= bound.  Each
    is expanded once, in n steps, where grouping the u with |u| <= bound
    takes a step per u.
    """
    radix = _radix(plan.cols, bound)
    powers, keys = _place_values(plan.cols, radix)
    seen, level = {0}, {0}
    for _ in range(bound):
        level = {t + k for k in keys for t in level} - seen
        seen |= level
    return _decoded(sorted(seen), powers, radix)


def _one_row_top(plan: _Plan, degrees, bound: int) -> int | None:
    """max(row) * bound, the top of the y = (1,) cover a one-row scan reads, or None for no cover.

    On one row every degree a scan reads, its own and each split part
    b1 <= b, is at most top = max(row) * bound, so the cover up to top
    holds every fiber the scan reads.  counts[t], counted over the row's
    entries in O(n top) steps, is the size of the fiber over t, so the
    cover holds sum(counts) points.  The scan reads the fiber over each of
    its degrees and keeps it in the memo: the counts over the degrees.  A
    row with spread entries such as (1, 1, 120) at bound 10 has a cover 32
    times that, and gets None.  Counting costs no more than grouping the
    C(n + bound, n) u with |u| <= bound when top is at most that many; it
    is skipped otherwise, and when a cover already holds top.  The cover is
    taken when held or at most twice what the scan reads.
    """
    row = plan.rows[0]
    top = max(row) * bound
    # a matrix with one row and no row of ones has no cover but that of y = (1,)
    if (held := plan.covers.get(None)) and held.top >= top:
        return top
    if top > math.comb(len(row) + bound, bound):
        return None
    counts = [1] + [0] * top
    for w in row:
        for t in range(w, top + 1):
            counts[t] += counts[t - w]
    return top if sum(counts) <= 2 * sum(counts[b] for (b,) in degrees) else None


def atomicity_ideal(A: FiberMatrix, b) -> MonomialIdeal:
    """Monomial ideal generated by the hull vertices of the fiber over b."""
    plan, b = _check_in_na(A, b)
    return _minimal(A.ncols, _fiber_vertices(plan, b))


def _vertex_split(plan: _Plan, bound: int) -> tuple[list[Exponent], list[Exponent]]:
    """The u with |u| <= bound that are hull vertices of their own fiber, and the rest."""
    vertices, others = [], []
    for b, points in _degree_groups(plan, _check_int(bound, "bound", 0)).items():
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

    Membership depends on the value alone, and members are closed under
    a -> a + e_i within the bound, as the value then gains column i.  So
    a member a is minimal iff no a - e_i is a member, and a - e_i, within
    the bound too, lies over value - column i.  The values come in lex
    order, and value - column i is lex-smaller, so it is decided first: a
    member is kept when a_i = 0 for every i with value - column i a member
    value.
    """
    _check_int(bound, "bound", 0)
    degrees = [_check_degree(G, b, f"ideal_degrees[{k}]") for k, b in enumerate(ideal_degrees)]
    values, gens, plan = set(), [], _plan(G)
    # with a row of ones, a gap's weight is at most |a| <= bound, so the
    # cover answers membership in NG
    for value, points in _degree_groups(plan, bound).items():
        for bj in degrees:
            gap = tuple(map(sub, value, bj))
            if min(gap) >= 0 and _fiber_points(plan, gap):
                values.add(value)
                below = [i for i, c in enumerate(plan.cols) if tuple(map(sub, value, c)) in values]
                gens.extend(a for a in points if not any(a[i] for i in below))
                break
    return MonomialIdeal._trusted(G.ncols, tuple(sorted(gens)))
