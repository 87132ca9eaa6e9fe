"""Differential tests of the exact hull layer against tests/oracles.py.

hull_vertices settles most points by exact certificates before its LP,
minkowski_decomposes is a set test with no LP, and in_convex_hull pivots
on an integer tableau.  Each is checked here against an oracle that takes
a different route: affinely-independent-subset search for membership and
vertices, and mutual hull membership of vertex sums for Minkowski sums.
"""

import functools
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from staircase import (
    FiberMatrix,
    fibers,
    fiber_points,
    hull_vertices,
    in_hull,
    is_atomic,
    minkowski_decomposes,
)
from staircase.exactlp import in_convex_hull

import corpus
import oracles

DEMO = FiberMatrix(
    ((1, 1, 1, 0, 0, 0), (0, 3, 2, 1, 0, 0), (5, 0, 2, 0, 1, 0), (0, 2, 1, 0, 0, 1))
)
DEMO_B = (6, 13, 15, 8)
# the subset-search oracle is exponential in the point count
ORACLE_POINTS = 10
# fibers of 18 to 90 points in 3 dimensions, 5 of whose points need the LP
ONE_ROW = FiberMatrix(((2, 3, 5, 7),))
ONE_ROW_DEGREES = [(b,) for b in range(20, 41, 4)]


def test_hull_vertices_special_sets():
    cases = [
        [(4, 4, 4)],  # single point
        [(2, 1)] * 5,  # one point repeated
        [(0, 0), (1, 1), (2, 2), (3, 3), (1, 1)],  # collinear with a repeat
        [(0, 0, 0), (1, 2, 3), (3, 6, 9), (2, 4, 6)],  # collinear, uneven steps
        [(0,), (3,), (7,), (7,)],  # one dimension
        [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)],  # square, centre, edge
        [(0, 0), (3, 1), (1, 3), (1, 1)],  # interior point that is no midpoint
    ]
    for pts in cases:
        assert hull_vertices(pts) == oracles.hull_vertices_by_definition(pts), pts


def test_hull_vertices_rejects_mixed_lengths():
    cases = [
        ([(0, 0), (1, 1, 5), (2, 2)], "[2, 3]"),
        ([(0, 0), (1,), (2, 2)], "[1, 2]"),
        ([(0, 0), (1,)], "[1, 2]"),
    ]
    for pts, lengths in cases:
        with pytest.raises(ValueError, match=re.escape(f"points have different lengths {lengths}")):
            hull_vertices(pts)


def test_hull_vertices_against_oracle_random():
    rng = corpus.make_rng("exact-hull-vertices")
    for _ in range(60):
        dim = rng.randint(1, 4)
        pts = [corpus.random_exponent(rng, dim, 3) for _ in range(rng.randint(1, 9))]
        pts += rng.sample(pts, rng.randint(0, len(pts)))  # repeated points
        assert hull_vertices(pts) == oracles.hull_vertices_by_definition(pts), pts


def test_hull_vertices_against_oracle_at_the_key_radix_boundary():
    # coordinates at 0 and at m make 2p - q reach -m and 2m, digits that
    # carry into another point's key in any radix below 2m + 1: in radix
    # m + 1 = 4, 2(2, 1) - (0, 3) = (4, -1) would read as the key of (0, 0)
    cases = [[(0, 0), (0, 3), (2, 1), (3, 2)], [(0, 0), (0, 3), (1, 2), (2, 1), (3, 2)]]
    rng = corpus.make_rng("exact-hull-radix")
    for _ in range(80):
        dim, m = rng.randint(2, 3), rng.randint(1, 4)
        pts = [tuple(rng.randint(0, m) for _ in range(dim)) for _ in range(rng.randint(3, 8))]
        pts.append(tuple(rng.choice((0, m)) for _ in range(dim)))
        cases.append(pts)
    for pts in cases:
        assert hull_vertices(pts) == oracles.hull_vertices_by_definition(pts), pts


# negative-integer and Fraction point sets, and their vertices as recorded
# from the midpoint test that built one tuple per pair of points
HALF, THIRD, SIXTH = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
RECORDED_HULLS = [
    ([(-3, 1), (-1, 1), (1, 1), (0, 0), (-2, 5)], [(-3, 1), (-2, 5), (0, 0), (1, 1)]),
    (
        [(-4, -4), (-2, -3), (0, -2), (-3, -1), (-1, -1), (-2, 0)],
        [(-4, -4), (-3, -1), (-2, 0), (0, -2)],
    ),
    (
        [(-2, 0, -1), (0, -2, -1), (-1, -1, -1), (-1, -1, -3), (-1, -1, 1), (0, 0, 0)],
        [(-2, 0, -1), (-1, -1, -3), (-1, -1, 1), (0, -2, -1), (0, 0, 0)],
    ),
    (
        [(HALF, 0), (0, THIRD), (-5 * SIXTH, Fraction(-7, 4)), (0, 0), (HALF / 2, SIXTH)],
        [(-5 * SIXTH, Fraction(-7, 4)), (0, THIRD), (HALF, 0)],
    ),
    (
        [(-HALF, HALF), (HALF, HALF), (0, HALF), (THIRD, -2 * THIRD), (SIXTH, -SIXTH / 2)],
        [(-HALF, HALF), (THIRD, -2 * THIRD), (HALF, HALF)],
    ),
    ([(3 * HALF,), (-7 * THIRD,), (SIXTH,), (0,), (-7 * THIRD,)], [(-7 * THIRD,), (3 * HALF,)]),
]


def test_hull_vertices_on_negative_and_fraction_sets():
    for pts, expected in RECORDED_HULLS:
        # repr also pins the type of every coordinate handed back
        assert repr(hull_vertices(pts)) == repr(expected), pts
        assert hull_vertices(pts) == oracles.hull_vertices_by_definition(pts), pts
    rng = corpus.make_rng("exact-hull-rational")
    for _ in range(40):
        dim = rng.randint(1, 3)
        pts = [
            tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(dim))
            for _ in range(rng.randint(1, 8))
        ]
        assert hull_vertices(pts) == oracles.hull_vertices_by_definition(pts), pts


def _small_fibers(salt, count):
    """count seeded (A, b) whose fibers have at most ORACLE_POINTS points."""
    rng = corpus.make_rng(salt)
    out = []
    while len(out) < count:
        A = corpus.random_matrix(rng, rng.randint(1, 2), rng.randint(2, 4), 3)
        b = A.apply(corpus.random_exponent(rng, A.ncols, 3))
        if len(fiber_points(A, b)) <= ORACLE_POINTS:
            out.append((A, b))
    return out


def test_hull_vertices_against_oracle_on_fibers():
    for A, b in _small_fibers("exact-hull-fibers", 30):
        pts = fiber_points(A, b)
        assert hull_vertices(pts) == oracles.hull_vertices_by_definition(pts)
    # a 3-dimensional fiber of a one-row matrix: 18 points, 6 vertices, 1 LP
    # (the subset search takes seconds from 27 points on; the larger
    # one-row fibers are checked against the replaced LP route below)
    pts = fiber_points(ONE_ROW, ONE_ROW_DEGREES[0])
    assert hull_vertices(pts) == oracles.hull_vertices_by_definition(pts)


def _is_midpoint(p, present) -> bool:
    return any(q != p and tuple(2 * x - y for x, y in zip(p, q)) in present for q in present)


def test_lp_gets_only_undecided_points_and_candidates(monkeypatch):
    """The LP is asked about the points no certificate settles, against the candidates.

    The settled points are those explicit weight vectors expose and the
    midpoints of two fiber points.  No point handed to the LP is a
    midpoint, and the vertices equal those of an LP over every other point.
    """
    asked = []

    def recording(q, points):
        asked.append((tuple(q), [tuple(p) for p in points]))
        return in_convex_hull(q, points)

    monkeypatch.setattr(fibers, "in_convex_hull", recording)
    cases = [fiber_points(A, b) for A, b in _small_fibers("exact-hull-fibers", 30)]
    cases += [fiber_points(ONE_ROW, b) for b in ONE_ROW_DEGREES]
    for pts in cases:
        present = set(pts)
        exposed = oracles.exposed_points_by_weights(pts) if len(pts) > 2 else present
        undecided = [p for p in pts if p not in exposed and not _is_midpoint(p, present)]
        candidates = sorted(exposed.union(undecided))
        start = len(asked)
        vertices = hull_vertices(pts)
        assert [q for q, _ in asked[start:]] == undecided, pts
        for q, given in asked[start:]:
            assert given == [p for p in candidates if p != q], (q, given)
            assert not any(_is_midpoint(p, present) for p in given), (q, given)
        assert vertices == sorted(
            exposed.union(
                p for p in undecided if not in_convex_hull(p, [q for q in pts if q != p])
            )
        )
    assert len(asked) == 5  # the LP is exercised


def test_exposed_points_match_the_tie_lists():
    # _exposed finds each extreme's lex-first and lex-last point by index,
    # where the tie-list oracle lists every point at the extreme; small
    # coordinates make most extremes ties.  Both equal the maximizers of the
    # explicit weight vectors, and each point they find is a hull vertex
    # (checked on the first 40 sets, as the vertex oracle runs an LP per point)
    rng = corpus.make_rng("exposed-ties")
    tied = 0
    for k in range(300):
        n = rng.randint(1, 4)
        pts = sorted({tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 12))})
        exposed = fibers._exposed(pts)
        assert exposed == oracles.exposed_by_tie_lists(pts) == oracles.exposed_points_by_weights(pts), pts
        if k < 40:
            assert exposed <= set(oracles.hull_vertices_by_definition_of_non_midpoints(pts)), pts
        tied += any(min(col) == max(col) or list(col).count(max(col)) > 2 for col in zip(*pts))
    assert tied > 100


@functools.cache
def _oracle_vertices(A, b):
    return oracles.hull_vertices_by_definition(fiber_points(A, b))


@functools.cache
def _hull_member(q, points: frozenset) -> bool:
    # the splits of one degree ask about the same points and sets again
    return oracles.hull_member(q, sorted(points))


def _minkowski_by_membership(A, b, b1, b2) -> bool:
    verts = frozenset(_oracle_vertices(A, b))
    sums = frozenset(
        tuple(x + y for x, y in zip(p, q))
        for p in _oracle_vertices(A, b1)
        for q in _oracle_vertices(A, b2)
    )
    return all(_hull_member(v, sums) for v in verts) and all(
        _hull_member(s, verts) for s in sums
    )


def test_minkowski_against_membership_reference_random():
    seen_true = seen_false = 0
    for A, b in _small_fibers("exact-minkowski", 25):
        splits = oracles.split_pairs_from_points(A.rows, b, fiber_points(A, b))
        for b1, b2 in splits:
            expected = _minkowski_by_membership(A, b, b1, b2)
            assert minkowski_decomposes(A, b, b1, b2) is expected, (A, b, b1, b2)
            seen_true += expected
            seen_false += not expected
        decomposable = any(_minkowski_by_membership(A, b, b1, b2) for b1, b2 in splits)
        assert is_atomic(A, b) is (any(b) and not decomposable)
    assert seen_true and seen_false  # both answers exercised


def test_minkowski_against_membership_reference_worked_example():
    splits = oracles.split_pairs_from_points(DEMO.rows, DEMO_B, fiber_points(DEMO, DEMO_B))
    assert ((1, 3, 5, 2), (5, 10, 10, 6)) in splits
    for b1, b2 in splits:
        assert minkowski_decomposes(DEMO, DEMO_B, b1, b2) is _minkowski_by_membership(
            DEMO, DEMO_B, b1, b2
        ), (b1, b2)


def test_in_convex_hull_against_oracle_negative_and_fraction_targets():
    rng = corpus.make_rng("exact-lp")
    for _ in range(120):
        dim = rng.randint(1, 3)
        pts = [
            tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 6))
        ]
        kind = rng.randrange(3)
        if kind == 0:  # integer target, often outside, possibly negative
            q = tuple(rng.randint(-4, 4) for _ in range(dim))
        elif kind == 1:  # exact convex combination with Fraction weights
            w = [Fraction(rng.randint(0, 4)) for _ in pts]
            if not any(w):
                w[0] = Fraction(1)
            q = tuple(sum(wi * p[k] for wi, p in zip(w, pts)) / sum(w) for k in range(dim))
        else:  # Fraction target near the points, inside or not
            q = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(dim))
        expected = oracles.hull_member(q, pts)
        assert in_convex_hull(q, pts) is expected, (q, pts)
        assert in_hull(q, pts) is expected
        if kind == 1:
            assert expected


def test_in_convex_hull_fraction_points():
    half = Fraction(1, 2)
    pts = [(half, 0), (0, Fraction(1, 3)), (Fraction(-5, 6), Fraction(-7, 4))]
    for q in [(0, 0), (Fraction(1, 4), Fraction(1, 6)), (half, half), (-1, -2)]:
        assert in_convex_hull(q, pts) is oracles.hull_member(q, pts), q


def test_in_convex_hull_float_and_decimal_at_their_exact_values():
    # each coordinate is read at its exact value, as Fraction(x) reads it
    rng = corpus.make_rng("exact-lp-float-decimal")
    kinds = [
        lambda: rng.randint(-12, 12) / rng.choice((1, 2, 4, 8)),
        lambda: rng.randint(-9, 9) / 10,  # not dyadic: 0.1 is no tenth as a float
        lambda: Decimal(rng.randint(-30, 30)) / rng.choice((1, 2, 5, 10)),
    ]
    for _ in range(150):
        dim = rng.randint(1, 3)
        make = rng.choice(kinds)
        pts = [tuple(make() for _ in range(dim)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:  # the midpoint of two points, always inside
            p, q = rng.choice(pts), rng.choice(pts)
            target = tuple((x + y) / 2 for x, y in zip(p, q))
        else:
            target = tuple(make() for _ in range(dim))
        expected = oracles.hull_member(
            tuple(map(Fraction, target)), [tuple(map(Fraction, p)) for p in pts]
        )
        assert in_convex_hull(target, pts) is expected, (target, pts)
        assert in_hull(target, pts) is expected


# int, Fraction, float, Decimal and mixed sets, with their vertices as the
# scaled midpoint test returned them before the hull and the LP shared one
# rational-to-integer kernel; an equal point of another type is a repeat,
# and the first one given is kept
D = Decimal
RECORDED_TYPED_HULLS = [
    ([(0, 0), (4, 0), (0, 4), (1, 1), (2, 2), (4, 0)], [(0, 0), (0, 4), (4, 0)]),
    (
        [(HALF, Fraction(0)), (Fraction(0), THIRD), (HALF / 2, SIXTH), (-HALF, -HALF)],
        [(-HALF, -HALF), (Fraction(0), THIRD), (HALF, Fraction(0))],
    ),
    (
        [(0.5, 0.0), (0.0, 0.25), (0.125, 0.125), (-1.5, 2.0), (0.25, 0.0)],
        [(-1.5, 2.0), (0.0, 0.25), (0.25, 0.0), (0.5, 0.0)],
    ),
    (
        [(D("0.1"), D("0")), (D("0"), D("0.3")), (D("0.05"), D("0.15")), (D("-2.5"), D("1"))],
        [(D("-2.5"), D("1")), (D("0"), D("0.3")), (D("0.1"), D("0"))],
    ),
    ([(1,), (1.0,), (Fraction(1),), (D(3),), (3,), (2.0,)], [(1,), (D(3),)]),
    (
        [(0.1, 2), (Fraction(1, 10), 2), (D("0.1"), 2), (0, 0), (1, 1)],
        [(0, 0), (Fraction(1, 10), 2), (0.1, 2), (1, 1)],
    ),
    ([(True, False), (False, True), (0.5, 0.5), (0, 0)], [(0, 0), (False, True), (True, False)]),
]


def test_hull_vertices_keep_values_and_types_of_int_fraction_float_decimal_sets():
    for pts, expected in RECORDED_TYPED_HULLS:
        # repr pins the type of every coordinate handed back
        assert repr(hull_vertices(pts)) == repr(expected), pts
        exact = [tuple(map(Fraction, p)) for p in pts]
        assert hull_vertices(pts) == oracles.hull_vertices_by_definition(exact), pts


NOT_RATIONAL = ["1/2", None, float("nan"), float("inf"), "a"]


@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=repr)
def test_non_rational_coordinate_is_named(bad):
    # the hull and the LP read coordinates through one kernel, which names
    # the first coordinate that is no finite rational number
    named = re.escape(f"coordinate {bad!r} is not a finite rational number")
    pts = [(bad,), (1,), (2,)]  # with "a" the mixed str/int set, which sorted() cannot order
    with pytest.raises(ValueError, match=named):
        hull_vertices(pts)
    with pytest.raises(ValueError, match=named):
        in_hull((1,), pts)
    with pytest.raises(ValueError, match=named):
        in_convex_hull((bad,), [(0,), (2,)])
