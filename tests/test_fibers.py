import inspect
import itertools
import math
import operator
import os
import subprocess
import sys
from functools import partial

import pytest

from staircase import fibers
from staircase import (
    FiberMatrix,
    MonomialIdeal,
    atomic_scan,
    atomicity_ideal,
    fiber,
    fiber_points,
    hull_vertices,
    in_hull,
    is_atomic,
    is_ma_atomic,
    ma_decomposes,
    ma_fiber,
    minimalize,
    minkowski_decomposes,
    monoid_lift,
    reachable_degrees,
    sagbi_generators,
    vertex_ideal_gens_truncated,
    vertex_ideal_standard,
)

import corpus
import oracles

SEGMENT = FiberMatrix(((1, 1),))
IDENTITY2 = FiberMatrix(((1, 0), (0, 1)))
ZERO2 = MonomialIdeal.zero(2)


def demo_matrix():
    return FiberMatrix(
        ((1, 1, 1, 0, 0, 0), (0, 3, 2, 1, 0, 0), (5, 0, 2, 0, 1, 0), (0, 2, 1, 0, 0, 1))
    )


def test_matrix_validation():
    with pytest.raises(ValueError):
        FiberMatrix(((1, 0), (0, 0)))  # second column zero
    with pytest.raises(ValueError):
        FiberMatrix(((1, -1),))
    with pytest.raises(ValueError):
        FiberMatrix(((1, 1), (1,)))
    with pytest.raises(ValueError):
        FiberMatrix(())


def test_matrix_rows_given_as_lists():
    A = FiberMatrix([[1, 2], [1, 1]])
    assert A.rows == ((1, 2), (1, 1))
    assert A == FiberMatrix(((1, 2), (1, 1)))
    assert hash(A) == hash(FiberMatrix(((1, 2), (1, 1))))
    assert fiber_points(A, (3, 2)) == [(1, 1)]
    assert atomic_scan(A, 3, mode="vertex") == atomic_scan(FiberMatrix(A.rows), 3, mode="vertex")
    with pytest.raises(ValueError):
        FiberMatrix([[1, 0], [0, 0]])


def test_matrix_json_round_trip():
    A = demo_matrix()
    assert FiberMatrix.from_json(A.to_json()) == A
    with pytest.raises(ValueError):
        FiberMatrix.from_json({"rows": 3, "cols": 6, "entries": [list(r) for r in A.rows]})
    for field in ("rows", "cols"):
        with pytest.raises(ValueError, match=f'"{field}"'):
            FiberMatrix.from_json({"rows": 1, "cols": 1, "entries": [[1]], field: True})


def test_fiber_points_examples():
    assert fiber_points(SEGMENT, (3,)) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert fiber_points(SEGMENT, (0,)) == [(0, 0)]
    assert fiber_points(demo_matrix(), (0, 0, 0, 0)) == [(0, 0, 0, 0, 0, 0)]
    assert fiber_points(SEGMENT, (1,)) == [(0, 1), (1, 0)]


def test_fiber_points_dimension_mismatch():
    with pytest.raises(ValueError):
        fiber_points(SEGMENT, (1, 2))


def test_fiber_points_against_box_oracle():
    rng = corpus.make_rng("fiber-box")
    for _ in range(40):
        A = corpus.random_matrix(rng, rng.randint(1, 3), rng.randint(2, 4), 3)
        u = corpus.random_exponent(rng, A.ncols, 2)
        b = A.apply(u)
        assert sorted(fiber_points(A, b)) == sorted(oracles.box_fiber_points(A.rows, b))
        for v in fiber_points(A, b):
            assert A.apply(v) == b


def test_fiber_points_row_gcd_and_zero_row_against_box_oracle():
    # rows with a common factor, and zero rows, are settled at the root
    rng = corpus.make_rng("fiber-gcd")
    for _ in range(40):
        A = corpus.random_matrix(rng, rng.randint(1, 2), rng.randint(2, 4), 3)
        k = rng.randint(2, 3)
        rows = (tuple(k * e for e in A.rows[0]),) + A.rows[1:] + ((0,) * A.ncols,)
        A = FiberMatrix(rows)
        b = A.apply(corpus.random_exponent(rng, A.ncols, 2))
        bumped = [b, (b[0] + 1,) + b[1:], b[:-1] + (1,)]
        for target in bumped:
            assert fiber_points(A, target) == sorted(oracles.box_fiber_points(A.rows, target))
    assert fiber_points(FiberMatrix(((2,) * 8,)), (31,)) == []


def _last_column_matrices(rng, count):
    """Seeded one-column matrices, alternating with matrices whose last
    column is 0 in row 0.  Enumeration solves the last exponent on the
    first row where the last column is positive: with one column nothing
    is branched on, and in the others that row lies below row 0."""
    out = []
    for k in range(count):
        if k % 2 == 0:
            out.append(corpus.random_matrix(rng, rng.randint(1, 3), 1, 4))
            continue
        A = corpus.random_matrix(rng, rng.randint(2, 3), rng.randint(2, 3), 3)
        rows = [list(r) for r in A.rows]
        rows[0][-1] = 0
        rows[rng.randrange(1, len(rows))][-1] = rng.randint(1, 3)
        out.append(FiberMatrix(tuple(map(tuple, rows))))
    return out


def _ones_matrices(rng, count):
    """Seeded matrices from 2x3 to 3x5 with a row of ones in a random place."""
    out = []
    for _ in range(count):
        A = corpus.random_matrix(rng, rng.randint(1, 2), rng.randint(3, 5), 3)
        rows = list(A.rows)
        rows.insert(rng.randint(0, len(rows)), (1,) * A.ncols)
        out.append(FiberMatrix(tuple(rows)))
    return out


def _no_ones_matrices(rng, count):
    """The 4x6 example, one-row matrices and matrices with a row of twos,
    none of them with a row of ones."""
    out = [demo_matrix(), FiberMatrix(((2, 3),)), FiberMatrix(((1, 2, 0), (0, 1, 1)))]
    while len(out) < count + 3:
        A = corpus.random_matrix(rng, rng.randint(1, 2), rng.randint(2, 4), 3)
        if A.nrows == 2:
            A = FiberMatrix(((2,) * A.ncols,) + A.rows[1:])
        if fibers._plan(A).ones is None:
            out.append(A)
    return out


def _plan_ones(A):
    grade = fibers._plan(A).ones
    assert grade is not None and set(A.rows[grade]) == {1}
    return grade


def _clear_fiber_caches():
    fibers._plan.cache_clear()


def test_cover_fibers_against_search_and_box_oracle():
    rng = corpus.make_rng("graded-cover")
    cases = [(A, _plan_ones(A)) for A in _ones_matrices(rng, 16)]
    cases += [(A, None) for A in _no_ones_matrices(rng, 10)]
    from_cover = beyond = 0
    for A, grade in cases:
        _clear_fiber_caches()
        y = [int(grade is None or r == grade) for r in range(A.nrows)]
        degrees = set()
        for _ in range(4):
            # degrees one step off are often outside NA
            b = A.apply(corpus.random_exponent(rng, A.ncols, 2))
            degrees |= {b, tuple(x + 1 for x in b), (b[0] + 1,) + b[1:]}
        weights = {b: sum(x * yr for x, yr in zip(b, y)) for b in degrees}
        # the middle weight: degrees below, at and beyond the covered one
        top = sorted(weights.values())[len(weights) // 2]
        plan = fibers._plan(A)
        cover = fibers._graded(plan, grade, top)
        for b in sorted(degrees):
            expected = sorted(oracles.box_fiber_points(A.rows, b))
            assert fiber_points(A, b) == fibers._enumerate_fiber(plan, b) == expected, (A, b)
            if weights[b] <= top:
                assert (b in cover) == bool(expected)
                if expected:
                    assert fibers._fiber_points(plan, b) is cover[b]
                    from_cover += 1
            else:
                beyond += 1
    assert from_cover and beyond


def test_scans_and_reachable_degrees_share_the_cover():
    # a scan covers the row of ones, reachable_degrees y = (1, ..., 1); both
    # covers fill the one fiber memo and persist, in either order, and a
    # repeat call adds no memo entries and returns the cover's own dict
    rng = corpus.make_rng("scan-reachable")
    for A in _ones_matrices(rng, 6):
        r = _plan_ones(A)
        scan = atomic_scan(A, 3, mode="lattice")
        for bound in (5, 2):
            walk = oracles.reachable_degrees_by_walk(A.rows, bound)
            for first_scan in (True, False):
                _clear_fiber_caches()
                rounds = []
                for _ in range(2):
                    if first_scan:
                        assert atomic_scan(A, 3, mode="lattice") == scan
                    assert reachable_degrees(A, bound) == walk
                    assert atomic_scan(A, 3, mode="lattice") == scan
                    plan = fibers._plan(A)
                    assert {g: top for g, (top, _) in plan.covers.items()} == {r: 3, None: bound}
                    for grade, top in ((r, 3), (None, bound)):
                        assert fibers._graded(plan, grade, top) is plan.covers[grade][1]
                    rounds.append(dict(plan.fibers))
                # the second round reused both covers and every fiber
                first, second = rounds
                assert second == first
                assert all(second[b] is pts for b, pts in first.items())


def test_integer_keyed_cover_against_box_and_walk_oracles():
    # _bucketed carries each degree as one integer in radix
    # (max entry) top + 1.  With unit weights, or the weights of a row of
    # ones, top times a column holding the largest entry reaches the top
    # digit, so a radix any smaller would carry into the next row and
    # misplace or merge degrees; zero entries give keys with empty digits.
    # The keys are big-endian, so the degrees come out in lex order
    rng = corpus.make_rng("integer-cover")
    cases = [
        FiberMatrix(((50,),)),
        FiberMatrix(((50, 0), (0, 50))),
        FiberMatrix(((0, 50, 1), (50, 0, 1))),
        FiberMatrix(((1, 1, 1), (0, 0, 50), (50, 0, 0))),
        FiberMatrix(((1, 1, 1, 1),)),
    ]
    for d in (1, 2, 3):
        for _ in range(3):
            n = rng.randint(1, 4)
            cases.append(corpus.random_matrix(rng, d, n, 50))
            cases.append(FiberMatrix(((1,) * n,) + corpus.random_matrix(rng, d, n, 50).rows[1:]))
    assert any(fibers._plan(A).ones is not None for A in cases)
    assert any(0 in row for A in cases for row in A.rows)
    for A in cases:
        cols = tuple(A.column(i) for i in range(A.ncols))
        top = rng.randint(1, 4)
        expected = {}
        for u in oracles.monomials_up_to(A.ncols, top):
            expected.setdefault(A.apply(u), []).append(u)
        buckets = fibers._bucketed(cols, (1,) * A.ncols, top)
        assert buckets.keys() == expected.keys(), A
        assert list(buckets) == sorted(buckets), A
        for b, points in buckets.items():
            assert list(points) == sorted(expected[b]), (A, b)
            assert list(points) == [u for u in oracles.box_fiber_points(A.rows, b) if sum(u) <= top]
        _clear_fiber_caches()
        plan = fibers._plan(A)
        if plan.ones is not None:
            cover = fibers._graded(plan, plan.ones, top)
            assert cover.keys() == expected.keys(), A
            assert list(cover) == sorted(cover), A
            for b, points in cover.items():
                assert list(points) == oracles.box_fiber_points(A.rows, b), (A, b)
        # y = (1, ..., 1): the weight of a degree is its coordinate sum
        weight = max(map(sum, cols)) + rng.randint(0, 20)
        cover = fibers._graded(plan, None, weight)
        assert list(cover) == sorted(cover), A
        assert sorted(cover) == oracles.reachable_degrees_by_walk(A.rows, weight), A
        for b, points in cover.items():
            assert list(points) == oracles.box_fiber_points(A.rows, b), (A, b)


def test_atomic_scan_cover_matches_search_in_either_order():
    # a scan over a matrix with a row of ones reads its fibers from the cover;
    # the reference decides the same degrees by fiber search alone
    rng = corpus.make_rng("scan-cover-order")
    deeper = 0
    for A in _ones_matrices(rng, 8):
        small, large = 1, rng.randint(3, 4)
        M = corpus.random_ideal(rng, A.ncols, 3, 2)
        runs = {}
        for mode, ideal in (("vertex", None), ("lattice", None), ("lattice", M)):
            _clear_fiber_caches()
            universe = sorted(
                {A.apply(u) for u in oracles.monomials_up_to(A.ncols, large)} - {(0,) * A.nrows}
            )
            if mode == "vertex":
                reference = [b for b in universe if is_atomic(A, b)]
            else:
                N = ideal or MonomialIdeal.zero(A.ncols)
                reference = [b for b in universe if ma_fiber(N, A, b) and is_ma_atomic(N, A, b)]
            assert not fibers._plan(A).covers  # the reference used no cover
            r = _plan_ones(A)
            for order in ((small, large), (large, small)):
                _clear_fiber_caches()
                for bound in order:
                    runs[bound] = atomic_scan(A, bound, mode=mode, M=ideal)
                assert runs[large] == reference, (A, mode, order)
                assert runs[small] == [b for b in reference if b[r] <= small], (A, mode, order)
            deeper += any(b[r] > small for b in reference)
    assert deeper  # some atomic degree lies beyond the smaller scan


def _pair_loop_matrices(rng):
    """The seeded matrices the pair loop and the split checks are tested on."""
    matrices = _ones_matrices(rng, 5) + _no_ones_matrices(rng, 3)[1:]
    matrices += [
        corpus.random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 3) for _ in range(24)
    ]
    return matrices + [
        FiberMatrix(((1, 1, 1, 1), (0, 1, 3, 4))),  # a non-normal monoid
        FiberMatrix(((1, 2, 0), (0, 0, 0), (0, 1, 3))),  # a zero row
        FiberMatrix(((2,), (3,))),  # a single column
        FiberMatrix(((3, 5),)),  # NA misses 1, 2, 4, 7
    ]


def test_atomicity_matches_pairwise_public_checks():
    # is_atomic, is_ma_atomic and the scans share one pair loop; the
    # reference applies minkowski_decomposes or ma_decomposes to every
    # split pair the oracle finds, and each side runs on cold caches
    rng = corpus.make_rng("atomic-pair-loop")
    found = {"vertex": 0, "lattice": 0, "avoiding": 0}
    for A in _pair_loop_matrices(rng):
        bound = 3
        zero = (0,) * A.nrows
        universe = sorted({A.apply(u) for u in oracles.monomials_up_to(A.ncols, bound)} - {zero})
        pairs = {
            b: oracles.split_pairs_from_points(A.rows, b, oracles.box_fiber_points(A.rows, b))
            for b in universe
        }
        _clear_fiber_caches()
        vertex = [
            b for b in universe if not any(minkowski_decomposes(A, b, *p) for p in pairs[b])
        ]
        _clear_fiber_caches()
        assert [b for b in universe if is_atomic(A, b)] == vertex, A
        assert is_atomic(A, zero) is False
        _clear_fiber_caches()
        assert atomic_scan(A, bound, mode="vertex") == vertex, A
        found["vertex"] += len(vertex)
        # a variable in M takes points out of the fibers and changes the atoms
        j = rng.randrange(A.ncols)
        x_j = tuple(int(i == j) for i in range(A.ncols))
        M = minimalize(A.ncols, [x_j, corpus.random_exponent(rng, A.ncols, 2)])
        for ideal in (None, M):
            N = ideal or MonomialIdeal.zero(A.ncols)
            _clear_fiber_caches()
            lattice = [
                b
                for b in universe
                if ma_fiber(N, A, b) and not any(ma_decomposes(N, A, b, *p)[0] for p in pairs[b])
            ]
            _clear_fiber_caches()
            assert [b for b in universe if ma_fiber(N, A, b) and is_ma_atomic(N, A, b)] == lattice
            _clear_fiber_caches()
            assert atomic_scan(A, bound, mode="lattice", M=ideal) == lattice, (A, ideal)
            found["avoiding" if ideal else "lattice"] += len(lattice)
    assert all(found.values())


def test_split_checks_match_sum_set_oracle():
    # the split checks read only the points over b1; the oracle builds
    # every sum of an M-avoiding point over b1 and one over b2.  A variable
    # in M puts points over b2 in M, which no split may use
    matrices = _pair_loop_matrices(corpus.make_rng("atomic-pair-loop"))
    rng = corpus.make_rng("split-sum-set")
    found = {"decomposes": 0, "refuted": 0, "b2_meets_M": 0}
    for A in matrices:
        j = rng.randrange(A.ncols)
        x_j = tuple(int(i == j) for i in range(A.ncols))
        M = minimalize(A.ncols, [x_j, corpus.random_exponent(rng, A.ncols, 2)])
        zero = (0,) * A.nrows
        _clear_fiber_caches()
        for b in sorted({A.apply(u) for u in oracles.monomials_up_to(A.ncols, 3)} - {zero}):
            points = oracles.box_fiber_points(A.rows, b)
            vertices = oracles.hull_vertices_by_definition(points)
            for pair in oracles.split_pairs_from_points(A.rows, b, points):
                # the checks read one part only, so each order is its own case
                for b1, b2 in (pair, pair[::-1]):
                    unsplit = oracles.first_unsplit_by_sums(A.rows, vertices, b1, b2)
                    assert minkowski_decomposes(A, b, b1, b2) is (unsplit is None), (A, b, b1)
                    for N in (MonomialIdeal.zero(A.ncols), M):
                        avoiding = [u for u in points if not oracles.member(N.gens, u)]
                        witness = oracles.first_unsplit_by_sums(A.rows, avoiding, b1, b2, N.gens)
                        assert ma_decomposes(N, A, b, b1, b2) == (witness is None, witness), (A, N, b, b1)
                        found["decomposes" if witness is None else "refuted"] += 1
                    over_b2 = oracles.box_fiber_points(A.rows, b2)
                    found["b2_meets_M"] += any(oracles.member(M.gens, u) for u in over_b2)
    assert all(found.values()), found


def test_fiber_points_solved_last_exponent_against_box_oracle():
    rng = corpus.make_rng("fiber-last-column")
    for A in _last_column_matrices(rng, 40):
        b = A.apply(corpus.random_exponent(rng, A.ncols, 3))
        # one past b in every row is often outside NA
        for target in (b, tuple(x + 1 for x in b)):
            assert fiber_points(A, target) == sorted(oracles.box_fiber_points(A.rows, target))


def test_atomicity_deep_degree_without_recursion():
    # the fiber over 3000 is 2x + 3y = 500; (12) + (2988) splits both of
    # its vertices, (250, 0) and (1, 166), and every point
    A = FiberMatrix(((12, 18),))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        assert is_atomic(A, (3000,)) is False
        assert is_ma_atomic(ZERO2, A, (3000,)) is False
    finally:
        sys.setrecursionlimit(limit)
    assert fiber(A, (3000,)).vertices == ((1, 166), (250, 0))


def test_fiber_of_many_columns_without_recursion():
    # the enumeration goes one level per column: a 1 x 1200 matrix of ones
    # once ran out of stack over b = 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        wide = fiber_points(FiberMatrix(((1,) * 1200,)), (1,))
        pairs = fiber_points(FiberMatrix(((1,) * 100, tuple(range(100)))), (2, 100))
    finally:
        sys.setrecursionlimit(limit)
    assert wide == [tuple(int(j == i) for j in range(1200)) for i in reversed(range(1200))]
    expected = {
        tuple(int(k == i) + int(k == j) for k in range(100))
        for i in range(100)
        for j in range(i, 100)
        if i + j == 100
    }
    assert pairs == sorted(expected)


def test_atomic_walk_tries_each_sub_box_pair_once(monkeypatch):
    # record, for every _atomic call, the degrees whose points it reads and
    # whether each pair splits whole, then check the walk's contract
    real_atomic, real_unsplit = fibers._atomic, fibers._first_unsplit
    runs, current, reading = [], [], []

    def traced_atomic(plan, b, whole):
        current.append((b, [], []))
        verdict = real_atomic(plan, b, whole)
        _, asked, pairs = current.pop()
        runs.append((plan.rows, b, whole, verdict, asked, pairs))
        return verdict

    def traced_read(real):
        # a read _atomic makes itself, not one nested in another read
        def read(*args):
            if current and not reading:
                current[-1][1].append(args[-1])
            reading.append(args)
            points = real(*args)
            reading.pop()
            return points

        return read

    def traced_unsplit(points, f1):
        unsplit = real_unsplit(points, f1)
        if current:
            b, asked, pairs = current[-1]
            pairs.append((asked[-1], tuple(map(operator.sub, b, asked[-1])), unsplit is None))
        return unsplit

    monkeypatch.setattr(fibers, "_atomic", traced_atomic)
    monkeypatch.setattr(fibers, "_first_unsplit", traced_unsplit)
    for name in ("_fiber_points", "_ma_fiber"):
        monkeypatch.setattr(fibers, name, traced_read(getattr(fibers, name)))
    test_atomicity_matches_pairwise_public_checks()
    A = FiberMatrix(((2, 3, 5, 7),))
    for mode in ("vertex", "lattice"):
        _clear_fiber_caches()
        atomic_scan(A, 6, mode=mode)
    _clear_fiber_caches()
    test_atomicity_deep_degree_without_recursion()
    # a vertex, or a point of a whole fiber with the fewest sub-box points,
    # is no midpoint, so no two points of its sub-box share a degree; with
    # M the point (0, 1, 1, 0) over (2, 2) has two points over (1, 1), and
    # (2, 0, 0, 1) none, so (1, 1) + (1, 1) is met twice and fails
    A = FiberMatrix(((1, 1, 1, 0), (0, 1, 1, 2)))
    M = minimalize(4, [(0, 2, 0, 0), (0, 0, 2, 0)])
    _clear_fiber_caches()
    assert is_ma_atomic(M, A, (2, 2)) is True
    assert atomic_scan(A, 4, mode="lattice", M=M) == [(0, 2), (1, 0), (1, 1), (2, 2)]

    splits = {}
    atomic_with_pairs = late_splits = 0
    for rows, b, whole, verdict, asked, pairs in runs:
        # each pair reads the points over its b1 and nothing else
        assert asked == [b1 for b1, _, _ in pairs], (rows, b)
        if not any(b):
            assert pairs == [] and verdict is False
            continue
        b1s = [b1 for b1, _, _ in pairs]
        assert len(set(b1s)) == len(b1s), (rows, b)
        if (rows, b) not in splits:
            points = oracles.box_fiber_points(rows, b)
            splits[rows, b] = set(oracles.split_pairs_from_points(rows, b, points))
        assert {(b1, b2) for b1, b2, _ in pairs} <= splits[rows, b], (rows, b)
        assert all(any(b1) and any(b2) and b1 <= b2 for b1, b2, _ in pairs), (rows, b)
        if verdict:
            p = min(whole, key=lambda u: math.prod(e + 1 for e in u))
            sub_box = itertools.product(*(range(e + 1) for e in p))
            degrees = {tuple(sum(x * y for x, y in zip(r, u1)) for r in rows) for u1 in sub_box}
            expected = {
                (b1, b2)
                for b1 in degrees
                if any(b1) and b1 <= (b2 := tuple(x - y for x, y in zip(b, b1))) and any(b2)
            }
            assert {(b1, b2) for b1, b2, _ in pairs} == expected, (rows, b)
            assert not any(split for _, _, split in pairs)
            atomic_with_pairs += bool(pairs)
        else:
            assert [split for _, _, split in pairs] == [False] * (len(pairs) - 1) + [True], (rows, b)
            late_splits += len(pairs) > 1
    # the contract is checked on atoms with pairs and on splits found late
    assert atomic_with_pairs and late_splits


def test_plan_is_the_only_cache():
    # every memo lives in a matrix's plan, so one cache_clear resets them all
    assert [name for name, f in vars(fibers).items() if hasattr(f, "cache_clear")] == ["_plan"]
    A = FiberMatrix(((1, 1, 1), (0, 1, 2)))
    M = MonomialIdeal(3, ((0, 2, 0), (1, 0, 1)))

    def answers():
        return (
            fiber(A, (2, 2)),
            ma_fiber(M, A, (2, 2)),
            minkowski_decomposes(A, (2, 2), (1, 1), (1, 1)),
            vertex_ideal_standard(A, 3),
            vertex_ideal_gens_truncated(A, 3),
            atomic_scan(A, 3, mode="vertex"),
            atomic_scan(A, 3, mode="lattice"),
            atomic_scan(A, 3, mode="lattice", M=M),
        )

    warm = answers()
    plan = fibers._plan(A)
    assert plan.fibers and plan.vertices and plan.avoiding and plan.atomic
    fibers._plan.cache_clear()
    fresh = fibers._plan(A)
    assert fresh is not plan
    assert not (fresh.fibers or fresh.covers or fresh.vertices or fresh.avoiding or fresh.atomic)
    assert answers() == warm


def test_zero_ideal_reads_the_fiber_memo():
    A = FiberMatrix(((1, 1, 1), (0, 1, 2)))
    zero = MonomialIdeal.zero(3)
    _clear_fiber_caches()
    atomic_scan(A, 3, mode="lattice")
    plan = fibers._plan(A)
    assert plan.atomic and not plan.avoiding
    for b in plan.fibers:
        assert fibers._ma_fiber(plan, zero, b) is fibers._fiber_points(plan, b)
    assert not plan.avoiding


def test_verdict_memo_survives_scans():
    # a repeated scan decides nothing again, and the verdicts a scan leaves
    # behind are those of cold single queries
    rng = corpus.make_rng("verdict-memo")
    for A in _ones_matrices(rng, 3) + _no_ones_matrices(rng, 1):
        M = corpus.random_ideal(rng, A.ncols, 2, 2)
        universe = sorted(
            {A.apply(u) for u in oracles.monomials_up_to(A.ncols, 3)} - {(0,) * A.nrows}
        )
        cold = {}
        for b in universe:
            _clear_fiber_caches()
            cold[b] = is_atomic(A, b), bool(ma_fiber(M, A, b)) and is_ma_atomic(M, A, b)
        _clear_fiber_caches()
        for mode, ideal in (("vertex", None), ("lattice", M)):
            scan = atomic_scan(A, 3, mode=mode, M=ideal)
            # the memo holds one dict per ideal, keyed by its generators: copy
            # each, so a change shows
            verdicts = {key: dict(memo) for key, memo in fibers._plan(A).atomic.items()}
            assert atomic_scan(A, 3, mode=mode, M=ideal) == scan
            assert fibers._plan(A).atomic == verdicts
        assert set(universe) <= verdicts[M.gens].keys()
        for b in universe:
            assert (is_atomic(A, b), bool(ma_fiber(M, A, b)) and is_ma_atomic(M, A, b)) == cold[b]
        assert fibers._plan(A).atomic == verdicts


def _walk_and_step(A, b, gens):
    """The plain walk's verdict on b, and the step of the library that decides it.

    gens None is vertex mode, whose walk reads the hull vertices; else the
    walk reads the points outside the ideal gens generate.  The steps are
    the two certificates, the screen, a walk over the points (at most two
    in vertex mode, so their own vertices) and a walk over the hull.
    """
    points = oracles.box_fiber_points(A.rows, b)
    if gens is None:
        verdict = oracles.atomic_by_sub_box_walk(A.rows, b, hull_vertices(points))
    else:
        points = [u for u in points if not oracles.member(gens, u)]
        verdict = oracles.atomic_by_sub_box_walk(A.rows, b, points)
    if any(sum(u) == 1 for u in points):
        return verdict, "unit"
    if len(points) < 2 or any(map(min, *points)):
        return verdict, "divisor"
    if gens is None and not oracles.atomic_by_sub_box_walk(A.rows, b, points):
        return verdict, "screen"
    return verdict, ("hull" if gens is None and len(points) > 2 else "walk")


def _certificate_corpus():
    """The seeded (A, bound, M) cases the certificates and the scan loop are tested on.

    Over (12, 2) and (6, 12) of the last two matrices no pair splits every
    point, but one splits every vertex, which only the walk over the hull
    finds.
    """
    rng = corpus.make_rng("certificates")
    cases = [
        (corpus.random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5), 3), rng.randint(2, 4))
        for _ in range(40)
    ]
    cases += [
        (FiberMatrix(((3, 2, 2, 3, 3), (1, 0, 1, 0, 1))), 4),
        (FiberMatrix(((3, 3, 0, 1, 0), (3, 2, 2, 1, 3))), 4),
    ]
    return [(A, bound, corpus.random_ideal(rng, A.ncols, 2, 2)) for A, bound in cases]


def _scan_universe(A, bound):
    zero = (0,) * A.nrows
    return sorted({A.apply(u) for u in oracles.monomials_up_to(A.ncols, bound)} - {zero})


def test_certificates_and_screen_match_the_plain_walk():
    # the unit and common-divisor certificates and the lattice screen give
    # the plain walk's verdict in every mode, on cold caches and on caches
    # another mode left; each step decides some degree
    steps = set()
    for A, bound, M in _certificate_corpus():
        universe = _scan_universe(A, bound)
        modes = [("vertex", None, None), ("lattice", None, ()), ("lattice", M, M.gens)]
        expected = {}
        for mode, ideal, gens in modes:
            expected[mode, ideal] = []
            for b in universe:
                verdict, step = _walk_and_step(A, b, gens)
                steps.add((step, verdict))
                if verdict:
                    expected[mode, ideal].append(b)
        for order in (modes, modes[::-1]):
            for mode, ideal, _ in order:
                _clear_fiber_caches()
                assert atomic_scan(A, bound, mode=mode, M=ideal) == expected[mode, ideal], A
            _clear_fiber_caches()
            for mode, ideal, _ in order:
                assert atomic_scan(A, bound, mode=mode, M=ideal) == expected[mode, ideal], A
        _clear_fiber_caches()
        for b in universe:
            assert is_atomic(A, b) is (b in expected["vertex", None]), (A, b)
            if ma_fiber(M, A, b):
                assert is_ma_atomic(M, A, b) is (b in expected["lattice", M]), (A, M, b)
    assert steps == {
        ("unit", True),
        ("divisor", False),
        ("screen", False),
        ("walk", True),
        ("walk", False),
        ("hull", True),
        ("hull", False),
    }


def test_serial_scan_loop_matches_the_adapter_per_degree():
    # a scan decides every degree through one plan in one loop; the verdict
    # kernel on a fresh plan for each degree gives the same verdicts,
    # whichever mode scanned first
    for A, bound, M in _certificate_corpus():
        universe = _scan_universe(A, bound)
        zero = MonomialIdeal.zero(A.ncols)
        modes = [("vertex", None, None), ("lattice", None, zero), ("lattice", M, M)]
        fresh = {}
        for _, _, key in modes:
            for b in universe:
                _clear_fiber_caches()
                fresh[key, b] = fibers._verdict(fibers._plan(A), key, b)
        for order in (modes, modes[::-1]):
            _clear_fiber_caches()
            for mode, ideal, key in order:
                scan = atomic_scan(A, bound, mode=mode, M=ideal)
                assert scan == [b for b in universe if fresh[key, b]], (A, mode, ideal)
                verdicts = fibers._plan(A).atomic[None if key is None else key.gens]
                assert all(verdicts[b] is fresh[key, b] for b in universe), (A, mode)


def test_certified_vertex_scan_builds_no_hull(monkeypatch):
    # independent columns leave one point over each degree: a unit vector,
    # over a column, which is atomic, or a point some variable divides; no
    # degree is walked and none builds a hull
    A = FiberMatrix(((1, 0, 2), (0, 1, 1), (1, 1, 0)))
    walks = []
    real_atomic = fibers._atomic
    monkeypatch.setattr(fibers, "_atomic", lambda *args: walks.append(args) or real_atomic(*args))
    _clear_fiber_caches()
    assert atomic_scan(A, 4, mode="vertex") == sorted(A.column(i) for i in range(3))
    plan = fibers._plan(A)
    assert walks == [] and plan.vertices == {}
    verdicts = sum(map(len, plan.atomic.values()))
    assert verdicts == 2 * len({b for b in fibers._degree_groups(plan, 4) if any(b)})


def test_lattice_scan_reads_the_verdicts_a_vertex_scan_left(monkeypatch):
    # the vertex scan keeps each lattice verdict with M = 0 it settles or
    # screens with, so a later lattice scan walks no degree; a vertex atom
    # is a lattice atom, as a pair splitting every point splits every vertex
    A = FiberMatrix(((1, 1, 1, 1), (0, 1, 3, 4)))
    _clear_fiber_caches()
    lattice = atomic_scan(A, 5, mode="lattice")
    walks = []
    real_atomic = fibers._atomic
    monkeypatch.setattr(fibers, "_atomic", lambda *args: walks.append(args) or real_atomic(*args))
    _clear_fiber_caches()
    vertex = atomic_scan(A, 5, mode="vertex")
    assert walks and set(vertex) <= set(lattice)
    plan = fibers._plan(A)
    universe = {b for b in fibers._degree_groups(plan, 5) if any(b)}
    # the lattice verdicts with M = 0 are kept under the zero ideal's generators, ()
    assert set(plan.atomic[()]) == universe
    walks.clear()
    assert atomic_scan(A, 5, mode="lattice") == lattice
    assert walks == []


def _oracle_scans(A, bound, M):
    """The vertex, lattice and M-avoiding lattice scans by the oracle's plain walk.

    The vertex walk reads the hull vertices by definition, the lattice
    walks read the box-enumerated points, outside M for the last.
    """
    scans = {"vertex": [], "lattice": [], "avoiding": []}
    for b in _scan_universe(A, bound):
        points = oracles.box_fiber_points(A.rows, b)
        wholes = {
            "vertex": oracles.hull_vertices_by_definition_of_non_midpoints(points),
            "lattice": points,
            "avoiding": [u for u in points if not oracles.member(M.gens, u)],
        }
        for mode, whole in wholes.items():
            if oracles.atomic_by_sub_box_walk(A.rows, b, whole):
                scans[mode].append(b)
    return scans


def test_verdicts_match_the_oracle_walk_over_definition_vertices():
    # vertex verdicts, certified on the exposed vertices or walked over the
    # hull, and lattice verdicts with M = 0 and M != 0, whose split parts
    # come from one integer-key sumset, each against the oracle's walk, on
    # cold caches and after the other scans
    cases = _certificate_corpus()
    cases.append((FiberMatrix(((2, 3, 5, 7),)), 5, minimalize(4, [(0, 2, 0, 0), (1, 0, 0, 1)])))
    for A, bound, M in cases:
        expected = _oracle_scans(A, bound, M)
        scans = {
            "vertex": partial(atomic_scan, A, bound, mode="vertex"),
            "lattice": partial(atomic_scan, A, bound, mode="lattice"),
            "avoiding": partial(atomic_scan, A, bound, mode="lattice", M=M),
        }
        for mode, scan in scans.items():
            _clear_fiber_caches()
            assert scan() == expected[mode], (A, mode)
        for mode, scan in scans.items():
            assert scan() == expected[mode], (A, mode)


def test_split_part_sumset_matches_the_oracle_walk():
    # the walk on whole fibers and on hull vertices, single points included,
    # against the oracle's walk over tuple degrees; over (2, 2, 2) of the
    # first matrix the split part (0, 2, 1) has a digit equal to max(b), so a
    # radix of max(b) would carry and decode its key as (1, 0, 1)
    pinned = FiberMatrix(((0, 2), (2, 0), (1, 1)))
    assert oracles.atomic_by_sub_box_walk(pinned.rows, (2, 2, 2), [(1, 1)]) is False
    cases = [(pinned, (2, 2, 2))]
    rng = corpus.make_rng("split-keys")
    for _ in range(1200):
        A = corpus.random_matrix(rng, rng.randint(2, 3), rng.randint(2, 4), 3)
        cases.append((A, A.apply(corpus.random_exponent(rng, A.ncols, 2))))
    for A, b in cases:
        if not any(b):
            continue
        points = fiber_points(A, b)
        for whole in (points, hull_vertices(points)):
            verdict = fibers._atomic(fibers._plan(A), b, whole)
            assert verdict is oracles.atomic_by_sub_box_walk(A.rows, b, whole), (A, b)


def test_vertex_scans_walk_the_exposed_vertices_before_any_hull(monkeypatch):
    # a lattice atom no pair splits at its exposed vertices is a vertex atom
    # with no hull; the hull is built only when a pair splits them
    hulls = []
    real_hull = fibers._hull
    monkeypatch.setattr(fibers, "_hull", lambda pts: hulls.append(pts) or real_hull(pts))
    for rows, bound in ((((1, 1, 1, 1, 1), (0, 1, 3, 4, 6)), 7), (((2, 3, 5, 7),), 20)):
        A = FiberMatrix(rows)
        _clear_fiber_caches()
        scan = atomic_scan(A, bound, mode="vertex")
        assert hulls == [] and fibers._plan(A).vertices == {}, rows

    # the last scan's verdicts are the oracle walk's over each fiber's hull
    # vertices; its fibers, over up to 140, are too large for the box oracle
    # and are enumerated by the library (test_fiber_points_against_box_oracle)
    def points_over(rows, b):
        return fiber_points(FiberMatrix(rows), b)

    expected = [
        b
        for b in _scan_universe(A, 20)
        if oracles.atomic_by_sub_box_walk(A.rows, b, hull_vertices(fiber_points(A, b)), points_over)
    ]
    assert scan == expected
    # over (11,) of (3, 4, 2, 1, 6), 33 points, a pair splits the exposed
    # vertices, so the hull is built; no pair splits all 13 vertices
    A = FiberMatrix(((3, 4, 2, 1, 6),))
    hulls.clear()
    _clear_fiber_caches()
    assert (11,) in atomic_scan(A, 5, mode="vertex")
    plan = fibers._plan(A)
    points, vertices = plan.fibers[11,], plan.vertices[11,]
    exposed = sorted(fibers._exposed(points))
    assert len(points) == 33 and len(vertices) == 13 and set(exposed) < set(vertices)
    assert points in hulls
    assert not oracles.atomic_by_sub_box_walk(A.rows, (11,), exposed)
    assert oracles.atomic_by_sub_box_walk(A.rows, (11,), vertices)


def test_hull_vertices_examples():
    assert hull_vertices([(3, 0), (2, 1), (1, 2), (0, 3)]) == [(0, 3), (3, 0)]
    assert hull_vertices([(5, 7)]) == [(5, 7)]
    f1 = fiber_points(demo_matrix(), (1, 3, 5, 2))
    assert hull_vertices(f1) == sorted(f1)
    with pytest.raises(ValueError):
        hull_vertices([])


def test_hull_vertices_against_subset_oracle():
    rng = corpus.make_rng("hull-oracle")
    for _ in range(25):
        dim = rng.randint(1, 3)
        pts = {corpus.random_exponent(rng, dim, 4) for _ in range(rng.randint(1, 8))}
        assert hull_vertices(pts) == oracles.hull_vertices_by_definition(pts)


def test_in_hull_cases():
    assert in_hull((1, 1), [(0, 0), (2, 2)])
    assert not in_hull((5, 0), [(0, 0), (2, 2)])
    assert in_hull((1, 1), [(1, 1)])
    assert not in_hull((0,), [])
    with pytest.raises(ValueError):
        in_hull((1, 0), [(1,)])


def test_hull_soundness_random():
    rng = corpus.make_rng("hull-sound")
    for _ in range(20):
        A = corpus.random_matrix(rng, 2, 3, 2)
        u = corpus.random_exponent(rng, 3, 3)
        pts = fiber_points(A, A.apply(u))
        verts = hull_vertices(pts)
        for p in pts:
            inside = in_hull(p, verts)
            if p in verts:
                assert not in_hull(p, [q for q in pts if q != p]) or len(pts) == 1
            assert inside  # every fiber point is a combination of the vertices
        assert set(verts) <= set(pts)


def test_minkowski_examples():
    A = demo_matrix()
    b1, b2 = (1, 3, 5, 2), (5, 10, 10, 6)
    b = tuple(x + y for x, y in zip(b1, b2))
    assert minkowski_decomposes(A, b, b1, b2) is True
    assert minkowski_decomposes(SEGMENT, (2,), (1,), (1,)) is True
    assert minkowski_decomposes(SEGMENT, (2,), (0,), (2,)) is True


def test_minkowski_validation():
    with pytest.raises(ValueError):
        minkowski_decomposes(SEGMENT, (3,), (1,), (1,))
    G = FiberMatrix(((2, 3),))
    with pytest.raises(ValueError):
        minkowski_decomposes(G, (3,), (1,), (2,))  # fiber over (1) empty


def test_pair_checks_share_one_message_for_a_part_outside_na():
    G = FiberMatrix(((2, 3),))
    messages = set()
    for check in (partial(minkowski_decomposes, G), partial(ma_decomposes, ZERO2, G)):
        for b1, b2 in (((1,), (2,)), ((2,), (1,))):
            with pytest.raises(ValueError, match=r"empty fiber over \(1,\)") as exc:
                check((3,), b1, b2)
            messages.add(str(exc.value))
        # lengths and the sum are checked before membership in NA
        with pytest.raises(ValueError, match="mismatch"):
            check((4,), (1,), (2,))
        with pytest.raises(ValueError, match="length"):
            check((3,), (1, 0), (2,))
    assert messages == {"empty fiber over (1,)"}


def test_fiber_outside_na_names_the_degree():
    G = FiberMatrix(((2, 3),))
    with pytest.raises(ValueError, match=r"^empty fiber over \(1,\)$"):
        fiber(G, (1,))
    with pytest.raises(ValueError, match=r"^empty fiber over \(1, 1\)$"):
        fiber(FiberMatrix(((2, 0), (0, 2))), [1, 1])
    assert fiber_points(G, (1,)) == []
    assert fiber(G, (5,)).vertices == ((1, 1),)


def test_is_atomic_examples():
    A = demo_matrix()
    assert is_atomic(A, (6, 13, 15, 8)) is False
    assert is_atomic(SEGMENT, (1,)) is True
    assert is_atomic(SEGMENT, (2,)) is False
    assert is_atomic(SEGMENT, (0,)) is False
    # the zero degree's one point, 0, is no unit vector, whatever M avoids
    assert is_ma_atomic(ZERO2, SEGMENT, (0,)) is False
    assert is_ma_atomic(minimalize(2, [(1, 0)]), SEGMENT, (0,)) is False
    with pytest.raises(ValueError):
        is_atomic(FiberMatrix(((2, 3),)), (1,))


def test_ma_fiber_examples():
    A = demo_matrix()
    b1 = (1, 3, 5, 2)
    assert ma_fiber(ZERO2, SEGMENT, (2,)) == fiber_points(SEGMENT, (2,))
    assert ma_fiber(MonomialIdeal.unit(6), A, b1) == []
    M = vertex_ideal_gens_truncated(SEGMENT, 4)
    assert ma_fiber(M, SEGMENT, (3,)) == [(0, 3), (3, 0)]


def test_ma_decomposes_witness():
    A = demo_matrix()
    b1, b2 = (1, 3, 5, 2), (5, 10, 10, 6)
    b = tuple(x + y for x, y in zip(b1, b2))
    ok, witness = ma_decomposes(MonomialIdeal.zero(6), A, b, b1, b2)
    assert ok is False
    assert witness == (1, 1, 4, 2, 2, 2)
    assert ma_decomposes(ZERO2, SEGMENT, (2,), (1,), (1,)) == (True, None)


def test_ma_decomposes_failure_witnesses():
    G = FiberMatrix(((1, 2),))
    # fiber over (2) holds (0,1), which no sum from the two (1)-fibers reaches
    ok, witness = ma_decomposes(ZERO2, G, (2,), (1,), (1,))
    assert ok is False and witness == (0, 1)
    # singleton case: the surviving point has no split because the
    # avoidance ideal empties both sub-fibers
    A = FiberMatrix(((1, 1, 2),))
    M = minimalize(3, [(1, 0, 0), (0, 1, 0)])
    assert ma_fiber(M, A, (2,)) == [(0, 0, 1)]
    ok, witness = ma_decomposes(M, A, (2,), (1,), (1,))
    assert ok is False and witness == (0, 0, 1)


def test_ma_decomposes_validation():
    with pytest.raises(ValueError):
        ma_decomposes(ZERO2, SEGMENT, (2,), (1,), (2,))
    G = FiberMatrix(((2, 3),))
    with pytest.raises(ValueError):
        ma_decomposes(ZERO2, G, (3,), (1,), (2,))


def test_is_ma_atomic_examples():
    A = demo_matrix()
    assert is_ma_atomic(MonomialIdeal.zero(6), A, (6, 13, 15, 8)) is True
    assert is_ma_atomic(ZERO2, SEGMENT, (2,)) is False
    assert is_ma_atomic(ZERO2, SEGMENT, (1,)) is True
    assert is_ma_atomic(MonomialIdeal.zero(1), FiberMatrix(((2,), (3,))), (2, 3)) is True
    with pytest.raises(ValueError):
        is_ma_atomic(MonomialIdeal.unit(2), SEGMENT, (2,))


def test_atomic_scan_examples():
    assert atomic_scan(SEGMENT, 5, mode="vertex") == [(1,)]
    assert atomic_scan(IDENTITY2, 4, mode="vertex") == [(0, 1), (1, 0)]
    assert atomic_scan(SEGMENT, 5, mode="lattice") == [(1,)]
    demo = atomic_scan(demo_matrix(), 2, mode="vertex")
    assert (6, 13, 15, 8) not in demo
    with pytest.raises(ValueError):
        atomic_scan(SEGMENT, 0)
    with pytest.raises(ValueError):
        atomic_scan(SEGMENT, 3, mode="nonsense")
    with pytest.raises(ValueError):
        atomic_scan(SEGMENT, 3, mode="vertex", M=ZERO2)
    # every point would lie in a unit ideal; the ring mismatch must still raise
    with pytest.raises(ValueError, match="3 variables"):
        atomic_scan(SEGMENT, 3, mode="lattice", M=MonomialIdeal.unit(3))


def test_lattice_scan_skips_degrees_inside_the_avoidance_ideal():
    # over (1, 0) and (1, 1) every point lies in M = (x_0): nothing to decompose
    M = minimalize(2, [(1, 0)])
    assert atomic_scan(IDENTITY2, 3, mode="lattice", M=M) == [(0, 1)]
    with pytest.raises(ValueError, match="empty"):
        is_ma_atomic(M, IDENTITY2, (1, 0))


def test_import_leaves_the_process_pool_unloaded():
    # no scan runs a process pool, so nothing imports concurrent.futures
    src = os.path.dirname(os.path.dirname(fibers.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import staircase, staircase.cli; "
        "print('concurrent.futures' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "False"


def test_atomicity_ideal_examples():
    assert atomicity_ideal(SEGMENT, (3,)).gens == ((0, 3), (3, 0))
    assert atomicity_ideal(SEGMENT, (0,)).is_unit()
    f1 = fiber_points(demo_matrix(), (1, 3, 5, 2))
    assert atomicity_ideal(demo_matrix(), (1, 3, 5, 2)).gens == tuple(sorted(f1))
    with pytest.raises(ValueError):
        atomicity_ideal(FiberMatrix(((2, 3),)), (1,))


def test_decomposition_implies_ideal_containment():
    rng = corpus.make_rng("decompose-containment")
    hits = 0
    for _ in range(60):
        A = corpus.random_matrix(rng, 2, 3, 2)
        u1 = corpus.random_exponent(rng, 3, 2)
        u2 = corpus.random_exponent(rng, 3, 2)
        b1, b2 = A.apply(u1), A.apply(u2)
        b = tuple(x + y for x, y in zip(b1, b2))
        if minkowski_decomposes(A, b, b1, b2):
            hits += 1
            I_b = atomicity_ideal(A, b)
            assert atomicity_ideal(A, b1).contains(I_b)
            assert atomicity_ideal(A, b2).contains(I_b)
    assert hits >= 5


def test_lattice_split_implies_minkowski():
    rng = corpus.make_rng("strictness")
    zero3 = MonomialIdeal.zero(3)
    for _ in range(60):
        A = corpus.random_matrix(rng, 2, 3, 2)
        u1 = corpus.random_exponent(rng, 3, 2)
        u2 = corpus.random_exponent(rng, 3, 2)
        b1, b2 = A.apply(u1), A.apply(u2)
        b = tuple(x + y for x, y in zip(b1, b2))
        ok, _ = ma_decomposes(zero3, A, b, b1, b2)
        if ok:
            assert minkowski_decomposes(A, b, b1, b2)


def test_fiber_dataclass_consistency():
    f = fiber(demo_matrix(), (1, 3, 5, 2))
    assert set(f.vertices) <= set(f.points)
    for p in f.points:
        assert in_hull(p, f.vertices)


def test_vertex_ideal_examples():
    assert vertex_ideal_standard(SEGMENT, 3) == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0),
    ]
    assert vertex_ideal_gens_truncated(SEGMENT, 3).gens == ((1, 1),)
    assert vertex_ideal_gens_truncated(IDENTITY2, 4).is_zero()
    assert len(vertex_ideal_standard(IDENTITY2, 3)) == 10  # every monomial, |u| <= 3
    assert vertex_ideal_standard(SEGMENT, 0) == [(0, 0)]


def test_vertex_ideal_standard_downward_closed():
    rng = corpus.make_rng("vi-downward")
    for _ in range(10):
        A = corpus.random_matrix(rng, 2, 3, 2)
        std = set(vertex_ideal_standard(A, 4))
        for u in std:
            for i in range(3):
                if u[i] > 0:
                    below = tuple(e - 1 if k == i else e for k, e in enumerate(u))
                    assert below in std


def test_vertex_ideal_split():
    rng = corpus.make_rng("vi-split")
    random = [corpus.random_matrix(rng, 2, 3, 2) for _ in range(10)]
    # the ones-row cover path and the unit-weight enumeration, both exercised
    ones = [FiberMatrix(((1, 1, 1, 1), (0, 1, 2, 3)))] + _ones_matrices(rng, 3)
    no_ones = [FiberMatrix(((1, 2, 0), (0, 1, 1))), FiberMatrix(((2, 3, 5),))]
    assert all(fibers._plan(A).ones is not None for A in ones)
    assert all(fibers._plan(A).ones is None for A in no_ones)
    for A in random + ones + no_ones:
        _clear_fiber_caches()
        std = vertex_ideal_standard(A, 4)
        assert std == sorted(std)
        gens = vertex_ideal_gens_truncated(A, 4)
        oracle_vertices = {}
        for u in oracles.monomials_up_to(A.ncols, 4):
            assert (u in std) != gens.member(u)
            b = A.apply(u)
            if b not in oracle_vertices:
                points = oracles.box_fiber_points(A.rows, b)
                oracle_vertices[b] = set(oracles.hull_vertices_by_definition(points))
            assert (u in std) == (u in oracle_vertices[b])


def test_sagbi_examples():
    assert sagbi_generators(SEGMENT, (2, 3), 5) == [(1, (1,))]
    assert sagbi_generators(SEGMENT, (1, 1), 5) == [(1, (1,))]
    assert sagbi_generators(IDENTITY2, (5, 7), 3) == [(7, (0, 1)), (5, (1, 0))]
    with pytest.raises(ValueError):
        sagbi_generators(SEGMENT, (0, 1), 3)
    with pytest.raises(ValueError):
        sagbi_generators(SEGMENT, (2,), 3)
    # no silent truncation of a float, and no bool passing for 1
    with pytest.raises(ValueError, match="2.5"):
        sagbi_generators(SEGMENT, (2.5, 3), 3)
    with pytest.raises(ValueError, match="True"):
        sagbi_generators(SEGMENT, (2, True), 3)
    assert sagbi_generators(SEGMENT, [2, 3], 5) == [(1, (1,))]


def test_sagbi_gcd_definition():
    rng = corpus.make_rng("sagbi-gcd")
    for _ in range(10):
        A = corpus.random_matrix(rng, 1, 3, 3)
        coeffs = tuple(rng.choice([-3, -2, 2, 3, 5]) for _ in range(3))
        for k, b in sagbi_generators(A, coeffs, 4):
            products = [
                abs(math.prod(c**e for c, e in zip(coeffs, u)))
                for u in fiber_points(A, b)
            ]
            assert k == math.gcd(*products)


def test_sagbi_reconstruction_one_row():
    rng = corpus.make_rng("sagbi-reconstruct")
    for _ in range(8):
        A = corpus.random_matrix(rng, 1, 2, 3)
        coeffs = tuple(rng.choice([-3, 2, 3, 5]) for _ in range(2))
        basis = sagbi_generators(A, coeffs, 6)
        atoms = {b[0]: k for k, b in basis}

        def decompositions(total, choices):
            if total == 0:
                yield ()
                return
            for val in choices:
                if val <= total:
                    for rest in decompositions(total - val, [c for c in choices if c >= val]):
                        yield (val,) + rest

        for _ in range(5):
            u = corpus.random_exponent(rng, 2, 3)
            if not any(u):
                continue
            target = A.apply(u)[0]
            c_u = abs(math.prod(c**e for c, e in zip(coeffs, u)))
            witnesses = [
                parts
                for parts in decompositions(target, sorted(atoms))
                if c_u % math.prod(atoms[p] for p in parts) == 0
            ]
            assert witnesses, f"no factorization of degree {target} divides {c_u}"


def test_monoid_lift_examples():
    G = FiberMatrix(((2, 3),))
    assert monoid_lift(G, [(2,)], 3).gens == ((0, 2), (1, 0))
    assert monoid_lift(G, [], 3).is_zero()
    assert monoid_lift(IDENTITY2, [(1, 2)], 5).gens == ((1, 2),)
    assert monoid_lift(IDENTITY2, [(0, 0)], 2).is_unit()


def test_monoid_lift_membership_definition():
    # monoid_lift tests membership in NG by fiber search, or from the graded
    # cover when G has a row of ones
    rng = corpus.make_rng("lift-member")
    matrices = itertools.chain(
        (corpus.random_matrix(rng, 2, 3, 2) for _ in range(10)),
        _last_column_matrices(corpus.make_rng("lift-last-column"), 10),
        _ones_matrices(corpus.make_rng("lift-ones"), 10),
    )
    for G in matrices:
        degrees = [G.apply(corpus.random_exponent(rng, G.ncols, 2)) for _ in range(2)]
        lifted = monoid_lift(G, degrees, 4)
        for a in oracles.monomials_up_to(G.ncols, 4):
            value = G.apply(a)
            expected = any(
                all(v >= w for v, w in zip(value, bj))
                and oracles.box_fiber_points(G.rows, tuple(v - w for v, w in zip(value, bj)))
                for bj in degrees
            )
            assert lifted.member(a) == expected, (a, value)
