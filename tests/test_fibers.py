import collections
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
    hilbert_function,
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
    same_hilbert_up_to,
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


def _split_keys_held(A):
    """Whether a cover of A's plan has split keys, which a lattice scan with M = 0 reads alone."""
    return any(cover.splits is not None for cover in fibers._plan(A).covers.values())


def _points_free(cover):
    """Whether a cover holds no points: every key maps to None, or none does."""
    values = set(map(type, cover.keyed.values()))
    assert values in ({type(None)}, {tuple}), values
    return values == {type(None)}


def _multi_point(A, degrees):
    """The degrees over which the box oracle finds two or more points."""
    return {b for b in degrees if len(oracles.box_fiber_points(A.rows, b)) > 1}


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


def test_scans_and_reachable_degrees_share_the_cover(monkeypatch):
    # a scan covers the row of ones, reachable_degrees y = (1, ..., 1); both
    # covers persist, in either order, the fibers read off them fill the
    # one fiber memo, and a repeat call adds no memo entries and returns
    # the cover's own tuples.
    # After reachable_degrees, whose cover holds the scan's degrees first,
    # a lattice scan with M = 0 still reads the split keys of its own
    # cover: no degree whose key is split is walked, and the cover lookup
    # finds the cover with split keys
    walked = []
    real_atomic = fibers._atomic
    monkeypatch.setattr(fibers, "_atomic", lambda *args: walked.append(args[1]) or real_atomic(*args))
    rng = corpus.make_rng("scan-reachable")
    split_seen = 0
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
                    walked.clear()
                    assert atomic_scan(A, 3, mode="lattice") == scan
                    plan = fibers._plan(A)
                    assert {g: cover.top for g, cover in plan.covers.items()} == {r: 3, None: bound}
                    for grade, top in ((r, 3), (None, bound)):
                        graded = fibers._graded(plan, grade, top)
                        keyed = plan.covers[grade].keyed
                        assert list(graded.values()) == list(keyed.values()), (A, grade)
                        assert all(map(operator.is_, graded.values(), keyed.values())), (A, grade)
                        assert all(plan.fibers[b] is pts for b, pts in graded.items()), (A, grade)
                    cover = plan.covers[r]
                    if cover.splits is not None:
                        degrees = fibers._by_degree(cover)
                        split = {b for b, key in zip(degrees, cover.keyed) if key in cover.splits}
                        assert split.isdisjoint(walked), (A, bound, first_scan)
                        assert all(fibers._cover_of(plan, b) is cover for b in degrees), A
                        split_seen += bool(split) and not first_scan
                    rounds.append(dict(plan.fibers))
                # the second round reused both covers and every fiber
                first, second = rounds
                assert second == first
                assert all(second[b] is pts for b, pts in first.items())
    assert split_seen


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
        cover = fibers._bucketed(cols, (1,) * A.ncols, top)
        powers, keys, keyed = cover.powers, cover.keys, cover.keyed
        buckets = fibers._by_degree(cover)
        # unit-weight groups are no whole fibers, so they carry no split keys
        assert cover.splits is None and not cover.split and cover.top == top, A
        assert buckets.keys() == expected.keys(), A
        # the key view: place values of a radix above every entry of a
        # degree, and each key holds the very tuple its degree does
        radix = max(map(max, A.rows)) * top + 1
        assert cover.radix == radix, A
        assert powers == [radix**r for r in reversed(range(A.nrows))], A
        assert all(max(b) < radix for b in buckets), A
        assert keys == [sum(map(operator.mul, powers, c)) for c in cols], A
        assert list(keyed) == [sum(map(operator.mul, powers, b)) for b in buckets], A
        assert all(map(operator.is_, keyed.values(), buckets.values())), A
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
        # covers no scan asked for carry no split keys
        assert all(c.splits is None and not c.split for c in plan.covers.values()), A
    # a scan's covers carry split keys: a covered degree's key is split iff
    # one nontrivial pair leaves no point over it unsplit, by the oracle's
    # sums.  A cover of more than _MEET_BITS key bits, or of more than
    # _MEET_BITS_PER_POINT a point, carries none; small entries put covers
    # on each side of both bounds
    carried, above, sparse = 0, 0, 0
    for A in _ones_matrices(rng, 16):
        for grade, top in ((fibers._plan(A).ones, rng.randint(2, 3)), (None, A.nrows + rng.randint(3, 6))):
            _clear_fiber_caches()
            plan = fibers._plan(A)
            fibers._covered(plan, grade, 1, split=True)
            # a grown cover keeps the split keys a fresh one has
            fibers._graded(plan, grade, top)
            weights = A.rows[grade] if grade is not None else tuple(map(sum, plan.cols))
            fresh = fibers._bucketed(plan.cols, weights, top, split=True).splits
            cover = plan.covers[grade]
            powers, keyed, split = cover.powers, cover.keyed, cover.splits
            assert split == fresh and cover.split, (A, grade, top)
            # C(n + top, n) u have |u| <= top: the cover's points, or more
            bits = (max(map(max, A.rows)) * top + 1) ** A.nrows
            count = math.comb(A.ncols + top, top)
            if bits > fibers._MEET_BITS or bits > fibers._MEET_BITS_PER_POINT * count:
                assert split is None, (A, grade, top)
                above += bits > fibers._MEET_BITS
                sparse += bits <= fibers._MEET_BITS
                continue
            assert split is not None and split <= keyed.keys(), (A, grade, top)
            for b, points in fibers._by_degree(cover).items():
                pairs = oracles.split_pairs_from_points(A.rows, b, points)
                unsplit = (oracles.first_unsplit_by_sums(A.rows, points, b1, b2) for b1, b2 in pairs)
                expected = any(p is None for p in unsplit)
                assert (sum(map(operator.mul, powers, b)) in split) == expected, (A, grade, b)
            carried += 1
    assert carried and above and sparse


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


def _last_two_columns_matrices(rng, count):
    """Seeded matrices whose last two columns are independent, proportional
    or equal, some with a zero row, and the kind of each."""
    out = []
    for k in range(count):
        kind = ("independent", "proportional", "equal")[k % 3]
        # one row leaves no 2 x 2 minor: its last two columns are proportional
        d, n = rng.randint(1 if kind != "independent" else 2, 3), rng.randint(2, 4)
        rows = [list(r) for r in corpus.random_matrix(rng, d, n, 3).rows]
        if kind != "independent":
            q = [rng.randint(0, 2) for _ in range(d)]
            q[rng.randrange(d)] = rng.randint(1, 2)
            alpha, beta = (1, 1) if kind == "equal" else (rng.randint(1, 4), rng.randint(1, 4))
            for r in range(d):
                rows[r][-2:] = [alpha * q[r], beta * q[r]]
        if k % 4 == 3:
            rows.insert(rng.randint(0, d), [0] * n)
        A = FiberMatrix(tuple(map(tuple, rows)))
        c, l = A.column(n - 2), A.column(n - 1)
        minors = {c[s] * l[t] - c[t] * l[s] for s in range(A.nrows) for t in range(A.nrows)}
        out.append((A, "equal" if c == l else "independent" if minors != {0} else "proportional"))
    return out


def test_fiber_search_solves_the_last_two_columns_against_box_oracle():
    # the last two columns are solved together: by Cramer's rule when they
    # are independent, else over one residue class; degrees one step off
    # are often outside NA, and a degree nonzero on a zero row always is
    rng = corpus.make_rng("two-column-solve")
    kinds, empty = collections.Counter(), 0
    for A, kind in _last_two_columns_matrices(rng, 90):
        kinds[kind] += 1
        plan = fibers._plan(A)
        for _ in range(3):
            b = A.apply(corpus.random_exponent(rng, A.ncols, 3))
            for target in (b, tuple(x + 1 for x in b), (b[0] + 1,) + b[1:]):
                expected = oracles.box_fiber_points(A.rows, target)
                assert fibers._enumerate_fiber(plan, target) == expected, (A, target)
                empty += not expected
    assert all(kinds[kind] >= 20 for kind in ("independent", "proportional", "equal")), kinds
    assert empty


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


def _sub_box_degrees(rows, p):
    """The degrees A u1 for 0 <= u1 <= p."""
    sub_box = itertools.product(*(range(e + 1) for e in p))
    return {tuple(sum(x * y for x, y in zip(r, u1)) for r in rows) for u1 in sub_box}


def test_atomic_walk_tries_each_sub_box_pair_once(monkeypatch):
    # record, for every _atomic call, the degrees whose points it reads and
    # whether each pair splits whole, then check the walk's contract
    real_atomic, real_unsplit = fibers._atomic, fibers._first_unsplit
    runs, current, reading = [], [], []

    def traced_atomic(plan, b, whole, cover):
        current.append((b, [], [], plan.rows))
        verdict = real_atomic(plan, b, whole, cover)
        _, asked, pairs, _ = current.pop()
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
            b, asked, pairs, rows = current[-1]
            # the pair's b1 is A u1 for any u1 over it.  A walk over a
            # covered degree reads the points over b1 off the cover's key
            # view, which no patch sees: that read is the one made for the
            # pair when no traced read was
            b1 = tuple(sum(map(operator.mul, row, f1[0])) for row in rows)
            if len(asked) == len(pairs):
                asked.append(b1)
            pairs.append((b1, tuple(map(operator.sub, b, b1)), unsplit is None))
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
    # pinned: over (16,) of (4, 5, 6) the points are (0, 2, 1), (1, 0, 2)
    # and (4, 0, 0), the last with the fewest sub-box points, so the
    # pruning point is the lex-first; its sub-box holds neither part 4 nor
    # 8 of the lex-last, so whichever is tried first, the other is pruned
    A = FiberMatrix(((4, 5, 6),))
    _clear_fiber_caches()
    whole, plan = fiber_points(A, (16,)), fibers._plan(A)
    assert fibers._atomic(plan, (16,), whole, fibers._cover_of(plan, (16,))) is True
    assert oracles.atomic_by_sub_box_walk(A.rows, (16,), whole) is True
    assert len(runs[-1][-1]) == 1 and runs[-1][-1][0][0] in {(4,), (8,)}
    # a lattice scan on a row of ones settles each degree by its cover's
    # split keys, with no walk; with no row of ones the groups are no
    # whole fibers and carry none, so these walks run, and some split late
    _clear_fiber_caches()
    atomic_scan(FiberMatrix(((1, 0, 2, 1), (0, 1, 1, 2))), 4, mode="lattice")

    splits = {}
    atomic_with_pairs = late_splits = pruned = 0
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
        # the pairs come from the sub-box of p; after the first, from that
        # of q too: p and q are the lex-first and lex-last points of whole,
        # p the one with fewer sub-box points, the lex-first on a tie
        p, q = whole[0], whole[-1]
        if math.prod(e + 1 for e in q) < math.prod(e + 1 for e in p):
            p, q = q, p
        in_q = _sub_box_degrees(rows, q)
        candidates = {
            (b1, b2)
            for b1 in _sub_box_degrees(rows, p)
            if any(b1) and b1 <= (b2 := tuple(x - y for x, y in zip(b, b1))) and any(b2)
        }
        tried = {(b1, b2) for b1, b2, _ in pairs}
        assert tried <= candidates, (rows, b)
        assert all(b1 in in_q for b1, _, _ in pairs[1:]), (rows, b)
        if verdict:
            # every untried pair leaves q unsplit, and every pair of both
            # sub-boxes is tried
            assert all(b1 not in in_q for b1, _ in candidates - tried), (rows, b)
            assert {(b1, b2) for b1, b2 in candidates if b1 in in_q} <= tried, (rows, b)
            assert not any(split for _, _, split in pairs)
            atomic_with_pairs += bool(pairs)
            pruned += tried != candidates
        else:
            assert [split for _, _, split in pairs] == [False] * (len(pairs) - 1) + [True], (rows, b)
            late_splits += len(pairs) > 1
    # the contract is checked on atoms with pairs, on atoms whose walk
    # pruned a pair and on splits found late
    assert atomic_with_pairs and pruned and late_splits


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
    # a lattice scan with M = 0 reads its cover's split keys alone, so it
    # leaves no fiber, verdict or M-avoiding memo; the zero ideal's fibers
    # read then are the fiber memo's own tuples, and fill no M-avoiding memo
    A = FiberMatrix(((1, 1, 1), (0, 1, 2)))
    zero = MonomialIdeal.zero(3)
    _clear_fiber_caches()
    scan = atomic_scan(A, 3, mode="lattice")
    plan = fibers._plan(A)
    assert _points_free(plan.covers[plan.ones])
    assert not (plan.fibers or plan.atomic or plan.avoiding)
    groups = fibers._degree_groups(plan, 3)
    assert groups.keys() <= plan.fibers.keys()
    for b in groups:
        assert fibers._ma_fiber(plan, zero, b) is fibers._fiber_points(plan, b)
        assert is_ma_atomic(zero, A, b) is (b in scan)
    assert plan.atomic[()] and not plan.avoiding


def test_verdict_memo_survives_scans():
    # a repeated scan decides nothing again, and the verdicts a scan leaves
    # behind are those of cold single queries.  A scan on a row of ones
    # settles a degree with one point on its cover and keeps no verdict for
    # it; every degree with more points keeps one
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
        kept = set(universe) if fibers._plan(A).ones is None else _multi_point(A, universe)
        assert kept <= verdicts.get(M.gens, {}).keys()
        for b in universe:
            assert (is_atomic(A, b), bool(ma_fiber(M, A, b)) and is_ma_atomic(M, A, b)) == cold[b]
        # the single queries change no kept verdict, and add only those the
        # scans did not keep
        after = fibers._plan(A).atomic
        assert after.keys() >= verdicts.keys()
        for key, memo in after.items():
            assert memo.items() >= verdicts.get(key, {}).items()
            assert memo.keys() - verdicts.get(key, {}).keys() <= set(universe) - kept, (A, key)


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
    # whichever mode scanned first.  A scan on a row of ones keeps the
    # verdicts of the degrees with two or more points, any other every one
    for A, bound, M in _certificate_corpus():
        universe = _scan_universe(A, bound)
        kept = set(universe) if fibers._plan(A).ones is None else _multi_point(A, universe)
        zero = MonomialIdeal.zero(A.ncols)
        modes = [("vertex", None, None), ("lattice", None, zero), ("lattice", M, M)]
        fresh = {}
        for _, _, key in modes:
            for b in universe:
                _clear_fiber_caches()
                # a fresh plan holds no cover
                fresh[key, b] = fibers._verdict(fibers._plan(A), key, b, None)
        for order in (modes, modes[::-1]):
            _clear_fiber_caches()
            for mode, ideal, key in order:
                scan = atomic_scan(A, bound, mode=mode, M=ideal)
                assert scan == [b for b in universe if fresh[key, b]], (A, mode, ideal)
                verdicts = fibers._plan(A).atomic[None if key is None else key.gens]
                if not (key is zero and _split_keys_held(A)):
                    assert verdicts.keys() >= kept, (A, mode)
                assert all(verdicts[b] is fresh[key, b] for b in universe if b in verdicts), (A, mode)


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
    # the vertex scan keeps each lattice verdict with M = 0 it screens
    # with, one per degree with two or more points (one point settles on the
    # cover, with no verdict kept), so a later lattice scan walks no degree;
    # a vertex atom is a lattice atom, as a pair splitting every point
    # splits every vertex
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
    assert set(plan.atomic[()]) == _multi_point(A, universe)
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


def test_verdicts_match_the_oracle_walk_over_definition_vertices(monkeypatch):
    # vertex verdicts, certified on the exposed vertices or walked over the
    # hull, and lattice verdicts with M = 0 and M != 0, whose split parts
    # come from one integer-key sumset, each against the oracle's walk, on
    # cold caches and after the other scans.  On a row of ones a walk reads
    # its split parts off the keys of the cover it is given, whose values
    # are the cover's own tuples: every mode must walk keyed at least once
    rng = corpus.make_rng("keyed-walk")
    cases = _certificate_corpus()
    cases.append((FiberMatrix(((2, 3, 5, 7),)), 5, minimalize(4, [(0, 2, 0, 0), (1, 0, 0, 1)])))
    ones = [(A, rng.randint(2, 6 if A.ncols < 5 else 4)) for A in _ones_matrices(rng, 16)]
    ones.append((FiberMatrix(((1, 1, 1, 1), (0, 1, 3, 4))), 6))
    cases += [(A, bound, corpus.random_ideal(rng, A.ncols, 2, 2)) for A, bound in ones]
    given, walked = [], collections.Counter()
    real_atomic = fibers._atomic
    monkeypatch.setattr(fibers, "_atomic", lambda *args: given.append(args[-1]) or real_atomic(*args))
    for A, bound, M in cases:
        expected = _oracle_scans(A, bound, M)
        scans = {
            "vertex": partial(atomic_scan, A, bound, mode="vertex"),
            "lattice": partial(atomic_scan, A, bound, mode="lattice"),
            "avoiding": partial(atomic_scan, A, bound, mode="lattice", M=M),
        }
        for mode, scan in scans.items():
            _clear_fiber_caches()
            given.clear()
            assert scan() == expected[mode], (A, mode)
            walked[mode] += any(cover is not None for cover in given)
            plan = fibers._plan(A)
            for grade, cover in plan.covers.items():
                assert isinstance(cover, fibers._Cover), (A, mode)
                if _points_free(cover):
                    # only a lattice scan with M = 0 leaves a points-free cover
                    assert mode == "lattice" and cover.splits is not None, (A, mode)
                    continue
                # the cover is the one store of its points: a fiber the scan
                # read off it is kept in the memo as the cover's own tuple
                for b, points in plan.fibers.items():
                    key = sum(map(operator.mul, cover.powers, b))
                    if fibers._weight(b, grade) <= cover.top and points:
                        assert points is cover.keyed[key], (A, mode, b)
        for mode, scan in scans.items():
            assert scan() == expected[mode], (A, mode)
    assert len(walked) == 3 and all(walked.values()), walked


def _one_row_cover_by_box(A, bound) -> bool:
    """Whether a scan of the one-row A at bound covers y = (1,), counted over the box.

    The cover reaches top = max(row) * bound.  It is taken when top is at
    most C(n + bound, n) and the u with row.u <= top are at most twice the
    points over the degrees A u with |u| <= bound, the zero degree included.
    """
    (row,) = A.rows
    top = max(row) * bound
    if top > math.comb(A.ncols + bound, bound):
        return False
    box = itertools.product(*(range(top // e + 1) for e in row))
    values = (sum(map(operator.mul, row, u)) for u in box)
    sizes = collections.Counter(v for v in values if v <= top)
    degrees = {A.apply(u)[0] for u in oracles.monomials_up_to(A.ncols, bound)}
    return sum(sizes.values()) <= 2 * sum(sizes[b] for b in degrees)


def test_one_row_scans_read_one_cover_and_match_the_oracle_walk(monkeypatch):
    # a one-row scan whose cover costs at most twice the fibers it reads
    # covers y = (1,) up to max(row) * bound before its verdict loop, so
    # every fiber it reads, over its degrees and their split parts, comes
    # from that one enumeration and none is searched for
    searches = []
    real_search = fibers._enumerate_fiber
    monkeypatch.setattr(
        fibers, "_enumerate_fiber", lambda plan, b: searches.append(b) or real_search(plan, b)
    )
    rng = corpus.make_rng("one-row-cover")
    cases = [(FiberMatrix(((2, 3, 5, 7),)), 4), (FiberMatrix(((1, 1, 1),)), 8)]
    # covers of 224 and 635 points over fibers of 110 and 280: no cover
    cases += [(FiberMatrix(((1, 1, 5),)), 3), (FiberMatrix(((1, 1, 6),)), 4)]
    for _ in range(8):
        n = rng.randint(2, 4)
        cases.append((corpus.random_matrix(rng, 1, n, 5), rng.randint(1, 5 if n == 4 else 8)))
    covered = 0
    for A, bound in cases:
        M = corpus.random_ideal(rng, A.ncols, 2, 2)
        expected = _oracle_scans(A, bound, M)
        scans = {
            "vertex": partial(atomic_scan, A, bound, mode="vertex"),
            "lattice": partial(atomic_scan, A, bound, mode="lattice"),
            "avoiding": partial(atomic_scan, A, bound, mode="lattice", M=M),
        }
        cover = _one_row_cover_by_box(A, bound)
        covered += cover
        for mode, scan in scans.items():
            _clear_fiber_caches()
            searches.clear()
            assert scan() == expected[mode], (A, bound, mode)
            plan = fibers._plan(A)
            # a row of ones is its own cover, up to bound
            covers = {None: max(A.rows[0]) * bound} if cover else {}
            if plan.ones is not None:
                covers = {0: bound}
            assert {g: cover.top for g, cover in plan.covers.items()} == covers, (A, bound)
            if covers:
                assert searches == [], (A, bound, mode)
    assert 0 < covered < len(cases)


def test_one_row_scans_on_spread_rows_keep_no_cover(monkeypatch):
    # on (1, 1, 120) at bound 10 the y = (1,) cover up to 1200 holds about
    # 2.8 M points, some 32 times the 86,801 over the scan's 66 degrees
    # (and 381 MB peak RSS against 24 MB), so the scan takes none; its top
    # also exceeds the 286 points of its groups, so it is not even counted.
    # The verdicts are stubbed, as the cover is chosen before the verdict
    # loop; the scan settles a degree with one point itself, so exactly the
    # columns with one point over them come back
    monkeypatch.setattr(fibers, "_verdict", lambda plan, M, b, cover: False)
    cases = ((FiberMatrix(((1, 1, 120),)), 10, []), (FiberMatrix(((1, 100),)), 20, [(1,)]))
    for A, bound, singles in cases:
        assert not _one_row_cover_by_box(A, bound)
        columns = {A.column(i) for i in range(A.ncols)}
        assert singles == sorted(c for c in columns if len(oracles.box_fiber_points(A.rows, c)) == 1)
        for mode in ("vertex", "lattice"):
            _clear_fiber_caches()
            assert atomic_scan(A, bound, mode=mode) == singles, (A, mode)
            assert fibers._plan(A).covers == {}, (A, mode)


def test_multi_row_scans_without_a_row_of_ones_keep_no_cover():
    # the y = (1, ..., 1) cover a one-row scan reads would hold far more
    # points than a scan on two rows reads: for ((1, 0, 60), (0, 1, 60)) at
    # bound 10, every u with u_1 + u_2 + 120 u_3 <= 1200
    rng = corpus.make_rng("no-cover")
    matrices = [FiberMatrix(((1, 0, 60), (0, 1, 60)))]
    matrices += [A for A in _no_ones_matrices(rng, 4) if A.nrows > 1]
    for A in matrices:
        M = corpus.random_ideal(rng, A.ncols, 2, 2)
        for mode, ideal in (("vertex", None), ("lattice", None), ("lattice", M)):
            _clear_fiber_caches()
            atomic_scan(A, 3, mode=mode, M=ideal)
            assert None not in fibers._plan(A).covers, (A, mode)


def test_one_row_degree_table_matches_the_groups():
    # a scan with no row of ones reads its degrees off the least-count
    # levels, not off the groups of the u with |u| <= bound, on one row or
    # several; rows with spread entries put max(row) * bound above
    # C(n + bound, n), where no cover is counted
    rng = corpus.make_rng("one-row-degrees")
    rows = [(1, 1, 120), (1, 100), (2, 3, 5, 7), (3, 1, 4), (1, 1, 5), (1, 1, 1), (6,)]
    rows += [tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4))) for _ in range(6)]
    rows += [tuple(rng.randint(1, 60) for _ in range(rng.randint(2, 3))) for _ in range(6)]
    matrices = [FiberMatrix((row,)) for row in rows]
    matrices += [A for A in _no_ones_matrices(rng, 6) if A.nrows > 1]
    guard = collections.Counter()
    for A in matrices:
        for bound in range(1, 9 if A.ncols < 6 else 6):
            _clear_fiber_caches()
            plan = fibers._plan(A)
            expected = list(fibers._degree_groups(plan, bound))
            assert fibers._scan_degrees(plan, bound) == expected, (A, bound)
            # the plan keeps them for the next scan at that bound
            assert fibers._scan_degrees(plan, bound) is plan.scans[bound], (A, bound)
            if A.nrows == 1:
                guard[max(A.rows[0]) * bound <= math.comb(A.ncols + bound, bound)] += 1
            else:
                guard["rows"] += 1
    assert guard[True] and guard[False] and guard["rows"]


def _verdicts_on_fresh_plans(A, universe, M):
    """_verdict on each degree, vertex and lattice with M = 0 and with M, each on a fresh plan."""
    fresh = {None: {}, (): {}, M.gens: {}}
    for key, ideal in ((None, None), ((), MonomialIdeal.zero(A.ncols)), (M.gens, M)):
        for b in universe:
            _clear_fiber_caches()
            # a fresh plan holds no cover
            fresh[key][b] = fibers._verdict(fibers._plan(A), ideal, b, None)
    return fresh


def test_scans_settle_one_point_degrees_on_the_cover(monkeypatch):
    # every group a scan reads is a whole fiber, off the cover of a row of
    # ones or read per degree on any other matrix: a scan settles a
    # nonzero degree with one point by whether it is a column and, with
    # M != 0, whether the point avoids M, and hands only degrees with two
    # or more points to _verdict; its memo is that of _verdict run on each
    # degree, in either mode, with or without M, in any order, save that a
    # scan on a row of ones keeps no verdict for a degree with one point
    rng = corpus.make_rng("one-point-degrees")
    cases = [(A, rng.randint(2, 4)) for A in _ones_matrices(rng, 8)]
    # the certificate corpus with a row of ones put on top
    cases += [(FiberMatrix(((1,) * A.ncols,) + A.rows), b) for A, b, _ in _certificate_corpus()]
    # and matrices with no row of ones, on one row or several
    cases += [(A, 2 if A.ncols > 4 else 3) for A in _no_ones_matrices(rng, 6)]
    real_verdict, calls, depth = fibers._verdict, [], []

    def traced_verdict(plan, M, b, cover):
        if not depth:
            calls.append(b)
        depth.append(b)
        try:
            return real_verdict(plan, M, b, cover)
        finally:
            depth.pop()

    monkeypatch.setattr(fibers, "_verdict", traced_verdict)
    settled = in_M = without_ones = 0
    for A, bound in cases:
        universe = _scan_universe(A, bound)
        M = corpus.random_ideal(rng, A.ncols, 2, 2)
        fresh = _verdicts_on_fresh_plans(A, universe, M)
        sizes = {b: len(oracles.box_fiber_points(A.rows, b)) for b in universe}
        settled += min(sizes.values()) == 1
        without_ones += min(sizes.values()) == 1 and fibers._plan(A).ones is None
        # a column whose one point, its unit vector, lies in M is settled not atomic
        units = [tuple(int(j == i) for j in range(A.ncols)) for i in range(A.ncols)]
        in_M += any(sizes.get(A.apply(e)) == 1 and oracles.member(M.gens, e) for e in units)
        modes = [("vertex", None), ("lattice", None), ("lattice", M)]
        ones = fibers._plan(A).ones
        for order in (modes, modes[::-1]):
            _clear_fiber_caches()
            for k, (mode, ideal) in enumerate(order):
                calls.clear()
                scan = atomic_scan(A, bound, mode=mode, M=ideal)
                key = None if mode == "vertex" else () if ideal is None else M.gens
                assert scan == [b for b in universe if fresh[key][b]], (A, mode)
                assert all(sizes[b] > 1 for b in calls), (A, mode)
                if k == 0:
                    assert sorted(calls) == [b for b in universe if sizes[b] > 1], (A, mode)
                memo = fibers._plan(A).atomic
                # a scan on a row of ones keeps no verdict for a degree with
                # one point, which it settles on the cover
                kept = {k: {b: v for b, v in fresh[k].items() if ones is None or sizes[b] > 1} for k in fresh}
                if key == () and _split_keys_held(A):
                    # the scan read split keys alone and kept no verdict
                    assert memo[key].items() <= fresh[key].items(), (A, mode)
                else:
                    assert memo[key] == kept[key], (A, mode)
                # a vertex scan fills the lattice memo with M = 0 as well
                if mode == "vertex":
                    assert memo[()] == kept[()], A
    assert settled and in_M and without_ones


def test_scans_after_a_lift_build_their_cover_again_with_split_keys():
    # monoid_lift covers the row of ones with no sub-box bitsets; a scan
    # that finds that cover at its bound or above builds it once more with
    # them, at the higher of the two tops, so its split keys settle the
    # degrees they hold; the verdicts are those of a scan on a fresh plan,
    # and a second scan builds nothing
    A = FiberMatrix(((1, 1, 1, 1, 1), (0, 1, 3, 4, 6)))
    M = minimalize(5, [(0, 2, 0, 0, 0), (1, 0, 0, 1, 0)])
    for bound, lift in ((7, 7), (6, 7), (7, 5)):
        for mode, ideal in (("vertex", None), ("lattice", None), ("lattice", M)):
            _clear_fiber_caches()
            fresh = atomic_scan(A, bound, mode=mode, M=ideal)
            fresh_memo = {key: dict(memo) for key, memo in fibers._plan(A).atomic.items()}
            _clear_fiber_caches()
            monoid_lift(A, [(2, 5)], lift)
            plan = fibers._plan(A)
            assert plan.covers[0].splits is None and not plan.covers[0].split
            assert atomic_scan(A, bound, mode=mode, M=ideal) == fresh, (bound, lift, mode)
            cover = plan.covers[0]
            assert cover.split and cover.splits and cover.top == max(bound, lift), (bound, lift)
            assert plan.atomic == fresh_memo, (bound, lift, mode)
            assert atomic_scan(A, bound, mode=mode, M=ideal) == fresh
            assert plan.covers[0] is cover
    # a cover held at a top where the bitsets would not pay, here 85^2 key
    # bits at top 14, is read as it is, with no split keys
    _clear_fiber_caches()
    fresh = atomic_scan(A, 3, mode="lattice")
    _clear_fiber_caches()
    vertex_ideal_standard(A, 14)
    plan = fibers._plan(A)
    held = plan.covers[0]
    assert (held.top, held.splits) == (14, None) and 85**2 > fibers._MEET_BITS
    assert atomic_scan(A, 3, mode="lattice") == fresh
    assert plan.covers[0] is held


def _lattice_atoms_by_points(A, bound):
    """The lattice atoms with M = 0 up to bound, by the verdict loop over points.

    Each degree's points come from the fiber search and its verdict from
    the certificates and the walk over them, on a plan with no cover, so no
    split key decides any degree.
    """
    _clear_fiber_caches()
    plan, zero = fibers._plan(A), MonomialIdeal.zero(A.ncols)
    atoms = [b for b in _scan_universe(A, bound) if fibers._verdict(plan, zero, b, None)]
    assert not plan.covers
    _clear_fiber_caches()
    return atoms


def _points_free_cases(rng):
    """Seeded (A, grade, bounds): matrices with a row of ones on 2 to 4 rows, and one row."""
    cases = [(FiberMatrix(((1, 1, 1, 1), (0, 1, 3, 4))), 0, (2, 5, 11))]
    cases += [(FiberMatrix(((2, 3, 5, 7),)), None, (2, 4, 6)), (FiberMatrix(((1, 2),)), None, (3, 9))]
    for d in (2, 3, 4):
        for _ in range(4):
            n = rng.randint(2, 4)
            rows = list(corpus.random_matrix(rng, d - 1, n, rng.choice((2, 9) if d == 2 else (1, 2))).rows)
            rows.insert(rng.randint(0, d - 1), (1,) * n)
            A = FiberMatrix(tuple(rows))
            cases.append((A, _plan_ones(A), (1, 3, 6) if d == 2 else (1, 2, 4)))
    for _ in range(5):
        A = corpus.random_matrix(rng, 1, rng.randint(2, 4), 5)
        if fibers._plan(A).ones is None:
            cases.append((A, None, (2, 4, 7)))
    return cases


def test_points_free_lattice_scans_match_the_point_reading_loop(monkeypatch):
    # a lattice scan with M = 0 whose cover carries split keys builds it
    # with no points and returns the nonzero degrees whose keys are not
    # split: the verdict loop over points agrees, on a row of ones of 2 to 4
    # rows and on one row, at bounds where the bitsets pay and where they do
    # not.  A scan below the top of a held cover reads that cover, weight
    # filtered, and builds nothing
    builds = []
    real_bucketed = fibers._bucketed
    monkeypatch.setattr(fibers, "_bucketed", lambda *args: builds.append(args) or real_bucketed(*args))
    rng = corpus.make_rng("points-free-scan")
    seen = collections.Counter()
    for A, grade, bounds in _points_free_cases(rng):
        expected = {bound: _lattice_atoms_by_points(A, bound) for bound in bounds}
        for bound in bounds:
            _clear_fiber_caches()
            assert atomic_scan(A, bound, mode="lattice") == expected[bound], (A, bound)
            cover = fibers._plan(A).covers.get(grade)
            if cover is None:
                seen["no cover"] += 1
                continue
            # a cover is points-free exactly when its bitsets pay
            pays = fibers._bitsets_pay(fibers._plan(A).cols, cover.top)
            assert _points_free(cover) is pays is (cover.splits is not None), (A, bound)
            seen[A.nrows, pays] += 1
            if not pays:
                continue
            assert 0 in cover.keyed and set(cover.keyed.values()) == {None}, (A, bound)
            assert not (fibers._plan(A).fibers or fibers._plan(A).atomic), (A, bound)
            # every lower bound reads the held cover
            held = fibers._plan(A).covers[grade]
            for low in [b for b in bounds if b < bound]:
                builds.clear()
                assert atomic_scan(A, low, mode="lattice") == expected[low], (A, bound, low)
                assert builds == [] and fibers._plan(A).covers[grade] is held, (A, bound, low)
                seen["below"] += 1
    assert all(seen[d, True] for d in (1, 2, 3, 4)) and seen["below"], seen
    assert any(seen[d, False] for d in (2, 3, 4)), seen


def test_points_readers_after_a_points_free_cover_match_cold_queries(monkeypatch):
    # after a lattice scan with M = 0 leaves a points-free cover, every
    # reader of points on the same plan answers as on a cold plan: the
    # first one builds the cover again with its points and its split keys.
    # That holds for degrees outside NA that the cover holds, (1, 27) among
    # them, whose second digit is past the cover's radix of 25, so its key
    # 25 + 27 is that of (2, 2), a degree in NA.  In the other order, a
    # lattice scan after a vertex scan reads the vertex scan's cover and
    # enumerates nothing, and one that grows a cover with points grows it
    # with its points, which the next reader of points reads as it is
    cases = [
        (FiberMatrix(((1, 1, 1, 1), (0, 1, 3, 4))), 0, 6, (2, 5), ((1, 2), (1, 27)), [(2, 5)]),
        (FiberMatrix(((2, 3, 5, 7),)), None, 4, (12,), ((1,),), [(10,)]),
    ]

    def raised(call):
        try:
            return call()
        except ValueError as error:
            return str(error)

    for A, grade, bound, b, outside, ideal_degrees in cases:
        M = minimalize(A.ncols, [(1,) * A.ncols, (0, 2) + (0,) * (A.ncols - 2)])
        readers = {
            "outside NA": lambda: [
                (fiber_points(A, d), raised(partial(is_atomic, A, d)), raised(partial(fiber, A, d)))
                for d in outside
            ],
            "vertex scan": lambda: atomic_scan(A, bound, mode="vertex"),
            "fiber": lambda: fiber(A, b),
            "fiber_points": lambda: fiber_points(A, b),
            "is_atomic": lambda: is_atomic(A, b),
            "ma_fiber": lambda: ma_fiber(M, A, b),
            "is_ma_atomic": lambda: is_ma_atomic(M, A, b),
            "lattice scan with M": lambda: atomic_scan(A, bound, mode="lattice", M=M),
            "vertex_ideal_standard": lambda: vertex_ideal_standard(A, bound),
            "monoid_lift": lambda: monoid_lift(A, ideal_degrees, bound),
            "reachable_degrees": lambda: [
                (d, hilbert_function(M, A, d)) for d in reachable_degrees(A, bound)
            ],
        }
        _clear_fiber_caches()
        lattice = atomic_scan(A, bound, mode="lattice")
        cold = {}
        for name, reader in readers.items():
            _clear_fiber_caches()
            cold[name] = reader()
        for name, reader in readers.items():
            _clear_fiber_caches()
            assert atomic_scan(A, bound, mode="lattice") == lattice
            plan = fibers._plan(A)
            bare = plan.covers[grade]
            assert _points_free(bare) and bare.splits is not None, (A, name)
            assert reader() == cold[name], (A, name)
            cover = plan.covers[grade]
            if cover is not bare:
                assert not _points_free(cover) and cover.splits == bare.splits, (A, name)
            assert atomic_scan(A, bound, mode="lattice") == lattice, (A, name)
        # the reverse order: one enumeration and no walk for the lattice scan
        _clear_fiber_caches()
        atomic_scan(A, bound, mode="vertex")
        held = fibers._plan(A).covers[grade]
        assert not _points_free(held) and held.splits is not None, A
        builds, walks = [], []
        with monkeypatch.context() as patch:
            real_bucketed, real_atomic = fibers._bucketed, fibers._atomic
            patch.setattr(fibers, "_bucketed", lambda *args: builds.append(args) or real_bucketed(*args))
            patch.setattr(fibers, "_atomic", lambda *args: walks.append(args) or real_atomic(*args))
            assert atomic_scan(A, bound, mode="lattice") == lattice, A
            assert builds == walks == [] and fibers._plan(A).covers[grade] is held, A
            # a vertex scan at a lower bound, then a lattice scan and a
            # vertex scan at the bound: one build, with points
            _clear_fiber_caches()
            atomic_scan(A, bound - 2, mode="vertex")
            assert not _points_free(fibers._plan(A).covers[grade]), A
            builds.clear()
            assert atomic_scan(A, bound, mode="lattice") == lattice, A
            assert atomic_scan(A, bound, mode="vertex") == cold["vertex scan"], A
            assert len(builds) == 1 and not _points_free(fibers._plan(A).covers[grade]), A
            # reachable_degrees, a lattice scan that grows its cover, and
            # reachable_degrees again, on one row, where both read the cover
            # of y = (1, ..., 1): one build, with points
            if grade is None:
                low = max(A.rows[0]) * bound // 2
                _clear_fiber_caches()
                reached = reachable_degrees(A, low)
                builds.clear()
                assert atomic_scan(A, bound, mode="lattice") == lattice, A
                assert reachable_degrees(A, low) == reached, A
                assert len(builds) == 1 and not _points_free(fibers._plan(A).covers[grade]), A


def _point_answers(A, M, b):
    """fiber_points, fiber, is_atomic and is_ma_atomic over b; a ValueError gives its message."""

    def answer(call, *args):
        try:
            return call(*args)
        except ValueError as error:
            return str(error)

    return fiber_points(A, b), answer(fiber, A, b), answer(is_atomic, A, b), answer(is_ma_atomic, M, A, b)


def _oracle_point_answers(A, M, b):
    """_point_answers by box enumeration, vertices by definition and the plain walk."""
    points = oracles.box_fiber_points(A.rows, b)
    if not points:
        empty = f"empty fiber over {b}"
        return [], empty, empty, f"empty (M,A) fiber over {b}"
    vertices = oracles.hull_vertices_by_definition_of_non_midpoints(points)
    avoiding = [u for u in points if not oracles.member(M.gens, u)]
    lattice = oracles.atomic_by_sub_box_walk(A.rows, b, avoiding) if avoiding else f"empty (M,A) fiber over {b}"
    return (
        points,
        fibers.Fiber(b, tuple(points), tuple(vertices)),
        oracles.atomic_by_sub_box_walk(A.rows, b, vertices),
        lattice,
    )


def test_key_reads_after_every_reader_match_fresh_plans_and_the_oracles():
    # one plan is read by a points-free lattice scan, a vertex scan, a
    # lattice scan with M != 0, a monoid lift and reachable_degrees, in
    # either order.  The point readers then answer, off its covers by key,
    # as a fresh plan and the oracles do: on every degree a cover holds, and
    # on degrees of covered weight outside NA, a digit past the cover's
    # radix among them.  (1, 27) has one on the first matrix after a bound-6
    # scan, radix 25, and keys as (2, 2), a degree in NA
    rng = corpus.make_rng("key-reads")
    cases = [(FiberMatrix(((1, 1, 1, 1), (0, 1, 3, 4))), 6), (FiberMatrix(((2, 3, 5, 7),)), 4)]
    cases += [(A, 3) for A in _ones_matrices(rng, 3)]
    colliding = 0
    for A, bound in cases:
        M = corpus.random_ideal(rng, A.ncols, 2, 2)
        readers = [
            partial(atomic_scan, A, bound, mode="lattice"),
            partial(atomic_scan, A, bound, mode="vertex"),
            partial(atomic_scan, A, bound, mode="lattice", M=M),
            partial(monoid_lift, A, [A.column(0)], bound),
            partial(reachable_degrees, A, bound),
        ]
        for order in (readers, readers[::-1]):
            _clear_fiber_caches()
            for reader in order:
                reader()
            plan = fibers._plan(A)
            assert plan.covers, A
            covered, nearby = set(), set()
            for grade, cover in plan.covers.items():
                held = fibers._decoded(cover.keyed, cover.powers, cover.radix)
                covered.update(held)
                # one step up on a row is often outside NA, and of covered
                # weight when the row is not the grade's
                nearby.update(b[:r] + (b[r] + 1,) + b[r + 1 :] for b in held for r in range(A.nrows))
                if grade is not None:
                    # weight 1, and a digit past the radix on every other row
                    past = tuple(1 if r == grade else cover.radix + 2 for r in range(A.nrows))
                    colliding += sum(map(operator.mul, cover.powers, past)) in cover.keyed
                    nearby.add(past)
            if A == cases[0][0]:
                assert plan.covers[0].radix == 25 and (1, 27) in nearby, A
            degrees = sorted(covered) + sorted(nearby - covered)
            shared = {b: _point_answers(A, M, b) for b in degrees}
            for b in degrees:
                _clear_fiber_caches()
                assert shared[b] == _point_answers(A, M, b), (A, b)
                assert shared[b] == _oracle_point_answers(A, M, b), (A, b)
    assert colliding


def _scan_by_degree(A, bound, M):
    """The scan loop on a row of ones that the key walk replaced, kept as an oracle.

    Every degree the row's cover holds to weight bound is decoded with
    its points (_graded), and settled in lex order: a nonzero degree with
    one point by whether it is a column whose unit vector avoids M, one
    with more points by _verdict.  M is None in vertex mode.
    """
    plan = fibers._plan(A)
    gens = () if M is None else M.gens
    cover = fibers._covered(plan, plan.ones, bound, True)
    verdicts, lattice = plan.atomic[None if M is None else gens], plan.atomic[gens]
    atoms = []
    for b, points in fibers._graded(plan, plan.ones, bound).items():
        verdict = verdicts.get(b)
        if verdict is None:
            if len(points) > 1:
                verdict = fibers._verdict(plan, M, b, cover)
            elif any(b):
                verdict = b in plan.colset and not oracles.member(gens, points[0])
                verdicts[b] = lattice[b] = verdict
        if verdict:
            atoms.append(b)
    return atoms


def test_key_walk_matches_the_degree_by_degree_loop(monkeypatch):
    # a scan on a row of ones walks its cover's keys and decodes only the
    # keys with two or more points and the atoms; the loop it replaced
    # decoded every degree.  Both agree on seeded matrices of 1 to 4 rows,
    # in vertex mode, in lattice mode with M = 0 and with M != 0, on cold
    # plans and on the plan the other scans left, and below the top of a
    # held cover.  The walk runs in lattice mode with M = 0 only on a
    # cover with no split keys, which entries up to 9 on 3 and 4 rows give
    walks = []
    real_scan = fibers._scan
    monkeypatch.setattr(fibers, "_scan", lambda *args: walks.append(args) or real_scan(*args))
    rng = corpus.make_rng("key-walk-loop")
    cases = [(FiberMatrix(((1,) * n,)), rng.randint(2, 6)) for n in (2, 3, 4)]
    cases.append((FiberMatrix(((1, 1, 1, 1), (0, 1, 3, 4))), 6))
    for d in (2, 3, 4):
        for _ in range(5):
            n = rng.randint(2, 4)
            rows = list(corpus.random_matrix(rng, d - 1, n, rng.choice((2, 9))).rows)
            rows.insert(rng.randint(0, d - 1), (1,) * n)
            cases.append((FiberMatrix(tuple(rows)), rng.randint(2, 4)))
    no_split = 0
    for A, bound in cases:
        M = corpus.random_ideal(rng, A.ncols, 2, 2)
        modes = [("vertex", None, None), ("lattice", None, fibers._plan(A).zero), ("lattice", M, M)]
        expected = {}
        for mode, ideal, key in modes:
            for top in (bound, bound - 1):
                _clear_fiber_caches()
                expected[top, mode, ideal] = _scan_by_degree(A, top, key)
        for order in (modes, modes[::-1]):
            _clear_fiber_caches()
            # the lower bound reads the cover held at bound, weight filtered
            for top in (bound, bound - 1):
                for mode, ideal, _ in order:
                    assert atomic_scan(A, top, mode=mode, M=ideal) == expected[top, mode, ideal], (A, mode)
                    plan = fibers._plan(A)
                    cover = plan.covers[plan.ones]
                    if _points_free(cover) or (mode, ideal) == ("lattice", None) and cover.splits is not None:
                        continue
                    # a walk keeps each fiber of two or more points up to
                    # its bound in the memo, as the cover's own tuple
                    several = {b: pts for b, pts in fibers._by_degree(cover).items() if len(pts) > 1}
                    assert all(plan.fibers.get(b) is pts for b, pts in several.items() if b[plan.ones] <= top), A
        no_split +=fibers._plan(A).covers[fibers._plan(A).ones].splits is None
    assert walks and no_split


def test_scan_memo_returns_fresh_lists_kept_apart_by_mode_and_ideal(monkeypatch):
    # the plan keeps each scan's atoms under (bound, mode, M's generators):
    # a repeated scan returns an equal list that is not the kept one, runs
    # no scan, and is not changed by a caller's edits; vertex mode, lattice
    # mode and each M are kept apart at one bound, and _plan.cache_clear()
    # empties the memo.  A lattice scan with M omitted reads the plan's zero
    # ideal, and builds none
    rng = corpus.make_rng("scan-memo")
    cases = [(A, 3) for A in _ones_matrices(rng, 3)] + [(A, 3) for A in _no_ones_matrices(rng, 2)]
    for A, bound in cases:
        M = corpus.random_ideal(rng, A.ncols, 2, 2)
        modes = [("vertex", None), ("lattice", None), ("lattice", M)]
        fresh = {}
        for mode, ideal in modes:
            _clear_fiber_caches()
            fresh[mode, ideal] = atomic_scan(A, bound, mode=mode, M=ideal)
        _clear_fiber_caches()
        first = {(mode, ideal): atomic_scan(A, bound, mode=mode, M=ideal) for mode, ideal in modes}
        assert first == fresh, A
        plan = fibers._plan(A)
        assert plan.atoms.keys() == {(bound, "vertex", ()), (bound, "lattice", ()), (bound, "lattice", M.gens)}, A
        with monkeypatch.context() as patch:
            patch.setattr(MonomialIdeal, "zero", None)
            deeper = atomic_scan(A, bound + 1, mode="lattice")
            patch.setattr(fibers, "_scan", None)
            for mode, ideal in modes:
                again = atomic_scan(A, bound, mode=mode, M=ideal)
                assert again == fresh[mode, ideal] and again is not first[mode, ideal], (A, mode)
                assert again is not plan.atoms[bound, mode, () if ideal is None else ideal.gens]
                again.append((-1,))
                first[mode, ideal].clear()
                assert atomic_scan(A, bound, mode=mode, M=ideal) == fresh[mode, ideal], (A, mode)
        fibers._plan.cache_clear()
        assert fibers._plan(A).atoms == {}
        assert atomic_scan(A, bound + 1, mode="lattice") == deeper, A
        assert fibers._plan(A).atoms.keys() == {(bound + 1, "lattice", ())}


def test_scans_on_a_row_of_ones_build_no_search_tables():
    # every fiber such a scan reads comes from the cover, so the fiber
    # search's tables are built only when a degree beyond it is asked for
    rng = corpus.make_rng("lazy-search")
    for A in _ones_matrices(rng, 6):
        r = _plan_ones(A)
        _clear_fiber_caches()
        for mode in ("vertex", "lattice"):
            atomic_scan(A, 3, mode=mode)
        plan = fibers._plan(A)
        assert "search" not in vars(plan), A
        b = A.apply((4,) + (0,) * (A.ncols - 1))
        assert b[r] > 3
        assert fiber_points(A, b) == sorted(oracles.box_fiber_points(A.rows, b))
        assert "search" in vars(plan), A
        fibers._plan.cache_clear()
        assert "search" not in vars(fibers._plan(A))


def test_public_bounds_must_be_integers():
    # a float, a bool or a string is no bound, and is named as such before
    # any range check
    A = FiberMatrix(((1, 1, 1), (0, 1, 2)))
    I = MonomialIdeal(3, ((1, 0, 0),))
    calls = [
        partial(atomic_scan, A, mode="vertex"),
        partial(atomic_scan, A, mode="lattice"),
        partial(vertex_ideal_standard, A),
        partial(vertex_ideal_gens_truncated, A),
        partial(sagbi_generators, A, (1, 1, 1)),
        partial(monoid_lift, A, [(1, 1)]),
        partial(reachable_degrees, A),
        partial(same_hilbert_up_to, I, I, A),
        I.standard_monomials_up_to,
    ]
    for call in calls:
        call(bound=2)
        # "3" and None once reached standard_monomials_up_to's range test as a TypeError
        for bad in (2.5, True, "3", None):
            with pytest.raises(ValueError, match="bound must be an integer"):
                call(bound=bad)


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
            plan = fibers._plan(A)
            verdict = fibers._atomic(plan, b, whole, fibers._cover_of(plan, b))
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


def test_each_public_fiber_call_looks_its_plan_up_once(monkeypatch):
    # each lookup hashes the matrix; these calls once made 2, 2, 2, 3 and 3
    A, b1, b2 = demo_matrix(), (1, 3, 5, 2), (5, 10, 10, 6)
    b = tuple(map(operator.add, b1, b2))
    M = MonomialIdeal(6, ((0, 0, 0, 0, 0, 3),))
    real_plan, looked_up = fibers._plan, []
    monkeypatch.setattr(fibers, "_plan", lambda A: looked_up.append(A) or real_plan(A))
    for call, degrees in (
        (fiber, (b1,)),
        (is_atomic, (b,)),
        (atomicity_ideal, (b,)),
        (minkowski_decomposes, (b, b1, b2)),
        (partial(ma_decomposes, M), (b, b1, b2)),
    ):
        looked_up.clear()
        expected = call(A, *degrees)
        assert looked_up == [A], call
        # a degree given as an iterator is read once, into the checked tuple
        assert call(A, *map(iter, degrees)) == expected, call


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
    # the same after a scan has built a cover with split keys: the zero
    # degree's meet is {0}, which holds no split, yet 0 is no atom
    for A in (SEGMENT, FiberMatrix(((1, 1, 1), (0, 1, 2)))):
        zero = (0,) * A.nrows
        for mode in ("vertex", "lattice"):
            _clear_fiber_caches()
            assert zero not in atomic_scan(A, 3, mode=mode)
            plan = fibers._plan(A)
            assert plan.covers[plan.ones].splits is not None, A
            assert is_atomic(A, zero) is False
            assert is_ma_atomic(MonomialIdeal.zero(A.ncols), A, zero) is False
            assert is_ma_atomic(minimalize(A.ncols, [(1,) + (0,) * (A.ncols - 1)]), A, zero) is False


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


def test_monoid_lift_generators_are_the_minimal_members():
    # monoid_lift keeps a member a when no a - e_i is one; the oracle
    # minimalizes the whole member set, found by box enumeration.  The
    # zero degree makes every a a member, so the lift is the unit ideal
    rng = corpus.make_rng("lift-minimal")
    matrices = [
        corpus.random_matrix(rng, rng.randint(1, 2), rng.randint(1, 3), 3) for _ in range(8)
    ]
    matrices += _ones_matrices(rng, 4) + [FiberMatrix(((2, 3),)), IDENTITY2]
    assert any(fibers._plan(G).ones is None for G in matrices)
    assert any(fibers._plan(G).ones is not None for G in matrices)
    for G in matrices:
        zero = (0,) * G.nrows
        choices = [[], [zero], [G.apply(corpus.random_exponent(rng, G.ncols, 2)) for _ in range(2)]]
        for degrees in choices:
            bound = rng.randint(0, 4)
            gaps = {
                a: [tuple(v - w for v, w in zip(G.apply(a), bj)) for bj in degrees]
                for a in oracles.monomials_up_to(G.ncols, bound)
            }
            members = [
                a
                for a, rests in gaps.items()
                if any(min(gap) >= 0 and oracles.box_fiber_points(G.rows, gap) for gap in rests)
            ]
            _clear_fiber_caches()
            lifted = monoid_lift(G, degrees, bound)
            assert lifted.gens == oracles.minimal_gens(members), (G, degrees, bound)
            assert lifted == minimalize(G.ncols, members)
        assert monoid_lift(G, [zero], 2).is_unit() and monoid_lift(G, [], 2).is_zero()


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
