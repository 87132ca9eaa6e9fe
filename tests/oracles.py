"""Independent reference implementations used only to check the library.

Each oracle takes a different route from the code under test: membership
by raw divisor scan, fibers by full box enumeration, hull membership by
affinely-independent-subset search instead of a feasibility tableau,
hull vertices by that membership test on every point (or on every point
that is no midpoint, compared coordinate by coordinate),
exposed hull vertices by dot products with explicit weight vectors
instead of reading the coordinates, or by listing every point tied at
an extreme instead of finding the first and last by index, splits of a
degree from the sub-boxes of all its fiber points instead of one
point's, atomicity by
a plain walk over one point's sub-box with box-enumerated fibers instead
of exact certificates and a lattice screen, the split of
a point set over b1 + b2 by the whole set of sums of the two box-enumerated
fibers instead of a divisor test on the points over b1, reachable
degrees by a breadth-first walk over the columns instead of a bucketed
enumeration of exponents, chains by subset enumeration or by recursion
instead of a bottom-up pass, irreducible components by splitting mixed
generators instead of adding generators one at a time, or by adding them
one at a time and pruning each new component against all others instead
of testing its corner, or by testing the corner with lists of witness
generators instead of bitmasks, and the generators of a complement by walking its
bounding box instead of stepping up from the order ideal.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def member(gens, m) -> bool:
    """Raw membership: some generator divides m."""
    return any(divides(g, m) for g in gens)


def monomials_up_to(nvars: int, bound: int):
    """All exponent vectors with total degree <= bound."""
    for combo in itertools.product(range(bound + 1), repeat=nvars):
        if sum(combo) <= bound:
            yield combo


def ideals_equal_up_to(gens1, gens2, nvars: int, bound: int) -> bool:
    """Same membership on all monomials of total degree <= bound."""
    return all(
        member(gens1, m) == member(gens2, m) for m in monomials_up_to(nvars, bound)
    )


def intersection_members(components, m) -> bool:
    return all(member(gens, m) for gens in components)


def minimal_gens(gens) -> tuple[tuple[int, ...], ...]:
    """The divisibility-minimal members of gens, deduplicated and sorted."""
    gens = set(map(tuple, gens))
    return tuple(sorted(g for g in gens if not any(h != g and divides(h, g) for h in gens)))


def irreducible_by_splitting(nvars: int, gens) -> list[tuple[tuple[int, ...], ...]]:
    """Irredundant irreducible components of a proper nonzero ideal.

    Splits a mixed generator x^g = x_i^{g_i} * (x^g / x_i^{g_i}), giving
    I = (I + (x_i^{g_i})) cap (I + (x^g / x_i^{g_i})), until every part is
    generated by pure powers, then drops each part that contains another.
    Components are generator tuples, sorted.
    """
    parts = set()
    seen = set()
    stack = [minimal_gens(gens)]
    while stack:
        ideal = stack.pop()
        if ideal in seen:
            continue
        seen.add(ideal)
        mixed = next((g for g in ideal if sum(1 for e in g if e) >= 2), None)
        if mixed is None:
            parts.add(ideal)
            continue
        i = next(k for k, e in enumerate(mixed) if e)
        power = tuple(mixed[i] if k == i else 0 for k in range(nvars))
        rest = tuple(0 if k == i else e for k, e in enumerate(mixed))
        stack.append(minimal_gens(ideal + (power,)))
        stack.append(minimal_gens(ideal + (rest,)))
    return sorted(
        C for C in parts
        if not any(D != C and all(member(C, d) for d in D) for D in parts)
    )


def irreducible_by_pairwise_prune(nvars: int, gens) -> list[tuple[int, ...]]:
    """Exponent vectors a of the irredundant irreducible components m^a.

    The library's former route: add the generators one at a time, split
    each component not containing x^g into the m^{a[i := g_i]}, and drop
    every new component that contains a kept or another new one.  The
    vectors come back sorted.
    """
    def contains(a, b):  # is m^b a subideal of m^a?
        return all(0 < a[i] <= e for i, e in enumerate(b) if e > 0)

    comps = [(0,) * nvars]
    for g in minimal_gens(gens):
        support = [i for i, e in enumerate(g) if e > 0]
        kept, new = [], set()
        for a in comps:
            if any(0 < a[i] <= g[i] for i in support):
                kept.append(a)
            else:
                new.update(a[:i] + (g[i],) + a[i + 1 :] for i in support)
        comps = kept + [
            b
            for b in new
            if not any(contains(b, c) for c in kept)
            and not any(c != b and contains(b, c) for c in new)
        ]
    return sorted(comps)


def irreducible_by_witness_lists(nvars: int, gens) -> list[tuple[int, ...]]:
    """Exponent vectors a of the irredundant irreducible components m^a.

    The library's former corner test, in the library's order: add the
    generators one at a time, keeping each component a with W_a, a dict
    from each j with a_j > 0 to the list of generators h added so far with
    h_j = a_j and h_k < a_k for every other such k.  A component containing
    x^g stays, and g joins W_a[j] iff j is its one hit coordinate and
    a_j = g_j.  Each other one gives candidates b = a[i := g_i] with
    W_b[i] = [g] and W_b[j] = [h in W_a[j] : h_i < g_i], kept iff no list
    is empty.
    """
    comps = [((0,) * nvars, {})]
    for g in gens:
        next_comps = []
        for a, witnesses in comps:
            hit = [j for j in witnesses if a[j] <= g[j]]
            if hit:
                if len(hit) == 1 and a[hit[0]] == g[hit[0]]:
                    witnesses[hit[0]].append(g)
                next_comps.append((a, witnesses))
                continue
            for i in (k for k, e in enumerate(g) if e > 0):
                kept = {i: [g]}
                for j, hs in witnesses.items():
                    if j != i:
                        kept[j] = [h for h in hs if h[i] < g[i]]
                        if not kept[j]:
                            break
                else:
                    next_comps.append((a[:i] + (g[i],) + a[i + 1 :], kept))
        comps = next_comps
    return [a for a, _ in comps]


def primary_by_grouping(components) -> list[tuple[tuple[int, ...], tuple]]:
    """(prime variables, generators) per support, from irreducible components.

    Components with the same support are intersected by pairwise lcms.
    """
    groups = {}
    for C in components:
        support = tuple(sorted({k for g in C for k, e in enumerate(g) if e}))
        groups.setdefault(support, []).append(C)
    out = []
    for support, comps in sorted(groups.items()):
        meet = comps[0]
        for C in comps[1:]:
            meet = minimal_gens(
                tuple(max(x, y) for x, y in zip(g, h)) for g in meet for h in C
            )
        out.append((support, meet))
    return out


def box_fiber_points(rows, b) -> list[tuple[int, ...]]:
    """Fiber by brute force over the full coordinate box forced by b."""
    d, n = len(rows), len(rows[0])
    caps = []
    for i in range(n):
        ub = min(b[r] // rows[r][i] for r in range(d) if rows[r][i] > 0)
        caps.append(ub)
    out = []
    for u in itertools.product(*(range(c + 1) for c in caps)):
        if all(sum(rows[r][i] * u[i] for i in range(n)) == b[r] for r in range(d)):
            out.append(u)
    return out


def reachable_degrees_by_walk(rows, bound) -> list[tuple[int, ...]]:
    """Degrees A u with coordinate sum <= bound, sorted, by a breadth-first walk.

    Starts at 0 and adds one column at a time; a column has coordinate sum
    >= 1, so every step raises the sum and the walk stops at the bound.
    """
    cols = list(zip(*rows))
    zero = (0,) * len(rows)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for g in frontier:
            for c in cols:
                h = tuple(x + y for x, y in zip(g, c))
                if h not in seen and sum(h) <= bound:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def split_pairs_from_points(rows, b, points) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Nontrivial unordered splits b1 + b2 = b in NA, b1 <= b2 lex, sorted.

    points is the fiber over b.  Every split comes from some u1 <= u with u
    in that fiber, so the degrees A u1 of the sub-boxes of the points are
    all candidates, and each b2 = A (u - u1) is in NA.  No points, no splits.
    """
    zero = (0,) * len(rows)
    candidates = set()
    for u in points:
        for u1 in itertools.product(*(range(e + 1) for e in u)):
            candidates.add(tuple(sum(x * y for x, y in zip(row, u1)) for row in rows))
    splits = []
    for b1 in sorted(candidates):
        b2 = tuple(x - y for x, y in zip(b, b1))
        if b1 not in (zero, tuple(b)) and b1 <= b2:
            splits.append((b1, b2))
    return splits


def first_unsplit_by_sums(rows, points, b1, b2, gens=()):
    """Lex-first of points that is no u1 + u2, or None.

    u1 runs over the fiber over b1 and u2 over the fiber over b2, both by
    box enumeration, each kept only when raw membership puts it outside
    the ideal gens generate.
    """
    parts = [[u for u in box_fiber_points(rows, c) if not member(gens, u)] for c in (b1, b2)]
    sums = {tuple(x + y for x, y in zip(u1, u2)) for u1 in parts[0] for u2 in parts[1]}
    return next((p for p in sorted(points) if p not in sums), None)


def atomic_by_sub_box_walk(rows, b, whole, fiber=box_fiber_points) -> bool:
    """Atomicity of b by the plain walk, with no certificate and no screen.

    whole is what the verdict is about: the hull vertices of the fiber
    over b, or its points outside M.  b1 runs over A u1 for u1 in the
    sub-box of the point of whole with the fewest sub-box points, and a
    nontrivial pair splits when every point of whole has a divisor among
    the points over b1, which fiber(rows, b1) gives: by box enumeration
    unless a caller passes an enumeration tested against it, for fibers
    too large to enumerate by box.  The zero degree, or an empty whole,
    is not atomic.
    """
    b = tuple(b)
    if not whole or not any(b):
        return False
    p = min(whole, key=lambda u: math.prod(e + 1 for e in u))
    for u1 in itertools.product(*(range(e + 1) for e in p)):
        b1 = tuple(sum(x * y for x, y in zip(row, u1)) for row in rows)
        if not any(b1) or b1 == b:
            continue
        over_b1 = fiber(rows, b1)
        if all(any(divides(v, w) for v in over_b1) for w in whole):
            return False
    return True


def _solve_exact(matrix, rhs):
    """Gaussian elimination over Fractions.

    Returns ("unique", x), ("none", None) for inconsistent systems, or
    ("dependent", None) when the solution is not unique.
    """
    rows = [[Fraction(v) for v in row] + [Fraction(c)] for row, c in zip(matrix, rhs)]
    ncols = len(matrix[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    for k in range(r, len(rows)):
        if rows[k][-1] != 0:
            return "none", None
    if len(pivots) < ncols:
        return "dependent", None
    x = [Fraction(0)] * ncols
    for idx, c in enumerate(pivots):
        x[c] = rows[idx][-1]
    return "unique", x


def _rank(rows) -> int:
    """Rank of a list of rational vectors, by Gaussian elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(rank + 1, len(rows)):
            f = rows[k][c] / rows[rank][c]
            rows[k] = [a - f * b for a, b in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def hull_member(q, points) -> bool:
    """Convex-hull membership via affinely independent subsets.

    If q is in the hull it is in the hull of some affinely independent
    subset of at most k+1 points, k being the dimension of the affine
    hull of q and the points (Caratheodory), and that subset extends to
    k+1 affinely independent points, whose hull holds it, so only subsets
    of k+1 points are tried.  When q is off the points' affine hull, every
    such subset is dependent.  Dependent subsets are skipped, which is
    safe because an independent one suffices.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        return False
    dim = len(q)
    flat = _rank([[x - y for x, y in zip(p, q)] for p in pts])
    for subset in itertools.combinations(pts, flat + 1):
        # a convex combination lies in its points' bounding box
        if not all(min(c) <= x <= max(c) for x, c in zip(q, zip(*subset))):
            continue
        matrix = [[p[c] for p in subset] for c in range(dim)]
        matrix.append([1] * (flat + 1))
        status, lam = _solve_exact(matrix, list(q) + [1])
        if status == "unique" and all(v >= 0 for v in lam):
            return True
    return False


def hull_vertices_by_definition(points) -> list[tuple[int, ...]]:
    pts = sorted({tuple(p) for p in points})
    return [p for p in pts if not hull_member(p, [q for q in pts if q != p])]


def hull_vertices_by_definition_of_non_midpoints(points) -> list[tuple[int, ...]]:
    """hull_vertices_by_definition on the points no two others have as midpoint.

    A midpoint (q + r) / 2 of two other points is no vertex.  So the
    points left hold every vertex, their hull is the whole hull, and its
    vertices are the same.  Each point p is tested against every other q
    by whether 2p - q is a point, coordinate by coordinate.
    """
    pts = sorted({tuple(p) for p in points})
    present = set(pts)
    rest = [
        p
        for p in pts
        if not any(q != p and tuple(2 * x - y for x, y in zip(p, q)) in present for q in pts)
    ]
    return hull_vertices_by_definition(rest)


def exposed_points_by_weights(pts) -> set[tuple[int, ...]]:
    """Lex-first and lex-last maximizers of +-e_i and +-(1, 2, ..., n).

    pts is lex sorted and nonempty.  The maximizers of a weight are the
    points on the face of the hull the weight exposes, and the lex-first
    and lex-last point of a face are vertices of it, so of the hull.  This
    builds each weight vector and takes its dot product with every point.
    """
    n = len(pts[0])
    weights = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    weights.append(tuple(range(1, n + 1)))
    weights += [tuple(-x for x in w) for w in weights]
    out = set()
    for w in weights:
        values = [sum(x * y for x, y in zip(w, p)) for p in pts]
        top = max(values)
        tops = [p for p, v in zip(pts, values) if v == top]
        out.add(tops[0])
        out.add(tops[-1])
    return out


def exposed_by_tie_lists(pts) -> set[tuple[int, ...]]:
    """The points _exposed finds, each off the list of every point tied at an extreme.

    pts is lex sorted and nonempty.  For each coordinate and for the
    weight (1, 2, ..., n), the points of least value and those of greatest
    value are listed in full, and the first and last of each list kept.
    """
    weights = range(1, len(pts[0]) + 1)
    exposed = set()
    for values in (*zip(*pts), [sum(w * x for w, x in zip(weights, p)) for p in pts]):
        for extreme in (min(values), max(values)):
            ties = [p for p, v in zip(pts, values) if v == extreme]
            exposed.update((ties[0], ties[-1]))
    return exposed


def pair_chain_max_recursive(p) -> int:
    """Longest chain strictly below p in the pair poset, by recursion.

    (i, j) < (i', j') iff j < j' and (i = i' or j < i'); every element
    below (i, j) has second coordinate < j.  Recursion depth is about j.
    """
    memo = {}

    def below(p):
        if p not in memo:
            i, j = p
            lower = [
                (x, y) for y in range(1, j) for x in range(y) if x == i or y < i
            ]
            memo[p] = 1 + max((below(q) for q in lower), default=-1)
        return memo[p]

    return below(tuple(p))


def longest_chain_by_subsets(family) -> int:
    """Max size of a totally ordered subset; family is a list of ideals
    with a .contains method."""
    n = len(family)
    best = 0
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        ok = all(
            family[i].contains(family[j]) or family[j].contains(family[i])
            for i, j in itertools.combinations(idx, 2)
        )
        if ok:
            best = max(best, len(idx))
    return best


def descending_chain_recursive(family) -> list[int]:
    """Indices of a longest strict chain, lexicographically smallest on ties.

    family is a list of distinct ideals with a .contains method.  The
    best chain below each index is found by cached recursion, one frame
    per chain step.
    """
    n = len(family)
    if n == 0:
        return []
    below = [
        [j for j in range(n) if i != j and family[i].contains(family[j])]
        for i in range(n)
    ]

    @cache
    def best_from(i):
        best_len, best_tail = 0, ()
        for j in below[i]:
            ln, tail = best_from(j)
            if ln + 1 > best_len or (ln + 1 == best_len and (j,) + tail < best_tail):
                best_len, best_tail = ln + 1, (j,) + tail
        return best_len, best_tail

    starts = [(i,) + best_from(i)[1] for i in range(n)]
    return list(max(starts, key=lambda ch: (len(ch), tuple(-k for k in ch))))


def complement_gens_by_box(nvars: int, points) -> tuple[tuple[int, ...], ...]:
    """Minimal points outside a finite order ideal, sorted, by a box walk.

    Every such point lies within one past the ideal's bounding box in each
    coordinate; each box point outside the ideal whose immediate
    predecessors are all inside is minimal.
    """
    have = set(map(tuple, points))
    hi = [max((p[i] for p in have), default=-1) + 1 for i in range(nvars)]
    out = []
    for u in itertools.product(*(range(h + 1) for h in hi)):
        if u not in have and all(
            u[i] == 0 or u[:i] + (u[i] - 1,) + u[i + 1 :] in have for i in range(nvars)
        ):
            out.append(u)
    return tuple(sorted(out))
