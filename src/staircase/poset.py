"""A poset on pairs with finite chains but unbounded antichains, plus
the complementation bijection between finite order ideals in N^n and
artinian monomial ideals.

Ground set: pairs (i, j) of nonnegative integers with i < j, ordered by
(i, j) < (i', j') iff j < j' and (i = i' or j < i').  Every element has
only finitely many elements below it, yet the slices {(k, l) : k < l}
form arbitrarily large antichains of dual order ideals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monomial import (
    Exponent,
    MonomialIdeal,
    _check_int,
    check_count,
    check_exponent,
    check_vectors,
)

XElem = tuple[int, int]


def check_xelem(p) -> XElem:
    i, j = p if isinstance(p, (tuple, list)) and len(p) == 2 else (None, None)
    if bool in (type(i), type(j)) or not (isinstance(i, int) and isinstance(j, int)):
        raise ValueError(f"element {p!r} must be a pair of integers")
    if not (0 <= i < j):
        raise ValueError(f"element {p!r} violates 0 <= i < j")
    return (i, j)


def x_less(p, q) -> bool:
    """Strictly below: j < j' and (same i, or j < i')."""
    i, j = check_xelem(p)
    i2, j2 = check_xelem(q)
    return j < j2 and (i == i2 or j < i2)


@dataclass(frozen=True)
class XDualOrderIdeal:
    """Upward-closed subset, stored as its antichain of minimal elements."""

    mins: tuple[XElem, ...]

    def __post_init__(self):
        mins = tuple(sorted({check_xelem(p) for p in self.mins}))
        object.__setattr__(self, "mins", mins)
        for p in mins:
            for q in mins:
                if p != q and x_less(p, q):
                    raise ValueError(f"{p} < {q}: minimal elements must be an antichain")

    @classmethod
    def generated_by(cls, elems) -> XDualOrderIdeal:
        """Upward closure of arbitrary elements; keeps the minimal ones."""
        pts = sorted({check_xelem(p) for p in elems})
        return cls(tuple(
            p for p in pts if not any(q != p and x_less(q, p) for q in pts)
        ))

    def member(self, p) -> bool:
        p = check_xelem(p)
        return any(q == p or x_less(q, p) for q in self.mins)


def x_doi_contains(D1: XDualOrderIdeal, D2: XDualOrderIdeal) -> bool:
    """Is D1 a subset of D2 (as upward-closed sets)?

    Holds iff every minimal element of D1 lies above (or equals) some
    minimal element of D2.
    """
    return all(D2.member(p) for p in D1.mins)


def s_family(l: int) -> XDualOrderIdeal:
    """The dual order ideal generated by the slice {(k, l) : k < l}."""
    return XDualOrderIdeal(tuple((k, l) for k in range(_check_int(l, "slice index", 1))))


def verify_s_antichain(L: int) -> bool:
    """Are the slice ideals pairwise incomparable through index L?"""
    ideals = [s_family(l) for l in range(1, _check_int(L, "L", 2) + 1)]
    for a in range(len(ideals)):
        for b in range(a + 1, len(ideals)):
            if x_doi_contains(ideals[a], ideals[b]) or x_doi_contains(ideals[b], ideals[a]):
                return False
    return True


def elements_with_j_below(j_max: int) -> list[XElem]:
    """All ground-set elements (i, j) with j <= j_max, sorted."""
    return [(i, j) for j in range(1, _check_int(j_max, "j_max") + 1) for i in range(j)]


def descending_chain_max(p) -> int:
    """Largest k admitting a chain q_1 < ... < q_k < p: j - 1 for (0, j), else j - 2.

    Upper bound: second coordinates rise strictly along a chain, and an
    (x, y) below (i, j) has 1 <= y <= j - 1.  When i > 0 also y != i:
    (x, i) < (i, j) needs x = i or i < i, and x < i.  So a chain below
    (i, j) has at most j - 1 elements, and j - 2 when i > 0.

    Achieved: for i = 0 by (0, 1) < ... < (0, j - 1), and for i > 0 by
    (0, 1) < ... < (0, i - 1) < (i, i + 1) < ... < (i, j - 1).
    """
    i, j = check_xelem(p)
    return j - 1 if i == 0 else j - 2


@dataclass(frozen=True)
class FiniteOrderIdeal:
    """Finite subset of N^n closed downward under componentwise <=."""

    nvars: int
    points: tuple[Exponent, ...]

    def __post_init__(self):
        _check_int(self.nvars, "nvars", 1)
        pts = tuple(sorted({check_exponent(p, self.nvars) for p in self.points}))
        object.__setattr__(self, "points", pts)
        have = set(pts)
        for p in pts:
            for i in range(self.nvars):
                if p[i] > 0:
                    q = tuple(e - 1 if k == i else e for k, e in enumerate(p))
                    if q not in have:
                        raise ValueError(f"not downward closed: {p} present, {q} missing")

    def member(self, p) -> bool:
        return check_exponent(p, self.nvars) in set(self.points)

    def issubset(self, other: FiniteOrderIdeal) -> bool:
        if self.nvars != other.nvars:
            raise ValueError("order ideals live in different rings")
        return set(self.points) <= set(other.points)

    def to_json(self) -> dict:
        return {"vars": self.nvars, "points": [list(p) for p in self.points]}

    @classmethod
    def from_json(cls, data) -> FiniteOrderIdeal:
        if not isinstance(data, dict) or "points" not in data or "vars" not in data:
            raise ValueError('order-ideal JSON must be {"vars": n, "points": [...]}')
        points = check_vectors(data["points"], "points")
        return cls(check_count(data["vars"], "vars"), tuple(tuple(p) for p in points))


def young_complement(O: FiniteOrderIdeal) -> MonomialIdeal:
    """Monomial ideal whose monomials are exactly the points outside O.

    The generators are the minimal points of the complement: those not
    in O all of whose immediate predecessors are.  For an empty O that is
    0 alone; otherwise such a point u is not 0, which is in O, so some
    u - e_i is in O, and u is p + e_i for a p in O.  Only those points
    are tested.  Minimal points of a set are an antichain, so sorted
    they are already canonical.
    """
    n = O.nvars
    have = set(O.points)
    candidates = {p[:i] + (p[i] + 1,) + p[i + 1 :] for p in have for i in range(n)} or {(0,) * n}
    gens = [
        u
        for u in candidates - have
        if all(u[i] == 0 or u[:i] + (u[i] - 1,) + u[i + 1 :] in have for i in range(n))
    ]
    return MonomialIdeal._trusted(n, tuple(sorted(gens)))


def young_cocomplement(I: MonomialIdeal) -> FiniteOrderIdeal:
    """The standard monomials of an artinian ideal, as a finite order ideal."""
    if not I.is_artinian():
        raise ValueError("ideal must be artinian (else the complement is infinite)")
    return FiniteOrderIdeal(I.nvars, tuple(I.standard_monomials()))
