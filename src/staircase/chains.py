"""Comparability structure of finite families of monomial ideals.

Finite families stand in for infinite collections: find a comparable
pair, certify an antichain, extract a longest strict chain, and refine
a family by which standard monomials of an artinian pivot its members
contain, or by their associated-prime sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import associated_primes
from .monomial import MonomialIdeal, _has_divisor


@dataclass(frozen=True)
class IdealFamily:
    """Distinct monomial ideals over a common ambient ring, order kept."""

    members: tuple[MonomialIdeal, ...]

    def __post_init__(self):
        if not isinstance(self.members, tuple):
            object.__setattr__(self, "members", tuple(self.members))
        for i, m in enumerate(self.members):
            if m.nvars != self.members[0].nvars:
                raise ValueError(
                    f"member {i} has {m.nvars} variables, member 0 has {self.members[0].nvars}"
                )
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate members; use IdealFamily.of to deduplicate")

    @classmethod
    def of(cls, ideals) -> IdealFamily:
        """Build a family, dropping later duplicates."""
        seen: dict[MonomialIdeal, None] = {}
        for ideal in ideals:
            seen.setdefault(ideal)
        return cls(tuple(seen))

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> MonomialIdeal:
        return self.members[i]

    @classmethod
    def from_json(cls, data) -> IdealFamily:
        if not isinstance(data, list):
            raise ValueError("family JSON must be a list of ideals")
        members = []
        for i, item in enumerate(data):
            try:
                members.append(MonomialIdeal.from_json(item))
            except ValueError as exc:
                raise ValueError(f"member {i}: {exc}") from exc
        return cls.of(members)

    def to_json(self) -> list:
        return [m.to_json() for m in self.members]


def find_comparable_pair(F: IdealFamily) -> tuple[int, int] | None:
    """First (subset_index, superset_index) in index order, or None."""
    for i in range(len(F)):
        for j in range(i + 1, len(F)):
            if F[j].contains(F[i]):
                return (i, j)
            if F[i].contains(F[j]):
                return (j, i)
    return None


def is_antichain(F: IdealFamily) -> bool:
    """No member contains another."""
    return find_comparable_pair(F) is None


def extract_descending_chain(F: IdealFamily) -> list[int]:
    """Indices of a longest chain, each ideal strictly containing the next.

    Longest path in the strict-containment DAG by dynamic programming,
    bottom up; ties resolved toward lexicographically smallest index
    sequences.  Members are distinct, so a j below i has every member
    below it below i too, and fewer of them: visiting i in increasing
    len(below[i]) finishes every j below i first.  Chains from different
    starts differ in their first index, so the lex-smallest longest chain
    starts at the smallest start of greatest length and goes on to the
    smallest successor of greatest length: one pair per index suffices.
    """
    n = len(F)
    if n == 0:
        return []
    below = [
        [j for j in range(n) if i != j and F[i].contains(F[j])]
        for i in range(n)
    ]
    # best[i]: length of the longest chain strictly below i, and its first index
    best: list[tuple[int, int | None]] = [(0, None)] * n
    for i in sorted(range(n), key=lambda i: len(below[i])):
        for j in below[i]:  # increasing j; only a longer chain replaces
            if best[j][0] + 1 > best[i][0]:
                best[i] = best[j][0] + 1, j
    chain = [max(range(n), key=lambda i: (best[i][0], -i))]
    while best[chain[-1]][1] is not None:
        chain.append(best[chain[-1]][1])
    return chain


def refine_by_standard_trace(F: IdealFamily, pivot: MonomialIdeal) -> list[list[int]]:
    """Group indices by which standard monomials of the pivot they contain.

    The pivot must be artinian so its standard set is finite.  Blocks
    are sorted by smallest member index.
    """
    if F.members and F[0].nvars != pivot.nvars:
        raise ValueError(f"pivot has {pivot.nvars} variables, family members have {F[0].nvars}")
    if not pivot.is_artinian():
        raise ValueError("pivot must be artinian (finite standard set)")
    standard = pivot.standard_monomials()
    blocks: dict[frozenset, list[int]] = {}
    for i, ideal in enumerate(F.members):
        trace = frozenset(m for m in standard if _has_divisor(ideal.gens, m))
        blocks.setdefault(trace, []).append(i)
    return sorted(blocks.values(), key=lambda blk: blk[0])


def group_by_associated_primes(F: IdealFamily) -> list[list[int]]:
    """Group indices by equal associated-prime sets; blocks by smallest member."""
    blocks: dict[frozenset, list[int]] = {}
    for i, ideal in enumerate(F.members):
        if ideal.is_zero() or ideal.is_unit():
            raise ValueError(f"member {i} is degenerate (zero or unit ideal)")
        key = frozenset(p.tau for p in associated_primes(ideal))
        blocks.setdefault(key, []).append(i)
    return sorted(blocks.values(), key=lambda blk: blk[0])
