"""Exact monomials and monomial ideals in n variables.

A monomial x^u is its exponent vector u, a tuple of nonnegative ints.
A monomial ideal is the upward closure (under componentwise <=, i.e.
divisibility) of a finite antichain of minimal generators.  The empty
generator set is the zero ideal; the single generator (0,...,0) is the
unit ideal.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

Exponent = tuple[int, ...]


def check_exponent(u, nvars=None) -> Exponent:
    """Validate one exponent vector and return it as a tuple."""
    v = tuple(u)
    if any(not isinstance(e, int) or isinstance(e, bool) for e in v):
        raise ValueError(f"exponent vector {v!r} must contain integers")
    if any(e < 0 for e in v):
        raise ValueError(f"exponent vector {v} has a negative entry")
    if nvars is not None and len(v) != nvars:
        raise ValueError(f"exponent vector {v} has length {len(v)}, expected {nvars}")
    return v


def check_count(value, field: str) -> int:
    """Validate a JSON count field: a nonnegative int, never a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        shown = json.dumps(value, default=repr)
        raise ValueError(f'"{field}" must be a nonnegative integer, got {shown}')
    return value


def check_vectors(value, field: str) -> list:
    """Validate a JSON field holding vectors: a list whose items are lists."""
    if not isinstance(value, list) or not all(isinstance(v, list) for v in value):
        shown = json.dumps(value, default=repr)
        if len(shown) > 60:
            shown = shown[:57] + "..."
        raise ValueError(f'"{field}" must be a list of lists, got {shown}')
    return value


def divides(a, b) -> bool:
    """True iff x^a divides x^b, i.e. a <= b componentwise."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(ai <= bi for ai, bi in zip(a, b))


def lcm_exponent(a: Exponent, b: Exponent) -> Exponent:
    """Componentwise max: the exponent of lcm(x^a, x^b)."""
    return tuple(max(ai, bi) for ai, bi in zip(a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    """Canonical form: generators are a divisibility antichain, sorted lex.

    Construct through minimalize() unless the generators are already
    canonical; __post_init__ rejects non-canonical input.
    """

    nvars: int
    gens: tuple[Exponent, ...]

    def __post_init__(self):
        if self.nvars < 0:
            raise ValueError("nvars must be nonnegative")
        for g in self.gens:
            check_exponent(g, self.nvars)
        if self.gens != tuple(sorted(set(self.gens))):
            raise ValueError("generators not in canonical (sorted, distinct) order")
        for g, h in itertools.combinations(self.gens, 2):
            if divides(g, h) or divides(h, g):
                raise ValueError(f"generators {g} and {h} are not an antichain")

    @classmethod
    def zero(cls, nvars: int) -> MonomialIdeal:
        return cls(nvars, ())

    @classmethod
    def unit(cls, nvars: int) -> MonomialIdeal:
        return cls(nvars, ((0,) * nvars,))

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    def _check_same_ring(self, other: MonomialIdeal):
        if self.nvars != other.nvars:
            raise ValueError(f"ambient mismatch: {self.nvars} vs {other.nvars} variables")

    def member(self, m) -> bool:
        """True iff x^m lies in the ideal (some generator divides m)."""
        m = check_exponent(m, self.nvars)
        return any(divides(g, m) for g in self.gens)

    def contains(self, other: MonomialIdeal) -> bool:
        """True iff other is a subideal of self (every generator of other is a member)."""
        self._check_same_ring(other)
        return all(self.member(g) for g in other.gens)

    def __le__(self, other: MonomialIdeal) -> bool:
        """Containment as sets: self <= other iff self is a subideal of other."""
        return other.contains(self)

    def __lt__(self, other: MonomialIdeal) -> bool:
        return self <= other and self != other

    def sum(self, other: MonomialIdeal) -> MonomialIdeal:
        """Ideal sum, generated by the union of the generators."""
        self._check_same_ring(other)
        return minimalize(self.nvars, self.gens + other.gens)

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        """Ideal intersection: pairwise lcms of generators, minimalized."""
        self._check_same_ring(other)
        return minimalize(
            self.nvars,
            (lcm_exponent(g, h) for g in self.gens for h in other.gens),
        )

    def quotient(self, m) -> MonomialIdeal:
        """Colon ideal (self : x^m), generated by max(g - m, 0) over generators g."""
        m = check_exponent(m, self.nvars)
        return minimalize(
            self.nvars,
            (tuple(max(gi - mi, 0) for gi, mi in zip(g, m)) for g in self.gens),
        )

    def is_artinian(self) -> bool:
        """True iff every variable has a pure-power generator.

        A generator supported on {i} alone counts for variable i; the unit
        ideal's generator 1 has empty support and counts for every variable.
        """
        for i in range(self.nvars):
            if not any(all(g[j] == 0 for j in range(self.nvars) if j != i) for g in self.gens):
                return False
        return True

    def _pure_power_bounds(self) -> tuple[int, ...]:
        # minimal pure-power exponent per variable; requires is_artinian
        bounds = []
        for i in range(self.nvars):
            powers = [
                g[i]
                for g in self.gens
                if all(g[j] == 0 for j in range(self.nvars) if j != i)
            ]
            bounds.append(min(powers))
        return tuple(bounds)

    def standard_monomials(self) -> list[Exponent]:
        """All u with x^u outside the ideal, sorted lex.  Requires artinian."""
        if not self.is_artinian():
            raise ValueError("standard_monomials requires an artinian ideal")
        bounds = self._pure_power_bounds()
        return [
            u
            for u in itertools.product(*(range(b) for b in bounds))
            if not self.member(u)
        ]

    def standard_monomials_up_to(self, bound: int) -> list[Exponent]:
        """All u with total degree <= bound and x^u outside the ideal, sorted lex."""
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        return [
            u
            for u in exponents_up_to_degree(self.nvars, bound)
            if not self.member(u)
        ]

    def to_json(self) -> dict:
        return {"vars": self.nvars, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json(cls, data) -> MonomialIdeal:
        """Parse {"vars": n, "gens": [[e1,...,en], ...]}; minimalizes on load."""
        if not isinstance(data, dict) or "vars" not in data or "gens" not in data:
            raise ValueError('ideal JSON must be {"vars": n, "gens": [...]}')
        nvars = check_count(data["vars"], "vars")
        gens = [check_exponent(g, nvars) for g in check_vectors(data["gens"], "gens")]
        return minimalize(nvars, gens)

    @classmethod
    def loads(cls, text: str) -> MonomialIdeal:
        return cls.from_json(json.loads(text))

    def __repr__(self):
        if self.is_zero():
            return f"MonomialIdeal.zero({self.nvars})"
        return f"MonomialIdeal({self.nvars}, {self.gens})"


def minimalize(nvars: int, gens) -> MonomialIdeal:
    """Canonicalize a generating set to its antichain of minimal generators."""
    vecs = sorted({check_exponent(g, nvars) for g in gens})
    minimal: list[Exponent] = []
    for v in vecs:
        # vecs is lex sorted, so no later vector divides an earlier one
        # unless equal; one forward sweep suffices.
        if not any(divides(m, v) for m in minimal):
            minimal.append(v)
    return MonomialIdeal(nvars, tuple(sorted(minimal)))


def exponents_up_to_degree(nvars: int, bound: int):
    """Yield all u in N^nvars with total degree <= bound, in lex order."""
    if nvars == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in exponents_up_to_degree(nvars - 1, bound - head):
            yield (head,) + tail
