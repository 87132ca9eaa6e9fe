"""Exact monomials and monomial ideals in n variables.

A monomial x^u is its exponent vector u, a tuple of nonnegative ints.
A monomial ideal is the upward closure (under componentwise <=, i.e.
divisibility) of a finite antichain of minimal generators.  The empty
generator set is the zero ideal; the single generator (0,...,0) is the
unit ideal.

_has_divisor(gens, u), "does some g in gens divide u", is the library's
one divisor test.  Here divides(), member(), contains(), the antichain
check, both standard-monomial lists and _minimal() call it; elsewhere
the split test fibers._first_unsplit(), the M-avoiding filter
fibers._ma_fiber(), hilbert.numerator_fine_count() and
chains.refine_by_standard_trace() do.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import le

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


def _check_int(value, name: str, least: int | None = None) -> int:
    """The library's one bound check: value, if it is an int no less than least.

    A count, an index or a bound is an int, never a bool, which JSON would
    print as true.  Otherwise, or when value < least, the ValueError names
    the argument: "{name} must be an integer, got ...", "{name} must be
    nonnegative" for least 0, "{name} must be at least {least}" else.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be nonnegative" if least == 0 else f"{name} must be at least {least}")
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
    a = check_exponent(a)
    return _has_divisor((a,), check_exponent(b, len(a)))


def _has_divisor(gens, u: Exponent) -> bool:
    # does some g in gens divide u?  Lengths unchecked.
    for g in gens:
        if all(map(le, g, u)):
            return True
    return False


def lcm_exponent(a: Exponent, b: Exponent) -> Exponent:
    """Componentwise max: the exponent of lcm(x^a, x^b)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(map(max, a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    """Canonical form: generators are a divisibility antichain, sorted lex.

    Construct through minimalize() unless the generators are already
    canonical.  The public constructor MonomialIdeal(nvars, gens) checks
    every generator's entries and length, their sorted distinct order and
    the antichain property, and rejects non-canonical input.  The private
    _trusted() skips all of these checks.  It is only for canonical
    antichains the library has just built: in _minimal(), which serves
    minimalize() and from_json() after they check their input vectors,
    and sum(), intersect() and quotient(); for the pure-power ideals m^a
    in irreducible_decomposition() and MonomialPrime.as_ideal(); for the
    flipped antichains Alexander duality builds in primary_decomposition()
    and its components, each a lone m^a or a flip; for the minimal points
    of a complement in poset.young_complement(); and for the minimal
    members fibers.monoid_lift() picks by upward closure.  _minimal() itself,
    with no check of its input, also serves the library's own exponent
    tuples: fiber points in fibers.vertex_ideal_gens_truncated(), and hull
    vertices in fibers.atomicity_ideal().
    PrimaryComponent._trusted() mirrors it for primary_decomposition()
    alone, and MonomialPrime._trusted() for the primes that
    associated_primes() and primary_decomposition() read off component
    supports.  Never pass outside input to any of them.

    member() checks its exponent and asks _has_divisor(self.gens, u);
    library code that holds a valid tuple of the right length asks
    _has_divisor directly.
    """

    nvars: int
    gens: tuple[Exponent, ...]

    def __post_init__(self):
        _check_int(self.nvars, "nvars", 0)
        for g in self.gens:
            check_exponent(g, self.nvars)
        if self.gens != tuple(sorted(set(self.gens))):
            raise ValueError("generators not in canonical (sorted, distinct) order")
        # sorted and distinct, so only an earlier generator can divide a later one
        for g, h in itertools.combinations(self.gens, 2):
            if _has_divisor((g,), h):
                raise ValueError(f"generators {g} and {h} are not an antichain")

    @classmethod
    def _trusted(cls, nvars: int, gens: tuple[Exponent, ...]) -> MonomialIdeal:
        """Build without __post_init__: gens must already be canonical."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "nvars", nvars)
        object.__setattr__(ideal, "gens", gens)
        return ideal

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
        return _has_divisor(self.gens, check_exponent(m, self.nvars))

    def contains(self, other: MonomialIdeal) -> bool:
        """True iff other is a subideal of self (every generator of other is a member)."""
        self._check_same_ring(other)
        return all(_has_divisor(self.gens, g) for g in other.gens)

    def __le__(self, other: MonomialIdeal) -> bool:
        """Containment as sets: self <= other iff self is a subideal of other."""
        return other.contains(self)

    def __lt__(self, other: MonomialIdeal) -> bool:
        return self <= other and self != other

    def sum(self, other: MonomialIdeal) -> MonomialIdeal:
        """Ideal sum, generated by the union of the generators."""
        self._check_same_ring(other)
        return _minimal(self.nvars, self.gens + other.gens)

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        """Ideal intersection: pairwise lcms of generators, minimalized."""
        self._check_same_ring(other)
        return _minimal(
            self.nvars,
            (lcm_exponent(g, h) for g in self.gens for h in other.gens),
        )

    def quotient(self, m) -> MonomialIdeal:
        """Colon ideal (self : x^m), generated by max(g - m, 0) over generators g."""
        m = check_exponent(m, self.nvars)
        return _minimal(
            self.nvars,
            (tuple(max(gi - mi, 0) for gi, mi in zip(g, m)) for g in self.gens),
        )

    def _least_pure_powers(self) -> tuple[int | None, ...]:
        """Each variable's least pure-power exponent among the generators, or None.

        A generator supported on {i} alone is a power of x_i; the unit
        ideal's generator 1 has empty support and counts for every variable.
        In an antichain each variable has at most one such generator.
        """
        powers: list[int | None] = [None] * self.nvars
        for g in self.gens:
            support = [i for i, e in enumerate(g) if e]
            if len(support) <= 1:
                for i in support or range(self.nvars):
                    powers[i] = g[i]
        return tuple(powers)

    def is_artinian(self) -> bool:
        """True iff every variable has a pure-power generator."""
        return None not in self._least_pure_powers()

    def standard_monomials(self) -> list[Exponent]:
        """All u with x^u outside the ideal, sorted lex.  Requires artinian."""
        bounds = self._least_pure_powers()
        if None in bounds:
            raise ValueError("standard_monomials requires an artinian ideal")
        return [
            u
            for u in itertools.product(*(range(b) for b in bounds))
            if not _has_divisor(self.gens, u)
        ]

    def standard_monomials_up_to(self, bound: int) -> list[Exponent]:
        """All u with total degree <= bound and x^u outside the ideal, sorted lex."""
        return [
            u
            for u in exponents_up_to_degree(self.nvars, _check_int(bound, "bound", 0))
            if not _has_divisor(self.gens, u)
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
        return _minimal(nvars, gens)

    @classmethod
    def loads(cls, text: str) -> MonomialIdeal:
        return cls.from_json(json.loads(text))

    def __repr__(self):
        if self.is_zero():
            return f"MonomialIdeal.zero({self.nvars})"
        return f"MonomialIdeal({self.nvars}, {self.gens})"


def minimalize(nvars: int, gens) -> MonomialIdeal:
    """Canonicalize a generating set to its antichain of minimal generators."""
    _check_int(nvars, "nvars", 0)
    return _minimal(nvars, [check_exponent(g, nvars) for g in gens])


def _minimal(nvars: int, vecs) -> MonomialIdeal:
    # minimalize() for exponent tuples already known to be valid
    minimal: list[Exponent] = []
    for v in sorted(set(vecs)):
        # lex sorted, so no later vector divides an earlier one unless
        # equal; one forward sweep suffices and keeps the order.
        if not _has_divisor(minimal, v):
            minimal.append(v)
    return MonomialIdeal._trusted(nvars, tuple(minimal))


def exponents_up_to_degree(nvars: int, bound: int):
    """Yield all u in N^nvars with total degree <= bound, in lex order.

    An odometer, with no recursion: below the bound the last entry steps
    up; at the bound the last nonzero entry goes to 0 and the one before
    it steps up, and when that is the first entry the walk is done.
    """
    _check_int(nvars, "nvars", 0)
    if _check_int(bound, "bound") < 0:
        return
    if nvars == 0:
        yield ()
        return
    u, total = [0] * nvars, 0
    while True:
        yield tuple(u)
        if total < bound:
            u[-1] += 1
            total += 1
            continue
        j = nvars - 1
        while j > 0 and not u[j]:
            j -= 1
        if j == 0:
            return
        total -= u[j] - 1
        u[j] = 0
        u[j - 1] += 1
