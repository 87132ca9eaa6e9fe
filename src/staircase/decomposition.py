"""Irreducible and irredundant primary decomposition of monomial ideals.

Every proper nonzero monomial ideal is a finite intersection of ideals
m^a = (x_i^{a_i} : a_i > 0) generated by pure variable powers, and the
irredundant such intersection is unique.  It is built by adding the
generators one at a time, starting from the zero ideal m^0.  Because
sums distribute over intersections of monomial ideals, adding x^g keeps
every component that already contains x^g and replaces each other
component m^a by the components m^{a[i := g_i]}, one for each variable
i dividing x^g, each kept iff its corner is a maximal standard monomial.
Each component keeps, for every finite coordinate, the generators that
witness its corner, as a bitmask over generator positions; a candidate's
masks are its parent's ANDed with the mask of the generators h with
h_i < g_i, plus g's own bit for i, because a witness for j in
m^{a[i := g_i]} is one for j in m^a below g_i, and no earlier generator
can witness i, as it would lie outside m^a.  The m^a of one radical
support s meet in Q_s.  When s has one component m^a, Q_s is m^a.
Otherwise Q_s is built by Alexander duality through the same kernel:
with N their coordinatewise maximum and flip(v)_i = N_i + 1 - v_i where
v_i > 0, else 0, Q_s is generated by the flip(c) for the components m^c
of (x^flip(a)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .monomial import Exponent, MonomialIdeal, _check_int


@dataclass(frozen=True)
class MonomialPrime:
    """Prime monomial ideal determined by its generating variables.

    tau holds the 0-based indices that do NOT generate; the prime is
    generated by {x_i : i not in tau}.  tau = all indices encodes the
    zero ideal's prime and never appears among associated primes of a
    nonzero ideal.
    """

    nvars: int
    tau: frozenset[int]

    def __post_init__(self):
        _check_int(self.nvars, "nvars", 1)
        if not isinstance(self.tau, frozenset):
            object.__setattr__(self, "tau", frozenset(self.tau))
        for i in self.tau:
            _check_int(i, "tau entry")
        if not all(0 <= i < self.nvars for i in self.tau):
            raise ValueError(f"tau {sorted(self.tau)} out of range for {self.nvars} variables")

    @classmethod
    def _trusted(cls, nvars: int, tau: frozenset[int]) -> MonomialPrime:
        """Build without __post_init__: tau must be a frozenset in range(nvars).

        Only for associated_primes() and primary_decomposition(), which take
        tau as the complement of a component's support.
        """
        prime = object.__new__(cls)
        object.__setattr__(prime, "nvars", nvars)
        object.__setattr__(prime, "tau", tau)
        return prime

    @property
    def generators(self) -> tuple[int, ...]:
        """Indices of the generating variables, ascending."""
        return tuple(i for i in range(self.nvars) if i not in self.tau)

    def as_ideal(self) -> MonomialIdeal:
        ones = tuple(int(i not in self.tau) for i in range(self.nvars))
        return MonomialIdeal._trusted(self.nvars, _pure_powers(ones))

    def to_json(self) -> dict:
        return {"tau": sorted(self.tau)}


@dataclass(frozen=True)
class PrimaryComponent:
    """A primary monomial ideal together with its radical prime."""

    prime: MonomialPrime
    component: MonomialIdeal

    def __post_init__(self):
        if self.prime.nvars != self.component.nvars:
            raise ValueError("prime and component live in different rings")
        support = set()
        for g in self.component.gens:
            support.update(_support(g))
        outside = set(self.prime.generators)
        if support != outside:
            raise ValueError(
                f"generator support {sorted(support)} does not match prime variables {sorted(outside)}"
            )
        powers = self.component._least_pure_powers()
        for i in self.prime.generators:
            if powers[i] is None:
                raise ValueError(f"no pure power of variable {i}: component not primary")

    @classmethod
    def _trusted(cls, prime: MonomialPrime, component: MonomialIdeal) -> PrimaryComponent:
        """Build without __post_init__: component must be primary to prime.

        Only for primary_decomposition(): each component is a lone m^a with
        support s or dual to an ideal supported in s, so its generators are
        supported in s and hold a pure power of each x_i, i in s: x_i^{a_i},
        or x_i^{N_i}, the flip of the dual's component (x_i).
        """
        pc = object.__new__(cls)
        object.__setattr__(pc, "prime", prime)
        object.__setattr__(pc, "component", component)
        return pc

    def to_json(self) -> dict:
        return {"tau": sorted(self.prime.tau), "gens": [list(g) for g in self.component.gens]}


def _support(g: Exponent) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(g) if e > 0)


def _irreducible_vectors(I: MonomialIdeal) -> list[Exponent]:
    """Exponent vectors b of the irredundant irreducible components m^b.

    Adds the generators one at a time, keeping each component a with its
    witness masks W_a: for each j with a_j > 0, the bits t of the
    generators h = I.gens[t] added so far with h_j = a_j and h_k < a_k for
    every other k with a_k > 0.  All masks are nonzero, so the corner a - 1
    is a maximal standard monomial.  A component containing x^g stays, and
    g's bit joins W_a[j] iff j is the one coordinate with 0 < a_j <= g_j
    and a_j = g_j.  Each other one gives candidates b = a[i := g_i], i
    dividing x^g = I.gens[t], with W_b[i] = g's bit and W_b[j] = W_a[j] &
    below[i][t], the mask of the generators h with h_i < g_i, kept iff no
    mask is zero: a witness for j in b is one for j in a below g_i, and no
    earlier generator can witness i in b, as it would lie outside m^a.
    """
    if I.is_zero():
        raise ValueError("zero ideal does not decompose")
    if I.is_unit():
        raise ValueError("unit ideal does not decompose")
    gens = I.gens
    below = []
    for col in zip(*gens):
        # one sort per coordinate; ties share the mask of the strictly smaller
        masks, smaller, run, last = [0] * len(gens), 0, 0, None
        for t in sorted(range(len(gens)), key=col.__getitem__):
            if col[t] != last:
                smaller, run, last = smaller | run, 0, col[t]
            masks[t] = smaller
            run |= 1 << t
        below.append(masks)
    comps: list[tuple[Exponent, dict[int, int]]] = [((0,) * I.nvars, {})]
    for t, g in enumerate(gens):
        bit, support = 1 << t, _support(g)
        next_comps = []
        for a, witnesses in comps:
            hit = [j for j in witnesses if a[j] <= g[j]]
            if hit:
                if len(hit) == 1 and a[hit[0]] == g[hit[0]]:
                    witnesses[hit[0]] |= bit
                next_comps.append((a, witnesses))
                continue
            for i in support:
                mask, kept = below[i][t], {i: bit}
                for j, w in witnesses.items():
                    if j != i:
                        w &= mask
                        if not w:
                            break
                        kept[j] = w
                else:
                    next_comps.append((a[:i] + (g[i],) + a[i + 1 :], kept))
        comps = next_comps
    return [a for a, _ in comps]


def _prime(nvars: int, support: tuple[int, ...]) -> MonomialPrime:
    """The prime generated by the variables in support."""
    return MonomialPrime._trusted(nvars, frozenset(range(nvars)).difference(support))


def _flips(N: Exponent, vecs) -> tuple[Exponent, ...]:
    return tuple(sorted(tuple(n + 1 - e if e else 0 for n, e in zip(N, v)) for v in vecs))


def _pure_powers(a: Exponent) -> tuple[Exponent, ...]:
    """Generators of m^a in lex order, which for powers of distinct variables
    is descending index; an antichain, fit for MonomialIdeal._trusted."""
    zero = (0,) * len(a)
    return tuple(zero[:i] + (a[i],) + zero[i + 1 :] for i in reversed(range(len(a))) if a[i])


def irreducible_decomposition(I: MonomialIdeal) -> list[MonomialIdeal]:
    """Irredundant irreducible components, sorted by generator tuples.

    Each component is generated by pure powers of distinct variables and
    none contains another; a component containing any other would be
    redundant in the intersection, and for irreducible components that
    is the only way redundancy can arise.
    """
    gens = sorted(map(_pure_powers, _irreducible_vectors(I)))
    return [MonomialIdeal._trusted(I.nvars, g) for g in gens]


def associated_primes(I: MonomialIdeal) -> list[MonomialPrime]:
    """Radicals of the irreducible components, each listed once."""
    supports = sorted({_support(a) for a in _irreducible_vectors(I)})
    return [_prime(I.nvars, sup) for sup in supports]


def primary_decomposition(I: MonomialIdeal) -> list[PrimaryComponent]:
    """One primary component per associated prime.

    A support s with one irreducible component m^a has Q_s = m^a.  Larger
    groups meet by Alexander duality, as the module docstring says
    (Miller-Sturmfels, ch. 5); flip reverses <= on support s, so the
    flip(a) and flip(c) are antichains.  The result is irredundant because
    the irreducible decomposition is.
    """
    groups: dict[tuple[int, ...], list[Exponent]] = {}
    for a in _irreducible_vectors(I):
        groups.setdefault(_support(a), []).append(a)
    components = []
    for sup in sorted(groups):
        vecs = groups[sup]
        if len(vecs) == 1:
            gens = _pure_powers(vecs[0])
        else:
            N = tuple(map(max, zip(*vecs)))
            dual = MonomialIdeal._trusted(I.nvars, _flips(N, vecs))
            gens = _flips(N, _irreducible_vectors(dual))
        component = MonomialIdeal._trusted(I.nvars, gens)
        components.append(PrimaryComponent._trusted(_prime(I.nvars, sup), component))
    return components
