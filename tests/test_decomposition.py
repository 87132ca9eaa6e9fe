from collections import Counter

import pytest

from staircase import (
    MonomialIdeal,
    MonomialPrime,
    PrimaryComponent,
    associated_primes,
    exponents_up_to_degree,
    irreducible_decomposition,
    minimalize,
    primary_decomposition,
)
from staircase import decomposition
from staircase.decomposition import _irreducible_vectors

import corpus
import oracles


def gens_of(components):
    return sorted(C.gens for C in components)


def test_irreducible_examples():
    I = minimalize(2, [(2, 0), (1, 1)])
    assert gens_of(irreducible_decomposition(I)) == [((0, 1), (2, 0)), ((1, 0),)]
    assert gens_of(irreducible_decomposition(minimalize(2, [(1, 1)]))) == [
        ((0, 1),),
        ((1, 0),),
    ]
    already = minimalize(2, [(2, 0), (0, 3)])
    assert irreducible_decomposition(already) == [already]


def test_irreducible_intersection_equals_input():
    I = minimalize(2, [(2, 0), (1, 1)])
    comps = irreducible_decomposition(I)
    for m in oracles.monomials_up_to(2, 6):
        assert I.member(m) == oracles.intersection_members([C.gens for C in comps], m)


def test_degenerate_inputs_rejected():
    for func in (irreducible_decomposition, associated_primes, primary_decomposition):
        with pytest.raises(ValueError, match="zero ideal does not decompose"):
            func(MonomialIdeal.zero(2))
        with pytest.raises(ValueError, match="unit ideal does not decompose"):
            func(MonomialIdeal.unit(2))


def test_components_are_pure_power_generated():
    rng = corpus.make_rng("irreducible-shape")
    for _ in range(40):
        I = corpus.random_ideal(rng, 3, 4, 4)
        for C in irreducible_decomposition(I):
            for g in C.gens:
                assert sum(1 for e in g if e > 0) == 1


def test_irredundance_of_irreducibles():
    rng = corpus.make_rng("irredundant")
    for _ in range(40):
        I = corpus.random_ideal(rng, 3, 4, 4)
        comps = irreducible_decomposition(I)
        for i in range(len(comps)):
            for j in range(len(comps)):
                if i != j:
                    assert not comps[i].contains(comps[j])


def test_associated_primes_examples():
    I = minimalize(2, [(2, 0), (1, 1)])
    assert [p.generators for p in associated_primes(I)] == [(0,), (0, 1)]
    assert [p.generators for p in associated_primes(minimalize(2, [(2, 0), (0, 3)]))] == [
        (0, 1)
    ]
    assert [p.generators for p in associated_primes(minimalize(2, [(1, 1)]))] == [
        (0,),
        (1,),
    ]


def test_associated_primes_permutation_equivariant():
    rng = corpus.make_rng("prime-permute")
    perm = (2, 0, 1)
    for _ in range(25):
        I = corpus.random_ideal(rng, 3, 4, 4)
        relabeled = minimalize(3, [tuple(g[perm[i]] for i in range(3)) for g in I.gens])
        direct = {frozenset(perm.index(i) for i in p.generators) for p in associated_primes(I)}
        mapped = {frozenset(p.generators) for p in associated_primes(relabeled)}
        assert direct == mapped


def test_primary_examples():
    I = minimalize(2, [(2, 0), (1, 1)])
    pd = primary_decomposition(I)
    assert [(pc.prime.generators, pc.component.gens) for pc in pd] == [
        ((0,), ((1, 0),)),
        ((0, 1), ((0, 1), (2, 0))),
    ]
    art = minimalize(2, [(2, 0), (1, 1), (0, 2)])
    pd_art = primary_decomposition(art)
    assert len(pd_art) == 1 and pd_art[0].component == art


def test_primary_mixed_three_variables():
    I = minimalize(3, [(2, 1, 0), (1, 0, 1)])
    pd = primary_decomposition(I)
    assert [(pc.prime.generators, pc.component.gens) for pc in pd] == [
        ((0,), ((1, 0, 0),)),
        ((0, 2), ((0, 0, 1), (2, 0, 0))),
        ((1, 2), ((0, 0, 1), (0, 1, 0))),
    ]
    for m in oracles.monomials_up_to(3, 8):
        assert I.member(m) == oracles.intersection_members(
            [pc.component.gens for pc in pd], m
        )


def test_primary_intersection_oracle_random():
    rng = corpus.make_rng("primary-oracle")
    for _ in range(60):
        I = corpus.random_ideal(rng, 3, 5, 4)
        pd = primary_decomposition(I)
        for m in oracles.monomials_up_to(3, 10):
            assert I.member(m) == oracles.intersection_members(
                [pc.component.gens for pc in pd], m
            )


def test_one_component_per_prime():
    rng = corpus.make_rng("one-per-prime")
    for _ in range(40):
        I = corpus.random_ideal(rng, 3, 4, 4)
        pd = primary_decomposition(I)
        primes = [pc.prime for pc in pd]
        assert len(primes) == len(set(primes))
        assert set(primes) == set(associated_primes(I))


def test_dropping_a_component_enlarges_intersection():
    rng = corpus.make_rng("drop-one")
    checked = 0
    for _ in range(40):
        I = corpus.random_ideal(rng, 3, 4, 4)
        pd = primary_decomposition(I)
        if len(pd) < 2:
            continue
        checked += 1
        for skip in range(len(pd)):
            rest = [pc.component.gens for k, pc in enumerate(pd) if k != skip]
            grew = any(
                oracles.intersection_members(rest, m) and not I.member(m)
                for m in oracles.monomials_up_to(3, 10)
            )
            assert grew, f"component {skip} was redundant"
    assert checked >= 10


def test_primary_component_artinian_on_its_support():
    rng = corpus.make_rng("support-artinian")
    for _ in range(30):
        I = corpus.random_ideal(rng, 3, 4, 4)
        for pc in primary_decomposition(I):
            support = pc.prime.generators
            restricted = minimalize(
                len(support), [tuple(g[i] for i in support) for g in pc.component.gens]
            )
            assert restricted.is_artinian()


def test_prime_validation():
    with pytest.raises(ValueError):
        MonomialPrime(2, frozenset({5}))
    p = MonomialPrime(3, frozenset({1}))
    assert p.generators == (0, 2)
    assert p.as_ideal().gens == ((0, 0, 1), (1, 0, 0))
    assert MonomialPrime(3, frozenset({0, 1, 2})).as_ideal() == MonomialIdeal.zero(3)
    assert MonomialPrime(3, frozenset()).as_ideal() == MonomialIdeal(
        3, ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    )


def test_primary_component_validation():
    prime = MonomialPrime(3, frozenset({1}))  # generated by x_0 and x_2
    ok = minimalize(3, [(2, 0, 0), (1, 0, 1), (0, 0, 3)])
    assert PrimaryComponent(prime, ok).component == ok
    with pytest.raises(ValueError, match="different rings"):
        PrimaryComponent(prime, minimalize(2, [(2, 0), (0, 3)]))
    # x_1 is in the support, but not among the prime's variables
    with pytest.raises(ValueError, match="does not match prime variables"):
        PrimaryComponent(prime, minimalize(3, [(2, 0, 0), (0, 1, 1), (0, 0, 3)]))
    # x_2 only appears with x_0, so the component has no pure power of it
    with pytest.raises(ValueError, match="no pure power of variable 2"):
        PrimaryComponent(prime, minimalize(3, [(2, 0, 0), (1, 0, 1)]))
    # the unit ideal is primary to the zero ideal's prime, with no variables
    unit = MonomialIdeal.unit(2)
    assert PrimaryComponent(MonomialPrime(2, frozenset({0, 1})), unit).component == unit


# The 18-generator ideal in 6 variables from the ROADMAP's probes, the
# slowest decomposition the benchmark runs.
ROADMAP_18 = minimalize(6, [
    (0, 3, 3, 2, 2, 2), (0, 3, 4, 4, 0, 3), (1, 0, 1, 4, 1, 0), (1, 0, 3, 0, 3, 1),
    (1, 1, 3, 0, 3, 0), (1, 3, 0, 4, 4, 3), (1, 3, 1, 0, 4, 3), (1, 3, 2, 1, 3, 4),
    (2, 0, 1, 3, 4, 3), (2, 3, 3, 1, 1, 4), (3, 1, 0, 4, 4, 3), (3, 3, 0, 0, 3, 1),
    (3, 3, 1, 3, 0, 2), (3, 3, 4, 0, 2, 4), (4, 0, 4, 3, 0, 0), (4, 2, 0, 2, 3, 3),
    (4, 4, 4, 1, 0, 4), (4, 4, 4, 2, 0, 3),
])


def test_decompositions_match_splitting_reference():
    rng = corpus.make_rng("splitting-reference")
    ideals = [ROADMAP_18]
    for nvars in range(1, 7):
        for _ in range(12):
            ideals.append(corpus.random_ideal(rng, nvars, 4, 18))
    for I in ideals:
        if I.is_unit():
            continue
        reference = oracles.irreducible_by_splitting(I.nvars, I.gens)
        primary = oracles.primary_by_grouping(reference)
        assert [C.gens for C in irreducible_decomposition(I)] == reference, I
        assert [
            (pc.prime.generators, pc.component.gens) for pc in primary_decomposition(I)
        ] == primary, I
        assert [p.generators for p in associated_primes(I)] == [sup for sup, _ in primary]


def test_trusted_components_pass_public_check():
    rng = corpus.make_rng("trusted-components")
    ideals = [ROADMAP_18]
    for nvars in range(1, 6):
        ideals += [corpus.random_ideal(rng, nvars, 4, 10) for _ in range(8)]
    for I in ideals:
        if I.is_unit():
            continue
        irreducible = irreducible_decomposition(I)
        primary = primary_decomposition(I)
        for C in irreducible + [pc.component for pc in primary]:
            assert MonomialIdeal(C.nvars, C.gens) == C, C
        for pc in primary:
            assert PrimaryComponent(pc.prime, pc.component) == pc, pc
        for prime in associated_primes(I) + [pc.prime for pc in primary]:
            assert MonomialPrime(prime.nvars, prime.tau) == prime, prime
        reference = oracles.irreducible_by_splitting(I.nvars, I.gens)
        assert [C.gens for C in irreducible] == reference
        assert [
            (pc.prime.generators, pc.component.gens) for pc in primary
        ] == oracles.primary_by_grouping(reference)


def test_primary_decomposition_runs_no_public_component_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("a public check or MonomialIdeal.intersect ran")

    monkeypatch.setattr(PrimaryComponent, "__post_init__", refuse)
    monkeypatch.setattr(MonomialPrime, "__post_init__", refuse)
    # the components come from the decomposition kernel, not from an intersect fold
    monkeypatch.setattr(MonomialIdeal, "intersect", refuse)
    pd = primary_decomposition(ROADMAP_18)
    assert pd and all(isinstance(pc, PrimaryComponent) for pc in pd)
    assert associated_primes(ROADMAP_18) == [pc.prime for pc in pd]


def test_primary_by_duality_matches_intersect_fold_on_8_variables():
    # 8 variables and 40-60 minimal generators: 130-180 primary components,
    # about 0.7 s each for the pairwise-lcm fold of the oracle
    rng = corpus.make_rng("primary-8-variables")
    for _ in range(3):
        size, I = rng.randint(40, 60), MonomialIdeal.zero(8)
        while len(I.gens) < size:
            g = corpus.random_exponent(rng, 8, 4)
            if any(g):
                I = minimalize(8, I.gens + (g,))
        reference = oracles.primary_by_grouping([C.gens for C in irreducible_decomposition(I)])
        assert [
            (pc.prime.generators, pc.component.gens) for pc in primary_decomposition(I)
        ] == reference, I


def test_corner_test_matches_pairwise_prune():
    rng = corpus.make_rng("pairwise-prune")
    ideals = [ROADMAP_18]
    for nvars in range(1, 7):
        ideals += [corpus.random_ideal(rng, nvars, 4, 18) for _ in range(20)]
    # 7 variables and 30-35 minimal generators, too slow for the splitting oracle
    for _ in range(10):
        size, I = rng.randint(30, 35), MonomialIdeal.zero(7)
        while len(I.gens) < size:
            g = corpus.random_exponent(rng, 7, 4)
            if any(g):
                I = minimalize(7, I.gens + (g,))
        ideals.append(I)
    for I in ideals:
        assert sorted(_irreducible_vectors(I)) == oracles.irreducible_by_pairwise_prune(
            I.nvars, I.gens
        ), I


def test_witness_lists_on_antichains_match_pairwise_prune():
    # antichains of 40-60 monomials of total degree 8 in 6 variables: many
    # components, and each generator is a witness for many of them
    rng = corpus.make_rng("antichain-witnesses")
    degree_8 = [u for u in exponents_up_to_degree(6, 8) if sum(u) == 8]
    for _ in range(8):
        gens = rng.sample(degree_8, rng.randint(40, 60))
        I = minimalize(6, gens)
        assert len(I.gens) == len(gens)  # monomials of one degree form an antichain
        assert sorted(_irreducible_vectors(I)) == oracles.irreducible_by_pairwise_prune(
            I.nvars, I.gens
        ), I


def _degree_draws(rng, nvars, degree, size):
    """Up to size distinct exponents, each the variable counts of degree draws."""
    draws = (rng.choices(range(nvars), k=degree) for _ in range(5 * size))
    return list(dict.fromkeys(tuple(c.count(i) for i in range(nvars)) for c in draws))[:size]


def test_witness_masks_match_witness_lists():
    # each mask has one bit per generator, so ideals past 64 generators
    # take masks wider than a machine word
    rng = corpus.make_rng("witness-masks")
    ideals = [ROADMAP_18]
    for nvars in range(1, 9):
        ideals += [corpus.random_ideal(rng, nvars, 4, 30) for _ in range(10)]
    for nvars, degree, size in ((2, 99, 100), (3, 12, 70), (6, 8, 66)):
        pool = [u for u in exponents_up_to_degree(nvars, degree) if sum(u) == degree]
        ideals.append(minimalize(nvars, rng.sample(pool, size)))
    # degree-10 draws in 7 and 8 variables, the shape of the CI's 200-generator ideal
    ideals += [minimalize(7, _degree_draws(rng, 7, 10, 100))]
    ideals += [minimalize(8, _degree_draws(rng, 8, 10, 120))]
    wide = 0
    for I in ideals:
        if I.is_unit():
            continue
        assert _irreducible_vectors(I) == oracles.irreducible_by_witness_lists(
            I.nvars, I.gens
        ), I
        wide += len(I.gens) > 64
    assert wide == 5


def test_primary_decomposition_dualizes_only_groups_of_two_or_more(monkeypatch):
    rng = corpus.make_rng("singleton-groups")
    ideals = [ROADMAP_18]
    for nvars in range(1, 7):
        ideals += [corpus.random_ideal(rng, nvars, 4, 12) for _ in range(12)]
    ideals += [minimalize(8, _degree_draws(rng, 8, 6, 30)) for _ in range(3)]
    kernel, calls = decomposition._irreducible_vectors, []

    def counted(I):
        calls.append(I)
        return kernel(I)

    monkeypatch.setattr(decomposition, "_irreducible_vectors", counted)
    singles = dualized = 0
    for I in ideals:
        if I.is_unit():
            continue
        irreducible = [C.gens for C in irreducible_decomposition(I)]
        sizes = Counter(tuple(sorted(g.index(max(g)) for g in C)) for C in irreducible)
        calls.clear()
        primary = primary_decomposition(I)
        assert len(calls) == 1 + sum(n >= 2 for n in sizes.values()), I
        assert [
            (pc.prime.generators, pc.component.gens) for pc in primary
        ] == oracles.primary_by_grouping(irreducible), I
        singles += sum(n == 1 for n in sizes.values())
        dualized += sum(n >= 2 for n in sizes.values())
    assert singles >= 50 and dualized >= 50
