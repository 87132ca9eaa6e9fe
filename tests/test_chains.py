import pytest

from staircase import (
    IdealFamily,
    MonomialIdeal,
    extract_descending_chain,
    find_comparable_pair,
    group_by_associated_primes,
    is_antichain,
    minimalize,
    refine_by_standard_trace,
)

import corpus
import oracles


def family(*gen_lists, nvars=2):
    return IdealFamily.of(minimalize(nvars, gens) for gens in gen_lists)


def binomial_antichain(k):
    return family(*[[(a, 0), (0, k - a)] for a in range(1, k)])


def test_family_validation():
    with pytest.raises(ValueError):
        IdealFamily((minimalize(2, [(1, 0)]), minimalize(3, [(1, 0, 0)])))
    with pytest.raises(ValueError):
        IdealFamily((minimalize(2, [(1, 0)]), minimalize(2, [(1, 0)])))
    deduped = IdealFamily.of([minimalize(2, [(1, 0)]), minimalize(2, [(1, 0)])])
    assert len(deduped) == 1


def test_family_errors_name_the_member():
    with pytest.raises(ValueError, match="^member 2 has 3 variables, member 0 has 2$"):
        IdealFamily((minimalize(2, [(1, 0)]), minimalize(2, [(0, 1)]), minimalize(3, [(1, 0, 0)])))
    data = [{"vars": 1, "gens": [[1]]}, {"vars": 1, "gens": [[-1]]}]
    with pytest.raises(ValueError, match=r"^member 1: exponent .*-1"):
        IdealFamily.from_json(data)


def test_find_comparable_pair_examples():
    assert find_comparable_pair(family([(1, 0)], [(1, 0), (0, 1)])) == (0, 1)
    assert find_comparable_pair(family([(1, 0)], [(0, 1)])) is None
    assert find_comparable_pair(binomial_antichain(6)) is None


def test_pair_is_sound():
    rng = corpus.make_rng("pair-sound")
    for _ in range(30):
        F = IdealFamily.of(corpus.random_ideal(rng, 2, 4, 3) for _ in range(5))
        pair = find_comparable_pair(F)
        if pair is not None:
            sub, sup = pair
            assert F[sup].contains(F[sub])
            assert F[sub] != F[sup]


def test_is_antichain_examples():
    assert is_antichain(binomial_antichain(6))
    assert not is_antichain(family([(1, 0)], [(2, 0)]))
    assert is_antichain(family([(1, 0)]))
    assert is_antichain(IdealFamily(()))


def test_binomial_antichains_through_12():
    for k in range(2, 13):
        assert is_antichain(binomial_antichain(k))


def test_extract_chain_examples():
    F = family([(1, 0), (0, 1)], [(2, 0), (0, 1)], [(2, 0), (0, 2)], [(1, 0), (0, 2)])
    chain = extract_descending_chain(F)
    assert len(chain) == 3
    for a, b in zip(chain, chain[1:]):
        assert F[a].contains(F[b]) and F[a] != F[b]
    assert len(extract_descending_chain(binomial_antichain(5))) == 1
    I = minimalize(2, [(1, 0)])
    J = minimalize(2, [(0, 1)])
    F2 = IdealFamily.of([I, I.intersect(J), J])
    assert len(extract_descending_chain(F2)) == 2
    assert extract_descending_chain(IdealFamily(())) == []


def test_chain_length_matches_subset_oracle():
    rng = corpus.make_rng("chain-oracle")
    for _ in range(15):
        F = IdealFamily.of(corpus.random_ideal(rng, 2, 3, 3) for _ in range(8))
        chain = extract_descending_chain(F)
        assert len(chain) == oracles.longest_chain_by_subsets(F.members)


def test_chain_matches_recursive_reference():
    # ties are common among small ideals in few variables, and both sides
    # must pick the lexicographically smallest longest chain
    rng = corpus.make_rng("chain-recursive")
    for _ in range(40):
        nvars = rng.randint(1, 3)
        F = IdealFamily.of(
            corpus.random_ideal(rng, nvars, 3, 3) for _ in range(rng.randint(1, 14))
        )
        assert extract_descending_chain(F) == oracles.descending_chain_recursive(F.members)


def test_chain_of_1200_nested_ideals():
    # (x) > (x^2) > ... : a recursive search needs one frame per step
    F = IdealFamily(tuple(minimalize(1, [(k,)]) for k in range(1, 1201)))
    assert extract_descending_chain(F) == list(range(1200))


def test_chain_deterministic():
    F = family([(1, 0), (0, 1)], [(2, 0), (0, 1)], [(2, 0), (0, 2)], [(1, 0), (0, 2)])
    assert extract_descending_chain(F) == extract_descending_chain(F)


def test_refine_by_standard_trace_example():
    pivot = minimalize(2, [(2, 0), (0, 1)])
    F = family([(1, 0), (0, 1)], [(1, 0), (0, 2)], [(2, 0), (0, 2)])
    assert refine_by_standard_trace(F, pivot) == [[0, 1], [2]]


def test_refine_trivial_cases():
    pivot = minimalize(2, [(1, 0), (0, 1)])
    F = family([(1, 0)], [(0, 1)], [(1, 1)])
    # pivot's only standard monomial is 1, contained in none of the members
    assert refine_by_standard_trace(F, pivot) == [[0, 1, 2]]
    assert refine_by_standard_trace(IdealFamily(()), pivot) == []
    with pytest.raises(ValueError):
        refine_by_standard_trace(F, minimalize(2, [(1, 0)]))


def test_refine_rejects_pivot_from_another_ring():
    pivot = minimalize(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    F = family([(1, 0)], [(0, 1)])
    with pytest.raises(ValueError, match="pivot has 3 variables, family members have 2"):
        refine_by_standard_trace(F, pivot)
    assert refine_by_standard_trace(IdealFamily(()), pivot) == []


def test_antichain_members_meet_pivot_standard_monomials():
    rng = corpus.make_rng("trace-nonempty")
    built = 0
    for _ in range(400):
        if built >= 8:
            break
        members = [corpus.random_artinian_ideal(rng, 3, 4, 2) for _ in range(4)]
        F = IdealFamily.of(members)
        if len(F) < 3 or not is_antichain(F):
            continue
        built += 1
        for pivot_idx in range(len(F)):
            pivot = F[pivot_idx]
            std = pivot.standard_monomials()
            for i in range(len(F)):
                if i != pivot_idx:
                    assert any(F[i].member(m) for m in std), (
                        f"member {i} misses every standard monomial of pivot {pivot_idx}"
                    )
    assert built >= 5


def test_group_by_associated_primes_examples():
    F = family([(2, 0), (1, 1)], [(3, 0), (1, 1)], [(1, 0), (0, 1)])
    assert group_by_associated_primes(F) == [[0, 1], [2]]
    single = family([(2, 0), (1, 1)])
    assert group_by_associated_primes(single) == [[0]]
    arts = family([(1, 0), (0, 1)], [(2, 0), (0, 2)], [(3, 0), (1, 1), (0, 3)])
    assert group_by_associated_primes(arts) == [[0, 1, 2]]


def test_group_rejects_degenerates():
    with pytest.raises(ValueError):
        group_by_associated_primes(IdealFamily((MonomialIdeal.zero(2),)))
    with pytest.raises(ValueError):
        group_by_associated_primes(IdealFamily((MonomialIdeal.unit(2),)))


def test_family_json_round_trip():
    F = binomial_antichain(5)
    assert IdealFamily.from_json(F.to_json()) == F
