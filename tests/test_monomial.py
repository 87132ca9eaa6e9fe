import inspect
import json
import sys

import pytest

from staircase import MonomialIdeal, divides, exponents_up_to_degree, lcm_exponent, minimalize

import corpus
import oracles


def test_divides_basic():
    assert divides((1, 0), (1, 2))
    assert not divides((2, 0), (1, 2))
    assert divides((3, 1), (3, 1))


def test_divides_length_mismatch():
    with pytest.raises(ValueError):
        divides((1, 0), (1, 0, 0))


def test_lcm_exponent():
    assert lcm_exponent((2, 0), (1, 1)) == (2, 1)
    assert lcm_exponent((0, 0), (0, 0)) == (0, 0)


def test_lcm_exponent_length_mismatch():
    # zip once stopped at the shorter vector and returned (1,)
    with pytest.raises(ValueError, match="length mismatch: 1 vs 2"):
        lcm_exponent((1,), (1, 2))


def test_minimalize_examples():
    assert minimalize(2, [(2, 0), (1, 1), (2, 1)]).gens == ((1, 1), (2, 0))
    assert minimalize(2, []).is_zero()
    assert minimalize(2, [(0, 0), (1, 2)]).is_unit()


def test_minimalize_random_is_antichain_and_covers():
    rng = corpus.make_rng("minimalize")
    vectors = [corpus.random_exponent(rng, 3, 6) for _ in range(100)]
    I = minimalize(3, vectors)
    gens = I.gens
    for a in gens:
        for b in gens:
            if a != b:
                assert not oracles.divides(a, b)
    for v in vectors:
        assert oracles.member(gens, v)


def test_minimalize_order_insensitive():
    rng = corpus.make_rng("permutation")
    vectors = [corpus.random_exponent(rng, 3, 5) for _ in range(30)]
    base = minimalize(3, vectors)
    for _ in range(5):
        rng.shuffle(vectors)
        assert minimalize(3, vectors) == base


def test_minimalize_idempotent():
    rng = corpus.make_rng("idempotent")
    for _ in range(20):
        I = corpus.random_ideal(rng, 3, 5, 6)
        assert minimalize(3, I.gens) == I


def test_degenerate_representations():
    zero = MonomialIdeal.zero(2)
    unit = MonomialIdeal.unit(2)
    assert zero.gens == ()
    assert unit.gens == ((0, 0),)
    assert not zero.member((0, 0))
    assert unit.member((0, 0))
    assert unit.contains(zero)
    assert not zero.contains(unit)
    assert zero.intersect(unit) == zero
    assert zero.sum(unit) == unit
    assert unit.is_artinian()
    assert not zero.is_artinian()
    assert unit.standard_monomials() == []


def test_member_examples():
    I = minimalize(2, [(2, 0), (1, 1)])
    assert I.member((2, 1))
    assert not I.member((0, 3))
    assert not MonomialIdeal.zero(2).member((5, 5))


def test_member_dimension_mismatch():
    with pytest.raises(ValueError):
        minimalize(2, [(1, 0)]).member((1, 0, 0))


def test_contains_examples():
    I = minimalize(2, [(1, 0)])
    J = minimalize(2, [(2, 0), (1, 1)])
    assert I.contains(J)
    assert not J.contains(I)
    assert I.contains(I)


def test_containment_antisymmetry_random():
    rng = corpus.make_rng("antisym")
    for _ in range(50):
        I = corpus.random_ideal(rng, 3, 4, 5)
        J = corpus.random_ideal(rng, 3, 4, 5)
        if I.contains(J) and J.contains(I):
            assert I == J


def test_partial_order_dunders():
    I = minimalize(2, [(2, 0), (1, 1)])
    J = minimalize(2, [(1, 0)])
    assert I <= J and I < J
    assert not (J <= I)
    assert I <= I and not (I < I)


def test_sum_intersect_quotient_examples():
    assert minimalize(2, [(2, 0)]).intersect(minimalize(2, [(0, 1)])).gens == ((2, 1),)
    I = minimalize(2, [(2, 0), (1, 1)])
    assert I.intersect(minimalize(2, [(1, 0)])) == I
    assert I.quotient((1, 0)).gens == ((0, 1), (1, 0))


def test_quotient_oracle():
    rng = corpus.make_rng("quotient")
    for _ in range(30):
        I = corpus.random_ideal(rng, 2, 4, 4)
        m = corpus.random_exponent(rng, 2, 2)
        Q = I.quotient(m)
        for t in oracles.monomials_up_to(2, 4):
            shifted = tuple(a + c for a, c in zip(t, m))
            assert Q.member(t) == I.member(shifted)


def test_sum_intersect_oracle():
    rng = corpus.make_rng("lattice-ops")
    for _ in range(30):
        I = corpus.random_ideal(rng, 3, 4, 4)
        J = corpus.random_ideal(rng, 3, 4, 4)
        S = I.sum(J)
        X = I.intersect(J)
        for m in oracles.monomials_up_to(3, 8):
            assert S.member(m) == (I.member(m) or J.member(m))
            assert X.member(m) == (I.member(m) and J.member(m))


def test_is_artinian():
    assert minimalize(2, [(2, 0), (0, 3)]).is_artinian()
    assert not minimalize(2, [(1, 0)]).is_artinian()
    assert minimalize(2, [(2, 0), (1, 1), (0, 2)]).is_artinian()


def test_pure_powers_against_definition():
    # one pass gives each variable's least pure power; is_artinian,
    # standard_monomials and PrimaryComponent read it
    rng = corpus.make_rng("pure-powers")
    ideals = [MonomialIdeal.unit(3), MonomialIdeal.zero(2), MonomialIdeal.unit(0)]
    for nvars in range(1, 5):
        ideals += [corpus.random_ideal(rng, nvars, 2, 6, proper=False) for _ in range(10)]
        ideals += [corpus.random_artinian_ideal(rng, nvars, 3, 3) for _ in range(5)]
    artinian = 0
    for I in ideals:
        expected = tuple(
            min(
                (g[i] for g in I.gens if all(e == 0 for k, e in enumerate(g) if k != i)),
                default=None,
            )
            for i in range(I.nvars)
        )
        assert I._least_pure_powers() == expected, I
        assert I.is_artinian() == (None not in expected)
        if I.is_artinian():
            artinian += 1
            box = oracles.monomials_up_to(I.nvars, sum(expected))
            standard = sorted(u for u in box if not oracles.member(I.gens, u))
            assert I.standard_monomials() == standard
        else:
            with pytest.raises(ValueError, match="artinian"):
                I.standard_monomials()
    assert 5 < artinian < len(ideals)


def test_standard_monomials():
    I = minimalize(2, [(2, 0), (0, 2)])
    assert sorted(I.standard_monomials()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert minimalize(2, [(1, 0), (0, 1)]).standard_monomials() == [(0, 0)]
    assert sorted(minimalize(2, [(1, 0)]).standard_monomials_up_to(2)) == [
        (0, 0),
        (0, 1),
        (0, 2),
    ]


def test_exponents_up_to_degree_rejects_negative_nvars():
    # a negative nvars once died with IndexError at u[-1]
    for bound in (-1, 0, 2):
        with pytest.raises(ValueError, match="nvars must be nonnegative"):
            list(exponents_up_to_degree(-1, bound))


def test_exponents_up_to_degree_in_lex_order_without_recursion():
    for nvars in range(5):
        for bound in range(5):
            expected = list(oracles.monomials_up_to(nvars, bound))
            assert list(exponents_up_to_degree(nvars, bound)) == expected
        # no vector, not even (), has a negative total degree
        assert list(exponents_up_to_degree(nvars, -1)) == []
    # one level per variable once ran out of stack on 1,200 variables
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        wide = list(exponents_up_to_degree(1200, 1))
        standard = minimalize(1200, [(1,) + (0,) * 1199]).standard_monomials_up_to(0)
    finally:
        sys.setrecursionlimit(limit)
    units = [tuple(int(j == i) for j in range(1200)) for i in reversed(range(1200))]
    assert wide == [(0,) * 1200] + units
    assert standard == [(0,) * 1200]


def test_standard_monomials_requires_artinian():
    with pytest.raises(ValueError):
        minimalize(2, [(1, 0)]).standard_monomials()


def test_standard_trace_reversal_random():
    rng = corpus.make_rng("std-reversal")
    for _ in range(25):
        I = corpus.random_artinian_ideal(rng, 2, 6, 2)
        J = corpus.random_artinian_ideal(rng, 2, 6, 2)
        lhs = I.contains(J)
        rhs = set(I.standard_monomials()) <= set(J.standard_monomials())
        assert lhs == rhs


def test_json_round_trip():
    I = minimalize(2, [(2, 0), (1, 1)])
    data = json.loads(json.dumps(I.to_json()))
    assert MonomialIdeal.from_json(data) == I


def test_json_minimalizes_and_rejects_negatives():
    assert MonomialIdeal.from_json({"vars": 2, "gens": [[2, 0], [2, 1]]}).gens == ((2, 0),)
    with pytest.raises(ValueError):
        MonomialIdeal.from_json({"vars": 2, "gens": [[-1, 0]]})
    with pytest.raises(ValueError):
        MonomialIdeal.from_json({"vars": 2, "gens": [[1, 0, 0]]})
    with pytest.raises(ValueError, match='"vars"'):
        MonomialIdeal.from_json({"vars": True, "gens": [[1]]})


def _passes_public_check(I):
    """The public constructor's full check accepts I and rebuilds it exactly."""
    rebuilt = MonomialIdeal(I.nvars, I.gens)
    return (
        rebuilt == I
        and hash(rebuilt) == hash(I)
        and type(I.gens) is tuple
        and all(type(g) is tuple and all(type(e) is int for e in g) for g in I.gens)
    )


def test_trusted_results_pass_public_check_and_match_oracles():
    rng = corpus.make_rng("trusted-path")
    for nvars in range(1, 5):
        for _ in range(10):
            raw = [corpus.random_exponent(rng, nvars, 4) for _ in range(rng.randint(0, 8))]
            I = minimalize(nvars, raw)
            J = corpus.random_ideal(rng, nvars, 4, 6)
            m = corpus.random_exponent(rng, nvars, 3)
            loaded = MonomialIdeal.from_json({"vars": nvars, "gens": [list(g) for g in raw]})
            cases = [
                (I, raw, lambda u: oracles.member(raw, u)),
                (loaded, raw, lambda u: oracles.member(raw, u)),
                (I.sum(J), I.gens + J.gens,
                 lambda u: oracles.member(I.gens, u) or oracles.member(J.gens, u)),
                (I.intersect(J), [tuple(map(max, g, h)) for g in I.gens for h in J.gens],
                 lambda u: oracles.intersection_members([I.gens, J.gens], u)),
                (I.quotient(m), [tuple(max(a - b, 0) for a, b in zip(g, m)) for g in I.gens],
                 lambda u: oracles.member(I.gens, tuple(a + b for a, b in zip(u, m)))),
            ]
            for result, generators, member in cases:
                assert _passes_public_check(result), result
                assert result.gens == oracles.minimal_gens(generators)
                for u in oracles.monomials_up_to(nvars, 5):
                    assert result.member(u) == member(u), (result, u)


def test_public_paths_still_reject_bad_input():
    for gens in ([(True, 0)], [(1, -1)], [(1, 0, 0)], [(1,)]):
        with pytest.raises(ValueError):
            MonomialIdeal(2, tuple(gens))
        with pytest.raises(ValueError):
            minimalize(2, gens)
    with pytest.raises(ValueError, match="canonical"):
        MonomialIdeal(2, ((1, 0), (0, 1)))  # unsorted
    with pytest.raises(ValueError, match="canonical"):
        MonomialIdeal(2, ((0, 1), (0, 1)))  # repeated
    with pytest.raises(ValueError, match="antichain"):
        MonomialIdeal(2, ((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        minimalize(-1, [])
    I = minimalize(2, [(1, 0)])
    for m in ((True, 0), (1, -1), (1, 0, 0)):
        with pytest.raises(ValueError):
            I.member(m)
        with pytest.raises(ValueError):
            I.quotient(m)
