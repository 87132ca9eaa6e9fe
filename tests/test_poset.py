import inspect
import itertools
import re
import sys

import pytest

from staircase import (
    FiniteOrderIdeal,
    MonomialIdeal,
    XDualOrderIdeal,
    descending_chain_max,
    elements_with_j_below,
    minimalize,
    s_family,
    verify_s_antichain,
    x_doi_contains,
    x_less,
    young_cocomplement,
    young_complement,
)

import corpus
import oracles


def test_x_less_examples():
    assert x_less((1, 2), (1, 5))
    assert x_less((1, 2), (3, 4))
    assert not x_less((1, 2), (2, 3))
    assert not x_less((0, 3), (0, 3))


def test_x_less_validation():
    with pytest.raises(ValueError):
        x_less((2, 2), (0, 1))
    with pytest.raises(ValueError):
        x_less((0, 1), (-1, 2))


def test_x_less_names_an_element_that_is_no_pair_of_integers():
    # bools are no integers here, as in exponent vectors, and a non-pair
    # fails with the element named rather than Python's unpacking error
    for bad in [(False, True), 5, (1,), (0, 1, 2), "ab", None, (0, 1.0)]:
        shown = re.escape(f"element {bad!r} must be a pair of integers")
        with pytest.raises(ValueError, match=shown):
            x_less(bad, (0, 2))
        with pytest.raises(ValueError, match=shown):
            x_less((0, 1), bad)
    assert x_less([0, 1], (0, 2))  # a list pair is a pair


def test_x_less_is_strict_partial_order():
    ground = elements_with_j_below(12)
    for p in ground:
        assert not x_less(p, p)
    less = {(p, q) for p in ground for q in ground if x_less(p, q)}
    for p, q in less:
        assert (q, p) not in less
    for p, q in less:
        for r in ground:
            if (q, r) in less:
                assert (p, r) in less, (p, q, r)


def test_dual_order_ideal_canonicalization():
    d = XDualOrderIdeal.generated_by([(3, 4), (1, 2), (3, 4)])
    assert d.mins == ((1, 2),)
    with pytest.raises(ValueError):
        XDualOrderIdeal(((1, 2), (3, 4)))  # comparable pair
    assert XDualOrderIdeal(((0, 2), (1, 2))).mins == ((0, 2), (1, 2))


def test_x_doi_contains_examples():
    d1 = XDualOrderIdeal.generated_by([(3, 4)])
    d2 = XDualOrderIdeal.generated_by([(1, 2)])
    assert x_doi_contains(d1, d2)
    assert not x_doi_contains(d2, d1)
    assert x_doi_contains(d1, d1)
    assert not x_doi_contains(s_family(3), s_family(2))
    assert not x_doi_contains(s_family(2), s_family(3))


def test_s_family_examples():
    assert s_family(1).mins == ((0, 1),)
    assert s_family(2).mins == ((0, 2), (1, 2))
    assert s_family(4).mins == ((0, 4), (1, 4), (2, 4), (3, 4))
    with pytest.raises(ValueError, match="^slice index must be at least 1$"):
        s_family(0)
    # 1.5, "3" and None once raised a TypeError, in s_family and in
    # elements_with_j_below, and elements_with_j_below(True) gave [(0, 1)]
    for bad in (1.5, "3", None, True):
        with pytest.raises(ValueError, match="slice index must be an integer"):
            s_family(bad)
        with pytest.raises(ValueError, match="j_max must be an integer"):
            elements_with_j_below(bad)


def test_verify_s_antichain():
    assert verify_s_antichain(2)
    assert verify_s_antichain(10)
    with pytest.raises(ValueError, match="^L must be at least 2$"):
        verify_s_antichain(1)
    # 2.5, "3" and None once raised a TypeError
    for bad in (2.5, "3", None, True):
        with pytest.raises(ValueError, match="L must be an integer"):
            verify_s_antichain(bad)


def test_corrupted_family_fails():
    # replacing one slice by another's antichain produces a comparable pair
    ideals = [s_family(2), s_family(2), s_family(4)]
    found = False
    for a, b in itertools.combinations(range(3), 2):
        if x_doi_contains(ideals[a], ideals[b]) or x_doi_contains(ideals[b], ideals[a]):
            found = True
    assert found


def test_descending_chain_max_examples():
    assert descending_chain_max((0, 1)) == 0
    assert descending_chain_max((0, 2)) <= 1
    for p in elements_with_j_below(6):
        assert descending_chain_max(p) <= p[1] - 1


def test_descending_chain_max_is_achieved():
    # cross-check against a plain stack search
    def chains_below(p):
        best = 0
        stack = [(p, 0)]
        while stack:
            top, depth = stack.pop()
            best = max(best, depth)
            for q in elements_with_j_below(top[1] - 1):
                if x_less(q, top):
                    stack.append((q, depth + 1))
        return best

    for p in elements_with_j_below(6):
        assert descending_chain_max(p) == chains_below(p)


def test_descending_chain_max_matches_recursive_definition():
    for p in elements_with_j_below(30):
        assert descending_chain_max(p) == oracles.pair_chain_max_recursive(p), p


def test_descending_chain_max_deep_element_without_recursion():
    # the recursive definition would need about 1200 nested calls here
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        assert descending_chain_max((0, 1200)) == 1199
    finally:
        sys.setrecursionlimit(limit)


def test_antichain_size_bound():
    ground = elements_with_j_below(5)
    for size in range(1, len(ground) + 1):
        for combo in itertools.combinations(ground, size):
            if any(x_less(p, q) or x_less(q, p) for p, q in itertools.combinations(combo, 2)):
                continue
            j0 = min(j for _, j in combo)
            assert len(combo) <= j0 + 1, combo


def test_finite_order_ideal_validation():
    FiniteOrderIdeal(2, ((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        FiniteOrderIdeal(2, ((1, 0),))  # missing (0,0)
    with pytest.raises(ValueError):
        FiniteOrderIdeal(2, ((0, 0), (1, 1)))  # missing (1,0) and (0,1)
    empty = FiniteOrderIdeal(2, ())
    assert not empty.member((0, 0))


def test_finite_order_ideal_issubset():
    small = FiniteOrderIdeal(2, ((0, 0), (1, 0)))
    large = FiniteOrderIdeal(2, ((0, 0), (1, 0), (0, 1)))
    assert small.issubset(large) is True
    assert large.issubset(small) is False
    assert FiniteOrderIdeal(2, ()).issubset(small) is True
    with pytest.raises(ValueError, match="different rings"):
        small.issubset(FiniteOrderIdeal(3, ((0, 0, 0),)))


def test_young_complement_examples():
    O = FiniteOrderIdeal(2, ((0, 0), (1, 0), (0, 1)))
    assert young_complement(O).gens == ((0, 2), (1, 1), (2, 0))
    assert young_complement(FiniteOrderIdeal(2, ((0, 0),))).gens == ((0, 1), (1, 0))
    assert young_complement(FiniteOrderIdeal(2, ())).is_unit()


def test_young_cocomplement_examples():
    I = minimalize(2, [(2, 0), (1, 1), (0, 2)])
    assert young_cocomplement(I).points == ((0, 0), (0, 1), (1, 0))
    assert young_cocomplement(MonomialIdeal.unit(2)).points == ()
    with pytest.raises(ValueError):
        young_cocomplement(minimalize(2, [(1, 0)]))


def test_young_round_trip_random():
    rng = corpus.make_rng("young-roundtrip")
    for _ in range(30):
        I = corpus.random_artinian_ideal(rng, 3, 4, 2)
        assert young_complement(young_cocomplement(I)) == I
    for _ in range(15):
        I = corpus.random_artinian_ideal(rng, 2, 5, 1)
        O = young_cocomplement(I)
        assert young_cocomplement(young_complement(O)) == O


def test_young_complement_against_box_oracle():
    # the round-trip corpora and every order ideal of the 3x3 grid
    rng = corpus.make_rng("young-roundtrip")
    orders = [young_cocomplement(corpus.random_artinian_ideal(rng, 3, 4, 2)) for _ in range(30)]
    orders += [young_cocomplement(corpus.random_artinian_ideal(rng, 2, 5, 1)) for _ in range(15)]
    orders += _grid_order_ideals()
    orders.append(FiniteOrderIdeal(3, ()))
    for O in orders:
        expected = oracles.complement_gens_by_box(O.nvars, O.points)
        assert young_complement(O).gens == expected, O


def test_young_complement_many_variables():
    # the box walk took 2^n steps for {0}; the complement of {0} is the
    # ideal of the variables
    n = 40
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    assert young_complement(FiniteOrderIdeal(n, ((0,) * n,))).gens == tuple(sorted(unit))
    O = FiniteOrderIdeal(n, ((0,) * n, unit[0], tuple(2 * e for e in unit[0])))
    expected = [tuple(3 * e for e in unit[0])] + unit[1:]
    assert young_complement(O).gens == tuple(sorted(expected))


def _grid_order_ideals():
    """The 20 order ideals inside the box [0, 2]^2."""
    box = list(itertools.product(range(3), repeat=2))
    ideals = []
    for mask in range(1 << len(box)):
        pts = tuple(box[i] for i in range(len(box)) if mask >> i & 1)
        have = set(pts)
        closed = all(
            all(q in have for q in box if oracles.divides(q, p))
            for p in pts
        )
        if closed:
            ideals.append(FiniteOrderIdeal(2, pts))
    return ideals


def test_young_reverses_inclusion_in_box():
    # all order ideals inside the box [0,2]^2, pairwise
    ideals = _grid_order_ideals()
    assert len(ideals) == 20  # order ideals of a 3x3 grid: C(6,3)
    complements = [young_complement(O) for O in ideals]
    for a in range(len(ideals)):
        for b in range(len(ideals)):
            forward = set(ideals[a].points) <= set(ideals[b].points)
            reverse = complements[a].contains(complements[b])
            assert forward == reverse, (ideals[a].points, ideals[b].points)


def test_order_ideal_json_round_trip():
    O = FiniteOrderIdeal(2, ((0, 0), (1, 0)))
    assert FiniteOrderIdeal.from_json(O.to_json()) == O
