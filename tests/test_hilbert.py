import pytest

from staircase import (
    FiberMatrix,
    Grading,
    MonomialIdeal,
    hilbert_function,
    hilbert_numerator,
    minimalize,
    numerator_fine_count,
    reachable_degrees,
    same_hilbert_up_to,
)

import corpus
import oracles


def identity_grading(n):
    return Grading(tuple(tuple(1 if k == i else 0 for k in range(n)) for i in range(n)))


def test_function_examples():
    I = minimalize(2, [(2, 0), (1, 1)])
    D = Grading(((1, 1),))
    assert hilbert_function(I, D, (2,)) == 1
    assert hilbert_function(I, D, (0,)) == 1
    assert hilbert_function(MonomialIdeal.unit(2), D, (4,)) == 0


def test_function_dimension_mismatch():
    with pytest.raises(ValueError):
        hilbert_function(minimalize(2, [(1, 0)]), Grading(((1, 1, 1),)), (2,))


def test_function_counts_against_enumeration():
    rng = corpus.make_rng("hf-count")
    for _ in range(20):
        I = corpus.random_ideal(rng, 3, 3, 4)
        D = corpus.random_matrix(rng, 2, 3, 2)
        for u in oracles.monomials_up_to(3, 3):
            b = D.apply(u)
            expected = sum(
                1
                for v in oracles.box_fiber_points(D.rows, b)
                if not oracles.member(I.gens, v)
            )
            assert hilbert_function(I, D, b) == expected


def test_numerator_examples():
    I = minimalize(2, [(2, 0), (1, 1)])
    assert hilbert_numerator(I) == {(0, 0): 1, (2, 0): -1, (1, 1): -1, (2, 1): 1}
    assert hilbert_numerator(MonomialIdeal.zero(2)) == {(0, 0): 1}
    assert hilbert_numerator(minimalize(2, [(1, 0)])) == {(0, 0): 1, (1, 0): -1}


def test_numerator_rejects_unit_and_large():
    with pytest.raises(ValueError):
        hilbert_numerator(MonomialIdeal.unit(2))
    wide = minimalize(21, [tuple(2 if k == i else 0 for k in range(21)) for i in range(21)])
    with pytest.raises(ValueError):
        hilbert_numerator(wide)


def test_numerator_constant_term():
    rng = corpus.make_rng("numer-const")
    for _ in range(30):
        I = corpus.random_ideal(rng, 3, 4, 5)
        terms = hilbert_numerator(I)
        assert terms[(0, 0, 0)] == 1


def test_numerator_matches_fine_membership():
    rng = corpus.make_rng("numer-fine")
    for _ in range(40):
        I = corpus.random_ideal(rng, 3, 4, 5)
        terms = hilbert_numerator(I)
        for b in oracles.monomials_up_to(3, 8):
            assert numerator_fine_count(terms, b) == (0 if I.member(b) else 1)


def test_numerator_fine_count_rejects_a_degree_that_is_no_exponent():
    # (0.5, 0) once counted as lying above the constant term, giving 1
    for b in ((0.5, 0), (-1, 0), (True, 0)):
        with pytest.raises(ValueError, match="exponent vector"):
            numerator_fine_count({(0, 0): 1}, b)


def test_numerator_fine_count_rejects_a_term_that_is_no_exponent():
    # {(0.5, 0): 1, (True, 0): 2} once counted 3 below (1, 0)
    for terms, bad in (
        ({(0.5, 0): 1, (True, 0): 2}, r"\(0\.5, 0\)"),
        ({(0, 0): 1, (True, 0): 2}, r"\(True, 0\)"),
        ({(0, 0): 1, (-1, 0): -1}, r"\(-1, 0\)"),
    ):
        with pytest.raises(ValueError, match=f"exponent vector {bad}"):
            numerator_fine_count(terms, (1, 0))


def test_numerator_fine_count_rejects_a_degree_of_another_length():
    terms = hilbert_numerator(minimalize(2, [(2, 0), (1, 1)]))
    assert numerator_fine_count(terms, (1, 0)) == 1
    for b in ((3,), (1, 0, 0)):
        with pytest.raises(ValueError, match=f"has length {len(b)}, term .* has length 2"):
            numerator_fine_count(terms, b)


def test_numerator_additivity():
    rng = corpus.make_rng("numer-add")
    tried = 0
    for _ in range(500):
        if tried >= 20:
            break
        I = corpus.random_ideal(rng, 2, 4, 3)
        m = corpus.random_exponent(rng, 2, 3)
        if I.member(m) or I.is_unit() or not any(m):
            continue
        tried += 1
        bigger = I.sum(minimalize(2, [m]))
        colon = I.quotient(m)
        lhs = hilbert_numerator(bigger)
        rhs = dict(hilbert_numerator(I))
        for e, c in hilbert_numerator(colon).items():
            key = tuple(x + y for x, y in zip(e, m))
            rhs[key] = rhs.get(key, 0) - c
        rhs = {e: c for e, c in rhs.items() if c}
        assert lhs == rhs
    assert tried >= 20


def test_reachable_degrees():
    D = Grading(((1, 2),))
    assert reachable_degrees(D, 4) == [(0,), (1,), (2,), (3,), (4,)]
    D2 = Grading(((2, 3),))
    assert reachable_degrees(D2, 7) == [(0,), (2,), (3,), (4,), (5,), (6,), (7,)]
    with pytest.raises(ValueError):
        reachable_degrees(D, -1)


def _walk_gradings():
    rng = corpus.make_rng("reachable-walk")
    gradings = [identity_grading(n) for n in (1, 2, 3)]
    gradings.append(Grading(((2, 3),)))
    for _ in range(6):
        n = rng.randint(2, 4)
        # a row of ones over a row of entries 0..2, often with zeros
        gradings.append(Grading(((1,) * n, tuple(rng.randint(0, 2) for _ in range(n)))))
    for _ in range(6):
        D = corpus.random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), 3)
        gradings.append(Grading(D.rows + ((0,) * D.ncols,)))  # and a zero row
    return gradings


def test_reachable_degrees_against_walk():
    # the bounds rise and fall, so a cover grown for a larger bound answers
    # the smaller ones after it
    for D in _walk_gradings():
        for bound in (3, 0, 7, 5, 8, 1):
            assert reachable_degrees(D, bound) == oracles.reachable_degrees_by_walk(
                D.rows, bound
            ), (D, bound)


def test_same_hilbert_examples():
    D = Grading(((1, 1),))
    assert same_hilbert_up_to(minimalize(2, [(1, 0)]), minimalize(2, [(0, 1)]), D, 10)
    assert not same_hilbert_up_to(minimalize(2, [(1, 0)]), minimalize(2, [(2, 0)]), D, 3)
    I = minimalize(2, [(2, 0), (1, 1)])
    J = minimalize(2, [(2, 0), (0, 2)])
    expected = all(
        hilbert_function(I, D, (k,)) == hilbert_function(J, D, (k,)) for k in range(7)
    )
    assert same_hilbert_up_to(I, J, D, 6) == expected


def test_same_hilbert_dimension_mismatch():
    with pytest.raises(ValueError):
        same_hilbert_up_to(
            minimalize(2, [(1, 0)]), minimalize(3, [(1, 0, 0)]), Grading(((1, 1),)), 3
        )
    with pytest.raises(ValueError, match="ideals have 2 variables, grading has 3 columns"):
        same_hilbert_up_to(
            minimalize(2, [(1, 0)]), minimalize(2, [(0, 1)]), Grading(((1, 1, 1),)), 3
        )


def test_function_permutation_equivariant():
    rng = corpus.make_rng("hf-permute")
    perm = (1, 2, 0)
    for _ in range(15):
        I = corpus.random_ideal(rng, 3, 3, 3)
        D = corpus.random_matrix(rng, 2, 3, 2)
        I2 = minimalize(3, [tuple(g[perm[i]] for i in range(3)) for g in I.gens])
        D2 = FiberMatrix(tuple(tuple(row[perm[i]] for i in range(3)) for row in D.rows))
        for u in oracles.monomials_up_to(3, 3):
            b = D.apply(u)
            assert hilbert_function(I, D, b) == hilbert_function(I2, D2, b)


def test_standard_count_cross_module():
    rng = corpus.make_rng("std-cross")
    for _ in range(15):
        I = corpus.random_artinian_ideal(rng, 3, 4, 2)
        D = identity_grading(3)
        total = sum(
            hilbert_function(I, D, b)
            for b in oracles.monomials_up_to(3, 12)
        )
        assert total == len(I.standard_monomials())
