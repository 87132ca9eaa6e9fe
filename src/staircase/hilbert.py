"""Multigraded Hilbert functions of monomial quotients.

A grading assigns each variable a column of a nonnegative matrix with
no zero column, so every degree holds finitely many monomials.  The
Hilbert function counts standard monomials per degree; under the fine
grading (one degree coordinate per variable) the generating function is
a signed sum of 2^r lcm terms over generator subsets, divided by
prod(1 - t_i).
"""

from __future__ import annotations

from .fibers import FiberMatrix, _graded, _plan, ma_fiber
from .monomial import (
    Exponent,
    MonomialIdeal,
    _check_int,
    _has_divisor,
    check_exponent,
    lcm_exponent,
)

Grading = FiberMatrix

NUMERATOR_GEN_LIMIT = 20


def hilbert_function(I: MonomialIdeal, D: Grading, b) -> int:
    """Number of monomials of degree b (under D) not in I."""
    return len(ma_fiber(I, D, b))


def hilbert_numerator(I: MonomialIdeal) -> dict[Exponent, int]:
    """Signed lcm terms whose series over prod(1-t_i) counts standard monomials.

    Folds generators one at a time: adjoining g subtracts a copy of the
    accumulated terms shifted to their lcm with g, which realizes the
    alternating sum over generator subsets without materializing 2^r
    subsets explicitly (like terms collect as they appear).
    """
    if I.is_unit():
        raise ValueError("unit ideal: quotient is zero, numerator undefined")
    if len(I.gens) > NUMERATOR_GEN_LIMIT:
        raise ValueError(
            f"{len(I.gens)} generators exceed the {NUMERATOR_GEN_LIMIT}-generator expansion limit"
        )
    terms: dict[Exponent, int] = {(0,) * I.nvars: 1}
    for g in I.gens:
        folded = dict(terms)
        for e, c in terms.items():
            k = lcm_exponent(e, g)
            folded[k] = folded.get(k, 0) - c
        terms = {e: c for e, c in folded.items() if c}
    return terms


def numerator_fine_count(terms: dict[Exponent, int], b) -> int:
    """Coefficient of t^b in terms / prod(1-t_i): sum of coefficients below b.

    b and every term must be exponent vectors of one length; a bad one is
    named in the ValueError.
    """
    b = check_exponent(b)
    for e in terms:
        if len(e) != len(b):
            raise ValueError(f"degree {b} has length {len(b)}, term {e} has length {len(e)}")
        check_exponent(e)
    return sum(c for e, c in terms.items() if _has_divisor((e,), b))


def reachable_degrees(D: Grading, bound: int) -> list[tuple[int, ...]]:
    """All degrees D.u with total coordinate sum <= bound, sorted lex.

    They are the degrees of the grading's graded cover (see
    staircase.fibers) for y = (1, ..., 1) at weight bound, where a
    degree's weight is its coordinate sum; hilbert_function then reads
    their fibers from the same memo.
    """
    return list(_graded(_plan(D), None, _check_int(bound, "bound", 0)))


def same_hilbert_up_to(I: MonomialIdeal, J: MonomialIdeal, D: Grading, bound: int) -> bool:
    """Do I and J have equal Hilbert functions on all degrees with |b| <= bound?"""
    if I.nvars != J.nvars:
        raise ValueError(f"ideals live in {I.nvars} and {J.nvars} variables")
    if I.nvars != D.ncols:
        raise ValueError(f"ideals have {I.nvars} variables, grading has {D.ncols} columns")
    return all(
        hilbert_function(I, D, b) == hilbert_function(J, D, b)
        for b in reachable_degrees(D, bound)
    )
