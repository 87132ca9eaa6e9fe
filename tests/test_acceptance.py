"""Acceptance gate: one test per release criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
without -s they still run, pytest just swallows the prints on success.
"""

import itertools
import math
import time

import corpus
import oracles
from staircase import (
    FiberMatrix,
    IdealFamily,
    MonomialIdeal,
    elements_with_j_below,
    descending_chain_max,
    fiber_points,
    hilbert_numerator,
    hull_vertices,
    is_antichain,
    is_atomic,
    ma_decomposes,
    minimalize,
    minkowski_decomposes,
    numerator_fine_count,
    primary_decomposition,
    sagbi_generators,
    verify_s_antichain,
    x_less,
)

DEMO = FiberMatrix(
    (
        (1, 1, 1, 0, 0, 0),
        (0, 3, 2, 1, 0, 0),
        (5, 0, 2, 0, 1, 0),
        (0, 2, 1, 0, 0, 1),
    )
)
DEMO_B1 = (1, 3, 5, 2)
DEMO_B2 = (5, 10, 10, 6)
DEMO_B = tuple(x + y for x, y in zip(DEMO_B1, DEMO_B2))


def _finish(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({label}): {detail}"


def _fiber_corpus():
    """100 seeded (matrix, degree) pairs kept small enough for the oracles."""
    rng = corpus.make_rng("acceptance-fibers")
    out = []
    while len(out) < 100:
        A = corpus.random_matrix(rng, rng.randint(1, 3), rng.randint(1, 5), 3)
        for cap in (2, 1, 0):
            u = tuple(rng.randint(0, cap) for _ in range(A.ncols))
            b = A.apply(u)
            boxes = math.prod(x + 1 for x in b)
            if len(fiber_points(A, b)) <= 12 and boxes <= 400:
                break
        out.append((A, b))
    return out


def test_criterion_1_worked_example_reproduction():
    start = time.perf_counter()
    f1 = set(fiber_points(DEMO, DEMO_B1))
    f2 = set(fiber_points(DEMO, DEMO_B2))
    ok1 = f1 == {(1, 0, 0, 3, 0, 2), (0, 1, 0, 0, 5, 0), (0, 0, 1, 1, 3, 1)}
    ok2 = f2 == {(0, 0, 5, 0, 0, 1), (1, 2, 2, 0, 1, 0), (2, 3, 0, 1, 0, 0)}
    ok3 = minkowski_decomposes(DEMO, DEMO_B, DEMO_B1, DEMO_B2) is True
    split, witness = ma_decomposes(
        MonomialIdeal.zero(6), DEMO, DEMO_B, DEMO_B1, DEMO_B2
    )
    ok4 = split is False and witness == (1, 1, 4, 2, 2, 2)
    ok5 = is_atomic(DEMO, DEMO_B) is False
    elapsed = time.perf_counter() - start
    ok = ok1 and ok2 and ok3 and ok4 and ok5 and elapsed < 10.0
    _finish(
        1,
        "worked example reproduction",
        ok,
        f"fibers={ok1 and ok2} minkowski={ok3} lattice_split={ok4} "
        f"atomic={ok5} {elapsed:.2f}s/10s",
    )


def test_criterion_2_poset_antichain_and_order_axioms():
    start = time.perf_counter()
    family_ok = verify_s_antichain(20) is True
    elems = elements_with_j_below(12)
    below = {p: {q for q in elems if x_less(q, p)} for p in elems}
    irreflexive = all(p not in below[p] for p in elems)
    antisymmetric = all(
        not (q in below[p] and p in below[q]) for p in elems for q in elems
    )
    transitive = all(
        below[q] <= below[p] for p in elems for q in below[p]
    )
    chains_ok = all(
        descending_chain_max(p) <= p[1] - 1 for p in elements_with_j_below(8)
    )
    elapsed = time.perf_counter() - start
    ok = (
        family_ok
        and irreflexive
        and antisymmetric
        and transitive
        and chains_ok
        and elapsed < 5.0
    )
    _finish(
        2,
        "poset antichain and order axioms",
        ok,
        f"antichain(20)={family_ok} axioms={irreflexive and antisymmetric and transitive} "
        f"chain_bounds={chains_ok} {elapsed:.2f}s/5s",
    )


def test_criterion_3_minimalization_and_decomposition_properties():
    rng = corpus.make_rng("acceptance-minimalize")
    bad = []
    for trial in range(500):
        nvars = rng.randint(1, 4)
        vecs = [
            corpus.random_exponent(rng, nvars, 5)
            for _ in range(rng.randint(1, 8))
        ]
        M = minimalize(nvars, vecs)
        pairwise = all(
            not oracles.divides(g, h)
            for g in M.gens
            for h in M.gens
            if g != h
        )
        covered = all(oracles.member(M.gens, v) for v in vecs)
        kept = set(M.gens) <= set(vecs)
        if not (pairwise and covered and kept):
            bad.append(f"minimalize trial {trial}")

    for k in range(2, 13):
        F = IdealFamily.of(
            [minimalize(2, [(a, 0), (0, k - a)]) for a in range(1, k)]
        )
        if not is_antichain(F):
            bad.append(f"two-variable family k={k}")

    rng2 = corpus.make_rng("acceptance-primary")
    for trial in range(200):
        nvars = rng2.randint(1, 3)
        I = corpus.random_ideal(rng2, nvars, 4, 4)
        parts = [C.component.gens for C in primary_decomposition(I)]
        for m in oracles.monomials_up_to(nvars, 10):
            if I.member(m) != oracles.intersection_members(parts, m):
                bad.append(f"primary trial {trial} at {m}")
                break

    ok = not bad
    _finish(
        3,
        "minimalization and decomposition properties",
        ok,
        f"500 minimalize + antichains k<=12 + 200 decompositions, "
        f"failures={bad[:3] if bad else 0}",
    )


def test_criterion_4_hilbert_numerator_vs_direct_count():
    start = time.perf_counter()
    rng = corpus.make_rng("acceptance-hilbert")
    bad = []
    for trial in range(100):
        nvars = rng.randint(1, 3)
        I = corpus.random_ideal(rng, nvars, 4, 4)
        terms = hilbert_numerator(I)
        for b in oracles.monomials_up_to(nvars, 8):
            direct = 0 if I.member(b) else 1
            if numerator_fine_count(terms, b) != direct:
                bad.append(f"trial {trial} at {b}")
                break
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    _finish(
        4,
        "numerator expansion equals direct count",
        ok,
        f"100 ideals, |b|<=8, failures={bad[:3] if bad else 0}, {elapsed:.2f}s/30s",
    )


def test_criterion_5_fiber_and_hull_oracle_equivalence():
    start = time.perf_counter()
    bad = []
    for idx, (A, b) in enumerate(_fiber_corpus()):
        pts = fiber_points(A, b)
        if sorted(pts) != sorted(oracles.box_fiber_points(A.rows, b)):
            bad.append(f"fiber {idx}")
            continue
        if sorted(hull_vertices(pts)) != sorted(
            oracles.hull_vertices_by_definition(pts)
        ):
            bad.append(f"hull {idx}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    _finish(
        5,
        "fiber and hull oracle equivalence",
        ok,
        f"100 matrices, failures={bad[:3] if bad else 0}, {elapsed:.2f}s/60s",
    )


def test_criterion_6_lattice_splitting_implies_minkowski():
    violations = []
    lattice_true = 0
    for idx, (A, b) in enumerate(_fiber_corpus()):
        zero = MonomialIdeal.zero(A.ncols)
        for b1 in itertools.product(*(range(x + 1) for x in b)):
            b2 = tuple(x - y for x, y in zip(b, b1))
            if not fiber_points(A, b1) or not fiber_points(A, b2):
                continue
            split, _ = ma_decomposes(zero, A, b, b1, b2)
            if not split:
                continue
            lattice_true += 1
            if not minkowski_decomposes(A, b, b1, b2):
                violations.append(f"matrix {idx} split {b1}")
    converse = minkowski_decomposes(DEMO, DEMO_B, DEMO_B1, DEMO_B2) and not (
        ma_decomposes(MonomialIdeal.zero(6), DEMO, DEMO_B, DEMO_B1, DEMO_B2)[0]
    )
    ok = not violations and converse
    _finish(
        6,
        "lattice splitting implies minkowski",
        ok,
        f"{lattice_true} lattice splits, violations={violations[:3] if violations else 0}, "
        f"converse_example={converse}",
    )


def test_criterion_7_sagbi_desk_check():
    A = FiberMatrix(((1, 1),))
    basis = sagbi_generators(A, (2, 3), 6)
    basis_ok = basis == [(1, (1,))]
    rng = corpus.make_rng("acceptance-sagbi")
    bad = []
    for _ in range(20):
        u = (rng.randint(0, 8), rng.randint(0, 8))
        product = 2 ** u[0] * 3 ** u[1]
        k, deg = basis[0]
        total = sum(u)
        r, rem = divmod(product, k**total)
        scaled = tuple(x * total for x in deg)
        if rem != 0 or r * k**total != product or scaled != A.apply(u):
            bad.append(f"u={u}")
    ok = basis_ok and not bad
    _finish(
        7,
        "rank-one basis desk check",
        ok,
        f"basis={basis} failures={bad if bad else 0}",
    )


def test_public_names_are_pinned():
    # a refactor keeps the public API: exactly these 50 names, in this order
    import staircase

    names = """
        Exponent Fiber FiberMatrix FiniteOrderIdeal Grading IdealFamily
        MonomialIdeal MonomialPrime PrimaryComponent XDualOrderIdeal
        associated_primes atomic_scan atomicity_ideal descending_chain_max
        divides elements_with_j_below exponents_up_to_degree
        extract_descending_chain fiber fiber_points find_comparable_pair
        group_by_associated_primes hilbert_function hilbert_numerator
        hull_vertices in_hull irreducible_decomposition is_antichain
        is_atomic is_ma_atomic lcm_exponent ma_decomposes ma_fiber
        minimalize minkowski_decomposes monoid_lift numerator_fine_count
        primary_decomposition reachable_degrees refine_by_standard_trace
        s_family sagbi_generators same_hilbert_up_to verify_s_antichain
        vertex_ideal_gens_truncated vertex_ideal_standard x_doi_contains
        x_less young_cocomplement young_complement
    """.split()
    assert len(names) == 50
    assert staircase.__all__ == names
    assert all(hasattr(staircase, name) for name in names)
