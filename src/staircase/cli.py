"""Command-line surface: one subcommand per library capability.

Results go to standard output as deterministic JSON (sorted keys); a
one-line human summary with the wall-clock duration goes to standard
error.  Exit codes: 0 success or verification pass, 1 verification
failure, 2 usage or input errors.

The argument parser is built once per process, on the first call to run()
or main(), and reused after that.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import cache

from .chains import (
    IdealFamily,
    extract_descending_chain,
    find_comparable_pair,
    group_by_associated_primes,
    is_antichain,
    refine_by_standard_trace,
)
from .decomposition import associated_primes, irreducible_decomposition, primary_decomposition
from .fibers import (
    FiberMatrix,
    atomic_scan,
    fiber,
    is_atomic,
    ma_decomposes,
    minkowski_decomposes,
    monoid_lift,
    sagbi_generators,
    vertex_ideal_gens_truncated,
    vertex_ideal_standard,
)
from .hilbert import hilbert_function, hilbert_numerator, reachable_degrees
from .monomial import MonomialIdeal
from .poset import (
    FiniteOrderIdeal,
    descending_chain_max,
    elements_with_j_below,
    verify_s_antichain,
    young_cocomplement,
    young_complement,
)


@dataclass
class RunReport:
    command: str
    payload: object
    status: str | None
    duration: float


class InputError(Exception):
    """Bad file, JSON, or field; message carries the offending path."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON ({exc})") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


class _blame:
    """Re-raise a library ValueError as an InputError that names prefix."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: str):
        self.prefix = prefix

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ValueError):
            raise InputError(f"{self.prefix}: {exc}") from exc


def _load(path: str, cls):
    """Read one JSON file and build cls from it; bad content is an InputError."""
    with _blame(path):
        return cls.from_json(_load_json(path))


def _load_sized(path: str, cls, flag: str, size: int, owner: str):
    """_load for flag; the variables of an ideal, or a matrix's columns, must number size."""
    obj = _load(path, cls)
    have, unit = (obj.nvars, "variables") if cls is MonomialIdeal else (obj.ncols, "columns")
    if have != size:
        raise InputError(f"{flag}: {path} has {have} {unit}, {owner}")
    return obj


def _parse_vector(text: str, field: str, length: int, owner: str, signed: bool = False) -> tuple[int, ...]:
    """The integers in text, which must number length; owner says whose length.

    Unless signed, every entry must be nonnegative.
    """
    try:
        u = tuple(int(part) for part in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise InputError(f"{field}: expected comma-separated integers, got {text!r}") from exc
    if len(u) != length:
        raise InputError(f"{field}: {u} has length {len(u)}, {owner}")
    if not signed and min(u) < 0:
        raise InputError(f"{field}: {u} has a negative entry")
    return u


def _int_at_least(least: int):
    """An argparse type: an integer no less than least."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _cmd_ideal(args):
    I = _load(args.ideal, MonomialIdeal)
    owner = f"the ideal has {I.nvars} variables"

    def other(flag, path):
        return _load_sized(path, MonomialIdeal, flag, I.nvars, owner)

    if args.contains is not None:
        return {"contains": I.contains(other("--contains", args.contains))}, None
    if args.intersect is not None:
        return I.intersect(other("--intersect", args.intersect)).to_json(), None
    if args.sum is not None:
        return I.sum(other("--sum", args.sum)).to_json(), None
    flag, text = ("--member", args.member) if args.member is not None else ("--quotient", args.quotient)
    if text is not None:
        u = _parse_vector(text, flag, I.nvars, owner)
        if flag == "--member":
            return {"member": I.member(u)}, None
        return I.quotient(u).to_json(), None
    if args.standard_up_to is not None:
        pts = I.standard_monomials_up_to(args.standard_up_to)
        return {"standard": [list(p) for p in pts]}, None
    return {
        "ideal": I.to_json(),
        "is_artinian": I.is_artinian(),
        "is_unit": I.is_unit(),
        "is_zero": I.is_zero(),
    }, None


def _cmd_decompose(args):
    I = _load(args.ideal, MonomialIdeal)
    with _blame(args.ideal):
        if args.irreducible:
            return [C.to_json() for C in irreducible_decomposition(I)], None
        if args.primes:
            return [p.to_json() for p in associated_primes(I)], None
        return [pc.to_json() for pc in primary_decomposition(I)], None


def _cmd_hilbert(args):
    if args.grading is not None and args.table_bound is None:
        raise InputError("--grading only applies with --table-bound")
    I = _load(args.ideal, MonomialIdeal)
    with _blame(args.ideal):
        numer = hilbert_numerator(I)
    payload = {"numerator": [[list(e), c] for e, c in sorted(numer.items())]}
    if args.table_bound is not None:
        if args.grading is None:
            D = _identity_grading(I.nvars)
        else:
            owner = f"the ideal has {I.nvars} variables"
            D = _load_sized(args.grading, FiberMatrix, "--grading", I.nvars, owner)
        payload["table"] = [
            [list(b), hilbert_function(I, D, b)]
            for b in reachable_degrees(D, args.table_bound)
        ]
    return payload, None


def _identity_grading(n: int) -> FiberMatrix:
    return FiberMatrix(tuple(tuple(1 if k == i else 0 for k in range(n)) for i in range(n)))


def _cmd_antichain(args):
    F = _load(args.family, IdealFamily)
    witness = find_comparable_pair(F)
    ok = witness is None
    payload = {
        "is_antichain": ok,
        "size": len(F),
        "witness": list(witness) if witness else None,
    }
    return payload, ("pass" if ok else "fail")


def _cmd_chain(args):
    F = _load(args.family, IdealFamily)
    if args.refine is not None:
        pivot = _load(args.refine, MonomialIdeal)
        with _blame(f"--refine: {args.refine}"):
            return {"blocks": refine_by_standard_trace(F, pivot)}, None
    if args.group_primes:
        with _blame(args.family):
            return {"blocks": group_by_associated_primes(F)}, None
    chain = extract_descending_chain(F)
    return {"chain": chain, "length": len(chain)}, None


def _cmd_fiber(args):
    A = _load(args.matrix, FiberMatrix)
    f = fiber(A, _parse_vector(args.degree, "-b", A.nrows, f"the matrix has {A.nrows} rows"))
    return {
        "degree": list(f.degree),
        "points": [list(p) for p in f.points],
        "vertices": [list(v) for v in f.vertices],
    }, None


def _cmd_atomic_scan(args):
    A = _load(args.matrix, FiberMatrix)
    M = None
    if args.ideal:
        if args.mode != "lattice":
            raise InputError("--ideal only applies to --mode lattice")
        owner = f"the matrix has {A.ncols} columns"
        M = _load_sized(args.ideal, MonomialIdeal, "--ideal", A.ncols, owner)
    degrees = atomic_scan(A, args.bound, mode=args.mode, M=M)
    return [list(b) for b in degrees], None


def _cmd_sagbi(args):
    A = _load(args.matrix, FiberMatrix)
    owner = f"the matrix has {A.ncols} columns"
    coeffs = _parse_vector(args.coeffs, "--coeffs", A.ncols, owner, signed=True)
    if 0 in coeffs:
        raise InputError(f"--coeffs: {coeffs} has a zero entry")
    pairs = sagbi_generators(A, coeffs, args.bound)
    return [[k, list(b)] for k, b in pairs], None


def _cmd_vertex_ideal(args):
    A = _load(args.matrix, FiberMatrix)
    return {
        "standard": [list(u) for u in vertex_ideal_standard(A, args.bound)],
        "gens": vertex_ideal_gens_truncated(A, args.bound).to_json(),
    }, None


def _cmd_lift(args):
    G = _load(args.matrix, FiberMatrix)
    owner = f"the matrix has {G.nrows} rows"
    degrees = [_parse_vector(d, "--degree", G.nrows, owner) for d in args.degree]
    return monoid_lift(G, degrees, args.bound).to_json(), None


def _cmd_posetx(args):
    if args.check_antichain is not None:
        ok = verify_s_antichain(args.check_antichain)
        return {"check": "slice-antichain", "upto": args.check_antichain, "ok": ok}, (
            "pass" if ok else "fail"
        )
    violations = [
        [list(p), m]
        for p in elements_with_j_below(args.chain_bound)
        if (m := descending_chain_max(p)) > p[1] - 1
    ]
    ok = not violations
    return {
        "check": "chain-bound",
        "upto": args.chain_bound,
        "ok": ok,
        "violations": violations,
    }, ("pass" if ok else "fail")


def _cmd_young(args):
    if args.to_ideal is not None:
        O = _load(args.to_ideal, FiniteOrderIdeal)
        return young_complement(O).to_json(), None
    I = _load(args.to_order_ideal, MonomialIdeal)
    with _blame(args.to_order_ideal):
        return young_cocomplement(I).to_json(), None


_DEMO_ROWS = (
    (1, 1, 1, 0, 0, 0),
    (0, 3, 2, 1, 0, 0),
    (5, 0, 2, 0, 1, 0),
    (0, 2, 1, 0, 0, 1),
)
_DEMO_B1 = (1, 3, 5, 2)
_DEMO_B2 = (5, 10, 10, 6)
_DEMO_FIBER1 = ((0, 1, 0, 0, 5, 0), (0, 0, 1, 1, 3, 1), (1, 0, 0, 3, 0, 2))
_DEMO_FIBER2 = ((0, 0, 5, 0, 0, 1), (1, 2, 2, 0, 1, 0), (2, 3, 0, 1, 0, 0))
_DEMO_WITNESS = (1, 1, 4, 2, 2, 2)


def _cmd_example35(args):
    A = FiberMatrix(_DEMO_ROWS)
    b1, b2 = _DEMO_B1, _DEMO_B2
    b = tuple(x + y for x, y in zip(b1, b2))
    f1 = fiber(A, b1)
    f2 = fiber(A, b2)
    minkowski = minkowski_decomposes(A, b, b1, b2)
    zero = MonomialIdeal.zero(A.ncols)
    splits, witness = ma_decomposes(zero, A, b, b1, b2)
    atomic = is_atomic(A, b)
    checks = {
        "fiber_b1_matches": set(f1.points) == set(_DEMO_FIBER1),
        "fiber_b2_matches": set(f2.points) == set(_DEMO_FIBER2),
        "minkowski_equality": minkowski is True,
        "lattice_split_fails": splits is False,
        "witness_matches": witness == _DEMO_WITNESS,
        "not_vertex_atomic": atomic is False,
    }
    ok = all(checks.values())
    payload = {
        "matrix": A.to_json(),
        "b1": list(b1),
        "b2": list(b2),
        "fiber_b1": [list(p) for p in f1.points],
        "fiber_b2": [list(p) for p in f2.points],
        "minkowski_decomposes": minkowski,
        "lattice_splits": splits,
        "witness": list(witness) if witness else None,
        "is_atomic": atomic,
        "checks": checks,
    }
    return payload, ("pass" if ok else "fail")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staircase",
        description="Exact monomial-ideal combinatorics and integer-matrix fiber analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ideal", help="normalize an ideal or apply one lattice operation")
    p.add_argument("-I", "--ideal", required=True, help="ideal JSON file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--contains", metavar="FILE", help="test containment of another ideal")
    group.add_argument("--intersect", metavar="FILE", help="intersect with another ideal")
    group.add_argument("--sum", metavar="FILE", help="add another ideal")
    group.add_argument("--quotient", metavar="EXP", help="colon quotient by a monomial, e.g. 1,0")
    group.add_argument("--member", metavar="EXP", help="membership test for a monomial")
    group.add_argument(
        "--standard-up-to", type=_int_at_least(0), metavar="K", help="standard monomials of total degree <= K"
    )
    p.set_defaults(handler=_cmd_ideal)

    p = sub.add_parser("decompose", help="primary decomposition (or irreducible, or primes)")
    p.add_argument("-I", "--ideal", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--irreducible", action="store_true", help="emit irreducible components")
    group.add_argument("--primes", action="store_true", help="emit associated primes only")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("hilbert", help="Hilbert-series numerator, optional per-degree table")
    p.add_argument("-I", "--ideal", required=True)
    p.add_argument("--table-bound", type=_int_at_least(0), metavar="K", help="also count degrees |b| <= K")
    p.add_argument("--grading", metavar="FILE", help="grading matrix for the table (default: fine)")
    p.set_defaults(handler=_cmd_hilbert)

    p = sub.add_parser("antichain", help="verify a family of ideals is an antichain")
    p.add_argument("-F", "--family", required=True, help="JSON list of ideals")
    p.set_defaults(handler=_cmd_antichain)

    p = sub.add_parser("chain", help="longest strict chain, or partition a family")
    p.add_argument("-F", "--family", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--refine", metavar="FILE", help="partition by standard-monomial trace of this artinian pivot")
    group.add_argument("--group-primes", action="store_true", help="partition by associated-prime sets")
    p.set_defaults(handler=_cmd_chain)

    p = sub.add_parser("fiber", help="lattice points and hull vertices of one fiber")
    p.add_argument("-A", "--matrix", required=True, help="matrix JSON file")
    p.add_argument("-b", "--degree", required=True, help="degree, e.g. 1,3,5,2")
    p.set_defaults(handler=_cmd_fiber)

    p = sub.add_parser("atomic-scan", help="atomic degrees Au with |u| <= bound")
    p.add_argument("-A", "--matrix", required=True)
    p.add_argument("--bound", type=_int_at_least(1), required=True)
    p.add_argument("--mode", choices=("vertex", "lattice"), default="vertex")
    p.add_argument("--ideal", metavar="FILE", help="avoidance ideal M for lattice mode (default: zero)")
    p.set_defaults(handler=_cmd_atomic_scan)

    p = sub.add_parser("sagbi", help="subalgebra generators (k_b, b) over atomic degrees")
    p.add_argument("-A", "--matrix", required=True)
    p.add_argument("--coeffs", required=True, help="nonzero integer coefficients, e.g. 2,3")
    p.add_argument("--bound", type=_int_at_least(1), required=True)
    p.set_defaults(handler=_cmd_sagbi)

    p = sub.add_parser("vertex-ideal", help="per-degree hull-vertex monomials and non-vertex generators")
    p.add_argument("-A", "--matrix", required=True)
    p.add_argument("--bound", type=_int_at_least(0), required=True)
    p.set_defaults(handler=_cmd_vertex_ideal)

    p = sub.add_parser("lift", help="pull a monoid-algebra monomial ideal back to the polynomial ring")
    p.add_argument("-G", "--matrix", required=True, help="monoid generator matrix (columns generate)")
    p.add_argument("--degree", action="append", default=[], help="ideal degree vector; repeatable")
    p.add_argument("--bound", type=_int_at_least(0), required=True)
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("posetx", help="checks on the pair poset with finite chains")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check-antichain", type=_int_at_least(2), metavar="L", help="slice ideals 1..L pairwise incomparable")
    group.add_argument("--chain-bound", type=_int_at_least(1), metavar="J", help="chain length below (i,j) is < j for all j <= J")
    p.set_defaults(handler=_cmd_posetx)

    p = sub.add_parser("young", help="complement between finite order ideals and artinian ideals")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-ideal", metavar="FILE", help="order-ideal JSON in, monomial ideal out")
    group.add_argument("--to-order-ideal", metavar="FILE", help="artinian ideal JSON in, order ideal out")
    p.set_defaults(handler=_cmd_young)

    p = sub.add_parser("example35", help="reproduce the bundled 4x6 worked example and report pass/fail")
    p.set_defaults(handler=_cmd_example35)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    return _build_parser()


def run(argv) -> RunReport:
    """Parse argv, execute one operation, and return the report.

    A vector flag's value may start with a minus sign, as in --coeffs -2,3;
    it is joined to its flag (--coeffs=-2,3), or argparse would read it as
    an option.
    """
    joined: list[str] = []
    for arg in argv:
        negative = arg.startswith("-") and arg[1:2].isdigit()
        if negative and joined and joined[-1] in ("--quotient", "--member", "-b", "--degree", "--coeffs"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    args = _parser().parse_args(joined)
    start = time.perf_counter()
    payload, status = args.handler(args)
    return RunReport(args.command, payload, status, time.perf_counter() - start)


def main(argv=None) -> int:
    try:
        report = run(sys.argv[1:] if argv is None else argv)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.payload, sort_keys=True))
    note = f" [{report.status}]" if report.status else ""
    print(f"{report.command}{note} in {report.duration:.3f}s", file=sys.stderr)
    return 1 if report.status == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
