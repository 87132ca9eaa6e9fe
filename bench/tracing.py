"""Spans and counters around the library's layer boundaries.

The library has no instrumentation of its own, so the tracer wraps public
functions from outside: each wrapped name is replaced in every staircase
module that binds it, which also catches the calls one module makes into
another.  A call into a layer that is already the innermost open span
(recursion, or one public function of a layer calling another) opens no
new span, so a layer's self time is the time of its spans minus the time
of their child spans, which always belong to other layers.

Spans stay in memory as (name, start, end, parent, job) and are written
out once, when the traced pass ends.  Their times come from the clock the
tracer is given: the worker passes the reading of its bench/speed.py clock,
so span times are CPU time at the reference speed, like the job times.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


# Observers add counters from a call's arguments and result.
def _lp(c, args, result):
    c["exactlp.points"] += _size(args[1])
    c["exactlp.true"] += bool(result)


def _hull(c, args, result):
    c["fibers.hull_vertices.points_in"] += _size(args[0])


def _minkowski(c, args, result):
    c["fibers.minkowski.true"] += bool(result)


def _points(c, args, result):
    c["fibers.fiber_points.empty"] += not result


def _minimalize(c, args, result):
    c["monomial.minimalize.gens_in"] += _size(args[1])


def _irreducible(c, args, result):
    c["decomposition.components_out"] += len(result)


def _numerator(c, args, result):
    c["hilbert.numerator.terms"] += len(result)


# (layer, function, observer): the layer is the module that defines the function
WRAPPED = (
    ("exactlp", "in_convex_hull", _lp),
    ("fibers", "fiber", None),
    ("fibers", "fiber_points", _points),
    ("fibers", "hull_vertices", _hull),
    ("fibers", "in_hull", None),
    ("fibers", "minkowski_decomposes", _minkowski),
    ("fibers", "is_atomic", None),
    ("fibers", "ma_fiber", None),
    ("fibers", "ma_decomposes", None),
    ("fibers", "is_ma_atomic", None),
    ("fibers", "atomic_scan", None),
    ("fibers", "atomicity_ideal", None),
    ("fibers", "monoid_lift", None),
    ("fibers", "sagbi_generators", None),
    ("fibers", "vertex_ideal_standard", None),
    ("fibers", "vertex_ideal_gens_truncated", None),
    ("monomial", "minimalize", _minimalize),
    ("decomposition", "irreducible_decomposition", _irreducible),
    ("decomposition", "primary_decomposition", None),
    ("decomposition", "associated_primes", None),
    ("hilbert", "hilbert_numerator", _numerator),
    ("hilbert", "hilbert_function", None),
    ("hilbert", "reachable_degrees", None),
    ("hilbert", "same_hilbert_up_to", None),
    ("chains", "find_comparable_pair", None),
    ("chains", "is_antichain", None),
    ("chains", "extract_descending_chain", None),
    ("chains", "refine_by_standard_trace", None),
    ("chains", "group_by_associated_primes", None),
    ("poset", "descending_chain_max", None),
    ("poset", "elements_with_j_below", None),
    ("poset", "verify_s_antichain", None),
    ("poset", "young_complement", None),
    ("poset", "young_cocomplement", None),
    ("cli", "main", None),
)

# positional arguments that may be generators and that an observer measures
_LISTIFY = {"minimalize": 1}

LAYERS = ("exactlp", "fibers", "monomial", "decomposition", "hilbert", "chains", "poset", "cli")


class Tracer:
    """Wraps the library while installed; spans and counters accumulate."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer, name, fn, observe):
        spans, stack, layers = self.spans, self._stack, self._layers
        calls, counts = self.calls, self.counts
        label = f"{layer}.{name}"
        clock = self.clock
        listify = _LISTIFY.get(name)

        def wrapper(*args, **kwargs):
            calls[label] += 1
            if listify is not None and not isinstance(args[listify], (list, tuple)):
                # a generator argument would be consumed before the observer sees it
                args = args[:listify] + (list(args[listify]),) + args[listify + 1 :]
            opened = not layers or layers[-1] != layer
            if opened:
                spans.append([label, clock(), None, stack[-1] if stack else -1, self.job])
                stack.append(len(spans) - 1)
                layers.append(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                if opened:
                    spans[stack.pop()][2] = clock()
                    layers.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "staircase" or k.startswith("staircase.")]
        for layer, name, observe in WRAPPED:
            fn = getattr(importlib.import_module(f"staircase.{layer}"), name)
            wrapper = self._wrap(layer, name, fn, observe)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _parent, _job), inner in zip(self.spans, child):
            out[name.split(".", 1)[0]] += (end - start) - inner
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer figures of one traced pass."""
        calls, c, own = self.calls, self.counts, self.self_times()

        def frac(part, whole):
            return part / whole if whole else 0.0

        lp = calls["exactlp.in_convex_hull"]
        mink = calls["fibers.minkowski_decomposes"]
        pts = calls["fibers.fiber_points"]
        return {
            "exactlp.calls": lp,
            "exactlp.points": c["exactlp.points"],
            "exactlp.true_frac": frac(c["exactlp.true"], lp),
            "exactlp.self_s": own["exactlp"],
            "fibers.self_s": own["fibers"],
            "fibers.hull_vertices.calls": calls["fibers.hull_vertices"],
            "fibers.hull_vertices.points_in": c["fibers.hull_vertices.points_in"],
            "fibers.minkowski.calls": mink,
            "fibers.minkowski.true_frac": frac(c["fibers.minkowski.true"], mink),
            "fibers.is_ma_atomic.calls": calls["fibers.is_ma_atomic"],
            "fibers.monoid_lift.s": sum(
                end - start for name, start, end, _, _ in self.spans if name == "fibers.monoid_lift"
            ),
            "fibers.fiber_points.empty_frac": frac(c["fibers.fiber_points.empty"], pts),
            "monomial.minimalize.calls": calls["monomial.minimalize"],
            "monomial.minimalize.gens_in": c["monomial.minimalize.gens_in"],
            "monomial.self_s": own["monomial"],
            "decomposition.irreducible.calls": calls["decomposition.irreducible_decomposition"],
            "decomposition.components_out": c["decomposition.components_out"],
            "decomposition.self_s": own["decomposition"],
            "hilbert.numerator.terms": c["hilbert.numerator.terms"],
            "hilbert.function.calls": calls["hilbert.hilbert_function"],
            "hilbert.self_s": own["hilbert"],
            "poset.chain_max.calls": calls["poset.descending_chain_max"],
            "poset.self_s": own["poset"],
            "chains.self_s": own["chains"],
            "cli.self_s": own["cli"],
            "cli.jobs": calls["cli.main"],
        }

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
