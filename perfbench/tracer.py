"""Spans around the calls into each symtoric layer, recorded from outside.

``Tracer.install`` replaces every traced public function, in every
symtoric module namespace that binds it, with a wrapper that times the
call and charges it to a span named ``<layer>.<function>``.  Because the
library calls its own public functions through module globals, calls
between layers and within a layer (``verify_containment`` calling
``symbolic_power``) are caught as well.  Private helpers and methods are
not wrapped; their time is self time of the public function around them.

Spans are folded into per-name totals as they close (calls, inclusive
time, self time) instead of being kept one by one, so a traced run's
memory stays flat.  A span's self time is its duration minus the time of
the spans it directly encloses; the benchmark wraps each job in a root
``bench.job`` span, so the self times of all names add up to the traced
wall time of the jobs.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

from oracles import ordinary_sums

# public functions per layer module; ``cones.dot`` is an inner-loop helper,
# not a layer boundary, and wrapping it would swamp every other span
TRACED = {
    "exact_linalg": ("determinant", "adjugate", "smith_normal_form"),
    "cones": ("primitive", "make_cone", "dual_cone", "hilbert_basis",
              "in_semigroup", "semigroup_member"),
    "class_group": ("presentation_matrix", "class_group_of", "group_order",
                    "group_exponent", "det_multiplier", "class_of", "order_of_class"),
    "ideals": ("ray_prime", "symbolic_power", "ordinary_power", "ideal_member",
               "is_principal", "intersect_valuation_ideals", "divisor_class",
               "verify_containment", "find_sharpness_witness"),
    "duval": ("lookup", "cross_check_an"),
    "cli": ("main",),
}


def _count_symbolic(counts, args, result):
    counts["ideals.sym_generators"] += len(result.generators)


def _count_ordinary(counts, args, result):
    ideal, power = args[0], args[1]
    counts["ideals.ord_generators"] += len(result.generators)
    counts["ideals.ordinary_sums"] += ordinary_sums(len(ideal.generators), power)


HOOKS = {
    "ideals.symbolic_power": _count_symbolic,
    "ideals.ordinary_power": _count_ordinary,
}


class Tracer:
    """Per-name span totals: ``calls``, ``total`` and ``self`` seconds."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - children[0]
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return span

    def install(self, lib) -> None:
        """Wrap the traced functions wherever a symtoric module binds them."""
        namespaces = [lib.package] + [getattr(lib, layer) for layer in TRACED]
        for layer, names in TRACED.items():
            module = getattr(lib, layer)
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._restore.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def layer_self(self) -> Counter[str]:
        """Self seconds per layer (the part of each name before the dot)."""
        out: Counter[str] = Counter()
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out
