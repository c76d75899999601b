"""Spans and counters recorded around coverlab's layer functions, from outside.

Every coverlab module imports its dependencies with ``from .x import y``, so
one function is reachable under several module attributes
(``coverlab.arith.factor``, ``coverlab.mersenne.factor``,
``coverlab.certify.factor``, ...).  `Tracer.install` replaces every such
attribute with one wrapper per function, and `Tracer.uninstall` puts the
originals back.  A span is ``[name, start_ns, end_ns, parent_index]``; spans
stay in memory until `Tracer.stats` folds them into per-layer calls and self
times.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter

# span name -> the functions it wraps, as "module:attribute" of the
# defining module.  `assets.load` groups the three loaders the asset layer
# re-exports, so asset parsing shows as one layer.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.main": ("coverlab.cli:main",),
    "assets.checksum": ("coverlab.assets:checksum",),
    "assets.load": ("coverlab.covers:load_cover",
                    "coverlab.mersenne:load_prime_table",
                    "coverlab.construct:load_two_prime_data"),
    "covers.verify_cover": ("coverlab.covers:verify_cover",),
    "arith.factor": ("coverlab.arith:factor",),
    "arith.is_probable_prime": ("coverlab.arith:is_probable_prime",),
    "arith.order_dividing": ("coverlab.arith:order_dividing",),
    "arith.crt_combine": ("coverlab.arith:crt_combine",),
    "mersenne.cyclotomic_mersenne": ("coverlab.mersenne:cyclotomic_mersenne",),
    "mersenne.find_primitive_divisors": ("coverlab.mersenne:find_primitive_divisors",),
    "mersenne.mersenne_valuation": ("coverlab.mersenne:mersenne_valuation",),
    "mersenne.verify_prime_table": ("coverlab.mersenne:verify_prime_table",),
    "lucas.period_mod": ("coverlab.lucas:period_mod",),
    "lucas.iter_terms_mod": ("coverlab.lucas:iter_terms_mod",),
    "lucas.u_term_mod": ("coverlab.lucas:u_term_mod",),
    "lucas.rank_of_apparition": ("coverlab.lucas:rank_of_apparition",),
    "construct.build_two_prime_class": ("coverlab.construct:build_two_prime_class",),
    "construct.build_erdos_class": ("coverlab.construct:build_erdos_class",),
    "construct.check_divisibility_mechanics":
        ("coverlab.construct:check_divisibility_mechanics",),
    "certify.check_exclusion": ("coverlab.certify:check_exclusion",),
}


def _count_cells(counts: Counter, args, kwargs, result) -> None:
    system = args[0] if args else kwargs["system"]
    period = math.lcm(*(c.n for c in system.classes))
    counts["covers.period_cells"] += period
    counts["covers.class_cells"] += sum(period // c.n for c in system.classes)


def _count_incomplete(counts: Counter, args, kwargs, result) -> None:
    counts["arith.factor.incomplete"] += not result.complete


def _count_complete(counts: Counter, args, kwargs, result) -> None:
    counts["mersenne.find_primitive_divisors.completed"] += result[1]


def _count_certificates(counts: Counter, args, kwargs, result) -> None:
    counts["certify.combinations"] += result.combinations
    counts["certify.valid"] += result.valid


# Counters taken from a call's inputs and result, after its span closes.
_HOOKS = {
    "covers.verify_cover": _count_cells,
    "arith.factor": _count_incomplete,
    "mersenne.find_primitive_divisors": _count_complete,
    "certify.check_exclusion": _count_certificates,
}

# Counters reported as a mean per pass.
COUNTERS = ("covers.period_cells", "covers.class_cells",
            "arith.factor.incomplete", "certify.combinations")
# ratio name -> (numerator counter, span whose calls are the base)
RATIOS = {
    "mersenne.find_primitive_divisors.complete":
        ("mersenne.find_primitive_divisors.completed",
         "mersenne.find_primitive_divisors"),
    "certify.valid_ratio": ("certify.valid", "certify.check_exclusion"),
}


def metric_names() -> list[str]:
    """Every per-layer metric `per_layer` reports, in a fixed order."""
    names = [f"{span}.{kind}" for span in LAYERS for kind in ("calls", "self_s")]
    return names + list(COUNTERS) + list(RATIOS)


def per_layer(stats: list[dict], passes: int) -> dict[str, float]:
    """Fold the `Tracer.stats` of every traced job into per-pass metrics.

    Calls, self times and counters are means per pass; a ratio is its
    counter over the calls of its base span, 0 when the span never ran.
    """
    total: Counter = Counter()
    for item in stats:
        total.update(item)
    out = {name: total[name] / passes for name in metric_names() if name not in RATIOS}
    for name, (numerator, base) in RATIOS.items():
        calls = total[f"{base}.calls"]
        out[name] = total[numerator] / calls if calls else 0.0
    return out


def _coverlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "coverlab" or name.startswith("coverlab."))]


class Tracer:
    """Wraps the `LAYERS` functions in every coverlab namespace while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _coverlab_modules()
        for span, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.split(":")
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(span, original, _HOOKS.get(span))
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            self._patched.append((module, name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def _wrap(self, span_name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def stats(self) -> dict[str, float]:
        """Calls and self seconds per span name, plus the raw counters.

        Self time is a span's duration minus the durations of its direct
        children; spans nest on one thread, so it is never negative.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Counter = Counter(self.counts)
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start - inner) / 1e9
        return dict(out)
