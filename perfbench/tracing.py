"""Spans around zetacomb's public functions, installed from outside the package.

`install` rebinds each traced function in every zetacomb module that holds
it, because `from .trimat import mat_mul` makes a binding of its own in the
importing module. Scalar leaves (binomial, stirling1/2, bernoulli_number)
are left alone: they run millions of times and a span on them costs more
than the work it would measure.

A span is (name, start_ns, end_ns, parent index or -1, request id). Spans
stay in memory; `dump` writes them out once the process is done.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# home module -> functions defined there that get a span
FUNCTIONS = {
    "zetadiff": (
        "zeta_diff_coeffs",
        "hyper_poly_coeffs",
        "combination_matrix",
        "zeta_diff",
        "hyper_poly",
        "verify_combination",
        "verify_polynomial_forms",
        "scan_sign_pattern",
        "compare_stirling2_matrix",
    ),
    "trimat": ("mat_mul", "invert_substitution", "invert_series"),
    "combinat": ("bernoulli_poly",),
    "etacheck": ("eta_cross_check", "eta_via_zeta", "eta_via_coeff_row", "eta_via_stirling2"),
}
# class in zetacomb.numcore -> methods that get a span
METHODS = {"Poly": ("eval", "rebase")}
MODULES = ("numcore", "combinat", "trimat", "zetadiff", "etacheck", "cli")
CACHED = "zetadiff.combination_matrix"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.request = 0
        self.cache_hits = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.request)

        return traced

    def wrap_cached(self, name: str, fn):
        """Like `wrap`, and count the calls that `fn`'s lru_cache answered."""
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            hits = fn.cache_info().hits
            try:
                return inner(*args, **kwargs)
            finally:
                self.cache_hits += fn.cache_info().hits - hits

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "cache_hits": self.cache_hits}, fh)


def install(tracer: Tracer) -> None:
    """Import every zetacomb module and put spans around FUNCTIONS and METHODS."""
    import zetacomb.cli  # noqa: F401  (loads every module of the package)

    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "zetacomb"]
    for home, names in FUNCTIONS.items():
        home_module = sys.modules[f"zetacomb.{home}"]
        for name in names:
            original = getattr(home_module, name)
            span = f"{home}.{name}"
            wrapper = tracer.wrap_cached(span, original) if span == CACHED else tracer.wrap(span, original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
    numcore = sys.modules["zetacomb.numcore"]
    for cls_name, methods in METHODS.items():
        cls = getattr(numcore, cls_name)
        for method in methods:
            setattr(cls, method, tracer.wrap(f"numcore.{cls_name}.{method}", getattr(cls, method)))


def summarize(spans: list, requests: int) -> dict[str, float]:
    """Per-request inclusive ms and calls per span name, and self ms per module.

    Inclusive time counts a span only when no enclosing span has the same
    name, so recursion is not counted twice. Self time is a span's time
    minus that of its direct children.
    """
    total_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for name, start, end, parent, _ in spans:
        duration = end - start
        calls[name] += 1
        self_ns[name.split(".")[0]] += duration
        if parent >= 0:
            self_ns[spans[parent][0].split(".")[0]] -= duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total_ns[name] += duration
    per = max(requests, 1)
    out = {}
    for name in calls:
        out[f"{name}.ms"] = total_ns[name] / 1e6 / per
        out[f"{name}.calls"] = calls[name] / per
    for module in MODULES:
        out[f"{module}.self_ms"] = self_ns[module] / 1e6 / per
    return out
