"""Spans around the public functions of lucasnomial, recorded from outside.

install() wraps each public function at every name it is bound to in
the package (module globals and module-level dispatch dicts), and the
BivariatePolynomial, Partition, Tiling and report methods on their classes.
The library's code is not changed.  Each thread keeps its own span stack and
its own tables, so self times stay right inside the `--parallel` thread pool.

A span's self time is its duration minus the time its child spans cover.
The time a wrapper spends on its own bookkeeping counts as covered by the
child, so it is charged to no span.  The root span (the call made on the
main thread) subtracts the union of its children's intervals and of the
top-level spans of worker threads, which it waits on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


def _nterms(poly) -> int:
    return len(poly.terms())


def _coeff_bits(poly) -> int:
    return max((abs(c).bit_length() for _, _, c in poly.terms()), default=0)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list = []  # every thread's state, for the final merge
        self._adopted: list[tuple[float, float]] = []
        self._main = threading.main_thread()

    # -- per-thread state -----------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """A function that runs fn inside a span; after(state, args, result)
        records counters once the span's clock has stopped."""
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            return self._wrap_generator(name, fn, after)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, after)

        return wrapper

    def _wrap_generator(self, name: str, fn, after):
        # each resumption is one span, so a span never covers the consumer
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self._call(name, next, (it,), {}, after)
                except StopIteration:
                    return
                yield item

        return wrapper

    def _call(self, name, fn, args, kwargs, after):
        state = self._state()
        stack = state.stack
        root = not stack and threading.current_thread() is self._main
        frame = [0.0, [] if root else None]  # covered time, child intervals
        stack.append(frame)
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(state, name, frame, t0, _clock())
            raise
        t1 = _clock()
        if after is not None:
            after(state, args, result)
        self._close(state, name, frame, t0, t1)
        return result

    def _close(self, state, name, frame, t0, t1) -> None:
        stack = state.stack
        stack.pop()
        covered = frame[0]
        if frame[1] is not None:
            covered = _union(frame[1] + [iv for iv in self._adopted if iv[0] >= t0])
        record = state.spans[name]
        record[0] += 1
        record[1] += max(0.0, (t1 - t0) - covered)
        t2 = _clock()
        if stack:
            parent = stack[-1]
            parent[0] += t2 - t0
            if parent[1] is not None:
                parent[1].append((t0, t2))
        elif threading.current_thread() is not self._main:
            with self._lock:
                self._adopted.append((t0, t2))

    # -- results ------------------------------------------------------------------

    def tables(self):
        """Merged (spans, counters, maxima) over every thread."""
        spans = defaultdict(lambda: [0, 0.0])
        counters = defaultdict(int)
        maxima = defaultdict(int)
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, (calls, self_s) in state.spans.items():
                spans[name][0] += calls
                spans[name][1] += self_s
            for name, value in state.counters.items():
                counters[name] += value
            for name, value in state.maxima.items():
                maxima[name] = max(maxima[name], value)
        return dict(spans), dict(counters), dict(maxima)


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list = []
        self.spans = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


# -- counters recorded after a span ------------------------------------------------

def _after_mul(state, args, result) -> None:
    a, b = args
    if not hasattr(result, "terms"):
        return
    na = _nterms(a)
    nb = _nterms(b) if hasattr(b, "terms") else 1
    nr = _nterms(result)
    state.counters["poly.mul.term_products"] += na * nb
    state.maxima["poly.mul.max_terms"] = max(state.maxima["poly.mul.max_terms"], na, nb, nr)
    state.maxima["poly.max_coeff_bits"] = max(state.maxima["poly.max_coeff_bits"], _coeff_bits(result))


def _after_exact_div(state, args, result) -> None:
    state.counters["poly.exact_div.term_products"] += _nterms(result) * _nterms(args[1])
    state.maxima["poly.max_coeff_bits"] = max(state.maxima["poly.max_coeff_bits"], _coeff_bits(result))


def _counting(counter: str):
    def after(state, args, result) -> None:
        state.counters[counter] += len(result)
    return after


def _count_one(counter: str):
    def after(state, args, result) -> None:
        state.counters[counter] += 1
    return after


# Module functions: (module, function, span name, counter hook).
FUNCTIONS = [
    ("lucas", "lucas_F", "lucas.lucas_F", None),
    ("lucas", "lucas_L", "lucas.lucas_L", None),
    ("lucas", "lucas_factorial", "lucas.lucas_factorial", None),
    ("lucas", "check_lemma1", "lucas.check_lemma1", None),
    ("coefficients", "via_quotient", "coefficients.via_quotient", None),
    ("coefficients", "via_recursion_fib", "coefficients.via_recursion_fib", None),
    ("coefficients", "via_recursion_luc", "coefficients.via_recursion_luc", None),
    ("coefficients", "table", "coefficients.table", None),
    ("specializations", "specialize", "specializations.specialize", None),
    ("partitions", "enumerate_in_rect", "partitions.enumerate_in_rect",
     _counting("partitions.enumerate_in_rect.partitions")),
    ("tilings", "gf", "tilings.gf", None),
    ("tilings", "enumerate_tilings", "tilings.enumerate_tilings",
     _counting("tilings.enumerate_tilings.tilings")),
    ("interpretations", "rhs_linear", "interpretations.rhs_linear", None),
    ("interpretations", "rhs_circular", "interpretations.rhs_circular", None),
    ("interpretations", "iter_pairs", "interpretations.iter_pairs",
     _count_one("interpretations.iter_pairs.pairs")),
    ("interpretations", "predicted_pair_count", "interpretations.predicted_pair_count", None),
    ("interpretations", "theorem_cases", "interpretations.theorem_cases", None),
    ("interpretations", "recursion_task_cases", "interpretations.recursion_task_cases", None),
    ("cli", "main", "cli.main", None),
]

# Methods wrapped on their class: (module, class, method, span name, hook).
METHODS = [
    ("poly", "BivariatePolynomial", "__mul__", "poly.mul", _after_mul),
    ("poly", "BivariatePolynomial", "__rmul__", "poly.mul", _after_mul),
    ("poly", "BivariatePolynomial", "exact_div", "poly.exact_div", _after_exact_div),
    ("poly", "BivariatePolynomial", "__add__", "poly.add", None),
    ("poly", "BivariatePolynomial", "__radd__", "poly.add", None),
    ("poly", "BivariatePolynomial", "canonical_text", "poly.canonical_text", None),
    ("poly", "BivariatePolynomial", "to_json_dict", "poly.to_json_dict", None),
    ("poly", "BivariatePolynomial", "subst_univar", "poly.subst_univar", None),
    ("partitions", "Partition", "complement", "partitions.complement", None),
    ("tilings", "Tiling", "weight_exponents", "tilings.weight_exponents", None),
    ("reports", "CaseResult", "line", "reports.line", None),
    ("reports", "IdentityReport", "summary", "reports.summary", None),
    ("reports", "IdentityReport", "to_dict", "reports.to_dict", None),
]


def install(tracer: Tracer) -> dict:
    """Wrap every traced function at each of its bindings; returns the
    original functions by span name, for reading their cache_info()."""
    for module in {entry[0] for entry in FUNCTIONS + METHODS}:
        importlib.import_module(f"lucasnomial.{module}")
    modules = [m for key, m in list(sys.modules.items())
               if key == "lucasnomial" or key.startswith("lucasnomial.")]
    originals = {}
    for module, func, name, after in FUNCTIONS:
        orig = getattr(sys.modules[f"lucasnomial.{module}"], func)
        originals[name] = orig
        wrapper = tracer.wrap(name, orig, after)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is orig:
                            value[key] = wrapper
    for module, cls_name, method, name, after in METHODS:
        cls = getattr(sys.modules[f"lucasnomial.{module}"], cls_name)
        setattr(cls, method, tracer.wrap(name, vars(cls)[method], after))
    return originals
