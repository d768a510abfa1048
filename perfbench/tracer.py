"""In-memory span tracing of the `ssg` layers, installed from outside.

Each traced function is wrapped at every place it is bound: its own
module, every other `ssg` module that imported it by name, and the
package namespace. A call through any binding opens a span (name,
start, end, parent). Self time is a span's duration minus the time its
child spans cover. Some wrappers also record counts taken from the
call's arguments or result (system sizes, pivots, rounds); that work
happens after the span closes, so it shows as tracing overhead and not
as layer time.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# The modules whose functions are timed as layers. `generate` only
# draws inputs and `cli` only adds parsing and formatting, so neither
# is traced.
LAYERS = ("games", "markov", "stopping", "lp", "solve", "kernels")

TRACED = {
    "games": ("parse_game", "build_game"),
    "markov": ("solve_value_vector", "is_stopping", "reduce_game", "mc_estimate"),
    "stopping": ("build_stopping_game",),
    "lp": ("simplex_optimize", "build_lp_min_free", "build_lp_max_free"),
    "solve": (
        "hoffman_karp",
        "apply_operator",
        "verify_ovv_certificate",
        "round_to_value_set",
        "greedy_strategies",
        "value_iteration",
    ),
    "kernels": ("vi_run", "vi_run_object", "mc_run"),
}


def _value_bits(values) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values.components),
        default=0,
    )


def _tableau_cells(lp) -> int:
    """Rows times columns (with rhs) of the simplex tableau for lp."""
    nv = len(lp.variables)
    n_slack = n_art = 0
    for con in lp.constraints:
        rel = con.relation
        if con.rhs < 0:
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        n_slack += rel != "="
        n_art += rel != "<="
    return len(lp.constraints) * (nv + n_slack + n_art + 1)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_svv(c, a, k, result):
    c.add("markov.solve_value_vector.system_n", _first_arg(a, k, "rg").game.n)
    c.peak("markov.value_bits_max", _value_bits(result))


def _count_companion(c, a, k, result):
    c.add("stopping.companion_n", result[0].n)


def _count_hk(c, a, k, result):
    c.add("solve.hoffman_karp.rounds", result.iterations)


def _count_simplex(c, a, k, result):
    c.add("lp.simplex_optimize.pivots", result.pivots)
    c.add("lp.tableau_cells", _tableau_cells(_first_arg(a, k, "lp")))


def _count_vi(c, a, k, result):
    c.add("solve.value_iteration.sweeps", result[1])


# Span name -> fn(counters, args, kwargs, result) recording extra counts.
COUNTERS = {
    "markov.solve_value_vector": _count_svv,
    "stopping.build_stopping_game": _count_companion,
    "solve.hoffman_karp": _count_hk,
    "lp.simplex_optimize": _count_simplex,
    "solve.value_iteration": _count_vi,
}


class Counters:
    def __init__(self):
        self.sums = defaultdict(float)
        self.peaks = defaultdict(int)

    def add(self, name, value):
        self.sums[name] += value

    def peak(self, name, value):
        if value > self.peaks[name]:
            self.peaks[name] = value


def ssg_modules() -> list:
    """The loaded `ssg` package and its submodules."""
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "ssg" or name.startswith("ssg."))]


class Tracer:
    """Wraps the traced functions at every binding; install() and
    uninstall() swap the wrappers in and out, so untraced operations in
    the same process run the original code."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters = Counters()
        self.sites: list[tuple[object, str, object, object]] = []  # module, attr, original, wrapper
        for layer in LAYERS:
            module = sys.modules[f"ssg.{layer}"]
            for fname in TRACED[layer]:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in ssg_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self.sites.append((mod, attr, original, wrapper))

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        counters = self.counters
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[idx]
                span[1] = start
                span[2] = end
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for mod, attr, _original, wrapper in self.sites:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _wrapper in self.sites:
            setattr(mod, attr, original)

    def unwrapped_sites(self) -> list[str]:
        """Bindings that still hold a traced original. Call it between
        install() and uninstall(): the list is empty when the wrappers
        reached every place the functions are bound."""
        originals = {id(o) for _m, _a, o, _w in self.sites}
        return [
            f"{mod.__name__}.{attr}"
            for mod in ssg_modules()
            for attr, value in vars(mod).items()
            if id(value) in originals
        ]


def self_times(spans, first: int = 0) -> dict[str, float]:
    """Total self time per span name over spans[first:], a slice that
    holds whole top-level spans with all their descendants."""
    part = spans[first:]
    child = [0.0] * len(part)
    for _name, start, end, parent in part:
        if parent >= 0:
            child[parent - first] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(part):
        out[name] += (end - start) - child[i]
    return out


def call_counts(spans) -> dict[str, int]:
    out = defaultdict(int)
    for name, *_rest in spans:
        out[name] += 1
    return out


def root_covered(spans, first: int) -> float:
    """Time covered by the top-level spans recorded from index first on."""
    return sum(end - start for _n, start, end, parent in spans[first:] if parent < 0)
