"""Integer fixed-point sweeps and random-walk rollouts.

The two approximate loops of the package live here: value-iteration
sweeps on a 2**-K fixed-point grid, run on Python integers so any K
works, and Monte-Carlo play rollouts, run on numpy arrays.

Values are integers in [0, 2**K] meaning v * 2**-K. Averages round
down; max and min are exact. Sweeps start from zero with the sinks
pinned at their constants; rounding down keeps them monotone
nondecreasing and never above the true fixed point.

A sweep runs on the vertices sorted by kind (max, min, avg, then the
sinks), with successor indices remapped into that order, so each kind
is one list comprehension over (a, b) index pairs and the sinks are a
constant tail; vectors are mapped back to vertex order only where a
caller needs them.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple

import numpy as np

KIND_MAX = 0
KIND_MIN = 1
KIND_AVG = 2
KIND_SINK0 = 3
KIND_SINK1 = 4

KIND_CODES = {
    "max": KIND_MAX,
    "min": KIND_MIN,
    "avg": KIND_AVG,
    "sink0": KIND_SINK0,
    "sink1": KIND_SINK1,
}


def backend() -> str:
    """Name of the array library the rollouts run on."""
    return "numpy"


class SweepLayout(NamedTuple):
    """The vertices sorted by kind code: max, min, avg, then the sinks.

    rank[u] is vertex u's position in that order. maxs, mins and avgs
    hold the successor positions (a, b) of each kind's vertices in order,
    and sinks the constants the sink positions are pinned at.
    """

    rank: list[int]
    maxs: list[tuple[int, int]]
    mins: list[tuple[int, int]]
    avgs: list[tuple[int, int]]
    sinks: list[int]

    def start(self) -> list[int]:
        """Zero everywhere except the pinned sinks, in layout order."""
        return [0] * (len(self.rank) - len(self.sinks)) + self.sinks

    def in_vertex_order(self, v: list[int]) -> list[int]:
        """Map a vector in layout order back to vertex order."""
        return [v[p] for p in self.rank]


def sweep_layout(kind, c0, c1, one: int) -> SweepLayout:
    """Sort the vertices by kind once and remap c0/c1 into that order."""
    order = sorted(range(len(kind)), key=kind.__getitem__)
    rank = [0] * len(kind)
    for pos, u in enumerate(order):
        rank[u] = pos

    def pairs(code):
        return [(rank[c0[u]], rank[c1[u]]) for u in order if kind[u] == code]

    sinks = [one if kind[u] == KIND_SINK1 else 0 for u in order if kind[u] >= KIND_SINK0]
    return SweepLayout(rank, pairs(KIND_MAX), pairs(KIND_MIN), pairs(KIND_AVG), sinks)


def sweeps(layout: SweepLayout, thr: int, max_iters: int):
    """Yield (values, gain, converged) after each sweep from the start
    vector; values are in layout order.

    The iterates are monotone nondecreasing: the operator is monotone
    and the first sweep cannot lower the start vector. So every
    componentwise increase is nonnegative, and the gain, the sum of new
    values minus the sum of old ones, lies between the residual (the
    largest increase, in grid units) and n times it. A sweep is
    productive when its gain is positive. It converges when the
    residual is at most thr; the residual is computed exactly only when
    the gain is at most n * thr, since a larger gain already puts it
    above thr. The sequence ends after the first converged sweep, or
    after max_iters sweeps.
    """
    maxs, mins, avgs, sinks = layout.maxs, layout.mins, layout.avgs, layout.sinks
    bound = len(layout.rank) * thr
    v = layout.start()
    total = sum(v)
    for _ in range(max_iters):
        new = [v[a] if v[a] > v[b] else v[b] for a, b in maxs]
        new += [v[a] if v[a] < v[b] else v[b] for a, b in mins]
        new += [(v[a] + v[b]) >> 1 for a, b in avgs]
        new += sinks
        new_total = sum(new)
        gain = new_total - total
        converged = gain <= bound and max(map(sub, new, v)) <= thr
        v, total = new, new_total
        yield v, gain, converged
        if converged:
            return


def vi_run(kind, c0, c1, one: int, thr: int, max_iters: int):
    """Run the sweep loop from the pinned-sink start vector.

    Returns (values, productive sweeps, converged flag), with values in
    vertex order. A sweep is productive when it changed at least one
    component; convergence means the last residual was at most thr in
    grid units.
    """
    layout = sweep_layout(kind, c0, c1, one)
    v = layout.start()
    productive = 0
    converged = False
    for v, gain, converged in sweeps(layout, thr, max_iters):
        productive += gain > 0
    return layout.in_vertex_order(v), productive, converged


# The benchmark tracer looks up both names.
vi_run_object = vi_run


def mc_run(kind, s0, s1, start: int, plays: int, max_steps: int, seed: int):
    """Roll out random plays; returns (hits of the 1-sink, truncated plays).

    All plays advance together, one step per round; plays that reach a
    sink are dropped from the position array, which keeps play order.
    Each round draws one fair coin per play standing on an avg vertex,
    in play order, from a RandomState seeded with seed.
    """
    kind = np.ascontiguousarray(kind, dtype=np.int8)
    s0 = np.ascontiguousarray(s0, dtype=np.intp)
    s1 = np.ascontiguousarray(s1, dtype=np.intp)
    rs = np.random.RandomState(seed)
    pos = np.full(plays, start, dtype=np.intp)
    hits = 0
    for _ in range(max_steps):
        k = kind[pos]
        hits += int(np.count_nonzero(k == KIND_SINK1))
        live = k < KIND_SINK0
        pos = pos[live]
        if pos.size == 0:
            break
        nxt = s0[pos]
        avg = np.flatnonzero(k[live] == KIND_AVG)
        if avg.size:
            tails = avg[rs.random_sample(avg.size) >= 0.5]
            nxt[tails] = s1[pos[tails]]
        pos = nxt
    return hits, pos.size
