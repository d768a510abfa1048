"""Integer fixed-point sweeps and random-walk rollouts.

The approximate loops of the package live here: value-iteration
sweeps on a 2**-K fixed-point grid, run on Python integers so any K
works, and Monte-Carlo play rollouts, run on Python integers as counts
of plays per vertex, split at avg vertices by bit-counted coins. Both
walk one layout of a reduced game, built by sweep_layout: the vertices
sorted by kind (max, min, avg, then the 0-sink and the 1-sink) with
successors given as positions in that order; value_iteration,
vi_iterates and mc_estimate walk it. ordered_sweeps sweeps the game
itself in place instead, in an order its caller gives; it serves the
start guess of hoffman_karp and the vi route of solve, both in the
layer order of the stopping test's attractor.

Values are integers in [0, 2**K] meaning v * 2**-K. Averages round
down; max and min are exact. Sweeps start from zero with the sinks
pinned at their constants; rounding down keeps them monotone
nondecreasing and never above the true fixed point. In the layout each
kind is one list comprehension over (a, b) position pairs and the sinks
are a constant tail; vectors are mapped back to vertex order only where
a caller needs them.
"""

from __future__ import annotations

import random
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

from .games import Game, VertexKind

if TYPE_CHECKING:
    from .markov import ReducedGame


def backend() -> str:
    """Name of what the rollouts run on: plain Python, no array library."""
    return "python"


class SweepLayout(NamedTuple):
    """A reduced game's vertices sorted by kind: max, min, avg, then the
    0-sink and the 1-sink in the last two positions.

    rank[u] is the position of vertex u + 1. maxs, mins and avgs hold
    the successor positions (a, b) of each kind's vertices in vertex
    order; a vertex whose strategy is fixed has a = b. sinks holds the
    constants the two sink positions are pinned at, [0, one].
    """

    rank: list[int]
    maxs: list[tuple[int, int]]
    mins: list[tuple[int, int]]
    avgs: list[tuple[int, int]]
    sinks: list[int]

    def start(self) -> list[int]:
        """Zero everywhere except the pinned sinks, in layout order."""
        return [0] * (len(self.rank) - 2) + self.sinks

    def in_vertex_order(self, v: list[int]) -> list[int]:
        """Map a vector in layout order back to vertex order."""
        return [v[p] for p in self.rank]


def sweep_layout(rg: ReducedGame, one: int) -> SweepLayout:
    """Lay out the reduced game rg by kind, with the 1-sink pinned at one.

    Reads the kinds of rg.game and the successors rg.successors(v); a
    lone successor fills both slots of its pair.
    """
    game = rg.game
    kinds = game.kinds
    groups = [
        [v for v in game.interior if kinds[v - 1] is kind]
        for kind in (VertexKind.MAX, VertexKind.MIN, VertexKind.AVG)
    ]
    rank = [0] * game.n
    for pos, v in enumerate([*groups[0], *groups[1], *groups[2], game.sink0, game.sink1]):
        rank[v - 1] = pos
    maxs, mins, avgs = (
        [(rank[s[0] - 1], rank[s[-1] - 1]) for s in map(rg.successors, group)] for group in groups
    )
    return SweepLayout(rank, maxs, mins, avgs, [0, one])


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


def vi_run(layout: SweepLayout, thr: int, max_iters: int):
    """Run the sweep loop from the pinned-sink start vector.

    Returns (values, productive sweeps, converged flag), with values in
    vertex order. A sweep is productive when it changed at least one
    component; convergence means the last residual was at most thr in
    grid units.
    """
    v = layout.start()
    productive = 0
    converged = False
    for v, gain, converged in sweeps(layout, thr, max_iters):
        productive += gain > 0
    return layout.in_vertex_order(v), productive, converged


def ordered_sweeps(game: Game, order: list[int], one: int, max_iters: int):
    """Yield (values, gain) after each in-place (Gauss-Seidel) sweep of
    game on the grid with the 1-sink at one; values is one list indexed
    by vertex id (entry 0 unused), updated in place.

    A sweep visits the interior vertices in order and sets each to the
    max, min or rounded-down mean of its children's current values, so
    a vertex reads children updated earlier in the same sweep. From the
    start vector the iterates are monotone nondecreasing, as in sweeps,
    so the gain is the sum of the increases, and a sweep with gain 0
    changed nothing: the values are a fixed point of the grid. The
    sequence ends after that sweep, or after max_iters sweeps. Both
    callers, solve._vi_guess and solve._vi_solve, pass the interior in
    increasing layer of markov.stopping_layers.
    """
    avg_kind, max_kind = VertexKind.AVG, VertexKind.MAX
    steps = [(v, *game.children[v - 1], game.kinds[v - 1]) for v in order]
    z = [0] * (game.n + 1)
    z[game.sink1] = total = one
    for _ in range(max_iters):
        for v, a, b, kind in steps:
            x, y = z[a], z[b]
            if kind is avg_kind:
                z[v] = (x + y) >> 1
            elif kind is max_kind:
                z[v] = x if x > y else y
            else:
                z[v] = x if x < y else y
        new_total = sum(z)
        gain, total = new_total - total, new_total
        yield z, gain
        if not gain:
            return


# The benchmark tracer looks up both names.
vi_run_object = vi_run


def mc_run(layout: SweepLayout, start: int, plays: int, max_steps: int, seed: int):
    """Roll out random plays from layout position start; returns (hits
    of the 1-sink, truncated plays).

    Plays are exchangeable, so only the number standing on each layout
    position is kept, in a dict. All plays advance together, one move
    per round, for at most max_steps rounds. A play ends on the round it
    reaches a sink, the last round included; one still off the sinks
    after max_steps moves is truncated. The layout's kind order tells
    the vertices apart by position: avg vertices from the first avg
    position up to the sinks, which are the last two positions.

    A position with successor pair (a, b) and c plays on it sends them
    on as follows. At a max or min position all c move to a, which in a
    fully reduced game is its one successor. At an avg position they
    split by one Binomial(c, 1/2) draw: getrandbits(c) is c independent
    fair bits, so its bit_count is the number of heads among c fair
    coins, and that many plays move to b, the rest to a. Each round
    visits the occupied positions in the order the previous round first
    reached them and draws once per avg position, from a random.Random
    seeded with seed. Since different plays' coins are independent,
    (hits, truncated) has the same joint distribution as a rollout that
    tosses one coin per play; only the counts a given seed yields differ.
    """
    pairs = layout.maxs + layout.mins + layout.avgs
    first_avg = len(layout.maxs) + len(layout.mins)
    sink0, sink1 = len(pairs), len(pairs) + 1
    bits = random.Random(seed).getrandbits
    occ = {start: plays}
    hits = 0
    for step in range(max_steps + 1):
        hits += occ.pop(sink1, 0)
        occ.pop(sink0, None)
        if not occ or step == max_steps:
            break
        nxt = {}
        for p, c in occ.items():
            a, b = pairs[p]
            if p >= first_avg:
                t = bits(c).bit_count()
                if t:
                    nxt[b] = nxt.get(b, 0) + t
                    c -= t
            if c:
                nxt[a] = nxt.get(a, 0) + c
        occ = nxt
    return hits, sum(occ.values())
