"""Integer fixed-point sweeps and random-walk rollouts.

The approximate loops of the package live here, both on vertex ids:
value-iteration sweeps on a 2**-K fixed-point grid, run on Python
integers so any K works, and Monte-Carlo play rollouts, run on Python
integers as counts of plays per vertex, split at avg vertices by
bit-counted coins. ordered_sweeps is the one sweep loop: it sweeps a
game in place, in an order its caller gives. The start guess of
hoffman_karp, the vi route of solve, value_iteration and vi_iterates
all sweep in the layer order of the stopping test's attractor; vi_run
is the loop of value_iteration.

Values are integers in [0, 2**K] meaning v * 2**-K. Averages round
down; max and min are exact. Sweeps start from zero with the sinks
pinned at their constants; rounding down keeps them monotone
nondecreasing and never above the true fixed point.
"""

from __future__ import annotations

import random

from .games import Game, VertexKind


def backend() -> str:
    """Name of what the rollouts run on: plain Python, no array library."""
    return "python"


def ordered_sweeps(game: Game, order: list[int], one: int, max_iters: int):
    """Yield (values, gain) after each in-place (Gauss-Seidel) sweep of
    game on the grid with the 1-sink at one; values is one list indexed
    by vertex id (entry 0 unused), updated in place.

    A sweep visits the interior vertices in order and sets each to the
    max, min or rounded-down mean of its children's current values, so
    a vertex reads children updated earlier in the same sweep. The
    operator is monotone and the first sweep cannot lower the start
    vector, so the iterates are monotone nondecreasing: the gain, the
    sum of new values minus the sum of old ones, is the sum of the
    increases, and lies between the residual (the largest increase)
    and n times it. A sweep with gain 0 changed nothing: the values
    are a fixed point of the grid. The sequence ends after that sweep,
    or after max_iters sweeps. Every caller passes solve._layer_order.
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


def vi_run(game: Game, order: list[int], one: int, thr: int, max_iters: int):
    """Run ordered_sweeps until the first sweep whose gain is at most
    thr grid units, or for max_iters sweeps.

    Returns (values, productive sweeps, converged flag), with values a
    list in vertex order from vertex 1. A sweep is productive when its
    gain is positive; since the gain bounds the residual from above,
    convergence means the last residual was at most thr.
    """
    productive = 0
    for z, gain in ordered_sweeps(game, order, one, max_iters):
        productive += gain > 0
        if gain <= thr:
            return z[1:], productive, True
    return z[1:], productive, False


# The benchmark tracer looks up both names.
vi_run_object = vi_run


def mc_run(pairs: list, avg: list[bool], start: int, plays: int, max_steps: int, seed: int):
    """Roll out random plays from vertex start; returns (hits of the
    1-sink, truncated plays).

    pairs[v] is the successor pair (a, b) of interior vertex v and
    avg[v] whether v is an avg vertex; entry 0 of both is unused, and
    the 0-sink and the 1-sink are the two ids past the end of pairs.
    A vertex whose strategy is fixed has a = b.

    Plays are exchangeable, so only the number standing on each vertex
    is kept, in a dict. All plays advance together, one move per round,
    for at most max_steps rounds. A play ends on the round it reaches a
    sink, the last round included; one still off the sinks after
    max_steps moves is truncated.

    A vertex with successor pair (a, b) and c plays on it sends them on
    as follows. At a max or min vertex all c move to a, which in a fully
    reduced game is its one successor. At an avg vertex they split by
    one Binomial(c, 1/2) draw: getrandbits(c) is c independent fair
    bits, so its bit_count is the number of heads among c fair coins,
    and that many plays move to b, the rest to a. Each round visits the
    occupied vertices in the order the previous round first reached
    them and draws once per avg vertex, from a random.Random seeded
    with seed. Since different plays' coins are independent,
    (hits, truncated) has the same joint distribution as a rollout that
    tosses one coin per play; only the counts a given seed yields differ.
    """
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
        for v, c in occ.items():
            a, b = pairs[v]
            if avg[v]:
                t = bits(c).bit_count()
                if t:
                    nxt[b] = nxt.get(b, 0) + t
                    c -= t
            if c:
                nxt[a] = nxt.get(a, 0) + c
        occ = nxt
    return hits, sum(occ.values())
