"""The integer sweep loop and the counting rollout, both on vertex ids.

Sweeps must follow the fixed-point operator exactly, on any grid width
and in any order, and stop by the same rule as the per-vertex in-place
loop written out in this file. Rollouts must be reproducible per seed,
count plays that start on a sink, and land within five standard
deviations of the exact odds of reaching the 1-sink and of being
truncated, computed here in rationals; so must the per-play numpy
rollout written out here.
"""

import math
import random
from fractions import Fraction

import numpy as np

from ssg import kernels
from ssg.fixtures import GAME_B
from ssg.markov import ReducedGame, reduce_game, stopping_layers
from ssg.solve import _layer_order
import ssg

MAX, MIN, AVG = ssg.VertexKind.MAX, ssg.VertexKind.MIN, ssg.VertexKind.AVG


def _order(game):
    return _layer_order(game, stopping_layers(game))


def _vi(game, one, thr, max_iters):
    return kernels.vi_run(game, _order(game), one, thr, max_iters)


def sweep_in_place(game, z, order):
    """One in-place sweep, vertex by vertex, in order; z is in vertex
    order from vertex 1, and each vertex reads its children's current
    entries."""
    for u in order:
        a, b = (z[c - 1] for c in game.children_of(u))
        kind = game.kind(u)
        if kind is MAX:
            z[u - 1] = a if a > b else b
        elif kind is MIN:
            z[u - 1] = a if a < b else b
        else:
            z[u - 1] = (a + b) >> 1


def _reference_run(game, order, one, thr, max_iters):
    """The sweep loop written out: (values, productive sweeps, converged),
    stopping at the first sweep whose gain (sum increase) is at most thr."""
    z = [0] * (game.n - 1) + [one]
    productive = 0
    for _ in range(max_iters):
        before = sum(z)
        sweep_in_place(game, z, order)
        gain = sum(z) - before
        productive += gain > 0
        if gain <= thr:
            return z, productive, True
    return z, productive, False


def _walk(rg):
    """The successor pairs and avg flags mc_run walks, by vertex id."""
    game = rg.game
    pairs = [None] + [(s[0], s[-1]) for s in map(rg.successors, game.interior)]
    avg = [False] + [game.kind(v) is AVG for v in game.interior]
    return pairs, avg


def test_backend_is_python():
    assert kernels.backend() == "python"


def test_sweep_ints_operator_semantics():
    # max, min and avg of (sink0, sink1) with one = 3: one, 0 and 3 >> 1 = 1
    one = 3
    game = ssg.build_game(5, 1, [(1, "max", 4, 5), (2, "min", 4, 5), (3, "avg", 4, 5)])
    assert _vi(game, one, 0, 1) == ([3, 0, 1, 0, 3], 1, False)
    assert _vi(game, one, 0, 9) == ([3, 0, 1, 0, 3], 1, True)
    # the same vertices with the kinds in reverse vertex order
    game = ssg.build_game(5, 1, [(1, "avg", 5, 4), (2, "min", 5, 4), (3, "max", 5, 4)])
    assert _vi(game, one, 0, 9) == ([1, 0, 3, 0, 3], 1, True)


def test_avg_rounds_down():
    # avg1 = avg(sink0, sink1), avg2 = avg(avg1, sink1); exact 5/2 and 15/4
    one = 5
    game = ssg.build_game(4, 1, [(1, "avg", 3, 4), (2, "avg", 1, 4)])
    # in layer order 1, 2 avg2 reads the new avg1 in the same sweep
    assert _order(game) == [1, 2]
    assert _vi(game, one, 0, 1) == ([2, 3, 0, 5], 1, False)
    assert _vi(game, one, 0, 9) == ([2, 3, 0, 5], 1, True)
    # in the order 2, 1 it reads the old one and takes a second sweep
    assert kernels.vi_run(game, [2, 1], one, 0, 1) == ([2, 2, 0, 5], 1, False)
    assert kernels.vi_run(game, [2, 1], one, 0, 9) == ([2, 3, 0, 5], 2, True)


def test_vi_run_matches_object_loop():
    games = [GAME_B, ssg.random_game(12, seed=3, require_stopping=True)]
    games += [ssg.random_game(n, seed=s, require_stopping=True) for n in (20, 40) for s in (0, 1)]
    games += [ssg.random_game(16, w, seed=5) for w in ((1, 0, 1), (0, 1, 1), (1, 1, 8))]
    # not stopping: the stopping attractor misses the max/min cycle 1, 2,
    # so the order sweeps them last, after the avg cycle 4 -> 3 -> 1
    rows = [(1, "max", 2, 3), (2, "min", 1, 5), (3, "avg", 1, 4), (4, "avg", 3, 6)]
    loopy = ssg.build_game(6, 1, rows)
    assert _order(loopy) == [4, 3, 1, 2]
    games.append(loopy)
    for game in games:
        order = _order(game)
        for bits in (20, 60, 61, 140):
            one = 1 << bits
            for thr in (0, one >> 24, one >> 4):
                for max_iters in (1, 7, 500):
                    want = _reference_run(game, order, one, thr, max_iters)
                    assert kernels.vi_run(game, order, one, thr, max_iters) == want


def _reference_rollout(rg, start, plays, max_steps, seed):
    """The rollout written out in vertex order, moving only the plays
    still off the sinks; a play that ends keeps its sink, so hits and
    truncated plays are read off the positions at the end."""
    game = rg.game
    succ = [rg.successors(v) or (v,) for v in game.vertices]
    s0 = np.array([s[0] for s in succ], dtype=np.int64)
    s1 = np.array([s[-1] for s in succ], dtype=np.int64)
    is_avg = np.array([k is AVG for k in game.kinds])
    is_sink = np.array([k.is_sink for k in game.kinds])
    rs = np.random.RandomState(seed)
    pos = np.full(plays, start, dtype=np.int64)
    active = np.arange(plays)
    for _ in range(max_steps):
        active = active[~is_sink[pos[active] - 1]]
        if active.size == 0:
            break
        cur = pos[active]
        nxt = s0[cur - 1]
        avg = is_avg[cur - 1]
        n_avg = int(avg.sum())
        if n_avg:
            tails = rs.random_sample(n_avg) >= 0.5
            cav = cur[avg]
            nxt[avg] = np.where(tails, s1[cav - 1], s0[cav - 1])
        pos[active] = nxt
    return int((pos == game.sink1).sum()), int((~is_sink[pos - 1]).sum())


def _random_strategies(game, seed):
    rng = random.Random(seed)
    return tuple(
        ssg.Strategy.of(k, {v: rng.choice(game.children_of(v)) for v in game.vertices_of_kind(k)})
        for k in (MIN, MAX)
    )


# Moves the exact odds are computed for; past it only the plays still
# off the sinks can change either count, and the check widens by them.
EXACT_MOVES = 2048


def _exact_odds(rg, k):
    """(u, r) in vertex order for k moves: u[v - 1] is the probability
    that a play from v reaches the 1-sink within k moves, r[v - 1] that
    it is still off the sinks after them.

    Numerators over 2**k: a sink is its own successor twice and the one
    successor of a max or min vertex fills both slots, so each further
    move sets a vertex's numerator to the sum of its two successors'.
    """
    game = rg.game
    succ = [rg.successors(v) or (v,) for v in game.vertices]
    pairs = [(s[0] - 1, s[-1] - 1) for s in succ]
    u = [int(v == game.sink1) for v in game.vertices]
    r = [int(not kind.is_sink) for kind in game.kinds]
    for _ in range(k):
        u = [u[a] + u[b] for a, b in pairs]
        r = [r[a] + r[b] for a, b in pairs]
    return [Fraction(x, 1 << k) for x in u], [Fraction(x, 1 << k) for x in r]


def _assert_near(count, plays, p, slack):
    """count of plays lands on the mean plays * p: exactly when p is 0
    or 1 and nothing is left uncounted, else within five standard
    deviations plus one play plus slack."""
    if not slack and p in (0, 1):
        assert count == plays * p
    else:
        sd = math.sqrt(plays * p * (1 - p))
        assert abs(count - plays * p) <= 5 * sd + 1 + slack


def _assert_exact_odds(rg, start, plays, max_steps, got):
    hits, truncated = got
    assert 0 <= hits and 0 <= truncated and hits + truncated <= plays
    u, r = _exact_odds(rg, min(max_steps, EXACT_MOVES))
    u, r = u[start - 1], r[start - 1]
    slack = 0
    if max_steps > EXACT_MOVES:
        # later moves only take plays off the r share: u can grow by at
        # most r, and the truncated share shrinks into [0, r]
        slack = plays * r
        assert slack < 2**-10
    _assert_near(hits, plays, u, slack)
    _assert_near(truncated, plays, r, slack)


def test_mc_run_matches_exact_odds():
    for n in (8, 16, 24, 32, 40):
        stopping = ssg.random_game(n, seed=n, require_stopping=True)
        report = ssg.solve(stopping, "hk")
        loopy = ssg.random_game(n, seed=n)
        cases = [
            (reduce_game(stopping, report.tau, report.sigma), (1, 2, 3, 4096 * n)),
            (reduce_game(loopy, *_random_strategies(loopy, n)), (1, 2, 3, 64, 512)),
        ]
        for rg, steps in cases:
            walk = _walk(rg)
            for start in (rg.game.start, rg.game.sink0, rg.game.sink1):
                for max_steps in steps:
                    for plays, seed in ((1500, n), (200_000, 1000 + n)):
                        got = kernels.mc_run(*walk, start, plays, max_steps, seed)
                        _assert_exact_odds(rg, start, plays, max_steps, got)
                    got = _reference_rollout(rg, start, 1500, max_steps, n)
                    _assert_exact_odds(rg, start, 1500, max_steps, got)


def test_mc_run_counts_moves_along_an_avg_chain():
    # 1 -> 2 -> 3 -> 0-sink, each avg vertex with a coin to the 1-sink
    rg = ReducedGame(ssg.build_game(5, 1, [(1, "avg", 2, 5), (2, "avg", 3, 5), (3, "avg", 4, 5)]))
    walk = _walk(rg)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    for max_steps, odds in ((1, (half, half)), (2, (3 * quarter, quarter)), (3, (Fraction(7, 8), 0))):
        assert tuple(p[0] for p in _exact_odds(rg, max_steps)) == odds
        got = kernels.mc_run(*walk, 1, 200_000, max_steps, max_steps)
        _assert_exact_odds(rg, 1, 200_000, max_steps, got)
    # one move splits 64 plays by independent coins: hits have variance
    # 16, and 200 seeds put the sample variance within 5 SE of it
    hits = [kernels.mc_run(*walk, 1, 64, 1, seed)[0] for seed in range(200)]
    mean = sum(hits) / len(hits)
    var = sum((h - mean) ** 2 for h in hits) / (len(hits) - 1)
    assert 8 < var < 24


def test_mc_run_is_exact_off_avg_vertices():
    # the play from 1 runs max 1 -> min 2 -> max 3 -> 1-sink; the play
    # from 4 cycles max 4 <-> min 5; the coin at avg 6 is never reached
    edges = [(1, "max", 2, 6), (2, "min", 3, 6), (3, "max", 8, 6)]
    edges += [(4, "max", 5, 6), (5, "min", 4, 6), (6, "avg", 7, 8)]
    sigma = ssg.Strategy.of(MAX, {1: 2, 3: 8, 4: 5})
    tau = ssg.Strategy.of(MIN, {2: 3, 5: 4})
    walk = _walk(reduce_game(ssg.build_game(8, 1, edges), tau, sigma))
    for max_steps in range(1, 8):
        ended = (300, 0) if max_steps >= 3 else (0, 300)
        assert kernels.mc_run(*walk, 1, 300, max_steps, 0) == ended
        assert kernels.mc_run(*walk, 4, 300, max_steps, 0) == (0, 300)


def test_mc_run_deterministic_per_seed():
    walk = _walk(ReducedGame(GAME_B))
    a = kernels.mc_run(*walk, 1, 5000, 4096, 42)
    b = kernels.mc_run(*walk, 1, 5000, 4096, 42)
    assert a == b


def test_mc_run_counts_immediate_sinks():
    walk = _walk(ReducedGame(ssg.build_game(2, 2, [])))
    assert kernels.mc_run(*walk, 2, 100, 16, 0) == (100, 0)
    assert kernels.mc_run(*walk, 1, 100, 16, 0) == (0, 0)
