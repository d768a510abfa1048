"""The integer sweep loop and the numpy rollout.

Sweeps must follow the fixed-point operator exactly, on any grid width
and any vertex order, and stop by the same rule as the per-vertex loop
written out in this file. Rollouts must be reproducible per seed, count
plays that start on a sink, and match the rollout written out here play
for play.
"""

import random

import numpy as np

from ssg import kernels
from ssg.fixtures import GAME_B
from ssg.markov import ReducedGame, _reduced_arrays, reduce_game
import ssg

MAX, MIN, AVG = kernels.KIND_MAX, kernels.KIND_MIN, kernels.KIND_AVG
SINK0, SINK1 = kernels.KIND_SINK0, kernels.KIND_SINK1


def sweep_ints(kind, c0, c1, v, one):
    """One synchronous sweep, vertex by vertex, in vertex order."""
    out = []
    for i in range(len(v)):
        k = kind[i]
        a = v[c0[i]]
        b = v[c1[i]]
        if k == MAX:
            out.append(a if a > b else b)
        elif k == MIN:
            out.append(a if a < b else b)
        elif k == AVG:
            out.append((a + b) >> 1)
        elif k == SINK0:
            out.append(0)
        else:
            out.append(one)
    return out


def _reference_run(kind, c0, c1, one, thr, max_iters):
    """The sweep loop written out: (values, productive sweeps, converged)."""
    v = [one if k == SINK1 else 0 for k in kind]
    productive = 0
    for _ in range(max_iters):
        new = sweep_ints(kind, c0, c1, v, one)
        res = max(b - a for a, b in zip(v, new))
        productive += res > 0
        v = new
        if res <= thr:
            return v, productive, True
    return v, productive, False


def _permuted(arrays, perm):
    """The same game with vertex u renamed perm[u]."""
    kind, c0, c1 = arrays
    n = len(kind)
    out = ([0] * n, [0] * n, [0] * n)
    for u in range(n):
        out[0][perm[u]] = kind[u]
        out[1][perm[u]] = perm[c0[u]]
        out[2][perm[u]] = perm[c1[u]]
    return out


def _sinks_first(kind):
    """A permutation that moves the sinks to the front, other vertices in order."""
    order = [u for u in range(len(kind)) if kind[u] >= SINK0]
    order += [u for u in range(len(kind)) if kind[u] < SINK0]
    perm = [0] * len(kind)
    for pos, u in enumerate(order):
        perm[u] = pos
    return perm


def test_backend_is_numpy():
    assert kernels.backend() == "numpy"


def test_sweep_ints_operator_semantics():
    # max, min and avg of (sink0, sink1) with one = 3: one, 0 and 3 >> 1 = 1
    one = 3
    kind = [MAX, MIN, AVG, SINK0, SINK1]
    c0 = [3, 3, 3, 3, 4]
    c1 = [4, 4, 4, 3, 4]
    assert kernels.vi_run(kind, c0, c1, one, 0, 1) == ([3, 0, 1, 0, 3], 1, False)
    assert kernels.vi_run(kind, c0, c1, one, 0, 9) == ([3, 0, 1, 0, 3], 1, True)
    # the same vertices with the sinks first and the kinds interleaved
    kind = [SINK1, AVG, SINK0, MIN, MAX]
    c0 = [0, 2, 2, 2, 2]
    c1 = [0, 0, 2, 0, 0]
    assert kernels.vi_run(kind, c0, c1, one, 0, 9) == ([3, 1, 0, 0, 3], 1, True)


def test_avg_rounds_down():
    # avg1 = avg(sink0, sink1), avg2 = avg(avg1, sink1); exact 5/2 and 15/4
    one = 5
    kind = [AVG, AVG, SINK0, SINK1]
    c0 = [2, 0, 2, 3]
    c1 = [3, 3, 2, 3]
    assert kernels.vi_run(kind, c0, c1, one, 0, 1) == ([2, 2, 0, 5], 1, False)
    assert kernels.vi_run(kind, c0, c1, one, 0, 9) == ([2, 3, 0, 5], 2, True)


def test_vi_run_matches_object_loop():
    games = [GAME_B, ssg.random_game(12, seed=3, require_stopping=True)]
    games += [ssg.random_game(n, seed=s, require_stopping=True) for n in (20, 40) for s in (0, 1)]
    for game in games:
        arrays = _reduced_arrays(ReducedGame(game))
        for kind, c0, c1 in (arrays, _permuted(arrays, _sinks_first(arrays[0]))):
            for bits in (20, 60, 61, 140):
                one = 1 << bits
                for thr in (0, one >> 24, one >> 4):
                    for max_iters in (1, 7, 500):
                        expect = _reference_run(kind, c0, c1, one, thr, max_iters)
                        assert kernels.vi_run(kind, c0, c1, one, thr, max_iters) == expect


def test_start_vector_pins_sinks():
    kind = [SINK1, AVG, SINK0]
    layout = kernels.sweep_layout(kind, [0, 2, 2], [0, 0, 2], 64)
    assert layout.start() == [0, 0, 64]
    assert layout.in_vertex_order(layout.start()) == [64, 0, 0]


def _reference_rollout(kind, s0, s1, start, plays, max_steps, seed):
    """The rollout written out on an index array of the plays still going."""
    kind = np.asarray(kind, dtype=np.int8)
    s0 = np.asarray(s0, dtype=np.int64)
    s1 = np.asarray(s1, dtype=np.int64)
    rs = np.random.RandomState(seed)
    pos = np.full(plays, start, dtype=np.int64)
    active = np.arange(plays)
    hits = 0
    for _ in range(max_steps):
        if active.size == 0:
            break
        k = kind[pos[active]]
        hits += int((k == SINK1).sum())
        active = active[(k != SINK0) & (k != SINK1)]
        if active.size == 0:
            break
        cur = pos[active]
        nxt = s0[cur].copy()
        avg = kind[cur] == AVG
        n_avg = int(avg.sum())
        if n_avg:
            tails = rs.random_sample(n_avg) >= 0.5
            cav = cur[avg]
            nxt[avg] = np.where(tails, s1[cav], s0[cav])
        pos[active] = nxt
    return hits, int(active.size)


def _random_strategies(game, seed):
    rng = random.Random(seed)
    return tuple(
        ssg.Strategy.of(k, {v: rng.choice(game.children_of(v)) for v in game.vertices_of_kind(k)})
        for k in (ssg.VertexKind.MIN, ssg.VertexKind.MAX)
    )


def test_mc_run_matches_reference_rollout():
    for n in (8, 16, 24, 32, 40):
        stopping = ssg.random_game(n, seed=n, require_stopping=True)
        report = ssg.solve(stopping, "hk")
        loopy = ssg.random_game(n, seed=n)
        cases = [
            (reduce_game(stopping, report.tau, report.sigma), (1, 2, 3, 4096 * n)),
            (reduce_game(loopy, *_random_strategies(loopy, n)), (1, 2, 3, 64, 512)),
        ]
        for rg, steps in cases:
            kind, s0, s1 = _reduced_arrays(rg)
            starts = [rg.game.start - 1, rg.game.sink0 - 1, rg.game.sink1 - 1]
            for start in starts:
                for max_steps in steps:
                    args = (kind, s0, s1, start, 1500, max_steps, n)
                    assert kernels.mc_run(*args) == _reference_rollout(*args)


def test_mc_run_numpy_deterministic_per_seed():
    kind, s0, s1 = _reduced_arrays(ReducedGame(GAME_B))
    a = kernels.mc_run(kind, s0, s1, 0, 5000, 4096, 42)
    b = kernels.mc_run(kind, s0, s1, 0, 5000, 4096, 42)
    assert a == b


def test_mc_run_counts_immediate_sinks():
    kind = np.array([SINK0, SINK1], dtype=np.int8)
    s = np.array([0, 1], dtype=np.int64)
    assert kernels.mc_run(kind, s, s, 1, 100, 16, 0) == (100, 0)
    assert kernels.mc_run(kind, s, s, 0, 100, 16, 0) == (0, 0)
