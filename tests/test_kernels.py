"""The integer sweep loop and the numpy rollout.

Sweeps must follow the fixed-point operator exactly, on any grid width,
and stop by the same rule as the loop written out in this file. Rollouts
must be reproducible per seed and count plays that start on a sink.
"""

import numpy as np

from ssg import kernels
from ssg.fixtures import GAME_B
from ssg.markov import ReducedGame, _reduced_arrays
import ssg


def test_backend_is_numpy():
    assert kernels.backend() == "numpy"


def test_sweep_ints_operator_semantics():
    # vertices: max(a=1,b=2), min(1,2), avg(1,2), sink0, sink1
    kind = [
        kernels.KIND_MAX,
        kernels.KIND_MIN,
        kernels.KIND_AVG,
        kernels.KIND_SINK0,
        kernels.KIND_SINK1,
    ]
    c0 = [3, 3, 3, 0, 0]
    c1 = [4, 4, 4, 0, 0]
    one = 1 << 8
    out = kernels.sweep_ints(kind, c0, c1, [7, 7, 7, 0, one], one)
    assert out == [one, 0, one >> 1, 0, one]


def test_avg_rounds_down():
    kind = [kernels.KIND_AVG, kernels.KIND_SINK0, kernels.KIND_SINK1]
    out = kernels.sweep_ints(kind, [1, 0, 0], [2, 0, 0], [0, 3, 8], 256)
    assert out[0] == 5  # (3 + 8) >> 1


def _reference_run(kind, c0, c1, one, thr, max_iters):
    """The sweep loop written out: (values, productive sweeps, converged)."""
    v = kernels.start_vector(kind, one)
    productive = 0
    for _ in range(max_iters):
        new = kernels.sweep_ints(kind, c0, c1, v, one)
        res = max(b - a for a, b in zip(v, new))
        productive += res > 0
        v = new
        if res <= thr:
            return v, productive, True
    return v, productive, False


def test_vi_run_matches_object_loop():
    for game in (GAME_B, ssg.random_game(12, seed=3, require_stopping=True)):
        kind, c0, c1 = _reduced_arrays(ReducedGame(game))
        for bits in (20, 60, 61, 140):
            one = 1 << bits
            for thr in (0, one >> 24):
                for max_iters in (1, 7, 500):
                    expect = _reference_run(kind, c0, c1, one, thr, max_iters)
                    assert kernels.vi_run(kind, c0, c1, one, thr, max_iters) == expect


def test_start_vector_pins_sinks():
    kind = [kernels.KIND_AVG, kernels.KIND_SINK0, kernels.KIND_SINK1]
    assert kernels.start_vector(kind, 64) == [0, 0, 64]


def test_mc_run_numpy_deterministic_per_seed():
    kind, s0, s1 = _reduced_arrays(ReducedGame(GAME_B))
    a = kernels.mc_run(kind, s0, s1, 0, 5000, 4096, 42)
    b = kernels.mc_run(kind, s0, s1, 0, 5000, 4096, 42)
    assert a == b


def test_mc_run_counts_immediate_sinks():
    kind = np.array([kernels.KIND_SINK0, kernels.KIND_SINK1], dtype=np.int8)
    s = np.array([0, 1], dtype=np.int64)
    assert kernels.mc_run(kind, s, s, 1, 100, 16, 0) == (100, 0)
    assert kernels.mc_run(kind, s, s, 0, 100, 16, 0) == (0, 0)
