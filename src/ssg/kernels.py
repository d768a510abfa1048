"""Integer fixed-point sweeps and random-walk rollouts.

The two approximate loops of the package live here: value-iteration
sweeps on a 2**-K fixed-point grid, run on Python integers so any K
works, and Monte-Carlo play rollouts, run on numpy arrays.

Values are integers in [0, 2**K] meaning v * 2**-K. Averages round
down; max and min are exact. Sweeps start from zero with the sinks
pinned at their constants; rounding down keeps them monotone
nondecreasing and never above the true fixed point.
"""

from __future__ import annotations

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


def sweep_ints(kind, c0, c1, v: list[int], one: int) -> list[int]:
    """One synchronous sweep on plain Python integers (any K)."""
    out = []
    for i in range(len(v)):
        k = kind[i]
        a = v[c0[i]]
        b = v[c1[i]]
        if k == KIND_MAX:
            out.append(a if a > b else b)
        elif k == KIND_MIN:
            out.append(a if a < b else b)
        elif k == KIND_AVG:
            out.append((a + b) >> 1)
        elif k == KIND_SINK0:
            out.append(0)
        else:
            out.append(one)
    return out


def start_vector(kind, one: int) -> list[int]:
    """Zero everywhere except the 1-sink, which is pinned at its constant."""
    return [one if k == KIND_SINK1 else 0 for k in kind]


def sweeps(kind, c0, c1, one: int, thr: int, max_iters: int):
    """Yield (values, residual) after each sweep from the start vector.

    The residual is the largest componentwise increase in grid units.
    The sequence ends after the first sweep whose residual is at most
    thr, or after max_iters sweeps.
    """
    v = start_vector(kind, one)
    for _ in range(max_iters):
        new = sweep_ints(kind, c0, c1, v, one)
        res = max((b - a for a, b in zip(v, new)), default=0)
        v = new
        yield v, res
        if res <= thr:
            return


def vi_run(kind, c0, c1, one: int, thr: int, max_iters: int):
    """Run the sweep loop from the pinned-sink start vector.

    Returns (values, productive sweeps, converged flag). A sweep is
    productive when it changed at least one component; convergence means
    the last residual was at most thr in grid units.
    """
    v = start_vector(kind, one)
    productive = 0
    res = None
    for v, res in sweeps(kind, c0, c1, one, thr, max_iters):
        if res > 0:
            productive += 1
    return v, productive, res is not None and res <= thr


# The benchmark tracer looks up both names.
vi_run_object = vi_run


def mc_run(kind, s0, s1, start: int, plays: int, max_steps: int, seed: int):
    """Roll out random plays; returns (hits of the 1-sink, truncated plays).

    All plays advance together, one step per round; each avg vertex
    flips a fair coin drawn from a RandomState seeded with seed.
    """
    kind = np.ascontiguousarray(kind, dtype=np.int8)
    s0 = np.ascontiguousarray(s0, dtype=np.int64)
    s1 = np.ascontiguousarray(s1, dtype=np.int64)
    rs = np.random.RandomState(seed)
    pos = np.full(plays, start, dtype=np.int64)
    active = np.arange(plays)
    hits = 0
    for _ in range(max_steps):
        if active.size == 0:
            break
        k = kind[pos[active]]
        hits += int((k == KIND_SINK1).sum())
        keep = (k != KIND_SINK0) & (k != KIND_SINK1)
        active = active[keep]
        if active.size == 0:
            break
        cur = pos[active]
        kk = kind[cur]
        nxt = s0[cur].copy()
        avg = kk == KIND_AVG
        n_avg = int(avg.sum())
        if n_avg:
            tails = rs.random_sample(n_avg) >= 0.5
            cav = cur[avg]
            picked = np.where(tails, s1[cav], s0[cav])
            nxt[avg] = picked
        pos[active] = nxt
    return hits, int(active.size)
