"""Seeded random game generation."""

from __future__ import annotations

import numpy as np

from .exceptions import GenerationError, PreconditionError
from .games import Game, VertexKind, build_game
from .markov import is_stopping

# Whole-game redraws allowed under require_stopping.
MAX_ATTEMPTS = 1000


def random_game(
    n: int,
    weights: tuple[int, int, int] = (1, 1, 1),
    seed: int = 0,
    require_stopping: bool = False,
) -> Game:
    """Draw a game from PCG64(seed), seed >= 0; identical arguments give
    identical games.

    Draw protocol, fixed for reproducibility: first the kind of each
    vertex 1..n-2 in ascending order, one integer in [0, sum(weights))
    mapped to max/min/avg by cumulative ranges in that order; then the
    children of each vertex 1..n-2 in ascending order, one integer in
    [0, (n-1)*(n-2)) decoded as an ordered pair of distinct vertices
    other than the vertex itself. The generator never emits self loops
    (hand-built games still may have them). The start vertex is 1.

    With require_stopping, whole games are redrawn from the same stream
    until the stopping test passes, up to MAX_ATTEMPTS.
    """
    if n < 3:
        raise PreconditionError(f"generated games need n >= 3, got {n}")
    if len(weights) != 3 or any(w < 0 for w in weights) or sum(weights) == 0:
        raise PreconditionError(f"weights must be three nonnegative integers, not all zero: {weights}")
    if seed < 0:
        raise PreconditionError(f"seed must be a non-negative integer, got {seed}")

    total = sum(weights)
    cut_max = weights[0]
    cut_min = weights[0] + weights[1]
    rng = np.random.Generator(np.random.PCG64(seed))

    for _ in range(MAX_ATTEMPTS):
        kinds = []
        for _v in range(1, n - 1):
            r = int(rng.integers(0, total))
            if r < cut_max:
                kinds.append(VertexKind.MAX)
            elif r < cut_min:
                kinds.append(VertexKind.MIN)
            else:
                kinds.append(VertexKind.AVG)
        rows = []
        for v in range(1, n - 1):
            code = int(rng.integers(0, (n - 1) * (n - 2)))
            # positions a != b among the n - 1 vertices other than v;
            # position i is vertex i + 1, or i + 2 from v on
            a, b = divmod(code, n - 2)
            b += b >= a
            c1, c2 = (i + 1 if i + 1 < v else i + 2 for i in (a, b))
            rows.append((v, kinds[v - 1], c1, c2))
        game = build_game(n, 1, rows)
        if not require_stopping or is_stopping(game):
            return game

    raise GenerationError(
        f"no stopping game found in {MAX_ATTEMPTS} attempts (n={n}, seed={seed}, weights={weights})"
    )
