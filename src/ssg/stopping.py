"""Make any game stopping by threading edges through coin-flip chains.

Every edge (i, j) of the original game is replaced by a run of m fair
coin vertices. Each one continues toward j on one outcome; the last one
diverts to the 0-sink on the other, so a single traversal of the old
edge now gets killed with probability 2**-m. With m = c*n and c large
enough, the perturbation of every value is far below the spacing of
representable values, which is what lets exact answers be recovered
from the stopping companion game.

Vertex numbering in the transformed game: original non-sinks keep their
ids, chain vertices fill n-1 .. n'-2 (allocated per original vertex in
ascending order, left edge first), and the two sinks move to n'-1, n'.

The companion never has to be built to be solved. Chain vertex k of an
edge into j is worth v(j)*(1 - 2**-(m-k)) in closed form, so each
chain head is worth lam*v(j) with lam = chain_weight(m) = 1 - 2**-m,
and the companion restricted to the original vertices is the n-vertex
game whose edges all carry weight lam. solve.hoffman_karp solves a
game that is not stopping there (solve._transform_solve): it evaluates
strategy pairs on that small game with the core of
markov.solve_value_vector, the evaluator its loop uses at lam = 1 on a
stopping game, and snaps the values back onto the original game's. The
evaluator's unknowns are the avg vertices: a player vertex whose pick
chain reaches avg vertex or sink t after k edges is worth lam**k times
t's value. The companion stays inside that solve: certificates hold
the original game's values and max strategy only.
build_stopping_game stays for callers that need the companion itself:
the transform verb, verify_transform_bound, and the tests, which use it
as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .exceptions import PreconditionError
from .games import Game, Strategy, VertexKind, build_game
from .markov import reduce_game, solve_value_vector

# The chain-length multiplier: chains of DEFAULT_C * n coin flips keep
# transform_error_bound below half the value separation at every n >= 1.
DEFAULT_C = 9
# The largest companion build_stopping_game builds, in vertices. At
# DEFAULT_C that holds every game up to n = 118; each vertex costs a few
# hundred bytes, so the cap keeps a build near 100 MB.
MAX_COMPANION_N = 250_000


@dataclass(frozen=True)
class StoppingTransform:
    """Bookkeeping of one chain construction.

    c is the chain-length multiplier and m = c * n the per-edge chain
    length; one traversal of an original edge is diverted to the 0-sink
    with chance 2**-m. vertex_map sends original ids to transformed
    ids; edge_chains lists each original edge's chain vertices in
    traversal order. The companion's size is the transformed game's n.
    """

    c: int
    m: int
    vertex_map: dict[int, int]
    edge_chains: dict[tuple[int, int], tuple[int, ...]]

    def mapped(self, vid: int) -> int:
        try:
            return self.vertex_map[vid]
        except KeyError:
            raise PreconditionError(f"vertex {vid} is not an original-game vertex") from None


def chain_weight(m: int) -> Fraction:
    """lam = 1 - 2**-m: a chain head's value as a share of its target's."""
    return 1 - Fraction(1, 2**m)


def build_stopping_game(game: Game, c: int = DEFAULT_C) -> tuple[Game, StoppingTransform]:
    """Return the stopping companion game and its transform record.

    A companion of more than MAX_COMPANION_N vertices is refused before
    anything is built.
    """
    if c < 1:
        raise PreconditionError(f"chain multiplier c must be positive, got {c}")
    n = game.n
    m = c * n
    n_prime = n + m * game.edge_count
    if n_prime > MAX_COMPANION_N:
        raise PreconditionError(
            f"the companion at c={c} would have {n_prime} vertices, "
            f"more than the {MAX_COMPANION_N} allowed"
        )
    sink0p = n_prime - 1
    # interior ids stay, the sinks move to n'-1 and n'
    vertex_map = {v: v if v < game.sink0 else v + n_prime - n for v in game.vertices}

    rows: list[tuple[int, VertexKind, int, int]] = []
    edge_chains: dict[tuple[int, int], tuple[int, ...]] = {}
    next_id = n - 1
    for v, j in game.edges():
        ids = tuple(range(next_id, next_id + m))
        next_id += m
        edge_chains[(v, j)] = ids
        mj = vertex_map[j]
        for k, a in enumerate(ids):
            if k + 1 < m:
                rows.append((a, VertexKind.AVG, mj, ids[k + 1]))
            elif mj != sink0p:
                rows.append((a, VertexKind.AVG, mj, sink0p))
            else:
                # The edge already points at the 0-sink; a plain
                # (sink0, sink0) pair would repeat a child, so the
                # divert slot loops. Both slots force value 0 and
                # the exit slot keeps the chain stopping.
                rows.append((a, VertexKind.AVG, mj, a))
    for v in game.interior:
        a, b = game.children_of(v)
        rows.append((v, game.kind(v), edge_chains[(v, a)][0], edge_chains[(v, b)][0]))

    transformed = build_game(n_prime, vertex_map[game.start], rows)
    record = StoppingTransform(c=c, m=m, vertex_map=vertex_map, edge_chains=edge_chains)
    return transformed, record


def lift_strategy(transform: StoppingTransform, strategy: Strategy) -> Strategy:
    """Carry a strategy over to the transformed game.

    A pick i->j becomes i->head of the (i, j) chain; ownership and the
    set of owned vertices are unchanged because chains are all avg.
    """
    picks = {}
    for v, j in strategy.picks:
        try:
            picks[v] = transform.edge_chains[(v, j)][0]
        except KeyError:
            raise PreconditionError(f"pick {v}->{j} is not an original-game edge") from None
    return Strategy.of(strategy.owner, picks)


def transform_error_bound(n: int, c: int) -> Fraction:
    """Worst-case value perturbation of the chain construction: 2**(n*(3-c)).

    Vacuous (>= 1) for small c; at c = 9 it is 2**(-6n), far below the
    4**(-2n) spacing of exactly representable values. n and c must be
    positive, as build_stopping_game requires of c.
    """
    if n < 1:
        raise PreconditionError(f"game size must be positive, got n={n}")
    if c < 1:
        raise PreconditionError(f"chain multiplier c must be positive, got {c}")
    e = n * (3 - c)
    if e >= 0:
        return Fraction(2**e)
    return Fraction(1, 2**-e)


class BoundCheck(NamedTuple):
    max_gap: Fraction
    within_bound: bool
    dominated: bool


def verify_transform_bound(
    game: Game,
    c: int,
    tau: Union[Strategy, None] = None,
    sigma: Union[Strategy, None] = None,
) -> BoundCheck:
    """Compare exact values of a strategy pair before and after the transform.

    Solves both reduced chains exactly and reports the largest gap over
    original vertices against 2**(n*(3-c)), plus whether the transformed
    values are dominated (chains only leak mass to the 0-sink, so they
    must be). The strategies must fully reduce the game.
    """
    rg = reduce_game(game, tau, sigma)
    if not rg.fully_reduced:
        raise PreconditionError("verify_transform_bound needs both strategies fixed")
    v = solve_value_vector(rg)
    transformed, record = build_stopping_game(game, c)
    rg2 = reduce_game(
        transformed,
        lift_strategy(record, tau) if tau is not None else None,
        lift_strategy(record, sigma) if sigma is not None else None,
    )
    v2 = solve_value_vector(rg2)
    gap = max(
        (abs(v[i] - v2[record.mapped(i)]) for i in game.vertices),
        default=Fraction(0),
    )
    return BoundCheck(
        max_gap=gap,
        within_bound=gap <= transform_error_bound(game.n, c),
        dominated=all(v2[record.mapped(i)] <= v[i] for i in game.vertices),
    )
