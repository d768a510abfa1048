"""Reduced games, attractors, exact value vectors, and the stopping test.

Fixing one player's strategy removes that player's choices; fixing both
leaves a Markov chain. Its absorption probabilities into the 1-sink
satisfy v = Q v + b, where b is the unit vector of the 1-sink. In the
chain a max or min vertex has one successor and copies its value, so
only the avg vertices are unknowns: a player vertex follows its pick
chain to the first avg vertex or sink and takes that end's value, or 0
when the chain closes a cycle of player vertices. An avg vertex with no
path to the 1-sink is worth exactly 0, so it gets no row, and the rows
of the other avg vertices are uniquely solvable.

solve_value_vector is the package's one exact evaluator of a strategy
pair. It also takes an edge weight lam, solving v = lam (Q v + b): at
lam = 1 for Hoffman-Karp and the brute-force oracle, and at the chain
factor lam = 1 - 2**-(c*n) for the stopping transform, whose companion
game contracts to the original vertices with that weight on every edge.
A pick chain of k edges then carries the weight lam**k, and every lam
keeps the same rows.

attractor is the package's one qualitative engine: the linear-time
attractor of a reachability game (Condon 1992). The stopping test, the
evaluator's rows, the LP's zero set, the qualitative pre-pass
zero_one_sets, the solver for games without chance, optimal strategy
extraction and the certificate check are all calls of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Collection, NamedTuple, Union

from . import kernels
from .exceptions import InternalCheckError, PreconditionError, StrategyError
from .games import (
    Game,
    Strategy,
    ValueVector,
    VertexKind,
    validate_strategy,
)

@dataclass(frozen=True)
class ReducedGame:
    """A game with zero, one, or two strategies fixed.

    tau fixes the min player, sigma the max player. A missing strategy
    for a player with no vertices counts as fixed.
    """

    game: Game
    tau: Union[Strategy, None] = None
    sigma: Union[Strategy, None] = None

    def successors(self, v: int) -> tuple[int, ...]:
        children = self.game.children[v - 1]
        if children is None:  # a sink
            return ()
        # test the strategies first: an enum member lookup is the slower check
        kind = self.game.kinds[v - 1]
        if self.tau is not None and kind is VertexKind.MIN:
            return (self.tau.pick(v),)
        if self.sigma is not None and kind is VertexKind.MAX:
            return (self.sigma.pick(v),)
        return children

    @property
    def fully_reduced(self) -> bool:
        min_done = self.tau is not None or not self.game.has_kind(VertexKind.MIN)
        max_done = self.sigma is not None or not self.game.has_kind(VertexKind.MAX)
        return min_done and max_done


def reduce_game(game: Game, tau: Union[Strategy, None] = None, sigma: Union[Strategy, None] = None) -> ReducedGame:
    """Fix strategies after checking they belong to the right players."""
    if tau is not None:
        if tau.owner is not VertexKind.MIN:
            raise StrategyError("tau must be a min-player strategy")
        validate_strategy(game, tau)
    if sigma is not None:
        if sigma.owner is not VertexKind.MAX:
            raise StrategyError("sigma must be a max-player strategy")
        validate_strategy(game, sigma)
    return ReducedGame(game=game, tau=tau, sigma=sigma)


def _require_fully_reduced(rg: ReducedGame, what: str) -> None:
    if not rg.fully_reduced:
        raise PreconditionError(f"{what} needs both players' strategies fixed")


def attractor(
    rg: ReducedGame, target: Collection[int], blocking: Collection[VertexKind]
) -> dict[int, int]:
    """The least vertex set holding target and every interior vertex
    with enough successors under rg already in it, as {vertex: layer}.
    rg may be any successor view: an object with the game as .game and
    a successors(v) method, such as solve's tight-edge view.

    "Enough" is all successors when the vertex's kind is in blocking and
    one otherwise, so for blocking = {MIN} it is the set from which max
    forces a visit to target, and for blocking = () the set with a path
    to target. target is layer 0; a vertex joins one layer after the
    successor that completes its need, so its layer is the length of
    the longest forced path into target. Linear time: predecessor lists
    and need counters, one frontier per layer.
    """
    game = rg.game
    kinds = game.kinds
    preds: list[list[int]] = [[] for _ in range(game.n + 1)]
    need = [0] * (game.n + 1)
    for v in game.interior:
        succ = rg.successors(v)
        need[v] = len(succ) if kinds[v - 1] in blocking else 1
        for j in succ:
            preds[j].append(v)
    layers = dict.fromkeys(target, 0)
    for v in layers:
        need[v] = 0  # counts below zero never reach zero again
    frontier = list(layers)
    depth = 0
    while frontier:
        depth += 1
        joined = []
        for v in frontier:
            for p in preds[v]:
                need[p] -= 1
                if need[p] == 0:
                    layers[p] = depth
                    joined.append(p)
        frontier = joined
    return layers


class _Within(NamedTuple):
    """The game restricted to the vertex set inside, as a successor view
    for attractor: a vertex in it keeps its children in it, and any
    other vertex has none, so it never joins an attractor."""

    game: Game
    inside: set[int]

    def successors(self, v: int) -> list[int]:
        inside = self.inside
        if v not in inside:
            return []
        return [c for c in self.game.children[v - 1] if c in inside]


def zero_one_sets(game: Game) -> tuple[frozenset[int], frozenset[int]]:
    """The vertices worth exactly 0 and those worth exactly 1, found by
    attractors alone, with no arithmetic (the Prob0/Prob1 step of
    probabilistic model checking; de Alfaro, Henzinger and Kupferman,
    FOCS 1998).

    A vertex is worth more than 0 exactly when max can make the 1-sink
    reachable with positive probability: the attractor of the 1-sink
    with min blocking, where an avg vertex joins once one child has.
    The value-1 set is a greatest fixed point. W starts at every
    vertex; A is the attractor of the 1-sink within W with min
    blocking, and W loses everything from which min or a coin can force
    the play into U = W - A: the attractor of U within W with max
    blocking. When U is empty, max can reach the 1-sink with positive
    probability from every vertex of W without leaving it, so max
    reaches it almost surely. The first A is the positive set.
    """
    sink1 = (game.sink1,)
    reach = attractor(ReducedGame(game), sink1, (VertexKind.MIN,))
    zeros = frozenset(game.vertices).difference(reach)
    ones = set(game.vertices)
    outside = zeros  # U
    while outside:
        within = _Within(game, ones)  # sees ones shrink in place
        removed = attractor(within, outside, (VertexKind.MAX,))
        ones.difference_update(removed)
        if len(removed) == len(outside):
            # it removed U alone, so W is now A; A's vertices joined
            # through A, so the next A is all of W and the next U is empty
            break
        reach = attractor(within, sink1, (VertexKind.MIN,))
        outside = ones.difference(reach)
    return zeros, frozenset(ones)


def sink_reachable_set(rg: ReducedGame) -> frozenset[int]:
    """Non-sink vertices with a directed path to either sink."""
    _require_fully_reduced(rg, "sink_reachable_set")
    sinks = (rg.game.sink0, rg.game.sink1)
    return frozenset(attractor(rg, sinks, ())).difference(sinks)


_ZERO = Fraction(0)
_ONE = Fraction(1)


class _ChainView(NamedTuple):
    """A fully reduced game with its pick chains contracted, as a
    successor view for attractor: an avg vertex's successors are its
    children's chain ends, and a player vertex has none."""

    game: Game
    arms: dict[int, tuple[int, int]]

    def successors(self, v: int) -> tuple[int, ...]:
        return self.arms.get(v, ())


def solve_value_vector(rg: ReducedGame, lam: Fraction = Fraction(1)) -> ValueVector:
    """Exact values of a fully reduced game whose every edge carries
    weight lam, 0 < lam <= 1: v(i) = lam * (mean of i's successors).

    Only the avg vertices are unknowns. A player vertex follows its
    pick chain to its end t, the first avg vertex or sink on it, k
    edges on, and is worth lam**k * v(t). A chain that closes a cycle
    of player vertices never reaches a sink, so one memoised pass over
    the vertices records its end as the 0-sink.

    lam = 1 gives the absorption probabilities into the 1-sink. At any
    lam an avg vertex with no path to the 1-sink is worth 0, and at
    lam = 1 its row could make the system singular, so the rows are the
    avg vertices in the attractor of the 1-sink over the contracted
    view, where an avg vertex's successors are its children's chain
    ends; for lam < 1 they are also strictly diagonally dominant.

    With lam = p/q, avg vertex a with chain ends (tx, kx) and (ty, ky)
    and K = max(kx, ky) has the integer row
    2q**(K+1)*v(a) - p**(kx+1)*q**(K-kx)*v(tx) - p**(ky+1)*q**(K-ky)*v(ty) = 0
    as a sparse dict; ends worth 0 drop out, and the 1-sink's column
    stays in, as a known value 1. Columns are eliminated in descending
    vertex id; the pivot is the lowest-numbered remaining row with a
    nonzero coefficient, which makes the procedure deterministic. A row
    update cross-multiplies by the two rows' pivot-column entries over
    their gcd, and each updated row is then divided by the gcd of its
    entries, which keeps them from growing into full-size minors. On
    chain-structured games this order keeps the fill-in near zero.
    Back-substitution carries (numerator, denominator) pairs and makes
    one Fraction per avg vertex, which the player vertices whose chains
    end there share at lam = 1.
    """
    _require_fully_reduced(rg, "solve_value_vector")
    p, q = lam.numerator, lam.denominator
    if not 0 < p <= q:
        raise PreconditionError(f"edge weight lam must lie in (0, 1], got {lam}")
    game = rg.game
    kinds = game.kinds
    sink0, sink1 = game.sink0, game.sink1
    avg = [v for v in game.interior if kinds[v - 1] is VertexKind.AVG]
    ends = {v: (v, 0) for v in avg}
    ends[sink0], ends[sink1] = (sink0, 0), (sink1, 0)
    succ = rg.successors
    for v in game.interior:
        path = []
        while v not in ends:
            ends[v] = None  # on the walk: a walk that meets it is in a cycle
            path.append(v)
            v = succ(v)[0]
        t, k = ends[v] or (sink0, 0)  # None: the walk met a cycle
        for u in reversed(path):
            k += 1
            ends[u] = (t, k)
    arms = {a: (ends[x][0], ends[y][0]) for a in avg for x, y in (game.children[a - 1],)}
    live = attractor(_ChainView(game, arms), (sink1,), ())
    unknowns = [a for a in avg if a in live]

    rows: dict[int, dict[int, int]] = {}
    for a in unknowns:
        x, y = game.children[a - 1]
        ex, ey = ends[x], ends[y]
        top = max(ex[1], ey[1])
        row = {a: 2 * q ** (top + 1)}
        for t, k in (ex, ey):
            if t in live:
                # no diagonal cancels: a live a has an end besides itself
                row[t] = row.get(t, 0) - p ** (k + 1) * q ** (top - k)
        rows[a] = row

    remaining = unknowns
    pivots: list[tuple[int, int]] = []
    for col in remaining[::-1]:
        holders = [r for r in remaining if col in rows[r]]
        if not holders:
            raise InternalCheckError(f"singular system at column {col}")
        prow = holders[0]
        remaining.remove(prow)
        pivots.append((col, prow))
        pcoeffs = rows[prow]
        pval = pcoeffs[col]
        for r in holders[1:]:
            rrow = rows[r]
            rval = rrow.pop(col)
            g = gcd(pval, rval)
            fp, fr = pval // g, rval // g
            if fp != 1:
                rrow = {c2: fp * x2 for c2, x2 in rrow.items()}
            for c2, x2 in pcoeffs.items():
                if c2 != col:
                    nv = rrow.get(c2, 0) - fr * x2
                    if nv:
                        rrow[c2] = nv
                    else:
                        rrow.pop(c2, None)
            g = gcd(*rrow.values())
            rows[r] = {c2: x2 // g for c2, x2 in rrow.items()} if g > 1 else rrow

    values: dict[int, tuple[int, int]] = {sink1: (1, 1)}
    for col, prow in reversed(pivots):
        pcoeffs = rows[prow]
        num, den = 0, 1
        for c2, x2 in pcoeffs.items():
            if c2 == col:
                continue
            vn, vd = values[c2]
            if vd == den:
                num -= x2 * vn
            else:
                g = gcd(den, vd)
                num = num * (vd // g) - x2 * vn * (den // g)
                den = den // g * vd
        den *= pcoeffs[col]
        g = gcd(num, den)
        if den < 0:
            g = -g
        values[col] = (num // g, den // g)

    fractions = {t: Fraction(*pair) for t, pair in values.items()}
    interior = []
    for v in game.interior:
        t, k = ends[v]
        if t not in fractions:
            interior.append(_ZERO)
        elif k == 0 or p == q:
            interior.append(fractions[t])
        else:
            num, den = values[t]
            interior.append(Fraction(p**k * num, q**k * den))
    return ValueVector(interior + [_ZERO, _ONE])  # the sinks are ids n-1 and n


def in_value_set(x: Fraction, t: int) -> bool:
    """Whether x can occur as a vertex value of a reduced game whose
    sink-reaching set has t vertices: a rational p/q in lowest terms
    with 0 <= p <= q <= 4**t."""
    if t < 0:
        raise PreconditionError(f"t must be nonnegative, got {t}")
    x = Fraction(x)
    return 0 <= x <= 1 and x.denominator <= 4**t


def stopping_layers(game: Game) -> dict[int, int]:
    """The attractor of the sinks with both players blocking, as
    {vertex: layer}: an avg vertex joins once one child has (the coin
    eventually takes that exit), a player vertex only once both have
    (the owner may pick either). It covers every vertex exactly when
    the game is stopping (is_stopping)."""
    blocking = (VertexKind.MAX, VertexKind.MIN)
    return attractor(ReducedGame(game), (game.sink0, game.sink1), blocking)


def is_stopping(game: Game) -> bool:
    """Whether every play reaches a sink with probability 1 under all
    strategy pairs: whether stopping_layers covers every vertex.
    Equivalent to the per-strategy-pair definition, but linear time.
    """
    return len(stopping_layers(game)) == game.n


@dataclass(frozen=True)
class MCEstimate:
    """Outcome counts of random plays from one vertex."""

    hits: int
    plays: int
    truncated: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.hits, self.plays)


def mc_estimate(
    rg: ReducedGame,
    start: Union[int, None] = None,
    plays: int = 100_000,
    seed: int = 0,
    max_steps: Union[int, None] = None,
) -> MCEstimate:
    """Monte-Carlo estimate of one vertex's value in a reduced game.

    A sanity tool, not an exact method. A play ends when it reaches a
    sink, on its last allowed move too; one still off the sinks after
    max_steps moves is truncated and counts as a miss, which biases
    long-cycling games low.
    The seed feeds a random.Random, so it fixes the counts; it must lie
    in [0, 2**32).
    """
    _require_fully_reduced(rg, "mc_estimate")
    if plays < 1:
        raise PreconditionError(f"plays must be positive, got {plays}")
    if not 0 <= seed < 2**32:
        raise PreconditionError(f"seed must be in [0, 2**32), got {seed}")
    game = rg.game
    if start is None:
        start = game.start
    if not 1 <= start <= game.n:
        raise PreconditionError(f"start out of range: {start}")
    if max_steps is None:
        max_steps = 4096 * game.n
    if max_steps < 1:
        raise PreconditionError(f"max_steps must be positive, got {max_steps}")
    pairs = [None] + [(s[0], s[-1]) for s in map(rg.successors, game.interior)]
    avg = [False] + [kind is VertexKind.AVG for kind in game.kinds[:-2]]
    hits, truncated = kernels.mc_run(pairs, avg, start, plays, max_steps, seed)
    return MCEstimate(hits=hits, plays=plays, truncated=truncated)
