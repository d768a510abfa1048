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

The package has one exact evaluator of a strategy pair. Its core,
_value_pairs, takes the game, a pick array indexed by vertex id (each
player vertex's chosen child) and an edge weight lam = p/q as two
integers, solves v = lam (Q v + b), and returns reduced (numerator,
denominator) pairs in vertex order: at lam = 1 for Hoffman-Karp, and
at the chain factor lam = 1 - 2**-(c*n) for the stopping transform,
whose companion game contracts to the original vertices with that
weight on every edge. A pick chain of k edges then carries the weight
lam**k, and every lam keeps the same rows. The avg-only system is
eliminated in Markowitz order through a column-to-rows index (the
column with the fewest holder rows, then the shortest holder row),
which keeps the fill-in low on chance-heavy games. solve's
strategy-improvement loop calls the core on one pick array.
solve._contract calls it once, at lam = 1, on the game itself when no
free choice is left (a chain or forced picks), with the values of the
qualitative pre-pass as known chain ends: a vertex worth 0 or 1 ends
every pick chain at the sink of its value, and only the undecided avg
vertices get rows. solve_value_vector is the core's public wrapper on
a ReducedGame, returning a ValueVector, for the oracle, the tools and
the tests.

attractor is the package's one qualitative engine: the linear-time
attractor of a reachability game (Condon 1992). The stopping test, the
evaluator's rows, the LP's zero set, the qualitative pre-pass
zero_one_sets, the solver for games without chance, optimal strategy
extraction and the certificate check are all calls of it. Each call
passes a list of successor lists in the layout of game.children: the
game's own children, or the list of a fixed strategy, of a restriction
to a vertex set, of the contracted pick chains or of the tight edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Collection, Sequence, Union

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
    game: Game,
    succ: Sequence[Sequence[int]],
    target: Collection[int],
    blocking: Collection[VertexKind],
) -> dict[int, int]:
    """The least vertex set holding target and every interior vertex
    with enough successors already in it, as {vertex: layer}.
    succ[v - 1] lists the successors of interior vertex v, in the layout
    of game.children, so the game itself passes game.children; a fixed
    strategy, a restriction to a vertex set or solve's tight edges pass
    their own lists. Entries past the interior are not read, and a
    vertex with an empty list never joins. A target outside 1..n raises
    PreconditionError.

    "Enough" is all successors when the vertex's kind is in blocking and
    one otherwise, so for blocking = {MIN} it is the set from which max
    forces a visit to target, and for blocking = () the set with a path
    to target. target is layer 0; a vertex joins one layer after the
    successor that completes its need, so its layer is the length of
    the longest forced path into target. Linear time: predecessor lists
    and need counters, one frontier per layer.
    """
    n = game.n
    layers = dict.fromkeys(target, 0)
    if layers and not (1 <= min(layers) and max(layers) <= n):
        raise PreconditionError(f"attractor target must lie in 1..{n}, got {sorted(layers)}")
    preds: list[list[int]] = [[] for _ in range(n + 1)]
    need = [0] * (n + 1)
    for v, kind, s in zip(game.interior, game.kinds, succ):
        need[v] = len(s) if kind in blocking else 1
        for j in s:
            preds[j].append(v)
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
    interior, children = game.interior, game.children
    sink1 = (game.sink1,)
    reach = attractor(game, children, sink1, (VertexKind.MIN,))
    zeros = frozenset(game.vertices).difference(reach)
    ones = set(game.vertices)
    outside = zeros  # U

    def within() -> list:
        # the game restricted to W: a vertex in it keeps its children in
        # it, and any other vertex has none, so it never joins
        return [[c for c in pair if c in ones] if v in ones else () for v, pair in zip(interior, children)]

    succ = children  # W is every vertex
    while outside:
        removed = attractor(game, succ, outside, (VertexKind.MAX,))
        ones.difference_update(removed)
        if len(removed) == len(outside):
            # it removed U alone, so W is now A; A's vertices joined
            # through A, so the next A is all of W and the next U is empty
            break
        succ = within()
        reach = attractor(game, succ, sink1, (VertexKind.MIN,))
        outside = ones.difference(reach)
    return zeros, frozenset(ones)


def _value_pairs(
    game: Game, picks: Sequence[int], p: int, q: int, known: Union[Sequence, None] = None
) -> list[tuple[int, int]]:
    """The core of solve_value_vector: exact values of game with every
    player vertex v moving to picks[v] (picks is indexed by vertex id;
    its other entries are not read) and every edge weighted by
    lam = p/q, 0 < p <= q, as reduced (numerator, denominator) pairs in
    vertex order. No argument is checked here; solve_value_vector, the
    strategy-improvement loop of solve and solve._contract pass valid
    ones.

    known, at lam = 1 only, holds values already found in vertex order:
    (0, 1) or (1, 1) at a vertex worth 0 or 1, None elsewhere; that is
    solve._contract's z. A known vertex ends every pick chain that
    reaches it at the sink of its value, its own pick is not read, and
    only the other avg vertices get rows, so the game itself is
    evaluated without contracting it.

    Rows and the (numerator, denominator) back-substitution are those
    described in solve_value_vector. The pivots follow Markowitz's rule
    (The elimination form of the inverse, Management Science 3, 1957)
    through a column-to-rows index: the open column with the fewest
    holder rows, scanned in id order and taken at once when it has one,
    then the holder row with the fewest entries, ties to the lower id.
    The 1-sink's column is a known value and never a pivot.
    """
    n = game.n
    kinds, children = game.kinds, game.children
    sink0, sink1 = n - 1, n
    avg_kind = VertexKind.AVG
    # ends[v] = (t, k): v's pick chain ends at t, an avg vertex or sink,
    # after k edges; a vertex on the current walk reads (sink0, 0), so a
    # walk that meets it has closed a cycle of player vertices
    ends: list = [None] * (n + 1)
    if known is not None:
        for v, pair in enumerate(known, 1):
            if pair is not None:
                ends[v] = (sink1 if pair[0] else sink0, 0)
    avg = [v for v, kind in zip(game.interior, kinds) if kind is avg_kind and ends[v] is None]
    for v in avg:
        ends[v] = (v, 0)
    ends[sink0], ends[sink1] = (sink0, 0), (sink1, 0)
    for v in game.interior:
        if ends[v] is not None:
            continue
        path = []
        while ends[v] is None:
            ends[v] = (sink0, 0)
            path.append(v)
            v = picks[v]
        t, k = ends[v]
        for u in reversed(path):
            k += 1
            ends[u] = (t, k)
    # the contracted chain: an avg vertex's successors are its children's
    # chain ends, and a player vertex has none
    arms = [(ends[x][0], ends[y][0]) if kind is avg_kind else () for kind, (x, y) in zip(kinds, children[:-2])]
    live = attractor(game, arms, (sink1,), ())

    unknowns = [a for a in avg if a in live]
    # the open columns in id order, each with the rows that hold it
    holders = {a: {a} for a in unknowns}
    rows: dict[int, dict[int, int]] = {}
    for a in unknowns:
        x, y = children[a - 1]
        ex, ey = ends[x], ends[y]
        top = max(ex[1], ey[1])
        row = {a: 2 * q ** (top + 1)}
        for t, k in (ex, ey):
            if t in live:
                # no diagonal cancels: a live a has an end besides itself
                row[t] = row.get(t, 0) - p ** (k + 1) * q ** (top - k)
                if t != sink1:
                    holders[t].add(a)
        rows[a] = row

    pivots: list[tuple[int, int]] = []
    while holders:
        fewest = n
        for c, rs in holders.items():
            if len(rs) < fewest:
                col, fewest = c, len(rs)
                if fewest <= 1:
                    break
        if not fewest:
            raise InternalCheckError(f"singular system at column {col}")
        others = holders.pop(col)
        prow = min(others, key=lambda r: (len(rows[r]), r)) if fewest > 1 else others.pop()
        others.discard(prow)
        pivots.append((col, prow))
        pcoeffs = rows[prow]
        pval = pcoeffs[col]
        for c2 in pcoeffs:
            if c2 != col and c2 != sink1:
                holders[c2].discard(prow)
        for r in others:
            rrow = rows[r]
            rval = rrow.pop(col)
            g = gcd(pval, rval)
            fp, fr = pval // g, rval // g
            if fp != 1:
                rrow = {c2: fp * x2 for c2, x2 in rrow.items()}
            for c2, x2 in pcoeffs.items():
                if c2 == col:
                    continue
                x2 *= fr
                old = rrow.get(c2)
                if old is None:
                    rrow[c2] = -x2  # fill-in
                    if c2 != sink1:
                        holders[c2].add(r)
                elif old != x2:
                    rrow[c2] = old - x2
                else:
                    del rrow[c2]
                    if c2 != sink1:
                        holders[c2].discard(r)
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

    out = []
    for t, k in ends[1:]:
        pair = values.get(t, (0, 1))
        if k and p != q and pair[0]:
            num, den = pair[0] * p**k, pair[1] * q**k
            g = gcd(num, den)
            pair = (num // g, den // g)
        out.append(pair)
    return out


def _vector(pairs: list[tuple[int, int]]) -> ValueVector:
    """The ValueVector of reduced (numerator, denominator) pairs in
    vertex order, with one Fraction per distinct pair."""
    fractions = {pair: Fraction(*pair) for pair in set(pairs)}
    return ValueVector([fractions[pair] for pair in pairs])


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
    stays in, as a known value 1. The pivot order is Markowitz's: the
    open column with the fewest holder rows, then its holder row with
    the fewest entries, ties to the lower id (see _value_pairs), which
    keeps the fill-in low on chance-heavy games. A row update
    cross-multiplies by the two rows' pivot-column entries over their
    gcd, and each updated row is then divided by the gcd of its
    entries, which keeps them from growing into full-size minors.
    Back-substitution carries (numerator, denominator) pairs.

    This wrapper checks the reduced game and lam, reads the picks off
    rg and runs the core, _value_pairs, which works on a pick array
    and integer pairs; the strategy-improvement loop of solve calls
    that core directly. It builds one Fraction per distinct value.
    """
    _require_fully_reduced(rg, "solve_value_vector")
    p, q = lam.numerator, lam.denominator
    if not 0 < p <= q:
        raise PreconditionError(f"edge weight lam must lie in (0, 1], got {lam}")
    game = rg.game
    picks = [0] * (game.n + 1)
    for v, kind in zip(game.interior, game.kinds):
        if kind is not VertexKind.AVG:
            picks[v] = rg.successors(v)[0]
    return _vector(_value_pairs(game, picks, p, q))


def stopping_layers(game: Game) -> dict[int, int]:
    """The attractor of the sinks with both players blocking, as
    {vertex: layer}: an avg vertex joins once one child has (the coin
    eventually takes that exit), a player vertex only once both have
    (the owner may pick either). It covers every vertex exactly when
    the game is stopping (is_stopping)."""
    blocking = (VertexKind.MAX, VertexKind.MIN)
    return attractor(game, game.children, (game.sink0, game.sink1), blocking)


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
