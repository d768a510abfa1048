"""Optimal values, optimal strategies, and decision procedures.

The solvers compute the unique optimal value vector, characterized as
the fixed point of the one-step update operator (max/min of children at
player vertices, mean at avg vertices) that agrees with the reachable
absorption probabilities. Methods:

  value_iteration  approximate, sweeps the operator in place from zero
  avg_free_run     exact max attractor of the 1-sink, for games without chance
  hoffman_karp     exact strategy improvement, through the chain
                   transform on games that are not stopping
  (LP)             exact simplex when one player has no choices
  brute_force_oracle  exact by enumeration, for cross-checking
  solve            dispatcher; every game gets an exact answer

Exactness on non-stopping mixed games comes from the transform: values
of the stopping companion are within half the spacing of representable
values of the original's, so snapping them back recovers the original
values exactly. The companion is never built: strategy improvement
runs on the original vertices with every edge weighted by the chain
factor lam = 1 - 2**-(c*n), which gives the companion's values s
there; every chain entry is fixed by its target. hoffman_karp has one
body for every game, the pre-pass (_settle) and then, if a free choice
is left, one loop on the whole game with the settled vertices as known
chain ends: at lam = 1 on a stopping game, and otherwise at the chain
factor of the m undecided vertices and two sinks, the size of the
game that contracting the settled vertices would leave. Every
evaluation is the one exact evaluator, the core of
markov.solve_value_vector (_value_pairs); it solves for the undecided
avg vertices only, and each player vertex takes the value at the end
of its pick chain. c is fixed at stopping.DEFAULT_C = 9, whose
transform error 2**(-6n) stays below half the value separation at
every n, so snap-back is exact; the transform and the vi route snap
and test T z = z through one integer helper, _snap_fixed_point. Both
players run one policy-iteration loop, _improve; min's reply switches
only on a strict improvement. The loop starts from the greedy picks of
a few integer value-iteration sweeps at lam = 1 (_vi_guess), which on
most stopping games are already optimal, so one exact evaluation
confirms them. The loop runs on integers: both players read and write
one pick array indexed by vertex id, a switch writes one entry, every
evaluation returns reduced (numerator, denominator) pairs, and
children are compared by cross-multiplying. No Strategy, ReducedGame
or Fraction is built per evaluation; hoffman_karp builds one Fraction
per distinct value, and the ValueVector, once, for its report, and
the transform hands its pairs straight to the snap. Every value-iteration
loop is kernels.ordered_sweeps, in place, in the layer order of the
stopping test's attractor, which hoffman_karp computes once for both
jobs; the vertices it misses, on a game the transform solves, go last.

Random games are bimodal: many have every vertex worth exactly 0 or 1,
and most others only a few vertices strictly between, often with no
free choice among them. Every exact route but vi therefore starts with
the qualitative pre-pass markov.zero_one_sets, which finds the
vertices worth 0 or 1 by attractors alone, and _settle alone decides
what is left. When the two sets cover every vertex, the route returns
them as the values with no simplex, start guess, companion solve or
evaluation. An undecided max vertex with a child worth 0, or min
vertex with a child worth 1, is forced to its other child. When every
undecided player vertex is forced, or none is left (a chain), the
undecided part is an absorbing chain under those picks, and one
evaluation of the game itself at lam = 1, with the settled vertices as
known chain ends, gives the values. Both count 0 iterations. A game
that keeps a free choice goes on by route. hk never contracts it: its
loop runs on the whole game, and every evaluation reads the settled
vertices as known chain ends, so only the undecided avg vertices get
rows. Only the lp route contracts it (_contract): the m undecided
vertices and two sinks, every edge into a settled vertex sent to the
sink of its value. The simplex solves that game; its values are lifted
back (_lift) and its pivots counted. As on every route, the strategies
are read off the whole game's values (_greedy), never copied from the
solve: the simplex has no pick at a settled vertex, and a max vertex
worth 1 must take the tight-edge attractor's pick to reach the 1-sink
almost surely. vi skips the pre-pass: it is the independent exact
reference.

The vi route sweeps value iteration on a stopping game, where T has one
fixed point, so any snapped iterate with T z = z is the value whatever
denominator bound it was snapped to. Like the hk start guess and
value_iteration, it sweeps in place in the stopping attractor's layer
order, which its stopping test computes once. It tries each coarser
bound 4**k, k < n, once, as soon as the sweep gain says the iterate
could lie within half of that level's spacing, before the bound 4**n
that holds every vertex value; random games have values far coarser
than 4**n, and each try snaps every distinct value once.

Strategies and certificates share one qualitative step, _tight_edges:
the tight edges of a value vector z (both children of an avg vertex,
and the children attaining z at a player vertex), in the layout of
game.children, and markov.attractor's layers over them, with the
1-sink and every vertex worth 0 as the target and min blocking.
greedy_strategies lets each player vertex pick its tight child in the
lowest layer. Both compare values as integer (numerator, denominator)
pairs by cross-multiplying; no Fraction is compared. Every route hands
its values to one report builder, _report, as such pairs. A
certificate is the pair (z, sigma), and the value is the least fixed
point of the operator T, so z is the value exactly when T z = z, sigma
is z-greedy, and the attractor with max fixed to sigma covers every
vertex (the end-component argument of Kelmendi, Kraemer, Kretinsky and
Weininger, CAV 2018): a set where z - val(G_sigma) is largest and
positive would be closed under avg children, sigma and one tight child
per min vertex, and no vertex of it could join.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

from . import kernels
from .exceptions import (
    BudgetError,
    CertificateError,
    InternalCheckError,
    NonConvergenceError,
    PreconditionError,
    StrategyError,
)
from .games import (
    Game,
    Strategy,
    ValueVector,
    VertexKind,
    enumerate_strategies,
    validate_strategy,
)
from .lp import build_lp_max_free, build_lp_min_free, simplex_optimize
from .markov import (
    ReducedGame,
    _value_pairs,
    _vector,
    attractor,
    solve_value_vector,
    stopping_layers,
    zero_one_sets,
)
from .stopping import DEFAULT_C, chain_weight

DEFAULT_ORACLE_BUDGET = 16
DEFAULT_MAX_ITERS = 200_000
# Sweeps between two snap tries of the vi route (see _vi_solve).
SNAP_SPACING = 8
# Sweeps between two greedy-pick checks of the hk start guess (see _vi_guess).
GUESS_SPACING = 2

METHODS = ("auto", "vi", "hk", "lp", "avg-free")


def value_separation(n: int) -> Fraction:
    """Minimum gap between distinct representable vertex values, 4**(-2n).

    Two distinct rationals with denominators at most 4**n differ by at
    least 1/(q*q') >= 4**(-2n); anything closer than half of that to a
    representable value identifies it uniquely. n must be positive.
    """
    if n < 1:
        raise PreconditionError(f"game size must be positive, got n={n}")
    return Fraction(1, 4 ** (2 * n))


def default_epsilon(n: int) -> Fraction:
    """Default value-iteration tolerance, 4**-(3n+1).

    A residual below epsilon leaves a geometric tail of further sweeps;
    on a stopping game some sink is hit within n steps with probability
    at least 2**-n, so the tail is at most about n * 2**n * epsilon.
    The extra 4**-(n+1) under the quarter-separation target absorbs
    that amplification, leaving the final approximation within a
    quarter separation of the exact fixed point. value_iteration stops
    there; the vi route of solve usually stops earlier, at the first
    snapped iterate that is a fixed point, and epsilon is its last try.
    """
    return value_separation(n) / 4 ** (n + 1)


def apply_operator(game: Game, v: ValueVector) -> ValueVector:
    """One synchronous update: sinks to 0/1, players to max/min of
    children, avg to the mean."""
    if v.n != game.n:
        raise PreconditionError(f"value vector length {v.n} does not match game size {game.n}")
    out = []
    for i in game.vertices:
        kind = game.kind(i)
        if kind is VertexKind.SINK0:
            out.append(Fraction(0))
        elif kind is VertexKind.SINK1:
            out.append(Fraction(1))
        else:
            a, b = game.children_of(i)
            if kind is VertexKind.MAX:
                out.append(max(v[a], v[b]))
            elif kind is VertexKind.MIN:
                out.append(min(v[a], v[b]))
            else:
                out.append((v[a] + v[b]) / 2)
    return ValueVector(out)


def _is_fixed_point(game: Game, z: list[tuple[int, int]]) -> bool:
    """Whether T z = z, for z given as reduced (numerator, denominator)
    pairs in vertex order; the same answer as apply_operator(game, z) == z.

    Reduced pairs are equal exactly when their values are, so a sink
    or player vertex compares pairs, after max or min picks its child
    by cross-multiplying, and an avg vertex cross-multiplies the mean.
    No Fraction is built.
    """
    for (p, q), kind, pair in zip(z, game.kinds, game.children):
        if pair is None:
            if p != (q if kind is VertexKind.SINK1 else 0):
                return False
            continue
        pa, qa = z[pair[0] - 1]
        pb, qb = z[pair[1] - 1]
        if kind is VertexKind.AVG:
            if 2 * p * qa * qb != q * (pa * qb + pb * qa):
                return False
        else:
            left = (pa * qb >= pb * qa) == (kind is VertexKind.MAX)
            if (p, q) != ((pa, qa) if left else (pb, qb)):
                return False
    return True


def _tight_edges(game: Game, z: list[tuple[int, int]], sigma: Union[Strategy, None] = None) -> tuple[list, dict]:
    """The edges that a z-greedy play may take, as successor lists of
    the interior vertices, and markov.attractor's layers over them of
    the 1-sink and every vertex worth 0 under z, with min blocking.

    z is given as reduced (numerator, denominator) pairs in vertex
    order, compared by cross-multiplying. An avg vertex keeps both
    children, a player vertex the children that attain the max or min
    of z over its pair; with sigma given, a max vertex keeps sigma's
    pick instead.
    """
    succ = []
    for v, kind, pair in zip(game.interior, game.kinds, game.children):
        if kind is VertexKind.AVG:
            succ.append(pair)
        elif sigma is not None and kind is VertexKind.MAX:
            succ.append((sigma.pick(v),))
        else:
            a, b = pair
            pa, qa = z[a - 1]
            pb, qb = z[b - 1]
            left, right = pa * qb, pb * qa
            if left == right:
                succ.append(pair)
            else:
                succ.append((a,) if (left > right) == (kind is VertexKind.MAX) else (b,))
    zeros = (v for v, (p, _q) in zip(game.vertices, z) if p == 0)
    return succ, attractor(game, succ, (game.sink1, *zeros), (VertexKind.MIN,))


def greedy_strategies(game: Game, v: ValueVector) -> tuple[Strategy, Strategy]:
    """Optimal positional strategies read off the optimal value vector v.

    Each player vertex picks, among its tight children (those attaining
    v), the one in the lowest layer of the tight-edge attractor that
    _tight_edges returns, then the lower id. A max vertex thereby always
    steps one layer down, so the attractor with max fixed to sigma
    still covers every vertex and verify_ovv_certificate accepts
    (v, sigma): sigma is optimal. A merely v-greedy sigma need not be,
    since on a tie at positive value min may close a cycle with it.
    Any v-greedy tau is optimal; the same rule picks it.
    """
    if v.n != game.n:
        raise PreconditionError(f"value vector length {v.n} does not match game size {game.n}")
    return _greedy(game, [x.as_integer_ratio() for x in v.components])


def _greedy(game: Game, z: list[tuple[int, int]]) -> tuple[Strategy, Strategy]:
    """greedy_strategies for z given as reduced (numerator, denominator)
    pairs in vertex order."""
    tight, layers = _tight_edges(game, z)
    n = game.n
    tau_picks: dict[int, int] = {}
    sigma_picks: dict[int, int] = {}
    for i, kind, options in zip(game.interior, game.kinds, tight):
        if kind is VertexKind.AVG:
            continue
        pick = options[0]
        if len(options) == 2:
            # layers stay below n; a vertex outside the attractor sorts last
            other = options[1]
            if (layers.get(other, n), other) < (layers.get(pick, n), pick):
                pick = other
        if kind is VertexKind.MIN:
            tau_picks[i] = pick
        else:
            sigma_picks[i] = pick
    return (
        Strategy.of(VertexKind.MIN, tau_picks),
        Strategy.of(VertexKind.MAX, sigma_picks),
    )


def _grid_setup(n: int, epsilon: Union[Fraction, None]):
    """Pick the fixed-point scale for a tolerance; returns (eps, K, thr).

    K is 16 guard bits above what epsilon needs, so the grid is at
    least 2**20 times finer than epsilon. Approximations and sweep
    counts depend on K, so this rule fixes them for a given game and
    epsilon.
    """
    eps = Fraction(epsilon) if epsilon is not None else default_epsilon(n)
    if eps <= 0:
        raise PreconditionError(f"epsilon must be positive, got {eps}")
    scaled = (16 * eps.denominator + eps.numerator - 1) // eps.numerator
    bits = (scaled - 1).bit_length() + 16
    one = 1 << bits
    thr = (eps.numerator * one - 1) // eps.denominator
    return eps, bits, min(thr, one)


def _vi_setup(game: Game, epsilon: Union[Fraction, None], max_iters: int, layers: dict[int, int]):
    """Check value-iteration arguments; returns (eps, one, thr, order)
    with one = 2**K and order the sweep order, _layer_order of the
    stopping attractor layers (markov.stopping_layers)."""
    if max_iters < 1:
        raise PreconditionError(f"max_iters must be positive, got {max_iters}")
    eps, bits, thr = _grid_setup(game.n, epsilon)
    return eps, 1 << bits, thr, _layer_order(game, layers)


def _not_converged(eps: Fraction, max_iters: int, ints: Sequence[int], one: int, productive: int):
    """The NonConvergenceError of a value-iteration loop cut at max_iters
    sweeps, with its last iterate ints, on the grid 1/one in vertex
    order, and its productive sweeps attached."""
    return NonConvergenceError(
        f"value iteration did not reach epsilon={eps} within {max_iters} sweeps",
        values=ValueVector(Fraction(x, one) for x in ints),
        iterations=productive,
    )


def value_iteration(
    game: Game,
    max_iters: int = DEFAULT_MAX_ITERS,
    epsilon: Union[Fraction, None] = None,
) -> tuple[ValueVector, int]:
    """Iterate the update operator from zero (sinks pinned) until the
    largest componentwise change drops below epsilon.

    Runs on a fixed-point integer grid with averages rounded down, so
    iterates are exactly monotone nondecreasing and never exceed the
    true fixed point. Sweeps run in place in _layer_order
    (kernels.vi_run) and stop at the first whose gain, the sum of the
    increases, is at most epsilon; the gain bounds the synchronous
    residual from above (see _vi_solve). Returns (approximation,
    productive sweeps), where a sweep is productive if it changed
    anything. Raises NonConvergenceError (with partial values
    attached) at max_iters.
    """
    eps, one, thr, order = _vi_setup(game, epsilon, max_iters, stopping_layers(game))
    ints, productive, converged = kernels.vi_run(game, order, one, thr, max_iters)
    if not converged:
        raise _not_converged(eps, max_iters, ints, one, productive)
    return ValueVector(Fraction(x, one) for x in ints), productive


def vi_iterates(
    game: Game,
    epsilon: Union[Fraction, None] = None,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> Iterator[ValueVector]:
    """Iterate over the start vector and every sweep result, stopping
    where value_iteration would stop. Same sweeps, so the last vector
    equals value_iteration's result exactly. Arguments are checked at
    the call, before the first vector is drawn."""
    _eps, one, thr, order = _vi_setup(game, epsilon, max_iters, stopping_layers(game))

    def vectors():
        yield [one if v == game.sink1 else 0 for v in game.vertices]
        for z, gain in kernels.ordered_sweeps(game, order, one, max_iters):
            yield z[1:]
            if gain <= thr:
                return

    return (ValueVector(Fraction(x, one) for x in v) for v in vectors())


def avg_free_run(game: Game) -> tuple[ValueVector, int]:
    """Attractor solve for games without chance vertices; returns the
    exact 0/1 value vector and the attractor depth.

    Without chance a vertex is worth 1 exactly when max can force the
    play into the 1-sink: the attractor of the 1-sink with min blocking
    (a max vertex joins once one child has, a min vertex once both
    have). From every other vertex min keeps the play away from it
    forever, so those are worth 0. The depth, the largest attractor
    layer, is the longest forced path to the 1-sink, at most n-2.
    """
    if game.has_kind(VertexKind.AVG):
        raise PreconditionError("game has avg vertices; this solver handles player-only games")
    wins = attractor(game, game.children, (game.sink1,), (VertexKind.MIN,))
    values = ValueVector(int(v in wins) for v in game.vertices)
    return values, max(wins.values())


@dataclass(frozen=True)
class Certificate:
    """Witness pair for an exact solve: z claims to be the optimal value
    vector of the game and sigma an optimal max strategy.
    verify_ovv_certificate checks the pair without trusting the solver
    that made it.
    """

    z: ValueVector
    sigma: Strategy


@dataclass(frozen=True)
class SolveReport:
    """Everything a solver run produced."""

    values: ValueVector
    tau: Strategy
    sigma: Strategy
    method: str
    iterations: int
    certificate: Union[Certificate, None] = None


def _report(
    game: Game, pairs: list[tuple[int, int]], method: str, iterations: int, certified: bool = False
) -> SolveReport:
    """The report of a route whose values are pairs, reduced (numerator,
    denominator) pairs in vertex order, with the strategies read off
    them, and with certified the certificate (values, sigma)."""
    tau, sigma = _greedy(game, pairs)
    values = _vector(pairs)
    certificate = Certificate(z=values, sigma=sigma) if certified else None
    return SolveReport(
        values=values, tau=tau, sigma=sigma, method=method, iterations=iterations, certificate=certificate
    )


def _settle(game: Game, stopping: bool = False) -> list:
    """The qualitative pre-pass of game and what it decides: the values
    as reduced (numerator, denominator) pairs in vertex order, with
    None at the m undecided vertices exactly when a free choice is left
    among them. One call of markov.zero_one_sets, ended after its first
    round when stopping says that game is stopping. This is where every
    exact route but vi decides between settled, chain or forced, and
    choice.

    When m = 0 the pre-pass is the whole answer. Every undecided vertex
    is worth strictly between 0 and 1, so no max vertex among them has
    a child worth 1 and no min vertex a child worth 0. An undecided max
    vertex with a child worth 0, or min vertex with a child worth 1, is
    forced: its other child is the only one that attains its value.
    When every undecided player vertex is forced (a chain has none),
    the undecided vertices under the forced picks form an absorbing
    chain: a set of them closed under those picks would let min keep
    the play off the 1-sink, so it would be worth 0 and settled. One
    call of the evaluator core at lam = 1 on game itself, with the
    settled values as its known chain ends, then gives the exact values.
    """
    zeros, ones = zero_one_sets(game, _stopping=stopping)
    z = [(1, 1) if v in ones else (0, 1) if v in zeros else None for v in game.vertices]
    if len(zeros) + len(ones) == game.n:
        return z
    picks = [0] * (game.n + 1)
    for v, kind, pair, x in zip(game.interior, game.kinds, game.children, z):
        if x is None and kind is not VertexKind.AVG:
            a, b = pair
            worst = zeros if kind is VertexKind.MAX else ones
            if a not in worst and b not in worst:
                return z
            # not both: a vertex with both children in worst is settled
            picks[v] = b if a in worst else a
    return _value_pairs(game, picks, 1, 1, z)


def _contract(game: Game) -> tuple[list, Union[Game, None]]:
    """_settle's values z of game and, when they leave a free choice,
    the contracted game that the lp route solves;
    returns (z, contracted), contracted None when z is the whole answer.

    contracted is the game on the m undecided vertices, relabelled 1..m
    in id order, and two sinks: every edge into a vertex worth 0 goes
    to the 0-sink m+1, and every edge into a vertex worth 1 to the
    1-sink m+2. Children stay distinct, since a vertex with both
    children worth 0, or both worth 1, is settled itself. A play from
    an undecided vertex that reaches a settled one is worth that
    vertex's value from there on, whoever moves, so contracted has the
    game's values at the undecided vertices, and _lift writes them into
    z. Its start plays no part in a solve.
    """
    z = _settle(game)
    if None not in z:
        return z, None
    undecided = [v for v, x in zip(game.vertices, z) if x is None]
    m = len(undecided)
    # by vertex id: a settled vertex maps to the sink of its value
    ids = [0] + [m + 1 + x[0] if x is not None else 0 for x in z]
    for i, v in enumerate(undecided, 1):
        ids[v] = i
    kinds, children = game.kinds, game.children
    contracted = Game(
        n=m + 2,
        start=1,
        kinds=(*(kinds[v - 1] for v in undecided), VertexKind.SINK0, VertexKind.SINK1),
        children=(*((ids[a], ids[b]) for a, b in (children[v - 1] for v in undecided)), None, None),
    )
    return z, contracted


def _lift(z: list, sub: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """z, _contract's values of a game, with its None entries, the
    undecided vertices, filled in id order from sub, the values of the
    contracted game in its vertex order."""
    fill = iter(sub)
    return [next(fill) if x is None else x for x in z]


def _improve(
    game: Game,
    owner: VertexKind,
    picks: list[int],
    evaluate: Callable[[], list[tuple[int, int]]],
) -> tuple[list[tuple[int, int]], int]:
    """Policy iteration for owner on the pick array picks (indexed by
    vertex id), which it updates in place; returns (values, switch
    rounds), values the reduced (numerator, denominator) pairs in
    vertex order of the last evaluate(), which evaluates the current
    picks exactly. Each round switches every owned vertex whose other
    child is strictly better for owner, comparing pairs by
    cross-multiplying, until none is. On a stopping game each switch
    strictly improves the values, so at most 2**(owned vertices)
    evaluations are made."""
    sign = 1 if owner is VertexKind.MAX else -1
    owned = [(v, *game.children[v - 1]) for v in game.vertices_of_kind(owner)]
    for rounds in range(2 ** len(owned)):
        values = evaluate()
        switched = False
        for v, a, b in owned:
            pick = picks[v]
            other = b if pick == a else a
            pn, pd = values[pick - 1]
            on, od = values[other - 1]
            if (on * pd - pn * od) * sign > 0:
                picks[v] = other
                switched = True
        if not switched:
            return values, rounds
    raise InternalCheckError(f"{owner.value} policy iteration exceeded its evaluation bound")


def _layer_order(game: Game, layers: dict[int, int]) -> list[int]:
    """The interior vertices in increasing layer of the stopping
    attractor layers (markov.stopping_layers), ties by id, and the
    vertices it misses, on games that are not stopping, last by id:
    the sweep order of every value-iteration loop."""
    return sorted(game.interior, key=lambda v: layers.get(v, game.n))


def _vi_guess(game: Game, layers: dict[int, int]) -> list[int]:
    """The starting pick array of _strategy_improvement in hoffman_karp,
    indexed by vertex id with both players' picks (its other entries
    are 0), guessed by in-place (Gauss-Seidel) value-iteration sweeps
    on a 2**-64 grid, kernels.ordered_sweeps.

    layers is the game's stopping attractor, markov.stopping_layers,
    and the sweeps visit the interior vertices in increasing layer
    order with ties by id, the vertices it misses last. A vertex joins
    it one layer after the children that complete its need, so every
    player vertex reads both its children and every avg vertex at least
    one of them after they were updated in the same sweep, and values
    travel from the sinks through the whole game in one sweep.
    Every GUESS_SPACING sweeps each player vertex takes its greedy pick
    under the iterate: a max vertex its right child only if that child
    is worth strictly more, a min vertex only if strictly less, so a
    tie keeps the left child and a guess taken at the start vector
    picks every left child. The guess ends when two checks in a row agree,
    at the first sweep with gain 0, or after 20n sweeps. The exact loop
    converges to the optimum from any start on a stopping game, such as
    the transform's weighted one, so the guess changes only the work.
    """
    order = _layer_order(game, layers)
    maxs = [(v, *game.children[v - 1]) for v in game.vertices_of_kind(VertexKind.MAX)]
    mins = [(v, *game.children[v - 1]) for v in game.vertices_of_kind(VertexKind.MIN)]

    def greedy(z: list[int]) -> list[int]:
        return [b if z[b] < z[a] else a for _v, a, b in mins] + [
            b if z[b] > z[a] else a for _v, a, b in maxs
        ]

    last = None
    swept = kernels.ordered_sweeps(game, order, 1 << 64, 20 * game.n)
    for sweep, (z, _gain) in enumerate(swept, 1):
        if sweep % GUESS_SPACING == 0:
            chosen = greedy(z)
            if chosen == last:
                break
            last = chosen
    else:
        chosen = greedy(z)
    picks = [0] * (game.n + 1)
    for (v, _a, _b), child in zip(mins + maxs, chosen):
        picks[v] = child
    return picks


def _strategy_improvement(
    game: Game, lam: Fraction, picks: list[int], known: list
) -> tuple[list[tuple[int, int]], int]:
    """The loop of hoffman_karp on a game whose every edge carries
    weight lam, which must make every play that known leaves open end
    in a sink, from the pick array picks (_vi_guess's), which it
    updates in place; returns (optimal values as reduced (numerator,
    denominator) pairs in vertex order, max's switch rounds). Max runs
    _improve against min's exact best reply, which is _improve for min
    against max's current picks, started from min's picks of the
    previous round. Both players read and write the one array, and
    every evaluation is markov's core _value_pairs on it: no strategy
    object or reduced game is built. known, _settle's z in
    hoffman_karp, is passed to every evaluation: the settled vertices
    end the pick chains, and only the undecided avg vertices get rows."""
    p, q = lam.numerator, lam.denominator

    def evaluate() -> list[tuple[int, int]]:
        return _value_pairs(game, picks, p, q, known)

    def min_reply() -> list[tuple[int, int]]:
        return _improve(game, VertexKind.MIN, picks, evaluate)[0]

    return _improve(game, VertexKind.MAX, picks, min_reply)


def hoffman_karp(game: Game) -> SolveReport:
    """Exact strategy improvement (Hoffman and Karp) on every game.

    The stopping test is markov.stopping_layers, computed once; its
    layers order the sweeps of the start guess. Then _settle runs the
    qualitative pre-pass, one round on a stopping game. A game it
    settles, or leaves with no free choice (its one evaluation), is
    reported with 0 rounds, no guess and no loop. Otherwise both
    players start at the greedy picks of a short value-iteration guess
    (_vi_guess); each round computes min's exact best reply and
    switches every max vertex whose other child is strictly better
    under those values; both steps run _improve. No switchable vertex
    means the values are a fixed point of the update operator, hence
    optimal. Rounds are bounded by the number of distinct max
    strategies; when the guess names the optimal strategies, one
    evaluation and no round confirm them.

    The loop always runs on the whole game, and every evaluation reads
    the settled vertices as known chain ends. A stopping game runs at
    lam = 1 and is reported as hk. Any other game gets the transform
    report, certificate attached: its loop runs at the chain factor
    lam = 1 - 2**-(DEFAULT_C*(m+2)), m the undecided vertices. A
    settled vertex ends a pick chain after the edges that the
    contracted game's sink edge has (see _contract), so the loop's
    values s are the stopping companion's values of that (m+2)-vertex
    game, and the snap at level m+2 recovers the exact values, within
    the companion's error bound. The snap and the test T z = z on the
    whole game are theory-guaranteed, and failing them means a bug,
    not bad input.
    """
    layers = stopping_layers(game)
    stopping = len(layers) == game.n
    z = _settle(game, stopping)
    rounds = 0
    if None in z:
        size = z.count(None) + 2  # the contracted game's n
        lam = Fraction(1) if stopping else chain_weight(DEFAULT_C * size)
        z, rounds = _strategy_improvement(game, lam, _vi_guess(game, layers), z)
        if not stopping:
            z = _snap_fixed_point(game, *zip(*z), size)
            if z is None:
                raise InternalCheckError("companion values do not snap to an operator fixed point")
    return _report(game, z, "hk" if stopping else "transform", rounds, certified=not stopping)


def _snap(num: int, den: int, n: int) -> Union[tuple[int, int], None]:
    """The integer core of round_to_value_set: the representable value
    within half a separation of num/den (den > 0, not necessarily
    reduced) as a reduced (numerator, denominator) pair, or None. Any
    n >= 0 works; the vi route also snaps at levels below the game size.

    The continued fraction of num/den runs until the next convergent's
    denominator would pass 4**n; the closer of the last convergent and
    the largest semiconvergent within the bound wins, the convergent on
    a tie, which is Fraction.limit_denominator's choice. Both are
    reduced, since neighbouring convergents have determinant +-1.
    """
    bound = 1 << (2 * n)
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = num, den
    while b:
        k = a // b
        if q0 + k * q1 > bound:
            k = (bound - q0) // q1
            p, q = p0 + k * p1, q0 + k * q1
            if abs(p1 * den - num * q1) * q <= abs(p * den - num * q) * q1:
                p, q = p1, q1
            break
        p0, q0, p1, q1 = p1, q1, p0 + k * p1, q0 + k * q1
        a, b = b, a - k * b
    else:
        p, q = p1, q1
    if p < 0:
        p, q = 0, 1
    elif p > q:
        p, q = 1, 1
    # |num/den - p/q| < 4**(-2n) / 2, cross-multiplied over both denominators
    if abs(num * q - p * den) << (4 * n + 1) < den * q:
        return p, q
    return None


def round_to_value_set(x: Fraction, n: int) -> Fraction:
    """Snap an approximation to the unique representable vertex value
    within half the separation 4**(-2n).

    Representable values for an n-vertex game have denominator at most
    4**n; the closest one is found by best rational approximation, an
    integer continued fraction on x's numerator and denominator (see
    _snap), and clamped into [0, 1]. If even that lies half a
    separation or more away the precondition was violated and the call
    fails rather than guess. n must be positive.
    """
    if n < 1:
        raise PreconditionError(f"game size must be positive, got n={n}")
    x = Fraction(x)
    snapped = _snap(x.numerator, x.denominator, n)
    if snapped is None:
        raise PreconditionError(
            f"no representable value within half a separation of {x} for n={n}"
        )
    return Fraction(*snapped)


def _snap_fixed_point(
    game: Game, nums: Sequence[int], dens: Sequence[int], level: int
) -> Union[list[tuple[int, int]], None]:
    """Snap the fractions nums[i] / dens[i] in vertex order, denominators
    positive and not necessarily reduced, to values with denominators at
    most 4**level, and test the snapped vector for an operator fixed
    point. Returns the snapped vector, as reduced (numerator,
    denominator) pairs in vertex order, if it is one, else None; the
    first component without such a value within half of 4**(-2*level)
    ends the try. Each distinct fraction (nums[i], dens[i]) is snapped
    once per try and its pair reused: vertex values repeat (every sink
    and many vertices are worth 0 or 1). level n is the game's own
    value set, where the snap of a close enough approximation is
    guaranteed; a coarser level can only be tried."""
    z = []
    snapped: dict[tuple[int, int], tuple[int, int]] = {}
    for key in zip(nums, dens):
        pair = snapped.get(key)
        if pair is None:
            pair = _snap(*key, level)
            if pair is None:
                return None
            snapped[key] = pair
        z.append(pair)
    return z if _is_fixed_point(game, z) else None


def _vi_solve(game: Game, layers: dict[int, int]) -> tuple[list[tuple[int, int]], int]:
    """The vi route on a stopping game: sweep from zero and return the
    exact values, as reduced (numerator, denominator) pairs in vertex
    order, with the productive sweeps run, or raise
    NonConvergenceError with the last iterate attached after
    DEFAULT_MAX_ITERS sweeps.

    The sweeps run in place (Gauss-Seidel, kernels.ordered_sweeps) on
    the grid of _grid_setup at default_epsilon, in the layer order of
    the stopping attractor layers (_layer_order), so values travel from
    the sinks through the whole game in one sweep. From the pinned
    start the iterates are monotone and never above the value. Take
    the iterate x before a sweep, x' after it, and T the update on the
    grid (means rounded down): every update reads children worth at
    least x, so x <= T x <= x'. The sweep's gain, the sum of x' - x,
    therefore bounds from above the residual a Jacobi sweep from x
    would measure, and x' is at least as close to the value as T x;
    every gate below keeps the meaning it has for Jacobi sweeps.

    On a stopping game T has one fixed point, so a snapped z with
    T z = z is the value, whichever denominator bound produced it.
    Level k, for k below n, is tried once, at the first sweep whose
    gain is at most one >> (4k+5) grid units: the iterate is snapped to
    denominators at most 4**k and tested; a sweep that passes several
    gates tries only the highest. Vertex values have denominators at
    most 4**n, so an iterate within half a separation snaps to the
    value: once the gain first falls to one >> (4n+1), which is also
    level n-1's gate, the iterate is snapped at level n and tested, and
    again every SNAP_SPACING sweeps. The sweep whose gain reaches
    default_epsilon is the last try; its iterate lies within a quarter
    separation of the value, so a failed snap there means a bug, not
    bad input.
    """
    n = game.n
    eps, one, thr, order = _vi_setup(game, None, DEFAULT_MAX_ITERS, layers)
    # 4 guard bits between a level's half spacing 4**-2k / 2 and its
    # gate; level n-1's gate, one >> (4n+1), starts the level-n tries,
    # the higher level, so n-1 is never tried alone; -1 ends the coarse
    # tries, as no gain is negative
    gates = [one >> (4 * k + 5) for k in range(n)] + [-1]
    level, gate = 0, gates[0]
    productive = 0
    due = None
    dens = [one] * n
    swept = kernels.ordered_sweeps(game, order, one, DEFAULT_MAX_ITERS)
    for sweep, (v, gain) in enumerate(swept):
        productive += gain > 0
        converged = gain <= thr
        if gain <= gate:
            while gain <= gates[level + 1]:
                level += 1
            if level == n - 1:
                due = sweep
            else:
                z = _snap_fixed_point(game, v[1:], dens, level)
                if z is not None:
                    return z, productive
            level += 1
            gate = gates[level]
        if converged or sweep == due:
            z = _snap_fixed_point(game, v[1:], dens, n)
            if z is not None:
                return z, productive
            due = sweep + SNAP_SPACING
    if converged:
        raise InternalCheckError("the converged vi iterate does not snap to a fixed point")
    raise _not_converged(eps, DEFAULT_MAX_ITERS, v[1:], one, productive)


def solve(
    game: Game,
    method: str = "auto",
    with_certificate: bool = False,
) -> SolveReport:
    """Compute the optimal value vector by the requested method.

    auto picks the cheapest exact path: the attractor solver when there
    is no chance, the LP when one player is absent, and otherwise
    hoffman_karp (the hk method, for every game), whose one stopping
    test picks strategy improvement on a stopping game and the chain
    transform on any other (solve the stopping companion with chains of
    DEFAULT_C * (m + 2) coin flips per edge, m the vertices the pre-pass
    leaves undecided, snap values back, verify T z = z).
    Every route but avg-free and vi first runs the qualitative
    pre-pass markov.zero_one_sets; when every vertex is worth exactly 0
    or 1 it returns those values with 0 iterations and no exact solve.
    When no free choice is left among the vertices it leaves undecided
    (a chain, or every player vertex forced by a child that settles
    against it), one evaluation of the game at lam = 1 gives the
    values, again with 0 iterations. Otherwise the lp route contracts
    the game to the undecided vertices, solves that and counts its
    pivots, and hk runs its loop on the whole game with the settled
    vertices as known chain ends, at the transform's chain factor for
    the undecided vertices and two sinks on a game that is not
    stopping. vi never runs the pre-pass, and no method accepts more
    games for it.
    The transform path always attaches the certificate (values, sigma);
    with_certificate attaches it on every path and checks it with
    verify_ovv_certificate, raising InternalCheckError on a rejection.
    vi, on stopping games only (markov.stopping_layers, whose layers
    also order its in-place sweeps), runs value iteration until a
    snapped iterate passes the exact test T z = z, trying denominator
    bounds 4**k for k < n once each before the bound 4**n, with
    default_epsilon(n) as the last try and at most DEFAULT_MAX_ITERS
    sweeps, and counts the productive sweeps run.
    Enumeration is not a method here: brute_force_oracle is its one
    entry point.
    """
    if method not in METHODS:
        raise PreconditionError(f"unknown method {method!r}; want one of {', '.join(METHODS)}")

    has_avg = game.has_kind(VertexKind.AVG)
    has_max = game.has_kind(VertexKind.MAX)
    has_min = game.has_kind(VertexKind.MIN)

    if method == "auto":
        if not has_avg:
            method = "avg-free"
        elif not has_min or not has_max:
            method = "lp"
        else:
            method = "hk"

    if method == "avg-free":
        values, depth = avg_free_run(game)
        report = _report(game, [x.as_integer_ratio() for x in values.components], "avg-free", depth)
    elif method == "lp":
        if has_min and has_max:
            raise PreconditionError("lp method needs a game with at most one player present")
        z, contracted = _contract(game)
        pivots = 0
        if contracted is not None:
            result = simplex_optimize((build_lp_max_free if has_min else build_lp_min_free)(contracted))
            z, pivots = _lift(z, [x.as_integer_ratio() for x in result.values]), result.pivots
        report = _report(game, z, "lp", pivots)
    elif method == "hk":
        report = hoffman_karp(game)
    else:  # vi
        layers = stopping_layers(game)
        if len(layers) < game.n:
            raise PreconditionError("vi method needs a stopping game; transform first")
        pairs, iters = _vi_solve(game, layers)
        report = _report(game, pairs, "vi", iters)

    if with_certificate:
        cert = Certificate(z=report.values, sigma=report.sigma)
        if not verify_ovv_certificate(game, cert):
            raise InternalCheckError("the solve result fails its own certificate check")
        report = replace(report, certificate=cert)
    return report


def brute_force_oracle(game: Game, budget: int = DEFAULT_ORACLE_BUDGET) -> SolveReport:
    """Optimal values by enumerating every strategy pair.

    Solves each fully reduced chain exactly and returns the first pair
    (in lexicographic order, min strategies outermost) that is a
    componentwise saddle point: max cannot raise any component against
    it, min cannot lower any. Reference implementation for the test
    suite; exponential, hence the budget on combined strategy bits.
    """
    n_max = len(game.vertices_of_kind(VertexKind.MAX))
    n_min = len(game.vertices_of_kind(VertexKind.MIN))
    if n_max + n_min > budget:
        raise BudgetError(
            f"{n_max + n_min} combined strategy bits exceed the oracle budget of {budget}"
        )
    taus = enumerate_strategies(game, VertexKind.MIN)
    sigmas = enumerate_strategies(game, VertexKind.MAX)
    table = [
        [solve_value_vector(ReducedGame(game, tau, sigma)) for sigma in sigmas]
        for tau in taus
    ]
    pairs = 0
    for ti, tau in enumerate(taus):
        for si, sigma in enumerate(sigmas):
            pairs += 1
            vals = table[ti][si]
            if all(table[ti][sj].leq(vals) for sj in range(len(sigmas))) and all(
                vals.leq(table[tj][si]) for tj in range(len(taus))
            ):
                return SolveReport(
                    values=vals,
                    tau=tau,
                    sigma=sigma,
                    method="oracle",
                    iterations=pairs,
                    certificate=None,
                )
    raise InternalCheckError("no saddle point among strategy pairs")


def game_value(game: Game) -> Fraction:
    """The game's value: the optimal value at the start vertex."""
    return solve(game, "auto").values[game.start]


def decide_value(game: Game, alpha: Fraction) -> bool:
    """Exact strict comparison: is the game value greater than alpha?"""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise PreconditionError(f"alpha must lie in [0, 1], got {alpha}")
    return game_value(game) > alpha


def verify_ovv_certificate(game: Game, cert: Certificate) -> bool:
    """Check a witness pair without trusting the solver that made it.

    Accepts exactly when T z = z (checked in integers, _is_fixed_point),
    sigma is z-greedy, and the tight-edge attractor with max fixed to
    sigma, which _tight_edges returns, covers every vertex. The first makes z a
    fixed point, hence at least the value, which is the least one. The
    other two make z at most val(G_sigma), hence at most the value: a
    set where z - val(G_sigma) is largest and positive holds no target
    vertex and keeps both children of its avg vertices, sigma's pick
    and one tight child of each min vertex, so none of its vertices
    could join the attractor. So an accepted z is the value and sigma
    is optimal, and every optimal sigma is accepted with the value. A z
    of the wrong length, or a sigma that is not a max strategy of the
    game (a missed max vertex, a pick off the game's edges, a min
    vertex named), raises CertificateError; failed checks return False.
    """
    z, sigma = cert.z, cert.sigma
    if z.n != game.n:
        raise CertificateError(f"certificate z has {z.n} entries, game has {game.n}")
    if sigma.owner is not VertexKind.MAX:
        raise CertificateError("certificate sigma must be a max strategy")
    try:
        validate_strategy(game, sigma)
    except StrategyError as exc:
        raise CertificateError(f"certificate sigma: {exc}") from None
    pairs = [x.as_integer_ratio() for x in z.components]
    if not _is_fixed_point(game, pairs):
        return False
    # reduced pairs are equal exactly when their values are
    if any(pairs[j - 1] != pairs[v - 1] for v, j in sigma.picks):
        return False
    return len(_tight_edges(game, pairs, sigma)[1]) == game.n


def verify_value_certificate(
    game: Game,
    cert: Certificate,
    alpha: Fraction,
    complement: bool = False,
) -> bool:
    """Check a witness for the decision 'game value > alpha', or for
    'game value <= alpha' with complement: cert must pass
    verify_ovv_certificate, which makes z the exact value vector, and
    z at the start vertex must exceed alpha (or, for the complement,
    not). Exact for every rational alpha.
    """
    alpha = Fraction(alpha)
    if not verify_ovv_certificate(game, cert):
        return False
    at_start = cert.z[game.start]
    return at_start <= alpha if complement else at_start > alpha
