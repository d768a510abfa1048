"""Reductions, the linear system, exact chain solving, stopping tests."""

import hashlib
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ssg import (
    BudgetError,
    PreconditionError,
    Strategy,
    StrategyError,
    ValueVector,
    VertexKind,
    attractor,
    brute_force_oracle,
    build_game,
    enumerate_strategies,
    is_stopping,
    mc_estimate,
    random_game,
    reduce_game,
    ReducedGame,
    solve,
    solve_value_vector,
    zero_one_sets,
)
from conftest import in_value_set, sink_reachable_set, successor_lists
from ssg.fixtures import FIXTURES, GAME_A, GAME_B, GAME_C, GAME_E, GAME_G
from ssg.stopping import DEFAULT_C, chain_weight


def fully_reduce(game, tau_picks=None, sigma_picks=None):
    tau = Strategy.of(VertexKind.MIN, tau_picks or {})
    sigma = Strategy.of(VertexKind.MAX, sigma_picks or {})
    return reduce_game(game, tau, sigma)


def test_reduce_game_validates_ownership():
    with pytest.raises(StrategyError):
        reduce_game(GAME_E, tau=Strategy.of(VertexKind.MIN, {1: 2}))
    with pytest.raises(StrategyError):
        reduce_game(GAME_E, sigma=Strategy.of(VertexKind.MAX, {1: 4}))
    rg = reduce_game(GAME_E, sigma=Strategy.of(VertexKind.MAX, {1: 2}))
    assert not rg.fully_reduced
    assert rg.successors(1) == (2,)
    assert rg.successors(2) == (1, 4)


def test_successors_of_avg_vertex_keeps_both():
    rg = fully_reduce(GAME_A)
    assert rg.fully_reduced
    assert rg.successors(1) == (2, 3)


def test_sink_reachable_set_drops_trapped_cycle():
    # GAME-E reduced into the 1 <-> 2 cycle never reaches a sink
    rg = fully_reduce(GAME_E, tau_picks={2: 1}, sigma_picks={1: 2})
    assert sink_reachable_set(rg) == frozenset()
    rg = fully_reduce(GAME_E, tau_picks={2: 4}, sigma_picks={1: 2})
    assert sink_reachable_set(rg) == frozenset({1, 2})


def test_attractor_layers_count_forced_steps():
    # GAME-E: max 1 -> (2, 0-sink 3), min 2 -> (1, 1-sink 4)
    succ = GAME_E.children
    assert attractor(GAME_E, succ, (4,), ()) == {4: 0, 2: 1, 1: 2}
    # min at 2 blocks: it can always pick 1, so only the target is forced
    assert attractor(GAME_E, succ, (4,), (VertexKind.MIN,)) == {4: 0}
    # an interior target stays at layer 0; 2 joins once both children have
    assert attractor(GAME_E, succ, (1, 4), (VertexKind.MIN,)) == {1: 0, 4: 0, 2: 1}


def test_attractor_follows_fixed_strategies():
    rg = fully_reduce(GAME_E, tau_picks={2: 4}, sigma_picks={1: 2})
    blocking = (VertexKind.MIN, VertexKind.MAX)
    assert attractor(GAME_E, successor_lists(rg), (4,), blocking) == {4: 0, 2: 1, 1: 2}
    rg = fully_reduce(GAME_E, tau_picks={2: 1}, sigma_picks={1: 2})
    assert attractor(GAME_E, successor_lists(rg), (3, 4), ()) == {3: 0, 4: 0}


def test_attractor_refuses_targets_that_are_not_vertices():
    # as list indices -1 is the last slot and 0 an unused one; 7 lies past the end
    for game, target in ((GAME_G, (-1,)), (GAME_G, (0,)), (GAME_A, (7,))):
        with pytest.raises(PreconditionError):
            attractor(game, game.children, target, ())


def test_linear_system_residual(residual_holds):
    rg = fully_reduce(GAME_B)
    good = ValueVector([Fraction(2, 3), Fraction(1, 3), 0, 1])
    bad = ValueVector([Fraction(2, 3), Fraction(1, 2), 0, 1])
    assert residual_holds(rg, good)
    assert not residual_holds(rg, bad)


def test_solve_value_vector_two_cycle():
    assert solve_value_vector(fully_reduce(GAME_B)) == ValueVector(
        [Fraction(2, 3), Fraction(1, 3), 0, 1]
    )


def test_solve_value_vector_single_avg():
    assert solve_value_vector(fully_reduce(GAME_A)) == ValueVector([Fraction(1, 2), 0, 1])


def test_solve_value_vector_trapped_vertices_are_zero():
    rg = fully_reduce(GAME_E, tau_picks={2: 1}, sigma_picks={1: 2})
    assert solve_value_vector(rg) == ValueVector([0, 0, 0, 1])


def test_solve_value_vector_self_loop_chain():
    # min self-loop: the loop vertex cannot reach a sink through itself
    rg = fully_reduce(GAME_C, tau_picks={1: 1})
    assert solve_value_vector(rg) == ValueVector([0, 0, 1])


def test_solve_value_vector_avg_chain_through_max():
    rg = fully_reduce(GAME_G, sigma_picks={1: 3})
    v = solve_value_vector(rg)
    assert v == ValueVector([Fraction(3, 4), Fraction(1, 2), Fraction(3, 4), 0, 1])


def test_solve_requires_full_reduction():
    with pytest.raises(PreconditionError):
        solve_value_vector(reduce_game(GAME_E, sigma=Strategy.of(VertexKind.MAX, {1: 2})))


def test_in_value_set_bounds():
    assert in_value_set(Fraction(1, 2), 1)
    assert in_value_set(Fraction(3, 4), 1)
    assert not in_value_set(Fraction(1, 5), 1)
    assert in_value_set(Fraction(1, 5), 2)
    assert not in_value_set(Fraction(5, 4), 3)
    assert in_value_set(0, 0) and in_value_set(1, 0)
    with pytest.raises(PreconditionError):
        in_value_set(Fraction(1, 2), -1)


@pytest.mark.parametrize(
    "name, expect",
    [
        ("GAME-A", True),
        ("GAME-B", True),
        ("GAME-C", False),
        ("GAME-D", False),
        ("GAME-E", False),
        ("GAME-F", True),
        ("GAME-G", True),
    ],
)
def test_is_stopping_fixtures(name, expect):
    assert is_stopping(FIXTURES[name]) is expect


def is_stopping_exhaustive(game, max_player_vertices=12):
    """The stopping test by its definition: every strategy pair, every
    vertex reaches a sink. Exponential; a cross-check oracle for small
    games."""
    players = len(game.vertices_of_kind(VertexKind.MAX)) + len(
        game.vertices_of_kind(VertexKind.MIN)
    )
    if players > max_player_vertices:
        raise BudgetError(
            f"{players} player vertices exceeds the exhaustive budget of {max_player_vertices}"
        )
    for tau in enumerate_strategies(game, VertexKind.MIN):
        for sigma in enumerate_strategies(game, VertexKind.MAX):
            reach = sink_reachable_set(ReducedGame(game, tau, sigma))
            if len(reach) != game.n - 2:
                return False
    return True


@given(seed=st.integers(0, 2_000))
@settings(max_examples=60, deadline=None)
def test_is_stopping_matches_exhaustive_definition(seed):
    g = random_game(3 + seed % 5, seed=seed)
    assert is_stopping(g) == is_stopping_exhaustive(g)


def test_values_lie_in_the_reachable_value_set(residual_holds):
    for seed in range(40):
        g = random_game(3 + seed % 8, seed=seed)
        taus = enumerate_strategies(g, VertexKind.MIN)
        sigmas = enumerate_strategies(g, VertexKind.MAX)
        rg = reduce_game(g, taus[seed % len(taus)], sigmas[-1])
        v = solve_value_vector(rg)
        t = len(sink_reachable_set(rg))
        assert all(in_value_set(x, t) for _, x in v.items())
        assert residual_holds(rg, v)


def test_mc_estimate_converges_roughly():
    rg = fully_reduce(GAME_A)
    est = mc_estimate(rg, plays=40_000, seed=11)
    assert est.plays == 40_000
    assert est.truncated == 0
    assert abs(est.value - Fraction(1, 2)) < Fraction(1, 50)


def test_mc_estimate_truncates_endless_play():
    rg = fully_reduce(GAME_E, tau_picks={2: 1}, sigma_picks={1: 2})
    est = mc_estimate(rg, plays=50, seed=0, max_steps=64)
    assert est.hits == 0
    assert est.truncated == 50


def test_mc_estimate_counts_plays_ending_on_the_last_step():
    # every play reaches the 1-sink on its one allowed move
    rg = fully_reduce(build_game(3, 1, [(1, "max", 2, 3)]), sigma_picks={1: 3})
    est = mc_estimate(rg, plays=10, max_steps=1)
    assert (est.hits, est.truncated) == (10, 0)
    # two coins: every play has ended after two moves, a quarter on the 1-sink
    rg = fully_reduce(build_game(4, 1, [(1, "avg", 2, 3), (2, "avg", 3, 4)]))
    est = mc_estimate(rg, plays=1000, max_steps=2)
    assert est.truncated == 0
    assert abs(est.value - Fraction(1, 4)) < Fraction(1, 20)


def test_mc_estimate_respects_start():
    rg = fully_reduce(GAME_A)
    assert mc_estimate(rg, start=3, plays=10, seed=0).hits == 10
    assert mc_estimate(rg, start=2, plays=10, seed=0).hits == 0


def test_mc_estimate_validates_arguments():
    rg = fully_reduce(GAME_A)
    with pytest.raises(PreconditionError):
        mc_estimate(rg, plays=0)
    with pytest.raises(PreconditionError):
        mc_estimate(rg, start=9)
    for max_steps in (0, -1):
        with pytest.raises(PreconditionError):
            mc_estimate(rg, start=3, plays=10, max_steps=max_steps)
    # seeds outside [0, 2**32) are refused
    for seed in (-1, 2**32):
        with pytest.raises(PreconditionError):
            mc_estimate(rg, plays=10, seed=seed)
    assert mc_estimate(rg, start=3, plays=10, seed=2**32 - 1).hits == 10


def test_mc_estimate_counts_are_pinned():
    # A seed fixes the counts, so a change to how mc_estimate walks a
    # reduced game must leave every one unchanged: stopping games under
    # optimal strategies, as the approx benchmark plays them, and games
    # under random strategies whose plays some short max_steps cut off
    digest = hashlib.sha256()
    cases = []
    for n, weights in ((20, (1, 1, 1)), (20, (1, 1, 8)), (12, (1, 1, 8))):
        for seed in range(70):
            game = random_game(n, weights, seed=seed, require_stopping=True)
            report = solve(game, "hk")
            cases.append((reduce_game(game, report.tau, report.sigma), 4000, None))
    for seed in range(90):
        game = random_game(16, seed=seed)
        rng = Random(seed)
        tau, sigma = (
            Strategy.of(k, {v: rng.choice(game.children_of(v)) for v in game.vertices_of_kind(k)})
            for k in (VertexKind.MIN, VertexKind.MAX)
        )
        cases.append((reduce_game(game, tau, sigma), 500, 1 + seed % 16))
    truncated = 0
    for seed, (rg, plays, max_steps) in enumerate(cases):
        est = mc_estimate(rg, plays=plays, seed=seed, max_steps=max_steps)
        truncated += est.truncated > 0
        digest.update(repr((est.hits, est.truncated)).encode())
    assert truncated >= 20
    assert digest.hexdigest() == "a21a49b4c8ce51ea5240f957274411bfccc570c45bbff19ff4d220e9d27b525a"


def test_deterministic_game_chain():
    # one max vertex forced through a deterministic avg-free chain
    g = build_game(5, 1, [(1, "max", 2, 3), (2, "max", 4, 5), (3, "max", 4, 5)])
    rg = fully_reduce(g, sigma_picks={1: 2, 2: 5, 3: 4})
    assert solve_value_vector(rg) == ValueVector([1, 1, 0, 0, 1])


def _sympy_values(rg, lam):
    """rg's lam-weighted values from sympy's exact solver, built from
    the definition: every interior vertex is lam times the mean of its
    successors, except that at lam = 1 a vertex with no path to a sink
    is worth 0. Also reports whether some vertex has no such path."""
    sympy = pytest.importorskip("sympy")
    game = rg.game
    alive = {game.sink0, game.sink1}
    grew = True
    while grew:
        grew = False
        for v in game.interior:
            if v not in alive and any(j in alive for j in rg.successors(v)):
                alive.add(v)
                grew = True
    lam = sympy.Rational(lam.numerator, lam.denominator)
    a = sympy.zeros(game.n, game.n)
    b = sympy.zeros(game.n, 1)
    for v in game.vertices:
        a[v - 1, v - 1] = 1
        if v in game.interior and (lam != 1 or v in alive):
            succ = rg.successors(v)
            for j in succ:
                a[v - 1, j - 1] -= lam / len(succ)
    b[game.sink1 - 1] = 1
    x = a.LUsolve(b)
    return ValueVector(Fraction(int(e.p), int(e.q)) for e in x), len(alive) < game.n


def test_solve_value_vector_matches_sympy():
    # random strategy pairs up to n = 30 at lam = 1, where some pairs
    # trap vertices on closed cycles, and on lam-games at c in {1, 9};
    # the fixtures add self loops, which the generator never draws
    from random import Random

    rng = Random(7)
    games = [*FIXTURES.values()]
    games += [random_game(n, w, seed=n) for n in (6, 12, 20, 30) for w in ((1, 1, 1), (1, 1, 3))]
    trapped = 0
    for g in games:
        for _ in range(1 if g.n > 12 else 2):
            tau, sigma = (
                Strategy.of(kind, {v: rng.choice(g.children_of(v)) for v in g.vertices_of_kind(kind)})
                for kind in (VertexKind.MIN, VertexKind.MAX)
            )
            rg = reduce_game(g, tau, sigma)
            for lam in (Fraction(1), 1 - Fraction(1, 2**g.n), 1 - Fraction(1, 2 ** (9 * g.n))):
                expected, has_trap = _sympy_values(rg, lam)
                trapped += has_trap and lam == 1
                assert solve_value_vector(rg, lam) == expected, (g.n, lam)
    assert trapped


def every_game(n):
    """Every game on n vertices with start vertex 1. Each interior vertex
    takes a kind and an unordered pair of distinct children among all n
    vertices, self loops and sinks included; vertex 1 varies slowest."""
    rows = [(kind, a, b) for kind in ("max", "min", "avg") for a, b in combinations(range(1, n + 1), 2)]
    for combo in product(rows, repeat=n - 2):
        yield build_game(n, 1, [(v, *row) for v, row in enumerate(combo, 1)])


def check_every_pair(game, residual_holds):
    """Evaluate every strategy pair of game at lam = 1 and at the
    transform's chain factor, and check each value vector against the
    chain itself: the residual v = lam (Q v + b) holds, and exactly the
    vertices with no path to the 1-sink read 0 (at lam = 1 that covers
    every vertex with no path to a sink). Returns the evaluation count."""
    lams = (Fraction(1), chain_weight(DEFAULT_C * game.n))
    count = 0
    for tau in enumerate_strategies(game, VertexKind.MIN):
        for sigma in enumerate_strategies(game, VertexKind.MAX):
            rg = reduce_game(game, tau, sigma)
            zero = set(game.vertices).difference(attractor(game, successor_lists(rg), (game.sink1,), ()))
            for lam in lams:
                v = solve_value_vector(rg, lam)
                assert residual_holds(rg, v, lam), (game, tau, sigma, lam)
                assert {i for i, x in v.items() if x == 0} == zero, (game, tau, sigma, lam)
                count += 1
    return count


def test_evaluator_on_every_game_on_4_vertices(residual_holds):
    games = list(every_game(4))
    assert len(games) == 324
    assert sum(check_every_pair(g, residual_holds) for g in games) == 1800


def sample_games_on_5_vertices(per_kinds, seed):
    """A stratified sample of every_game(5): per_kinds games for each of
    the 27 kind triples, drawn from that triple's 1,000 child choices
    with one Random(seed)."""
    rng = Random(seed)
    children = list(product(combinations(range(1, 6), 2), repeat=3))
    return [
        build_game(5, 1, [(v, kind, *pair) for v, (kind, pair) in enumerate(zip(kinds, choice), 1)])
        for kinds in product(("max", "min", "avg"), repeat=3)
        for choice in rng.sample(children, per_kinds)
    ]


# The 5-vertex sample: N5_PER_KINDS games per kind triple drawn with
# seed N5_SEED; tools/exhaustive_eval.py checks all 27,000 games.
N5_PER_KINDS = 20
N5_SEED = 21


def test_evaluator_on_a_stratified_sample_of_5_vertex_games(residual_holds):
    games = sample_games_on_5_vertices(N5_PER_KINDS, N5_SEED)
    assert len(games) == 27 * N5_PER_KINDS
    assert sum(check_every_pair(g, residual_holds) for g in games) == 5000


def test_cycle_of_player_vertices_is_worth_zero():
    # max 1 and min 2 pick each other; 3 is an avg vertex into the cycle
    g = build_game(5, 3, [(1, "max", 2, 5), (2, "min", 1, 4), (3, "avg", 1, 5)])
    rg = fully_reduce(g, tau_picks={2: 1}, sigma_picks={1: 2})
    for lam in (Fraction(1), Fraction(1, 3), chain_weight(DEFAULT_C * g.n)):
        assert solve_value_vector(rg, lam) == ValueVector([0, 0, lam / 2, 0, 1])


def test_avg_vertex_whose_children_chain_back_to_it():
    # both of avg 1's children are player vertices that pick 1
    g = build_game(5, 1, [(1, "avg", 2, 3), (2, "max", 1, 5), (3, "min", 1, 4)])
    rg = fully_reduce(g, tau_picks={3: 1}, sigma_picks={2: 1})
    assert sink_reachable_set(rg) == frozenset()
    for lam in (Fraction(1), Fraction(1, 3), chain_weight(DEFAULT_C * g.n)):
        assert solve_value_vector(rg, lam) == ValueVector([0, 0, 0, 0, 1])


@pytest.mark.parametrize("k", [1, 2, 5])
def test_chain_of_player_vertices_into_the_1_sink(k):
    # vertices 1..k alternate max and min, each picking the next; the
    # last picks the 1-sink, so vertex i is k + 1 - i edges from it
    n = k + 2
    rows = [(i, "max" if i % 2 else "min", i + 1 if i < k else n, n - 1) for i in range(1, k + 1)]
    g = build_game(n, 1, rows)
    rg = fully_reduce(
        g,
        tau_picks={i: c for i, _, c, _ in rows if i % 2 == 0},
        sigma_picks={i: c for i, _, c, _ in rows if i % 2},
    )
    for lam in (Fraction(1), Fraction(2, 3), chain_weight(DEFAULT_C * n)):
        v = solve_value_vector(rg, lam)
        assert [v[i] for i in range(1, k + 1)] == [lam ** (k + 1 - i) for i in range(1, k + 1)]


def test_avg_child_chain_ending_at_the_0_sink():
    # avg 1 has the 1-sink and max 2 as children; 2 picks min 3, which
    # picks the 0-sink
    g = build_game(5, 1, [(1, "avg", 2, 5), (2, "max", 3, 5), (3, "min", 4, 5)])
    rg = fully_reduce(g, tau_picks={3: 4}, sigma_picks={2: 3})
    for lam in (Fraction(1), Fraction(2, 3), chain_weight(DEFAULT_C * g.n)):
        assert solve_value_vector(rg, lam) == ValueVector([lam / 2, 0, 0, 0, 1])


def naive_attractor(game, succ, target, blocking):
    """The attractor by its definition, as a fixpoint: round d adds every
    interior vertex outside it whose need is met by vertices of earlier
    rounds, all its successors when its kind blocks and one otherwise."""
    layers = dict.fromkeys(target, 0)
    depth = 0
    while True:
        depth += 1
        joined = []
        for v in game.interior:
            s = succ[v - 1]
            met = sum(j in layers for j in s)
            if v not in layers and s and met >= (len(s) if game.kind(v) in blocking else 1):
                joined.append(v)
        if not joined:
            return layers
        layers.update(dict.fromkeys(joined, depth))


def check_attractor(game):
    """Check attractor against naive_attractor on game unreduced and with
    both players fixed to their first strategy, for every blocking set
    and for the 1-sink, both sinks and each single vertex as target.
    Returns the number of attractors compared."""
    tau = enumerate_strategies(game, VertexKind.MIN)[0]
    sigma = enumerate_strategies(game, VertexKind.MAX)[0]
    targets = [(game.sink1,), (game.sink0, game.sink1), *((v,) for v in game.vertices)]
    blockings = [(), (VertexKind.MIN,), (VertexKind.MAX,), (VertexKind.MAX, VertexKind.MIN)]
    count = 0
    for succ in (game.children, successor_lists(ReducedGame(game, tau, sigma))):
        for target in targets:
            for blocking in blockings:
                expected = naive_attractor(game, succ, target, blocking)
                assert attractor(game, succ, target, blocking) == expected, (game, succ, target, blocking)
                count += 1
    return count


def test_attractor_on_every_4_vertex_game_and_a_5_vertex_sample():
    # 4 vertices reach layer 2 at most; the 5-vertex sample reaches 3
    games = list(every_game(4))
    assert len(games) == 324
    assert sum(map(check_attractor, games)) == 324 * 2 * 6 * 4
    games = sample_games_on_5_vertices(N5_PER_KINDS, N5_SEED)
    assert sum(map(check_attractor, games)) == 27 * N5_PER_KINDS * 2 * 7 * 4


def check_zero_one_sets(game):
    """Check zero_one_sets against brute_force_oracle: the two sets are
    exactly the vertices worth 0 and worth 1. Returns whether they
    cover every vertex."""
    value = brute_force_oracle(game).values
    zeros, ones = zero_one_sets(game)
    assert zeros == {v for v, x in value.items() if x == 0}, game
    assert ones == {v for v, x in value.items() if x == 1}, game
    return len(zeros) + len(ones) == game.n


def test_zero_one_sets_on_every_game_on_4_vertices():
    games = list(every_game(4))
    assert len(games) == 324
    assert sum(map(check_zero_one_sets, games)) == 265


def test_zero_one_sets_on_a_stratified_sample_of_5_vertex_games():
    games = sample_games_on_5_vertices(N5_PER_KINDS, N5_SEED)
    assert len(games) == 27 * N5_PER_KINDS
    assert sum(map(check_zero_one_sets, games)) == 424


def test_value_1_loop_starts_at_every_vertex():
    # Started at the positive set instead, the value-1 loop would stop
    # at once, since the 1-sink's attractor within that set is all of
    # it, and call every positive vertex worth 1. The first 4-vertex
    # game where that is wrong: max 1 may loop on itself or go to the
    # coin 2, so both are worth 1/2.
    def worth_1(g):
        return {v for v, x in brute_force_oracle(g).values.items() if x == 1}

    first = next(g for g in every_game(4) if set(g.vertices) - zero_one_sets(g)[0] != worth_1(g))
    assert first == build_game(4, 1, [(1, "max", 1, 2), (2, "avg", 3, 4)])
    positive = {1, 2, 4}
    within = [
        [c for c in pair if c in positive] if v in positive else ()
        for v, pair in zip(first.interior, first.children)
    ]
    assert attractor(first, within, (4,), (VertexKind.MIN,)).keys() == positive
    assert zero_one_sets(first) == ({3}, {4})
