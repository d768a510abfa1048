"""End-to-end solver behavior: operator, iteration, improvement, oracle,
dispatch, and certificate checking."""

import hashlib
import importlib
import random
from fractions import Fraction
from functools import partial
from itertools import combinations, islice, product

import pytest

from hypothesis import given, settings, strategies as st

from ssg import (
    BudgetError,
    Certificate,
    CertificateError,
    NonConvergenceError,
    PreconditionError,
    ReducedGame,
    Strategy,
    ValueVector,
    VertexKind,
    apply_operator,
    avg_free_run,
    brute_force_oracle,
    build_game,
    build_stopping_game,
    decide_value,
    default_epsilon,
    enumerate_strategies,
    game_value,
    greedy_strategies,
    hoffman_karp,
    is_stopping,
    lift_strategy,
    random_game,
    reduce_game,
    round_to_value_set,
    solve,
    solve_value_vector,
    value_iteration,
    value_separation,
    verify_ovv_certificate,
    verify_value_certificate,
    vi_iterates,
    zero_one_sets,
)
from ssg.fixtures import (
    FIXTURES,
    GAME_A,
    GAME_B,
    GAME_C,
    GAME_D,
    GAME_E,
    GAME_F,
    GAME_G,
)
from ssg.lp import build_lp_max_free, build_lp_min_free, simplex_optimize
from ssg.markov import _value_pairs, _vector, stopping_layers
from ssg.solve import (
    METHODS,
    _contract,
    _improve,
    _is_fixed_point,
    _snap,
    _strategy_improvement,
    _transform_solve,
    _vi_guess,
)
from ssg.stopping import DEFAULT_C, chain_weight
from test_markov import every_game, sample_games_on_5_vertices

# the module itself; the package's `solve` attribute is the function
solve_module = importlib.import_module("ssg.solve")

HALF = Fraction(1, 2)

# a game using all three kinds with a max/min cycle, so it is not stopping
MIXED_LOOPY = build_game(5, 1, [(1, "max", 2, 3), (2, "min", 1, 3), (3, "avg", 4, 5)])
# same kinds but acyclic through the interior
MIXED_STOPPING = build_game(5, 1, [(1, "max", 2, 4), (2, "min", 3, 5), (3, "avg", 4, 5)])


# ----------------------------------------------------------- operator


def test_operator_single_coin_flip():
    assert apply_operator(GAME_A, ValueVector([0, 0, 1])) == ValueVector([HALF, 0, 1])


def test_operator_max_picks_larger_child():
    assert apply_operator(GAME_F, ValueVector([0, 0, 1])) == ValueVector([1, 0, 1])


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1)])
def test_operator_fixed_point_family(x):
    # min vertices mirroring each other track any common value
    v = ValueVector([x, x, 0, 1])
    assert apply_operator(GAME_D, v) == v


def test_operator_keeps_sinks():
    v = apply_operator(GAME_G, ValueVector([0, 0, 0, 0, 1]))
    assert v[4] == 0 and v[5] == 1


def _reference_fixed_point(game, vals):
    """apply_operator(game, z) == z written out on a list of Fractions,
    which unlike a ValueVector may leave [0, 1]."""
    for v, x in zip(game.vertices, vals):
        kind = game.kind(v)
        if kind.is_sink:
            want = Fraction(kind is VertexKind.SINK1)
        else:
            a, b = (vals[c - 1] for c in game.children_of(v))
            if kind is VertexKind.MAX:
                want = max(a, b)
            elif kind is VertexKind.MIN:
                want = min(a, b)
            else:
                want = (a + b) / 2
        if x != want:
            return False
    return True


def test_integer_fixed_point_test_matches_operator():
    rng = random.Random(5)
    games = list(FIXTURES.values()) + [MIXED_LOOPY, MIXED_STOPPING]
    games += [random_game(n, seed=s) for n in range(3, 13) for s in range(4)]
    verdicts = set()
    for game in games:
        z = list(solve(game).values.components)
        step = Fraction(1, 4**game.n)
        candidates = [z, [1 - x for x in z]]
        for i in range(game.n):
            for shift in (step, -step):
                moved = list(z)
                moved[i] += shift
                candidates.append(moved)
        wrong = list(z)
        wrong[game.sink0 - 1], wrong[game.sink1 - 1] = Fraction(1, 2), Fraction(0)
        candidates.append(wrong)
        # interior entries outside [0, 1]
        for x in (Fraction(-1, 3), Fraction(5, 2)):
            candidates.append([x] * (game.n - 2) + [Fraction(0), Fraction(1)])
        candidates.append([Fraction(rng.randint(-6, 12), 6) for _ in range(game.n)])
        for vals in candidates:
            expect = _reference_fixed_point(game, vals)
            if all(0 <= x <= 1 for x in vals):
                assert expect == (apply_operator(game, ValueVector(vals)) == ValueVector(vals))
            assert _is_fixed_point(game, [x.as_integer_ratio() for x in vals]) == expect
            verdicts.add(expect)
    assert verdicts == {True, False}
    # min vertices mirroring each other hold any common value up to the
    # 1-sink's, negative ones included
    for x, fixed in ((Fraction(-1), True), (Fraction(1, 8), True), (Fraction(2), False)):
        assert _is_fixed_point(GAME_D, [x.as_integer_ratio()] * 2 + [(0, 1), (1, 1)]) == fixed


# ----------------------------------------------------- value iteration


def test_vi_exact_after_one_sweep():
    values, sweeps = value_iteration(GAME_A)
    assert values == ValueVector([HALF, 0, 1])
    assert sweeps == 1


def test_vi_immediate_when_start_is_fixed():
    values, sweeps = value_iteration(GAME_D)
    assert values == ValueVector([0, 0, 0, 1])
    assert sweeps == 0


def test_vi_converges_on_chance_cycle():
    eps = Fraction(1, 10**6)
    values, sweeps = value_iteration(GAME_B, epsilon=eps)
    assert abs(values[1] - Fraction(2, 3)) <= eps
    assert abs(values[2] - Fraction(1, 3)) <= eps
    assert sweeps <= 40


def test_vi_approaches_from_below():
    for game, expect in [
        (GAME_B, ValueVector([Fraction(2, 3), Fraction(1, 3), 0, 1])),
        (MIXED_STOPPING, solve(MIXED_STOPPING).values),
    ]:
        approx, _ = value_iteration(game)
        assert approx.leq(expect)


def test_vi_iteration_cap():
    with pytest.raises(NonConvergenceError) as info:
        value_iteration(GAME_B, max_iters=3, epsilon=Fraction(1, 10**12))
    err = info.value
    assert err.iterations == 3
    assert err.values is not None and err.values[3] == 0 and err.values[4] == 1


def test_vi_rejects_bad_max_iters():
    with pytest.raises(PreconditionError):
        value_iteration(GAME_A, max_iters=0)
    with pytest.raises(PreconditionError):
        vi_iterates(GAME_A, max_iters=0)


def test_vi_iterates_monotone_and_consistent():
    # From n = 10 the default epsilon needs a grid finer than 2**-60.
    games = [GAME_B] + [random_game(n, seed=n, require_stopping=True) for n in range(5, 13)]
    for game in games:
        seen = list(vi_iterates(game))
        assert len(seen) >= 2
        for prev, cur in zip(seen, seen[1:]):
            assert prev.leq(cur)
        final, productive = value_iteration(game)
        assert seen[-1] == final
        assert sum(prev != cur for prev, cur in zip(seen, seen[1:])) == productive


# ------------------------------------------------------ avg-free games


def test_avg_free_max_reaches_sink():
    v = avg_free_run(GAME_F)[0]
    assert v[1] == 1


def test_avg_free_cycles_are_worthless():
    assert avg_free_run(GAME_D)[0] == ValueVector([0, 0, 0, 1])
    assert avg_free_run(GAME_E)[0] == ValueVector([0, 0, 0, 1])


def test_avg_free_passes_are_the_attractor_depth():
    # min 1 -> (2, 3), max 2 -> (3, 0-sink), min 3 -> (4, 1-sink), max 4 -> sinks:
    # each vertex is forced one step after the last of its needed children
    chain = build_game(6, 1, [(1, "min", 2, 3), (2, "max", 3, 5), (3, "min", 4, 6), (4, "max", 5, 6)])
    assert avg_free_run(chain) == (ValueVector([1, 1, 1, 1, 0, 1]), 4)
    assert avg_free_run(GAME_F) == (ValueVector([1, 0, 1]), 1)
    assert avg_free_run(GAME_D) == (ValueVector([0, 0, 0, 1]), 0)


@pytest.mark.parametrize("n", [10, 20, 40, 60])
def test_avg_free_agrees_with_the_transform_above_n8(n):
    for seed in range(3):
        game = random_game(n, weights=(1, 1, 0), seed=seed)
        report = solve(game, "avg-free", with_certificate=True)
        assert report.iterations <= n - 2
        assert verify_ovv_certificate(game, report.certificate)


def test_avg_free_rejects_chance():
    with pytest.raises(PreconditionError):
        avg_free_run(GAME_A)[0]


# ------------------------------------------------- strategy improvement


def test_hk_switches_to_better_coin():
    report = hoffman_karp(GAME_G)
    assert report.values == ValueVector([Fraction(3, 4), HALF, Fraction(3, 4), 0, 1])
    assert report.sigma.pick(1) == 3
    assert report.iterations <= 2


def test_hk_no_max_means_no_rounds():
    report = hoffman_karp(GAME_A)
    assert report.values == ValueVector([HALF, 0, 1])
    assert report.iterations == 0


def test_hk_single_max_choice():
    report = hoffman_karp(GAME_F)
    assert report.values == ValueVector([1, 0, 1])
    assert report.sigma.pick(1) == 3


@pytest.mark.parametrize("game", [GAME_C, MIXED_LOOPY], ids=["GAME_C", "MIXED_LOOPY"])
def test_hk_solves_non_stopping_games_through_the_transform(game):
    assert not is_stopping(game)
    report = hoffman_karp(game)
    assert report.method == "transform"
    assert report.values == brute_force_oracle(game).values
    assert report.certificate == Certificate(report.values, report.sigma)
    assert verify_ovv_certificate(game, report.certificate)


def test_hk_on_mixed_stopping_game():
    report = hoffman_karp(MIXED_STOPPING)
    assert report.values == brute_force_oracle(MIXED_STOPPING).values


def _picks(game, *strategies):
    """The pick array, indexed by vertex id, of the given strategies."""
    picks = [0] * (game.n + 1)
    for strategy in strategies:
        for v, child in strategy.picks:
            picks[v] = child
    return picks


def _strategies(game, picks):
    """The strategies (tau, sigma) of a pick array."""
    return tuple(
        Strategy.of(kind, {v: picks[v] for v in game.vertices_of_kind(kind)})
        for kind in (VertexKind.MIN, VertexKind.MAX)
    )


def _min_reply(game, sigma, tau):
    """min's exact best reply to sigma by the shared policy-iteration
    loop, started from tau, as hoffman_karp runs it: (values, tau,
    rounds)."""
    picks = _picks(game, tau, sigma)
    values, rounds = _improve(game, VertexKind.MIN, picks, lambda: _value_pairs(game, picks, 1, 1))
    return _vector(values), _strategies(game, picks)[0], rounds


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 1, 3)])
@pytest.mark.parametrize("n", range(4, 9))
def test_min_reply_matches_brute_force_best_reply(n, weights):
    rng = random.Random(n)
    for seed in range(3):
        game = random_game(n, weights, seed=seed, require_stopping=True)
        taus = enumerate_strategies(game, VertexKind.MIN)
        for sigma in enumerate_strategies(game, VertexKind.MAX):
            evals = [solve_value_vector(ReducedGame(game, t, sigma)) for t in taus]
            best = ValueVector(min(col) for col in zip(*(v.components for v in evals)))
            for start in (taus[0], rng.choice(taus)):
                values, tau, _ = _min_reply(game, sigma, start)
                assert values == best
                assert solve_value_vector(ReducedGame(game, tau, sigma)) == best


def test_min_reply_keeps_its_pick_on_a_tie():
    # both children of min vertex 1 are worth 1/2; only a strict
    # improvement moves a pick, so the right child stays
    game = build_game(5, 1, [(1, "min", 2, 3), (2, "avg", 4, 5), (3, "avg", 5, 4)])
    tau = Strategy.of(VertexKind.MIN, {1: 3})
    sigma = Strategy.of(VertexKind.MAX, {})
    values, reply, rounds = _min_reply(game, sigma, tau)
    assert values == ValueVector([HALF, HALF, HALF, 0, 1])
    assert (reply, rounds) == (tau, 0)


def _start_picks(game):
    """The all-left start for _strategy_improvement: every player
    vertex picks its left child."""
    return [0] + [
        pair[0] if pair and kind is not VertexKind.AVG else 0
        for kind, pair in zip(game.kinds, game.children)
    ]


@pytest.fixture
def evaluations(monkeypatch):
    """The calls of the evaluator core, markov._value_pairs, made
    through the solve module, in order."""
    calls = []
    inner = solve_module._value_pairs
    monkeypatch.setattr(solve_module, "_value_pairs", lambda *a: calls.append(a) or inner(*a))
    return calls


@pytest.mark.parametrize("game", [GAME_F, GAME_G], ids=["GAME_F", "GAME_G"])
def test_hk_confirms_the_guess_with_one_evaluation(game, evaluations):
    # from the all-left start each game takes 2 evaluations and one max
    # switch; the vi guess names the optimal sigma, so one evaluation
    # confirms it and no round is run
    cold = _strategy_improvement(game, Fraction(1), _start_picks(game))
    assert (len(evaluations), cold[1]) == (2, 1)
    evaluations.clear()
    report = hoffman_karp(game)
    assert (len(evaluations), report.iterations) == (1, 0)
    assert report.values == _vector(cold[0])


def test_transform_starts_from_the_guess(evaluations):
    # the transform's loop at the chain factor takes 9 evaluations and
    # 3 max rounds from the all-left start; from hk's vi guess one
    # evaluation confirms the optimum
    game = random_game(32, (1, 1, 1), 0)
    lam = chain_weight(DEFAULT_C * game.n)
    cold = _strategy_improvement(game, lam, _start_picks(game))
    assert (len(evaluations), cold[1]) == (9, 3)
    evaluations.clear()
    report = solve(game)
    assert report.method == "transform"
    assert (len(evaluations), report.iterations) == (1, 0)
    z, s, _rounds = _transform_solve(game, stopping_layers(game))
    assert s == cold[0]
    assert _vector(z) == report.values


@pytest.fixture
def guess_gains(monkeypatch):
    """The gains of the sweeps drawn from kernels.ordered_sweeps, in order."""
    gains = []
    inner = solve_module.kernels.ordered_sweeps

    def counted(*args):
        for item in inner(*args):
            gains.append(item[1])
            yield item

    monkeypatch.setattr(solve_module.kernels, "ordered_sweeps", counted)
    return gains


def guess(game):
    return _strategies(game, _vi_guess(game, stopping_layers(game)))


def test_vi_guess_stops_at_gain_zero(guess_gains):
    # no cycle, and the sweep visits 2, 3, 1 (layers 1, 2, 3), so the
    # first sweep already reaches the grid fixed point: the second has
    # gain 0 and ends the guess before two checks could agree; max 1
    # ties (2 and 3 are both worth 1/2) and keeps its left child, min 3
    # takes 2, worth less than the 1-sink
    game = build_game(5, 1, [(1, "max", 2, 3), (2, "avg", 4, 5), (3, "min", 5, 2)])
    tau, sigma = guess(game)
    assert guess_gains == [3 << 63, 0]
    assert len(guess_gains) < 2 * solve_module.GUESS_SPACING
    assert (tau.as_dict(), sigma.as_dict()) == ({3: 2}, {1: 2})


def test_vi_guess_stops_when_two_checks_agree(guess_gains):
    # the avg cycle 2 <-> 3 (worth 2/3 and 1/3) keeps the gain positive
    # for many sweeps; max 1 prefers its right child 2 from the first
    # sweep on, so the first two checks agree and end it
    game = build_game(5, 1, [(1, "max", 3, 2), (2, "avg", 3, 5), (3, "avg", 2, 4)])
    tau, sigma = guess(game)
    assert len(guess_gains) == 2 * solve_module.GUESS_SPACING
    assert all(guess_gains)
    assert sigma.as_dict() == {1: 2}
    assert tau.as_dict() == {}


def test_vi_guess_sweeps_in_layer_order():
    # 1 <- 2 <- 3 <- 4 is a chain whose ids run against its layers, so
    # one sweep in id order would move the 1-sink's value one step; in
    # layer order (4, 3, 2, 1) it reaches vertex 1 in the first sweep
    rows = [(1, "max", 2, 5), (2, "max", 3, 5), (3, "max", 4, 5), (4, "avg", 5, 6)]
    game = build_game(6, 1, rows)
    layers = stopping_layers(game)
    order = sorted(game.interior, key=layers.__getitem__)
    assert order == [4, 3, 2, 1]
    z, gain = next(solve_module.kernels.ordered_sweeps(game, order, 1 << 64, 1))
    assert z[1:] == [1 << 63] * 4 + [0, 1 << 64]
    assert gain == 4 << 63


def check_every_start(game):
    """Run the loop of hoffman_karp from every start pair (tau, sigma)
    of the stopping game and check that each run ends at the oracle's
    values. Returns the number of start pairs."""
    expected = brute_force_oracle(game).values
    count = 0
    for tau in enumerate_strategies(game, VertexKind.MIN):
        for sigma in enumerate_strategies(game, VertexKind.MAX):
            values, _rounds = _strategy_improvement(game, Fraction(1), _picks(game, tau, sigma))
            assert _vector(values) == expected, (game, tau, sigma)
            count += 1
    return count


def test_hk_loop_is_exact_from_every_start_on_4_vertices():
    games = [g for g in every_game(4) if is_stopping(g)]
    assert len(games) == 119
    assert sum(check_every_start(g) for g in games) == 243


# The 5-vertex sample: for each of the 27 kind triples, the first
# START5_PER_KINDS stopping games among that triple's 1,000 child
# choices, shuffled by one random.Random(START5_SEED);
# tools/exhaustive_eval.py checks all 7,128 stopping games on 5 vertices.
START5_PER_KINDS = 20
START5_SEED = 22


def test_hk_loop_is_exact_from_every_start_on_sampled_5_vertex_games():
    rng = random.Random(START5_SEED)
    children = list(product(combinations(range(1, 6), 2), repeat=3))
    games = []
    for kinds in product(("max", "min", "avg"), repeat=3):
        shuffled = rng.sample(children, len(children))
        rows = ([(v, k, *pair) for v, (k, pair) in enumerate(zip(kinds, c), 1)] for c in shuffled)
        stopping = (g for g in map(partial(build_game, 5, 1), rows) if is_stopping(g))
        games += islice(stopping, START5_PER_KINDS)
    assert len(games) == 27 * START5_PER_KINDS
    assert sum(check_every_start(g) for g in games) == 2500


# ------------------------------------------------------------ rounding


def test_rounding_snaps_nearby_points():
    sep = value_separation(3)
    assert round_to_value_set(HALF + sep / 8, 3) == HALF
    assert round_to_value_set(HALF, 3) == HALF
    assert round_to_value_set(Fraction(0), 3) == 0


def test_rounding_clamps_into_unit_interval():
    assert round_to_value_set(Fraction(-1, 10**9), 4) == 0
    assert round_to_value_set(Fraction(1) + Fraction(1, 10**9), 4) == 1


def test_rounding_refuses_distant_points():
    with pytest.raises(PreconditionError):
        round_to_value_set(Fraction(51, 100), 3)
    half_sep = value_separation(3) / 2
    with pytest.raises(PreconditionError):
        round_to_value_set(HALF + half_sep, 3)
    with pytest.raises(PreconditionError):
        round_to_value_set(HALF - half_sep, 3)
    assert round_to_value_set(HALF + half_sep - Fraction(1, 10**30), 3) == HALF


def test_rounding_and_separation_need_a_positive_size():
    for n in (0, -1):
        with pytest.raises(PreconditionError, match="game size must be positive"):
            round_to_value_set(Fraction(1, 3), n)
        with pytest.raises(PreconditionError, match="game size must be positive"):
            value_separation(n)


def _reference_snap(x, n):
    """The snap as limit_denominator, clamping and the half-separation
    refusal; None where round_to_value_set refuses."""
    best = min(max(x.limit_denominator(4**n), Fraction(0)), Fraction(1))
    return best if abs(x - best) < value_separation(n) / 2 else None


def test_rounding_matches_limit_denominator():
    rng = random.Random(11)
    checked = refused = 0
    for n in range(1, 13):
        half_sep = value_separation(n) / 2
        for _ in range(150):
            q = rng.randint(1, 4**n)
            base = Fraction(rng.randint(-q, 2 * q), q)
            tiny = Fraction(1, 2 ** rng.randint(4 * n + 2, 4 * n + 40))
            for x in (
                base,
                base + half_sep,
                base - half_sep,
                base + half_sep - tiny,
                base - half_sep + tiny,
                base + Fraction(rng.randint(-10**6, 10**6), 10**6 * 4 ** (2 * n)),
                Fraction(rng.randint(-2 * 10**9, 3 * 10**9), 10**9),
                Fraction(rng.getrandbits(6 * n + 40), 2 ** (6 * n + 40)),
            ):
                expect = _reference_snap(x, n)
                if expect is None:
                    refused += 1
                    with pytest.raises(PreconditionError):
                        round_to_value_set(x, n)
                else:
                    assert round_to_value_set(x, n) == expect, (x, n)
                    got = _snap(x.numerator, x.denominator, n)
                    assert got == expect.as_integer_ratio()
                # the vi route snaps grid integers, which need not be reduced
                k = rng.randint(2, 2**70)
                assert _snap(x.numerator * k, x.denominator * k, n) == _snap(
                    x.numerator, x.denominator, n
                )
                checked += 1
    assert refused and refused < checked


# ------------------------------------------------------ greedy readout


def test_greedy_prefers_strictly_better_child():
    report = solve(GAME_G)
    assert report.sigma.pick(1) == 3


def test_greedy_zero_class_takes_lower_index():
    tau, _sigma = greedy_strategies(GAME_C, ValueVector([0, 0, 1]))
    assert tau.pick(1) == 1
    tau, sigma = greedy_strategies(GAME_E, ValueVector([0, 0, 0, 1]))
    assert tau.pick(2) == 1
    assert sigma.pick(1) == 2


def test_greedy_positive_tie_heads_for_the_sink():
    # both children of vertex 1 are worth 1, but child 5 is the 1-sink
    # itself; picking the lower index 2 would spin on the 1 <-> 2 cycle
    g = build_game(5, 1, [(1, "max", 2, 5), (2, "max", 5, 1), (3, "avg", 4, 5)])
    report = solve(g)
    assert report.values[1] == 1
    assert report.sigma.pick(1) == 5
    assert report.sigma.pick(2) == 5


def test_reported_strategies_achieve_the_values():
    from ssg import reduce_game, solve_value_vector

    for game in FIXTURES.values():
        report = solve(game)
        chained = solve_value_vector(reduce_game(game, report.tau, report.sigma))
        assert chained == report.values


def _repick(sigma, v, child):
    return Strategy.of(VertexKind.MAX, {**sigma.as_dict(), v: child})


def _best_replies(game, tau, sigma):
    """Brute-force best replies as value vectors: the componentwise least
    over min strategies against sigma, and the greatest over max
    strategies against tau."""
    against_sigma = [
        solve_value_vector(ReducedGame(game, t, sigma))
        for t in enumerate_strategies(game, VertexKind.MIN)
    ]
    against_tau = [
        solve_value_vector(ReducedGame(game, tau, m))
        for m in enumerate_strategies(game, VertexKind.MAX)
    ]
    return (
        ValueVector(min(r[v] for r in against_sigma) for v in game.vertices),
        ValueVector(max(r[v] for r in against_tau) for v in game.vertices),
    )


def test_greedy_sigma_leaves_min_no_cycle():
    # max vertex 1 has children 6 and 3, both worth 1. Min vertex 3 has
    # children 1 and the 1-sink, so against 1 -> 3 min answers 3 -> 1
    # and the play cycles at value 0; 6 is one layer nearer the sink
    game = random_game(8, (1, 1, 1), seed=23)
    report = solve(game)
    assert (game.children_of(1), game.children_of(3)) == ((6, 3), (1, 8))
    assert report.values[1] == report.values[3] == report.values[6] == 1
    assert report.sigma.pick(1) == 6
    trap = _repick(report.sigma, 1, 3)
    assert _best_replies(game, report.tau, trap)[0][1] == 0
    assert not verify_ovv_certificate(game, Certificate(z=report.values, sigma=trap))


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 1, 0)])
def test_reported_strategies_are_best_responses(weights):
    # non-stopping games with both players: min's best reply to sigma and
    # max's best reply to tau both hold every vertex at the value
    checked = 0
    for n in range(6, 11):
        for seed in range(40):
            game = random_game(n, weights, seed=seed)
            if is_stopping(game) or not (game.has_kind(VertexKind.MAX) and game.has_kind(VertexKind.MIN)):
                continue
            report = solve(game)
            assert _best_replies(game, report.tau, report.sigma) == (report.values,) * 2, (n, seed)
            checked += 1
    assert checked >= 80


# ------------------------------------------------------------- oracle


def test_oracle_on_fixture_games():
    assert brute_force_oracle(GAME_E).values == ValueVector([0, 0, 0, 1])
    assert brute_force_oracle(GAME_G).values == ValueVector(
        [Fraction(3, 4), HALF, Fraction(3, 4), 0, 1]
    )


def test_oracle_with_no_players_checks_one_pair():
    report = brute_force_oracle(GAME_A)
    assert report.iterations == 1
    assert report.tau.as_dict() == {} and report.sigma.as_dict() == {}


def test_oracle_budget():
    with pytest.raises(BudgetError):
        brute_force_oracle(GAME_E, budget=1)


# ----------------------------------------------------------- dispatch


@pytest.mark.parametrize(
    "game, expected_method",
    [
        (GAME_C, "avg-free"),
        (GAME_D, "avg-free"),
        (GAME_E, "avg-free"),
        (GAME_A, "lp"),
        (GAME_B, "lp"),
        (GAME_G, "lp"),
        (MIXED_STOPPING, "hk"),
        (MIXED_LOOPY, "transform"),
    ],
)
def test_auto_routes_by_shape(game, expected_method):
    assert solve(game).method == expected_method


def test_transform_route_carries_certificate():
    report = solve(MIXED_LOOPY)
    assert report.method == "transform"
    assert report.certificate is not None
    assert verify_ovv_certificate(MIXED_LOOPY, report.certificate)
    assert report.values == brute_force_oracle(MIXED_LOOPY).values


def test_requested_certificate_on_other_routes():
    report = solve(GAME_B, with_certificate=True)
    assert report.method == "lp"
    assert report.certificate is not None
    assert verify_ovv_certificate(GAME_B, report.certificate)


def test_methods_agree_on_stopping_game():
    oracle = brute_force_oracle(MIXED_STOPPING).values
    for m in ("vi", "hk", "auto"):
        assert solve(MIXED_STOPPING, method=m).values == oracle, m


def test_oracle_is_not_a_solve_method():
    # brute_force_oracle is the one entry point of enumeration
    with pytest.raises(PreconditionError, match="unknown method 'oracle'"):
        solve(GAME_E, "oracle")


# max 1 goes to the 1-sink; the coin 2 loops or falls into the 0-sink
SETTLED_ONE_PLAYER = build_game(4, 1, [(1, "max", 2, 4), (2, "avg", 2, 3)])
# max 1 and min 2 may cycle, but max takes the 1-sink and min the 0-sink
SETTLED_LOOPY = build_game(5, 1, [(1, "max", 2, 5), (2, "min", 1, 4), (3, "avg", 1, 5)])
# the coin 1 is worth 1/2, max 2 is worth 1 and the looping coin 3 is
# worth 0, so only the coin 1 is left: a chain
PARTIAL_ONE_PLAYER = build_game(5, 1, [(1, "avg", 3, 5), (2, "max", 3, 5), (3, "avg", 3, 4)])
# the looping coin 4 is worth 0; max 1 takes the coin 2, worth 1/2, over
# the coin 3, worth 1/4, so max 1 is left with a choice
PARTIAL_ONE_PLAYER_CHOICE = build_game(
    6, 1, [(1, "max", 2, 3), (2, "avg", 4, 6), (3, "avg", 2, 5), (4, "avg", 4, 5)]
)
# the coin 3 is worth 1/2, while min traps max 1 on the cycle 1 <-> 2,
# so only the coin 3 is left: a chain
PARTIAL_LOOPY = build_game(6, 1, [(1, "max", 2, 4), (2, "min", 1, 3), (3, "avg", 5, 6), (4, "avg", 4, 5)])
# the looping coin 5 is worth 0; max 1 escapes the cycle 1 <-> 2 through
# the coin 3, worth 1/2, and min 2 follows it back rather than take the
# coin 4, worth 3/4, so both players are left
PARTIAL_LOOPY_CHOICE = build_game(
    7, 1, [(1, "max", 2, 3), (2, "min", 1, 4), (3, "avg", 5, 7), (4, "avg", 3, 7), (5, "avg", 5, 6)]
)
# the coins 5 and 6 only flip between each other, so they are worth 0
# and the game is not stopping; max 1 must leave the coin 5 for min 2,
# and min 2 the 1-sink for the coin 3, so both are forced: 1, 2 and 3
# are worth 2/3 and the coin 4 is worth 1/3
FORCED_LOOPY = build_game(
    8, 1, [(1, "max", 2, 5), (2, "min", 3, 8), (3, "avg", 4, 8), (4, "avg", 7, 1), (5, "avg", 5, 6), (6, "avg", 5, 6)]
)
# the looping coin 3 is worth 0, so max 1 is forced to the coin 2: max 1
# and the coin 2 are worth 2/3, the coin 4 is worth 1/3
FORCED_MIN_FREE = build_game(6, 1, [(1, "max", 2, 3), (2, "avg", 4, 6), (3, "avg", 3, 5), (4, "avg", 1, 5)])
# the looping coin 3 is worth 1, so min 1 is forced to the coin 2: min 1
# and the coin 2 are worth 1/3, the coin 4 is worth 2/3
FORCED_MAX_FREE = build_game(6, 1, [(1, "min", 2, 3), (2, "avg", 4, 5), (3, "avg", 3, 6), (4, "avg", 1, 6)])
# max 1 is forced to min 2 as in FORCED_LOOPY, but min 2 chooses between
# the coin 3, worth 2/3, and the coin 4, worth 1/3, and takes the coin 4
FORCED_AND_FREE = build_game(
    8, 1, [(1, "max", 2, 5), (2, "min", 3, 4), (3, "avg", 1, 8), (4, "avg", 3, 7), (5, "avg", 5, 6), (6, "avg", 5, 6)]
)


def _contraction(game):
    """What _contract leaves of game: "settled" when zero_one_sets
    settles every vertex, "chain" when no player vertex is left
    undecided, "forced" when every undecided max vertex has a child
    worth 0 and every undecided min vertex a child worth 1, else
    "choice"; and m, the undecided vertices."""
    zeros, ones = zero_one_sets(game)
    undecided = [v for v in game.vertices if v not in zeros and v not in ones]
    if not undecided:
        return "settled", 0
    players = [v for v in undecided if game.kind(v) is not VertexKind.AVG]
    if not players:
        return "chain", len(undecided)
    worst = {VertexKind.MAX: zeros, VertexKind.MIN: ones}
    forced = all(worst[game.kind(v)].intersection(game.children_of(v)) for v in players)
    return "forced" if forced else "choice", len(undecided)


@pytest.fixture
def exact_calls(monkeypatch):
    """The sizes of what solve hands its exact solvers, one entry per
    call: the variables of each simplex program and the vertices of
    each game the evaluator core solves."""
    sizes = {"simplex_optimize": lambda lp: len(lp.variables), "_value_pairs": lambda game: game.n}
    calls = {name: [] for name in sizes}
    for name, size in sizes.items():
        inner = getattr(solve_module, name)

        def recorded(first, *rest, _name=name, _inner=inner, _size=size):
            calls[_name].append(_size(first))
            return _inner(first, *rest)

        monkeypatch.setattr(solve_module, name, recorded)
    return calls


@pytest.mark.parametrize(
    "game, route", [(SETTLED_ONE_PLAYER, "lp"), (SETTLED_LOOPY, "transform")], ids=["lp", "transform"]
)
def test_settled_game_skips_the_exact_work(game, route, exact_calls):
    report = solve(game)
    assert (report.method, report.iterations) == (route, 0)
    assert exact_calls == {"simplex_optimize": [], "_value_pairs": []}
    assert report.values == brute_force_oracle(game).values
    assert (report.tau, report.sigma) == greedy_strategies(game, report.values)
    assert (report.certificate is not None) == (route == "transform")
    assert verify_ovv_certificate(game, solve(game, with_certificate=True).certificate)


@pytest.mark.parametrize(
    "game, route, left",
    [
        (PARTIAL_ONE_PLAYER_CHOICE, "lp", "choice"),
        (PARTIAL_LOOPY, "transform", "chain"),
        (PARTIAL_ONE_PLAYER, "lp", "chain"),
        (PARTIAL_LOOPY_CHOICE, "transform", "choice"),
    ],
    ids=["lp", "transform", "lp-chain", "transform-choice"],
)
def test_partially_settled_game_runs_its_route(game, route, left, exact_calls):
    zeros, ones = zero_one_sets(game)
    assert ones - {game.sink1} or zeros - {game.sink0}
    kind, m = _contraction(game)
    assert kind == left
    report = solve(game)
    assert report.method == route
    # with no player vertex left undecided the game itself is evaluated
    # once, at lam = 1; otherwise the exact solver sees only the m
    # undecided vertices and two sinks
    if left == "chain":
        assert exact_calls == {"simplex_optimize": [], "_value_pairs": [game.n]}
        assert report.iterations == 0
    else:
        assert set(exact_calls["simplex_optimize" if route == "lp" else "_value_pairs"]) == {m + 2}
    assert report.values == brute_force_oracle(game).values


@pytest.fixture
def transform_calls(monkeypatch):
    """The sizes of the games solve hands _transform_solve, in order."""
    sizes = []
    inner = solve_module._transform_solve
    monkeypatch.setattr(solve_module, "_transform_solve", lambda g, layers: sizes.append(g.n) or inner(g, layers))
    return sizes


@pytest.mark.parametrize(
    "game, route",
    [(FORCED_LOOPY, "transform"), (FORCED_MIN_FREE, "lp"), (FORCED_MAX_FREE, "lp")],
    ids=["transform", "lp-min-free", "lp-max-free"],
)
def test_forced_choices_are_one_evaluation(game, route, exact_calls, evaluations, transform_calls):
    # every undecided player vertex has a child that settles against
    # it, so the game is an absorbing chain under the other children:
    # one evaluation of the whole game at lam = 1, no simplex and no
    # companion solve
    assert _contraction(game)[0] == "forced"
    report = solve(game)
    assert (report.method, report.iterations) == (route, 0)
    assert exact_calls == {"simplex_optimize": [], "_value_pairs": [game.n]}
    assert [(g.n, p, q) for g, _picks, p, q, _known in evaluations] == [(game.n, 1, 1)]
    assert transform_calls == []
    assert report.values == brute_force_oracle(game).values
    assert verify_ovv_certificate(game, solve(game, with_certificate=True).certificate)


def test_a_free_choice_keeps_the_contracted_solve(exact_calls, transform_calls):
    # max 1 is forced, but min 2 has a choice, so the transform solves
    # the contraction: the 4 undecided vertices and two sinks
    game = FORCED_AND_FREE
    kind, m = _contraction(game)
    assert (kind, m) == ("choice", 4)
    report = solve(game)
    assert report.method == "transform"
    assert transform_calls == [m + 2]
    assert set(exact_calls["_value_pairs"]) == {m + 2}
    assert report.values == brute_force_oracle(game).values


@pytest.mark.parametrize(
    "weights, n, seed",
    [
        *(((1, 0, 1), 40, seed) for seed in (0, 1, 3)),
        ((1, 0, 1), 60, 1),
        *(((0, 1, 1), 60, seed) for seed in (0, 1)),
    ],
)
def test_contracted_lp_route_matches_the_full_program(weights, n, seed, exact_calls):
    game = random_game(n, weights, seed=seed)
    kind, m = _contraction(game)
    assert 1 <= m < n - 2
    report = solve(game, with_certificate=True)
    assert report.method == "lp"
    # the simplex runs exactly when a free choice is left undecided
    assert exact_calls["simplex_optimize"] == ([m + 2] if kind == "choice" else [])
    full = simplex_optimize((build_lp_min_free if weights[1] == 0 else build_lp_max_free)(game))
    assert report.values == ValueVector(full.values)
    assert (report.tau, report.sigma) == greedy_strategies(game, report.values)
    assert verify_ovv_certificate(game, report.certificate)


def test_transform_route_solves_a_large_nearly_settled_game(exact_calls):
    # zero_one_sets leaves 2 of the 10,000 vertices undecided, both
    # coins, so the transform route evaluates the game once with the
    # settled vertices as known chain ends: 2 rows, no companion solve
    game = random_game(10_000, (1, 1, 1), seed=0)
    assert _contraction(game) == ("chain", 2)
    report = solve(game, with_certificate=True)
    assert (report.method, report.iterations) == ("transform", 0)
    assert exact_calls["_value_pairs"] == [game.n]
    assert verify_ovv_certificate(game, report.certificate)


def test_settled_game_keeps_the_method_preconditions():
    assert not is_stopping(SETTLED_LOOPY)
    with pytest.raises(PreconditionError):
        solve(SETTLED_LOOPY, "lp")


@pytest.mark.parametrize(
    "game, method, route, tests",
    [
        (MIXED_LOOPY, "auto", "transform", 1),
        (SETTLED_LOOPY, "auto", "transform", 1),
        (MIXED_STOPPING, "auto", "hk", 1),
        (MIXED_STOPPING, "vi", "vi", 1),
        (GAME_E, "auto", "avg-free", 0),
        (PARTIAL_ONE_PLAYER, "auto", "lp", 0),
    ],
    ids=["transform", "settled", "hk", "vi", "avg-free", "lp"],
)
def test_one_stopping_test_per_solve(game, method, route, tests, monkeypatch):
    calls = []
    inner = solve_module.stopping_layers

    def counted(g):
        calls.append(g)
        return inner(g)

    monkeypatch.setattr(solve_module, "stopping_layers", counted)
    assert solve(game, method).method == route
    assert len(calls) == tests


def test_vi_method_snaps_to_exact_values():
    report = solve(GAME_B, method="vi")
    assert report.values == ValueVector([Fraction(2, 3), Fraction(1, 3), 0, 1])


def test_vi_method_caps_sweeps(monkeypatch):
    # GAME-B is worth (2/3, 1/3), which no finite sweep count reaches;
    # both vertices sit in layer 1, so the one in-place sweep sets 1 to
    # the mean of 0 and the 1-sink, then 2 to the mean of that and the
    # 0-sink
    monkeypatch.setattr(solve_module, "DEFAULT_MAX_ITERS", 1)
    with pytest.raises(NonConvergenceError, match="within 1 sweeps") as info:
        solve(GAME_B, "vi")
    assert info.value.iterations == 1
    assert info.value.values == ValueVector([HALF, Fraction(1, 4), 0, 1])


def _snapped_fixed_point(game, x, k):
    """One snap try of the vi route on Fractions: x snapped to values
    with denominators at most 4**k if that is an operator fixed point,
    else None. round_to_value_set needs k >= 1; level 0 holds 0 and 1,
    and refuses 1/2, which is half a spacing from both."""
    if k == 0:
        if HALF in x.components:
            return None
        z = ValueVector(int(c > HALF) for c in x.components)
    else:
        try:
            z = ValueVector(round_to_value_set(c, k) for c in x.components)
        except PreconditionError:
            return None
    return z if apply_operator(game, z) == z else None


def _in_place_iterates(game):
    """The vi route's sweeps written out on Fractions, without the
    kernel: the interior in increasing layer of stopping_layers, ties
    by id, each vertex set in place from its children's current values,
    with means rounded down to the route's 2**-K grid. Yields
    (iterate, gain) after each sweep, up to the first sweep with gain 0."""
    one = 2 ** solve_module._grid_setup(game.n, None)[1]
    layers = stopping_layers(game)
    order = sorted(game.interior, key=lambda v: (layers[v], v))
    z = {v: Fraction(int(v == game.sink1)) for v in game.vertices}
    gain = 1
    while gain:
        before = sum(z.values())
        for v in order:
            a, b = game.children_of(v)
            kind = game.kind(v)
            if kind is VertexKind.MAX:
                z[v] = max(z[a], z[b])
            elif kind is VertexKind.MIN:
                z[v] = min(z[a], z[b])
            else:
                z[v] = Fraction((z[a] + z[b]) * one // 2, one)
        gain = sum(z.values()) - before
        yield ValueVector(z[v] for v in game.vertices), gain


def _reference_vi_stop(game):
    """The vi route's stopping rule written out on _in_place_iterates:
    level k < n is tried once, at the first sweep whose gain (sum
    increase) is at most 2**-(4k+5); level n is tried at the first
    sweep whose gain is at most half a separation, 2**-(4n+1), and
    every 8 sweeps after; a sweep that first passes several gates tries
    only the highest level. Returns (snapped values, productive
    sweeps) at the first try whose snap is an operator fixed point."""
    n = game.n
    gates = [Fraction(1, 2 ** (4 * k + 5)) for k in range(n)] + [value_separation(n) / 2]
    passed = set()
    productive = 0
    due = None
    for sweep, (cur, gain) in enumerate(_in_place_iterates(game)):
        productive += gain > 0
        first = [k for k, gate in enumerate(gates) if k not in passed and gain <= gate]
        passed.update(first)
        if first and max(first) < n:
            z = _snapped_fixed_point(game, cur, max(first))
            if z is not None:
                return z, productive
        if n in first:
            due = sweep
        if sweep == due:
            z = _snapped_fixed_point(game, cur, n)
            if z is not None:
                return z, productive
            due = sweep + 8
    raise AssertionError("no snapped fixed point before the grid fixed point")


def _reference_level_n_stop(game):
    """The level-n tries alone, the vi route's rule before coarser
    levels were tried: the first at the first sweep whose gain is at
    most half a separation, later ones every 8 sweeps; returns
    (snapped values, productive sweeps)."""
    half_sep = value_separation(game.n) / 2
    productive = 0
    due = None
    for sweep, (cur, gain) in enumerate(_in_place_iterates(game)):
        productive += gain > 0
        if due is None and gain <= half_sep:
            due = sweep
        if sweep == due:
            z = _snapped_fixed_point(game, cur, game.n)
            if z is not None:
                return z, productive
            due = sweep + 8
    raise AssertionError("no snapped fixed point before the grid fixed point")


def test_vi_method_stops_at_the_first_snapped_fixed_point():
    fewer = coarser = 0
    for n in range(8, 25, 4):
        for seed in range(3):
            game = random_game(n, seed=seed, require_stopping=True)
            report = solve(game, "vi")
            assert (report.values, report.iterations) == _reference_vi_stop(game)
            level_n, level_n_sweeps = _reference_level_n_stop(game)
            assert report.values == level_n
            assert report.iterations <= level_n_sweeps
            coarser += report.iterations < level_n_sweeps
            _approx, sweeps = value_iteration(game)
            assert report.iterations <= sweeps
            fewer += report.iterations < sweeps
    assert fewer and coarser


def test_vi_method_tries_the_highest_level_a_sweep_passes(monkeypatch):
    # three avg chains, each of 6 vertices towards a max vertex worth 1,
    # and the 2/3, 1/3 cycle; every avg vertex sits in layer 1 and reads
    # its successor in the chain before that is updated, so a chain's
    # vertices reach 1 one per sweep, keeping the gain above level 0's
    # gate 2**-5 through the 7th sweep, while the cycle's gain falls by 4
    # each sweep; the 8th sweep moves only the cycle, by about 2**-14,
    # which passes the gates of levels 0, 1 and 2 at once, and level 2
    # holds every value
    chains, length = 3, 7
    n = chains * length + 4
    sink0, sink1 = n - 1, n
    rows = []
    for c in range(chains):
        top = c * length + length
        rows += [(v, "avg", v + 1, sink1) for v in range(top - length + 1, top)]
        rows.append((top, "max", sink1, sink0))
    cycle = chains * length + 1
    rows += [(cycle, "avg", cycle + 1, sink1), (cycle + 1, "avg", cycle, sink0)]
    game = build_game(n, 1, rows)
    tried = []
    inner = solve_module._snap_fixed_point

    def recorded(game, nums, dens, level):
        tried.append(level)
        return inner(game, nums, dens, level)

    monkeypatch.setattr(solve_module, "_snap_fixed_point", recorded)
    report = solve(game, "vi")
    assert (report.values, report.iterations) == _reference_vi_stop(game)
    cycle_values = [Fraction(2, 3), Fraction(1, 3)]
    assert report.values == ValueVector([1] * (chains * length) + cycle_values + [0, 1])
    assert report.iterations == length + 1
    assert tried == [2]


def _jacobi_iterates(game, one, thr):
    """Synchronous (Jacobi) sweeps written out on the grid of one: every
    vertex reads its children's values from before the sweep, means
    rounded down. Yields each iterate as grid integers in vertex order,
    up to the first sweep whose largest increase is at most thr."""
    z = [0] * (game.n - 1) + [one]
    while True:
        new = list(z)
        for v in game.interior:
            a, b = (z[c - 1] for c in game.children_of(v))
            kind = game.kind(v)
            if kind is VertexKind.MAX:
                new[v - 1] = max(a, b)
            elif kind is VertexKind.MIN:
                new[v - 1] = min(a, b)
            else:
                new[v - 1] = (a + b) >> 1
        residual = max(x - y for x, y in zip(new, z))
        z = new
        yield z
        if residual <= thr:
            return


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 1, 8)], ids=["1:1:1", "1:1:8"])
def test_in_place_sweeps_lie_between_jacobi_iterates_and_the_value(weights):
    # the inequality behind the vi route's last try: after k in-place
    # sweeps in layer order the grid iterate is at least the k-th
    # Jacobi iterate on the same grid and at most the exact value, so
    # it is at least as close to the value; both sides are compared as
    # grid integers, the value rounded down
    for n in (8, 16, 24, 40):
        for seed in range(2):
            game = random_game(n, weights, seed=seed, require_stopping=True)
            _eps, bits, thr = solve_module._grid_setup(n, None)
            one = 1 << bits
            value = [x.numerator * one // x.denominator for x in solve(game, "hk").values.components]
            layers = stopping_layers(game)
            order = sorted(game.interior, key=layers.__getitem__)
            in_place = solve_module.kernels.ordered_sweeps(
                game, order, one, solve_module.DEFAULT_MAX_ITERS
            )
            jacobi = _jacobi_iterates(game, one, thr)
            for sweeps, (jac, (z, _gain)) in enumerate(zip(jacobi, in_place), 1):
                for u, (c, x) in enumerate(zip(jac, z[1:])):
                    assert c <= x <= value[u], (n, seed, sweeps, u + 1)
            assert solve(game, "vi").iterations <= value_iteration(game)[1]


# The sets value_iteration was measured on when it moved onto the
# in-place sweeps: (games, n, weights, stopping required). The two
# sets drawn without the stopping requirement hold 1 and 16 stopping
# games.
VI_SETS = [
    pytest.param(100, 20, (1, 1, 1), True, id="stopping-1:1:1-n20"),
    pytest.param(20, 40, (1, 1, 8), True, id="stopping-1:1:8-n40"),
    pytest.param(20, 30, (1, 1, 1), False, id="drawn-1:1:1-n30"),
    pytest.param(20, 30, (1, 1, 8), False, id="drawn-1:1:8-n30"),
]


@pytest.mark.parametrize("count, n, weights, stopping", VI_SETS)
def test_value_iteration_lies_within_epsilon_below_the_value(count, n, weights, stopping):
    # value_iteration stops at the first in-place sweep whose gain is
    # at most epsilon; its iterate never exceeds the value, and on
    # these games it stopped within default_epsilon(n) of it
    eps = default_epsilon(n)
    for seed in range(count):
        game = random_game(n, weights, seed=seed, require_stopping=stopping)
        value = solve(game).values
        approx, _sweeps = value_iteration(game)
        assert approx.leq(value), seed
        assert approx.gap(value) <= eps, seed


def test_vi_method_on_a_value_no_coarse_level_holds():
    # an avg chain halving towards the 0-sink: the start is worth 2**-38,
    # whose denominator 4**19 no level below 19 holds, and no sweep before
    # the 38th leaves the start at 0, so every sweep is run
    n = 40
    game = build_game(n, 1, [(i, "avg", i + 1 if i < n - 2 else n, n - 1) for i in range(1, n - 1)])
    report = solve(game, "vi")
    assert report.values[1] == Fraction(1, 2**38)
    halvings = [Fraction(1, 2 ** (n - 1 - i)) for i in range(1, n - 1)]
    assert report.values == ValueVector(halvings + [0, 1])
    assert report.iterations == n - 2


@pytest.mark.parametrize(
    "n, weights",
    [pytest.param(n, (1, 1, 1), id=str(n)) for n in (16, 24, 40, 60, 100)]
    + [pytest.param(n, (1, 1, 8), id=f"1:1:8-{n}") for n in (60, 80, 100, 150)],
)
def test_vi_agrees_with_hk_above_n8(n, weights):
    for seed in range(3):
        game = random_game(n, weights, seed=seed, require_stopping=True)
        vi, hk = solve(game, "vi"), solve(game, "hk")
        assert (vi.values, vi.tau, vi.sigma) == (hk.values, hk.tau, hk.sigma)


@pytest.mark.parametrize("n", [20, 30, 40])
@pytest.mark.parametrize("weights", [(1, 0, 1), (0, 1, 1), (1, 1, 8)], ids=["1:0:1", "0:1:1", "1:1:8"])
def test_exact_routes_agree_above_n8_by_weight_mix(n, weights):
    for seed in range(3):
        game = random_game(n, weights, seed=seed, require_stopping=True)
        reports = [solve(game, "vi"), solve(game, "hk")]
        if 0 in weights[:2]:  # one player: the lp route applies too
            reports.append(solve(game, "lp"))
        assert len({(r.values, r.tau, r.sigma) for r in reports}) == 1


def test_vi_method_needs_stopping():
    with pytest.raises(PreconditionError):
        solve(GAME_C, method="vi")


def test_method_preconditions():
    with pytest.raises(PreconditionError):
        solve(GAME_A, method="avg-free")
    with pytest.raises(PreconditionError):
        solve(MIXED_STOPPING, method="lp")
    with pytest.raises(PreconditionError):
        solve(GAME_A, method="newton")


# ---------------------------------------------------- value & decision


def test_game_values():
    assert game_value(GAME_A) == HALF
    assert game_value(GAME_B) == Fraction(2, 3)
    assert game_value(GAME_D) == 0


def test_decide_is_strict():
    assert decide_value(GAME_A, Fraction(1, 4))
    assert not decide_value(GAME_A, HALF)
    assert decide_value(GAME_B, HALF)


def test_decide_rejects_out_of_range_threshold():
    with pytest.raises(PreconditionError):
        decide_value(GAME_A, Fraction(-1, 10))
    with pytest.raises(PreconditionError):
        decide_value(GAME_A, Fraction(2))


# -------------------------------------------------------- certificates


def test_certificate_roundtrip():
    report = solve(MIXED_LOOPY, with_certificate=True)
    cert = report.certificate
    assert verify_ovv_certificate(MIXED_LOOPY, cert)
    assert (cert.z, cert.sigma) == (report.values, report.sigma)


def test_certificate_rejects_perturbed_claim():
    cert = solve(MIXED_LOOPY, with_certificate=True).certificate
    sep = value_separation(MIXED_LOOPY.n)
    bumped = list(cert.z.components)
    bumped[0] = bumped[0] + sep
    bad = Certificate(z=ValueVector(bumped), sigma=cert.sigma)
    assert not verify_ovv_certificate(MIXED_LOOPY, bad)
    # every interior vertex is worth 1/2, so 1 -> 2 is z-greedy too, but
    # min answers 2 -> 1 and the play cycles at value 0
    assert cert.sigma.pick(1) == 3
    bad = Certificate(z=cert.z, sigma=_repick(cert.sigma, 1, 2))
    assert not verify_ovv_certificate(MIXED_LOOPY, bad)


def test_certificate_rejects_wrong_fixed_point():
    # (1/8, 1/8, 0, 1) satisfies the operator, but each min vertex has
    # the other as its only tight child, so neither joins the attractor
    cert = solve(GAME_D, with_certificate=True).certificate
    assert verify_ovv_certificate(GAME_D, cert)
    imposter = Certificate(z=ValueVector([Fraction(1, 8), Fraction(1, 8), 0, 1]), sigma=cert.sigma)
    assert apply_operator(GAME_D, imposter.z) == imposter.z
    assert not verify_ovv_certificate(GAME_D, imposter)


def test_certificate_dimension_mismatch():
    cert = solve(GAME_D, with_certificate=True).certificate
    with pytest.raises(CertificateError):
        verify_ovv_certificate(GAME_A, cert)
    with pytest.raises(CertificateError):
        verify_ovv_certificate(
            GAME_D, Certificate(z=ValueVector(cert.z.components[1:]), sigma=cert.sigma)
        )


def test_value_certificate_decides_threshold():
    cert = solve(GAME_B, with_certificate=True).certificate
    assert verify_value_certificate(GAME_B, cert, HALF)
    assert not verify_value_certificate(GAME_B, cert, HALF, complement=True)
    assert not verify_value_certificate(GAME_B, cert, Fraction(3, 4))
    assert verify_value_certificate(GAME_B, cert, Fraction(3, 4), complement=True)


def test_value_certificate_strict_at_the_value():
    cert = solve(GAME_A, with_certificate=True).certificate
    assert not verify_value_certificate(GAME_A, cert, HALF)
    assert verify_value_certificate(GAME_A, cert, Fraction(1, 4))


def test_value_certificate_requires_fixed_point():
    cert = solve(GAME_B, with_certificate=True).certificate
    warped = list(cert.z.components)
    warped[0] = Fraction(9, 10)
    bad = Certificate(z=ValueVector(warped), sigma=cert.sigma)
    assert not verify_value_certificate(GAME_B, bad, Fraction(1, 10))


def test_value_certificate_dimension_mismatch():
    empty = Strategy.of(VertexKind.MAX, {})
    with pytest.raises(CertificateError):
        verify_value_certificate(GAME_B, Certificate(z=ValueVector([0, 1]), sigma=empty), HALF)


def test_certificate_refuses_sigma_off_the_game():
    # a missed max vertex, a pick that is no edge, a min vertex named,
    # and a min strategy in sigma's place
    cert = solve(MIXED_LOOPY, with_certificate=True).certificate
    for sigma in (
        Strategy.of(VertexKind.MAX, {}),
        Strategy.of(VertexKind.MAX, {1: 4}),
        Strategy.of(VertexKind.MAX, {1: 3, 2: 3}),
        Strategy.of(VertexKind.MIN, {2: 3}),
    ):
        with pytest.raises(CertificateError, match="sigma"):
            verify_ovv_certificate(MIXED_LOOPY, Certificate(z=cert.z, sigma=sigma))
        with pytest.raises(CertificateError, match="sigma"):
            verify_value_certificate(MIXED_LOOPY, Certificate(z=cert.z, sigma=sigma), HALF)


def test_value_certificate_is_exact_off_the_grid():
    # GAME-A is worth 1/2, and an accepted z is the exact value, so an
    # alpha just below it with a huge denominator is decided like any other
    cert = solve(GAME_A, with_certificate=True).certificate
    alpha = HALF - Fraction(1, 2**100)
    assert verify_value_certificate(GAME_A, cert, alpha)
    assert not verify_value_certificate(GAME_A, cert, alpha, complement=True)


SELF_LOOP_MAX = build_game(3, 1, [(1, "max", 1, 2)])


def test_certificate_rejects_off_grid_fixed_point():
    # vertex 1 is worth 0, but any z[1] is an operator fixed point: the
    # greatest one, 1, and one off the value grid. 1 -> 2 is not z-greedy
    # there, and 1 -> 1 keeps vertex 1 out of the attractor
    cert = solve(SELF_LOOP_MAX, with_certificate=True).certificate
    assert verify_ovv_certificate(SELF_LOOP_MAX, cert)
    for top in (Fraction(1), Fraction(1, 4**6) / 4):
        z = ValueVector([top, 0, 1])
        assert apply_operator(SELF_LOOP_MAX, z) == z
        for child in (1, 2):
            sigma = Strategy.of(VertexKind.MAX, {1: child})
            assert not verify_ovv_certificate(SELF_LOOP_MAX, Certificate(z=z, sigma=sigma))


@st.composite
def self_loop_games(draw):
    """Games on 3..6 vertices where each interior vertex may loop on itself."""
    n = draw(st.integers(3, 6))
    rows = []
    for v in range(1, n - 1):
        kind = draw(st.sampled_from(["max", "min", "avg"]))
        others = [u for u in range(1, n + 1) if u != v]
        if draw(st.booleans()):
            pair = [v, draw(st.sampled_from(others))]
        else:
            pair = draw(st.permutations(others))[:2]
        if draw(st.booleans()):
            pair.reverse()
        rows.append((v, kind, *pair))
    return build_game(n, 1, rows)


@given(game=self_loop_games())
@settings(max_examples=40, deadline=None)
def test_certificate_sweep_over_self_loops(game):
    cert = solve(game, with_certificate=True).certificate
    assert cert.z == brute_force_oracle(game).values
    assert verify_ovv_certificate(game, cert)
    shift = value_separation(game.n) / 4
    for i in game.interior:
        for delta in (shift, -shift):
            if not 0 <= cert.z[i] + delta <= 1:
                continue
            bumped = list(cert.z.components)
            bumped[i - 1] += delta
            bad = Certificate(z=ValueVector(bumped), sigma=cert.sigma)
            assert not verify_ovv_certificate(game, bad)


# ------------------------------------------- contracted companion solve


def _mixed_non_stopping(n, count, seed):
    games = []
    while len(games) < count:
        g = random_game(n, seed=seed)
        seed += 1
        kinds = (VertexKind.MAX, VertexKind.MIN, VertexKind.AVG)
        if all(g.has_kind(k) for k in kinds) and not is_stopping(g):
            games.append(g)
    return games


def _companion_reference(game, c):
    """Strategy improvement on the built companion, from the vi guess
    on the original game that the contracted loop also takes, lifted
    onto the companion: its values at the original vertices as reduced
    pairs, their snap-back, and the round count."""
    transformed, record = build_stopping_game(game, c)
    start = _strategies(game, _vi_guess(game, stopping_layers(game)))
    picks = _picks(transformed, *(lift_strategy(record, x) for x in start))
    values, rounds = _strategy_improvement(transformed, Fraction(1), picks)
    s = [values[record.mapped(i) - 1] for i in game.vertices]
    z = ValueVector(round_to_value_set(Fraction(*x), game.n) for x in s)
    return z, s, rounds


def test_transform_route_matches_built_companion(monkeypatch):
    games = [g for n in range(6, 13) for g in _mixed_non_stopping(n, 2 if n < 10 else 1, 100 * n)]
    # edges into the 0-sink end in a self-looping chain tail
    assert any(j == g.sink0 for g in games for _v, j in g.edges())
    assert any(j == g.sink1 for g in games for _v, j in g.edges())
    routed = []  # (game, result) of each _transform_solve call that solve makes
    inner = solve_module._transform_solve

    def recorded(g, layers):
        routed.append((g, inner(g, layers)))
        return routed[-1][1]

    monkeypatch.setattr(solve_module, "_transform_solve", recorded)
    contracted = 0
    for game in games:
        routed.clear()
        report = solve(game)
        assert report.method == "transform"
        z, s, rounds = _transform_solve(game, stopping_layers(game))
        ref_z, ref_s, ref_rounds = _companion_reference(game, DEFAULT_C)
        assert (s, rounds) == (ref_s, ref_rounds)
        assert report.certificate.z == report.values == _vector(z) == ref_z
        # the route solves the game with its settled vertices contracted
        # out, and reports the rounds of that solve; a game with no free
        # choice left is evaluated without it
        kind, m = _contraction(game)
        if kind != "choice":
            assert (routed, report.iterations) == ([], 0)
            continue
        [(sub, (_z, sub_s, sub_rounds))] = routed
        assert sub.n == m + 2
        assert report.iterations == sub_rounds
        assert sub_s == _companion_reference(sub, DEFAULT_C)[1]
        contracted += m + 2 < game.n
    assert contracted


@pytest.mark.parametrize("n", [20, 40, 60])
def test_transform_route_certifies_large_games(n):
    # building the companion is out of reach here (about 18 n**2
    # vertices), so the certificate check is the reference
    for game in _mixed_non_stopping(n, 3, 1000 * n):
        report = solve(game, with_certificate=True)
        assert report.method == "transform"
        assert verify_ovv_certificate(game, report.certificate)


@pytest.mark.parametrize(
    "weights, route", [((1, 1, 1), "hk"), ((1, 0, 1), "lp"), ((0, 1, 1), "lp")]
)
def test_requested_certificate_matches_built_companion(weights, route):
    seed = 0
    checked = 0
    while checked < 3:
        game = random_game(6 + checked, weights, seed=seed, require_stopping=route == "hk")
        seed += 1
        report = solve(game, with_certificate=True)
        if report.method != route:
            continue
        z, s, _rounds = _transform_solve(game, stopping_layers(game))
        ref_z, ref_s, _ref_rounds = _companion_reference(game, DEFAULT_C)
        assert s == ref_s
        assert report.certificate.z == report.values == _vector(z) == ref_z
        checked += 1


# ---------------------------------------------------------- invariants


def test_default_epsilon_is_well_inside_separation():
    for n in (3, 5, 9):
        assert default_epsilon(n) <= value_separation(n) / 4


def test_solutions_match_oracle_on_random_pool():
    for seed in range(30):
        g = random_game(3 + seed % 5, seed=seed)
        assert solve(g).values == brute_force_oracle(g).values


# ------------------------------------------------- games above n = 8


def _random_picks(game, seed):
    """A seeded random pick array: each player vertex picks one child."""
    rng = random.Random(seed)
    picks = [0] * (game.n + 1)
    for v, kind, pair in zip(game.interior, game.kinds, game.children):
        if kind is not VertexKind.AVG:
            picks[v] = rng.choice(pair)
    return picks


@pytest.mark.parametrize(
    "n, chain",
    [(150, False), (300, False), (1000, False), (60, True)],
    ids=["150", "300", "1000", "60-chain"],
)
def test_evaluator_core_holds_the_chain_equations_at_scale(n, chain, residual_holds):
    # the core's values under seeded random picks satisfy
    # v = lam (Q v + b), read off the reduced game; the chain factor's
    # rows carry integers of about 9n bits per edge, and one evaluation
    # at n = 150 takes seconds, so it runs at n = 60
    inside = 0
    for seed in range(3):
        game = random_game(n, (1, 1, 8), seed)
        lam = chain_weight(DEFAULT_C * n) if chain else Fraction(1)
        picks = _random_picks(game, seed)
        values = _vector(_value_pairs(game, picks, lam.numerator, lam.denominator))
        assert residual_holds(ReducedGame(game, *_strategies(game, picks)), values, lam)
        inside += sum(0 < x < 1 for x in values.components)
    assert 2 * inside > n  # the systems are not all settled


@pytest.mark.parametrize("weights", [(1, 0, 1), (0, 1, 1)], ids=["1:0:1", "0:1:1"])
def test_lp_route_matches_the_full_program_above_n8(weights, exact_calls):
    # the simplex on the whole, uncontracted program is the reference;
    # these draws contract to settled games, chains, forced choices and
    # free choices, and only the last reach the simplex
    build = build_lp_min_free if weights[1] == 0 else build_lp_max_free
    left = set()
    for n in (16, 24, 32, 40, 60):
        for seed in range(3):
            game = random_game(n, weights, seed=seed)
            kind, m = _contraction(game)
            left.add(kind)
            for calls in exact_calls.values():
                calls.clear()
            report = solve(game, "lp", with_certificate=True)
            assert exact_calls == {
                "simplex_optimize": [m + 2] if kind == "choice" else [],
                "_value_pairs": [n] if kind in ("chain", "forced") else [],
            }
            assert (report.iterations == 0) == (kind != "choice")
            assert report.values == ValueVector(simplex_optimize(build(game)).values)
            assert verify_ovv_certificate(game, report.certificate)
    # the 0:1:1 draws hold no forced choice; FORCED_MAX_FREE is one
    assert {"settled", "chain", "choice"} <= left


def test_transform_route_matches_the_full_game_above_n8(evaluations):
    # _transform_solve on the whole, uncontracted game is the reference;
    # a game with no free choice left is one evaluation of the whole
    # game at lam = 1, not at the chain factor
    left = set()
    for n in (12, 16, 24, 32, 40):
        for game in _mixed_non_stopping(n, 4, 1000 * n):
            kind, m = _contraction(game)
            left.add(kind)
            evaluations.clear()
            report = solve(game)
            assert report.method == "transform"
            if kind in ("chain", "forced"):
                assert [(g.n, p, q) for g, _picks, p, q, _known in evaluations] == [(n, 1, 1)]
                assert report.iterations == 0
            z, _s, _rounds = _transform_solve(game, stopping_layers(game))
            assert report.values == _vector(z)
            assert verify_ovv_certificate(game, report.certificate)
    assert left == {"settled", "chain", "forced", "choice"}


# the coins 2 and 3 only flip between each other, so they are worth 0
# and the game is not stopping; the coins 1 and 4 are worth 1/2 and 1/4
COIN_LOOP = build_game(6, 1, [(1, "avg", 2, 6), (2, "avg", 2, 3), (3, "avg", 2, 3), (4, "avg", 1, 5)])


@pytest.mark.parametrize("method", ["auto", "lp", "hk"])
@pytest.mark.parametrize(
    "game", [random_game(20, (0, 0, 1), seed=0), COIN_LOOP], ids=["stopping", "loop"]
)
def test_a_game_of_coins_is_one_evaluation(game, method, exact_calls, evaluations):
    # no player has a choice: every route evaluates the one strategy
    # pair of the whole game once at lam = 1, the lp route and the
    # transform with the settled vertices as known chain ends
    report = solve(game, method)
    assert exact_calls["simplex_optimize"] == []
    assert [(g.n, p, q) for g, _picks, p, q, *_known in evaluations] == [(game.n, 1, 1)]
    assert report.iterations == 0
    assert report.values == brute_force_oracle(game).values


@pytest.mark.parametrize("n", [300, 600])
def test_hk_certifies_large_stopping_games(n):
    for seed in range(3):
        game = random_game(n, (1, 1, 8), seed, require_stopping=True)
        report = solve(game, "hk", with_certificate=True)
        assert verify_ovv_certificate(game, report.certificate)
        assert solve(game).values == report.values


@pytest.mark.parametrize("n", [60, 100, 150])
def test_hk_matches_vi_on_large_stopping_games(n):
    # vi snaps value iteration, with no strategy improvement, so it is
    # an independent exact reference
    for seed in range(3):
        game = random_game(n, (1, 1, 8), seed, require_stopping=True)
        assert solve(game, "hk").values == solve(game, "vi").values


# ------------------------------------------------------ every small game


def check_routes_and_certificates(game):
    """Check every solve method and every verifier verdict on game
    against brute_force_oracle. Each method that accepts the game (auto
    and hk on every game; vi when it is stopping; lp when a player is
    absent; avg-free when there is no avg vertex) returns the oracle's
    values, and its tau and sigma reduce the game to a chain worth
    exactly those values; every other method raises PreconditionError.
    On a game with all three kinds hk returns auto's report field for
    field. Then for every max strategy sigma and every candidate z (each
    val(G_tau,sigma), and the value), verify_ovv_certificate accepts
    (z, sigma) exactly when z is the value and sigma is optimal from
    every vertex, that is when val(G_sigma), the componentwise minimum
    over tau, is the value. Returns the number of route solves and of
    verdicts."""
    value = brute_force_oracle(game).values
    has_avg, has_max, has_min = map(game.has_kind, (VertexKind.AVG, VertexKind.MAX, VertexKind.MIN))
    stopping = is_stopping(game)
    accepts = {
        "auto": True,
        "hk": True,
        "vi": stopping,
        "lp": not (has_max and has_min),
        "avg-free": not has_avg,
    }
    solves = 0
    reports = {}
    for method in METHODS:
        if not accepts[method]:
            with pytest.raises(PreconditionError):
                solve(game, method)
            continue
        report = reports[method] = solve(game, method)
        assert report.values == value, (game, method)
        reduced = reduce_game(game, report.tau, report.sigma)
        assert solve_value_vector(reduced) == value, (game, method)
        solves += 1
    if has_avg and has_max and has_min:
        assert reports["hk"] == reports["auto"], game
    taus = enumerate_strategies(game, VertexKind.MIN)
    table = {
        sigma: [solve_value_vector(ReducedGame(game, tau, sigma)) for tau in taus]
        for sigma in enumerate_strategies(game, VertexKind.MAX)
    }
    candidates = {value}.union(*table.values())
    verdicts = 0
    for sigma, column in table.items():
        optimal = ValueVector(map(min, zip(*(v.components for v in column)))) == value
        for z in candidates:
            accepted = verify_ovv_certificate(game, Certificate(z, sigma))
            assert accepted == (z == value and optimal), (game, sigma, z)
            verdicts += 1
    return solves, verdicts


def _total(counts):
    return tuple(map(sum, zip(*counts)))


def test_routes_and_certificates_on_every_game_on_4_vertices():
    games = list(every_game(4))
    assert len(games) == 324
    assert _total(map(check_routes_and_certificates, games)) == (1163, 1167)


# The 5-vertex sample for the gate: ROUTES5_PER_KINDS games per kind
# triple drawn with seed ROUTES5_SEED (sample_games_on_5_vertices);
# tools/exhaustive_eval.py runs the gate on all 27,000 games.
ROUTES5_PER_KINDS = 20
ROUTES5_SEED = 23


def test_routes_and_certificates_on_sampled_5_vertex_games():
    games = sample_games_on_5_vertices(ROUTES5_PER_KINDS, ROUTES5_SEED)
    assert len(games) == 27 * ROUTES5_PER_KINDS
    assert _total(map(check_routes_and_certificates, games)) == (1680, 3388)


def sample_games_on_6_vertices(per_kinds, seed):
    """per_kinds games for each of the 81 kind quadruples of the 4
    interior vertices, every vertex's children one choice among the 15
    pairs of distinct vertices in 1..6, drawn with one Random(seed)."""
    rng = random.Random(seed)
    pairs = list(combinations(range(1, 7), 2))
    return [
        build_game(6, 1, [(v, kind, *rng.choice(pairs)) for v, kind in enumerate(kinds, 1)])
        for kinds in product(("max", "min", "avg"), repeat=4)
        for _ in range(per_kinds)
    ]


# The 6-vertex sample: the first gate whose games can hold two max and
# two min vertices.
ROUTES6_PER_KINDS = 20
ROUTES6_SEED = 6


def test_routes_and_certificates_on_sampled_6_vertex_games():
    games = sample_games_on_6_vertices(ROUTES6_PER_KINDS, ROUTES6_SEED)
    assert len(games) == 81 * ROUTES6_PER_KINDS
    assert _total(map(check_routes_and_certificates, games)) == (4503, 17662)
    # of the games whose route contracts them (lp, and the transform on
    # the games that are not stopping), 88 keep a player vertex
    # undecided, and in 48 every such vertex is forced: _contract
    # evaluates those instead of handing them on
    left = []
    for game in games:
        players = game.has_kind(VertexKind.MAX) + game.has_kind(VertexKind.MIN)
        if game.has_kind(VertexKind.AVG) and (players < 2 or not is_stopping(game)):
            kind = _contraction(game)[0]
            if kind in ("forced", "choice"):
                left.append(kind)
                assert (_contract(game)[1] is None) == (kind == "forced"), game
    assert (len(left), left.count("forced")) == (88, 48)


def pinned_grid():
    """Seeded games at n = 3-30 under five weight mixes, plus stopping
    mixed draws, so that every route of solve is reached."""
    for n in range(3, 31):
        for weights in ((1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 8)):
            for seed in range(3):
                yield random_game(n, weights, seed=seed)
            if all(weights) and n % 3 == 0:
                yield random_game(n, weights, seed=n, require_stopping=True)


def test_solve_answers_are_pinned():
    # Exact values are unique, and strategies and certificates are read
    # off them, so a change to how a route finds the values must leave
    # all of these unchanged; the iteration counts of hk and vi may move
    # with their sweeps, the transform's with its start, and lp's and
    # the transform's drop to 0 where every choice left is forced. hk on a
    # non-stopping game, which it refused when the digests were taken,
    # stays out of them: it must repeat auto's transform report, or on
    # a game auto sends elsewhere, auto's values
    answers, iterations = hashlib.sha256(), hashlib.sha256()
    routes = set()
    for game in pinned_grid():
        reports = {}
        for method in METHODS:
            try:
                report = reports[method] = solve(game, method, with_certificate=True)
            except PreconditionError:
                continue
            if method == "hk" and report.method == "transform":
                auto = reports["auto"]
                assert (report == auto) if auto.method == "transform" else (report.values == auto.values)
                continue
            routes.add(report.method)
            cert = report.certificate
            answers.update(repr((
                [str(x) for x in report.values.components],
                report.tau.picks,
                report.sigma.picks,
                report.method,
                [str(x) for x in cert.z.components],
                cert.sigma.picks,
            )).encode())
            if report.method not in ("hk", "vi"):
                iterations.update(repr((report.method, report.iterations)).encode())
    assert routes == {"avg-free", "lp", "hk", "transform", "vi"}
    assert answers.hexdigest() == "1c1c7ac20ccdef7837b2770c10a5dc9201b97471b0c48f88a16773f8d768fa1c"
    assert iterations.hexdigest() == "221740f19032a7c22172712d2c223654fccf209d10328839dca400206d7206a7"
