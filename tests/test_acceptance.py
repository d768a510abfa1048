"""Acceptance gate.

Each test here checks one headline guarantee of the package over seeded
random pools and prints a single PASS/FAIL line for it. Everything is
exact rational arithmetic; there are no tolerances to tune.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

import ssg
from ssg import (
    Certificate,
    Strategy,
    ValueVector,
    VertexKind,
    avg_free_run,
    brute_force_oracle,
    decide_value,
    enumerate_strategies,
    hoffman_karp,
    is_stopping,
    random_game,
    reduce_game,
    solve,
    solve_value_vector,
    value_separation,
    verify_ovv_certificate,
    verify_transform_bound,
    verify_value_certificate,
    vi_iterates,
)
from conftest import in_value_set, sink_reachable_set
from ssg.fixtures import FIXTURES

POOL_SIZE = 500


@pytest.fixture(scope="module")
def pool():
    """Seeded mixed-kind games with verified solves and oracle answers,
    shared by the criteria below."""
    entries = []
    for seed in range(POOL_SIZE):
        n = 3 + seed % 6
        game = random_game(n, weights=(1, 1, 1), seed=seed)
        entries.append((seed, game, solve(game), brute_force_oracle(game)))
    return entries


@pytest.fixture(scope="module")
def reduced_pool():
    """Fully reduced games (both strategies fixed at random) with their
    exact chain solutions."""
    entries = []
    for i in range(200):
        n = 3 + i % 8
        game = random_game(n, weights=(1, 1, 1), seed=1000 + i)
        rng = random.Random(9000 + i)
        picks = {
            kind: {
                v: rng.choice(game.children_of(v))
                for v in game.vertices_of_kind(kind)
            }
            for kind in (VertexKind.MIN, VertexKind.MAX)
        }
        rg = reduce_game(
            game,
            tau=Strategy.of(VertexKind.MIN, picks[VertexKind.MIN]),
            sigma=Strategy.of(VertexKind.MAX, picks[VertexKind.MAX]),
        )
        entries.append((rg, solve_value_vector(rg)))
    return entries


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _run(num, title):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\ncriterion {num}: FAIL  {title}")
            raise
        with capsys.disabled():
            print(f"\ncriterion {num}: PASS  {title}")

    return _run


def test_criterion_1_oracle_equivalence(pool, announce):
    with announce(1, "solve(auto) equals the brute-force oracle on 500 random games"):
        for seed, game, report, oracle in pool:
            assert report.values == oracle.values, f"pool seed {seed}"


def test_criterion_2_value_set_membership(reduced_pool, announce):
    with announce(2, "every chain value is a rational p/q with q <= 4**t"):
        for rg, values in reduced_pool:
            t = len(sink_reachable_set(rg))
            for _, x in values.items():
                assert in_value_set(x, t)


def test_criterion_3_linear_system_residual(reduced_pool, announce, residual_holds):
    with announce(3, "v = Qv + b holds exactly on every reduced solve"):
        for rg, values in reduced_pool:
            assert residual_holds(rg, values)


def test_criterion_4_transform_bound(announce):
    games = list(FIXTURES.values())
    for i in range(50):
        games.append(random_game(3 + i % 3, weights=(1, 1, 1), seed=2000 + i))
    with announce(4, "the stopping transform moves no strategy pair by more than its bound"):
        for game in games:
            taus = enumerate_strategies(game, VertexKind.MIN)
            sigmas = enumerate_strategies(game, VertexKind.MAX)
            for c in (4, 9):
                for tau in taus:
                    for sigma in sigmas:
                        check = verify_transform_bound(game, c, tau=tau, sigma=sigma)
                        assert check.within_bound
                        assert check.dominated


def test_criterion_5_one_player_games(announce):
    with announce(5, "one-player LPs and the no-chance attractor match the oracle"):
        for i in range(200):
            n = 3 + i % 6

            g = random_game(n, weights=(1, 0, 1), seed=3000 + i)
            assert solve(g, method="lp").values == brute_force_oracle(g).values

            g = random_game(n, weights=(0, 1, 1), seed=4000 + i)
            assert solve(g, method="lp").values == brute_force_oracle(g).values

            g = random_game(n, weights=(1, 1, 0), seed=5000 + i)
            values, passes = avg_free_run(g)
            assert values == brute_force_oracle(g).values
            assert passes <= n - 2


def test_criterion_6_strategy_improvement(pool, announce):
    with announce(6, "strategy improvement obeys its round bound and lands on the oracle"):
        ran = 0
        for seed, game, _report, oracle in pool:
            if not is_stopping(game):
                continue
            ran += 1
            hk = hoffman_karp(game)
            assert hk.iterations <= 2 ** len(game.vertices_of_kind(VertexKind.MAX))
            assert hk.values == oracle.values, f"pool seed {seed}"
            for v in game.vertices_of_kind(VertexKind.MAX):
                a, b = game.children_of(v)
                assert hk.values[hk.sigma.pick(v)] == max(hk.values[a], hk.values[b])
            for v in game.vertices_of_kind(VertexKind.MIN):
                a, b = game.children_of(v)
                assert hk.values[hk.tau.pick(v)] == min(hk.values[a], hk.values[b])
        assert ran >= 100


def _min_reply(game, sigma):
    """min's best reply to sigma by brute force: the componentwise least
    value vector over every min strategy."""
    replies = [
        solve_value_vector(reduce_game(game, tau, sigma))
        for tau in enumerate_strategies(game, VertexKind.MIN)
    ]
    return ValueVector(min(r[v] for r in replies) for v in game.vertices)


def test_criterion_7_certificates(announce):
    with announce(7, "certificates accept the truth, reject every unit perturbation of z "
                     "and accept a flipped sigma exactly when it is optimal"):
        flips = {True: 0, False: 0}
        for i in range(50):
            n = 3 + i % 4
            game = random_game(n, weights=(1, 1, 1), seed=6000 + i)
            report = solve(game, with_certificate=True)
            cert = report.certificate
            assert verify_ovv_certificate(game, cert)

            delta = value_separation(game.n)
            maxes = game.vertices_of_kind(VertexKind.MAX)
            rng = random.Random(7000 + i)
            for _ in range(64):
                if maxes and rng.randrange(2) == 0:
                    v = rng.choice(maxes)
                    a, b = game.children_of(v)
                    picks = {**cert.sigma.as_dict(), v: b if cert.sigma.pick(v) == a else a}
                    flipped = Strategy.of(VertexKind.MAX, picks)
                    optimal = _min_reply(game, flipped) == cert.z
                    flips[optimal] += 1
                    bad = Certificate(z=cert.z, sigma=flipped)
                    assert verify_ovv_certificate(game, bad) == optimal
                    continue
                idx = rng.randrange(n)
                x = cert.z.components[idx]
                shift = delta if x + delta <= 1 else -delta
                bumped = list(cert.z.components)
                bumped[idx] = x + shift
                bad = Certificate(z=ValueVector(bumped), sigma=cert.sigma)
                assert not verify_ovv_certificate(game, bad)

            w = report.values[game.start]
            floor = Fraction(int(w * 4**n), 4**n)
            alphas = {
                Fraction(0),
                Fraction(1),
                w,
                floor,
                min(floor + Fraction(1, 4**n), Fraction(1)),
            }
            for alpha in alphas:
                expected = decide_value(game, alpha)
                assert verify_value_certificate(game, cert, alpha) == expected
                assert verify_value_certificate(
                    game, cert, alpha, complement=True
                ) == (not expected)
        assert flips[True] and flips[False]


def test_criterion_8_strategy_path_agrees(pool, announce):
    with announce(8, "greedy strategies reduce to a chain worth exactly the solved values"):
        for seed, game, report, _oracle in pool:
            chain = solve_value_vector(reduce_game(game, report.tau, report.sigma))
            assert chain == report.values, f"pool seed {seed}"


def test_criterion_9_value_iteration(pool, announce):
    with announce(9, "grid iteration rises monotonically into a quarter separation"):
        checked = 0
        for seed, game, report, _oracle in pool:
            if not is_stopping(game):
                continue
            checked += 1
            prev = None
            prev_res = None
            last = None
            for cur in vi_iterates(game):
                if prev is not None:
                    assert prev.leq(cur)
                    res = max(b - a for a, b in zip(prev.components, cur.components))
                    if prev_res is not None:
                        assert res <= prev_res
                    prev_res = res
                prev = last = cur
            assert last.gap(report.values) <= value_separation(game.n) / 4
        assert checked >= 100
