"""The chain transform that makes any game stopping."""

from fractions import Fraction

import pytest

from ssg import (
    PreconditionError,
    ReducedGame,
    Strategy,
    ValueVector,
    VertexKind,
    build_game,
    build_stopping_game,
    enumerate_strategies,
    is_stopping,
    lift_strategy,
    random_game,
    reduce_game,
    solve_value_vector,
    transform_error_bound,
    validate_game,
    value_separation,
    verify_transform_bound,
)
from ssg.fixtures import FIXTURES, GAME_A, GAME_E
from ssg.stopping import DEFAULT_C, chain_weight


def test_size_formula():
    # n' = n + c*n*|E| with |E| = 2*(n-2)
    for name, g in FIXTURES.items():
        for c in (1, 4, 9):
            transformed, record = build_stopping_game(g, c)
            assert transformed.n == g.n + c * g.n * g.edge_count, name
            assert record.m == c * g.n
            assert len(record.edge_chains) == g.edge_count
            assert all(len(chain) == c * g.n for chain in record.edge_chains.values())


def test_transformed_game_is_valid_and_stopping():
    for seed in range(8):
        g = random_game(3 + seed % 4, seed=seed)
        transformed, _ = build_stopping_game(g, 2)
        validate_game(transformed)
        assert is_stopping(transformed)


def test_vertex_map_layout():
    transformed, record = build_stopping_game(GAME_A, 1)
    # interior ids survive, sinks move to the new tail
    assert record.mapped(1) == 1
    assert record.mapped(2) == transformed.n - 1
    assert record.mapped(3) == transformed.n
    with pytest.raises(PreconditionError):
        record.mapped(99)


def test_game_a_single_chain_value():
    # With c = 1 each edge grows a 3-vertex chain; the exact value of
    # the start vertex drops from 1/2 to 1/2 - 2**-(m+1) with m = 3.
    transformed, record = build_stopping_game(GAME_A, 1)
    assert transformed.n == 9
    v = solve_value_vector(reduce_game(transformed, None, None))
    assert v[record.mapped(1)] == Fraction(1, 2) - Fraction(1, 2**4)
    assert v[record.mapped(1)] == Fraction(7, 16)


def test_error_bound_magnitudes():
    assert transform_error_bound(3, 3) == 1
    assert transform_error_bound(3, 4) == Fraction(1, 8)
    assert transform_error_bound(2, 1) == 16
    assert transform_error_bound(4, 9) == Fraction(1, 2**24)
    # c = 0 would bound a companion build_stopping_game refuses, and n < 1 no game
    for n, c in ((5, 0), (0, 9), (-2, 9)):
        with pytest.raises(PreconditionError):
            transform_error_bound(n, c)


def test_default_multiplier_snaps_back_at_every_size():
    # the transform route relies on this: companion values lie within
    # half a separation of the original game's, so snap-back is exact
    for n in range(1, 301):
        assert transform_error_bound(n, DEFAULT_C) < value_separation(n) / 2
    # and 8, the next value down, is not sound at n = 1
    assert transform_error_bound(1, DEFAULT_C - 1) >= value_separation(1) / 2


def test_lift_strategy_targets_chain_heads():
    transformed, record = build_stopping_game(GAME_E, 2)
    sigma = Strategy.of(VertexKind.MAX, {1: 3})
    lifted = lift_strategy(record, sigma)
    head = record.edge_chains[(1, 3)][0]
    assert lifted.as_dict() == {1: head}
    assert head in transformed.children_of(1)


def test_lift_strategy_refuses_a_pick_off_the_game():
    _transformed, record = build_stopping_game(GAME_E, 2)
    with pytest.raises(PreconditionError, match="pick 1->4 is not an original-game edge"):
        lift_strategy(record, Strategy.of(VertexKind.MAX, {1: 4}))


def test_lifted_pair_value_within_bound():
    for name in ("GAME-E", "GAME-G"):
        g = FIXTURES[name]
        tau = Strategy.of(VertexKind.MIN, {v: g.children_of(v)[0] for v in g.vertices_of_kind(VertexKind.MIN)})
        sigma = Strategy.of(VertexKind.MAX, {v: g.children_of(v)[1] for v in g.vertices_of_kind(VertexKind.MAX)})
        for c in (4, 9):
            chk = verify_transform_bound(g, c, tau, sigma)
            assert chk.within_bound
            assert chk.dominated
            assert chk.max_gap <= transform_error_bound(g.n, c)


def test_verify_transform_bound_requires_full_reduction():
    with pytest.raises(PreconditionError):
        verify_transform_bound(GAME_E, 4, tau=Strategy.of(VertexKind.MIN, {2: 4}))


def test_self_loop_edges_survive_the_transform():
    # GAME-C's min vertex loops on itself; its chain must divert to the
    # 0-sink without ever violating the two-distinct-children rule.
    g = FIXTURES["GAME-C"]
    transformed, record = build_stopping_game(g, 1)
    validate_game(transformed)
    assert is_stopping(transformed)
    v = solve_value_vector(
        reduce_game(transformed, Strategy.of(VertexKind.MIN, {1: record.edge_chains[(1, 1)][0]}), None)
    )
    # the loop now leaks into the 0-sink, so the value stays 0
    assert v[record.mapped(1)] == 0


def test_transform_keeps_start_vertex():
    transformed, _ = build_stopping_game(GAME_E, 3)
    assert transformed.start == GAME_E.start


def test_chain_values_interpolate():
    # middle chain vertices sit between the endpoint values
    transformed, record = build_stopping_game(GAME_A, 1)
    v = solve_value_vector(reduce_game(transformed, None, None))
    for (_i, j), chain in record.edge_chains.items():
        dest = v[record.mapped(j)]
        for cv in chain:
            assert 0 <= v[cv] <= max(dest, Fraction(1, 2))


def test_rejects_bad_multiplier():
    with pytest.raises(PreconditionError):
        build_stopping_game(GAME_A, 0)
    rg = reduce_game(GAME_A, None, None)
    for lam in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(PreconditionError):
            solve_value_vector(rg, lam)


def test_contracted_values_match_the_built_companion():
    # every strategy pair, including self loops (GAME-C, GAME-E's cycle)
    # and edges into either sink: the n-vertex lam-game gives the
    # companion's values at the original vertices, and each chain head
    # is worth lam times its target
    games = [*FIXTURES.values(), build_game(4, 1, [(1, "max", 1, 2), (2, "avg", 2, 4)])]
    games += [random_game(3 + i % 4, seed=100 + i) for i in range(10)]
    for g in games:
        for c in (1, 2):
            transformed, record = build_stopping_game(g, c)
            lam = chain_weight(record.m)
            for tau in enumerate_strategies(g, VertexKind.MIN):
                for sigma in enumerate_strategies(g, VertexKind.MAX):
                    full = solve_value_vector(
                        reduce_game(transformed, lift_strategy(record, tau), lift_strategy(record, sigma))
                    )
                    heads = solve_value_vector(ReducedGame(g, tau, sigma), lam)
                    assert heads == ValueVector(full[record.mapped(i)] for i in g.vertices)
                    for (_i, j), chain in record.edge_chains.items():
                        assert full[chain[0]] == lam * heads[j]

