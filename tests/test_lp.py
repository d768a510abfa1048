"""LP builders for one-player games and the exact simplex underneath."""

from fractions import Fraction

import pytest

from ssg import (
    Constraint,
    InfeasibleError,
    LinearProgram,
    PreconditionError,
    Strategy,
    UnboundedError,
    ValueVector,
    VertexKind,
    build_game,
    build_lp_max_free,
    build_lp_min_free,
    dump_lp,
    random_game,
    reduce_game,
    simplex_optimize,
    simplex_solve,
    solve,
    verify_ovv_certificate,
    zero_value_set,
)
from ssg.fixtures import FIXTURES, GAME_A, GAME_B, GAME_C, GAME_E, GAME_F, GAME_G


def lp_of(coeff_rows, relations, rhs, objective, direction):
    cons = tuple(
        Constraint(tuple(Fraction(c) for c in row), rel, Fraction(r))
        for row, rel, r in zip(coeff_rows, relations, rhs)
    )
    return LinearProgram(
        variables=tuple(f"x{i}" for i in range(1, len(objective) + 1)),
        objective=tuple(Fraction(c) for c in objective),
        direction=direction,
        constraints=cons,
    )


# ------------------------------------------------------------- simplex


def test_simplex_small_max():
    # max x + y st x + 2y <= 4, 3x + y <= 6 -> (8/5, 6/5)
    lp = lp_of([[1, 2], [3, 1]], ["<=", "<="], [4, 6], [1, 1], "max")
    res = simplex_optimize(lp)
    assert res.values == (Fraction(8, 5), Fraction(6, 5))
    assert res.objective == Fraction(14, 5)
    assert res.pivots >= 1


def test_simplex_min_with_ge_rows():
    # min 2x + y st x + y >= 3, x >= 1 -> (1, 2)
    lp = lp_of([[1, 1], [1, 0]], [">=", ">="], [3, 1], [2, 1], "min")
    res = simplex_optimize(lp)
    assert res.values == (Fraction(1), Fraction(2))
    assert res.objective == Fraction(4)


def test_simplex_equality_rows():
    lp = lp_of([[1, 1], [1, -1]], ["=", "="], [2, 0], [1, 0], "min")
    assert simplex_optimize(lp).values == (Fraction(1), Fraction(1))


def test_simplex_detects_infeasible():
    lp = lp_of([[1], [1]], ["<=", ">="], [1, 2], [1], "max")
    with pytest.raises(InfeasibleError):
        simplex_optimize(lp)


def test_simplex_detects_unbounded():
    lp = lp_of([[-1]], ["<="], [1], [1], "max")
    with pytest.raises(UnboundedError):
        simplex_optimize(lp)


def test_simplex_negative_rhs_normalization():
    # -x <= -2 is x >= 2
    lp = lp_of([[-1]], ["<="], [-2], [1], "min")
    assert simplex_optimize(lp).values == (Fraction(2),)


def test_simplex_degenerate_cycling_guard():
    # classic degenerate corner; Bland's rule must still terminate
    lp = lp_of(
        [[Fraction(1, 4), -8, -1, 9], [Fraction(1, 2), -12, Fraction(-1, 2), 3], [0, 0, 1, 0]],
        ["<=", "<=", "<="],
        [0, 0, 1],
        [Fraction(3, 4), -20, Fraction(1, 2), -6],
        "max",
    )
    res = simplex_optimize(lp)
    assert res.objective == Fraction(5, 4)


def test_simplex_redundant_rows_do_not_change_optimum():
    base = lp_of([[1, 1]], ["<="], [2], [1, 1], "max")
    padded = lp_of([[1, 1], [1, 1], [2, 2]], ["<=", "<=", "<="], [2, 2, 4], [1, 1], "max")
    assert simplex_optimize(base).objective == simplex_optimize(padded).objective == 2


def test_lp_shape_validation():
    with pytest.raises(PreconditionError):
        lp_of([[1, 2]], ["<="], [1], [1], "sideways")
    with pytest.raises(PreconditionError):
        LinearProgram(("x", "x"), (Fraction(1), Fraction(1)), "max", ())
    with pytest.raises(PreconditionError):
        lp_of([[1]], ["<>"], [1], [1], "max")


# ------------------------------------------------------------- builders


def test_min_free_builder_solves_avg_chain():
    assert simplex_solve(build_lp_min_free(GAME_A)) == ValueVector([Fraction(1, 2), 0, 1])


def test_min_free_builder_on_max_game():
    assert simplex_solve(build_lp_min_free(GAME_F)) == ValueVector([1, 0, 1])


def test_min_free_builder_mixed_max_avg():
    v = simplex_solve(build_lp_min_free(GAME_G))
    assert v == ValueVector([Fraction(3, 4), Fraction(1, 2), Fraction(3, 4), 0, 1])


def test_min_free_rejects_unfixed_min():
    with pytest.raises(PreconditionError):
        build_lp_min_free(GAME_C)


def test_max_free_builder_pins_zero_set():
    v = simplex_solve(build_lp_max_free(GAME_C))
    assert v == ValueVector([0, 0, 1])


def test_max_free_rejects_unfixed_max():
    with pytest.raises(PreconditionError):
        build_lp_max_free(GAME_F)


def test_zero_value_set_examples():
    assert zero_value_set(GAME_C) == frozenset({1, 2})
    # min can cycle 1 <-> 2 forever
    g = build_game(4, 1, [(1, "min", 2, 4), (2, "min", 1, 4)])
    assert zero_value_set(g) == frozenset({1, 2, 3})
    # the min vertex bails straight to the 0-sink, but the avg vertex
    # still tosses a coin toward the 1-sink
    g = build_game(4, 1, [(1, "avg", 2, 4), (2, "min", 1, 3)])
    assert zero_value_set(g) == frozenset({2, 3})


def test_zero_value_set_with_fixed_sigma():
    # either pick for the max vertex lands it in the zero class: pick 2
    # lets min cycle forever, pick 3 is the 0-sink itself
    for pick in (2, 3):
        rg = reduce_game(GAME_E, sigma=Strategy.of(VertexKind.MAX, {1: pick}))
        assert zero_value_set(rg) == frozenset({1, 2, 3})


def test_builders_accept_reduced_games():
    rg = reduce_game(GAME_G, sigma=Strategy.of(VertexKind.MAX, {1: 2}))
    v = simplex_solve(build_lp_max_free(rg))
    assert v == ValueVector([Fraction(1, 2), Fraction(1, 2), Fraction(3, 4), 0, 1])


def test_pass_through_equality_for_fixed_vertices():
    rg = reduce_game(GAME_G, sigma=Strategy.of(VertexKind.MAX, {1: 2}))
    lp = build_lp_max_free(rg)
    eq_rows = [c for c in lp.constraints if c.relation == "="]
    # vertex 1 must copy its picked child's value exactly: v1 - v2 = 0
    assert any(
        c.coeffs[0] == 1 and c.coeffs[1] == -1 and c.rhs == 0 for c in eq_rows
    )
    v = simplex_solve(lp)
    assert v[1] == v[2] == Fraction(1, 2)


def test_dump_lp_readable():
    lp = lp_of([[1, -2]], ["<="], [3], [1, 0], "max")
    text = dump_lp(lp)
    assert text.splitlines() == ["max x1", "s.t.", "  x1 - 2 x2 <= 3"]


def test_lp_matches_chain_solve_on_one_player_pool():
    import ssg

    for seed in range(25):
        g = ssg.random_game(3 + seed % 6, weights=(1, 0, 2), seed=seed)
        lp_values = simplex_solve(build_lp_min_free(g))
        assert lp_values == ssg.brute_force_oracle(g).values


def test_builders_write_no_bound_rows():
    for lp in (build_lp_min_free(GAME_A), build_lp_max_free(GAME_C), build_lp_max_free(GAME_B)):
        singles = [c for c in lp.constraints if sum(x != 0 for x in c.coeffs) == 1]
        assert all(c.relation == "=" for c in singles), dump_lp(lp)


@pytest.mark.parametrize("weights", [(1, 0, 1), (0, 1, 1)])
def test_lp_agrees_with_the_transform_above_n8(weights):
    for n in range(10, 15):
        game = random_game(n, weights=weights, seed=n)
        report = solve(game, "lp", with_certificate=True)
        assert verify_ovv_certificate(game, report.certificate)
