"""LP builders for one-player games and the exact simplex underneath."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

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
    build_lp_max_free,
    build_lp_min_free,
    enumerate_strategies,
    format_rational,
    random_game,
    reduce_game,
    simplex_optimize,
    solve,
    verify_ovv_certificate,
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


def _solve_square(rows, rhs):
    """The unique solution of a square system, or None if it is singular."""
    n = len(rows)
    a = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col] / a[col][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def _feasible(rows, x):
    if any(v < 0 for v in x):
        return False
    for coeffs, rel, rhs in rows:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if not {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[rel]:
            return False
    return True


def _basic_solutions(rows, nv):
    """Every feasible x >= 0 at which nv independent rows or bounds are tight."""
    planes = [(coeffs, rhs) for coeffs, _, rhs in rows]
    planes += [(tuple(Fraction(k == j) for k in range(nv)), Fraction(0)) for j in range(nv)]
    for subset in combinations(planes, nv):
        x = _solve_square([p[0] for p in subset], [p[1] for p in subset])
        if x is not None and _feasible(rows, x):
            yield x


def _brute_force_optimum(lp):
    """"infeasible", "unbounded" or the optimal objective, by enumeration.

    x >= 0 makes the region pointed, so it is empty exactly when it has
    no basic solution, and otherwise the optimum is attained at one
    unless some recession direction r improves the objective. Scaled to
    sum(r) = 1 those directions form a polytope, enumerated the same way.
    """
    nv = len(lp.variables)
    sign = 1 if lp.direction == "max" else -1
    rows = [(c.coeffs, c.relation, c.rhs) for c in lp.constraints]

    def gain(x):
        return sign * sum(c * v for c, v in zip(lp.objective, x))

    points = list(_basic_solutions(rows, nv))
    if not points:
        return "infeasible"
    rays = [(coeffs, rel, Fraction(0)) for coeffs, rel, _ in rows]
    rays.append(((Fraction(1),) * nv, "=", Fraction(1)))
    if any(gain(r) > 0 for r in _basic_solutions(rays, nv)):
        return "unbounded"
    return sign * max(gain(x) for x in points)


def _random_lp(rng):
    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 7)) if rng.random() < 0.75 else Fraction(0)

    nv = rng.randint(1, 4)
    rows = [
        Constraint(tuple(rational() for _ in range(nv)), rng.choice(("<=", ">=", "=")), rational())
        for _ in range(rng.randint(0, 5))
    ]
    if rows and rng.random() < 0.2:
        rows.append(rng.choice(rows))  # a duplicate equality leaves a dead row
    return LinearProgram(
        variables=tuple(f"x{i}" for i in range(1, nv + 1)),
        objective=tuple(rational() for _ in range(nv)),
        direction=rng.choice(("min", "max")),
        constraints=tuple(rows),
    )


def _check_against_enumeration(lp):
    expected = _brute_force_optimum(lp)
    if expected == "infeasible":
        with pytest.raises(InfeasibleError):
            simplex_optimize(lp)
    elif expected == "unbounded":
        with pytest.raises(UnboundedError):
            simplex_optimize(lp)
    else:
        res = simplex_optimize(lp)
        assert _feasible([(c.coeffs, c.relation, c.rhs) for c in lp.constraints], res.values)
        assert res.objective == expected == sum(c * v for c, v in zip(lp.objective, res.values))
        return "optimal"
    return expected


def test_simplex_matches_basic_solution_enumeration():
    rng = random.Random(9)
    outcomes = Counter(_check_against_enumeration(_random_lp(rng)) for _ in range(300))
    assert min(outcomes[k] for k in ("infeasible", "unbounded", "optimal")) >= 30, outcomes


@pytest.mark.parametrize(
    "rows, relations, rhs, objective, direction, expected",
    [
        # -x2 >= 0 leaves its artificial basic at 0 after phase 1, and
        # pivoting it out meets the negative entry -1
        ([[0, -1]], [">="], [0], [1, -1], "min", (0, 0)),
        # a duplicated equality and a 0 = 0 row are dropped as dead rows
        ([[1, 1], [1, 1], [0, 0]], ["=", "=", "="], [1, 1, 0], [1, 0], "min", (0, 1)),
        ([[1, 2], [Fraction(1, 2), 1]], ["=", "="], [3, Fraction(3, 2)], [1, 1], "max", (3, 0)),
    ],
)
def test_simplex_clean_up_branches(rows, relations, rhs, objective, direction, expected):
    lp = lp_of(rows, relations, rhs, objective, direction)
    assert simplex_optimize(lp).values == expected
    assert _check_against_enumeration(lp) == "optimal"


_PINNED_FIXTURES = {
    # fixture: (values, pivots) of the min-free and the max-free program
    "GAME-A": ("1/2 0 1", 3, "1/2 0 1", 3),
    "GAME-B": ("2/3 1/3 0 1", 4, "2/3 1/3 0 1", 4),
    "GAME-C": ("0 0 1", 2, "0 0 1", 3),
    "GAME-D": ("0 0 0 1", 3, "0 0 0 1", 4),
    "GAME-E": ("0 0 0 1", 5, "0 0 0 1", 4),
    "GAME-F": ("1 0 1", 4, "1 0 1", 3),
    "GAME-G": ("3/4 1/2 3/4 0 1", 6, "3/4 1/2 3/4 0 1", 5),
}

_PINNED_RANDOM = [
    # (n, weights, seed, values, pivots)
    (10, (1, 0, 1), 7, "0 0 1/8 0 1/2 0 1/4 0 0 1", 11),
    (14, (1, 0, 1), 0, "11/12 5/12 11/12 5/6 11/12 11/12 5/6 1 5/6 5/6 5/6 2/3 0 1", 25),
    (20, (1, 0, 1), 4, "7/8 1 1 1/2 3/4 1 7/16 1 1 1 1 1 15/32 15/16 15/32 1 1/2 1/2 0 1", 31),
    (10, (0, 1, 1), 6, "0 1/2 1/2 1/4 1/8 0 1/4 1/2 0 1", 11),
    (14, (0, 1, 1), 11, "0 0 0 0 1/7 1/2 4/7 0 0 1/7 0 2/7 0 1", 14),
    (20, (0, 1, 1), 3, "0 0 0 0 3/16 1/8 1/2 0 0 0 0 0 1/4 0 0 0 1/4 3/16 0 1", 20),
    (30, (1, 0, 1), 1, "1 1 1 1 1 1 1 3/4 1 1 1 1 1 7/8 1 1 1 1 1 1 3/4 1/2 1 3/4 1 1 1 1 0 1", 76),
    (
        40,
        (1, 0, 1),
        0,
        "41/42 169/180 20/21 1 41/42 1 1 1 20/21 268/315 607/630 83/84 1 1/2 1 1 1 583/630 1 20/21 "
        "20/21 13/21 1 1 583/630 1 31/42 1 17/21 19/21 1 1 1 1 1 1/2 169/180 1 0 1",
        214,
    ),
    (
        60,
        (1, 0, 1),
        2,
        "31/32 31/32 31/32 215/256 31/32 61/64 31/32 31/32 31/32 31/32 31/32 31/32 23/32 1 31/32 "
        "31/32 23/32 31/32 31/32 31/32 123/128 31/32 31/32 31/32 31/64 15/16 31/32 31/32 27/32 31/32 "
        "61/64 31/32 31/32 247/256 27/32 123/128 31/32 15/16 31/32 31/32 31/32 31/32 31/32 93/128 "
        "29/32 15/16 23/32 15/32 63/64 31/32 31/32 31/32 31/32 15/16 215/256 29/32 31/32 31/32 0 1",
        286,
    ),
    (
        30,
        (0, 1, 1),
        2,
        "1/5 1/5 0 1/5 0 3/5 0 0 1/5 2/5 2/5 3/10 2/5 1/5 0 0 1/10 0 1/20 1/5 2/5 1/5 1/5 1/5 0 1/5 "
        "1/20 3/10 0 1",
        35,
    ),
    (
        40,
        (0, 1, 1),
        0,
        "27069/42799 63137/171196 27750/42799 63137/171196 20338/42799 20338/42799 27069/42799 "
        "20338/42799 17294/42799 20338/42799 22028/42799 113087/171196 125303/171196 15940/42799 "
        "76715/85598 31880/42799 33916/42799 63137/85598 33916/42799 20961/42799 0 17294/42799 "
        "28366/42799 20338/42799 22830/42799 58949/85598 18648/42799 20338/42799 22830/42799 "
        "21584/42799 33177/42799 0 58949/85598 23555/42799 20961/42799 16958/42799 63137/171196 "
        "18648/42799 0 1",
        80,
    ),
    (
        60,
        (0, 1, 1),
        2,
        "2/55 0 0 1/110 0 0 1/55 0 0 4/55 1/220 0 1/110 7/440 1/220 9/440 1/110 1/110 1/55 7/110 "
        "1/110 7/88 0 0 7/440 1/110 7/220 1/55 9/440 0 0 7/110 2/55 1/44 9/1760 7/110 1/110 1/110 "
        "1/110 0 0 0 14/55 7/880 17/3520 153/7040 9/880 0 28/55 1/55 1/55 7/55 0 0 17/1760 "
        "41/3520 1/55 1/220 0 1",
        92,
    ),
]


def _values_and_pivots(lp):
    res = simplex_optimize(lp)
    return " ".join(format_rational(x) for x in res.values), res.pivots


def test_simplex_pivot_sequence_is_pinned():
    # Bland's rule and its tie-breaks fix the pivot sequence; a change to
    # the tableau arithmetic must not move it.
    for name, game in FIXTURES.items():
        report = solve(game)
        min_free = build_lp_min_free(reduce_game(game, tau=report.tau))
        max_free = build_lp_max_free(reduce_game(game, sigma=report.sigma))
        assert _values_and_pivots(min_free) + _values_and_pivots(max_free) == _PINNED_FIXTURES[name]
    for n, weights, seed, values, pivots in _PINNED_RANDOM:
        game = random_game(n, weights, seed=seed)
        build = build_lp_min_free if weights[1] == 0 else build_lp_max_free
        assert _values_and_pivots(build(game)) == (values, pivots)


def test_simplex_pivots_pinned_on_rows_of_different_scales():
    # The = and >= rows carry denominators 2, 3 and 5, so each starts at
    # its own integer scale, and the phase-1 cost row must weight them
    # back to the true sum: the plain sum of the scaled rows pivots 3
    # times here instead of 4.
    lp = lp_of(
        [[-1, 0, 1], [1, Fraction(-1, 3), 1], [Fraction(1, 5), Fraction(1, 5), -1]],
        ["=", ">=", ">="],
        [Fraction(3, 2), Fraction(1, 3), Fraction(1, 5)],
        [3, 2, 1],
        "min",
    )
    assert _values_and_pivots(lp) == ("5/2 37/2 4", 4)
    assert simplex_optimize(lp).objective == Fraction(97, 2)
    assert _check_against_enumeration(lp) == "optimal"


def test_lp_shape_validation():
    with pytest.raises(PreconditionError):
        lp_of([[1, 2]], ["<="], [1], [1], "sideways")
    with pytest.raises(PreconditionError):
        LinearProgram(("x", "x"), (Fraction(1), Fraction(1)), "max", ())
    with pytest.raises(PreconditionError):
        lp_of([[1]], ["<>"], [1], [1], "max")


# ------------------------------------------------------------- builders


def test_min_free_builder_solves_avg_chain():
    v = ValueVector(simplex_optimize(build_lp_min_free(GAME_A)).values)
    assert v == ValueVector([Fraction(1, 2), 0, 1])


def test_min_free_builder_on_max_game():
    v = ValueVector(simplex_optimize(build_lp_min_free(GAME_F)).values)
    assert v == ValueVector([1, 0, 1])


def test_min_free_builder_mixed_max_avg():
    v = ValueVector(simplex_optimize(build_lp_min_free(GAME_G)).values)
    assert v == ValueVector([Fraction(3, 4), Fraction(1, 2), Fraction(3, 4), 0, 1])


def test_min_free_rejects_unfixed_min():
    with pytest.raises(PreconditionError):
        build_lp_min_free(GAME_C)


def test_max_free_builder_pins_zero_set():
    v = ValueVector(simplex_optimize(build_lp_max_free(GAME_C)).values)
    assert v == ValueVector([0, 0, 1])


def test_max_free_rejects_unfixed_max():
    with pytest.raises(PreconditionError):
        build_lp_max_free(GAME_F)


def test_max_free_builder_pins_value_0_vertices_with_fixed_sigma():
    # either pick for the max vertex leaves vertices 1 and 2 worth 0:
    # pick 2 lets min cycle forever, pick 3 is the 0-sink itself. The
    # program holds v = 0 rows for them after the 0-sink's, and no
    # other row for either.
    for pick in (2, 3):
        rg = reduce_game(GAME_E, sigma=Strategy.of(VertexKind.MAX, {1: pick}))
        rows = [(c.coeffs, c.relation, c.rhs) for c in build_lp_max_free(rg).constraints]
        unit = [tuple(Fraction(k == i) for k in range(1, 5)) for i in range(1, 5)]
        assert rows == [(unit[2], "=", 0), (unit[3], "=", 1), (unit[0], "=", 0), (unit[1], "=", 0)]


def test_builders_accept_reduced_games():
    rg = reduce_game(GAME_G, sigma=Strategy.of(VertexKind.MAX, {1: 2}))
    v = ValueVector(simplex_optimize(build_lp_max_free(rg)).values)
    assert v == ValueVector([Fraction(1, 2), Fraction(1, 2), Fraction(3, 4), 0, 1])


def test_pass_through_equality_for_fixed_vertices():
    rg = reduce_game(GAME_G, sigma=Strategy.of(VertexKind.MAX, {1: 2}))
    lp = build_lp_max_free(rg)
    eq_rows = [c for c in lp.constraints if c.relation == "="]
    # vertex 1 must copy its picked child's value exactly: v1 - v2 = 0
    assert any(
        c.coeffs[0] == 1 and c.coeffs[1] == -1 and c.rhs == 0 for c in eq_rows
    )
    v = ValueVector(simplex_optimize(lp).values)
    assert v[1] == v[2] == Fraction(1, 2)


def test_lp_matches_chain_solve_on_one_player_pool():
    import ssg

    for seed in range(25):
        g = ssg.random_game(3 + seed % 6, weights=(1, 0, 2), seed=seed)
        lp_values = ValueVector(simplex_optimize(build_lp_min_free(g)).values)
        assert lp_values == ssg.brute_force_oracle(g).values


def test_builders_write_no_bound_rows():
    for lp in (build_lp_min_free(GAME_A), build_lp_max_free(GAME_C), build_lp_max_free(GAME_B)):
        singles = [c for c in lp.constraints if sum(x != 0 for x in c.coeffs) == 1]
        assert all(c.relation == "=" for c in singles)


def _pinned_grid_programs():
    """Every program the builders write for a seeded grid of inputs."""
    for game in FIXTURES.values():
        for tau in enumerate_strategies(game, VertexKind.MIN):
            yield build_lp_min_free(reduce_game(game, tau=tau))
        for sigma in enumerate_strategies(game, VertexKind.MAX):
            yield build_lp_max_free(reduce_game(game, sigma=sigma))
    for weights in ((1, 0, 1), (0, 1, 1), (1, 0, 0), (0, 1, 0)):
        build = build_lp_min_free if weights[1] == 0 else build_lp_max_free
        for n in range(3, 61):
            yield build(random_game(n, weights, seed=n))
    rng = random.Random(27)
    for n in range(3, 31):
        for weights in ((1, 1, 1), (1, 1, 3)):
            game = random_game(n, weights, seed=n)

            def fix(owner):
                owned = game.vertices_of_kind(owner)
                return Strategy.of(owner, {v: rng.choice(game.children_of(v)) for v in owned})

            yield build_lp_min_free(reduce_game(game, tau=fix(VertexKind.MIN)))
            yield build_lp_max_free(reduce_game(game, sigma=fix(VertexKind.MAX)))


def test_one_player_programs_are_pinned():
    # Same rows in the same order keep the simplex on the same pivots,
    # so a change to the builders must leave every program unchanged.
    digest = hashlib.sha256()
    for lp in _pinned_grid_programs():
        digest.update(repr(lp).encode())
    assert digest.hexdigest() == "cdad2f80dc87ce3faaee8cf40b1f37f3b5514f910ccd372484ada8518312acc8"


@pytest.mark.parametrize("weights", [(1, 0, 1), (0, 1, 1)])
def test_lp_agrees_with_the_transform_above_n8(weights):
    for n in range(10, 15):
        game = random_game(n, weights=weights, seed=n)
        report = solve(game, "lp", with_certificate=True)
        assert verify_ovv_certificate(game, report.certificate)
