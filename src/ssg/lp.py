"""One-player games as exact linear programs, and a rational simplex.

When only one player has choices left, optimal values are the optimum
of a small linear program (Condon 1992). With no min vertices: minimize
the sum of all values subject to each max vertex dominating both
children and each avg vertex dominating its children's mean. With no
max vertices the directions flip, plus one extra ingredient: vertices
from which min can keep the play away from the 1-sink forever are
pinned to 0 first, since otherwise cycling solutions would satisfy
every <= row while being too large. One row writer serves both
builders; it takes the choosing player, the relation and the pinned
vertices. Both builders also accept a reduced game whose missing player
is fixed by strategy; fixed vertices turn into pass-through equalities.
Neither writes bound rows: v >= 0 is the simplex's own nonnegativity,
and v <= 1 follows from the rows of the max-free program.

The simplex is an exact two-phase primal method with Bland's
anti-cycling rule over implicitly nonnegative variables. Its tableau
rows are sparse dicts of integers, each held as a positive integer
multiple of its true row, with a multiple of its own. A pivot touches
only the rows that hold the pivot column. Scaling a row by a positive
number moves no sign and no ratio within it, so Bland's entering column
and the ratio test choose exactly the pivots they would choose on the
true tableau. One pricing routine serves both phases: it sums a cost
row, a positive multiple as well, from the rows over the lcm of their
scales, with cost -1 on each artificial column in phase 1 and the
scaled objective in phase 2. The 0 = 0 rows that phase 1 leaves stay
in the tableau. Fractions appear only in the optimum it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Union

from .exceptions import (
    InfeasibleError,
    InternalCheckError,
    PreconditionError,
    UnboundedError,
)
from .games import Game, VertexKind
from .markov import ReducedGame, attractor

RELATIONS = ("<=", ">=", "=")

_MAX_PIVOTS = 100_000


class Constraint(NamedTuple):
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    """A rational LP over implicitly nonnegative variables."""

    variables: tuple[str, ...]
    objective: tuple[Fraction, ...]
    direction: str
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if self.direction not in ("min", "max"):
            raise PreconditionError(f"direction must be 'min' or 'max', got {self.direction!r}")
        if len(set(self.variables)) != len(self.variables):
            raise PreconditionError("variable names must be unique")
        if len(self.objective) != len(self.variables):
            raise PreconditionError("objective length does not match variable count")
        for k, con in enumerate(self.constraints):
            if len(con.coeffs) != len(self.variables):
                raise PreconditionError(f"constraint {k} width does not match variable count")
            if con.relation not in RELATIONS:
                raise PreconditionError(f"constraint {k} has unknown relation {con.relation!r}")


def _as_reduced(game: Union[Game, ReducedGame]) -> ReducedGame:
    return game if isinstance(game, ReducedGame) else ReducedGame(game)


_ZERO, _ONE = Fraction(0), Fraction(1)
# minus the weight of each of one or two successors
_MINUS_SHARE = {1: Fraction(-1), 2: Fraction(-1, 2)}


def _unit(n: int, i: int) -> tuple[Fraction, ...]:
    row = [_ZERO] * n
    row[i - 1] = _ONE
    return tuple(row)


def _edge_row(n: int, v: int, succ: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Coefficients of v(v) - average-or-copy of successors."""
    row = [_ZERO] * n
    row[v - 1] = _ONE
    w = _MINUS_SHARE[len(succ)]
    for j in succ:
        # successors are distinct, so only a self loop meets a nonzero cell
        row[j - 1] = row[j - 1] + w if j == v else w
    return tuple(row)


def _one_player_program(
    rg: ReducedGame, direction: str, chooser: VertexKind, relation: str, pinned: frozenset[int]
) -> LinearProgram:
    """The program that optimizes the value sum in direction over the rows below.

    Rows, in order: v = 0 at the 0-sink, v = 1 at the 1-sink and
    v = 0 at each pinned vertex in id order; then, for each other
    interior vertex, a pass-through equality when it has one successor,
    one relation row per child when chooser owns it, and one relation
    row for the mean of its children otherwise.
    """
    g = rg.game
    n = g.n
    cons = [Constraint(_unit(n, g.sink0), "=", _ZERO), Constraint(_unit(n, g.sink1), "=", _ONE)]
    cons += [Constraint(_unit(n, i), "=", _ZERO) for i in sorted(pinned)]
    for v in g.interior:
        if v in pinned:
            continue
        succ = rg.successors(v)
        if len(succ) == 1:
            cons.append(Constraint(_edge_row(n, v, succ), "=", _ZERO))
        elif g.kind(v) is chooser:
            cons += [Constraint(_edge_row(n, v, (j,)), relation, _ZERO) for j in succ]
        else:
            cons.append(Constraint(_edge_row(n, v, succ), relation, _ZERO))
    names = tuple(f"v{i}" for i in range(1, n + 1))
    return LinearProgram(names, (_ONE,) * n, direction, tuple(cons))


def build_lp_min_free(game: Union[Game, ReducedGame]) -> LinearProgram:
    """LP whose unique optimum is the value vector when min has no choices.

    Accepts a plain game without min vertices or a reduced game whose
    min side is fixed. Minimizing the value sum pushes every component
    down onto the max/avg dominance rows, and vertices trapped in
    cycles fall to 0 on their own. The simplex keeps every variable
    nonnegative, so the program has no v >= 0 rows.
    """
    rg = _as_reduced(game)
    if rg.game.has_kind(VertexKind.MIN) and rg.tau is None:
        raise PreconditionError("game has unfixed min vertices; fix tau or use the max-free builder")
    return _one_player_program(rg, "min", VertexKind.MAX, ">=", frozenset())


def build_lp_max_free(game: Union[Game, ReducedGame]) -> LinearProgram:
    """LP whose unique optimum is the value vector when max has no choices.

    Mirror image of the min-free program: maximize the value sum under
    the min/avg dominance rows. Cycling could inflate that optimum, so
    the vertices worth 0 are pinned first. They are the interior
    vertices outside the attractor of the 1-sink with min blocking: a
    vertex reaches the 1-sink with positive probability when it is an
    avg or fixed vertex with one such successor, or a free min vertex
    with both, and from every other vertex min keeps the play away from
    the 1-sink forever. No v <= 1 rows are needed: the vertices at a
    largest value above 1 would have all their successors among
    themselves, so none of them could reach the 1-sink, yet every
    unpinned vertex does.
    """
    rg = _as_reduced(game)
    g = rg.game
    if g.has_kind(VertexKind.MAX) and rg.sigma is None:
        raise PreconditionError("game has unfixed max vertices; fix sigma or use the min-free builder")
    succ = [rg.successors(v) for v in g.interior]
    pinned = frozenset(g.interior).difference(attractor(g, succ, (g.sink1,), (VertexKind.MIN,)))
    return _one_player_program(rg, "max", VertexKind.MIN, "<=", pinned)


class SimplexResult(NamedTuple):
    values: tuple[Fraction, ...]
    objective: Fraction
    pivots: int


def _rational(x) -> Union[int, Fraction]:
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def simplex_optimize(lp: LinearProgram) -> SimplexResult:
    """Exact two-phase primal simplex with Bland's rule.

    Raises InfeasibleError or UnboundedError as appropriate; otherwise
    returns an optimal vertex of the feasible region.

    Each tableau row is a sparse dict {column: int}, with the right-hand
    side under the key ncols, and holds some positive integer multiple
    of its true row; the multiple may differ from row to row, and it is
    always the row's entry in its basic column. A pivot on (r, j) with
    p = row_r[j] keeps row r and touches only the rows that hold column
    j: with f = row_i[j] and g = gcd(p, f), row_i becomes
    row_i·(p/g) − (f/g)·row_r, which is c_i·p/g times the new true row
    for row_i = c_i·(true row), and is then divided by the gcd of its
    entries. A negative pivot, only met when a leftover artificial is
    pivoted out after phase 1, negates row r first.

    Positive multiples keep every sign and every ratio b/a within a
    row. So Bland's entering column (the first negative reduced cost),
    the ratio test and its tie-break on the basis index pick the same
    pivots as on the true tableau. The cost rows are positive multiples
    too. run_phase prices a dict of integer costs, maximized: each row
    whose basic column has a cost is weighted by that cost times the
    lcm of those rows' basic entries over its own. Phase 1 prices cost
    -1 on each artificial column and phase 2 the objective, scaled to
    integers. A row left as 0 = 0 after phase 1, with no column below
    the artificial ones, stays: no phase 2 pivot can enter a column it
    holds, so none reads or changes it.
    """
    nv = len(lp.variables)

    # Normalize to Ax (rel) b with b >= 0, keeping only the nonzero
    # coefficients, then add slack/artificial columns.
    rows = []
    for con in lp.constraints:
        coeffs = [(k, _rational(x)) for k, x in enumerate(con.coeffs) if x]
        rel = con.relation
        rhs = _rational(con.rhs)
        if rhs < 0:
            coeffs = [(k, -x) for k, x in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((coeffs, rel, rhs))

    n_slack = sum(1 for _, rel, _ in rows if rel != "=")
    art_start = nv + n_slack
    ncols = art_start + sum(1 for _, rel, _ in rows if rel != "<=")

    tableau: list[dict[int, int]] = []
    basis: list[int] = []
    slack_at = nv
    art_at = art_start
    for coeffs, rel, rhs in rows:
        # the row's scale lands on its starting basic column
        scale = lcm(rhs.denominator, *(x.denominator for _, x in coeffs))
        row = {k: x.numerator * (scale // x.denominator) for k, x in coeffs}
        if rhs:
            row[ncols] = rhs.numerator * (scale // rhs.denominator)
        if rel != "=":
            row[slack_at] = scale if rel == "<=" else -scale
            slack_at += 1
        if rel == "<=":
            basis.append(slack_at - 1)
        else:
            row[art_at] = scale
            basis.append(art_at)
            art_at += 1
        tableau.append(row)
    m = len(tableau)
    pivots = 0

    def pivot(r: int, j: int) -> None:
        # Updates every row in the tableau, including a reduced-cost row
        # that run_phase appends below the m constraint rows.
        nonlocal pivots
        pivots += 1
        prow = tableau[r]
        p = prow[j]
        if p < 0:
            prow = tableau[r] = {k: -x for k, x in prow.items()}
            p = -p
        for i, row in enumerate(tableau):
            f = row.get(j)
            if f is None or i == r:
                continue
            # rows are never shared, so each is updated in place
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, y in prow.items():
                x = row.get(k, 0) - b * y
                if x:
                    row[k] = x
                else:
                    del row[k]
            g = gcd(*row.values())
            if g > 1:
                for k in row:
                    row[k] //= g
        basis[r] = j

    def run_phase(cost: dict[int, int], limit: int) -> None:
        # The reduced costs z_j - c_j of the maximized costs {column: c},
        # times a positive factor, go in a row below the m constraint
        # rows, which every pivot updates. Optimal when all of columns
        # 0..limit-1 are >= 0.
        priced = [i for i in range(m) if basis[i] in cost]
        scale = lcm(*(tableau[i][basis[i]] for i in priced))
        zrow = {k: -c * scale for k, c in cost.items()}
        terms = ((tableau[i], cost[basis[i]] * (scale // tableau[i][basis[i]])) for i in priced)
        tableau.append(_weighted_sum(terms, zrow))
        while True:
            if pivots > _MAX_PIVOTS:
                raise InternalCheckError("simplex exceeded its pivot budget")
            enter = min((j for j, z in tableau[-1].items() if z < 0 and j < limit), default=-1)
            if enter < 0:
                break
            # Least ratio b/a over rows with a > 0; b/a < bnum/bden
            # exactly when b·bden − bnum·a < 0.
            leave, bnum, bden = -1, 0, 1
            for i in range(m):
                row = tableau[i]
                a = row.get(enter, 0)
                if a > 0:
                    b = row.get(ncols, 0)
                    cross = b * bden - bnum * a
                    if leave < 0 or cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                        leave, bnum, bden = i, b, a
            if leave < 0:
                raise UnboundedError("objective is unbounded over the feasible region")
            pivot(leave, enter)
        tableau.pop()

    if art_start < ncols:
        # Phase 1: drive the artificial variables to zero, at cost -1
        # on each artificial column.
        run_phase(dict.fromkeys(range(art_start, ncols), -1), ncols)
        if any(ncols in tableau[i] for i in range(m) if basis[i] >= art_start):
            raise InfeasibleError("constraints admit no solution")
        # Pivot leftover artificials out of the basis; 0 = 0 rows stay.
        for i in range(m - 1, -1, -1):
            if basis[i] >= art_start:
                j = min((k for k in tableau[i] if k < art_start), default=-1)
                if j >= 0:
                    pivot(i, j)

    # Phase 2: the objective, scaled to integers by the lcm of its
    # denominators, and negated when it is minimized.
    obj = [_rational(x) for x in lp.objective]
    den = lcm(*(x.denominator for x in obj))
    sign = 1 if lp.direction == "max" else -1
    run_phase({k: sign * x.numerator * (den // x.denominator) for k, x in enumerate(obj) if x}, art_start)

    values = [Fraction(0)] * nv
    for row, bj in zip(tableau, basis):
        if bj < nv:
            values[bj] = Fraction(row.get(ncols, 0), row[bj])
    objective = sum((c * x for c, x in zip(lp.objective, values) if x), Fraction(0))
    return SimplexResult(values=tuple(values), objective=objective, pivots=pivots)


def _weighted_sum(terms, total: dict[int, int]) -> dict[int, int]:
    """total plus the sum of weight·row over (row, weight) terms, zeros dropped."""
    for row, weight in terms:
        for k, x in row.items():
            total[k] = total.get(k, 0) + weight * x
    return {k: x for k, x in total.items() if x}
