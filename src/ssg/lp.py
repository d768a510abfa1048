"""One-player games as exact linear programs, and a rational simplex.

When only one player has choices left, optimal values are the optimum
of a small linear program. With no min vertices: minimize the sum of
all values subject to each max vertex dominating both children and each
avg vertex dominating its children's mean. With no max vertices the
directions flip, plus one extra ingredient: vertices from which min can
keep the play away from the 1-sink forever are pinned to 0 first, since
otherwise cycling solutions would satisfy every <= row while being too
large. Both builders also accept a reduced game whose missing player is
fixed by strategy; fixed vertices turn into pass-through equalities.
Neither writes bound rows: v >= 0 is the simplex's own nonnegativity,
and v <= 1 follows from the rows of the max-free program.

The simplex is an exact two-phase primal method with Bland's
anti-cycling rule. Its tableau is integers over one common denominator,
updated by integer-preserving (Edmonds–Bareiss) pivots, and Fractions
appear only in the optimum it returns. Variables are implicitly
nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple, Union

from .exceptions import (
    InfeasibleError,
    InternalCheckError,
    PreconditionError,
    UnboundedError,
)
from .games import Game, ValueVector, VertexKind, format_rational
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


def _term_list(coeffs, names) -> str:
    parts = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        mag = abs(c)
        body = name if mag == 1 else f"{format_rational(mag)} {name}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def dump_lp(lp: LinearProgram) -> str:
    """Human-readable listing, one constraint per line."""
    out = [f"{lp.direction} {_term_list(lp.objective, lp.variables)}", "s.t."]
    for con in lp.constraints:
        out.append(f"  {_term_list(con.coeffs, lp.variables)} {con.relation} {format_rational(con.rhs)}")
    return "\n".join(out) + "\n"


def _as_reduced(game: Union[Game, ReducedGame]) -> ReducedGame:
    return game if isinstance(game, ReducedGame) else ReducedGame(game)


def _var_names(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(1, n + 1))


def _unit(n: int, i: int, value: Fraction = Fraction(1)) -> list[Fraction]:
    row = [Fraction(0)] * n
    row[i - 1] = value
    return row


def _edge_row(n: int, v: int, succ: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Coefficients of v(v) - average-or-copy of successors."""
    row = [Fraction(0)] * n
    row[v - 1] = Fraction(1)
    w = Fraction(1, len(succ))
    for j in succ:
        row[j - 1] -= w
    return tuple(row)


def build_lp_min_free(game: Union[Game, ReducedGame]) -> LinearProgram:
    """LP whose unique optimum is the value vector when min has no choices.

    Accepts a plain game without min vertices or a reduced game whose
    min side is fixed. Minimizing the value sum pushes every component
    down onto the max/avg dominance rows, and vertices trapped in
    cycles fall to 0 on their own. The simplex keeps every variable
    nonnegative, so the program has no v >= 0 rows.
    """
    rg = _as_reduced(game)
    g = rg.game
    if g.has_kind(VertexKind.MIN) and rg.tau is None:
        raise PreconditionError("game has unfixed min vertices; fix tau or use the max-free builder")
    n = g.n
    cons: list[Constraint] = [
        Constraint(tuple(_unit(n, g.sink0)), "=", Fraction(0)),
        Constraint(tuple(_unit(n, g.sink1)), "=", Fraction(1)),
    ]
    for v in g.interior:
        succ = rg.successors(v)
        if len(succ) == 1:
            cons.append(Constraint(_edge_row(n, v, succ), "=", Fraction(0)))
        elif g.kind(v) is VertexKind.MAX:
            for j in succ:
                cons.append(Constraint(_edge_row(n, v, (j,)), ">=", Fraction(0)))
        else:
            cons.append(Constraint(_edge_row(n, v, succ), ">=", Fraction(0)))
    return LinearProgram(
        variables=_var_names(n),
        objective=tuple(Fraction(1) for _ in range(n)),
        direction="min",
        constraints=tuple(cons),
    )


def zero_value_set(game: Union[Game, ReducedGame]) -> frozenset[int]:
    """Vertices whose value is exactly 0 when max has no choices.

    The complement of the attractor of the 1-sink with min blocking:
    the vertices that reach the 1-sink with positive probability are an
    avg or fixed vertex with one such successor, or a free min vertex
    with both. From everything outside, the min player can keep the play
    away from the 1-sink forever. Always contains the 0-sink.
    """
    rg = _as_reduced(game)
    g = rg.game
    if g.has_kind(VertexKind.MAX) and rg.sigma is None:
        raise PreconditionError("zero_value_set needs the max side absent or fixed")
    return frozenset(g.vertices).difference(attractor(rg, (g.sink1,), (VertexKind.MIN,)))


def build_lp_max_free(game: Union[Game, ReducedGame]) -> LinearProgram:
    """LP whose unique optimum is the value vector when max has no choices.

    Mirror image of the min-free program: maximize the value sum under
    the min/avg dominance rows, with the zero_value_set pinned to 0 so
    that cycling cannot inflate the optimum. No v <= 1 rows are needed:
    the vertices at a largest value above 1 would have all their
    successors among themselves, so none of them could reach the 1-sink,
    yet every vertex outside the zero set does.
    """
    rg = _as_reduced(game)
    g = rg.game
    if g.has_kind(VertexKind.MAX) and rg.sigma is None:
        raise PreconditionError("game has unfixed max vertices; fix sigma or use the min-free builder")
    n = g.n
    zero = zero_value_set(rg)
    cons: list[Constraint] = [
        Constraint(tuple(_unit(n, g.sink0)), "=", Fraction(0)),
        Constraint(tuple(_unit(n, g.sink1)), "=", Fraction(1)),
    ]
    for i in sorted(zero - {g.sink0}):
        cons.append(Constraint(tuple(_unit(n, i)), "=", Fraction(0)))
    for v in g.interior:
        if v in zero:
            continue
        succ = rg.successors(v)
        if len(succ) == 1:
            cons.append(Constraint(_edge_row(n, v, succ), "=", Fraction(0)))
        elif g.kind(v) is VertexKind.MIN:
            for j in succ:
                cons.append(Constraint(_edge_row(n, v, (j,)), "<=", Fraction(0)))
        else:
            cons.append(Constraint(_edge_row(n, v, succ), "<=", Fraction(0)))
    return LinearProgram(
        variables=_var_names(n),
        objective=tuple(Fraction(1) for _ in range(n)),
        direction="max",
        constraints=tuple(cons),
    )


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

    The tableau is held as integers T over one positive common
    denominator d, so the true tableau is T / d. A pivot on (r, j) with
    p = T[r][j] keeps row r, replaces every other row (the reduced-cost
    row included) by (T[i]·p − T[i][j]·T[r]) / d and sets d = p. By
    Sylvester's identity that division is exact as long as T is d times
    B⁻¹A for an integer matrix A whose basis columns B have determinant
    d (Edmonds 1967, Bareiss 1968). So each row is scaled to integers by
    the lcm of its own denominators, which puts that lcm on the row's
    starting basic column, and d starts as the product of those lcms;
    one global lcm would not be that determinant and would make the
    divisions inexact. Rows of the true tableau are never rescaled: the
    phase-1 cost row is the sum of the artificial rows, so a rescaled
    row would change which column Bland's rule picks. A negative pivot,
    only met when a leftover artificial is pivoted out after phase 1,
    negates row r first, which keeps d positive.
    """
    nv = len(lp.variables)
    maximize = lp.direction == "max"
    obj = [_rational(x) if maximize else -_rational(x) for x in lp.objective]

    # Normalize to Ax (rel) b with b >= 0, then add slack/artificial columns.
    rows = []
    for con in lp.constraints:
        coeffs = [_rational(x) for x in con.coeffs]
        rel = con.relation
        rhs = _rational(con.rhs)
        if rhs < 0:
            coeffs = [-x for x in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((coeffs, rel, rhs))

    n_slack = sum(1 for _, rel, _ in rows if rel != "=")
    n_art = sum(1 for _, rel, _ in rows if rel != "<=")
    ncols = nv + n_slack + n_art
    art_start = nv + n_slack

    tableau: list[list[int]] = []
    scales: list[int] = []
    basis: list[int] = []
    slack_at = nv
    art_at = art_start
    artificial_rows = []
    for coeffs, rel, rhs in rows:
        scale = lcm(rhs.denominator, *(x.denominator for x in coeffs))
        row = [x.numerator * (scale // x.denominator) for x in coeffs]
        row += [0] * (ncols - nv) + [rhs.numerator * (scale // rhs.denominator)]
        if rel == "<=":
            row[slack_at] = scale
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            row[slack_at] = -scale
            slack_at += 1
            row[art_at] = scale
            basis.append(art_at)
            artificial_rows.append(len(tableau))
            art_at += 1
        else:
            row[art_at] = scale
            basis.append(art_at)
            artificial_rows.append(len(tableau))
            art_at += 1
        tableau.append(row)
        scales.append(scale)

    d = prod(scales)
    tableau = [[x * (d // scale) for x in row] for row, scale in zip(tableau, scales)]
    m = len(tableau)
    pivots = 0

    def pivot(r: int, j: int) -> None:
        # Updates every row in the tableau, including a reduced-cost row
        # that run_phase appends below the m constraint rows.
        nonlocal d, pivots
        pivots += 1
        prow = tableau[r]
        p = prow[j]
        if p < 0:
            prow = tableau[r] = [-x for x in prow]
            p = -p
        for i, row in enumerate(tableau):
            if i == r:
                continue
            f = row[j]
            if f:
                tableau[i] = [(x * p - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                tableau[i] = [x * p // d for x in row]
        basis[r] = j
        d = p

    def run_phase(zrow: list[int], allowed: range) -> None:
        # zrow holds the reduced costs z_j - c_j times a positive factor;
        # optimal when all >= 0.
        tableau.append(zrow)
        while True:
            if pivots > _MAX_PIVOTS:
                raise InternalCheckError("simplex exceeded its pivot budget")
            zrow = tableau[-1]
            enter = next((j for j in allowed if zrow[j] < 0), -1)
            if enter < 0:
                break
            # Least ratio b/a over rows with a > 0; b/a < bnum/bden
            # exactly when b·bden − bnum·a < 0.
            leave, bnum, bden = -1, 0, 1
            for i in range(m):
                row = tableau[i]
                a = row[enter]
                if a > 0:
                    cross = row[-1] * bden - bnum * a
                    if leave < 0 or cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                        leave, bnum, bden = i, row[-1], a
            if leave < 0:
                raise UnboundedError("objective is unbounded over the feasible region")
            pivot(leave, enter)
        tableau.pop()

    if n_art:
        # Phase 1: drive the artificial variables to zero.
        zrow = [0] * art_start + [d] * n_art + [0]
        # Canonicalize against the starting basis (artificials are basic).
        for r in artificial_rows:
            zrow = [z - x for z, x in zip(zrow, tableau[r])]
        run_phase(zrow, range(0, ncols))
        if any(tableau[i][-1] for i in range(m) if basis[i] >= art_start):
            raise InfeasibleError("constraints admit no solution")
        # Pivot leftover artificials out of the basis, or drop dead rows.
        for i in range(m - 1, -1, -1):
            if basis[i] < art_start:
                continue
            j = next((k for k in range(art_start) if tableau[i][k] != 0), -1)
            if j >= 0:
                pivot(i, j)
            else:
                del tableau[i]
                del basis[i]
                m -= 1

    # Phase 2 costs, scaled to integers by the lcm of their denominators.
    den = lcm(*(x.denominator for x in obj))
    cost = [x.numerator * (den // x.denominator) for x in obj]
    zrow = [-c * d for c in cost] + [0] * (ncols + 1 - nv)
    for i in range(m):
        bj = basis[i]
        cb = cost[bj] if bj < nv else 0
        if cb != 0:
            zrow = [z + cb * x for z, x in zip(zrow, tableau[i])]
    run_phase(zrow, range(0, art_start))

    values = [Fraction(0)] * nv
    for i in range(m):
        if basis[i] < nv:
            values[basis[i]] = Fraction(tableau[i][-1], d)
    objective = sum((c * x for c, x in zip(lp.objective, values)), Fraction(0))
    return SimplexResult(values=tuple(values), objective=objective, pivots=pivots)


def simplex_solve(lp: LinearProgram) -> ValueVector:
    """Solve and wrap the optimum as a value vector.

    Meant for the game programs built above, whose optima always lie in
    [0, 1]; use simplex_optimize for arbitrary programs.
    """
    return ValueVector(simplex_optimize(lp).values)
