"""Helpers shared by several test modules."""

from fractions import Fraction

import pytest

from ssg import PreconditionError, attractor


def successor_lists(rg):
    """rg's successors of each interior vertex, in the layout of
    game.children, as attractor takes them."""
    return [rg.successors(v) for v in rg.game.interior]


def sink_reachable_set(rg):
    """Non-sink vertices of a fully reduced game with a directed path to
    either sink: the attractor of the sinks with no vertex blocking."""
    if not rg.fully_reduced:
        raise PreconditionError("sink_reachable_set needs both players' strategies fixed")
    sinks = (rg.game.sink0, rg.game.sink1)
    return frozenset(attractor(rg.game, successor_lists(rg), sinks, ())).difference(sinks)


def in_value_set(x, t):
    """Whether x can occur as a vertex value of a reduced game whose
    sink-reaching set has t vertices: a rational p/q in lowest terms
    with 0 <= p <= q <= 4**t."""
    if t < 0:
        raise PreconditionError(f"t must be nonnegative, got {t}")
    x = Fraction(x)
    return 0 <= x <= 1 and x.denominator <= 4**t


def _residual_holds(rg, values, lam=1):
    """Exact check of v = lam (Q v + b) on a fully reduced game, read
    off the chain rather than any solver. A non-sink vertex is worth lam
    times the mean of its successors; at lam = 1 only one that reaches
    a sink is, and every other one is worth 0. The 1-sink is worth 1
    and the 0-sink 0."""
    game = rg.game
    assert values.n == game.n
    live = sink_reachable_set(rg) if lam == 1 else game.interior
    for v in game.vertices:
        if v in live:
            succ = rg.successors(v)
            rhs = lam * sum(values[j] for j in succ) / len(succ)
        else:
            rhs = Fraction(v == game.sink1)
        if values[v] != rhs:
            return False
    return True


@pytest.fixture
def residual_holds():
    return _residual_holds
