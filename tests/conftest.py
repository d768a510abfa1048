"""Helpers shared by several test modules."""

from fractions import Fraction

import pytest

from ssg import sink_reachable_set


def _residual_holds(rg, values):
    """Exact check of v = Q v + b on a fully reduced game, read off the
    chain rather than any solver: a vertex that reaches a sink is worth
    the mean of its successors, the 1-sink 1 and every other vertex 0."""
    game = rg.game
    assert values.n == game.n
    live = sink_reachable_set(rg)
    for v in game.vertices:
        if v in live:
            succ = rg.successors(v)
            rhs = sum(values[j] for j in succ) / len(succ)
        else:
            rhs = Fraction(v == game.sink1)
        if values[v] != rhs:
            return False
    return True


@pytest.fixture
def residual_holds():
    return _residual_holds
