"""Check the exact evaluator, the strategy-improvement loop, every solve
route, the certificate verifier, the value-0 and value-1 pre-pass and
the attractor on every game on 5 vertices.

    python3 tools/exhaustive_eval.py

Run from anywhere; the package is imported from the checkout's `src/`.
For each of the 27,000 games of `every_game(5)` in tests/test_markov.py
it runs `check_every_pair` from the same file: every strategy pair is
evaluated with `solve_value_vector` at lam = 1 and at the transform's
chain factor, and each value vector must satisfy v = lam (Q v + b) on
the chain and read 0 at exactly the vertices with no path to the
1-sink. For each of those games that is stopping it then runs
`check_every_start` from tests/test_solvers.py: the loop of
`hoffman_karp` must reach the oracle's values from every start pair.
Then it runs `check_routes_and_certificates` from tests/test_solvers.py
on every game: each solve method that accepts the game (`auto` and `hk`
every game, `vi` a stopping one, `lp` one with a player absent,
`avg-free` one without avg vertices) must return the oracle's values
with strategies worth exactly them, `hk` must return auto's report on
every game with all three kinds, and
`verify_ovv_certificate` must accept each candidate (z, sigma) exactly
when z is the value and sigma is optimal.
Then it runs `check_zero_one_sets` from tests/test_markov.py on every
game: the qualitative pre-pass `zero_one_sets` must return exactly the
oracle's vertices worth 0 and worth 1; the line counts the games whose
every vertex it settles.
Last it runs `check_attractor` from tests/test_markov.py on every game:
`attractor` must return the same {vertex: layer} dict as a naive
fixpoint, on the game unreduced and with both players fixed to their
first strategy, for every blocking set and for the 1-sink, both sinks
and each single vertex as target.
Tier-1 runs the same checks on every game on 4 vertices and on seeded
samples of the 5-vertex games. Prints one line per check with the game
and check counts and the wall time; a failing check raises an
AssertionError naming the game and the strategies, or the attractor's
successor lists, target and blocking set.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import _residual_holds  # noqa: E402
from ssg import is_stopping  # noqa: E402
from test_markov import check_attractor, check_every_pair, check_zero_one_sets, every_game  # noqa: E402
from test_solvers import check_every_start, check_routes_and_certificates  # noqa: E402


def main() -> None:
    start = perf_counter()
    games = evaluations = 0
    stopping = []
    for game in every_game(5):
        games += 1
        evaluations += check_every_pair(game, _residual_holds)
        if is_stopping(game):
            stopping.append(game)
    print(f"{games} games on 5 vertices, {evaluations} evaluations checked, "
          f"{perf_counter() - start:.1f} s")
    start = perf_counter()
    starts = sum(check_every_start(game) for game in stopping)
    print(f"{len(stopping)} stopping games on 5 vertices, {starts} start pairs "
          f"checked against the oracle, {perf_counter() - start:.1f} s")
    start = perf_counter()
    solves, verdicts = map(sum, zip(*map(check_routes_and_certificates, every_game(5))))
    print(f"{games} games on 5 vertices, {solves} route solves and {verdicts} certificate "
          f"verdicts checked against the oracle, {perf_counter() - start:.1f} s")
    start = perf_counter()
    settled = sum(map(check_zero_one_sets, every_game(5)))
    print(f"{games} games on 5 vertices, value-0 and value-1 sets checked against the oracle, "
          f"{settled} games fully settled, {perf_counter() - start:.1f} s")
    start = perf_counter()
    attractors = sum(map(check_attractor, every_game(5)))
    print(f"{games} games on 5 vertices, {attractors} attractors checked against the naive "
          f"fixpoint, {perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
