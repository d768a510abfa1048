"""Seeded size ladder of exact `ssg` solves.

    python3 tools/ladder.py --label NAME [--games 3] [--seed 0]

Run from anywhere; the package is imported from the checkout's `src/`.
For each n in SIZES it draws games from seven families, scanning
seed = --seed, --seed + 1, ... and keeping the first --games of each:
`random_game(n, (1, 1, 1), seed)` games that hold all three vertex
kinds and are non-stopping (auto `solve` takes the transform route);
the same drawn with require_stopping (hk route);
`random_game(n, (1, 1, 0), seed)` games that hold both players
(avg-free route); `random_game(n, (1, 0, 1), seed)` and
`random_game(n, (0, 1, 1), seed)` games that hold their one player and
avg vertices (lp route); and the chance-heavy
`random_game(n, (1, 1, 8), seed)` games, non-stopping (transform) and
drawn with require_stopping (hk). Each kept game is solved with
`solve(game, "auto")`, and each stopping mixed one also with
`solve(game, "vi")` (value iteration snapped back to exact values)
and with an `mc` row: `mc_estimate` of MC_PLAYS plays, seeded with the
game's seed, on the game reduced by the auto solve's strategies.
Every solve and rollout runs REPEATS times; each run's perf_counter time
is scaled by perfbench/calibration.py's speed factor, taken right
before it, and the row records the median, in seconds on the reference
machine of that calibration. The repeats must give equal output hashes.
Each `auto` row also records parse_seconds: the same calibrated median
for `parse_game` on the game's `serialize_game` text, the parse layer
of a solve that starts from a game file. Each `auto` and `vi` row
records evaluations: how many exact strategy-pair evaluations (calls
of the evaluator core `_value_pairs` through its binding in the solve
module) one more, untimed solve makes.
A scale tier follows: for each n in SCALE_SIZES, auto (hk) rows for
the first SCALE_GAMES stopping `random_game(n, (1, 1, 8), seed,
require_stopping=True)` draws, scanning seed upward from --seed, that
are nontrivial: at least half the interior lies strictly inside (0, 1)
by `zero_one_sets`, which finds exactly the vertices worth 0 or 1.
These rows have no vi or mc companion rows; the seeds skipped at each
size are recorded under "scale" as "skipped", and each skipped draw is
timed as a row of its own, marked "scale_skipped": true, since the
pre-pass decides most of such a game.
The run writes BENCH_<label>.json at the root of the checkout: one row
per solve with n, weights, seed, route, seconds, a hash of the output (values,
strategies, method, iterations and certificate z and sigma; for `mc` rows,
hits and truncated plays), a values_hash of the value vector alone
(for `mc` rows, that of the auto solve whose strategies the plays
follow) and nontrivial, the number of vertices whose value lies
strictly between 0 and 1 (0 when every vertex is worth 0 or 1, which
the qualitative pre-pass settles without exact arithmetic), plus the
core count. Two checkouts that produce the same hashes give
bit-identical answers on the ladder; the same values_hashes show
bit-identical value vectors even where strategies or routes differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import ssg  # noqa: E402
from perfbench import calibration  # noqa: E402

# the module; the package's `solve` attribute is the function
SOLVE = importlib.import_module("ssg.solve")

SIZES = (8, 16, 24, 32, 40, 60)
SCALE_SIZES = (300, 600, 1000)
SCALE_GAMES = 2
SCALE_WEIGHTS = (1, 1, 8)
MC_PLAYS = 4000
REPEATS = 3
KINDS = (ssg.VertexKind.MAX, ssg.VertexKind.MIN, ssg.VertexKind.AVG)
# (weights, stopping): stopping True draws with require_stopping
FAMILIES = (
    ((1, 1, 1), False),
    ((1, 1, 1), True),
    ((1, 1, 0), False),
    ((1, 0, 1), False),
    ((0, 1, 1), False),
    ((1, 1, 8), False),
    ((1, 1, 8), True),
)


def _values_repr(values) -> bytes:
    return repr([str(x) for x in values.components]).encode()


def values_hash(report) -> str:
    return hashlib.sha256(_values_repr(report.values)).hexdigest()[:16]


def output_hash(report) -> str:
    h = hashlib.sha256()
    h.update(_values_repr(report.values))
    h.update(repr((report.tau.picks, report.sigma.picks, report.method, report.iterations)).encode())
    cert = report.certificate
    if cert is not None:
        h.update(repr(([str(x) for x in cert.z.components], cert.sigma.picks)).encode())
    return h.hexdigest()[:16]


def mc_hash(est) -> str:
    return hashlib.sha256(repr((est.hits, est.truncated)).encode()).hexdigest()[:16]


def evaluations(game, method: str) -> int:
    """The evaluator-core calls of one solve(game, method), counted at
    the core's binding in the solve module, SOLVE._value_pairs."""
    inner = SOLVE._value_pairs
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return inner(*args)

    SOLVE._value_pairs = counted
    try:
        SOLVE.solve(game, method)
    finally:
        SOLVE._value_pairs = inner
    return count


def timed(fn, digest):
    """fn() and the median of its REPEATS calibrated run times; raises
    if the runs' digests differ."""
    results, times = [], []
    for _ in range(REPEATS):
        factor = calibration.speed_factor()
        t0 = perf_counter()
        results.append(fn())
        times.append((perf_counter() - t0) * factor)
    digests = {digest(r) for r in results}
    if len(digests) != 1:
        raise SystemExit(f"repeated runs disagree: {sorted(digests)}")
    return results[-1], statistics.median(times)


def draw(n: int, games: int, seed: int) -> list[tuple[int, tuple, bool, ssg.Game]]:
    """The first `games` games of each family at size n, scanning seeds
    upward from `seed`, as (seed, weights, stopping, game). A kept game
    holds every kind its weights allow. Large mixed games are rarely
    stopping, so stopping ones are drawn with require_stopping; mixed
    games drawn without it are kept only when non-stopping."""
    kept = []
    for weights, stopping in FAMILIES:
        mixed = all(weights)
        s, found = seed, 0
        while found < games:
            g = ssg.random_game(n, weights, seed=s, require_stopping=stopping)
            if all(g.has_kind(k) for k, w in zip(KINDS, weights) if w) and (
                not mixed or ssg.is_stopping(g) == stopping
            ):
                kept.append((s, weights, stopping, g))
                found += 1
            s += 1
    return kept


def draw_scale(n: int, games: int, seed: int) -> tuple[list[tuple[int, ssg.Game]], list[tuple[int, ssg.Game]]]:
    """The first `games` nontrivial stopping SCALE_WEIGHTS draws at size
    n, scanning seeds upward from `seed`, and the draws skipped on the
    way, both as [(seed, game)]: a kept game has at least half of its
    interior strictly inside (0, 1)."""
    kept, skipped = [], []
    s = seed
    while len(kept) < games:
        g = ssg.random_game(n, SCALE_WEIGHTS, seed=s, require_stopping=True)
        zeros, ones = ssg.zero_one_sets(g)
        if 2 * (n - len(zeros) - len(ones)) >= n - 2:
            kept.append((s, g))
        else:
            skipped.append((s, g))
        s += 1
    return kept, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    parser.add_argument("--games", type=int, default=3, help="games per size and route")
    parser.add_argument("--seed", type=int, default=0, help="first seed scanned at each size")
    args = parser.parse_args(argv)

    rows = []

    def record(n, seed, weights, stopping, route, seconds, iterations, digest, report):
        rows.append({
            "n": n,
            "weights": list(weights),
            "seed": seed,
            "stopping": stopping,
            "route": route,
            "seconds": round(seconds, 6),
            "iterations": iterations,
            "hash": digest,
            "values_hash": values_hash(report),
            "nontrivial": sum(0 < x < 1 for x in report.values.components),
        })
        print(f"n={n:3d} seed={seed:4d} {route:9s} {seconds:9.4f} s", flush=True)

    for n in SIZES:
        for seed, weights, stopping, game in draw(n, args.games, args.seed):
            text = ssg.serialize_game(game)
            _, parse_seconds = timed(lambda: ssg.parse_game(text), ssg.serialize_game)
            for method in ("auto", "vi") if stopping else ("auto",):
                report, seconds = timed(lambda: ssg.solve(game, method), output_hash)
                record(n, seed, weights, stopping, report.method, seconds, report.iterations,
                       output_hash(report), report)
                rows[-1]["evaluations"] = evaluations(game, method)
                if method == "auto":
                    rows[-1]["parse_seconds"] = round(parse_seconds, 7)
                if stopping and method == "auto":
                    rg = ssg.reduce_game(game, report.tau, report.sigma)
                    est, seconds = timed(
                        lambda: ssg.mc_estimate(rg, plays=MC_PLAYS, seed=seed), mc_hash
                    )
                    record(n, seed, weights, stopping, "mc", seconds, None, mc_hash(est), report)

    scale_skipped = {}
    for n in SCALE_SIZES:
        kept, skipped = draw_scale(n, SCALE_GAMES, args.seed)
        scale_skipped[n] = [seed for seed, _game in skipped]
        for seed, game in kept + skipped:
            report, seconds = timed(lambda: ssg.solve(game), output_hash)
            record(n, seed, SCALE_WEIGHTS, True, report.method, seconds, report.iterations,
                   output_hash(report), report)
            rows[-1]["evaluations"] = evaluations(game, "auto")
            if seed in scale_skipped[n]:
                rows[-1]["scale_skipped"] = True

    summary = {}
    for row in rows:
        summary.setdefault(f"{row['route']}/n={row['n']}", []).append(row["seconds"])
    doc = {
        "label": args.label,
        "families": [{"weights": list(w), "stopping": st} for w, st in FAMILIES],
        "sizes": list(SIZES),
        "scale": {"sizes": list(SCALE_SIZES), "games": SCALE_GAMES,
                  "weights": list(SCALE_WEIGHTS), "skipped": scale_skipped},
        "games_per_size_and_route": args.games,
        "first_seed": args.seed,
        "repeats": REPEATS,
        "calibrated": True,
        "environment": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "median_seconds": {k: statistics.median(v) for k, v in summary.items()},
        "games": rows,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
