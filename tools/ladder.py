"""Seeded size ladder of exact `ssg` solves.

    python3 tools/ladder.py --label NAME [--games 3] [--seed 0]

Run from anywhere; the package is imported from the checkout's `src/`.
For each n in SIZES it draws `random_game(n, (1, 1, 1), seed)` for
seed = --seed, --seed + 1, ... and keeps the first --games games that
hold all three vertex kinds and are non-stopping (auto `solve` takes the
transform route); with require_stopping, the first --games stopping
ones (hk route).
Each kept game is solved once with `solve(game, "auto")`, and each
stopping one also with `solve(game, "vi")` (value iteration snapped
back to exact values); every solve is timed with perf_counter. The run
writes BENCH_<label>.json at the root of the checkout: one row per
solve with n, seed, route, seconds and a hash of the output (values,
strategies, method, iterations and certificate z, s, c), plus the core
count. Two checkouts that produce the same hashes give bit-identical
answers on the ladder.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import ssg  # noqa: E402

SIZES = (8, 16, 24, 32, 40, 60)
KINDS = (ssg.VertexKind.MAX, ssg.VertexKind.MIN, ssg.VertexKind.AVG)


def output_hash(report) -> str:
    h = hashlib.sha256()
    h.update(repr([str(x) for x in report.values.components]).encode())
    h.update(repr((report.tau.picks, report.sigma.picks, report.method, report.iterations)).encode())
    cert = report.certificate
    if cert is not None:
        h.update(repr(([str(x) for x in cert.z.components], [str(x) for x in cert.s.components], cert.c)).encode())
    return h.hexdigest()[:16]


def draw(n: int, games: int, seed: int) -> list[tuple[int, bool, ssg.Game]]:
    """The first `games` non-stopping and `games` stopping mixed games
    at size n, scanning seeds upward from `seed`. Large mixed games are
    rarely stopping, so stopping ones are drawn with require_stopping."""
    kept = []
    for stopping in (False, True):
        s = seed
        while sum(k[1] == stopping for k in kept) < games:
            g = ssg.random_game(n, (1, 1, 1), seed=s, require_stopping=stopping)
            if ssg.is_stopping(g) == stopping and all(g.has_kind(k) for k in KINDS):
                kept.append((s, stopping, g))
            s += 1
    return kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    parser.add_argument("--games", type=int, default=3, help="games per size and route")
    parser.add_argument("--seed", type=int, default=0, help="first seed scanned at each size")
    args = parser.parse_args(argv)

    rows = []
    for n in SIZES:
        for seed, stopping, game in draw(n, args.games, args.seed):
            for method in ("auto", "vi") if stopping else ("auto",):
                t0 = perf_counter()
                report = ssg.solve(game, method)
                seconds = perf_counter() - t0
                rows.append({
                    "n": n,
                    "seed": seed,
                    "stopping": stopping,
                    "route": report.method,
                    "seconds": round(seconds, 6),
                    "iterations": report.iterations,
                    "hash": output_hash(report),
                })
                print(f"n={n:3d} seed={seed:4d} {report.method:9s} {seconds:9.4f} s", flush=True)

    summary = {}
    for row in rows:
        summary.setdefault(f"{row['route']}/n={row['n']}", []).append(row["seconds"])
    doc = {
        "label": args.label,
        "weights": [1, 1, 1],
        "sizes": list(SIZES),
        "games_per_size_and_route": args.games,
        "first_seed": args.seed,
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
