"""Workload definitions: seeded inputs, reference answers, one timed
operation, and the correctness gate.

An input pool is a list of entries; one entry is one timed operation
and holds one or more games as serialized text. Pools are drawn with
`ssg.random_game` from sub-seeds of the workload seed, so the same seed
always gives the same pool. Every game carries a reference value vector
computed by a different route than the one being timed.

The sizes are smaller than the ones a user might solve: a run of
bounded length must hold enough distinct games for its median to be
steady from seed to seed, and the references (brute force, value
iteration) are computed inside the run whenever a seed is new.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from time import perf_counter

import numpy as np

# An MC estimate fails the gate when it is further than this many
# standard errors (plus one play) from the exact value.
MC_SIGMAS = 5


@dataclass(frozen=True)
class Family:
    """One kind of game in a workload: how it is drawn and checked."""

    n: int
    weights: tuple[int, int, int]
    stopping: bool | None  # keep only stopping (True) or non-stopping (False) games
    route: str  # the method `solve` must report
    reference: str  # "oracle", "vi" or "hk"


@dataclass(frozen=True)
class Spec:
    name: str
    families: tuple[Family, ...]  # one game of each family per operation
    entries: int  # operations per pass over the pool
    method: str  # the method passed to solve
    extra: str  # "", "certify" or "mc"
    mc_plays: int = 0


# Sizes tuned on a 2-core x86-64 virtual machine so that a pool is built
# in about ten seconds or less, one pass takes about --seconds or less,
# and a run holds a few hundred distinct games: with fewer, the medians
# move by more than 10% from one seed to the next.
SPECS = {
    "transform": Spec(
        "transform",
        (Family(6, (1, 1, 1), False, "transform", "oracle"),),
        entries=300,
        method="auto",
        extra="certify",
    ),
    "stopping": Spec(
        "stopping",
        (Family(24, (1, 1, 1), True, "hk", "vi"),),
        entries=600,
        method="auto",
        extra="",
    ),
    "one-player": Spec(
        "one-player",
        (
            Family(10, (1, 0, 1), None, "lp", "oracle"),
            Family(12, (0, 1, 1), None, "lp", "oracle"),
        ),
        entries=220,
        method="auto",
        extra="",
    ),
    "approx": Spec(
        "approx",
        (Family(20, (1, 1, 1), True, "vi", "hk"),),
        entries=1400,
        method="vi",
        extra="mc",
        mc_plays=4000,
    ),
}

# Self-test scale: same families, a handful of tiny games.
TINY_N = {"transform": (5,), "stopping": (8,), "one-player": (6, 6), "approx": (8,)}
TINY_ENTRIES = 3
WARMUP_N = 5

ORACLE_BUDGET = 64


def spec_for(name: str, tiny: bool) -> Spec:
    spec = SPECS[name]
    if not tiny:
        return spec
    fams = tuple(replace(f, n=n) for n, f in zip(TINY_N[name], spec.families))
    return replace(spec, families=fams, entries=TINY_ENTRIES, mc_plays=min(spec.mc_plays, 500))


def spec_digest(spec: Spec) -> str:
    """Short hash of a spec, so cached pools follow spec changes."""
    raw = json.dumps(asdict(spec), sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()[:12]


def _has_weighted_kinds(ssg, game, family: Family) -> bool:
    kinds = ssg.VertexKind
    want = [k for k, w in zip((kinds.MAX, kinds.MIN, kinds.AVG), family.weights) if w]
    return all(game.has_kind(k) for k in want)


def _draw(ssg, family: Family, rng):
    """Next game of the family; redraws until every weighted kind is
    present and the stopping property matches."""
    while True:
        sub = int(rng.integers(0, 2**63))
        game = ssg.random_game(family.n, family.weights, seed=sub, require_stopping=family.stopping is True)
        if not _has_weighted_kinds(ssg, game, family):
            continue
        if family.stopping is False and ssg.is_stopping(game):
            continue
        return game


def _reference(ssg, family: Family, game):
    """Exact value vector by a route other than the timed one, plus the
    optimal strategies when the route yields them."""
    if family.reference == "oracle":
        return ssg.brute_force_oracle(game, budget=ORACLE_BUDGET)
    if family.reference == "vi":
        return ssg.solve(game, "vi")
    return ssg.solve(game, "hk")


def _strategy_json(strategy) -> list[list[int]]:
    return [list(p) for p in strategy.picks]


def _item(ssg, family: Family, game, rng) -> dict:
    ref = _reference(ssg, family, game)
    item = {
        "text": ssg.serialize_game(game),
        "route": family.route,
        "ref": [ssg.format_rational(x) for x in ref.values.components],
    }
    if family.reference == "hk":
        item["tau"] = _strategy_json(ref.tau)
        item["sigma"] = _strategy_json(ref.sigma)
        item["mc_seed"] = int(rng.integers(0, 2**31))
    return item


def _rng(name: str, seed: int):
    return np.random.Generator(np.random.PCG64([zlib.crc32(name.encode()), seed % 2**64]))


def build_pool(ssg, name: str, seed: int, tiny: bool = False) -> dict:
    """Draw the pool for one workload seed and compute its references.
    The warm-up entry is the same tiny draw for every seed."""
    spec = spec_for(name, tiny)
    rng = _rng(name, seed)
    t0 = perf_counter()
    entries = [
        [_item(ssg, fam, _draw(ssg, fam, rng), rng) for fam in spec.families]
        for _ in range(spec.entries)
    ]
    warm_rng = _rng(name + "/warmup", 0)
    warm_fams = [replace(f, n=WARMUP_N) for f in spec.families]
    warmup = [_item(ssg, f, _draw(ssg, f, warm_rng), warm_rng) for f in warm_fams]
    return {
        "workload": name,
        "seed": seed,
        "tiny": tiny,
        "spec": asdict(spec),
        "build_s": perf_counter() - t0,
        "entries": entries,
        "warmup": warmup,
    }


# ----------------------------------------------------------------------
# The timed operation and its gate. Everything here takes the `ssg`
# package object and looks functions up on it at call time, so a traced
# run sees the wrapped bindings.


def prepare_entry(ssg, entry: list[dict]) -> list[dict]:
    """Decode the untimed parts of an entry (references, strategies)."""
    out = []
    for item in entry:
        prepared = dict(item)
        prepared["ref_values"] = tuple(Fraction(x) for x in item["ref"])
        if "tau" in item:
            kinds = ssg.VertexKind
            prepared["tau_s"] = ssg.Strategy(kinds.MIN, tuple(tuple(p) for p in item["tau"]))
            prepared["sigma_s"] = ssg.Strategy(kinds.MAX, tuple(tuple(p) for p in item["sigma"]))
        out.append(prepared)
    return out


@dataclass
class OpResult:
    solve_s: float  # parse_game + solve, summed over the entry's games
    extra_s: float  # certificate check or MC estimate
    games: int
    outcomes: list  # per game: (report, extra result) or an exception


def run_op(ssg, spec: Spec, entry: list[dict]) -> OpResult:
    """One timed operation: parse and solve each game of the entry, then
    the workload's extra step. Exceptions are kept, not raised."""
    solve_s = 0.0
    extra_s = 0.0
    outcomes = []
    for item in entry:
        t0 = perf_counter()
        try:
            game = ssg.parse_game(item["text"])
            report = ssg.solve(game, spec.method)
        except Exception as exc:  # noqa: BLE001 - any failure counts against the run
            solve_s += perf_counter() - t0
            outcomes.append(exc)
            continue
        t1 = perf_counter()
        solve_s += t1 - t0
        extra = None
        try:
            if spec.extra == "certify":
                extra = ssg.verify_ovv_certificate(game, report.certificate)
            elif spec.extra == "mc":
                rg = ssg.reduce_game(game, item["tau_s"], item["sigma_s"])
                extra = ssg.mc_estimate(rg, plays=spec.mc_plays, seed=item["mc_seed"])
        except Exception as exc:  # noqa: BLE001
            extra = exc
        extra_s += perf_counter() - t1
        outcomes.append((report, extra))
    return OpResult(solve_s, extra_s, len(entry), outcomes)


def mc_within(estimate_hits: int, plays: int, exact: Fraction) -> bool:
    """Whether an MC hit count is within MC_SIGMAS standard errors (plus
    one play) of the exact value."""
    p = float(exact)
    tolerance = MC_SIGMAS * math.sqrt(p * (1.0 - p) / plays) + 1.0 / plays
    return abs(estimate_hits / plays - p) <= tolerance


def gate(spec: Spec, item: dict, outcome) -> str:
    """Empty string when the game's answer is right, else the reason."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    report, extra = outcome
    if report.method != item["route"]:
        return f"routed to {report.method}, expected {item['route']}"
    if report.values.components != item["ref_values"]:
        return "value vector differs from the reference"
    if isinstance(extra, Exception):
        return f"{spec.extra} step raised {type(extra).__name__}: {extra}"
    if spec.extra == "certify" and extra is not True:
        return "certificate rejected"
    if spec.extra == "mc":
        start = int(item["text"].split()[2])
        if not mc_within(extra.hits, extra.plays, item["ref_values"][start - 1]):
            return f"MC estimate {extra.hits}/{extra.plays} too far from {item['ref_values'][start - 1]}"
    return ""
