"""Seeded benchmark of exact `ssg` solves, one workload per run.

  python3 perfbench/run.py --workload transform --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its
`src/` directory. The run

1. draws the workload's input pool from --seed and computes a reference
   value vector for every game by a different route than the timed one
   (cached under perfbench/.cache, keyed by workload, seed and sizes);
2. starts a fresh interpreter several times to time set-up: import the
   package and run one warm-up operation on a tiny game;
3. starts one measurement process (worker.py) that runs the closed loop
   for --seconds and checks every answer against its reference;
4. prints each metric with its unit and sample count, the environment,
   and as its last line one JSON object with the contract's keys.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run, plus the tracing overhead and
the share of operation time no layer span covers. Reports and spans go
to perfbench/out. Workloads, metrics and predictions are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
DEADLINE_S = 170.0  # the whole run, prep included, must end well within 180 s

END_TO_END = {
    "games_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Calls and self time of one traced function, per traced operation.
PER_FUNCTION = {
    "games.parse_game.self_s": "s/op",
    "games.build_game.self_s": "s/op",
    "markov.solve_value_vector.calls": "count/op",
    "markov.solve_value_vector.self_s": "s/op",
    "markov.is_stopping.self_s": "s/op",
    "markov.reduce_game.self_s": "s/op",
    "markov.mc_estimate.self_s": "s/op",
    "stopping.build_stopping_game.calls": "count/op",
    "stopping.build_stopping_game.self_s": "s/op",
    "solve.hoffman_karp.self_s": "s/op",
    "solve.apply_operator.calls": "count/op",
    "solve.apply_operator.self_s": "s/op",
    "solve.verify_ovv_certificate.self_s": "s/op",
    "solve.round_to_value_set.self_s": "s/op",
    "solve.greedy_strategies.self_s": "s/op",
    "solve.value_iteration.self_s": "s/op",
    "lp.simplex_optimize.calls": "count/op",
    "lp.simplex_optimize.self_s": "s/op",
    "lp.build_lp_min_free.self_s": "s/op",
    "lp.build_lp_max_free.self_s": "s/op",
    "kernels.vi_run.calls": "count/op",
    "kernels.vi_run_object.calls": "count/op",
    "kernels.vi_run_object.self_s": "s/op",
    "kernels.mc_run.self_s": "s/op",
}

# Counts the tracer records from arguments and results:
# name -> (unit, counter, divisor), where the divisor "op" means per traced
# operation and a function name means per call of that function.
RECORDED = {
    "markov.solve_value_vector.system_n_mean": ("vertices", "markov.solve_value_vector.system_n", "markov.solve_value_vector"),
    "stopping.companion_n_mean": ("vertices", "stopping.companion_n", "stopping.build_stopping_game"),
    "solve.hoffman_karp.rounds": ("count/op", "solve.hoffman_karp.rounds", "op"),
    "solve.value_iteration.sweeps": ("count/op", "solve.value_iteration.sweeps", "op"),
    "lp.simplex_optimize.pivots": ("count/op", "lp.simplex_optimize.pivots", "op"),
    "lp.tableau_cells": ("cells", "lp.tableau_cells", "lp.simplex_optimize"),
}

PER_LAYER_UNITS = {
    **PER_FUNCTION,
    **{name: unit for name, (unit, _c, _p) in RECORDED.items()},
    "markov.value_bits_max": "bits",
    "kernels.int64_share": "share",
    **{f"{layer}.calls": "count/op" for layer in tracer.LAYERS},
    **{f"{layer}.self_s": "s/op" for layer in tracer.LAYERS},
    "tracing_overhead": "share",
    "untraced_share": "share",
    "certify_ms_p50": "ms",
    "mc_plays_per_s": "1/s",
}

# Printed with every run, not part of BENCHMARK.json.
INFO_UNITS = {
    "fail_ratio": "share",
    "certify_ms_p50": "ms",
    "mc_plays_per_s": "1/s",
    "speed_factor_p50": "x",
    "wall_games_per_s": "1/s",
    "wall_solve_ms_p50": "ms",
    "wall_setup_s": "s",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_ssg():
    if not os.path.isfile(os.path.join(SRC, "ssg", "__init__.py")):
        fail(f"no ssg package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import ssg

    if not os.path.abspath(ssg.__file__).startswith(SRC + os.sep):
        fail(f"imported ssg from {ssg.__file__}, not from {SRC}")
    return ssg


def load_pool(ssg, name: str, seed: int, tiny: bool) -> tuple[str, bool]:
    """Path of the cached pool for (workload, seed, sizes); builds it on
    a miss. Returns (path, whether it was cached)."""
    spec = workloads.spec_for(name, tiny)
    path = os.path.join(CACHE, f"{name}-s{seed}-{workloads.spec_digest(spec)}.json")
    if os.path.exists(path):
        return path, True
    pool = workloads.build_pool(ssg, name, seed, tiny)
    os.makedirs(CACHE, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(pool, fh)
    os.replace(tmp, path)
    return path, False


def remaining(started: float) -> float:
    return max(5.0, DEADLINE_S - (perf_counter() - started))


def setup_times(pool_path: str, probes: int, started: float) -> list[tuple[float, float]]:
    """Spawn-to-ready time of fresh worker processes, as (seconds, speed
    factor the process measured right after it was ready)."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--probe", pool_path],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            rest, _err = proc.communicate(timeout=remaining(started))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            fail(f"set-up probe exited with code {proc.returncode}")
        times.append((t1 - t0, float(rest)))
    return times


def run_worker(pool_path: str, seconds: float, trace: int, spans_path: str, started: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), pool_path, str(seconds), str(trace), spans_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining(started))
    except subprocess.TimeoutExpired:
        fail("measurement process ran past the deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"measurement process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "kernels_backend": sys.modules["ssg.kernels"].backend(),
        "SSG_PURE_NUMPY": os.environ.get("SSG_PURE_NUMPY"),
        "machine": platform.machine(),
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def end_to_end(ops, setup, raw) -> dict:
    """Metric name -> (value, sample count); ops are (solve_s, extra_s,
    games) at reference speed."""
    solve_ms = [o[0] * 1000 for o in ops]
    busy = sum(o[0] + o[1] for o in ops)
    return {
        "games_per_s": (sum(o[2] for o in ops) / busy, len(ops)),
        "solve_ms_p50": (statistics.median(solve_ms), len(solve_ms)),
        "solve_ms_p90": (p90(solve_ms), len(solve_ms)),
        "setup_s": (statistics.median(t * f for t, f in setup), len(setup)),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }


def extra_step(spec, ops) -> dict:
    """The workload's own extra-step metric."""
    if spec.extra == "certify":
        return {"certify_ms_p50": (statistics.median(o[1] * 1000 for o in ops), len(ops))}
    if spec.extra == "mc":
        plays = spec.mc_plays * sum(o[2] for o in ops)
        return {"mc_plays_per_s": (plays / sum(o[1] for o in ops), len(ops))}
    return {}


def per_layer(spec, untraced, traced, traced_raw_s, raw) -> dict:
    n = len(traced)
    calls, self_s, sums = raw["calls"], raw["self_s"], raw["sums"]
    out = {}
    for name in PER_FUNCTION:
        span, what = name.rsplit(".", 1)
        out[name] = ((self_s if what == "self_s" else calls).get(span, 0) / n, n)
    for name, (_unit, counter, per) in RECORDED.items():
        base = n if per == "op" else calls.get(per, 0)
        out[name] = (sums.get(counter, 0) / base if base else 0.0, base)
    out["markov.value_bits_max"] = (raw["peaks"].get("markov.value_bits_max", 0), calls.get("markov.solve_value_vector", 0))
    vi_int64 = calls.get("kernels.vi_run", 0)
    vi_total = vi_int64 + calls.get("kernels.vi_run_object", 0)
    out["kernels.int64_share"] = (vi_int64 / vi_total if vi_total else 0.0, vi_total)
    for layer in tracer.LAYERS:
        mine = [k for k in calls if k.startswith(layer + ".")]
        out[f"{layer}.calls"] = (sum(calls[k] for k in mine) / n, n)
        out[f"{layer}.self_s"] = (sum(self_s[k] for k in mine) / n, n)
    traced_s = sum(o[0] + o[1] for o in traced)
    untraced_s = sum(o[0] + o[1] for o in untraced)
    out["tracing_overhead"] = (traced_s / untraced_s - 1.0, n)
    out["untraced_share"] = ((traced_raw_s - raw["covered_s"]) / traced_raw_s, n)
    extra = extra_step(spec, untraced)
    out["certify_ms_p50"] = extra.get("certify_ms_p50", (0.0, 0))
    out["mc_plays_per_s"] = extra.get("mc_plays_per_s", (0.0, 0))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    started = perf_counter()

    ssg = import_ssg()
    spec = workloads.spec_for(args.workload, args.tiny)
    pool_path, cached = load_pool(ssg, args.workload, args.seed, args.tiny)
    setup = setup_times(pool_path, 2 if args.tiny else SETUP_PROBES, started)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}")
    raw = run_worker(pool_path, args.seconds, args.trace, stem + ".spans.jsonl", started)

    ops = raw["ops"]
    failed = sum(1 for o in ops if o[3])
    untraced_raw = [o[:3] for o in ops if not o[4]]
    untraced = [(o[0] * o[5], o[1] * o[5], o[2]) for o in ops if not o[4]]
    if args.trace:
        traced = [(o[0] * o[5], o[1] * o[5], o[2]) for o in ops if o[4]]
        traced_raw_s = sum(o[0] + o[1] for o in ops if o[4])
        metrics = per_layer(spec, untraced, traced, traced_raw_s, raw)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(untraced, setup, raw)
        units = END_TO_END
    wall_clock = end_to_end(untraced_raw, [(t, 1.0) for t, _f in setup], raw)
    info = {
        "fail_ratio": (failed / len(ops), len(ops)),
        **({} if args.trace else extra_step(spec, untraced)),
        "speed_factor_p50": (statistics.median(o[5] for o in ops), len(ops)),
        **{f"wall_{k}": wall_clock[k] for k in ("games_per_s", "solve_ms_p50", "setup_s")},
    }
    env = environment()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations in {raw['passes']} passes over {spec.entries} entries, "
          f"{raw['wall_s']:.1f} s; pool {'cached' if cached else 'built'}")
    for name, (value, count) in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]} (n={count})")
    for name, (value, count) in info.items():
        print(f"  {name} = {value:.6g} {INFO_UNITS[name]} (n={count})")
    for reason in raw["fail_reasons"]:
        print(f"  failure: {reason}")
    if raw.get("missed_sites"):
        print(f"  unwrapped binding sites: {', '.join(raw['missed_sites'])}")
    print("  env: " + json.dumps(env))

    result = {
        "correct": failed == 0 and not raw.get("missed_sites"),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _n) in metrics.items()},
    }
    report = {
        **result,
        "samples": {name: count for name, (_v, count) in {**metrics, **info}.items()},
        "info": {name: value for name, (value, _n) in info.items()},
        "env": env,
        "passes": raw["passes"],
        "wall_s": raw["wall_s"],
        "setup_runs": setup,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
