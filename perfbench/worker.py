"""Measurement process: loads a pool, runs the closed loop, prints one
JSON line of raw samples.

Started by run.py in a fresh interpreter so that its peak RSS and its
set-up belong to the program under test and not to input generation.

  worker.py --probe POOL           set up, warm up, print "ready", then
                                   print this process's speed factor
  worker.py POOL SECONDS TRACE [SPANS]
                                   measure and print the samples; with
                                   TRACE=1, write the spans to SPANS

One caller issues each operation after the previous one returns. The
loop makes whole passes over the pool, stopping at the pass boundary
nearest to SECONDS, so every game counts equally. Each operation is
preceded by the calibration loop, whose speed factor is recorded with
the operation's raw times. With TRACE=1 each entry runs once untraced
and once traced (alternating which goes first), which gives the
tracing overhead on identical inputs.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ssg  # noqa: E402

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PROBE_CALIBRATIONS = 5


def load(pool_path, entries=True):
    """The pool's spec, decoded entries (empty unless asked for) and
    warm-up entry."""
    with open(pool_path) as fh:
        pool = json.load(fh)
    spec = workloads.spec_for(pool["workload"], pool["tiny"])
    decoded = [workloads.prepare_entry(ssg, e) for e in pool["entries"]] if entries else []
    return spec, decoded, workloads.prepare_entry(ssg, pool["warmup"])


def peak_rss_mb() -> float:
    """This process's own peak RSS. ru_maxrss also counts the image of
    the parent at fork time, so the parent's pool building would show;
    VmHWM belongs to the address space created by exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failures(spec, entry, result) -> list[str]:
    return [
        reason
        for item, outcome in zip(entry, result.outcomes)
        if (reason := workloads.gate(spec, item, outcome))
    ]


def measure(spec, entries, seconds, traced, spans_path=None):
    tracer = tracing.Tracer() if traced else None
    ops = []  # [solve_s, extra_s, games, failed, traced, speed factor]
    reasons = []
    covered = 0.0
    self_s = defaultdict(float)  # scaled by each operation's speed factor
    wall = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        for k, entry in enumerate(entries):
            if not traced:
                modes = (False,)
            elif (k + passes) % 2 == 0:
                modes = (False, True)
            else:
                modes = (True, False)
            for with_trace in modes:
                factor = calibration.speed_factor()
                if with_trace:
                    first = len(tracer.spans)
                    tracer.install()
                result = workloads.run_op(ssg, spec, entry)
                if with_trace:
                    tracer.uninstall()
                    covered += tracing.root_covered(tracer.spans, first)
                    for name, t in tracing.self_times(tracer.spans, first).items():
                        self_s[name] += t * factor
                bad = failures(spec, entry, result)
                reasons.extend(bad[:1])
                ops.append([result.solve_s, result.extra_s, result.games, bool(bad), with_trace, factor])
        passes += 1
        elapsed = perf_counter() - wall
        if elapsed + (perf_counter() - pass_start) / 2 >= seconds:
            break
    out = {"ops": ops, "passes": passes, "wall_s": perf_counter() - wall, "fail_reasons": reasons[:5]}
    if traced:
        tracer.install()
        out["missed_sites"] = tracer.unwrapped_sites()
        tracer.uninstall()
        out["self_s"] = self_s
        out["calls"] = tracing.call_counts(tracer.spans)
        out["sums"] = dict(tracer.counters.sums)
        out["peaks"] = dict(tracer.counters.peaks)
        out["covered_s"] = covered
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return out


def main(argv):
    if argv[0] == "--probe":
        spec, _entries, warmup = load(argv[1], entries=False)
        workloads.run_op(ssg, spec, warmup)
        print("ready", flush=True)
        print(statistics.median(calibration.speed_factor() for _ in range(PROBE_CALIBRATIONS)))
        return 0
    pool_path, seconds, traced = argv[0], float(argv[1]), argv[2] == "1"
    spec, entries, warmup = load(pool_path)
    workloads.run_op(ssg, spec, warmup)
    out = measure(spec, entries, seconds, traced, argv[3] if traced else None)
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
