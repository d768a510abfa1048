"""Self-tests of the benchmark at tiny sizes.

  python3 -m pytest perfbench -q

They check the benchmark, not the solver: that every metric prints by
name with its unit, that the gate counts a wrong answer as a failure,
that the tracer reaches every binding of a wrapped function, and that
the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import worker  # noqa: E402  (imports ssg from the checkout's src/)
import workloads  # noqa: E402

ssg = worker.ssg


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _tiny_entries(name, seed=3):
    pool = workloads.build_pool(ssg, name, seed, tiny=True)
    spec = workloads.spec_for(name, tiny=True)
    return spec, [workloads.prepare_entry(ssg, e) for e in pool["entries"]]


def test_every_metric_prints_with_its_unit():
    declared = _declared()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        for name in workloads.SPECS:
            proc = _bench("--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want
            for metric, unit in want.items():
                assert any(line.strip().startswith(f"{metric} = ") and f" {unit} (n=" in line for line in lines), metric
            assert any(line.strip().startswith("env: ") for line in lines)


def test_gate_counts_a_perturbed_value_vector_as_failure():
    for name in ("transform", "one-player"):
        spec, entries = _tiny_entries(name)
        entry = entries[0]
        result = workloads.run_op(ssg, spec, entry)
        assert worker.failures(spec, entry, result) == []
        report, extra = result.outcomes[0]
        values = list(report.values.components)
        k = next(i for i, x in enumerate(values) if x < 1)
        values[k] += Fraction(1, 4 ** (4 * len(values)))
        bad = dataclasses.replace(report, values=ssg.ValueVector(values))
        assert workloads.gate(spec, entry[0], (bad, extra)) == "value vector differs from the reference"


def test_measure_counts_failures_against_a_wrong_reference():
    spec, entries = _tiny_entries("stopping")
    wrong = dict(entries[0][0])
    ref = list(wrong["ref_values"])
    ref[0] = ref[0] / 2 if ref[0] else Fraction(1, 2)
    wrong["ref_values"] = tuple(ref)
    out = worker.measure(spec, [[wrong], *entries[1:]], seconds=0.0, traced=False)
    flags = [op[3] for op in out["ops"]]
    assert flags == [True] + [False] * (len(entries) - 1)


def test_gate_checks_certificate_and_mc_steps():
    spec, entries = _tiny_entries("transform")
    result = workloads.run_op(ssg, spec, entries[0])
    report, _extra = result.outcomes[0]
    assert workloads.gate(spec, entries[0][0], (report, False)) == "certificate rejected"
    assert workloads.mc_within(500, 1000, Fraction(1, 2))
    assert not workloads.mc_within(600, 1000, Fraction(1, 2))
    assert workloads.mc_within(0, 1000, Fraction(0))


def test_wrapped_function_is_called_through_every_binding():
    t = tracer.Tracer()
    sites = {f"{m.__name__}.{a}" for m, a, _o, _w in t.sites}
    for expected in (
        "ssg.markov.solve_value_vector",
        "ssg.stopping.solve_value_vector",
        "ssg.solve.solve_value_vector",
        "ssg.solve_value_vector",
        "ssg.games.build_game",
        "ssg.stopping.build_game",
        "ssg.kernels.vi_run",
    ):
        assert expected in sites
    game = ssg.build_game(5, 1, [(1, "max", 2, 3), (2, "avg", 4, 5), (3, "avg", 2, 5)])
    rg = ssg.reduce_game(game, sigma=ssg.Strategy.of(ssg.VertexKind.MAX, {1: 3}))
    t.install()
    try:
        assert t.unwrapped_sites() == []
        for mod, attr, _original, _wrapper in t.sites:
            if attr == "solve_value_vector":
                before = len(t.spans)
                getattr(mod, attr)(rg)
                assert [s[0] for s in t.spans[before:]] == ["markov.solve_value_vector"], mod.__name__
    finally:
        t.uninstall()
    for mod, attr, original, _wrapper in t.sites:
        assert getattr(mod, attr) is original


def test_missed_binding_shows_as_untraced_time():
    spec, entries = _tiny_entries("stopping")
    t = tracer.Tracer()
    shares = []
    for skip in (None, "ssg.solve.hoffman_karp"):
        t.install()
        if skip:
            mod_name, attr = skip.rsplit(".", 1)
            original = next(o for m, a, o, _w in t.sites if m.__name__ == mod_name and a == attr)
            setattr(sys.modules[mod_name], attr, original)
            assert t.unwrapped_sites() == [skip]
        first = len(t.spans)
        total = 0.0
        for entry in entries * 20:
            result = workloads.run_op(ssg, spec, entry)
            total += result.solve_s
        t.uninstall()
        shares.append((total - tracer.root_covered(t.spans, first)) / total)
    assert shares[1] > shares[0] + 0.05


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracer.root_covered(spans, 0) == 10.0


def test_refuses_to_run_without_the_package():
    bare = os.path.join(HERE, ".cache", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".cache", "out", "__pycache__"))
        proc = _bench("--workload", "stopping", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert "{" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
