"""Tests of the benchmark itself.

    python3 -m pytest perfbench          # from the root of a source checkout
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

jobs = run.import_workloads()
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PINS = jobs.load_pins()


def op_list(workload, reps=2):
    if isinstance(workload, jobs.DeepPullback):
        return [[key for key, _, _ in workload.plan(r)] for r in range(reps)]
    if isinstance(workload, jobs.CubicTags):
        return workload.order
    return [workload.axes(r) for r in range(reps)]


@pytest.mark.parametrize("make", [jobs.DeepPullback, jobs.CubicTags, jobs.Accordions])
def test_seed_sets_the_op_list(make):
    assert op_list(make(7, run.ROOT)) == op_list(make(7, run.ROOT))
    assert op_list(make(7, run.ROOT)) != op_list(make(8, run.ROOT))


def test_qml_seed_sets_the_validation_order(monkeypatch):
    monkeypatch.setattr(jobs.Qml, "PERIOD", 5)
    monkeypatch.setattr(jobs.Qml, "ENUMERATE", "enumerate 5")

    def keys(seed):
        log = jobs.OpLog(None)
        jobs.Qml(seed, run.ROOT).rep(0, log)
        assert log.failed == 0
        return log.keys

    assert keys(7) == keys(7)
    assert sorted(keys(7)) == sorted(keys(8)) and keys(7) != keys(8)


def test_same_seed_same_digests(monkeypatch):
    monkeypatch.setattr(jobs.Accordions, "AXES_PER_REP", 4)
    logs = []
    for _ in range(2):
        log = jobs.OpLog(PINS["accordions"])
        jobs.Accordions(3, run.ROOT).rep(0, log)
        logs.append(log)
    assert logs[0].failed == 0 and logs[0].attempted == 4
    assert logs[0].keys == logs[1].keys and logs[0].digests == logs[1].digests


def deep_op(key):
    workload = jobs.DeepPullback(1, run.ROOT)
    log = jobs.OpLog(PINS["deep-pullback"])
    for k, build, depth in workload.pool():
        if k == key:
            log.run(k, lambda problems: workload.op(k, build, depth, problems))
    assert log.attempted == 1
    return log


def test_pinned_op_passes():
    assert deep_op("portrait quadratic/rabbit@4").failed == 0


def drop_last_leaf(lam):
    return jobs.lamina.FiniteLamination(lam.degree, lam.leaves[:-1])


def test_dropped_leaf_in_round_trip_fails_the_op(monkeypatch):
    parse = jobs.parse_lamination
    monkeypatch.setattr(jobs, "parse_lamination", lambda text: drop_last_leaf(parse(text)))
    log = deep_op("portrait quadratic/rabbit@4")
    assert log.failed == 1 and "round trip" in log.failures[0]


def test_dropped_leaf_in_build_fails_the_op(monkeypatch):
    build = jobs.build_from_minor
    monkeypatch.setattr(jobs, "build_from_minor", lambda m, depth: drop_last_leaf(build(m, depth)))
    minor = jobs.DeepPullback(1, run.ROOT).minors[0]
    log = deep_op(f"minor {minor}@3")
    assert log.failed == 1 and "pinned" in log.failures[0]


def test_rejections_are_not_failures():
    log = jobs.OpLog({"a": jobs.digest(b"rejected"), "b": jobs.digest(b"x")})
    log.run("a", lambda problems: (b"rejected", "inconsistent"))
    log.run("b", lambda problems: 1 / 0)
    log.run("c", lambda problems: (b"x", None))
    assert log.rejects == {"inconsistent": 1}
    assert log.attempted == 3 and log.failed == 2


def test_tail_percentile():
    assert run.tail(list(range(1, 41))) == (75, 30)
    assert run.tail(list(range(1, 12))) == (9, 1)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_slope():
    assert run.slope([(n, 3 * n * n) for n in (10, 20, 40, 80)]) == pytest.approx(2)


def test_tracer_wraps_every_reference_and_restores_them():
    import tracing

    L = jobs.lamina
    originals = (L.critical_analysis, L.cubic_tags.critical_analysis, L.Angle.__dict__["__new__"])
    leaves = [L.Chord(L.Angle(0), L.Angle(1, 3)), L.Chord(L.Angle(1, 2), L.Angle(5, 6))]
    with tracing.Tracer(extra_modules=[jobs]) as tracer:
        tracer.begin_op()
        lam = L.pullback_build(3, leaves, 2)
        jobs.full_portraits_of(lam)
    assert (L.critical_analysis, L.cubic_tags.critical_analysis, L.Angle.__dict__["__new__"]) == originals
    assert tracer.calls["lamination.pullback_build"] == 1 and tracer.counters["lamination.leaves_built"] == len(lam)
    assert tracer.calls["cubic_tags.full_portraits_of"] == 1
    # gaps runs once in the build's sector partition and once in critical_analysis
    assert tracer.calls["lamination.critical_analysis"] == 1 and tracer.calls["lamination.gaps"] == 2
    assert tracer.counters["circle.angle_new"] > 0 and tracer.calls["chords.linked"] > 0
    assert 0 < tracer.self_time["cubic_tags.full_portraits_of"] < tracer.total["cubic_tags.full_portraits_of"]
    assert tracer.op_totals[0]["lamination.gaps"] == tracer.total["lamination.gaps"]


def result(args, cwd):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    args = ["--workload", "accordions", "--seed", "5", "--seconds", "1", "--trace", trace]
    proc, lines = result(args, run.ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in BENCH[section]}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(jobs.WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == [name for name, _ in run.PER_LAYER]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = result(["--workload", "qml", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode == 2
    assert not any(line.startswith("{") for line in lines)
