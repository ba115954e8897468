"""Benchmark for lamina: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload deep-pullback --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  The loop is closed: each
operation starts when the previous one has finished.

``--seconds`` sets how many repetitions of the workload's fixed job a run
makes, from the repetition time each workload states; a faster program
finishes the same work sooner.  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
first repetition (see ``tracing.py``), which then runs once more untraced
for the tracing overhead.  Every operation is checked exactly
and against its pinned output digest; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Times are calibrated against a fixed kernel (see ``jobs.py``); the raw wall
times are printed on the lines before it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
# stop starting repetitions after this long, so a run ends within 180 s
REP_BUDGET_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (per-layer metric, unit); layer_metrics computes each
PER_LAYER = (
    ("circle.angle_new.calls", "count"),
    ("circle.sigma.calls", "count"),
    ("chords.linked.calls", "count"),
    ("chords.sibling_collections.self_s", "s"),
    ("lamination.check_unlinked.self_s", "s"),
    ("lamination.check_unlinked.exponent", "1"),
    ("lamination.pullback_build.self_s", "s"),
    ("lamination.pullback_build.exponent", "1"),
    ("lamination.gaps.self_s", "s"),
    ("lamination.gaps.calls_per_lamination", "ratio"),
    ("lamination.gaps.exponent", "1"),
    ("lamination.critical_analysis.self_s", "s"),
    ("lamination.critical_analysis.calls_per_lamination", "ratio"),
    ("lamination.check_invariance.self_s", "s"),
    ("lamination.check_invariance.exponent", "1"),
    ("lamination.orbit_classify.calls", "count"),
    ("lamination.leaves_built", "count"),
    ("quad_minor.qml_enumerate.self_s", "s"),
    ("quad_minor.strip_test.calls", "count"),
    ("quad_minor.strip_pass_ratio", "ratio"),
    ("quad_minor.build_from_minor.self_s", "s"),
    ("quad_minor.minor_of.self_s", "s"),
    ("qc_portrait.tune_insert.self_s", "s"),
    ("qc_portrait.strongly_linked.calls", "count"),
    ("accordion.order_preserving_accordions.self_s", "s"),
    ("accordion.order_preserving_accordions.calls", "count"),
    ("accordion.compgap_analyze.self_s", "s"),
    ("accordion.accordion.self_s", "s"),
    ("accordion.survivor_ratio", "ratio"),
    ("cubic_tags.full_portraits_of.self_s", "s"),
    ("cubic_tags.mixed_tag.self_s", "s"),
    ("cubic_tags.tags_relation.calls", "count"),
    ("cubic_tags.tags_relation.self_s", "s"),
    ("cubic_tags.classify_tag_relation.self_s", "s"),
    ("cubic_tags.geometry_checks.self_s", "s"),
    ("formats.lamination_text.self_s", "s"),
    ("formats.parse_lamination.self_s", "s"),
    ("formats.bytes", "bytes"),
    ("render.render_svg.self_s", "s"),
    ("render.render_svg.exponent", "1"),
    ("render.svg_bytes", "bytes"),
    ("sampling.accept_ratio", "ratio"),
    ("sampling.rejects.inconsistent", "count"),
    ("sampling.rejects.not_dendritic", "count"),
    ("sampling.rejects.critical_sets", "count"),
    ("suites.heuristically_dendritic.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

EXPONENTS = ("lamination.check_unlinked", "lamination.pullback_build", "lamination.gaps",
             "lamination.check_invariance", "render.render_svg")


def import_workloads():
    """Import lamina from this checkout's ``src`` and return the jobs module.

    Exits with code 2 when the checkout has no library source, so the
    benchmark never measures some other installed copy.
    """
    src = ROOT / "src"
    if not (src / "lamina" / "__init__.py").is_file() or not (ROOT / "portraits").is_dir():
        print(f"perfbench: no lamina source under {ROOT}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import lamina

    if Path(lamina.__file__).resolve().parent != src / "lamina":
        print(f"perfbench: imported lamina from {lamina.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    import jobs

    return jobs


def measure_setup(jobs, workload: str, seed: int):
    """(calibrated, raw) seconds from process start to the point where the
    first operation would start, in a fresh interpreter: imports, inputs
    and universes."""
    kernel = [jobs.kernel_seconds() for _ in range(5)]
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    raw = float(proc.stdout.split()[-1]) - start
    kernel += [jobs.kernel_seconds() for _ in range(5)]
    return raw * jobs.CALIBRATION_REF_S / statistics.median(kernel), raw


def tail(latencies):
    """(percentile, value): the highest whole percentile with at least ten
    operations beyond it, by the nearest-rank rule."""
    n = len(latencies)
    if n <= 10:
        raise ValueError(f"a tail percentile needs more than ten operations, got {n}")
    ranked = sorted(latencies)
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ranked[rank - 1]


def slope(points):
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, log, workload, traced_s, untraced_s, scale):
    """Per-layer metrics of a traced rep; ``scale`` calibrates its times."""
    calls, self_time, counters = tracer.calls, tracer.self_time, tracer.counters
    built = counters["lamination.laminations_built"]
    values = {
        "circle.angle_new.calls": counters["circle.angle_new"],
        "lamination.leaves_built": counters["lamination.leaves_built"],
        "lamination.gaps.calls_per_lamination": ratio(calls["lamination.gaps"], built),
        "lamination.critical_analysis.calls_per_lamination": ratio(calls["lamination.critical_analysis"], built),
        "quad_minor.strip_pass_ratio": ratio(counters["quad_minor.strip_test.passes"], calls["quad_minor.strip_test"]),
        "accordion.survivor_ratio": ratio(
            counters["accordion.order_preserving_accordions.true"], calls["accordion.order_preserving_accordions"]
        ),
        "formats.bytes": counters["formats.bytes"],
        "render.svg_bytes": counters["render.svg_bytes"],
        "sampling.accept_ratio": ratio(getattr(workload, "accepted", 0), getattr(workload, "drawn", 0)),
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }
    for reason in ("inconsistent", "not_dendritic", "critical_sets"):
        values[f"sampling.rejects.{reason}"] = log.rejects.get(reason, 0)
    sizes = getattr(workload, "sizes", {})
    for name in EXPONENTS:
        points = [(sizes.get(key, 0), op[name]) for key, op in zip(log.keys, tracer.op_totals)]
        values[f"{name}.exponent"] = slope(points)
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            base, kind = name.rsplit(".", 1)
            values[name] = self_time[base] * scale if kind == "self_s" else calls[base]
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def run_reps(workload, log, reps):
    """Calibrated op time summed per rep, and raw wall time per rep."""
    bounds, walls = [0], []
    start = time.perf_counter()
    for r in range(reps):
        t0 = time.perf_counter()
        workload.rep(r, log)
        walls.append(time.perf_counter() - t0)
        bounds.append(log.attempted)
        if time.perf_counter() - start > REP_BUDGET_S:
            break
    scaled = log.scaled()
    return [sum(scaled[a:b]) for a, b in zip(bounds, bounds[1:])], walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("deep-pullback", "cubic-tags", "qml", "accordions"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    jobs = import_workloads()
    make = jobs.WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed, ROOT)
        print(repr(time.monotonic()))
        return 0

    pins = jobs.load_pins()[args.workload]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    if args.trace == 0:
        setups, setup_walls = zip(*(measure_setup(jobs, args.workload, args.seed) for _ in range(SETUP_SAMPLES)))
        workload = make(args.seed, ROOT)
        reps = min(workload.max_reps, max(1, round(args.seconds / make.nominal_rep_s)))
        log = jobs.OpLog(pins)
        times, walls = run_reps(workload, log, reps)
        scaled = log.scaled()
        pct, tail_s = tail(scaled)
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(times),
            "op_p50_ms": statistics.median(scaled) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        lines += [
            f"setup wall s {' '.join(f'{s:.4f}' for s in setup_walls)}",
            f"reps {len(times)} of {reps}, wall s {' '.join(f'{t:.3f}' for t in walls)}",
            f"raw wall: run_s {statistics.median(walls):.4f} op_p50_ms {statistics.median(log.latencies) * 1e3:.4f} "
            f"op_tail_ms {tail(log.latencies)[1] * 1e3:.4f}",
            f"op_tail_ms is p{pct} of {len(scaled)} ops",
        ]
        logs = [log]
    else:
        import tracing

        workload = make(args.seed, ROOT)
        traced = jobs.OpLog(pins)
        with tracing.Tracer(extra_modules=[jobs]) as tracer:
            traced.tracer = tracer
            (traced_s,), _ = run_reps(workload, traced, 1)
        plain = jobs.OpLog(pins)
        (untraced_s,), _ = run_reps(make(args.seed, ROOT), plain, 1)
        scale = jobs.CALIBRATION_REF_S / traced.kernel_median()
        metrics = layer_metrics(tracer, traced, workload, traced_s, untraced_s, scale)
        lines.append(f"rep 0 calibrated: traced {traced_s:.3f} s, untraced {untraced_s:.3f} s")
        logs = [traced, plain]

    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    rejected = sum(sum(log.rejects.values()) for log in logs)
    run_digest = jobs.digest("\n".join(f"{k} {logs[0].digests.get(k)}" for k in logs[0].keys).encode())
    lines += [
        f"ops {attempted} failed {failed} rejected {rejected} fail_frac {failed / attempted:.6f}",
        f"output digest {run_digest}",
    ]
    lines += [f"FAILED {failure}" for log in logs for failure in log.failures[:20]]
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
