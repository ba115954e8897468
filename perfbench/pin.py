"""Recompute the pinned output digest of every operation any seed can run.

    python3 perfbench/pin.py [workload ...]    # from the root of a source checkout

Writes ``perfbench/pins.json`` only when every operation passes its exact
checks; named workloads are re-pinned and the others kept.  For cubic-tags
it also checks the relation of every pair of tags in the pool, so that no
seed can pair two laminations whose tags overlap.
Re-pin only when a change is meant to alter the library's output, and say
why in the change.
"""

from __future__ import annotations

import json
import sys
import time

import run


def pin_workload(jobs, name, problems):
    workload = jobs.WORKLOADS[name](1, run.ROOT)
    log = jobs.OpLog(None)
    if name == "qml":
        workload.rep(0, log)
    elif name == "deep-pullback":
        for key, build, depth in workload.pool():
            log.run(key, lambda p, k=key, b=build, d=depth: workload.op(k, b, d, p))
    elif name == "accordions":
        for key, axis in workload.pool():
            log.run(key, lambda p, a=axis: workload.op(a, p))
    else:
        tags = []
        for key, entry in workload.pool():
            def process(p, e=entry):
                output, rejected, tagged = workload.process(e, p)
                tags.extend((key, lam_index, tag) for lam_index, (_, _, ts) in enumerate(tagged) for tag in ts)
                return output, rejected

            log.run(key, process)
        for i, (key_i, lam_i, tag_i) in enumerate(tags):
            for key_j, lam_j, tag_j in tags[i + 1:]:
                if (key_i, lam_i) != (key_j, lam_j):
                    relation = jobs.lamina.tags_relation(tag_i, tag_j)
                    if relation != "disjoint":
                        problems.append(f"{name}: {key_i} / {key_j}: tags {relation}")
        print(f"{name}: rejects {log.rejects}", file=sys.stderr)
    problems += log.failures
    return log.digests


def main(names) -> int:
    jobs = run.import_workloads()
    pins, problems = (jobs.load_pins() if names else {}), []
    for name in names or jobs.WORKLOADS:
        start = time.perf_counter()
        pins[name] = pin_workload(jobs, name, problems)
        print(f"{name}: {len(pins[name])} digests in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if problems:
        print("\n".join(problems[:50]), file=sys.stderr)
        print(f"{len(problems)} problems; pins not written", file=sys.stderr)
        return 1
    jobs.PINS_PATH.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
