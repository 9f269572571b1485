"""One pass of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<json job>'``; ``run.py`` starts it and
reads the one JSON line it prints.  A fresh process per pass keeps the
module-level k_max memo cold and lets each pass measure its own set-up,
from interpreter start to the last input built.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import types
from fractions import Fraction


def load_library(root):
    """Import ``zerosumlab`` from ``<root>/src`` and refuse any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import zerosumlab
    from zerosumlab import (cli, cyclotomic, davenport, groups, invariants, polynomials,
                            presented, sequences)

    origin = os.path.realpath(zerosumlab.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"zerosumlab was imported from {origin}, not from {src}")
    return types.SimpleNamespace(
        groups=groups, sequences=sequences, davenport=davenport, cyclotomic=cyclotomic,
        polynomials=polynomials, invariants=invariants, presented=presented, cli=cli)


# The machine's speed drifts by up to 1.6x for seconds at a time (other tenants).
# A fixed pure-Python loop timed between instances drifts with it, so each
# stretch of instances is also reported divided by the loop's slowness
# relative to REFERENCE_LOOP_S, its median on a quiet 2-core machine.
LOOP_ITERATIONS = 30000
REFERENCE_LOOP_S = 0.019
CHUNK_S = 0.25  # instance time between two calibrations


def loop_slowness():
    """Time of a fixed loop of dict, tuple and Fraction work, over the reference."""
    start = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(LOOP_ITERATIONS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        if i % 10 == 0:
            acc += Fraction(i % 7 + 1, i % 11 + 1)
    sorted(table.items())
    return (time.perf_counter() - start) / REFERENCE_LOOP_S


def attempt(inst, counts):
    """The answer of one instance and the value it must equal."""
    answer = inst.run(counts)
    return answer, inst.expected() if callable(inst.expected) else inst.expected


def solve(instances, counts, tracer=None):
    """Run and gate every instance.

    Returns the wall time spent in the instances, that time scaled to the
    reference speed, the measured slowness factors, the time per instance
    label and the failures.  An instance fails on any exception (a hit budget
    included) or on an answer that differs from its expected value; its
    time includes checking the answer.
    """
    failures = []
    per_label = {}
    wall = scaled = chunk = 0.0
    calibrations = [loop_slowness()]
    for index, inst in enumerate(instances):
        run = attempt
        if tracer is not None:
            tracer.instance = index
            run = tracer.instrument(attempt, "bench.instance")
        start = time.perf_counter()
        try:
            answer, expected = run(inst, counts)
            if answer != expected:
                failures.append(f"{inst.label}: got {answer!r}, expected {expected!r}")
        except Exception as exc:  # every failure is counted, none stops the pass
            failures.append(f"{inst.label}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        key = inst.label.split("[")[0]
        per_label[key] = per_label.get(key, 0.0) + elapsed
        chunk += elapsed
        if chunk >= CHUNK_S or index == len(instances) - 1:
            calibrations.append(loop_slowness())
            wall += chunk
            scaled += chunk / ((calibrations[-2] + calibrations[-1]) / 2)
            chunk = 0.0
    return wall, scaled, calibrations, per_label, failures


def peak_rss_mb(who):
    """Peak resident set of this process, or of the largest child it waited for."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(job):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from tracer import Tracer, import_time

    zsl = load_library(job["root"])
    build, warm = workloads.WORKLOADS[job["workload"]]
    env = workloads.Env(job["root"], job["scratch"], job["pristine"], job["trace"])
    instances = build(zsl, job["seed"], env)
    setup_s = time.monotonic() - job["t_spawn"]

    cold_ok = warm or (not zsl.sequences._KMAX_MEMO and workloads.CACHE_ENV not in os.environ)
    counts = {}
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install(zsl)
    try:
        wall, scaled, calibrations, per_label, failures = solve(instances, counts, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workloads.final_counts(zsl, instances, env, counts)
    result = {
        "setup_s": setup_s / calibrations[0],
        "setup_wall_s": setup_s,
        "solve_s": scaled,
        "solve_wall_s": wall,
        "slowness": statistics.median(calibrations),
        "instance_s": per_label,
        # untraced, the warm workload's instances run in zsl child processes
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN if warm and not job["trace"]
                                   else resource.RUSAGE_SELF),
        "attempted": len(instances),
        "failures": failures,
        "cold_ok": cold_ok,
        "counts": counts,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(counts, import_time(env.child_env))
        tracer.write_spans(job["spans_path"])
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
