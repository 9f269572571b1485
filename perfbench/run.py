"""Time to a checked exact answer, per workload, in fresh processes.

    python3 perfbench/run.py --workload dk-cyclic --seed 1 --seconds 20 --trace 0

Each pass of the workload runs in a fresh interpreter (``worker.py``): it
builds its inputs, solves every instance, and checks each answer against a
value that does not come from the engine being timed.  Passes repeat until
``--seconds`` is used up, and the run reports medians.  With ``--trace 1``
the run alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

The second-to-last line of standard output is the full report (machine
stamp, every pass's values, counts, tail percentiles, failures); it is
also written to ``.perfbench_out/``.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
a result was printed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS, TIMED_METRICS  # noqa: E402

E2E_METRICS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# kept in the report beside them: the unscaled times and the measured slowness
RAW_TIMES = {"solve_wall_s": "s", "setup_wall_s": "s", "slowness": "ratio"}
MIN_PASSES = 3  # untraced passes in a timed run, so that a median exists
MIN_TRACED = 2  # traced passes in a traced run, so that their counts can be compared
RUN_LIMIT_S = 170  # no pass starts, and none runs on, past this point of the run


def stamp(seed):
    """Machine, interpreter and source the numbers were taken with."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            rev = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_rev": rev,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_child(argv, env, timeout):
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, f"timed out after {timeout:.0f}s\n{err}"
    return proc.returncode, out, err


def build_pristine(env, directory, deadline):
    """Fill a k_max cache from the dk-cyclic scans, with the code under test."""
    os.makedirs(directory)
    child_env = dict(env, **{workloads.CACHE_ENV: directory})
    failures = []
    start = time.monotonic()
    for argv, answer_of, expected in workloads.PRISTINE_CALLS:
        code, out, err = run_child([sys.executable, "-m", "zerosumlab.cli", *argv],
                                   child_env, deadline - time.monotonic())
        label = "pristine cache: zsl " + " ".join(argv)
        if code != 0:
            failures.append(f"{label}: exit {code}: {err.strip()[-300:]}")
        elif answer_of(json.loads(out)) != expected:
            failures.append(f"{label}: got {answer_of(json.loads(out))!r}, "
                            f"expected {expected!r}")
    cache = os.path.join(directory, "zsl_kmax_cache.json")
    size = os.path.getsize(cache) if os.path.exists(cache) else 0
    return {"build_s": time.monotonic() - start, "bytes": size}, failures


def summary(values, unit):
    """Median, the highest percentile with ten runs beyond it, and every value."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"unit": unit, "median": statistics.median(ordered) if n else None,
            "tail": tail, "runs": n, "values": values}


def consistent(records):
    """True when every record equals the first."""
    return all(r == records[0] for r in records[1:])


def measure(args, scratch, out_dir):
    env = workloads.child_env(str(ROOT))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    warm = workloads.WORKLOADS[args.workload][1]
    failures, attempted = [], 0
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp(args.seed)}

    pristine = None
    if warm:
        pristine = os.path.join(scratch, "pristine")
        report["pristine_cache"], bad = build_pristine(env, pristine, deadline)
        attempted += len(workloads.PRISTINE_CALLS)
        failures += bad

    plan = [False] + [True] * MIN_TRACED if args.trace else [False] * MIN_PASSES
    passes, spans_files, crashed = [], [], []
    measure_start = time.monotonic()
    while True:
        index = len(passes)
        if index < len(plan):
            traced = plan[index]
        else:
            traced = bool(args.trace) and not passes[-1]["traced"]
        same_kind = [p["wall_s"] for p in passes if p["traced"] == traced]
        estimate = max(same_kind or [p["wall_s"] for p in passes] or [0.0])
        now = time.monotonic()
        if index >= len(plan) and (now - measure_start + estimate > args.seconds
                                   or now + estimate > deadline):
            break
        job = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
               "trace": traced, "scratch": scratch, "pristine": pristine,
               "spans_path": str(out_dir / f"spans-{args.workload}-seed{args.seed}-"
                                           f"{time.time_ns()}.json.gz")}
        job["t_spawn"] = time.monotonic()
        code, out, err = run_child([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                                   env, deadline - job["t_spawn"])
        wall = time.monotonic() - job["t_spawn"]
        if code != 0:
            crashed.append(f"pass {index}: exit {code}: {err.strip()[-500:]}")
            attempted += 1
            failures.append(crashed[-1])
            break
        result = json.loads(out.strip().splitlines()[-1])
        result.update(traced=traced, wall_s=wall)
        attempted += result["attempted"]
        failures += result.pop("failures")
        passes.append(result)
        if traced:
            spans_files.append(job["spans_path"])

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    counts_ok = consistent([p["counts"] for p in passes])
    layer_counts_ok = consistent([
        {k: v for k, v in p["layers"].items() if k not in TIMED_METRICS}
        for p in traced_passes])
    cold_ok = all(p["cold_ok"] for p in passes)
    report.update({
        "passes": passes,
        "counts": passes[0]["counts"] if passes else None,
        "checks": {"counts_repeat": counts_ok, "layer_counts_repeat": layer_counts_ok,
                   "cold_start": cold_ok, "crashed": crashed},
        "failures": failures,
        "attempted": attempted,
        "fail_ratio": {"value": len(failures) / attempted if attempted else 1.0,
                       "unit": "failed/attempted"},
        "spans_files": spans_files,
        "elapsed_s": time.monotonic() - start,
    })
    stats = {name: summary([p[name] for p in plain], unit)
             for name, unit in {**E2E_METRICS, **RAW_TIMES}.items()}
    metrics = {}
    if args.trace:
        solve_plain = statistics.median([p["solve_s"] for p in plain]) if plain else None
        solve_traced = [p["solve_s"] for p in traced_passes]
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_ratio":
                values = [s / solve_plain for s in solve_traced] if solve_plain else []
            else:
                values = [p["layers"][name] for p in traced_passes]
            stats[name] = summary(values, unit)
            # counts repeat exactly (checked above), so report them as counted
            value = stats[name]["median"] if name in TIMED_METRICS or not values else values[0]
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in E2E_METRICS.items()}
    report["metrics"] = stats
    correct = (not failures and counts_ok and layer_counts_ok and cold_ok and bool(passes)
               and all(m["value"] is not None for m in metrics.values()))
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zerosumlab" / "__init__.py").is_file():
        print(f"error: no zerosumlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        report, result = measure(args, scratch, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
