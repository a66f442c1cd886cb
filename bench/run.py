"""inlslab benchmark: runs one workload for a fixed time and prints its metrics.

    python3 bench/run.py --workload blowup_1d --seed 0 --seconds 40 --trace 0

Each repetition runs in a fresh process (``child.py``), one at a time and
single-threaded (closed loop, one client). Repetitions start back to back
until the measured time is spent. With ``--trace 0`` the last stdout line
carries the end-to-end metrics (medians over the repetitions); with
``--trace 1`` untraced and traced repetitions alternate and it carries the
per-layer metrics of the traced ones plus ``trace.overhead``. The line
before it is a JSON record with the sample counts, tail percentiles, the
machine, computed kernel counts and any failures. Metric names and units
come from ``BENCHMARK.json``.

Runs only from the root of a source checkout: with no ``src/inlslab`` it
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the whole run must end within 180 s; leave room for the last repetition
HARD_LIMIT_S = 165.0


def run_repetition(name, seed, traced, index, work_root, time_left):
    workdir = os.path.join(work_root, f"rep{index}")
    os.makedirs(workdir)
    result_path = os.path.join(work_root, f"rep{index}.json")
    env = dict(os.environ, **THREAD_VARS)
    spawned = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed),
            "1" if traced else "0", repr(spawned), workdir, result_path]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=time_left)
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        stderr = "repetition timed out"
    elapsed = time.monotonic() - spawned
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"ok": False, "failures": [f"no result from child: {stderr[-2000:]}"]}
    shutil.rmtree(workdir, ignore_errors=True)
    result.update(traced=traced, elapsed=elapsed)
    return result


def determinism_guard(reps):
    """Fail every repetition whose output hash differs from the first one's."""
    first = next((r["hash"] for r in reps if r.get("hash")), None)
    for r in reps:
        if r.get("hash") and r["hash"] != first:
            r["ok"] = False
            r["failures"].append("output hash differs from the first repetition of this run")


def tail(values):
    """(p, value) for the highest whole percentile with at least ten samples
    beyond it, or None when there are ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    p = (100 * (n - 10)) // n
    return {"p": p, "value": tracing.percentile(values, p)}


def summary(values, unit):
    return {"median": statistics.median(values), "unit": unit, "n": len(values),
            "tail": tail(values), "samples": values}


def machine_record():
    rec = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "threads": THREAD_VARS}
    for pkg in ("numpy", "scipy"):
        try:
            rec[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            rec[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), None)
    except OSError:
        rec["cpu"] = None
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (read_text(os.path.join(d, f)) for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    rec["caches"] = caches
    rec["git_commit"] = git_commit()
    return rec


def read_text(path):
    with open(path) as fh:
        return fh.read().strip()


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        head = read_text(os.path.join(git, "HEAD"))
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            return read_text(os.path.join(git, ref))
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next((ln.split()[0] for ln in fh if ln.strip().endswith(ref)), None)
    except OSError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "inlslab", "__init__.py")):
        print("error: no src/inlslab next to the benchmark; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    name, traced_run = args.workload, bool(args.trace)
    work_root = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(work_root, exist_ok=True)
    reps = []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            if HARD_LIMIT_S - elapsed < 5.0:
                break
            traced = traced_run and len(reps) % 2 == 1
            reps.append(run_repetition(name, args.seed, traced, len(reps), work_root,
                                       HARD_LIMIT_S - elapsed))
            elapsed = time.monotonic() - start
            typical = statistics.median(r["elapsed"] for r in reps)
            enough = len(reps) >= 2 if traced_run else True
            if enough and (elapsed + 0.5 * typical >= args.seconds
                           or elapsed + typical > HARD_LIMIT_S):
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    determinism_guard(reps)
    failed = sum(not r["ok"] for r in reps)

    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    if not plain:
        print(json.dumps({"error": "no repetition produced timings",
                          "failures": [r["failures"] for r in reps]}), file=sys.stderr)
        return 1
    record = {
        "workload": name, "seed": args.seed,
        "variant": workloads.variant(args.seed), "repetitions": len(reps),
        "load": "closed loop, one client, one repetition per fresh process",
        "failed_share": failed / len(reps),
        "failures": [f for r in reps for f in r["failures"]][:5],
        "machine": machine_record(),
        "kernels": workloads.computed_kernels(name),
        "wall_s": summary([r["wall_s"] for r in plain], "s"),
        "setup_s": summary([r["setup_s"] for r in plain], "s"),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain], "MB"),
    }
    if plain[0].get("steps"):
        record["steps_per_s"] = summary([r["steps"] / r["wall_s"] for r in plain], "1/s")
    if "concavity_fraction" in plain[0]:
        record["concavity_fraction"] = plain[0]["concavity_fraction"]

    if not traced_run:
        metrics = {m["name"]: {"value": record[m["name"]]["median"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        traced_reps = [r for r in reps if r["traced"] and "spans" in r]
        if not traced_reps:
            print("error: no traced repetition completed", file=sys.stderr)
            return 1
        per_rep = [tracing.layer_metrics(r["spans"]) for r in traced_reps]
        values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        values["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced_reps)
                                    / record["wall_s"]["median"])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        last_spans = traced_reps[-1]["spans"]
        record["transforms_by_caller"] = tracing.transforms_by_caller(last_spans)
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        with open(os.path.join(ROOT, ".bench_work", f"spans_{name}.json"), "w") as fh:
            json.dump(last_spans, fh)

    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
