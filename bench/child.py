"""One repetition of one workload, in a fresh process.

    python3 bench/child.py <workload> <seed> <trace 0|1> <spawn time> <workdir> <result.json>

<spawn time> is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there until the package is imported
and the inputs are parsed. Wall time runs from the first call into the
package to the last output checked. The result file receives the timings,
peak RSS, check failures, output hashes and, when traced, the spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    name, seed, traced, spawned, workdir, result_path = argv
    seed, traced, spawned = int(seed), traced == "1", float(spawned)
    result = {"ok": False, "failures": []}
    try:
        import checks
        import tracing
        import workloads

        import inlslab.cli  # noqa: F401  (the package import counted in set-up)

        warnings.simplefilter("ignore")  # box-adequacy warnings of the 1D run
        tracer = tracing.Tracer()
        if traced:
            tracing.install(tracer)
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)[name][str(workloads.variant(seed))]
        inp = workloads.inputs(name, seed, workdir)
        prepared = workloads.prepare(name, inp)
        t0 = time.monotonic()
        result["setup_s"] = t0 - spawned

        out = workloads.execute(name, prepared, inp)
        failures = checks.check(name, out, ref)
        result["wall_s"] = time.monotonic() - t0

        digest = hashlib.sha256()
        for path in workloads.hashed_files(name, inp):
            with open(path, "rb") as fh:
                digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
        digest.update(json.dumps(out, sort_keys=True).encode())
        result.update(
            ok=not failures,
            failures=failures,
            hash=digest.hexdigest(),
            steps=out["manifest"]["steps"] if "manifest" in out else None,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if name == "blowup_1d":
            fd = [x for x in out["zR_second_fd"] if x == x]
            result["concavity_fraction"] = sum(x < 0 for x in fd) / len(fd) if fd else None
        if traced:
            result["spans"] = tracer.spans
    except Exception:  # noqa: BLE001 - any exception is a failed repetition
        result["failures"].append(traceback.format_exc())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if result["ok"] else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
