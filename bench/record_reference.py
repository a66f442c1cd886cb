"""Record the reference values the output checks compare against.

    python3 bench/record_reference.py [workload ...]

Runs every input variant of the named workloads (all three by default)
once, checks each result against itself so structural checks still apply,
and rewrites ``reference.json``. Run it only on a commit whose results are
known to be right; the recorded file is committed with the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

PATH = os.path.join(HERE, "reference.json")


def main(names) -> int:
    warnings.simplefilter("ignore")
    try:
        with open(PATH) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    workdir = os.path.join(ROOT, ".bench_work", "reference")
    for name in names or workloads.NAMES:
        ref[name] = {}
        for v in range(workloads.VARIANTS):
            shutil.rmtree(workdir, ignore_errors=True)
            inp = workloads.inputs(name, v, workdir)
            out = workloads.execute(name, workloads.prepare(name, inp), inp)
            entry = checks.reference_entry(name, out)
            failures = checks.check(name, out, entry)
            if failures:
                print(f"{name} variant {v}: {failures}", file=sys.stderr)
                return 1
            ref[name][str(v)] = entry
            print(name, v, json.dumps(entry), flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
