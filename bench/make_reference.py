"""Record the reference output values the benchmark checks against.

    python3 bench/make_reference.py

Runs every workload once per size at checks.REFERENCE_SEED and writes the
values checks.extract finds to bench/reference.json.  Run it only when a
change is meant to move the outputs, and say so in the change.
"""

import json
import os
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    env = run.child_env()
    reference = {"seed": checks.REFERENCE_SEED}
    base = os.path.join(run.OUT_ROOT, f"reference-{os.getpid()}")
    try:
        for workload in workloads.WORKLOADS:
            for size in workloads.SIZES:
                where = os.path.join(base, f"{workload}-{size}")
                code, _, stderr = run.run_worker(
                    "op", workload, size, checks.REFERENCE_SEED, where, env)
                if code != 0:
                    print(f"{workload}/{size}: exit {code}\n{stderr}",
                          file=sys.stderr)
                    return 1
                problems, values = checks.extract(workload, size,
                                                  os.path.join(where, "out"))
                if problems:
                    print(f"{workload}/{size}: {problems}", file=sys.stderr)
                    return 1
                reference[f"{workload}/{size}"] = values
                print(f"{workload}/{size}: {len(values)} values")
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if os.path.isdir(run.OUT_ROOT) and not os.listdir(run.OUT_ROOT):
            os.rmdir(run.OUT_ROOT)
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
