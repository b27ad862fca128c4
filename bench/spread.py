"""Run the benchmark several times per workload and report how its
end-to-end metrics spread.

    python3 bench/spread.py [--runs 10] [--first-seed 1001]
                            [--workloads rr-sto,theory-session] [--json FILE]

Each run is `bench/run.py --workload W --seed S --trace 0`, with seeds
first-seed, first-seed + 1, ...  For every workload and metric it prints the
median of the run values and their spread, (q3 - q1) / median with
statistics.quantiles(values, n=4), against the metric's bound in
BENCHMARK.json; the uncalibrated times run.py prints are listed too, with
no bound.  --json writes the same table as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1001)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(args.first_seed + i), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} run {i}: not correct\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in proc.stdout.splitlines():
                if line.strip().startswith("(uncalibrated "):
                    name, value = line.strip()[1:].split(")", 1)
                    values.setdefault(name, []).append(float(value.split()[0]))
        table[workload] = {name: summary(v) for name, v in values.items()}
        for name, s in table[workload].items():
            print(f"{workload:17s} {name:22s} median {s['median']:.6g} "
                  f"spread {s['spread']:.3f} (bound {bounds.get(name)})",
                  flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
