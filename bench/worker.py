"""One benchmark operation in a fresh interpreter.

    python3 bench/worker.py --mode MODE --workload NAME --size SIZE
                            --seed N --out DIR --result FILE [--threads N]
                            [--seconds S]

Modes:
  setup   build the workload's inputs and stop (set-up time);
  op      run the workload once, untraced;
  loop    run it once at the tiny size to warm up, then again and again
          for --seconds, each run timed next to a calibration (wall time);
  trace   run it once with the span recorder installed (per-layer metrics);
  sweep   run the theory-session sweep alone at --threads (thread speed-up).

In setup, op, trace and sweep, times start at this file's first statement,
before numpy and dsgd_lab are imported, and end once the inputs are built
or the outputs written; setup then times the calibration loop
(bench/calib.py).  In loop, each step of an operation (workloads.steps) is
timed from its call to its return, and the calibration loop is timed
before and after each one.
The result (times, peak RSS, per-layer metrics) goes to --result as JSON;
the outputs go to --out, in loop mode one directory per operation
(warmup, 0000, 0001, ...).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import calib  # noqa: E402
import workloads  # noqa: E402


def loop(args) -> list:
    """Warm up, then time operations for args.seconds: at least one, and
    another only if half of the last one still fits.  Each step of an
    operation is calibrated by the mean of the workload's calibration loop
    times around it."""
    warmup = os.path.join(args.out, "warmup")
    os.makedirs(warmup)
    workloads.operation(args.workload, "tiny", args.seed, warmup)
    ops = []
    kind = workloads.CALIBRATION[args.workload]
    cal = calib.loop_s(kind)
    start = time.perf_counter()
    while True:
        out = os.path.join(args.out, f"{len(ops):04d}")
        os.makedirs(out)
        t_op = time.perf_counter()
        raw = calibrated = 0.0
        for step in workloads.steps(args.workload, args.size, args.seed, out):
            t0 = time.perf_counter()
            step()
            dt = time.perf_counter() - t0
            cal_after = calib.loop_s(kind)
            raw += dt
            calibrated += calib.calibrated(dt, (cal + cal_after) / 2, kind)
            cal = cal_after
        ops.append({"wall_s": raw, "calibrated_s": calibrated})
        now = time.perf_counter()
        if now - start + (now - t_op) / 2 >= args.seconds:
            return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("setup", "op", "loop", "trace", "sweep"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--size", required=True, choices=workloads.SIZES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    import dsgd_lab

    # a dsgd_lab from anywhere but this checkout's src/ would be some other
    # program
    if os.path.dirname(os.path.dirname(os.path.abspath(dsgd_lab.__file__))) != SRC:
        print(f"dsgd_lab imported from {dsgd_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    result = {}
    if args.mode == "setup":
        workloads.setup(args.workload, args.size, args.seed)
        result["setup_s"] = time.perf_counter() - T0
        result["cal_s"] = calib.loop_s("python")
    elif args.mode == "op":
        workloads.operation(args.workload, args.size, args.seed, args.out)
        result["wall_s"] = time.perf_counter() - T0
    elif args.mode == "loop":
        result["ops"] = loop(args)
    elif args.mode == "trace":
        import tracer

        rec = tracer.Tracer()
        with tracer.patched(rec):
            workloads.operation(args.workload, args.size, args.seed, args.out)
        result["wall_s"] = time.perf_counter() - T0
        result["layers"] = tracer.layer_metrics(rec)
    else:
        workloads.run_cli(workloads.sweep_argv(args.size, args.seed, args.out,
                                               threads=args.threads))
        result["wall_s"] = time.perf_counter() - T0

    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
