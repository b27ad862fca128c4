"""dsgd-lab benchmark: three workloads, output checks, end-to-end metrics.

    python3 bench/run.py --workload rr-sto --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

--seconds defaults to run_seconds of BENCHMARK.json, which also names the
metrics and their units.

Run from the root of a checkout; the program is imported from its src/.
Workers (bench/worker.py) run with one Python thread and one BLAS thread,
and every operation's outputs are checked (bench/checks.py) before they
are deleted.

--trace 0 takes SETUP_SAMPLES set-up samples, each in a fresh interpreter,
  then runs one worker that warms up and repeats the workload for
  --seconds, and reports the medians of
  wall_s      time to result, output writing included;
  setup_s     fresh interpreter to built inputs, imports included;
  rss_peak_mb peak resident set of the workload process.
  Both times are calibrated against a fixed loop timed next to each sample
  in the same process (bench/calib.py), because the shared host's speed
  drifts over minutes; the uncalibrated medians are printed too.
--trace 1 alternates traced and untraced operations, each in a fresh
  interpreter, for --seconds and reports the per-layer metrics of
  bench/tracer.py, the tracing overhead, and the theory-session sweep's
  speed-up from 1 to 2 threads.

The last line of output is one JSON object: correct, attempted, failed
(operations whose process failed or whose outputs failed a check; their
ratio is fail_frac) and metrics.  Set-up samples and the warm-up count as
operations."""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "dsgd_lab")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

import calib  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
OP_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    # DSGD_LAB_SEED would silently override run.seed; seeds are passed
    # explicitly instead
    env.pop("DSGD_LAB_SEED", None)
    env.pop("PYTHONPATH", None)
    # bytecode caches are written, as for an installed package, so set-up
    # is measured in the steady state
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(PACKAGE)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(env: dict) -> dict:
    """What a result was measured on, printed with every result."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_ambient": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_used": {v: env.get(v) for v in BLAS_THREAD_VARS},
        "DSGD_LAB_SEED_ambient": os.environ.get("DSGD_LAB_SEED"),
        "DSGD_LAB_SEED_used": env.get("DSGD_LAB_SEED"),
        "PYTHONDONTWRITEBYTECODE_ambient": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def run_worker(mode: str, workload: str, size: str, seed: int, base: str,
               env: dict, threads: int = 1, seconds: float = 0.0):
    """One worker process writing under base/out: (exit code, result, stderr)."""
    out = os.path.join(base, "out")
    os.makedirs(out)
    result_path = os.path.join(base, "result.json")
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
           "--size", size, "--seed", str(seed), "--out", out,
           "--result", result_path, "--threads", str(threads),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=OP_TIMEOUT_S + seconds)
    result = None
    if proc.returncode == 0:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    return proc.returncode, result, proc.stderr


class Session:
    """Runs workers for one workload and tallies their operations."""

    def __init__(self, workload: str, size: str, seed: int, run_dir: str,
                 env: dict, reference: dict):
        self.workload, self.size, self.seed = workload, size, seed
        self.run_dir, self.env, self.reference = run_dir, env, reference
        self.attempted = self.failed = 0
        self._ids = itertools.count()

    def _tally(self, mode: str, problems: list) -> bool:
        """Count one operation; True if it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {self.workload} {mode}: " + "; ".join(problems[:5]),
                  file=sys.stderr)
        return not problems

    def _check(self, mode: str, size: str, out: str) -> list:
        if mode == "setup":
            return []
        if mode == "sweep":
            return checks.check_sweep(size, out, self.reference)
        return checks.check(self.workload, size, self.seed, out, self.reference)

    def worker(self, mode: str, threads: int = 1, seconds: float = 0.0):
        """Run one worker and check its outputs; the result dict, or None.
        In loop mode every operation is checked and counted, and the result
        keeps the operations that passed."""
        base = os.path.join(self.run_dir, f"{next(self._ids):04d}")
        out = os.path.join(base, "out")
        try:
            code, result, stderr = run_worker(
                mode, self.workload, self.size, self.seed, base, self.env,
                threads, seconds)
            if code != 0:
                self._tally(mode, [f"exit {code}: {stderr.strip()[-2000:]}"])
                return None
            if mode == "loop":
                self._tally("warmup", self._check(
                    "op", "tiny", os.path.join(out, "warmup")))
                result["ops"] = [
                    op for i, op in enumerate(result["ops"])
                    if self._tally(mode, self._check(
                        "op", self.size, os.path.join(out, f"{i:04d}")))]
                return result
            return result if self._tally(
                mode, self._check(mode, self.size, out)) else None
        except subprocess.TimeoutExpired:
            self._tally(mode, [f"timed out after {OP_TIMEOUT_S + seconds} s"])
            return None
        finally:
            shutil.rmtree(base, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else None


def _rounds(seconds: float, one_round) -> None:
    """Repeat one_round for about `seconds`: at least once, and another round
    only if half of the last one still fits."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            return


def measure(session: Session, seconds: float) -> dict:
    """End-to-end samples: set-up from fresh processes, then one warm
    process repeating the operation for `seconds`.  Times are calibrated
    (bench/calib.py); the raw ones are kept under raw_*."""
    session.worker("setup")  # fills bytecode caches; not a sample
    samples = {"wall_s": [], "setup_s": [], "rss_peak_mb": [],
               "raw_wall_s": [], "raw_setup_s": []}
    for _ in range(SETUP_SAMPLES):
        res = session.worker("setup")
        if res is not None:
            samples["setup_s"].append(
                calib.calibrated(res["setup_s"], res["cal_s"], "python"))
            samples["raw_setup_s"].append(res["setup_s"])
    res = session.worker("loop", seconds=seconds)
    if res is not None:
        for op in res["ops"]:
            samples["wall_s"].append(op["calibrated_s"])
            samples["raw_wall_s"].append(op["wall_s"])
        if res["ops"]:
            samples["rss_peak_mb"].append(res["rss_mb"])
    return samples


def measure_traced(session: Session, seconds: float) -> dict:
    """Per-layer samples: traced operations alternating with untraced ones."""
    session.worker("setup")  # fills bytecode caches; not a sample
    traced, plain = [], []

    def one_round():
        res = session.worker("trace")
        if res is not None:
            traced.append(res)
        res = session.worker("op")
        if res is not None:
            plain.append(res["wall_s"])

    _rounds(seconds, one_round)
    samples = {}
    if traced:
        for name in traced[0]["layers"]:
            samples[name] = [r["layers"][name] for r in traced]
    one = session.worker("sweep", threads=1)
    two = session.worker("sweep", threads=2)
    if one is not None and two is not None:
        samples["cli.sweep.speedup_2t"] = [one["wall_s"] / two["wall_s"]]
    if traced and plain:
        ratio = _median([r["wall_s"] for r in traced]) / _median(plain)
        samples["trace.overhead_frac"] = [ratio - 1.0]
    return samples


def run_workload(workload: str, args, env: dict, reference: dict):
    run_dir = os.path.join(OUT_ROOT, f"run-{os.getpid()}-{workload}")
    os.makedirs(run_dir, exist_ok=True)
    session = Session(workload, args.size, args.seed, run_dir, env, reference)
    try:
        if args.trace:
            samples, units = measure_traced(session, args.seconds), LAYER_UNITS
        else:
            samples, units = measure(session, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    missing = [name for name in units if not samples.get(name)]
    for name in missing:
        print(f"FAILED {workload}: no measurement of {name}", file=sys.stderr)
    metrics = {name: {"value": _median(samples[name]), "unit": unit}
               for name, unit in units.items() if name not in missing}
    print(f"{workload} (seed {args.seed}, size {args.size}):")
    for name, unit in units.items():
        if name in metrics:
            vals = samples[name]
            print(f"  {name:34s} {metrics[name]['value']:.6g} {unit} "
                  f"(median of {len(vals)}; min {min(vals):.6g}, "
                  f"max {max(vals):.6g})")
    for name in ("wall_s", "setup_s"):
        raw = samples.get("raw_" + name)
        if raw:
            print(f"  {'(uncalibrated ' + name + ')':34s} {_median(raw):.6g} s "
                  f"(min {min(raw):.6g}, max {max(raw):.6g})")
    frac = session.failed / session.attempted
    print(f"  {'fail_frac':34s} {frac:.6g} share "
          f"({session.failed} of {session.attempted} operations)")
    return session, metrics, bool(missing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs the same workloads at test sizes")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no dsgd_lab package under {os.path.dirname(PACKAGE)}; run from "
              "the root of a dsgd-lab checkout", file=sys.stderr)
        return 2
    reference = checks.load_reference()
    env = child_env()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    incomplete = False
    metrics = {}
    try:
        for name in names:
            session, found, missing = run_workload(name, args, env, reference)
            attempted += session.attempted
            failed += session.failed
            incomplete |= missing
            if args.workload == "all":
                found = {f"{name}.{k}": v for k, v in found.items()}
            metrics.update(found)
    finally:
        if os.path.isdir(OUT_ROOT) and not os.listdir(OUT_ROOT):
            os.rmdir(OUT_ROOT)
    print("env " + json.dumps(environment(env), sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not incomplete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
