"""Tests of the benchmark itself, at the tiny workload sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracer
import workloads

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def _last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_and_no_failure(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert "fail_frac" in proc.stdout


def test_loop_worker_checks_the_warmup_and_every_operation(tmp_path):
    session = run.Session("stationary-gauss", "tiny", checks.REFERENCE_SEED,
                          str(tmp_path), run.child_env(),
                          checks.load_reference())
    result = session.worker("loop", seconds=0.0)
    assert result is not None and len(result["ops"]) == 1
    assert (session.attempted, session.failed) == (2, 0)
    assert result["ops"][0]["wall_s"] > 0
    assert result["ops"][0]["calibrated_s"] > 0


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "rr-sto", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# the output checks catch corrupted outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Outputs of one tiny operation per workload at the reference seed."""
    base = tmp_path_factory.mktemp("outputs")
    env = run.child_env()
    found = {}
    for workload in workloads.WORKLOADS:
        where = str(base / workload)
        code, _, stderr = run.run_worker("op", workload, "tiny",
                                         checks.REFERENCE_SEED, where, env)
        assert code == 0, stderr
        found[workload] = os.path.join(where, "out")
    return found


def _copy(outputs, workload, tmp_path):
    dest = tmp_path / workload
    shutil.copytree(outputs[workload], dest)
    return str(dest)


def _edit_csv(path, row, col, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = edit(rows[row][col])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _perturb(text):
    return repr(float(text) * (1.0 + 1e-6))


CSV_CORRUPTIONS = [
    ("rr-sto", "simulate_replicate007.csv", 3, 1),
    ("rr-sto", "simulate_aggregate.csv", 5, 1),
    ("theory-session", "predict_predictions.csv", 4, 1),
    ("theory-session", "sweep_sweep.csv", 1, 4),
    ("theory-session", "graph_info_graph.csv", 1, 1),
    ("theory-session", "demo_verdicts.csv", 2, 2),
]


def _check(workload, out, seed=checks.REFERENCE_SEED):
    return checks.check(workload, "tiny", seed, out, checks.load_reference())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_clean_outputs_pass(outputs, workload):
    assert _check(workload, outputs[workload]) == []


@pytest.mark.parametrize("workload,name,row,col", CSV_CORRUPTIONS)
@pytest.mark.parametrize("edit", [lambda _: "nan", _perturb],
                         ids=["nan", "perturbed"])
def test_corrupted_csv_value_is_caught(outputs, tmp_path, workload, name, row,
                                       col, edit):
    out = _copy(outputs, workload, tmp_path)
    _edit_csv(os.path.join(out, name), row, col, edit)
    assert _check(workload, out)


@pytest.mark.parametrize("key,value", [("mean", float("nan")),
                                       ("std_error", 1.000001),
                                       ("z", 4.5)])
def test_corrupted_stationary_result_is_caught(outputs, tmp_path, key, value):
    out = _copy(outputs, "stationary-gauss", tmp_path)
    path = os.path.join(out, workloads.OUTPUT_FILE)
    with open(path, encoding="utf-8") as fh:
        res = json.load(fh)
    res[key] = res[key] * value if key == "std_error" else value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    assert _check("stationary-gauss", out)


def test_failed_verdict_missing_file_and_nan_are_caught_at_any_seed(
        outputs, tmp_path):
    out = _copy(outputs, "theory-session", tmp_path)
    _edit_csv(os.path.join(out, "demo_verdicts.csv"), 1, 4, lambda _: "fail")
    assert _check("theory-session", out, seed=123)
    out = _copy(outputs, "rr-sto", tmp_path / "a")
    os.remove(os.path.join(out, "simulate_replicate019.csv"))
    assert _check("rr-sto", out, seed=123)
    out = _copy(outputs, "rr-sto", tmp_path / "b")
    _edit_csv(os.path.join(out, "simulate_replicate000.csv"), 2, 3,
              lambda _: "nan")
    assert _check("rr-sto", out, seed=123)


# ---------------------------------------------------------------------------
# the span recorder


def _span(name, start, end, parent=None):
    return tracer.Span(name, start, end, parent, 0.0)


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0, 0),
             _span("c", 3.0, 5.0, 0), _span("d", 6.0, 7.0, 0),
             _span("e", 1.5, 2.0, 1)]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.5, 2.0, 1.0, 0.5])


def test_patched_restores_the_package_and_counts_exactly(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from dsgd_lab import cli, dynamics, noise

        before = (cli.main, dynamics.run, dynamics.rr_run,
                  noise.NoiseStream.raw_block)
        counts = []
        for i in range(2):
            rec = tracer.Tracer()
            with tracer.patched(rec):
                assert dynamics.rr_run is not before[2]
                out = tmp_path / str(i)
                out.mkdir()
                workloads.run_cli(workloads.sweep_argv("tiny", 0, str(out)))
            counts.append(tracer.layer_metrics(rec))
        assert before == (cli.main, dynamics.run, dynamics.rr_run,
                          noise.NoiseStream.raw_block)
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))
    first, second = counts
    assert first["dynamics.fixed_point.calls"] == 4
    assert first["dynamics.fixed_point.iterations"] > 0
    assert first["dynamics.fixed_point.iterations"] == \
        second["dynamics.fixed_point.iterations"]
    assert first["cli.self_s"] > 0.0
