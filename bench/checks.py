"""Output checks for the benchmark operations.

Every operation's outputs go through two layers of checks, never skipped:

* structural checks that hold for any seed: the exact file set, headers,
  row counts, finite values, and each workload's own criterion (AC10's
  |z| <= 4 for ``stationary-gauss``, every `compare` verdict passing for
  ``theory-session``);
* reference values recorded at REFERENCE_SEED (reference.json).  Values
  that do not depend on the seed are compared on every run, the others
  only when the run uses REFERENCE_SEED.  The tolerance admits the 1e-12
  relative drift ROADMAP item 3 allows in CLI outputs, with margin.

An operation whose check returns any problem counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
import os

import workloads

REFERENCE_SEED = 0
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
REL_TOL = 1e-9
ABS_TOL = 1e-12
Z_LIMIT = 4.0

# keys whose reference value holds at every seed, by prefix
SEED_INDEPENDENT = {
    "rr-sto": (),
    "stationary-gauss": ("theta_star", "theta_det", "pred_shift"),
    "theory-session": ("graph/", "predict/", "verdict/", "sweep/"),
}

REPLICATE_HEADER = ["t", "dist_opt", "dist_det", "consensus_err",
                    "disagreement_norm"]
SWEEP_METRICS = ("bias_norm", "bias_norm_pred", "stat_trace", "stat_trace_pred")
RR_REPLICATES = 20
RR_RECORD_EVERY = 100


class Problems(list):
    def need(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def _read_csv(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0] if rows else [], rows[1:]


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _file_set(out: str, expected: set, problems: Problems) -> bool:
    found = set(os.listdir(out)) if os.path.isdir(out) else set()
    return problems.need(
        found == expected,
        f"output files differ: missing {sorted(expected - found)}, "
        f"unexpected {sorted(found - expected)}",
    )


def _table(path: str, header: list, n_rows: int, problems: Problems):
    """Rows of a CSV with the given header and row count, else None."""
    name = os.path.basename(path)
    head, rows = _read_csv(path)
    if not problems.need(head == header, f"{name}: header {head}"):
        return None
    if not problems.need(len(rows) == n_rows,
                         f"{name}: {len(rows)} rows, expected {n_rows}"):
        return None
    if not problems.need(all(len(r) == len(header) for r in rows),
                         f"{name}: ragged rows"):
        return None
    return rows


def _finite(values, label: str, problems: Problems) -> bool:
    bad = [v for v in values if not math.isfinite(v)]
    return problems.need(not bad, f"{label}: non-finite values {bad[:3]}")


# ---------------------------------------------------------------------------
# per-workload extraction: structural problems plus values to compare


def _rr_sto(size: str, out: str, problems: Problems, values: dict) -> None:
    T = workloads.RR_STEPS[size]
    times = sorted(set(range(0, T + 1, RR_RECORD_EVERY)) | {T})
    reps = [f"simulate_replicate{r:03d}.csv" for r in range(RR_REPLICATES)]
    if not _file_set(out, set(reps) | {"simulate_aggregate.csv"}, problems):
        return
    for r, name in enumerate(reps):
        rows = _table(os.path.join(out, name), REPLICATE_HEADER, len(times),
                      problems)
        if rows is None:
            continue
        problems.need([int(row[0]) for row in rows] == times,
                      f"{name}: unexpected t column")
        cols = list(zip(*[[_float(x) for x in row[1:]] for row in rows]))
        dist_opt, dist_det, cons, dis = cols
        for label, col in (("dist_opt", dist_opt), ("consensus_err", cons),
                           ("disagreement_norm", dis)):
            if _finite(col, f"{name} {label}", problems):
                problems.need(min(col) >= 0.0, f"{name} {label}: negative")
                values[f"rep{r}/{label}/sum"] = math.fsum(col)
                values[f"rep{r}/{label}/final"] = col[-1]
        # rr runs have no deterministic fixed point to measure against
        problems.need(all(math.isnan(v) for v in dist_det)
                      or all(math.isfinite(v) for v in dist_det),
                      f"{name}: dist_det mixes NaN and numbers")
    rows = _table(os.path.join(out, "simulate_aggregate.csv"),
                  ["t", "mean_dist", "std_dist"], len(times), problems)
    if rows is None:
        return
    problems.need([int(row[0]) for row in rows] == times,
                  "simulate_aggregate.csv: unexpected t column")
    for row in rows:
        mean, std = _float(row[1]), _float(row[2])
        if _finite([mean, std], f"aggregate t={row[0]}", problems):
            problems.need(mean >= 0.0 and std >= 0.0,
                          f"aggregate t={row[0]}: negative")
            values[f"agg/{row[0]}/mean"] = mean
            values[f"agg/{row[0]}/std"] = std


def _stationary_gauss(size: str, out: str, problems: Problems,
                      values: dict) -> None:
    if not _file_set(out, {workloads.OUTPUT_FILE}, problems):
        return
    with open(os.path.join(out, workloads.OUTPUT_FILE), encoding="utf-8") as fh:
        res = json.load(fh)
    keys = ("theta_star", "theta_det", "mean", "std_error", "pred_shift", "z",
            "n_effective", "replicates", "final_mean")
    if not problems.need(all(k in res for k in keys),
                         f"result keys {sorted(res)}"):
        return
    if not _finite([res[k] for k in keys], "stationary result", problems):
        return
    T, R, burn_in = workloads.GAUSS_SHAPE[size]
    problems.need(res["replicates"] == R, f"replicates {res['replicates']}")
    problems.need(res["n_effective"] == R * (T - burn_in),
                  f"n_effective {res['n_effective']}")
    problems.need(res["std_error"] > 0.0, "std_error is not positive")
    # one client: the fixed point is the optimum itself
    problems.need(abs(res["theta_det"] - res["theta_star"]) <= 1e-8,
                  f"fixed point {res['theta_det']} is not theta* "
                  f"{res['theta_star']}")
    problems.need(abs(res["z"]) <= Z_LIMIT,
                  f"mean shift is {res['z']:.2f} standard errors from the "
                  "first-order prediction")
    # z is a quotient of differences; its inputs are compared instead
    for k in ("theta_star", "theta_det", "mean", "std_error", "pred_shift",
              "final_mean"):
        values[k] = res[k]


def _sweep(path: str, size: str, problems: Problems, values: dict) -> None:
    gammas = workloads.SWEEP_GAMMAS[size].split(",")
    cells = [("12", topo, g, metric) for topo in ("ring", "clusters")
             for g in gammas for metric in SWEEP_METRICS]
    rows = _table(path, ["m", "topology", "gamma", "metric", "value"],
                  len(cells), problems)
    if rows is None:
        return
    found = {(r[0], r[1], _float(r[2]), r[3]): _float(r[4]) for r in rows}
    for m, topo, g, metric in cells:
        v = found.get((m, topo, float(g), metric))
        if not problems.need(v is not None and math.isfinite(v),
                             f"sweep cell {topo} {g} {metric}: {v}"):
            continue
        if metric.startswith("bias"):
            problems.need(v > 0.0, f"sweep {topo} {g} {metric} = {v}")
        else:
            problems.need(v == 0.0, f"sweep {topo} {g} {metric} = {v} without noise")
        values[f"sweep/{topo}/{g}/{metric}"] = v


def _theory_session(size: str, out: str, problems: Problems,
                    values: dict) -> None:
    files = {"graph_info_graph.csv", "predict_predictions.csv",
             "demo_verdicts.csv", "sweep_sweep.csv"}
    if not _file_set(out, files, problems):
        return
    fields = ["m", "lambda2", "lambda_min", "rho", "Lambda", "gap"]
    rows = _table(os.path.join(out, "graph_info_graph.csv"), fields, 1, problems)
    if rows is not None:
        nums = [_float(x) for x in rows[0]]
        if _finite(nums, "graph", problems):
            problems.need(nums[0] == 12, f"graph m = {rows[0][0]}")
            values.update({f"graph/{f}": v for f, v in zip(fields, nums)})

    head, rows = _read_csv(os.path.join(out, "predict_predictions.csv"))
    problems.need(head == ["quantity", "value"], f"predictions header {head}")
    names = [r[0] for r in rows]
    problems.need(len(set(names)) == len(names) > 0,
                  "predictions: empty or duplicate quantities")
    preds = {r[0]: _float(r[1]) for r in rows if len(r) == 2}
    problems.need(len(preds) == len(rows), "predictions: ragged rows")
    if _finite(list(preds.values()), "predictions", problems):
        values.update({f"predict/{k}": v for k, v in preds.items()})

    rows = _table(os.path.join(out, "demo_verdicts.csv"),
                  ["claim", "predicted", "observed", "tolerance", "status"],
                  3, problems)
    if rows is not None:
        claims = [r[0] for r in rows]
        problems.need(claims == ["LEMMA3", "BIAS_ORDER1", "RR_ORDER2"],
                      f"verdict claims {claims}")
        for r in rows:
            problems.need(r[4] == "pass", f"compare verdict {r[0]}: {r[4]}")
            observed = _float(r[2])
            if _finite([observed], f"verdict {r[0]}", problems):
                values[f"verdict/{r[0]}/observed"] = observed

    _sweep(os.path.join(out, "sweep_sweep.csv"), size, problems, values)


EXTRACT = {
    "rr-sto": _rr_sto,
    "stationary-gauss": _stationary_gauss,
    "theory-session": _theory_session,
}


def extract(workload: str, size: str, out: str):
    """(structural problems, comparable values) of one operation's outputs."""
    problems, values = Problems(), {}
    try:
        EXTRACT[workload](size, out, problems, values)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable outputs: {exc!r}")
    return problems, values


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def compare(workload: str, size: str, seed: int, values: dict,
            reference: dict) -> list:
    """Differences from the recorded reference values."""
    ref = reference.get(f"{workload}/{size}")
    if ref is None:
        return [f"no reference values for {workload}/{size}"]
    problems = Problems()
    # value names do not depend on the seed, only some of the values do
    problems.need(set(values) == set(ref),
                  f"value set differs from the reference: missing "
                  f"{sorted(set(ref) - set(values))[:5]}, unexpected "
                  f"{sorted(set(values) - set(ref))[:5]}")
    keys = values.keys() & ref.keys()
    if seed != reference["seed"]:
        indep = SEED_INDEPENDENT[workload]
        keys = [k for k in keys if indep and k.startswith(indep)]
    for k in sorted(keys):
        problems.need(
            math.isclose(values[k], ref[k], rel_tol=REL_TOL, abs_tol=ABS_TOL),
            f"{k} = {values[k]!r}, reference {ref[k]!r}",
        )
    return problems


def check(workload: str, size: str, seed: int, out: str,
          reference: dict) -> list:
    """Every problem found in one operation's outputs; empty when correct."""
    problems, values = extract(workload, size, out)
    return problems + compare(workload, size, seed, values, reference)


def check_sweep(size: str, out: str, reference: dict) -> list:
    """Checks of a lone sweep run (the thread-count comparison)."""
    problems, values = Problems(), {}
    if _file_set(out, {"sweep_sweep.csv"}, problems):
        _sweep(os.path.join(out, "sweep_sweep.csv"), size, problems, values)
    ref = reference.get(f"theory-session/{size}", {})
    for k, v in values.items():
        problems.need(k in ref and math.isclose(v, ref[k], rel_tol=REL_TOL,
                                                abs_tol=ABS_TOL),
                      f"{k} = {v!r}, reference {ref.get(k)!r}")
    return problems
