"""Command-line front end.

Subcommands: graph-info, simulate, predict, compare, sweep.  Configuration
comes from a `section.key = value` file plus `--set` overrides and a few
convenience flags; see ExperimentConfig for the format.  All outputs are
CSV files with a header row and floats at 17 significant digits, so a rerun
with the same config and seed is byte-identical.

Exit codes: 0 success (all claims pass), 1 configuration or I/O error
(an unknown config key included), 2 assumption violation, step-size gate,
divergence (a non-finite iterate), or failed claim.
"""

import argparse
import itertools
import os
import sys
from dataclasses import replace

import numpy as np

from . import dynamics, stats, theory, topology
from ._textio import write_csv
from .config import ExperimentConfig
from .errors import (
    BudgetExceededError,
    ConfigError,
    DisconnectedError,
    DivergenceError,
    DsgdLabError,
    StepTooLargeError,
)
from .noise import AdditiveGaussian, Minibatch
from .objectives import QuadraticObjectives, generate_logistic_problem
from .stacked import StackedPoint

MAX_SWEEP_CELLS = 200

# verdict tolerances used by cmd_compare: order-fit slopes must land in
# [0.95, 1.05] resp. [1.8, 2.2], stationary statistics within 4 standard
# errors of the prediction
SLOPE1_TOL = 0.05
SLOPE2_TOL = 0.2
Z_TOL = 4.0

# Desk-scale presets mirroring the published logistic experiments (d = 2,
# gamma = 1e-3, 20 stochastic replicates, m = 12 arranged as 4 clusters of 3
# for the clustered runs).  T is sized so (1 - gamma mu)^T <= 1e-3 with
# mu = lambda = 0.1, and theta0 = 0; both are choices, the source setup
# leaves them unspecified.  record_every keeps trajectory files compact.
_PRESET_T = 69100

_FIG2_COMMON = {
    "topology.kind": "ring",
    "topology.m": "12",
    "objective.kind": "logistic",
    "objective.d": "2",
    "objective.n": "50",
    "objective.lambda_reg": "0.1",
    "objective.seed": "0",
    "noise.variant": "minibatch",
    "noise.batch_size": "10",
    "run.algorithm": "dsgd",
    "run.gamma": "0.001",
    "run.T": str(_PRESET_T),
    "run.replicates": "20",
    "run.record_every": "100",
    "run.seed": "0",
}

_FIG1_COMMON = {
    "topology.kind": "clusters",
    "topology.m": "12",
    "topology.clusters": "4",
    "topology.t": "0.2",
    "topology.bridge_weight": "1.0",
    "objective.kind": "logistic",
    "objective.d": "2",
    "objective.n": "50",
    "objective.heterogeneity_spread": "2.0",
    "objective.lambda_reg": "0.1",
    "objective.seed": "0",
    "run.gamma": "0.001",
    "run.T": str(_PRESET_T),
    "run.record_every": "100",
    "run.seed": "0",
}

PRESETS = {
    "fig2-heterogeneous": dict(_FIG2_COMMON, **{"objective.heterogeneity_spread": "2.0"}),
    "fig2-homogeneous": dict(_FIG2_COMMON, **{"objective.heterogeneity_spread": "0.0"}),
    "fig1-rr-det": dict(
        _FIG1_COMMON,
        **{
            "noise.variant": "none",
            "run.algorithm": "rr_dgd",
            "run.replicates": "1",
        },
    ),
    "fig1-rr-sto": dict(
        _FIG1_COMMON,
        **{
            "noise.variant": "minibatch",
            "noise.batch_size": "10",
            "run.algorithm": "rr_dsgd",
            "run.replicates": "20",
        },
    ),
}


def preset_config(name: str) -> ExperimentConfig:
    try:
        entries = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return ExperimentConfig(dict(entries))


# ---------------------------------------------------------------------------
# config -> model objects


def build_topology(cfg: ExperimentConfig):
    kind = cfg.get("topology", "kind").strip().lower().replace("-", "_")
    t = cfg.get("topology", "t")
    if kind == "edge_list":
        path = cfg.get("topology", "path")
        L = topology.load_edge_list(path)
        if t is None:
            raise ConfigError("missing required config entry topology.t")
        W = topology.from_laplacian(L, t)
        if cfg.has("topology", "m") and cfg.get("topology", "m") != W.m:
            raise ConfigError(
                f"topology.m = {cfg.get('topology', 'm')} does not match the "
                f"{W.m} nodes in {path}"
            )
        return W
    m = cfg.get("topology", "m")
    if kind in ("full", "fully_connected", "complete"):
        return topology.build_fully_connected(m)
    if kind == "ring":
        return topology.build_ring(m, topology.RING_DEFAULT_STEP if t is None else t)
    if kind in ("clusters", "cluster"):
        return topology.build_clusters(
            m,
            cfg.get("topology", "clusters"),
            0.2 if t is None else t,
            cfg.get("topology", "bridge_weight"),
        )
    raise ConfigError(
        f"unknown topology.kind {kind!r}; expected fully_connected, ring, "
        "clusters, or edge_list"
    )


def _quadratic_from_config(cfg: ExperimentConfig, m: int) -> QuadraticObjectives:
    d = cfg.get("objective", "d")
    scales = cfg.get("objective", "scales")
    if scales is not None:
        # explicit isotropic form: f_k = a_k/2 ||theta - c_k||^2 with the
        # per-client curvatures and centers given inline
        centers = cfg.get("objective", "centers")
        if len(scales) != m:
            raise ConfigError(
                f"objective.scales needs {m} entries (one per client), got "
                f"{len(scales)}"
            )
        if len(centers) != m * d:
            raise ConfigError(
                f"objective.centers needs m*d = {m * d} entries, got "
                f"{len(centers)}"
            )
        A = np.einsum("k,ij->kij", np.asarray(scales), np.eye(d))
        loc = np.asarray(centers, dtype=float).reshape(m, d)
        return QuadraticObjectives(A, loc)
    # generated form: random SPD curvature with eigenvalues in
    # [scale_min, scale_max] and centers spread * N(0, I)
    scale_min = cfg.get("objective", "scale_min")
    scale_max = cfg.get("objective", "scale_max")
    spread = cfg.get("objective", "spread")
    seed = cfg.get("objective", "seed")
    if not (0.0 < scale_min <= scale_max):
        raise ConfigError(
            f"need 0 < objective.scale_min <= objective.scale_max, got "
            f"{scale_min}, {scale_max}"
        )
    rng = np.random.default_rng(seed)
    A = np.empty((m, d, d))
    for k in range(m):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lams = rng.uniform(scale_min, scale_max, size=d)
        A[k] = (Q * lams) @ Q.T
    loc = spread * rng.standard_normal((m, d))
    return QuadraticObjectives(A, loc)


def build_objective(cfg: ExperimentConfig, m: int):
    kind = cfg.get("objective", "kind").strip().lower()
    if kind == "quadratic":
        return _quadratic_from_config(cfg, m)
    if kind == "logistic":
        return generate_logistic_problem(
            m,
            n=cfg.get("objective", "n"),
            d=cfg.get("objective", "d"),
            heterogeneity_spread=cfg.get("objective", "heterogeneity_spread"),
            lambda_reg=cfg.get("objective", "lambda_reg"),
            seed=cfg.get("objective", "seed"),
        )
    raise ConfigError(
        f"unknown objective.kind {kind!r}; expected quadratic or logistic"
    )


def build_noise(cfg: ExperimentConfig, obj):
    variant = cfg.get("noise", "variant").strip().lower()
    if variant in ("none", "off"):
        return None
    if variant == "gaussian":
        return AdditiveGaussian.isotropic(obj.m, obj.d, cfg.get("noise", "sigma2"))
    if variant == "minibatch":
        return Minibatch(cfg.get("noise", "batch_size"))
    raise ConfigError(
        f"unknown noise.variant {variant!r}; expected none, gaussian, or "
        "minibatch"
    )


def build_run_config(cfg: ExperimentConfig) -> dynamics.RunConfig:
    return dynamics.RunConfig(
        **{key: cfg.get("run", key) for key in (
            "algorithm", "gamma", "T", "seed", "replicates", "burn_in",
            "record_every", "coupling")}
    )


# ---------------------------------------------------------------------------
# subcommands


def _resolve_output(cfg: ExperimentConfig, args, command: str):
    out_dir = args.out if args.out is not None else cfg.get("output", "directory")
    prefix = cfg.get("output", "prefix")
    if prefix is None:
        prefix = command
    os.makedirs(out_dir, exist_ok=True)
    return out_dir, prefix


def cmd_graph_info(cfg: ExperimentConfig, args) -> int:
    W = build_topology(cfg)
    sp = W.spectral
    fields = [
        ("m", W.m),
        ("lambda2", sp.lambda2),
        ("lambda_min", sp.lambda_min),
        ("rho", sp.rho),
        ("Lambda", sp.Lambda),
        ("gap", sp.gap),
    ]
    for name, value in fields:
        print(f"{name} = {value:.12g}")
    out_dir, prefix = _resolve_output(cfg, args, "graph_info")
    path = os.path.join(out_dir, f"{prefix}_graph.csv")
    write_csv(path, [name for name, _ in fields], [[value for _, value in fields]])
    print(f"wrote {path}")
    return 0


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    W = build_topology(cfg)
    obj = build_objective(cfg, W.m)
    noise_model = build_noise(cfg, obj)
    rc = build_run_config(cfg)
    theta0 = StackedPoint(obj.m, obj.d, np.zeros((obj.m, obj.d)))
    theta_det = None
    if rc.algorithm in ("dgd", "dsgd"):
        try:
            theta_det = dynamics.solve_fixed_point(W, obj, rc.gamma).point
        except DsgdLabError as exc:
            print(f"dist_det omitted: {exc}", file=sys.stderr)
    record = dynamics.run(W, obj, noise_model, rc, theta0, theta_det)
    out_dir, prefix = _resolve_output(cfg, args, "simulate")
    header = ["t", "dist_opt", "dist_det", "consensus_err", "disagreement_norm"]
    # a run with T = 0 writes the headers only
    times = record.times.tolist() if rc.T > 0 else []
    nan = np.full_like(record.dist_opt, np.nan)
    dist_det = nan if record.dist_det is None else record.dist_det
    columns = (
        record.dist_opt, dist_det, record.consensus_err, record.disagreement_norm
    )
    paths = []
    for r in range(record.replicates):
        path = os.path.join(out_dir, f"{prefix}_replicate{r:03d}.csv")
        write_csv(path, header, zip(times, *(col[:, r].tolist() for col in columns)))
        paths.append(path)
    agg_path = os.path.join(out_dir, f"{prefix}_aggregate.csv")
    agg = ([t, np.mean(row), np.std(row, ddof=1) if row.size > 1 else 0.0]
           for t, row in zip(times, record.avg_client_dist))
    write_csv(agg_path, ["t", "mean_dist", "std_dist"], agg)
    print(
        f"wrote {len(paths)} replicate trajectories and {agg_path} "
        f"({rc.algorithm}, gamma={rc.gamma:g}, T={rc.T})"
    )
    return 0


def cmd_predict(cfg: ExperimentConfig, args) -> int:
    W = build_topology(cfg)
    obj = build_objective(cfg, W.m)
    noise_model = build_noise(cfg, obj)
    gamma = cfg.get("run", "gamma")
    report = theory.theory_report(W, obj, noise_model, gamma)
    for name, value in report.rows():
        print(f"{name} = {value:.12g}")
    out_dir, prefix = _resolve_output(cfg, args, "predict")
    path = os.path.join(out_dir, f"{prefix}_predictions.csv")
    report.to_csv(path)
    print(f"wrote {path}")
    return 0


def _max_z(diff: np.ndarray, se: np.ndarray) -> float:
    """Largest |difference| in units of its standard error.

    Entries with zero difference contribute 0 even when the standard error
    is 0; a nonzero difference with zero standard error is infinite.
    """
    diff = np.abs(np.asarray(diff, dtype=float))
    se = np.asarray(se, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(diff == 0.0, 0.0, diff / se)
    return float(np.max(z)) if z.size else 0.0


def _stationary_config(rc, obj):
    """DSGD config for stationary statistics of a chain started at the fixed point.

    With no cold-start transient the default burn-in (sized for arbitrary
    initializations) is overly conservative, so cap it at T/2; an explicit
    run.burn_in is honored as-is.
    """
    rc = replace(rc, algorithm="dsgd")
    if rc.burn_in is None:
        burn = min(
            dynamics.default_burn_in(rc.gamma, obj.mu, rc.T), rc.T // 2
        )
        rc = replace(rc, burn_in=burn)
    return rc


def cmd_compare(cfg: ExperimentConfig, args) -> int:
    W = build_topology(cfg)
    obj = build_objective(cfg, W.m)
    noise_model = build_noise(cfg, obj)
    gamma = cfg.get("run", "gamma")

    rows = []

    def add(claim, predicted, observed, tolerance, ok):
        rows.append(
            {
                "claim": claim,
                "predicted": float(predicted),
                "observed": float(observed),
                "tolerance": float(tolerance),
                "status": "pass" if ok else "fail",
            }
        )

    fp = dynamics.solve_fixed_point(W, obj, gamma)
    bias_norm = (fp.point - obj.theta_star_stacked).norm()
    bound = theory.lemma3_bound(obj, W, gamma)
    add("LEMMA3", bound, bias_norm, 0.0, bias_norm <= bound + 1e-12)

    grid = cfg.get("run", "gammas")
    if grid is not None:
        if len(grid) < 3:
            raise ConfigError(
                f"run.gammas needs at least 3 values for order fits, got "
                f"{len(grid)}"
            )
        if min(grid) <= 0.0:
            raise ConfigError(f"run.gammas must be positive, got {min(grid)!r}")
        if len(set(grid)) < len(grid):
            raise ConfigError("run.gammas must be distinct for order fits")
        points = {}
        for g in sorted(set(grid) | {g / 2.0 for g in grid}):
            points[g] = dynamics.solve_fixed_point(W, obj, g).point
        biases = [(points[g] - obj.theta_star_stacked).norm() for g in grid]
        fit1 = stats.order_fit(grid, biases)
        add(
            "BIAS_ORDER1",
            1.0,
            fit1.slope,
            SLOPE1_TOL,
            abs(fit1.slope - 1.0) <= SLOPE1_TOL,
        )
        # the extrapolated iterate converges to 2 Theta_det(g/2) - Theta_det(g)
        rr_errors = []
        for g in grid:
            limit = 2.0 * points[g / 2.0].data - points[g].data
            rr_errors.append(
                float(np.linalg.norm(limit - obj.theta_star_stacked.data))
            )
        fit2 = stats.order_fit(grid, rr_errors)
        add(
            "RR_ORDER2",
            2.0,
            fit2.slope,
            SLOPE2_TOL,
            abs(fit2.slope - 2.0) <= SLOPE2_TOL,
        )

    if noise_model is not None:
        rc = _stationary_config(build_run_config(cfg), obj)
        if rc.replicates < 2:
            raise ConfigError(
                "stationary claims need run.replicates >= 2 for standard errors"
            )
        record = dynamics.run(W, obj, noise_model, rc, fp.point, fp.point)
        moments = stats.stationary_moments(record, fp.point)
        z_mean = _max_z(
            moments.mean.data - fp.point.data, moments.std_errors
        )
        add("PROP3_MEAN", 0.0, z_mean, Z_TOL, z_mean <= Z_TOL)
        pred_block = theory.variance_first_order(obj, noise_model, gamma)
        z_cov = _max_z(
            moments.block_cov - pred_block[None, None],
            moments.cov_std_errors,
        )
        add("PROP4_BLOCK", 0.0, z_cov, Z_TOL, z_cov <= Z_TOL)

    out_dir, prefix = _resolve_output(cfg, args, "compare")
    path = os.path.join(out_dir, f"{prefix}_verdicts.csv")
    write_csv(path, list(rows[0]), [list(row.values()) for row in rows])
    for row in rows:
        print(
            f"{row['claim']}: {row['status']} "
            f"(predicted={row['predicted']:.6g}, observed={row['observed']:.6g}, "
            f"tolerance={row['tolerance']:.6g})"
        )
    print(f"wrote {path}")
    return 0 if all(row["status"] == "pass" for row in rows) else 2


_SWEEP_METRICS = ("bias_norm", "bias_norm_pred", "stat_trace", "stat_trace_pred")


def _sweep_m(cfg: ExperimentConfig, m: int, topologies, gammas) -> dict:
    """The _SWEEP_METRICS of one client count's cells, keyed (topology, gamma):
    one objective, one W per topology, one batched run per gamma."""
    m_cfg = ExperimentConfig()
    m_cfg.update(cfg)
    m_cfg.set("topology", "m", m)
    Ws = []
    for kind in topologies:
        m_cfg.set("topology", "kind", kind)
        Ws.append(build_topology(m_cfg))
    obj = build_objective(m_cfg, m)
    noise_model = build_noise(m_cfg, obj)
    star = obj.theta_star_stacked
    values = {}
    for gamma in gammas:
        points = [dynamics.solve_fixed_point(W, obj, gamma).point for W in Ws]
        for kind, W, point in zip(topologies, Ws, points):
            expansion = theory.det_bias_expansion(W, obj, gamma).prediction
            values[kind, gamma] = [(point - star).norm(), (expansion - star).norm(),
                                   0.0, 0.0]
        if noise_model is not None:
            m_cfg.set("run", "gamma", gamma)
            rc = _stationary_config(build_run_config(m_cfg), obj)
            records = dynamics.run_chains(Ws, obj, noise_model, [rc] * len(Ws), points, points)
            pred = float(np.trace(theory.variance_first_order(obj, noise_model, gamma)))
            for kind, record, point in zip(topologies, records, points):
                moments = stats.stationary_moments(record, point)
                values[kind, gamma][2:] = [moments.diag_trace_average(), pred]
    return values


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    lists = {key: cfg.get("sweep", key) for key in ("m_list", "topologies", "gammas")}
    for key, values in lists.items():
        if not values:
            raise ConfigError(f"sweep.{key} is empty")
        if len(set(values)) < len(values):
            raise ConfigError(f"sweep.{key} repeats a value: {', '.join(map(str, values))}")
    m_list, topologies, gammas = lists.values()
    cells = list(itertools.product(m_list, topologies, gammas))
    if len(cells) > MAX_SWEEP_CELLS:
        raise BudgetExceededError(
            f"sweep has {len(cells)} cells; the limit is {MAX_SWEEP_CELLS}"
        )
    results = {m: _sweep_m(cfg, m, topologies, gammas) for m in m_list}
    out_dir, prefix = _resolve_output(cfg, args, "sweep")
    path = os.path.join(out_dir, f"{prefix}_sweep.csv")
    rows = ([m, topo_kind, gamma, metric, value] for m, topo_kind, gamma in cells
            for metric, value in zip(_SWEEP_METRICS, results[m][topo_kind, gamma]))
    write_csv(path, ["m", "topology", "gamma", "metric", "value"], rows)
    print(f"wrote {len(cells) * len(_SWEEP_METRICS)} rows to {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsgd-lab",
        description="decentralized (S)GD laboratory",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config file")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config entry (repeatable)",
    )
    common.add_argument(
        "--preset", help="start from a named preset: " + ", ".join(sorted(PRESETS))
    )
    common.add_argument("--out", help="output directory (default: output.directory)")
    common.add_argument(
        "--threads",
        type=int,
        default=0,
        help="accepted for compatibility; sweep cells always run in order, "
        "so it changes neither the schedule nor the output; it does not set "
        "the minibatch tau pass's threads, one per usable CPU (at most 2), "
        "nor the worker that fills a run's minibatch draws ahead",
    )
    common.add_argument(
        "--topology",
        "--graph",
        dest="topology_kind",
        help="topology.kind shorthand",
    )
    common.add_argument("--m", type=int, help="topology.m shorthand")
    common.add_argument("--t", type=float, help="topology.t shorthand")
    common.add_argument(
        "--algorithm", help="run.algorithm shorthand (dgd, dsgd, rr-dgd, rr-dsgd)"
    )
    common.add_argument("--gamma", type=float, help="run.gamma shorthand")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "graph-info", parents=[common], help="spectral report of the gossip matrix"
    ).set_defaults(func=cmd_graph_info)
    sub.add_parser(
        "simulate", parents=[common], help="run the configured algorithm"
    ).set_defaults(func=cmd_simulate)
    sub.add_parser(
        "predict", parents=[common], help="emit closed-form predictions and bounds"
    ).set_defaults(func=cmd_predict)
    sub.add_parser(
        "compare", parents=[common], help="verdicts: simulation against theory"
    ).set_defaults(func=cmd_compare)
    sub.add_parser(
        "sweep", parents=[common], help="grid over m, topology, gamma"
    ).set_defaults(func=cmd_sweep)
    return parser


def assemble_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.preset:
        cfg.update(preset_config(args.preset))
    if args.config:
        cfg.update(ExperimentConfig.from_file(args.config))
    if args.topology_kind is not None:
        cfg.set("topology", "kind", args.topology_kind)
    if args.m is not None:
        cfg.set("topology", "m", args.m)
    if args.t is not None:
        cfg.set("topology", "t", args.t)
    if args.algorithm is not None:
        cfg.set("run", "algorithm", args.algorithm)
    if args.gamma is not None:
        cfg.set("run", "gamma", args.gamma)
    for assignment in args.overrides:
        cfg.apply_assignment(assignment)
    env_seed = os.environ.get("DSGD_LAB_SEED")
    if env_seed is not None:
        try:
            cfg.set("run", "seed", int(env_seed))
        except ValueError:
            raise ConfigError(
                f"DSGD_LAB_SEED must be an integer, got {env_seed!r}"
            ) from None
    cfg.check_keys()
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = assemble_config(args)
        return args.func(cfg, args)
    except DisconnectedError as exc:
        msg = str(exc)
        prefix = "Assumption fails: "
        if msg.startswith(prefix):
            msg = msg[len(prefix):]
        print(f"Assumption 2 violated: {msg}", file=sys.stderr)
        return 2
    except StepTooLargeError as exc:
        print(f"step size out of range: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, BudgetExceededError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except DsgdLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
