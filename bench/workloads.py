"""The three benchmark workloads: inputs, set-up and the timed operation.

Each workload splits off one layer of cost (see bench/README.md):

* ``rr-sto`` -- the step loop of `dynamics` on array-bound minibatch
  chains, plus the noise block cache at its 8-block cap (T > 8 * 512).
* ``stationary-gauss`` -- the interpreter-bound step loop with Gaussian
  noise and moment accumulation past burn-in (the AC10 shape).
* ``theory-session`` -- the fixed-point solver and `theory_report`, no
  stepping.

The workload seed reaches the program only as ``run.seed`` (CLI) or
``RunConfig.seed`` (library), passed explicitly.  Every problem stays the
preset's or AC10's: the objective data fix the work done (the Picard
iteration count moves by up to 20% across data seeds), and the
theory-session commands consume no run seed, so that workload's outputs are
the same at every seed.

dsgd_lab is imported inside the functions, after the worker's start clock,
so import time is part of both set-up and wall time, and run.py and the
checks run without it.
"""

from __future__ import annotations

import functools
import json
import os

WORKLOADS = ("rr-sto", "stationary-gauss", "theory-session")
SIZES = ("full", "tiny")

# the calibration loop (bench/calib.py) bound by the same resource as the
# workload's operation
CALIBRATION = {"rr-sto": "memory", "stationary-gauss": "python",
               "theory-session": "python"}

DEMO_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "demo.cfg")

# rr-sto: T must exceed 8 blocks of 512 steps, or the per-stream noise
# block cache never reaches the cap it hits in the full 69,100-step preset
RR_STEPS = {"full": 4500, "tiny": 600}

# stationary-gauss: the AC10 problem at gamma = 0.1 and a shorter horizon
GAUSS_GAMMA = 0.1
GAUSS_SHAPE = {  # (T, replicates, burn_in)
    "full": (50_000, 128, 5000),
    "tiny": (3000, 16, 500),
}

# theory-session sweep: the fig2 logistic problem without noise
SWEEP_GAMMAS = {"full": "0.001,0.0005", "tiny": "0.004,0.002"}

OUTPUT_FILE = "stationary_gauss.json"


def rr_sto_argv(size: str, seed: int, out: str) -> list:
    return ["simulate", "--preset", "fig1-rr-sto",
            "--set", f"run.T={RR_STEPS[size]}", "--set", f"run.seed={seed}",
            "--out", out]


def sweep_argv(size: str, seed: int, out: str, threads: int = 1) -> list:
    return ["sweep", "--threads", str(threads), "--preset", "fig2-heterogeneous",
            "--set", "noise.variant=none", "--set", "sweep.m_list=12",
            "--set", "sweep.topologies=ring,clusters",
            "--set", f"sweep.gammas={SWEEP_GAMMAS[size]}",
            "--set", f"run.seed={seed}", "--out", out]


def theory_session_argvs(size: str, seed: int, out: str) -> list:
    return [
        ["graph-info", "--preset", "fig1-rr-sto",
         "--set", f"run.seed={seed}", "--out", out],
        ["predict", "--preset", "fig2-heterogeneous",
         "--set", f"run.seed={seed}",
         "--out", out],
        ["compare", "--config", DEMO_CONFIG, "--set", f"run.seed={seed}",
         "--out", out],
        sweep_argv(size, seed, out),
    ]


class CommandFailed(RuntimeError):
    pass


def run_cli(argv: list) -> None:
    from dsgd_lab import cli

    code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"dsgd-lab {argv[0]} exited with {code}")


# ---------------------------------------------------------------------------
# set-up: from a fresh interpreter to built inputs


def _build_from_config(cfg) -> None:
    from dsgd_lab import cli

    W = cli.build_topology(cfg)
    W.spectral
    obj = cli.build_objective(cfg, W.m)
    obj.theta_star
    cli.build_noise(cfg, obj)


def _gauss_problem():
    from dsgd_lab import noise, objectives, topology

    W = topology.build_fully_connected(1)
    W.spectral
    obj = objectives.generate_logistic_problem(
        m=1, n=25, d=1, heterogeneity_spread=1.2, lambda_reg=0.1, seed=7
    )
    obj.theta_star
    model = noise.AdditiveGaussian.isotropic(1, 1, 1.0)
    return W, obj, model


def setup(workload: str, size: str, seed: int) -> None:
    """Build every input the workload's operation starts from."""
    from dsgd_lab import cli
    from dsgd_lab.config import ExperimentConfig

    if workload == "rr-sto":
        cfg = cli.preset_config("fig1-rr-sto")
        cfg.set("run", "T", RR_STEPS[size])
        cfg.set("run", "seed", seed)
        _build_from_config(cfg)
        cli.build_run_config(cfg)
    elif workload == "stationary-gauss":
        _gauss_problem()
    elif workload == "theory-session":
        fig2 = cli.preset_config("fig2-heterogeneous")
        clusters = cli.preset_config("fig2-heterogeneous")
        clusters.set("topology", "kind", "clusters")
        for cfg in (cli.preset_config("fig1-rr-sto"), clusters):
            cli.build_topology(cfg).spectral
        for cfg in (fig2, ExperimentConfig.from_file(DEMO_CONFIG)):
            _build_from_config(cfg)
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the timed operation


def _stationary_gauss(size: str, seed: int, out: str) -> None:
    from dsgd_lab import dynamics, stats, theory

    T, R, burn_in = GAUSS_SHAPE[size]
    W, obj, model = _gauss_problem()
    fp = dynamics.fixed_point(W, obj, GAUSS_GAMMA)
    cfg = dynamics.RunConfig(algorithm="dsgd", gamma=GAUSS_GAMMA, T=T, seed=seed,
                             replicates=R, burn_in=burn_in, record_every=T)
    rec = dynamics.run(W, obj, model, cfg, fp.point, Theta_det=fp.point)
    mom = stats.stationary_moments(rec, fp.point)
    pred = float(theory.stochastic_bias_first_order(obj, model, GAUSS_GAMMA)[0])
    mean = float(mom.mean.data[0, 0])
    det = float(fp.point.data[0, 0])
    se = float(mom.std_errors[0, 0])
    result = {
        "theta_star": float(obj.theta_star[0]),
        "theta_det": det,
        "mean": mean,
        "std_error": se,
        "pred_shift": pred,
        "z": (mean - det - pred) / se,
        "n_effective": mom.n_effective,
        "replicates": rec.replicates,
        "final_mean": float(rec.final.mean()),
    }
    with open(os.path.join(out, OUTPUT_FILE), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


def steps(workload: str, size: str, seed: int, out: str) -> list:
    """The workload's operation as calls to make in order, writing every
    output under out; the loop worker calibrates each call on its own."""
    if workload == "rr-sto":
        return [functools.partial(run_cli, rr_sto_argv(size, seed, out))]
    if workload == "stationary-gauss":
        return [functools.partial(_stationary_gauss, size, seed, out)]
    if workload == "theory-session":
        return [functools.partial(run_cli, argv)
                for argv in theory_session_argvs(size, seed, out)]
    raise ValueError(f"unknown workload {workload!r}")


def operation(workload: str, size: str, seed: int, out: str) -> None:
    """Run the workload once, writing every output under out."""
    for step in steps(workload, size, seed, out):
        step()
