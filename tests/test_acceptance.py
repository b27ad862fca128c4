"""Release-gating acceptance suite: twelve end-to-end checks.

Each test verifies one headline property of the package (closed-form fixed
points, contraction rates, bias bounds and their scaling orders,
extrapolation, coupling, stationary moments, linear speed-up, matrix
perturbation bounds, and byte-level CLI determinism) and prints a single
verdict line before asserting, so a full run reads as a twelve-line report.
The verdict lines are emitted outside pytest's capture and show up even
without ``-s``.

The statistical checks run with fixed seeds and sample sizes chosen so the
observed z-scores sit well inside the stated limits; they are deterministic
reruns, not flaky Monte Carlo.
"""

import functools
import math
import time

import numpy as np

from dsgd_lab import cli
from dsgd_lab.dynamics import RunConfig, coupled_run, fixed_point, run, run_chains
from dsgd_lab.matops import inverse_perturbation_bound, projected_pinv_expansion
from dsgd_lab.noise import AdditiveGaussian, Minibatch, smoothness_constant
from dsgd_lab.objectives import QuadraticObjectives, generate_logistic_problem
from dsgd_lab.stacked import StackedPoint
from dsgd_lab.stats import (
    contraction_envelope,
    contraction_estimate,
    order_fit,
    speedup_check,
    stationary_moments,
)
from dsgd_lab.theory import (
    det_bias_expansion,
    lemma3_bound,
    quad_exact_fixed_point,
    rr_bias_bound,
    stochastic_bias_first_order,
    variance_first_order,
)
from dsgd_lab.topology import (
    CommMatrix,
    build_clusters,
    build_fully_connected,
    build_ring,
)

# shared step-size grid for the bias-order checks
GAMMA_GRID = (2e-3, 1e-3, 5e-4, 2.5e-4)


def _verdict(capsys, label, failures, note=""):
    ok = not failures
    detail = note if ok else "; ".join(failures)
    line = f"{label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _iso_quad(scales, centers):
    """Quadratics with isotropic curvatures a_k I."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    d = centers.shape[1]
    A = np.einsum("k,ij->kij", np.asarray(scales, dtype=float), np.eye(d))
    return QuadraticObjectives(A, centers)


def _pair_matrix(t):
    """Two-client gossip matrix with edge weight t (a 2-ring is one edge)."""
    return CommMatrix.from_entries([[1.0 - t, t], [t, 1.0 - t]])


def _random_spd_stack(rng, m, d, lo=0.5, hi=2.5):
    A = np.empty((m, d, d))
    for k in range(m):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        w = rng.uniform(lo, hi, size=d)
        A[k] = (Q * w) @ Q.T
    return A


@functools.lru_cache(maxsize=1)
def _instances():
    """20 random quadratic instances over ring/cluster/full topologies.

    Step sizes are half of min(1/L, 2/((1+L/mu) L Lambda)), which keeps
    every instance inside both the closed-form gate and the expansion gate
    (the fully connected ones have Lambda = 0, where only 1/L binds).
    """
    rng = np.random.default_rng(2611)
    cluster_shapes = [(4, 2), (6, 3), (6, 2)]
    out = []
    for i in range(20):
        kind = ("ring", "cluster", "full")[i % 3]
        if kind == "ring":
            m = int(rng.integers(3, 7))
            W = build_ring(m, t=float(rng.uniform(0.15, 0.3)))
        elif kind == "cluster":
            m, k = cluster_shapes[int(rng.integers(0, 3))]
            W = build_clusters(m, k, t=float(rng.uniform(0.2, 0.4)),
                               bridge_weight=float(rng.uniform(0.3, 1.0)))
        else:
            m = int(rng.integers(2, 7))
            W = build_fully_connected(m)
        d = int(rng.integers(1, 4))
        obj = QuadraticObjectives(_random_spd_stack(rng, m, d),
                                  rng.normal(0.0, 1.5, size=(m, d)))
        caps = [1.0 / obj.L]
        if W.spectral.Lambda > 0.0:
            caps.append(
                2.0 / ((1.0 + obj.L / obj.mu) * obj.L * W.spectral.Lambda)
            )
        out.append((W, obj, 0.5 * min(caps)))
    return tuple(out)


def test_ac01_exact_quadratic_fixed_point(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for W, obj, gamma in _instances():
        exact = quad_exact_fixed_point(W, obj, gamma).theta_det
        iterated = fixed_point(W, obj, gamma).point
        worst = max(worst, float(np.linalg.norm(exact.data - iterated.data)))
    elapsed = time.perf_counter() - t0
    failures = []
    if worst > 1e-9:
        failures.append(f"closed form vs iterated gap {worst:.3e} > 1e-9")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _verdict(capsys, "AC1 exact quadratic fixed point", failures,
             f"worst gap {worst:.1e}, {elapsed:.2f}s")


def test_ac02_deterministic_contraction_rate(capsys):
    worst_excess = -math.inf
    for W, obj, gamma in _instances():
        det = quad_exact_fixed_point(W, obj, gamma).theta_det
        cfg = RunConfig(algorithm="dgd", gamma=gamma, T=60, seed=0,
                        replicates=1, burn_in=0, record_every=1)
        rec = run(W, obj, None, cfg, StackedPoint.zeros(obj.m, obj.d),
                  Theta_det=det)
        dist = rec.dist_det[:, 0]
        rate = 1.0 - gamma * obj.mu
        for t in range(len(dist) - 1):
            if dist[t] <= 1e-12:
                break  # below float noise; ratios are meaningless there
            worst_excess = max(worst_excess, dist[t + 1] / dist[t] - rate)
    failures = []
    if worst_excess > 1e-12:
        failures.append(
            f"per-step ratio exceeds 1 - gamma*mu by {worst_excess:.3e}"
        )
    _verdict(capsys, "AC2 deterministic contraction rate", failures,
             f"worst ratio excess {worst_excess:.1e}")


def test_ac03_fixed_point_bias_bound(capsys):
    failures = []
    min_margin = math.inf
    for W, obj, gamma in _instances():
        det = quad_exact_fixed_point(W, obj, gamma).theta_det
        observed = float(
            np.linalg.norm(det.data - obj.theta_star_stacked.data)
        )
        bound = lemma3_bound(obj, W, gamma)
        min_margin = min(min_margin, bound - observed)
        if observed > bound + 1e-12:
            failures.append(
                f"bias {observed:.3e} exceeds bound {bound:.3e}"
            )
    # worked two-client example: unit curvatures, centers +-1, gamma = 0.1
    W2 = _pair_matrix(0.25)
    obj2 = _iso_quad([1.0, 1.0], [[1.0], [-1.0]])
    det2 = quad_exact_fixed_point(W2, obj2, 0.1).theta_det
    observed2 = float(np.linalg.norm(det2.data))  # theta* = 0 here
    bound2 = lemma3_bound(obj2, W2, 0.1)
    if abs(observed2 - 0.1286) > 5e-5:
        failures.append(f"worked example bias {observed2:.6f} != 0.1286")
    if abs(bound2 - 0.2828) > 5e-5:
        failures.append(f"worked example bound {bound2:.6f} != 0.2828")
    if observed2 > bound2:
        failures.append("worked example violates its bound")
    _verdict(capsys, "AC3 fixed-point bias bound", failures,
             f"min margin {min_margin:.1e}, example "
             f"{observed2:.4f} <= {bound2:.4f}")


def test_ac04_second_order_bias_expansion(capsys):
    t0 = time.perf_counter()
    quad = _iso_quad([1.0, 2.0, 1.0, 2.0],
                     [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    Wq = build_ring(4, t=0.25)
    logi = generate_logistic_problem(m=4, n=20, d=2,
                                     heterogeneity_spread=1.5,
                                     lambda_reg=1.0, seed=11)
    Wl = build_ring(4, t=1.0 / 3.0)
    failures = []
    slopes = {}
    for name, obj, W in [("quadratic", quad, Wq), ("logistic", logi, Wl)]:
        gammas = np.array([g / obj.L for g in GAMMA_GRID])
        errs = []
        for g in gammas:
            expansion = det_bias_expansion(W, obj, g)
            if name == "quadratic":
                det = quad_exact_fixed_point(W, obj, g).theta_det
            else:
                det = fixed_point(W, obj, g).point
            err = float(np.linalg.norm(det.data - expansion.prediction.data))
            errs.append(err)
            if err > expansion.residual_bound + 1e-12:
                failures.append(
                    f"{name}: residual {err:.3e} exceeds bound "
                    f"{expansion.residual_bound:.3e} at gamma={g:.2e}"
                )
        slope = order_fit(gammas, np.array(errs)).slope
        slopes[name] = slope
        if not 1.8 <= slope <= 2.2:
            failures.append(f"{name}: slope {slope:.3f} outside [1.8, 2.2]")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _verdict(capsys, "AC4 second-order bias expansion", failures,
             f"slopes {slopes['quadratic']:.3f} (quad) / "
             f"{slopes['logistic']:.3f} (logistic), {elapsed:.1f}s")


def test_ac05_extrapolated_bias_reduction(capsys):
    # heterogeneity split across a weak bridge with alternating curvatures,
    # so the second-order term the extrapolation leaves behind is visible
    W = build_clusters(4, 2, 0.35, bridge_weight=0.2)
    obj = _iso_quad([1.0, 4.0, 1.0, 4.0], [[1.0], [1.0], [-1.0], [-1.0]])
    star = obj.theta_star_stacked.data
    failures = []
    dgd_errs, rr_errs = [], []
    for g in GAMMA_GRID:
        det = quad_exact_fixed_point(W, obj, g).theta_det.data
        half = quad_exact_fixed_point(W, obj, g / 2.0).theta_det.data
        rr = 2.0 * half - det
        dgd_errs.append(float(np.linalg.norm(det - star)))
        rr_errs.append(float(np.linalg.norm(rr - star)))
        bound = rr_bias_bound(obj, W, g)
        if rr_errs[-1] > bound + 1e-12:
            failures.append(
                f"rr error {rr_errs[-1]:.3e} exceeds bound {bound:.3e} "
                f"at gamma={g:.2e}"
            )
    gam = np.asarray(GAMMA_GRID)
    dgd_slope = order_fit(gam, np.asarray(dgd_errs)).slope
    rr_slope = order_fit(gam, np.asarray(rr_errs)).slope
    if not 0.95 <= dgd_slope <= 1.05:
        failures.append(f"plain slope {dgd_slope:.3f} outside [0.95, 1.05]")
    if not 1.8 <= rr_slope <= 2.2:
        failures.append(
            f"extrapolated slope {rr_slope:.3f} outside [1.8, 2.2]"
        )
    # magnitude check at gamma = 1e-3: ~1e-2 error drops to ~1e-4
    de, re = dgd_errs[1], rr_errs[1]
    if not 3e-3 <= de <= 1e-1:
        failures.append(f"plain error {de:.3e} outside ~1e-2 band")
    if not 3e-5 <= re <= 1e-3:
        failures.append(f"extrapolated error {re:.3e} outside ~1e-4 band")
    if re > 0.05 * de:
        failures.append(f"error drop ratio {re / de:.3f} above 0.05")
    # the bound also holds across the randomized instances
    for Wr, objr, gamma in _instances():
        det = quad_exact_fixed_point(Wr, objr, gamma).theta_det.data
        half = quad_exact_fixed_point(Wr, objr, gamma / 2.0).theta_det.data
        err = float(np.linalg.norm(
            2.0 * half - det - objr.theta_star_stacked.data
        ))
        if err > rr_bias_bound(objr, Wr, gamma) + 1e-12:
            failures.append(f"random instance rr error {err:.3e} over bound")
    _verdict(capsys, "AC5 extrapolated bias reduction", failures,
             f"slopes {dgd_slope:.3f} -> {rr_slope:.3f}, "
             f"errors {de:.1e} -> {re:.1e} at gamma=1e-3")


def test_ac06_coupled_chain_contraction(capsys):
    t0 = time.perf_counter()
    failures = []
    # quadratic: shared additive noise cancels in the difference, so the
    # squared distance contracts deterministically at (1 - gamma mu)^2
    Wq = build_ring(4, t=0.25)
    quad = _iso_quad([1.0, 2.0, 1.0, 2.0],
                     [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    gamma_q = 0.05
    D = coupled_run(Wq, quad, AdditiveGaussian.isotropic(4, 2, 1.0),
                    gamma_q, 100, StackedPoint.zeros(4, 2),
                    StackedPoint.from_blocks(np.ones((4, 2))), seed=5,
                    replicates=1)
    est = contraction_estimate(D)
    limit_q = (1.0 - gamma_q * quad.mu) ** 2
    if est.max_ratio is None or est.max_ratio > limit_q + 1e-12:
        failures.append(
            f"quadratic ratio {est.max_ratio} exceeds {limit_q:.6f}"
        )
    # logistic with minibatch noise: genuinely stochastic distances, checked
    # against the envelope within 3 standard errors over 100 seeds
    Wl = build_ring(4, t=0.25)
    logi = generate_logistic_problem(m=4, n=25, d=2,
                                     heterogeneity_spread=1.5,
                                     lambda_reg=0.5, seed=6)
    model = Minibatch(batch_size=5)
    gamma_l = 0.05
    rate = contraction_envelope(gamma_l, logi.mu,
                                smoothness_constant(model, logi))
    T = 200
    seeds = 100
    a0 = StackedPoint.zeros(4, 2)
    b0 = StackedPoint.from_blocks(np.ones((4, 2)))
    dists = np.empty((seeds, T + 1))
    for s in range(seeds):
        dists[s] = coupled_run(Wl, logi, model, gamma_l, T, a0, b0,
                               seed=1000 + s, replicates=1)
    mean = dists.mean(axis=0)
    se = dists.std(axis=0, ddof=1) / math.sqrt(seeds)
    envelope = mean[0] * rate ** np.arange(T + 1)
    excess = float(np.max(mean - envelope - 3.0 * se))
    if excess > 1e-12:
        failures.append(f"mean distance above envelope by {excess:.3e}")
    # slack at t = 0 is zero by construction; report the margin past it
    tail_slack = float(np.min((envelope + 3.0 * se - mean)[1:]))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _verdict(capsys, "AC6 coupled-chain contraction", failures,
             f"quad ratio {est.max_ratio:.4f} <= {limit_q:.4f}, "
             f"logistic envelope slack {tail_slack:.1e}, {elapsed:.1f}s")


def test_ac07_stationary_mean_centering(capsys):
    W = build_ring(4, t=0.25)
    obj = _iso_quad([1.0, 2.0, 1.0, 2.0],
                    [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    gamma = 1e-2 / obj.L
    det = quad_exact_fixed_point(W, obj, gamma).theta_det
    cfg = RunConfig(algorithm="dsgd", gamma=gamma, T=80000, seed=42,
                    replicates=16, burn_in=10000, record_every=80000)
    rec = run(W, obj, AdditiveGaussian.isotropic(4, 2, 1.0), cfg, det,
              Theta_det=det)
    moments = stationary_moments(rec, det)
    z = np.abs(moments.mean.data - det.data) / moments.std_errors
    failures = []
    if moments.n_effective < 10**6:
        failures.append(f"only {moments.n_effective} effective samples")
    if z.max() > 4.0:
        failures.append(f"stationary mean off by {z.max():.2f} > 4 se")
    _verdict(capsys, "AC7 stationary mean centering", failures,
             f"max |z| {z.max():.2f} over {moments.n_effective} samples")


def test_ac08_stationary_variance_first_order(capsys):
    t0 = time.perf_counter()
    failures = []
    # (a) scalar oracle: exact variance gamma sigma^2 / (a (2 - gamma a))
    W1 = build_fully_connected(1)
    scalar = _iso_quad([1.0], [[0.0]])
    gamma_a = 0.1
    det = quad_exact_fixed_point(W1, scalar, gamma_a).theta_det
    cfg = RunConfig(algorithm="dsgd", gamma=gamma_a, T=160000, seed=7,
                    replicates=128, burn_in=2000, record_every=160000)
    rec = run(W1, scalar, AdditiveGaussian.isotropic(1, 1, 1.0), cfg, det,
              Theta_det=det)
    mom = stationary_moments(rec, det)
    est = float(mom.block_cov[0, 0, 0, 0])
    se = float(mom.cov_std_errors[0, 0, 0, 0])
    exact = gamma_a / (2.0 - gamma_a)
    first = float(variance_first_order(scalar,
                                       AdditiveGaussian.isotropic(1, 1, 1.0),
                                       gamma_a)[0, 0])
    z_exact = (est - exact) / se
    if abs(z_exact) > 4.0:
        failures.append(f"scalar variance off exact by {z_exact:.2f} se")
    if abs(est - first) > 0.06 * first:
        failures.append(
            f"scalar variance {est:.6f} not within 6% of {first:.3f}"
        )
    # (b) every covariance block matches the single predicted block on both
    # a ring and the fully connected graph
    obj = _iso_quad([1.0, 2.0, 1.0, 2.0],
                    [[0.3, 0.0], [0.0, 0.3], [-0.3, 0.0], [0.0, -0.3]])
    gamma_b = 1e-2 / obj.L
    model = AdditiveGaussian.isotropic(4, 2, 1.0)
    pred = variance_first_order(obj, model, gamma_b)
    block_z = {}
    graphs = {"ring": build_ring(4, t=0.25), "full": build_fully_connected(4)}
    dets = [quad_exact_fixed_point(W, obj, gamma_b).theta_det
            for W in graphs.values()]
    cfg = RunConfig(algorithm="dsgd", gamma=gamma_b, T=60000, seed=11,
                    replicates=16, burn_in=6000, record_every=60000)
    # both graphs read the same draws, one chain each
    recs = run_chains(list(graphs.values()), obj, model, [cfg, cfg], dets,
                      Theta_dets=dets)
    for name, det, rec in zip(graphs, dets, recs):
        mom = stationary_moments(rec, det)
        z = np.abs(mom.block_cov - pred[None, None]) / mom.cov_std_errors
        block_z[name] = float(z.max())
        if z.max() > 4.0:
            failures.append(f"{name}: block deviation {z.max():.2f} > 4 se")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5min")
    _verdict(capsys, "AC8 stationary variance first order", failures,
             f"scalar z {z_exact:.2f}, 6% gap {abs(est - first):.4f}, "
             f"block z {block_z['ring']:.2f} (ring) / "
             f"{block_z['full']:.2f} (full), {elapsed:.1f}s")


def test_ac09_variance_linear_speedup(capsys):
    gamma = 0.01

    def mk_obj(m):
        return _iso_quad(np.ones(m), np.zeros((m, 1)))

    def mk_noise(m):
        return AdditiveGaussian.isotropic(m, 1, 1.0)

    def mk_full(m):
        return build_fully_connected(m)

    def mk_ring(m):
        # a two-client ring collapses to a single edge, below the ring
        # builder's minimum, so build that gossip matrix directly
        if m == 2:
            return _pair_matrix(0.45)
        return build_ring(m, t=0.45)

    failures = []
    slopes = {}
    for name, mk_topo in [("full", mk_full), ("ring", mk_ring)]:
        res = speedup_check(mk_obj, mk_noise, mk_topo, gamma, [2, 4, 8],
                            T=16000, replicates=12, seed=3, burn_in=1600)
        if res.status != "ok":
            failures.append(f"{name}: speed-up fit {res.status}")
            continue
        slopes[name] = res.slope
        if not -1.15 <= res.slope <= -0.85:
            failures.append(
                f"{name}: slope {res.slope:.3f} outside [-1.15, -0.85]"
            )
    _verdict(capsys, "AC9 variance linear speed-up", failures,
             f"slopes {slopes.get('full', float('nan')):.3f} (full) / "
             f"{slopes.get('ring', float('nan')):.3f} (ring)")


def test_ac10_stochastic_mean_shift_scaling(capsys):
    t0 = time.perf_counter()
    obj = generate_logistic_problem(m=1, n=25, d=1,
                                    heterogeneity_spread=1.2,
                                    lambda_reg=0.1, seed=7)
    W = build_fully_connected(1)
    model = AdditiveGaussian.isotropic(1, 1, 1.0)
    failures = []
    biases = {}
    gammas = (0.1, 0.05)
    dets = [fixed_point(W, obj, gamma).point for gamma in gammas]
    cfgs = [RunConfig(algorithm="dsgd", gamma=gamma, T=250000, seed=21,
                      replicates=128, burn_in=5000, record_every=250000)
            for gamma in gammas]
    # both step sizes read the same draws, one chain each
    recs = run_chains([W, W], obj, model, cfgs, dets, Theta_dets=dets)
    for gamma, det, rec in zip(gammas, dets, recs):
        pred = float(stochastic_bias_first_order(obj, model, gamma)[0])
        mom = stationary_moments(rec, det)
        bias = float(mom.mean.data[0, 0] - det.data[0, 0])
        se = float(mom.std_errors[0, 0])
        biases[gamma] = bias
        z = (bias - pred) / se
        if abs(z) > 4.0:
            failures.append(
                f"gamma={gamma}: shift {bias:.5f} vs predicted {pred:.5f} "
                f"is {z:.2f} se off"
            )
    slope = math.log(abs(biases[0.1]) / abs(biases[0.05])) / math.log(2.0)
    if not 0.85 <= slope <= 1.15:
        failures.append(f"shift slope {slope:.3f} outside [0.85, 1.15]")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10min")
    _verdict(capsys, "AC10 stochastic mean shift scaling", failures,
             f"slope {slope:.3f}, shifts {biases[0.1]:.4f} / "
             f"{biases[0.05]:.4f}, {elapsed:.0f}s")


def test_ac11_matrix_perturbation_bounds(capsys):
    rng = np.random.default_rng(424)

    def rand_spd(n):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = rng.uniform(1.0, 50.0, size=n)
        w[0] = 1.0
        return (Q * w) @ Q.T

    def rand_psd(n, rank):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = np.zeros(n)
        w[:rank] = rng.uniform(0.5, 5.0, size=rank)
        return (Q * w) @ Q.T

    failures = []
    for i in range(50):
        n = int(rng.integers(2, 6))
        A = rand_psd(n, int(rng.integers(0, n + 1)))
        B = rand_spd(n)
        t = float(rng.uniform(1e-3, 1e-1))
        res = projected_pinv_expansion(A, B, t)
        diff = float(np.linalg.norm(res.exact - res.approx, 2))
        if diff > res.residual_bound:
            failures.append(
                f"triple {i}: expansion gap {diff:.3e} over bound "
                f"{res.residual_bound:.3e}"
            )
    for i in range(50):
        n = int(rng.integers(2, 6))
        A = rand_spd(n)
        B = rand_psd(n, int(rng.integers(0, n + 1)))
        bound = inverse_perturbation_bound(A, B)
        actual = float(np.linalg.norm(
            np.linalg.inv(A + B) - np.linalg.inv(A), 2
        ))
        if actual > bound:
            failures.append(
                f"pair {i}: inverse shift {actual:.3e} over bound "
                f"{bound:.3e}"
            )
    _verdict(capsys, "AC11 matrix perturbation bounds", failures,
             "50 expansion triples + 50 inverse pairs")


_AC12_BASE = (
    "topology.kind = ring\n"
    "topology.m = 4\n"
    "topology.t = 0.25\n"
    "objective.kind = quadratic\n"
    "objective.d = 2\n"
    "objective.seed = 3\n"
)

_AC12_CONFIGS = {
    "graph-info": _AC12_BASE + "output.prefix = g\n",
    "simulate": _AC12_BASE + (
        "noise.variant = gaussian\n"
        "noise.sigma2 = 0.5\n"
        "run.algorithm = dsgd\n"
        "run.gamma = 0.02\n"
        "run.T = 60\n"
        "run.replicates = 2\n"
        "run.record_every = 20\n"
        "run.seed = 1\n"
        "output.prefix = sim\n"
    ),
    "predict": _AC12_BASE + (
        "noise.variant = none\n"
        "run.gamma = 0.02\n"
        "output.prefix = pred\n"
    ),
    "compare": _AC12_BASE + (
        "noise.variant = none\n"
        "run.algorithm = dgd\n"
        "run.gamma = 0.02\n"
        "run.gammas = 0.02, 0.01, 0.005\n"
        "output.prefix = cmp\n"
    ),
    "sweep": (
        "objective.kind = quadratic\n"
        "objective.d = 2\n"
        "objective.seed = 3\n"
        "noise.variant = gaussian\n"
        "noise.sigma2 = 1.0\n"
        "run.gamma = 0.01\n"
        "run.T = 400\n"
        "run.replicates = 2\n"
        "run.seed = 2\n"
        "sweep.m_list = 4, 8\n"
        "sweep.topologies = fully_connected, ring\n"
        "sweep.gammas = 0.01\n"
        "output.prefix = swp\n"
    ),
}


def _cli_files(tmp_path, command, cfg_path, tag, threads=None):
    out = tmp_path / tag
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    rc = cli.main(argv)
    return rc, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_ac12_byte_identical_cli_reruns(tmp_path, capsys):
    failures = []
    for command, cfg_text in _AC12_CONFIGS.items():
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(cfg_text)
        if command == "sweep":
            runs = [
                _cli_files(tmp_path, command, cfg_path, "sweep-a", threads=1),
                _cli_files(tmp_path, command, cfg_path, "sweep-b", threads=1),
                _cli_files(tmp_path, command, cfg_path, "sweep-c", threads=2),
            ]
        else:
            runs = [
                _cli_files(tmp_path, command, cfg_path, f"{command}-a"),
                _cli_files(tmp_path, command, cfg_path, f"{command}-b"),
            ]
        for rc, _ in runs:
            if rc != 0:
                failures.append(f"{command}: exit code {rc}")
        first = runs[0][1]
        if not first:
            failures.append(f"{command}: produced no files")
        for rc, files in runs[1:]:
            if set(files) != set(first):
                failures.append(f"{command}: file sets differ")
            elif any(files[name] != first[name] for name in first):
                failures.append(f"{command}: bytes differ across reruns")
    _verdict(capsys, "AC12 byte-identical CLI reruns", failures,
             "5 commands, sweep at 1 and 2 threads")
