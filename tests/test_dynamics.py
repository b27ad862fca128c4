import threading
import time

import numpy as np
import pytest

from dsgd_lab import cli, dynamics, noise
from dsgd_lab.dynamics import (
    FixedPointResult,
    RunConfig,
    _Draws,
    coupled_run,
    default_burn_in,
    dgd_step,
    dsgd_step,
    fixed_point,
    rr_run,
    run,
    run_chains,
    solve_fixed_point,
)
from dsgd_lab.errors import (
    DivergenceError,
    InvalidParamError,
    InvalidStepError,
    ShapeMismatchError,
)
from dsgd_lab.noise import AdditiveGaussian, Minibatch, NoiseStream
from dsgd_lab.objectives import QuadraticObjectives, generate_logistic_problem
from dsgd_lab.stacked import StackedPoint
from dsgd_lab.theory import quad_exact_fixed_point
from dsgd_lab.topology import (
    CommMatrix,
    build_fully_connected,
    build_ring,
    gossip_operator,
    project_disagreement,
)


def two_client_example():
    """The m=2 scalar instance with the closed-form fixed point gamma/( (1+gamma) 11 )..."""
    obj = QuadraticObjectives(
        A=np.array([[[1.0]], [[1.0]]]), theta_loc_star=np.array([[1.0], [-1.0]])
    )
    W = CommMatrix.from_entries(np.array([[0.75, 0.25], [0.25, 0.75]]))
    return obj, W


def random_quadratic(rng, m, d):
    A = np.empty((m, d, d))
    for k in range(m):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A[k] = (Q * rng.uniform(0.5, 3.0, d)) @ Q.T
    loc = rng.standard_normal((m, d))
    return QuadraticObjectives(A=A, theta_loc_star=loc)


def _noisy_problem(noise_kind):
    """A 4-client logistic ring with Gaussian or minibatch noise."""
    obj = generate_logistic_problem(m=4, n=20, d=3, seed=5)
    W = build_ring(4, 0.3)
    if noise_kind == "gaussian":
        return obj, W, AdditiveGaussian.isotropic(4, 3, 0.4)
    return obj, W, Minibatch(batch_size=3)


class TestSteps:
    @pytest.mark.parametrize("noise_kind", ["gaussian", "minibatch"])
    def test_iterated_dsgd_step_is_run(self, noise_kind):
        # T crosses a draw-block boundary (512 steps)
        obj, W, model = _noisy_problem(noise_kind)
        T, seed = 600, 7
        Theta0 = StackedPoint(obj.m, obj.d, np.full((obj.m, obj.d), -0.2))
        point, stream = Theta0, NoiseStream(seed, 0)
        for t in range(T):
            point = dsgd_step(W, obj, model, 0.05, point, stream, t)
        cfg = RunConfig(algorithm="dsgd", gamma=0.05, T=T, seed=seed, record_every=T)
        rec = run(W, obj, model, cfg, Theta0)
        assert np.array_equal(point.data, rec.final[0])

    @pytest.mark.parametrize("noise_kind", ["gaussian", "minibatch"])
    def test_dsgd_step_rejects_negative_step(self, noise_kind):
        obj, W, model = _noisy_problem(noise_kind)
        with pytest.raises(InvalidParamError, match="t must be >= 0, got -1"):
            dsgd_step(W, obj, model, 0.05, obj.theta_star_stacked, NoiseStream(7, 0), -1)

    def test_single_client_plain_gradient(self):
        obj = QuadraticObjectives(A=np.array([[[2.0]]]), theta_loc_star=np.array([[0.0]]))
        W = build_fully_connected(1)
        out = dgd_step(W, obj, 0.1, StackedPoint.from_blocks([[1.0]]))
        assert out.data[0, 0] == pytest.approx(1.0 - 0.1 * 2.0)

    def test_homogeneous_consensus_is_fixed(self):
        obj = QuadraticObjectives(
            A=np.array([[[1.5]], [[1.5]]]), theta_loc_star=np.array([[0.4], [0.4]])
        )
        W = build_fully_connected(2)
        Theta = StackedPoint.replicate(obj.theta_star, 2)
        out = dgd_step(W, obj, 0.2, Theta)
        assert np.allclose(out.data, Theta.data, atol=1e-14)

    def test_warns_above_inverse_L(self):
        obj, W = two_client_example()
        with pytest.warns(UserWarning, match="exceeds 1/L"):
            dgd_step(W, obj, 1.5, StackedPoint.zeros(2, 1))

    def test_rejects_nonpositive_gamma(self):
        obj, W = two_client_example()
        with pytest.raises(InvalidStepError):
            dgd_step(W, obj, 0.0, StackedPoint.zeros(2, 1))

    def test_shape_mismatch(self):
        obj, W = two_client_example()
        with pytest.raises(ShapeMismatchError):
            dgd_step(W, obj, 0.1, StackedPoint.zeros(3, 1))

    def test_zero_noise_matches_dgd(self):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.0)
        Theta = StackedPoint.from_blocks([[0.5], [0.1]])
        a = dgd_step(W, obj, 0.1, Theta)
        b = dsgd_step(W, obj, model, 0.1, Theta, NoiseStream(0), 0)
        assert np.array_equal(a.data, b.data)

    def test_scalar_ar1_reduction(self):
        # m=1, f = (a/2) theta^2: theta' = (1-gamma a) theta - gamma eps exactly
        a, gamma, sigma = 2.0, 0.1, 0.7
        obj = QuadraticObjectives(A=np.array([[[a]]]), theta_loc_star=np.array([[0.0]]))
        W = build_fully_connected(1)
        model = AdditiveGaussian.isotropic(1, 1, sigma**2)
        stream = NoiseStream(seed=3)
        ref_stream = NoiseStream(seed=3)
        theta = 0.9
        point = StackedPoint.from_blocks([[theta]])
        for t in range(20):
            point = dsgd_step(W, obj, model, gamma, point, stream, t)
            eps = sigma * ref_stream.normals_at(t, 1)[0]
            theta = (1.0 - gamma * a) * theta - gamma * eps
            assert point.data[0, 0] == pytest.approx(theta, abs=1e-15)

    def test_one_step_conditional_mean(self):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.5)
        gamma = 0.1
        Theta = StackedPoint.from_blocks([[0.3], [-0.8]])
        det = dgd_step(W, obj, gamma, Theta)
        stream = NoiseStream(seed=31)
        n = 100_000
        acc = np.zeros((2, 1))
        for t in range(n):
            acc += dsgd_step(W, obj, model, gamma, Theta, stream, t).data
        tau2 = np.sqrt(2 * 0.5)
        assert np.linalg.norm(acc / n - det.data) <= 4.0 * gamma * tau2 / np.sqrt(n)


class TestFixedPoint:
    def test_homogeneous_gives_global_optimum(self):
        obj = QuadraticObjectives(
            A=np.array([[[1.0]], [[1.0]]]), theta_loc_star=np.array([[0.5], [0.5]])
        )
        W = build_fully_connected(2)
        res = fixed_point(W, obj, 0.1)
        assert np.allclose(res.point.data, StackedPoint.replicate(obj.theta_star, 2).data,
                           atol=1e-9)

    def test_fully_connected_gives_global_optimum(self):
        rng = np.random.default_rng(4)
        obj = random_quadratic(rng, 3, 2)
        W = build_fully_connected(3)
        res = fixed_point(W, obj, 0.5 / obj.L)
        assert np.allclose(res.point.data, StackedPoint.replicate(obj.theta_star, 3).data,
                           atol=1e-8)

    def test_two_client_closed_form(self):
        obj, W = two_client_example()
        res = fixed_point(W, obj, 0.1, tol=1e-12)
        assert res.point.data[0, 0] == pytest.approx(1.0 / 11.0, abs=1e-10)
        assert res.point.data[1, 0] == pytest.approx(-1.0 / 11.0, abs=1e-10)
        assert res.residual <= 10.0 * 1e-12

    def test_step_fixes_the_fixed_point(self):
        obj, W = two_client_example()
        res = fixed_point(W, obj, 0.1, tol=1e-12)
        after = dgd_step(W, obj, 0.1, res.point)
        assert np.allclose(after.data, res.point.data, atol=1e-10)

    def test_lemma2_identities(self):
        rng = np.random.default_rng(10)
        obj = random_quadratic(rng, 4, 2)
        W = build_ring(4, 0.25)
        tol = 1e-11
        gamma = 0.4 / obj.L
        res = fixed_point(W, obj, gamma, tol=tol)
        Theta_det = res.point
        grads = obj.grad_stacked(Theta_det)
        # mean gradient over clients vanishes at the fixed point
        assert np.linalg.norm(grads.data.mean(axis=0)) <= 10.0 * tol
        # disagreement part satisfies Q Theta_det = -gamma G grad F(Theta_det)
        G = gossip_operator(W)
        lhs = project_disagreement(Theta_det).data
        rhs = -gamma * (G @ grads.data)
        assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_divergence_stops_at_the_first_non_finite_iterate(self):
        obj, W = two_client_example()
        with pytest.warns(UserWarning, match="exceeds 1/L"), \
                np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="not finite at iteration") as err:
                fixed_point(W, obj, 5.0, max_iter=5000)
        # |1 - gamma| = 4 per step: the iterate overflows long before max_iter
        assert int(str(err.value).rsplit(" ", 1)[1]) < 600

    def test_unreachable_tolerance_raises(self):
        obj, W = two_client_example()
        with pytest.raises(Exception):
            fixed_point(W, obj, 0.1, tol=1e-12, max_iter=3)

    def test_start_at_the_exact_point_stops_at_once(self):
        obj, W = two_client_example()
        exact = StackedPoint.from_blocks([[1.0 / 11.0], [-1.0 / 11.0]])
        res = fixed_point(W, obj, 0.1, start=exact)
        assert res.iterations == 1
        assert np.allclose(res.point.data, exact.data, atol=1e-15)


def _fig2_problem():
    cfg = cli.preset_config("fig2-heterogeneous")
    W = cli.build_topology(cfg)
    return W, cli.build_objective(cfg, W.m)


class TestSolveFixedPoint:
    def test_matches_exact_quadratic_fixed_point(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            obj = random_quadratic(rng, m, d)
            W = build_ring(m, 0.3) if m >= 3 else build_fully_connected(m)
            limit = 2.0 / ((1.0 + obj.L / obj.mu) * obj.L
                           * max(W.spectral.Lambda, 1e-12))
            gamma = min(0.4 * limit, 0.5 / obj.L)
            exact = quad_exact_fixed_point(W, obj, gamma).theta_det.data
            got = solve_fixed_point(W, obj, gamma).point.data
            assert np.linalg.norm(got - exact) <= 1e-12 * np.linalg.norm(exact)

    def test_fig2_newton_point_is_verified_in_one_iteration(self):
        W, obj = _fig2_problem()
        gamma = 1e-3
        res = solve_fixed_point(W, obj, gamma)
        picard = fixed_point(W, obj, gamma)
        assert res.iterations == 1
        assert res.residual <= 1e-10 * gamma * obj.mu
        gap = np.linalg.norm(res.point.data - picard.point.data)
        assert gap <= picard.residual / (gamma * obj.mu)

    def test_divergence_is_reported_as_by_picard(self):
        obj, W = two_client_example()
        errors = []
        for solve in (fixed_point, solve_fixed_point):
            with pytest.warns(UserWarning, match="exceeds 1/L") as caught, \
                    np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceError) as err:
                    solve(W, obj, 5.0)
            assert len([w for w in caught if "exceeds 1/L" in str(w.message)]) == 1
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert "not finite at iteration" in errors[1]

    def test_rejects_nonpositive_gamma(self):
        obj, W = two_client_example()
        with pytest.raises(InvalidStepError):
            solve_fixed_point(W, obj, 0.0)

    def test_rejects_W_and_objective_of_different_m(self):
        obj, _ = two_client_example()
        with pytest.raises(ShapeMismatchError, match="W has m=3, objective has m=2"):
            solve_fixed_point(build_ring(3), obj, 0.1)

    @pytest.mark.parametrize("failure", ["no point", "singular Jacobian"])
    def test_failed_newton_falls_back_to_picard(self, monkeypatch, failure):
        obj, W = two_client_example()
        gamma = 0.1
        assert dynamics._newton_pays(obj, gamma)
        calls = []

        def failing_newton(*args, **kwargs):
            calls.append(failure)
            if failure == "singular Jacobian":
                raise np.linalg.LinAlgError("Singular matrix")
            return None

        monkeypatch.setattr(dynamics, "damped_newton", failing_newton)
        res = solve_fixed_point(W, obj, gamma)
        assert calls == [failure]
        picard = fixed_point(W, obj, gamma)
        assert res.iterations == picard.iterations > 1
        assert np.array_equal(res.point.data, picard.point.data)

    def test_large_md_at_a_large_step_runs_picard_alone(self, monkeypatch):
        obj = random_quadratic(np.random.default_rng(4), 20, 10)
        W = build_ring(20, 0.3)
        gamma = 1.0 / obj.L
        assert not dynamics._newton_pays(obj, gamma)

        def no_newton(*args):
            raise AssertionError("Newton ran")

        monkeypatch.setattr(dynamics, "_newton_point", no_newton)
        res = solve_fixed_point(W, obj, gamma)
        picard = fixed_point(W, obj, gamma)
        assert res.iterations == picard.iterations > 1
        assert np.array_equal(res.point.data, picard.point.data)

    def test_large_md_at_a_small_step_runs_newton(self):
        obj = random_quadratic(np.random.default_rng(4), 20, 10)
        W = build_ring(20, 0.3)
        gamma = 1e-3 / obj.L
        assert dynamics._newton_pays(obj, gamma)
        res = solve_fixed_point(W, obj, gamma)
        assert res.iterations == 1
        assert res.residual <= 1e-10 * gamma * obj.mu


class TestRun:
    def test_dgd_contracts_to_fixed_point(self):
        rng = np.random.default_rng(6)
        obj = random_quadratic(rng, 3, 2)
        W = build_ring(3, 0.3)
        gamma = 0.5 / obj.L
        det = fixed_point(W, obj, gamma, tol=1e-12)
        cfg = RunConfig(algorithm="dgd", gamma=gamma, T=200, seed=0, record_every=1)
        Theta0 = StackedPoint(3, 2, rng.standard_normal((3, 2)))
        rec = run(W, obj, None, cfg, Theta0, Theta_det=det.point)
        rate = 1.0 - gamma * obj.mu
        d = rec.dist_det[:, 0]
        for i in range(1, len(d)):
            assert d[i] <= rate * d[i - 1] + 1e-12

    def test_t_zero_records_initial_only(self):
        obj, W = two_client_example()
        cfg = RunConfig(algorithm="dgd", gamma=0.1, T=0)
        rec = run(W, obj, None, cfg, StackedPoint.from_blocks([[1.0], [2.0]]))
        assert list(rec.times) == [0]
        assert rec.dist_opt.shape == (1, 1)
        assert rec.stat_count == 0

    def test_determinism_same_seed(self):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.3)
        cfg = RunConfig(algorithm="dsgd", gamma=0.05, T=50, seed=12, replicates=2)
        Theta0 = StackedPoint.zeros(2, 1)
        a = run(W, obj, model, cfg, Theta0)
        b = run(W, obj, model, cfg, Theta0)
        assert np.array_equal(a.dist_opt, b.dist_opt)
        assert np.array_equal(a.final, b.final)

    def test_replicate_batching_invariance(self):
        # replicate 0 of a 3-replicate batch is bitwise the 1-replicate run
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.3)
        Theta0 = StackedPoint.zeros(2, 1)
        cfg3 = RunConfig(algorithm="dsgd", gamma=0.05, T=64, seed=12, replicates=3)
        cfg1 = RunConfig(algorithm="dsgd", gamma=0.05, T=64, seed=12, replicates=1)
        r3 = run(W, obj, model, cfg3, Theta0)
        r1 = run(W, obj, model, cfg1, Theta0)
        assert np.array_equal(r3.final[0], r1.final[0])
        assert np.array_equal(r3.dist_opt[:, 0], r1.dist_opt[:, 0])

    def test_minibatch_run_executes(self):
        obj = generate_logistic_problem(m=3, n=10, d=2, seed=5)
        W = build_ring(3, 0.3)
        model = Minibatch(batch_size=2)
        cfg = RunConfig(algorithm="dsgd", gamma=0.05, T=30, seed=1, replicates=2)
        rec = run(W, obj, model, cfg, StackedPoint.zeros(3, 2))
        assert rec.dist_opt.shape[1] == 2
        assert np.all(np.isfinite(rec.dist_opt))

    def test_step_size_warning_names_the_caller(self):
        obj, W = two_client_example()
        start = StackedPoint.zeros(2, 1)
        calls = [
            lambda: run(W, obj, None, RunConfig(algorithm="dgd", gamma=1.5, T=3), start),
            lambda: rr_run(W, obj, None, RunConfig(algorithm="rr_dgd", gamma=1.5, T=3), start),
            lambda: run_chains([W], obj, None, [RunConfig(algorithm="dgd", gamma=1.5, T=3)],
                               [start]),
            lambda: solve_fixed_point(W, obj, 1.5),
        ]
        for call in calls:
            with pytest.warns(UserWarning, match="exceeds 1/L") as caught:
                call()
            assert [w.filename for w in caught] == [__file__]

    def test_divergence_names_step_and_replicate(self):
        obj, W = two_client_example()
        cfg = RunConfig(algorithm="dgd", gamma=5.0, T=2000, replicates=2, record_every=2000)
        with pytest.warns(UserWarning, match="exceeds 1/L"), \
                np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="step 2000 in replicate 0"):
                run(W, obj, None, cfg, StackedPoint.zeros(2, 1))

    def test_dsgd_without_noise_rejected(self):
        obj, W = two_client_example()
        cfg = RunConfig(algorithm="dsgd", gamma=0.05, T=5)
        with pytest.raises(InvalidParamError):
            run(W, obj, None, cfg, StackedPoint.zeros(2, 1))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(InvalidParamError, match=r"seed must be in \[0, 2\*\*64\)"):
            RunConfig(algorithm="dsgd", gamma=0.1, T=10, seed=seed)

    @pytest.mark.parametrize("field, error, match", [
        (dict(algorithm="adam"), InvalidParamError, "algorithm must be one of"),
        (dict(coupling="crossed"), InvalidParamError, "coupling must be one of"),
        (dict(gamma=0.0), InvalidStepError, "gamma must be positive"),
        (dict(gamma=-0.1), InvalidStepError, "gamma must be positive"),
        (dict(record_every=0), InvalidParamError, "record_every must be >= 1"),
        (dict(burn_in=-1), InvalidParamError, "burn_in must be >= 0"),
    ], ids=["algorithm", "coupling", "zero-gamma", "negative-gamma", "record_every",
            "burn_in"])
    def test_bad_field_rejected(self, field, error, match):
        with pytest.raises(error, match=match):
            RunConfig(**{"algorithm": "dgd", "gamma": 0.1, "T": 10, **field})

    def test_burn_in_validation(self):
        with pytest.raises(InvalidParamError):
            RunConfig(algorithm="dgd", gamma=0.1, T=10, burn_in=10)
        with pytest.raises(InvalidParamError):
            RunConfig(algorithm="dgd", gamma=0.1, T=0, burn_in=3)
        assert default_burn_in(0.1, 1.0, 10**9) == 132

    def test_burn_in_at_a_vanishing_rate_is_capped_by_T(self):
        # at gamma mu = 1e-303, log(1 - gamma mu) is 0; log1p(-gamma mu) is not
        assert default_burn_in(1e-3, 1e-300, 50) == 49
        # gamma mu underflows to 0: the transient never decays
        assert default_burn_in(1e-300, 1e-300, 50) == 49

    @pytest.mark.parametrize("engine", ["run", "run_chains", "rr_run"])
    def test_theta_det_of_the_wrong_shape_is_rejected(self, engine):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.1)
        start, wrong = StackedPoint.zeros(2, 1), StackedPoint.zeros(3, 1)
        cfg = RunConfig(algorithm="dsgd", gamma=0.05, T=5)
        calls = {
            "run": lambda: run(W, obj, model, cfg, start, Theta_det=wrong),
            "run_chains": lambda: run_chains([W], obj, model, [cfg], [start], [wrong]),
            "rr_run": lambda: rr_run(W, obj, model, RunConfig(algorithm="rr_dsgd", gamma=0.05, T=5),
                                     start, wrong),
        }
        with pytest.raises(ShapeMismatchError, match=r"\(3,1\)"):
            calls[engine]()

    def test_stationary_sums_accumulate(self):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.1)
        cfg = RunConfig(algorithm="dsgd", gamma=0.05, T=500, seed=3, replicates=2,
                        burn_in=100, record_every=100)
        rec = run(W, obj, model, cfg, StackedPoint.zeros(2, 1))
        assert rec.stat_count == 400
        means = rec.stat_sum / rec.stat_count
        assert means.shape == (2, 2, 1)
        sm = rec.stat_outer / rec.stat_count
        assert sm.shape == (2, 2, 2)
        # second moment minus mean outer product is a valid covariance (PSD-ish)
        cov = sm[0] - np.outer(means[0].ravel(), means[0].ravel())
        assert np.all(np.linalg.eigvalsh(cov) > -1e-12)


class TestCoupledRun:
    def test_matches_two_separate_runs(self):
        obj, W, model = _noisy_problem("minibatch")
        rng = np.random.default_rng(3)
        A0 = StackedPoint(obj.m, obj.d, rng.standard_normal((obj.m, obj.d)))
        B0 = StackedPoint(obj.m, obj.d, rng.standard_normal((obj.m, obj.d)))
        d2 = coupled_run(W, obj, model, 0.05, 600, A0, B0, seed=6, replicates=3)
        cfg = RunConfig(algorithm="dsgd", gamma=0.05, T=600, seed=6, replicates=3,
                        record_every=600)
        a = run(W, obj, model, cfg, A0).final
        b = run(W, obj, model, cfg, B0).final
        assert d2[-1] == float(np.mean(np.sum((a - b) ** 2, axis=(1, 2))))

    def test_identical_starts_collapse(self):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.5)
        Theta0 = StackedPoint.from_blocks([[0.2], [0.4]])
        d2 = coupled_run(W, obj, model, 0.1, 10, Theta0, Theta0, seed=0)
        assert np.all(d2 == 0.0)

    def test_quadratic_deterministic_contraction(self):
        rng = np.random.default_rng(8)
        obj = random_quadratic(rng, 3, 2)
        W = build_ring(3, 0.25)
        model = AdditiveGaussian.isotropic(3, 2, 0.2)
        gamma = 0.8 / obj.L
        A0 = StackedPoint(3, 2, rng.standard_normal((3, 2)))
        B0 = StackedPoint(3, 2, rng.standard_normal((3, 2)))
        d2 = coupled_run(W, obj, model, gamma, 50, A0, B0, seed=2)
        rate2 = (1.0 - gamma * obj.mu) ** 2
        for t in range(1, len(d2)):
            assert d2[t] <= rate2 * d2[t - 1] + 1e-12

    def test_rejects_large_step(self):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.5)
        Theta0 = StackedPoint.zeros(2, 1)
        with pytest.raises(InvalidStepError):
            coupled_run(W, obj, model, 2.1 / obj.L, 5, Theta0, Theta0)

    @pytest.mark.parametrize("T, replicates", [(-1, 1), (5, 0), (5, -2)])
    def test_rejects_negative_T_and_too_few_replicates(self, T, replicates):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.5)
        Theta0 = StackedPoint.zeros(2, 1)
        with pytest.raises(InvalidParamError):
            coupled_run(W, obj, model, 0.1, T, Theta0, Theta0, replicates=replicates)


class TestRRRun:
    def test_two_client_limit_extrapolation(self):
        # theta(gamma) = 0.5 gamma / (0.5 + 0.5 gamma); RR limit = 2 theta(0.05) - theta(0.1)
        obj, W = two_client_example()
        cfg = RunConfig(algorithm="rr_dgd", gamma=0.1, T=2500, record_every=2500)
        rec = rr_run(W, obj, None, cfg, StackedPoint.zeros(2, 1))
        expect = 2.0 * (1.0 / 21.0) - 1.0 / 11.0
        assert expect == pytest.approx(1.0 / 231.0)
        assert rec.final[0, 0, 0] == pytest.approx(expect, abs=1e-9)
        assert rec.final[0, 1, 0] == pytest.approx(-expect, abs=1e-9)

    def test_homogeneous_limit_is_global_optimum(self):
        obj = QuadraticObjectives(
            A=np.array([[[1.0]], [[1.0]]]), theta_loc_star=np.array([[0.5], [0.5]])
        )
        W = build_fully_connected(2)
        cfg = RunConfig(algorithm="rr_dgd", gamma=0.1, T=500, record_every=500)
        rec = rr_run(W, obj, None, cfg, StackedPoint.zeros(2, 1))
        assert np.allclose(rec.final[0], 0.5, atol=1e-10)

    def test_rr_bias_ratio_near_four(self):
        obj, W = two_client_example()
        errs = []
        for gamma in (0.1, 0.05):
            cfg = RunConfig(algorithm="rr_dgd", gamma=gamma, T=6000, record_every=6000)
            rec = rr_run(W, obj, None, cfg, StackedPoint.zeros(2, 1))
            theta_star = obj.theta_star
            errs.append(np.linalg.norm(rec.final[0] - theta_star[None, :]))
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0

    def test_shared_vs_independent_coupling(self):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.2)
        base = dict(algorithm="rr_dsgd", gamma=0.05, T=40, seed=9, replicates=2)
        rec_shared = rr_run(W, obj, model, RunConfig(coupling="shared", **base),
                            StackedPoint.zeros(2, 1))
        rec_indep = rr_run(W, obj, model, RunConfig(coupling="independent", **base),
                           StackedPoint.zeros(2, 1))
        assert not np.array_equal(rec_shared.final, rec_indep.final)
        # both runs are individually reproducible
        rec_shared2 = rr_run(W, obj, model, RunConfig(coupling="shared", **base),
                             StackedPoint.zeros(2, 1))
        assert np.array_equal(rec_shared.final, rec_shared2.final)

    @pytest.mark.parametrize("noise_kind", ["gaussian", "minibatch"])
    def test_shared_rr_is_two_plain_runs_combined(self, noise_kind):
        obj, W, model = _noisy_problem(noise_kind)
        base = dict(gamma=0.05, T=700, seed=4, replicates=3, record_every=700)
        Theta0 = StackedPoint(obj.m, obj.d, np.full((obj.m, obj.d), 0.3))
        rec = rr_run(W, obj, model, RunConfig(algorithm="rr_dsgd", **base), Theta0)
        full = run(W, obj, model, RunConfig(algorithm="dsgd", **base), Theta0)
        half = run(W, obj, model,
                   RunConfig(algorithm="dsgd", **dict(base, gamma=0.025)), Theta0)
        assert np.array_equal(rec.final, 2.0 * half.final - full.final)

    def test_combination_is_formed_only_at_recorded_or_accumulated_steps(self, monkeypatch):
        obj, W = two_client_example()
        combined = []
        drive = dynamics._drive

        def counting_drive(chain, obj, configs, Theta_dets, combine=None):
            def counted(Th):
                combined.append(1)
                return combine(Th)
            return drive(chain, obj, configs, Theta_dets, counted)

        monkeypatch.setattr(dynamics, "_drive", counting_drive)
        cfg = RunConfig(algorithm="rr_dgd", gamma=0.1, T=100, record_every=30, burn_in=90)
        rec = rr_run(W, obj, None, cfg, StackedPoint.zeros(2, 1))
        assert rec.times.tolist() == [0, 30, 60, 90, 100]
        assert rec.stat_count == 10
        # the records at 0, 30, 60 and 90, and the moments at 91 to 100
        assert len(combined) == 14

    def test_run_dispatches_rr(self):
        obj, W = two_client_example()
        cfg = RunConfig(algorithm="rr_dgd", gamma=0.1, T=100, record_every=100)
        rec = run(W, obj, None, cfg, StackedPoint.zeros(2, 1))
        assert rec.config.algorithm == "rr_dgd"


class TestRunChains:
    BASE = dict(algorithm="dsgd", gamma=0.05, T=50, seed=3, replicates=2, burn_in=10,
                record_every=10)

    def _run(self, *configs):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.1)
        starts = [StackedPoint.zeros(2, 1)] * len(configs)
        return run_chains([W] * len(configs), obj, model, list(configs), starts)

    @pytest.mark.parametrize("change", [dict(T=60), dict(seed=4), dict(replicates=3),
                                        dict(record_every=5), dict(burn_in=7),
                                        dict(algorithm="dgd")],
                             ids=lambda change: next(iter(change)))
    def test_mismatched_configs_rejected(self, change):
        with pytest.raises(InvalidParamError, match="share"):
            self._run(RunConfig(**self.BASE), RunConfig(**dict(self.BASE, **change)))

    def test_default_burn_ins_must_resolve_equal(self):
        # the default burn-in grows as 1/gamma, so these two resolve apart
        auto = dict(self.BASE, burn_in=None, T=5000)
        with pytest.raises(InvalidParamError, match="burn-in"):
            self._run(RunConfig(**auto), RunConfig(**dict(auto, gamma=0.02)))

    @pytest.mark.parametrize("algorithm", ["rr_dgd", "rr_dsgd"])
    def test_rr_configs_rejected(self, algorithm):
        cfg = RunConfig(**dict(self.BASE, algorithm=algorithm))
        with pytest.raises(InvalidParamError, match="dgd or dsgd"):
            self._run(cfg, cfg)

    def test_one_W_start_and_Theta_det_per_config(self):
        obj, W = two_client_example()
        cfg = RunConfig(**dict(self.BASE, algorithm="dgd"))
        start = StackedPoint.zeros(2, 1)
        with pytest.raises(InvalidParamError, match="per config"):
            run_chains([W], obj, None, [cfg, cfg], [start, start])
        with pytest.raises(InvalidParamError, match="per config"):
            run_chains([W, W], obj, None, [cfg, cfg], [start])
        with pytest.raises(InvalidParamError, match="per config"):
            run_chains([W, W], obj, None, [cfg, cfg], [start, start], [start])
        with pytest.raises(InvalidParamError, match="per config"):
            run_chains([], obj, None, [], [])

    def test_divergence_names_the_chain(self):
        obj, W = two_client_example()
        cfgs = [RunConfig(algorithm="dgd", gamma=gamma, T=2000, replicates=2,
                          record_every=2000, burn_in=0) for gamma in (0.1, 5.0)]
        with pytest.warns(UserWarning, match="exceeds 1/L"), \
                np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="step 2000 in chain 1, replicate 0"):
                run_chains([W, W], obj, None, cfgs, [StackedPoint.zeros(2, 1)] * 2)


class _FillFailed(Exception):
    pass


class TestFillWorker:
    """The worker that fills a run's next half-block of minibatch picks: it
    runs at two or more CPUs on that lane alone, its errors reach the
    caller, and no thread outlives a run."""

    T = 1100

    @staticmethod
    def _problem():
        obj = generate_logistic_problem(m=3, n=6, d=2, seed=8)
        return obj, build_ring(3, 0.3), StackedPoint.zeros(3, 2)

    def _rr(self, model, gamma=None, T=None):
        obj, W, start = self._problem()
        cfg = RunConfig(algorithm="rr_dsgd", gamma=gamma or 0.5 / obj.L, T=T or self.T,
                        replicates=2, record_every=300)
        return rr_run(W, obj, model, cfg, start)

    @staticmethod
    def _recording(monkeypatch, delay=0.0):
        """Replace _draw_blocks by one that records (thread, block, lo, hi,
        replicates of the streams read) of each call, and sleeps delay
        seconds in each call off the main thread."""
        calls = []
        draw_blocks = noise._draw_blocks

        def recording(streams, purpose, block, width, out=None, lo=0, hi=None):
            calls.append((threading.current_thread(), block, lo, hi,
                          tuple(s.replicate for s in streams)))
            if threading.current_thread() is not threading.main_thread():
                time.sleep(delay)
            return draw_blocks(streams, purpose, block, width, out, lo, hi)

        monkeypatch.setattr(noise, "_draw_blocks", recording)
        return calls

    @pytest.mark.parametrize("kind, cpus, halves", [
        ("minibatch", 2, True), ("minibatch", 4, True), ("minibatch", 1, False),
        ("gaussian", 2, False), ("gaussian", 1, False)])
    def test_halves_are_filled_ahead_on_the_minibatch_lane_at_two_cpus(self, monkeypatch,
                                                                        kind, cpus, halves):
        obj, W, start = self._problem()
        model = Minibatch(2) if kind == "minibatch" else AdditiveGaussian.isotropic(3, 2, 0.4)
        monkeypatch.setattr(noise, "_usable_cpus", lambda: cpus)
        calls = self._recording(monkeypatch)
        # steps 0-599 read units 0-2 of halves (blocks 0 and 1 whole), and
        # nothing past step 599 is filled. A minibatch unit is drawn and
        # picked one stream at a time, a Gaussian one for both streams at once
        self._rr(model, T=600)
        filled = [call[1:] for call in calls]
        main = threading.main_thread()
        units = [(0, 0, 256), (0, 256, 512), (1, 0, 256)] if halves else [(0, 0, 512),
                                                                          (1, 0, 512)]
        if kind == "minibatch":
            assert filled == [unit + ((r,),) for unit in units for r in (0, 1)]
        else:
            assert filled == [unit + ((0, 1),) for unit in units]
        # the first unit on the calling thread, every later one on the worker
        assert [thread is main for thread, *_ in calls] == [
            not halves or block * 512 + lo == 0 for _, block, lo, *_ in calls]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_thread_outlives_a_run(self, monkeypatch, cpus):
        obj, W, start = self._problem()
        monkeypatch.setattr(noise, "_usable_cpus", lambda: cpus)
        threads = threading.active_count()
        self._rr(Minibatch(2))
        configs = [RunConfig(algorithm="dsgd", gamma=g, T=self.T, replicates=2,
                             record_every=300, burn_in=10) for g in (0.1, 0.2)]
        run_chains([W, W], obj, Minibatch(2), configs, [start, start])
        coupled_run(W, obj, Minibatch(2), 0.1, self.T, start, obj.theta_star_stacked)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("bad_unit", [0, 1, 2, 4])
    def test_a_failed_fill_reaches_the_caller(self, monkeypatch, bad_unit):
        # unit 0 is filled on the calling thread, every later one by the worker
        error = _FillFailed(f"unit {bad_unit} failed")
        draw_blocks = noise._draw_blocks

        def failing(streams, purpose, block, width, out=None, lo=0, hi=None):
            if block * NoiseStream.block_size + lo == bad_unit * NoiseStream.block_size // 2:
                raise error
            return draw_blocks(streams, purpose, block, width, out, lo, hi)

        monkeypatch.setattr(noise, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(noise, "_draw_blocks", failing)
        threads = threading.active_count()
        with pytest.raises(_FillFailed) as raised:
            self._rr(Minibatch(2))
        assert raised.value is error
        assert str(raised.value) == f"unit {bad_unit} failed"
        assert threading.active_count() == threads

    def test_divergence_leaves_no_thread(self, monkeypatch):
        # the run diverges before step 300, its first record after step 0,
        # while the worker still fills the half from step 512 on. The error
        # is kept, and with it the frames of the run and its chain
        monkeypatch.setattr(noise, "_usable_cpus", lambda: 2)
        calls = self._recording(monkeypatch, delay=0.3)
        threads = threading.active_count()
        with pytest.warns(UserWarning, match="exceeds 1/L"), \
                np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="step 300 in replicate 0") as raised:
                self._rr(Minibatch(2), gamma=1e3)
        assert threading.active_count() == threads
        assert raised.value.__traceback__ is not None
        assert (1, 0, 256) in [call[1:4] for call in calls]

    def test_closing_the_chain_early_joins_the_fill(self, monkeypatch):
        obj, W, start = self._problem()
        monkeypatch.setattr(noise, "_usable_cpus", lambda: 2)
        self._recording(monkeypatch, delay=0.3)
        threads = threading.active_count()
        draws = _Draws(Minibatch(2), obj, 5, [range(2)], self.T)
        chain = dynamics._iterate([W], obj, Minibatch(2), [0.1], [start], 2, draws, self.T)
        for _, _Th in zip(range(300), chain):
            pass
        # step 299 read the half from 256, so the half from 512 is in flight
        assert threading.active_count() == threads + 1
        chain.close()
        assert threading.active_count() == threads
