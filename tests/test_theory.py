import io
import math

import numpy as np
import pytest

from dsgd_lab.dynamics import fixed_point
from dsgd_lab.errors import (
    InvalidParamError,
    StepTooLargeError,
    UnsupportedCombinationError,
)
from dsgd_lab.noise import AdditiveGaussian
from dsgd_lab.objectives import QuadraticObjectives, generate_logistic_problem
from dsgd_lab.stacked import StackedPoint
from dsgd_lab import theory
from dsgd_lab.theory import (
    bound_diagnostics,
    det_bias_expansion,
    lemma3_bound,
    mean_third_contraction,
    quad_exact_fixed_point,
    recommend_schedule,
    rr_bias_bound,
    stochastic_bias_first_order,
    theory_report,
    variance_first_order,
)
from dsgd_lab.topology import (
    CommMatrix,
    build_clusters,
    build_fully_connected,
    build_ring,
)


def two_client_example():
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


def random_topology(rng, m):
    choice = rng.integers(0, 3)
    if choice == 0 or m < 3:
        return build_fully_connected(m)
    if choice == 1:
        return build_ring(m, float(rng.uniform(0.05, 0.45)))
    if m % 2 == 0:
        return build_clusters(m, m // 2, float(rng.uniform(0.05, 0.2)))
    return build_ring(m, 0.25)


class TestQuadExact:
    def test_two_client_closed_form(self):
        obj, W = two_client_example()
        res = quad_exact_fixed_point(W, obj, 0.1)
        assert res.theta_det.data[0, 0] == pytest.approx(1.0 / 11.0, abs=1e-14)
        assert res.theta_det.data[1, 0] == pytest.approx(-1.0 / 11.0, abs=1e-14)

    def test_parts_sum_to_total(self):
        obj, W = two_client_example()
        res = quad_exact_fixed_point(W, obj, 0.1)
        assert np.allclose(
            res.consensus_part.data + res.disagreement_part.data,
            res.theta_det.data, atol=1e-14,
        )
        # consensus part is replicated, disagreement part has zero mean
        assert np.allclose(res.consensus_part.data[0], res.consensus_part.data[1])
        assert np.allclose(res.disagreement_part.data.mean(axis=0), 0.0,
                           atol=1e-14)

    def test_homogeneous_is_global_optimum(self):
        obj = QuadraticObjectives(
            A=np.array([[[1.0]], [[1.0]]]), theta_loc_star=np.array([[0.5], [0.5]])
        )
        _, W = two_client_example()
        res = quad_exact_fixed_point(W, obj, 0.1)
        assert np.allclose(res.theta_det.data, 0.5, atol=1e-12)

    def test_fully_connected_is_global_optimum(self):
        rng = np.random.default_rng(0)
        obj = random_quadratic(rng, 4, 2)
        W = build_fully_connected(4)
        res = quad_exact_fixed_point(W, obj, 0.3 / obj.L)
        expect = StackedPoint.replicate(obj.theta_star, 4)
        assert np.allclose(res.theta_det.data, expect.data, atol=1e-12)
        assert np.allclose(res.disagreement_part.data, 0.0)

    def test_matches_iterated_fixed_point(self):
        rng = np.random.default_rng(20)
        for trial in range(8):
            m = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            obj = random_quadratic(rng, m, d)
            W = random_topology(rng, m)
            limit = 2.0 / ((1.0 + obj.L / obj.mu) * obj.L
                           * max(W.spectral.Lambda, 1e-12))
            gamma = min(0.4 * limit, 0.5 / obj.L)
            pred = quad_exact_fixed_point(W, obj, gamma).theta_det
            ref = fixed_point(W, obj, gamma, tol=1e-12).point
            assert np.linalg.norm(pred.data - ref.data) <= 1e-9

    def test_step_gate(self):
        obj, W = two_client_example()
        # L = mu = 1, Lambda = 2: limit is 0.5
        with pytest.raises(StepTooLargeError, match="violates"):
            quad_exact_fixed_point(W, obj, 0.5)

    def test_rejects_non_quadratic(self):
        obj = generate_logistic_problem(m=2, n=10, d=1, seed=0)
        _, W = two_client_example()
        with pytest.raises(UnsupportedCombinationError):
            quad_exact_fixed_point(W, obj, 0.01)


class TestBiasExpansion:
    def test_homogeneous_prediction_is_optimum(self):
        obj = QuadraticObjectives(
            A=np.array([[[1.0]], [[1.0]]]), theta_loc_star=np.array([[0.5], [0.5]])
        )
        _, W = two_client_example()
        pred, bound = det_bias_expansion(W, obj, 0.1)
        assert np.allclose(pred.data, 0.5, atol=1e-12)
        assert bound == 0.0

    def test_gamma_linear_coefficient(self):
        rng = np.random.default_rng(3)
        obj = random_quadratic(rng, 4, 2)
        W = build_ring(4, 0.25)
        gamma = 1e-4 / obj.L
        exact = quad_exact_fixed_point(W, obj, gamma).theta_det
        pred = det_bias_expansion(W, obj, gamma).prediction
        lin_pred = (pred.data - obj.theta_star_stacked.data) / gamma
        lin_exact = (exact.data - obj.theta_star_stacked.data) / gamma
        assert np.linalg.norm(lin_exact - lin_pred) <= 0.05 * np.linalg.norm(
            lin_pred
        )

    def test_residual_shrinks_quadratically(self):
        rng = np.random.default_rng(4)
        obj = random_quadratic(rng, 3, 2)
        W = build_ring(3, 0.3)
        gamma = 1e-3 / obj.L
        errs = []
        for g in (gamma, gamma / 2.0):
            exact = quad_exact_fixed_point(W, obj, g).theta_det
            pred = det_bias_expansion(W, obj, g).prediction
            errs.append(np.linalg.norm(exact.data - pred.data))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_logistic_prediction_within_bound(self):
        obj = generate_logistic_problem(m=4, n=20, d=2, seed=7)
        W = build_ring(4, 0.25)
        gamma = 5e-3
        pred, bound = det_bias_expansion(W, obj, gamma)
        ref = fixed_point(W, obj, gamma).point
        assert np.linalg.norm(ref.data - pred.data) <= bound

    def test_expansion_and_lyapunov_core_build_one_abar(self, monkeypatch):
        # at d = 1 a numpy mean over m >= 8 clients goes pairwise, so a
        # second way of averaging would differ in the last bits here
        seen = []

        class SpyOps(theory._BlockOps):
            def __init__(self, W, hessians, mean_hessian, gamma):
                seen.append(np.array(mean_hessian))
                super().__init__(W, hessians, mean_hessian, gamma)

        monkeypatch.setattr(theory, "_BlockOps", SpyOps)
        noise = AdditiveGaussian.isotropic(8, 1, 1.0)
        for seed in range(20):
            obj = generate_logistic_problem(m=8, n=20, d=1, seed=seed)
            det_bias_expansion(build_fully_connected(8), obj, 0.5 / obj.L)
            Abar, _ = theory._lyapunov_core(obj, noise)
            assert seen.pop().tobytes() == Abar.tobytes(), seed

    def test_step_gate(self):
        obj, W = two_client_example()
        # min(1/(Lambda L), 1/L) = 0.5
        with pytest.raises(StepTooLargeError, match="min"):
            det_bias_expansion(W, obj, 0.51)


class TestLemma3:
    def test_two_client_numbers(self):
        obj, W = two_client_example()
        bound = lemma3_bound(obj, W, 0.1)
        assert bound == pytest.approx(0.1 * 1.0 * 2.0 * math.sqrt(2.0))
        actual = np.linalg.norm(
            fixed_point(W, obj, 0.1, tol=1e-12).point.data
            - obj.theta_star_stacked.data
        )
        assert actual == pytest.approx(math.sqrt(2.0) / 11.0, abs=1e-9)
        assert actual <= bound

    def test_homogeneous_zero(self):
        obj = QuadraticObjectives(
            A=np.array([[[1.0]], [[1.0]]]), theta_loc_star=np.array([[0.5], [0.5]])
        )
        _, W = two_client_example()
        assert lemma3_bound(obj, W, 0.1) == 0.0

    def test_fully_connected_zero(self):
        rng = np.random.default_rng(1)
        obj = random_quadratic(rng, 3, 2)
        W = build_fully_connected(3)
        assert lemma3_bound(obj, W, 0.1 / obj.L) == 0.0

    def test_holds_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            obj = random_quadratic(rng, m, 2)
            W = random_topology(rng, m)
            lim = min(1.0 / obj.L,
                      1.0 / (max(W.spectral.Lambda, 1e-12) * obj.L))
            gamma = 0.5 * lim
            bound = lemma3_bound(obj, W, gamma)
            actual = np.linalg.norm(
                fixed_point(W, obj, gamma, tol=1e-12).point.data
                - obj.theta_star_stacked.data
            )
            assert actual <= bound + 1e-12


class TestVarianceFirstOrder:
    def test_scalar_example(self):
        obj = QuadraticObjectives(A=np.array([[[1.0]]]),
                                  theta_loc_star=np.array([[0.0]]))
        model = AdditiveGaussian.isotropic(1, 1, 1.0)
        out = variance_first_order(obj, model, 0.1)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(0.05, abs=1e-15)
        # the exact stationary variance of the scalar recursion is
        # gamma sigma^2 / (a (2 - gamma a)); first order in gamma
        exact = 0.1 / (2.0 - 0.1)
        assert abs(out[0, 0] - exact) <= 0.01 * exact + 0.1**2

    def test_explicit_client_count_scaling(self):
        obj, _ = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 1.0)
        v2 = variance_first_order(obj, model, 0.1, m=2)
        v4 = variance_first_order(obj, model, 0.1, m=4)
        assert np.allclose(v4, 0.5 * v2)

    def test_zero_noise(self):
        obj, _ = two_client_example()
        assert np.all(variance_first_order(obj, None, 0.1) == 0.0)
        zero = AdditiveGaussian.isotropic(2, 1, 0.0)
        assert np.all(variance_first_order(obj, zero, 0.1) == 0.0)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(9)
        obj = random_quadratic(rng, 3, 3)
        F = rng.standard_normal((3, 3, 3))
        C = np.einsum("kij,klj->kil", F, F)
        model = AdditiveGaussian(C=C)
        out = variance_first_order(obj, model, 0.05 / obj.L)
        assert np.allclose(out, out.T)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-12


class TestStochasticBias:
    def test_quadratic_is_zero(self):
        obj, _ = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 1.0)
        assert np.all(stochastic_bias_first_order(obj, model, 0.1) == 0.0)

    def test_zero_covariance_is_zero(self):
        obj = generate_logistic_problem(m=2, n=10, d=2, seed=1)
        model = AdditiveGaussian.isotropic(2, 2, 0.0)
        assert np.all(stochastic_bias_first_order(obj, model, 0.01) == 0.0)

    def test_scalar_closed_form(self):
        obj = generate_logistic_problem(m=1, n=30, d=1, seed=2)
        sigma2 = 0.7
        model = AdditiveGaussian.isotropic(1, 1, sigma2)
        gamma = 0.05
        star = obj.theta_star
        a = obj.mean_hessian(star)[0, 0]
        b = mean_third_contraction(obj, star, np.array([[1.0]]))[0]
        expect = -gamma * b * sigma2 / (4.0 * a**2)
        out = stochastic_bias_first_order(obj, model, gamma)
        assert out[0] == pytest.approx(expect, rel=1e-12)

    def test_analytic_matches_finite_difference(self):
        obj = generate_logistic_problem(m=3, n=15, d=2, seed=4)
        rng = np.random.default_rng(5)
        M = rng.standard_normal((2, 2))
        V = M @ M.T
        star = obj.theta_star
        ana = mean_third_contraction(obj, star, V, method="analytic")
        num = mean_third_contraction(obj, star, V, method="fd")
        assert np.linalg.norm(ana - num) <= 1e-6 * (1.0 + np.linalg.norm(ana))


class TestRRBound:
    def test_two_client_numbers(self):
        obj, W = two_client_example()
        bound = rr_bias_bound(obj, W, 0.1)
        assert bound == pytest.approx(0.01 * 4.0 * math.sqrt(2.0))
        # actual extrapolated limit: per-client 2 theta(gamma/2) - theta(gamma)
        half = quad_exact_fixed_point(W, obj, 0.05).theta_det.data
        full = quad_exact_fixed_point(W, obj, 0.1).theta_det.data
        rr = 2.0 * half - full
        actual = np.linalg.norm(rr - obj.theta_star_stacked.data)
        assert actual == pytest.approx(math.sqrt(2.0) / 231.0, abs=1e-12)
        assert actual <= bound

    def test_quadratic_step_scaling(self):
        obj, W = two_client_example()
        assert rr_bias_bound(obj, W, 0.05) == pytest.approx(
            rr_bias_bound(obj, W, 0.1) / 4.0
        )

    def test_homogeneous_zero(self):
        obj = QuadraticObjectives(
            A=np.array([[[1.0]], [[1.0]]]), theta_loc_star=np.array([[0.5], [0.5]])
        )
        _, W = two_client_example()
        assert rr_bias_bound(obj, W, 0.1) == 0.0


class TestDiagnostics:
    def test_all_terms_nonnegative(self):
        obj = generate_logistic_problem(m=4, n=20, d=2, seed=3)
        W = build_ring(4, 0.25)
        model = AdditiveGaussian.isotropic(4, 2, 0.5)
        diag = bound_diagnostics(obj, W, model, 1e-3)
        for name, value in diag.as_rows():
            if name == "contraction_rate":
                assert 0.0 <= value < 1.0
            else:
                assert value >= 0.0, name

    def test_fully_connected_kills_topology_terms(self):
        rng = np.random.default_rng(2)
        obj = random_quadratic(rng, 4, 2)
        W = build_fully_connected(4)
        model = AdditiveGaussian.isotropic(4, 2, 1.0)
        diag = bound_diagnostics(obj, W, model, 0.05 / obj.L)
        assert diag.term_gamma_2 == 0.0
        assert diag.term_gamma_5_2 == 0.0
        assert diag.var_topology == 0.0
        assert diag.term_gamma > 0.0

    def test_step_scaling_exact_when_B_constant(self):
        # homogeneous clients: zeta* = 0 so B does not depend on gamma
        obj = QuadraticObjectives(
            A=np.stack([np.eye(1)] * 4),
            theta_loc_star=np.zeros((4, 1)),
        )
        W = build_ring(4, 0.25)
        model = AdditiveGaussian.isotropic(4, 1, 1.0)
        d1 = bound_diagnostics(obj, W, model, 0.02)
        d2 = bound_diagnostics(obj, W, model, 0.04)
        assert d2.term_gamma == pytest.approx(2.0 * d1.term_gamma)
        assert d2.term_gamma_2 == pytest.approx(4.0 * d1.term_gamma_2)

    def test_client_count_scaling(self):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 1.0)
        d2 = bound_diagnostics(obj, W, model, 0.05, m=2)
        d4 = bound_diagnostics(obj, W, model, 0.05, m=4)
        assert d4.term_gamma == pytest.approx(0.5 * d2.term_gamma)

    def test_step_gate(self):
        obj, W = two_client_example()
        with pytest.raises(StepTooLargeError, match="10"):
            bound_diagnostics(obj, W, None, 0.2)


class TestSchedule:
    def homogeneous_full(self):
        obj = QuadraticObjectives(
            A=np.stack([np.eye(1)] * 2),
            theta_loc_star=np.full((2, 1), 0.5),
        )
        W = build_fully_connected(2)
        model = AdditiveGaussian.isotropic(2, 1, 1.0)
        return obj, W, model

    def test_homogeneous_full_step_formula(self):
        obj, W, model = self.homogeneous_full()
        # tau2^2 = m d sigma^2 = 2; gamma = min(1/L, mu m eps^2 / tau2^2)
        gam, T = recommend_schedule(obj, W, model, epsilon=0.1)
        assert gam == pytest.approx(min(1.0, 2 * 0.01 / 2.0))
        assert T >= 1

    def test_noise_limited_horizon_scaling(self):
        obj, W, model = self.homogeneous_full()
        _, T1 = recommend_schedule(obj, W, model, epsilon=1e-2)
        _, T2 = recommend_schedule(obj, W, model, epsilon=5e-3)
        assert 4.0 <= T2 / T1 <= 5.0

    def test_rr_relaxes_heterogeneity_terms(self):
        obj, W = two_client_example()
        eps = 1e-4
        gam_d, T_d = recommend_schedule(obj, W, None, epsilon=eps,
                                        variant="dsgd")
        gam_r, T_r = recommend_schedule(obj, W, None, epsilon=eps,
                                        variant="rr")
        # heterogeneity-limited: dsgd step scales with eps, rr with sqrt(eps)
        zeta = obj.zeta_star
        assert gam_d == pytest.approx(eps / (2.0 * zeta))
        assert gam_r == pytest.approx(math.sqrt(eps) / (2.0 * zeta))
        assert T_r < T_d

    def test_invalid_inputs(self):
        obj, W, model = self.homogeneous_full()
        with pytest.raises(InvalidParamError):
            recommend_schedule(obj, W, model, epsilon=0.0)
        with pytest.raises(InvalidParamError):
            recommend_schedule(obj, W, model, epsilon=0.1, variant="sgd")


class TestReport:
    def test_quadratic_report_roundtrip(self):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.5)
        rep = theory_report(W, obj, model, 0.05)
        assert rep.theta_det_pred.data[0, 0] == pytest.approx(
            quad_exact_fixed_point(W, obj, 0.05).theta_det.data[0, 0]
        )
        assert rep.det_residual_bound >= 0.0
        buf = io.StringIO()
        rep.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "quantity,value"
        for line in lines[1:]:
            name, value = line.split(",")
            float(value)
        names = [line.split(",")[0] for line in lines[1:]]
        assert "lemma3_bound" in names
        assert "variance_first_order[0][0]" in names
        assert "diag_psi0" in names

    def test_logistic_report(self):
        obj = generate_logistic_problem(m=3, n=15, d=2, seed=6)
        W = build_ring(3, 0.3)
        model = AdditiveGaussian.isotropic(3, 2, 0.1)
        rep = theory_report(W, obj, model, 1e-3)
        assert rep.theta_det_pred.data.shape == (3, 2)
        assert rep.variance_first_order.shape == (2, 2)
        assert np.any(rep.stochastic_bias_first_order != 0.0)

    def test_report_step_gate_propagates(self):
        obj, W = two_client_example()
        with pytest.raises(StepTooLargeError):
            theory_report(W, obj, None, 0.6)

    def test_report_diagnostics_degrade_to_nan(self):
        # 0.3 passes the fixed-point gate (0.5 here) but not the stricter
        # diagnostics gate 1/(10L); the closed forms must survive
        obj, W = two_client_example()
        rep = theory_report(W, obj, None, 0.3)
        assert rep.diagnostics is None
        assert np.isfinite(rep.theta_det_pred.data).all()
        diag_rows = [v for n, v in rep.rows() if n.startswith("diag_")]
        assert diag_rows and all(math.isnan(v) for v in diag_rows)
