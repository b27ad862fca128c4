import io

import numpy as np
import pytest

from dsgd_lab.errors import (
    InvalidParamError,
    NotPositiveDefiniteError,
    ShapeMismatchError,
)
from dsgd_lab.objectives import (
    LogisticObjectives,
    QuadraticObjectives,
    export_dataset,
    generate_logistic_problem,
    load_dataset,
)
from dsgd_lab.stacked import StackedPoint


def scalar_quadratic(a_values, loc_values):
    A = np.array([[[a]] for a in a_values], dtype=float)
    loc = np.array([[v] for v in loc_values], dtype=float)
    return QuadraticObjectives(A=A, theta_loc_star=loc)


@pytest.fixture(scope="module")
def logistic_small():
    return generate_logistic_problem(m=3, n=20, d=2, heterogeneity_spread=1.5,
                                     lambda_reg=0.1, seed=7)


class TestQuadratic:
    def test_scalar_derivatives(self):
        obj = scalar_quadratic([2.0], [1.0])
        assert obj.grad_local(0, np.array([0.0])) == pytest.approx(-2.0)
        assert obj.hess_local(0, np.array([0.0]))[0, 0] == pytest.approx(2.0)
        assert np.all(obj.third_contract_local(0, np.array([0.0]), np.array([1.0])) == 0.0)
        assert obj.K3 == 0.0

    def test_constants(self):
        rng = np.random.default_rng(2)
        Q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A1 = (Q1 * [1.0, 2.0, 3.0]) @ Q1.T
        A2 = np.diag([0.5, 4.0, 1.0])
        obj = QuadraticObjectives(A=[A1, A2], theta_loc_star=np.zeros((2, 3)))
        assert obj.mu == pytest.approx(0.5)
        assert obj.L == pytest.approx(4.0)

    def test_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefiniteError):
            scalar_quadratic([-1.0], [0.0])

    def test_optimum_symmetric(self):
        obj = scalar_quadratic([1.0, 1.0], [1.0, -1.0])
        assert obj.theta_star[0] == pytest.approx(0.0, abs=1e-14)

    def test_optimum_weighted(self):
        obj = scalar_quadratic([1.0, 3.0], [0.0, 4.0])
        # thetastar = (a1 t1 + a2 t2) / (a1 + a2) = 12/4
        assert obj.theta_star[0] == pytest.approx(3.0)

    def test_optimum_matches_formula_random(self):
        rng = np.random.default_rng(8)
        m, d = 4, 3
        A = np.empty((m, d, d))
        for k in range(m):
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            A[k] = (Q * rng.uniform(0.5, 3.0, d)) @ Q.T
        loc = rng.standard_normal((m, d))
        obj = QuadraticObjectives(A=A, theta_loc_star=loc)
        ref = np.linalg.solve(A.mean(axis=0), np.einsum("kij,kj->i", A, loc) / m)
        assert np.allclose(obj.theta_star, ref, atol=1e-12)
        mean_grad = np.mean([obj.grad_local(k, obj.theta_star) for k in range(m)], axis=0)
        assert np.linalg.norm(mean_grad) < 1e-10

    def test_heterogeneity_hand_value(self):
        obj = scalar_quadratic([1.0, 1.0], [1.0, -1.0])
        assert obj.heterogeneity() == pytest.approx(2.0)
        doubled = scalar_quadratic([1.0, 1.0], [2.0, -2.0])
        assert doubled.heterogeneity() == pytest.approx(8.0)

    def test_homogeneous_has_zero_heterogeneity(self):
        obj = scalar_quadratic([2.0, 2.0], [0.7, 0.7])
        assert obj.heterogeneity() == pytest.approx(0.0, abs=1e-24)

    def test_grad_stacked_matches_blocks(self):
        rng = np.random.default_rng(3)
        obj = scalar_quadratic([1.0, 2.0, 0.5], [0.0, 1.0, -1.0])
        Th = StackedPoint(3, 1, rng.standard_normal((3, 1)))
        G = obj.grad_stacked(Th)
        for k in range(3):
            assert np.allclose(G.block(k), obj.grad_local(k, Th.block(k)))
        # and the block-matrix route
        expected = np.array(
            [obj.A[k] @ (Th.block(k) - obj.theta_loc_star[k]) for k in range(3)]
        )
        assert np.allclose(G.data, expected)

    def test_grad_stacked_at_local_optima_is_zero(self):
        obj = scalar_quadratic([1.0, 2.0], [0.3, -0.4])
        G = obj.grad_stacked(StackedPoint(2, 1, obj.theta_loc_star))
        assert np.allclose(G.data, 0.0)

    def test_shape_mismatch(self):
        obj = scalar_quadratic([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ShapeMismatchError):
            obj.grad_stacked(StackedPoint.zeros(3, 1))
        with pytest.raises(IndexError):
            obj.grad_local(2, np.array([0.0]))


class TestLogistic:
    def test_single_datum_hand_values(self):
        obj = LogisticObjectives(data=np.array([[[1.0, 0.0]]]), lambda_reg=0.1)
        g = obj.grad_local(0, np.zeros(2))
        assert np.allclose(g, [0.5, 0.0])
        H = obj.hess_local(0, np.zeros(2))
        assert np.allclose(H, [[0.35, 0.0], [0.0, 0.1]])

    def test_zero_data_pure_ridge(self):
        obj = LogisticObjectives(data=np.zeros((2, 3, 2)), lambda_reg=1.0)
        assert np.allclose(obj.theta_star, 0.0, atol=1e-12)

    def test_gradient_vs_finite_differences(self, logistic_small):
        obj = logistic_small
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(20):
            k = int(rng.integers(obj.m))
            theta = rng.standard_normal(obj.d)
            g = obj.grad_local(k, theta)
            fd = np.empty(obj.d)
            for j in range(obj.d):
                e = np.zeros(obj.d)
                e[j] = h
                fd[j] = (obj.value_local(k, theta + e) - obj.value_local(k, theta - e)) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_hessian_vs_finite_differences(self, logistic_small):
        obj = logistic_small
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(5):
            k = int(rng.integers(obj.m))
            theta = rng.standard_normal(obj.d)
            H = obj.hess_local(k, theta)
            fd = np.empty((obj.d, obj.d))
            for j in range(obj.d):
                e = np.zeros(obj.d)
                e[j] = h
                fd[:, j] = (obj.grad_local(k, theta + e) - obj.grad_local(k, theta - e)) / (2 * h)
            assert np.max(np.abs(fd - H)) <= 1e-5 * max(1.0, np.max(np.abs(H)))

    def test_third_contract_vs_finite_differences(self, logistic_small):
        obj = logistic_small
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(5):
            k = int(rng.integers(obj.m))
            theta = rng.standard_normal(obj.d)
            u = rng.standard_normal(obj.d)
            t3 = obj.third_contract_local(k, theta, u)
            fd = (obj.hess_local(k, theta + h * u) - obj.hess_local(k, theta - h * u)) @ u / (
                2 * h
            )
            assert np.linalg.norm(fd - t3) <= 1e-5 * max(1.0, np.linalg.norm(t3))

    def test_hessian_sandwich(self, logistic_small):
        obj = logistic_small
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(obj.m))
            theta = 2.0 * rng.standard_normal(obj.d)
            w = np.linalg.eigvalsh(obj.hess_local(k, theta))
            assert w[0] >= obj.mu - 1e-9
            assert w[-1] <= obj.L + 1e-9

    def test_K3_bound(self, logistic_small):
        obj = logistic_small
        rng = np.random.default_rng(10)
        for _ in range(50):
            k = int(rng.integers(obj.m))
            theta = rng.standard_normal(obj.d)
            u = rng.standard_normal(obj.d)
            t3 = obj.third_contract_local(k, theta, u)
            assert np.linalg.norm(t3) <= obj.K3 * (u @ u) + 1e-12

    def test_mean_gradient_vanishes_at_optimum(self, logistic_small):
        obj = logistic_small
        G = obj.grad_stacked(obj.theta_star_stacked)
        assert np.linalg.norm(G.data.mean(axis=0)) <= 1e-10

    @pytest.mark.parametrize("seed", [8, 20, 39])
    def test_newton_passes_rounding_floor(self, seed):
        # the fig2-heterogeneous data at these seeds: near the optimum the
        # full Newton step raises f by one ulp, which once stalled a line
        # search on f; backtracking on ||grad f|| takes the step and stops at
        # ||grad f|| <= 1e-12
        obj = generate_logistic_problem(m=12, n=50, d=2, heterogeneity_spread=2.0,
                                        lambda_reg=0.1, seed=seed)
        assert np.linalg.norm(obj._mean_grad(obj.theta_star)) <= 1e-12

    def test_grad_batch_consistent(self, logistic_small):
        obj = logistic_small
        rng = np.random.default_rng(12)
        Th = StackedPoint(obj.m, obj.d, rng.standard_normal((obj.m, obj.d)))
        G = obj.grad_stacked(Th)
        for k in range(obj.m):
            assert np.allclose(G.block(k), obj.grad_local(k, Th.block(k)), atol=1e-13)


class TestGenerator:
    def test_determinism(self):
        a = generate_logistic_problem(m=4, n=10, d=3, heterogeneity_spread=2.0, seed=42)
        b = generate_logistic_problem(m=4, n=10, d=3, heterogeneity_spread=2.0, seed=42)
        assert np.array_equal(a.data, b.data)

    def test_spread_zero_is_homogeneous_in_distribution(self):
        obj = generate_logistic_problem(m=3, n=10, d=2, heterogeneity_spread=0.0, seed=1)
        # means coincide at 0; empirical means are all close to 0
        assert np.max(np.abs(obj.data.mean(axis=1))) < 1.5

    def test_spread_increases_heterogeneity(self):
        wide = 0
        narrow = 0
        for seed in range(10):
            wide += generate_logistic_problem(4, 30, 2, 5.0, 0.1, seed).heterogeneity()
            narrow += generate_logistic_problem(4, 30, 2, 0.0, 0.1, seed).heterogeneity()
        assert wide > narrow

    def test_invalid_params(self):
        with pytest.raises(InvalidParamError):
            generate_logistic_problem(0, 10, 2)
        with pytest.raises(InvalidParamError):
            generate_logistic_problem(2, 10, 2, lambda_reg=0.0)
        with pytest.raises(InvalidParamError):
            generate_logistic_problem(2, 10, 2, heterogeneity_spread=-1.0)


class TestDatasetCsv:
    def test_round_trip_exact(self):
        obj = generate_logistic_problem(m=3, n=5, d=2, seed=11)
        buf = io.StringIO()
        export_dataset(obj, buf)
        buf.seek(0)
        back = load_dataset(buf, lambda_reg=obj.lambda_reg)
        assert back.m == obj.m and back.n == obj.n and back.d == obj.d
        assert np.array_equal(back.data, obj.data)

    def test_header_checked(self):
        with pytest.raises(InvalidParamError):
            load_dataset(io.StringIO("a,b,c\n"), lambda_reg=0.1)

    def test_missing_row_rejected(self):
        text = "client,index,x_0\n0,0,1.0\n0,1,2.0\n1,1,3.0\n"
        with pytest.raises(InvalidParamError, match=r"\(1,0\) is missing"):
            load_dataset(io.StringIO(text), lambda_reg=0.1)

    def test_duplicate_row_rejected(self):
        text = "client,index,x_0\n0,0,1.0\n0,1,2.0\n0,1,5.0\n"
        with pytest.raises(InvalidParamError, match=r"\(0,1\) appears twice"):
            load_dataset(io.StringIO(text), lambda_reg=0.1)

    def test_negative_index_rejected(self):
        text = "client,index,x_0\n0,0,1.0\n-1,0,2.0\n"
        with pytest.raises(InvalidParamError, match="negative"):
            load_dataset(io.StringIO(text), lambda_reg=0.1)
