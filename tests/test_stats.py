import io

import numpy as np
import pytest

from dsgd_lab.dynamics import RunConfig, coupled_run, fixed_point, run
from dsgd_lab.errors import (
    DivergenceError,
    InsufficientSamplesError,
    InvalidParamError,
    NonPositiveError,
    TooFewPointsError,
)
from dsgd_lab.noise import AdditiveGaussian
from dsgd_lab.objectives import QuadraticObjectives
from dsgd_lab.stacked import StackedPoint
from dsgd_lab.stats import (
    contraction_envelope,
    contraction_estimate,
    order_fit,
    speedup_check,
    stationary_moments,
)
from dsgd_lab.theory import quad_exact_fixed_point
from dsgd_lab.topology import CommMatrix, build_fully_connected, build_ring


def two_client_example():
    obj = QuadraticObjectives(
        A=np.array([[[1.0]], [[1.0]]]), theta_loc_star=np.array([[1.0], [-1.0]])
    )
    W = CommMatrix.from_entries(np.array([[0.75, 0.25], [0.25, 0.75]]))
    return obj, W


def ring_quadratic(m, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, m)
    A = a[:, None, None] * np.ones((m, 1, 1))
    loc = rng.standard_normal((m, 1))
    return QuadraticObjectives(A=A, theta_loc_star=loc), build_ring(m, 0.25)


class TestStationaryMoments:
    def test_zero_noise_reproduces_fixed_point(self):
        obj, W = two_client_example()
        gamma = 0.1
        det = fixed_point(W, obj, gamma, tol=1e-13).point
        model = AdditiveGaussian.isotropic(2, 1, 0.0)
        cfg = RunConfig(algorithm="dsgd", gamma=gamma, T=600, burn_in=400,
                        record_every=600)
        rec = run(W, obj, model, cfg, StackedPoint.zeros(2, 1))
        mom = stationary_moments(rec, det)
        assert np.linalg.norm(mom.mean.data - det.data) <= 1e-10
        assert np.max(np.abs(mom.block_cov)) <= 1e-10
        assert mom.n_effective == 200

    def test_scalar_ar1_variance(self):
        obj = QuadraticObjectives(A=np.array([[[1.0]]]),
                                  theta_loc_star=np.array([[0.0]]))
        W = build_fully_connected(1)
        gamma = 0.1
        model = AdditiveGaussian.isotropic(1, 1, 1.0)
        cfg = RunConfig(algorithm="dsgd", gamma=gamma, T=30000, seed=5,
                        replicates=8, burn_in=1000, record_every=30000)
        det = fixed_point(W, obj, gamma).point
        rec = run(W, obj, model, cfg, StackedPoint.zeros(1, 1))
        mom = stationary_moments(rec, det)
        exact = gamma * 1.0 / (1.0 * (2.0 - gamma * 1.0))
        est = mom.block_cov[0, 0, 0, 0]
        se = mom.cov_std_errors[0, 0, 0, 0]
        assert se < np.inf
        assert abs(est - exact) <= 4.0 * se

    def test_quadratic_mean_matches_fixed_point(self):
        obj, W = ring_quadratic(4, seed=3)
        gamma = 0.05
        det = fixed_point(W, obj, gamma, tol=1e-12).point
        model = AdditiveGaussian.isotropic(4, 1, 0.3)
        cfg = RunConfig(algorithm="dsgd", gamma=gamma, T=5000, seed=2,
                        replicates=6, burn_in=1000, record_every=5000)
        rec = run(W, obj, model, cfg, det)
        mom = stationary_moments(rec, det)
        assert np.all(np.abs(mom.mean.data - det.data)
                      <= 4.0 * mom.std_errors)

    def test_block_grid_symmetry_exact(self):
        obj, W = ring_quadratic(3, seed=1)
        gamma = 0.05
        det = fixed_point(W, obj, gamma).point
        model = AdditiveGaussian.isotropic(3, 1, 0.5)
        cfg = RunConfig(algorithm="dsgd", gamma=gamma, T=800, seed=0,
                        replicates=2, burn_in=100, record_every=800)
        rec = run(W, obj, model, cfg, det)
        mom = stationary_moments(rec, det)
        for k in range(3):
            for l in range(3):
                assert np.array_equal(mom.block_cov[k, l],
                                      mom.block_cov[l, k].T)

    def test_diagonal_blocks_psd_up_to_noise(self):
        obj, W = ring_quadratic(3, seed=4)
        gamma = 0.05
        det = fixed_point(W, obj, gamma).point
        model = AdditiveGaussian.isotropic(3, 1, 0.5)
        cfg = RunConfig(algorithm="dsgd", gamma=gamma, T=2000, seed=1,
                        replicates=4, burn_in=300, record_every=2000)
        rec = run(W, obj, model, cfg, det)
        mom = stationary_moments(rec, det)
        for k in range(3):
            block = mom.block_cov[k, k]
            slack = 3.0 * np.max(mom.cov_std_errors[k, k])
            assert np.min(np.linalg.eigvalsh(block)) >= -slack

    def test_a_list_of_records_is_rejected(self):
        obj, W = two_client_example()
        det = fixed_point(W, obj, 0.1).point
        model = AdditiveGaussian.isotropic(2, 1, 0.2)
        cfg = RunConfig(algorithm="dsgd", gamma=0.1, T=400, replicates=2, burn_in=100,
                        record_every=400)
        rec = run(W, obj, model, cfg, det)
        with pytest.raises(InvalidParamError, match="takes one RunRecord"):
            stationary_moments([rec, rec], det)

    def test_insufficient_samples(self):
        obj, W = two_client_example()
        det = fixed_point(W, obj, 0.1).point
        model = AdditiveGaussian.isotropic(2, 1, 0.2)
        cfg = RunConfig(algorithm="dsgd", gamma=0.1, T=80, burn_in=30,
                        record_every=80)
        rec = run(W, obj, model, cfg, det)
        with pytest.raises(InsufficientSamplesError):
            stationary_moments(rec, det)

    def test_no_stationary_samples(self):
        # T = 0 is the only run that accumulates no stationary sample
        obj, W = two_client_example()
        det = fixed_point(W, obj, 0.1).point
        model = AdditiveGaussian.isotropic(2, 1, 0.2)
        cfg = RunConfig(algorithm="dsgd", gamma=0.1, T=0, replicates=3)
        rec = run(W, obj, model, cfg, det)
        assert rec.stat_count == 0
        with pytest.raises(InsufficientSamplesError, match="no stationary samples"):
            stationary_moments(rec, det)

    def test_overflowed_scatter_raises(self):
        # the squared deviations of the replicates overflow to inf
        obj, W = two_client_example()
        det = fixed_point(W, obj, 0.1).point
        model = AdditiveGaussian.isotropic(2, 1, 1e300)
        cfg = RunConfig(algorithm="dsgd", gamma=0.1, T=300, replicates=2, burn_in=50,
                        record_every=300)
        rec = run(W, obj, model, cfg, det)
        with pytest.raises(DivergenceError, match="2 replicates are not finite"):
            stationary_moments(rec, det)

    def test_one_replicate_has_infinite_standard_errors(self):
        obj, W = two_client_example()
        det = fixed_point(W, obj, 0.1).point
        model = AdditiveGaussian.isotropic(2, 1, 1e300)
        cfg = RunConfig(algorithm="dsgd", gamma=0.1, T=300, burn_in=50, record_every=300)
        mom = stationary_moments(run(W, obj, model, cfg, det), det)
        assert np.isposinf(mom.std_errors).all() and np.isposinf(mom.cov_std_errors).all()
        assert np.isfinite(mom.block_cov).all()

    def test_stderr_shrinks_with_replicates(self):
        obj, W = two_client_example()
        gamma = 0.1
        det = fixed_point(W, obj, gamma).point
        model = AdditiveGaussian.isotropic(2, 1, 0.4)
        ses = []
        for reps in (8, 16):
            cfg = RunConfig(algorithm="dsgd", gamma=gamma, T=1500, seed=7,
                            replicates=reps, burn_in=300, record_every=1500)
            rec = run(W, obj, model, cfg, det)
            mom = stationary_moments(rec, det)
            ses.append(float(np.mean(mom.std_errors)))
        ratio = ses[0] / ses[1]
        assert np.sqrt(2.0) * 0.85 <= ratio <= np.sqrt(2.0) * 1.15

    def test_csv_export(self):
        obj, W = two_client_example()
        gamma = 0.1
        det = fixed_point(W, obj, gamma).point
        model = AdditiveGaussian.isotropic(2, 1, 0.2)
        cfg = RunConfig(algorithm="dsgd", gamma=gamma, T=300, seed=0,
                        replicates=2, burn_in=50, record_every=300)
        rec = run(W, obj, model, cfg, det)
        mom = stationary_moments(rec, det)
        buf = io.StringIO()
        mom.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "k,l,i,j,value,stderr"
        assert len(lines) == 1 + 2 * 2 * 1 * 1


class TestOrderFit:
    def test_exact_linear(self):
        xs = np.array([0.02, 0.01, 0.005, 0.0025])
        fit = order_fit(xs, 3.0 * xs)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_quadratic(self):
        xs = np.array([0.02, 0.01, 0.005])
        fit = order_fit(xs, 0.7 * xs**2)
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_dgd_bias_order(self):
        obj, W = two_client_example()
        gammas = np.array([0.02, 0.01, 0.005, 0.0025])
        errs = []
        for g in gammas:
            det = quad_exact_fixed_point(W, obj, g).theta_det
            errs.append(np.linalg.norm(det.data - obj.theta_star_stacked.data))
        fit = order_fit(gammas, np.array(errs))
        assert 0.95 <= fit.slope <= 1.05

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            order_fit([0.1, 0.2], [1.0, 2.0])

    def test_nonpositive(self):
        with pytest.raises(NonPositiveError):
            order_fit([0.1, 0.2, 0.3], [1.0, 0.0, 2.0])
        with pytest.raises(NonPositiveError):
            order_fit([0.1, -0.2, 0.3], [1.0, 1.0, 2.0])

    def test_duplicate_x(self):
        with pytest.raises(InvalidParamError):
            order_fit([0.1, 0.1, 0.3], [1.0, 1.0, 2.0])


class TestSpeedup:
    @staticmethod
    def make_objectives(m):
        return QuadraticObjectives(
            A=np.stack([np.eye(1)] * m), theta_loc_star=np.zeros((m, 1))
        )

    def test_fully_connected_slope(self):
        result = speedup_check(
            self.make_objectives,
            lambda m: AdditiveGaussian.isotropic(m, 1, 1.0),
            build_fully_connected,
            gamma=0.02,
            m_list=[2, 4, 8],
            T=6000,
            replicates=6,
            seed=3,
            burn_in=500,
        )
        assert result.status == "ok"
        assert -1.15 <= result.slope <= -0.85

    def test_zero_noise_skipped(self):
        result = speedup_check(
            self.make_objectives,
            lambda m: None,
            build_fully_connected,
            gamma=0.02,
            m_list=[2, 4, 8],
            T=500,
        )
        assert result.status == "skipped"
        assert result.slope is None
        assert np.all(result.traces() == 0.0)

    def test_requires_three_counts(self):
        with pytest.raises(TooFewPointsError):
            speedup_check(self.make_objectives, lambda m: None,
                          build_fully_connected, 0.02, [2, 4])


class TestContraction:
    def test_quadratic_coupled_ratio(self):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.3)
        gamma = 0.1
        A0 = StackedPoint.from_blocks([[1.0], [0.5]])
        B0 = StackedPoint.from_blocks([[-0.5], [0.2]])
        d2 = coupled_run(W, obj, model, gamma, 40, A0, B0, seed=0)
        est = contraction_estimate(d2)
        assert est.collapsed_at is None
        assert est.max_ratio <= (1.0 - gamma * obj.mu) ** 2 + 1e-12

    def test_identical_starts_collapse(self):
        obj, W = two_client_example()
        model = AdditiveGaussian.isotropic(2, 1, 0.3)
        A0 = StackedPoint.from_blocks([[1.0], [0.5]])
        d2 = coupled_run(W, obj, model, 0.1, 10, A0, A0, seed=0)
        est = contraction_estimate(d2)
        assert est.collapsed_at == 0
        assert est.max_ratio is None
        assert est.verdict == "collapsed at t=0"

    def test_windowed_ratio(self):
        D = np.array([16.0, 8.0, 4.0, 2.0, 1.0])
        est = contraction_estimate(D, window=2)
        assert np.allclose(est.ratios, 0.5)
        assert est.max_ratio == pytest.approx(0.5)

    def test_mid_sequence_collapse(self):
        D = np.array([4.0, 1.0, 0.25, 0.0, 0.0])
        est = contraction_estimate(D)
        assert est.collapsed_at == 3
        assert np.allclose(est.ratios, 0.25)
        assert "collapsed at t=3" in est.verdict

    def test_envelope_value(self):
        # gamma = 0.1, mu = 1, L = 1: 1 - 0.2 (1 - 0.05) = 0.81
        assert contraction_envelope(0.1, 1.0, 1.0) == pytest.approx(0.81)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParamError):
            contraction_estimate([1.0])
        with pytest.raises(InvalidParamError):
            contraction_estimate([1.0, 0.5], window=0)
