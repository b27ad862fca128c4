import threading
import warnings

import numpy as np
import pytest

from dsgd_lab import noise
from dsgd_lab.errors import (
    InvalidParamError,
    NotPositiveSemidefiniteError,
    ShapeMismatchError,
    UnsupportedCombinationError,
)
from dsgd_lab.noise import (
    AdditiveGaussian,
    Minibatch,
    NoiseStream,
    _tau_sq_norms,
    covariance_at,
    sample_noise,
    smoothness_constant,
    tau_squares,
)
from dsgd_lab.objectives import (
    LogisticObjectives,
    QuadraticObjectives,
    generate_logistic_problem,
)
from dsgd_lab.stacked import StackedPoint


@pytest.fixture(scope="module")
def quad_obj():
    A = np.array([[[1.0]], [[2.0]]])
    return QuadraticObjectives(A=A, theta_loc_star=np.array([[1.0], [-1.0]]))


@pytest.fixture(scope="module")
def logit_obj():
    return generate_logistic_problem(m=2, n=5, d=2, heterogeneity_spread=1.0,
                                     lambda_reg=0.1, seed=3)


class TestStream:
    def test_random_access_matches_sequential(self):
        s = NoiseStream(seed=9, replicate=4)
        seq = [s.normals_at(t, 6).copy() for t in range(1000)]
        s2 = NoiseStream(seed=9, replicate=4)
        # access out of order, across block boundaries
        for t in [999, 0, 513, 511, 512, 17]:
            assert np.array_equal(s2.normals_at(t, 6), seq[t])

    def test_distinct_replicates_differ(self):
        a = NoiseStream(seed=9, replicate=0).normals_at(0, 4)
        b = NoiseStream(seed=9, replicate=1).normals_at(0, 4)
        assert not np.array_equal(a, b)

    def test_seed_replicate_transposition_differs(self):
        # regression: (seed, replicate) must not collide with
        # (replicate, seed); a commutative key combination would
        for s, r in [(0, 1), (3, 7), (12, 345)]:
            a = NoiseStream(seed=s, replicate=r).normals_at(0, 4)
            b = NoiseStream(seed=r, replicate=s).normals_at(0, 4)
            assert not np.array_equal(a, b)

    def test_moments(self):
        s = NoiseStream(seed=1)
        z = np.concatenate([s.normals_block(b, 5).ravel() for b in range(100)])
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02

    def test_raw_lane_independent_of_gauss_lane(self):
        s = NoiseStream(seed=5)
        r1 = s.raw_at(0, 4).copy()
        _ = s.normals_at(0, 4)
        assert np.array_equal(s.raw_at(0, 4), r1)

    @pytest.mark.parametrize("seed, replicate", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_rejects_seed_or_replicate_outside_64_bits(self, seed, replicate):
        # -1 would read the streams of 2**64 - 1, and 2**64 those of 0
        with pytest.raises(InvalidParamError, match=r"must be in \[0, 2\*\*64\)"):
            NoiseStream(seed, replicate)

    def test_accepts_the_largest_64_bit_seed(self):
        top = 2**64 - 1
        assert not np.array_equal(NoiseStream(top, top).normals_block(0, 2),
                                  NoiseStream(0, 0).normals_block(0, 2))

    @pytest.mark.parametrize("reader", ["normals_at", "raw_at"])
    def test_rejects_negative_step(self, reader):
        # t = -1 would read the last row of block -1
        with pytest.raises(InvalidParamError, match="t must be >= 0, got -1"):
            getattr(NoiseStream(0, 0), reader)(-1, 2)


class TestAdditiveGaussian:
    @pytest.mark.parametrize("sigma2", [np.nan, np.inf])
    def test_non_finite_covariance_is_rejected(self, sigma2):
        # rejected before sigma2 * I is formed, so no RuntimeWarning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParamError, match="non-finite"):
                AdditiveGaussian.isotropic(2, 2, sigma2)

    def test_zero_covariance_draws_zero(self, quad_obj):
        model = AdditiveGaussian.isotropic(2, 1, 0.0)
        stream = NoiseStream(seed=0)
        Theta = StackedPoint.zeros(2, 1)
        for t in range(5):
            eps = sample_noise(model, quad_obj, Theta, stream, t)
            assert np.all(eps.data == 0.0)

    def test_empirical_covariance(self, quad_obj):
        sigma2 = 0.7
        model = AdditiveGaussian.isotropic(2, 1, sigma2)
        stream = NoiseStream(seed=11)
        Theta = StackedPoint.zeros(2, 1)
        n = 100_000
        draws = np.empty((n, 2))
        for i in range(n):
            draws[i] = sample_noise(model, quad_obj, Theta, stream, i).data[:, 0]
        emp = draws.T @ draws / n
        assert abs(emp[0, 0] - sigma2) <= 0.03 * sigma2
        assert abs(emp[1, 1] - sigma2) <= 0.03 * sigma2
        # distinct clients are independent
        assert abs(emp[0, 1]) <= 4.0 * sigma2 / np.sqrt(n)

    def test_zero_mean(self, quad_obj):
        model = AdditiveGaussian.isotropic(2, 1, 1.0)
        stream = NoiseStream(seed=21)
        Theta = StackedPoint.from_blocks([[0.3], [-0.2]])
        n = 100_000
        acc = np.zeros((2, 1))
        for t in range(n):
            acc += sample_noise(model, quad_obj, Theta, stream, t).data
        tau2 = np.sqrt(2.0)
        assert np.linalg.norm(acc / n) <= 4.0 * tau2 / np.sqrt(n)

    def test_determinism_per_tuple(self, quad_obj):
        model = AdditiveGaussian.isotropic(2, 1, 1.0)
        Theta = StackedPoint.zeros(2, 1)
        s1 = NoiseStream(seed=7, replicate=3)
        a = sample_noise(model, quad_obj, Theta, s1, 5)
        s2 = NoiseStream(seed=7, replicate=3)
        for t in [2, 9, 0]:  # consume in scrambled order first
            sample_noise(model, quad_obj, Theta, s2, t)
        b = sample_noise(model, quad_obj, Theta, s2, 5)
        assert np.array_equal(a.data, b.data)

    def test_sample_noise_rejects_negative_step(self, quad_obj):
        model = AdditiveGaussian.isotropic(2, 1, 1.0)
        with pytest.raises(InvalidParamError, match="got -3"):
            sample_noise(model, quad_obj, StackedPoint.zeros(2, 1), NoiseStream(0), -3)

    def test_rejects_bad_covariance(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            AdditiveGaussian(C=np.array([[[-1.0]]]))
        with pytest.raises(ShapeMismatchError):
            AdditiveGaussian(C=np.zeros((2, 2)))

    def test_covariance_at_average(self, quad_obj):
        model = AdditiveGaussian(C=np.stack([np.eye(1), 3.0 * np.eye(1)]))
        assert np.allclose(covariance_at(model, quad_obj, np.zeros(1)), 2.0 * np.eye(1))


class TestMinibatch:
    def test_full_batch_is_silent(self, logit_obj):
        model = Minibatch(batch_size=logit_obj.n)
        stream = NoiseStream(seed=0)
        Theta = StackedPoint.zeros(logit_obj.m, logit_obj.d)
        for t in range(3):
            eps = sample_noise(model, logit_obj, Theta, stream, t)
            assert np.allclose(eps.data, 0.0, atol=1e-15)
        assert np.allclose(covariance_at(model, logit_obj, np.zeros(logit_obj.d)), 0.0)

    def test_rejects_quadratic(self, quad_obj):
        model = Minibatch(batch_size=1)
        with pytest.raises(UnsupportedCombinationError):
            sample_noise(model, quad_obj, StackedPoint.zeros(2, 1), NoiseStream(0), 0)
        with pytest.raises(UnsupportedCombinationError):
            covariance_at(model, quad_obj, np.zeros(1))

    def test_batch_size_bounds(self, logit_obj):
        with pytest.raises(InvalidParamError):
            Minibatch(batch_size=0)
        with pytest.raises(InvalidParamError):
            covariance_at(Minibatch(batch_size=logit_obj.n + 1), logit_obj, np.zeros(2))

    def test_covariance_matches_monte_carlo(self, logit_obj):
        model = Minibatch(batch_size=1)
        theta = np.array([0.2, -0.1])
        Theta = StackedPoint.replicate(theta, logit_obj.m)
        exact = covariance_at(model, logit_obj, theta)
        stream = NoiseStream(seed=13)
        n = 100_000
        acc = np.zeros((logit_obj.d, logit_obj.d))
        for t in range(n):
            eps = sample_noise(model, logit_obj, Theta, stream, t)
            acc += sum(np.outer(eps.block(k), eps.block(k)) for k in range(logit_obj.m))
        emp = acc / (n * logit_obj.m)
        rel = np.linalg.norm(emp - exact) / np.linalg.norm(exact)
        assert rel <= 0.03

    def test_zero_mean(self, logit_obj):
        model = Minibatch(batch_size=2)
        stream = NoiseStream(seed=17)
        rng = np.random.default_rng(2)
        Theta = StackedPoint(logit_obj.m, logit_obj.d,
                             rng.standard_normal((logit_obj.m, logit_obj.d)))
        n = 100_000
        acc = np.zeros((logit_obj.m, logit_obj.d))
        sq = 0.0
        for t in range(n):
            eps = sample_noise(model, logit_obj, Theta, stream, t)
            acc += eps.data
            sq += float(np.sum(eps.data**2))
        tau2_hat = np.sqrt(sq / n)
        assert np.linalg.norm(acc / n) <= 4.0 * tau2_hat / np.sqrt(n)

    def test_cocoercivity(self, logit_obj):
        model = Minibatch(batch_size=2)
        L = smoothness_constant(model, logit_obj)
        rng = np.random.default_rng(5)
        stream = NoiseStream(seed=23)
        for trial in range(100):
            A = StackedPoint(logit_obj.m, logit_obj.d,
                             rng.standard_normal((logit_obj.m, logit_obj.d)))
            B = StackedPoint(logit_obj.m, logit_obj.d,
                             rng.standard_normal((logit_obj.m, logit_obj.d)))
            gA = logit_obj.grad_stacked(A).data + sample_noise(model, logit_obj, A, stream, trial).data
            gB = logit_obj.grad_stacked(B).data + sample_noise(model, logit_obj, B, stream, trial).data
            diff_g = (gA - gB).ravel()
            diff_x = (A.data - B.data).ravel()
            assert diff_g @ diff_g <= L * (diff_g @ diff_x) + 1e-9


class TestTau:
    def test_zero_noise(self, quad_obj):
        model = AdditiveGaussian.isotropic(2, 1, 0.0)
        Theta = StackedPoint.zeros(2, 1)
        assert tau_squares(model, quad_obj, Theta, n_draws=1000) == (0.0, 0.0)
        assert not np.any(_tau_sq_norms(model, quad_obj, Theta, 1000, 0))

    def test_scalar_exact_chi2(self):
        obj = QuadraticObjectives(A=np.array([[[1.0]]]), theta_loc_star=np.array([[0.0]]))
        model = AdditiveGaussian.isotropic(1, 1, 1.0)
        Theta = StackedPoint.zeros(1, 1)
        assert tau_squares(model, obj, Theta) == pytest.approx((1.0, 3.0**0.5))
        sq_norms = _tau_sq_norms(model, obj, Theta, 50_000, 1)
        # second and fourth moments of N(0,1) are 1 and 3
        for moment, exact in [(sq_norms, 1.0), (sq_norms**2, 3.0)]:
            std_error = np.std(moment, ddof=1) / np.sqrt(moment.size)
            assert abs(np.mean(moment) - exact) <= 3.0 * std_error

    def test_jensen_ordering(self, logit_obj):
        model = Minibatch(batch_size=1)
        Theta = StackedPoint.replicate(logit_obj.theta_star, logit_obj.m)
        tau2_sq, tau4_sq = tau_squares(model, logit_obj, Theta, n_draws=5000, seed=4)
        assert tau2_sq <= tau4_sq

    def test_gaussian_tau_pair_exact_ordering(self, quad_obj):
        model = AdditiveGaussian(C=np.stack([0.5 * np.eye(1), 2.0 * np.eye(1)]))
        Theta = StackedPoint.zeros(2, 1)
        sq_norms = _tau_sq_norms(model, quad_obj, Theta, 20_000, 6)
        assert np.mean(sq_norms) ** 0.5 <= np.mean(sq_norms**2) ** 0.25
        tau2_sq, tau4_sq = tau_squares(model, quad_obj, Theta)
        assert tau2_sq <= tau4_sq
        assert tau2_sq == pytest.approx(2.5)

    @pytest.mark.parametrize("m, n, d, b", [(4, 8, 3, 1), (5, 20, 1, 7)])
    def test_minibatch_tau2_matches_the_exact_covariance_trace(self, m, n, d, b):
        # E||E(Theta*)||^2 = m tr covariance_at(theta*); b < n, since at b = n
        # the exact value is 0 and the pass gives rounding error
        obj = generate_logistic_problem(m=m, n=n, d=d, heterogeneity_spread=1.0,
                                        lambda_reg=0.1, seed=m)
        model = Minibatch(batch_size=b)
        Theta = StackedPoint.replicate(obj.theta_star, m)
        tau2_sq, _ = tau_squares(model, obj, Theta, n_draws=20_000, seed=2)
        sq_norms = _tau_sq_norms(model, obj, Theta, 20_000, 2)
        std_error = np.std(sq_norms, ddof=1) / np.sqrt(sq_norms.size)
        exact = m * np.trace(covariance_at(model, obj, obj.theta_star))
        assert abs(tau2_sq - exact) <= 4.0 * std_error

    @pytest.mark.parametrize("n_draws", [0, -5])
    def test_tau_squares_needs_a_draw(self, quad_obj, logit_obj, n_draws):
        for model, obj in [(Minibatch(batch_size=2), logit_obj),
                           (AdditiveGaussian.isotropic(2, 1, 1.0), quad_obj)]:
            Theta = StackedPoint.zeros(obj.m, obj.d)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidParamError, match="n_draws"):
                    tau_squares(model, obj, Theta, n_draws=n_draws)

    def test_one_draw_gives_tau_squares(self, logit_obj):
        Theta = StackedPoint.replicate(logit_obj.theta_star, logit_obj.m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau2_sq, tau4_sq = tau_squares(Minibatch(batch_size=2), logit_obj, Theta, n_draws=1)
        assert np.isfinite(tau2_sq) and tau2_sq <= tau4_sq


class _UnitFailed(Exception):
    pass


class TestTauWorkers:
    """The tau pass's threads: errors reach the caller, and none outlives it."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("bad_unit", [0, 5, 10])
    def test_an_error_in_one_unit_reaches_the_caller(self, monkeypatch, logit_obj,
                                                     workers, bad_unit):
        # 1,300 draws are 11 units; at 3 workers the spans are units 0-2,
        # 3-6 and 7-10, so unit 0 fails on the calling thread and units 5
        # and 10 on the others
        error = _UnitFailed(f"unit {bad_unit} failed")
        draw_blocks = noise._draw_blocks

        def failing(streams, purpose, block, width, out=None, lo=0, hi=None):
            if block * NoiseStream.block_size + lo == bad_unit * noise._TAU_UNIT:
                raise error
            return draw_blocks(streams, purpose, block, width, out, lo, hi)

        monkeypatch.setattr(noise, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(noise, "_MAX_TAU_WORKERS", workers)
        monkeypatch.setattr(noise, "_draw_blocks", failing)
        Theta = StackedPoint.replicate(logit_obj.theta_star, logit_obj.m)
        threads = threading.active_count()
        with pytest.raises(_UnitFailed) as raised:
            tau_squares(Minibatch(batch_size=2), logit_obj, Theta, n_draws=1_300)
        assert raised.value is error
        assert str(raised.value) == f"unit {bad_unit} failed"
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_no_thread_outlives_the_pass(self, monkeypatch, logit_obj, workers):
        monkeypatch.setattr(noise, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(noise, "_MAX_TAU_WORKERS", workers)
        Theta = StackedPoint.replicate(logit_obj.theta_star, logit_obj.m)
        threads = threading.active_count()
        tau_squares(Minibatch(batch_size=2), logit_obj, Theta, n_draws=2_000)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus, cap, n_draws, workers", [
        (64, 2, 1, 1), (64, 2, noise._TAU_UNIT, 1), (64, 2, noise._TAU_UNIT + 1, 2),
        (64, 2, 20 * noise._TAU_UNIT, 2), (1, 2, 20 * noise._TAU_UNIT, 1),
        (3, 4, 20 * noise._TAU_UNIT, 3), (64, 4, 3 * noise._TAU_UNIT, 3)])
    def test_one_thread_per_cpu_capped_by_the_units(self, monkeypatch, logit_obj, cpus,
                                                    cap, n_draws, workers):
        # the thread objects are kept, so two spans never count as one
        seen = set()
        draw_blocks = noise._draw_blocks

        def recording(*args, **kwargs):
            seen.add(threading.current_thread())
            return draw_blocks(*args, **kwargs)

        monkeypatch.setattr(noise, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(noise, "_MAX_TAU_WORKERS", cap)
        monkeypatch.setattr(noise, "_draw_blocks", recording)
        Theta = StackedPoint.replicate(logit_obj.theta_star, logit_obj.m)
        noise._tau_sq_norms(Minibatch(batch_size=2), logit_obj, Theta, n_draws, 0)
        assert len(seen) == workers
        assert threading.main_thread() in seen

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_per_sample_gradients_are_formed_once_per_pass(self, monkeypatch, logit_obj,
                                                               workers):
        calls = []
        persample_grads = noise._persample_grads

        def counting(obj, Theta):
            calls.append(threading.current_thread())
            return persample_grads(obj, Theta)

        monkeypatch.setattr(noise, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(noise, "_persample_grads", counting)
        Theta = StackedPoint.replicate(logit_obj.theta_star, logit_obj.m)
        # 1,300 draws are 11 units
        tau_squares(Minibatch(batch_size=2), logit_obj, Theta, n_draws=1_300)
        assert calls == [threading.main_thread()]


class TestSmoothness:
    def test_gaussian_uses_objective_L(self, quad_obj):
        model = AdditiveGaussian.isotropic(2, 1, 1.0)
        assert smoothness_constant(model, quad_obj) == quad_obj.L

    def test_minibatch_bound(self, logit_obj):
        model = Minibatch(batch_size=1)
        L = smoothness_constant(model, logit_obj)
        norms = np.linalg.norm(logit_obj.data, axis=2)
        assert L == pytest.approx(logit_obj.lambda_reg + 0.25 * norms.max() ** 2)
        assert L >= logit_obj.L
