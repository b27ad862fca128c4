import hashlib
import threading
import warnings

import numpy as np
import pytest
from numpy.random import Philox

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
    _stream_rows,
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


# SHA-256 of the bytes of each Monte Carlo test's 100,000-step (n, m, d)
# noise stack, recorded from one sample_noise call per step; the tests read
# each stack as one range
MONTE_CARLO_DIGESTS = {
    "gauss_covariance": "f07ad773f72166ca25c8cbece189d3e419b3b666391b815a40a8c246de85884f",
    "gauss_zero_mean": "a5bb6dea12d0698f1fa1fd871e3ef06ae939c2f774be97e8e65faa9971f1af83",
    "minibatch_covariance": "af483918b98c824e28947eef7bab3d15a1db095da4f26b6169c08ae89452a0bc",
    "minibatch_zero_mean": "b692843491959626697ce3f1bf3db2af18a311beec9a67f6fe25e64405d19d79",
}


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


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
        seq = np.concatenate([s.normals_block(0, 6), s.normals_block(1, 6)])[:1000]
        s2 = NoiseStream(seed=9, replicate=4)
        # access out of order, across block boundaries
        for t in [999, 0, 513, 511, 512, 17]:
            row = _stream_rows(s2, NoiseStream.PURPOSE_GAUSS, 6, range(t, t + 1))
            assert np.array_equal(row, seq[t:t + 1])

    def test_distinct_replicates_differ(self):
        a = NoiseStream(seed=9, replicate=0).normals_block(0, 4)[0]
        b = NoiseStream(seed=9, replicate=1).normals_block(0, 4)[0]
        assert not np.array_equal(a, b)

    def test_seed_replicate_transposition_differs(self):
        # regression: (seed, replicate) must not collide with
        # (replicate, seed); a commutative key combination would
        for s, r in [(0, 1), (3, 7), (12, 345)]:
            a = NoiseStream(seed=s, replicate=r).normals_block(0, 4)[0]
            b = NoiseStream(seed=r, replicate=s).normals_block(0, 4)[0]
            assert not np.array_equal(a, b)

    def test_moments(self):
        s = NoiseStream(seed=1)
        z = np.concatenate([s.normals_block(b, 5).ravel() for b in range(100)])
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02

    def test_raw_lane_independent_of_gauss_lane(self):
        s = NoiseStream(seed=5)
        r1 = s.raw_block(0, 4)[0].copy()
        _ = s.normals_block(0, 4)
        assert np.array_equal(s.raw_block(0, 4)[0], r1)

    @pytest.mark.parametrize("seed, replicate", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_rejects_seed_or_replicate_outside_64_bits(self, seed, replicate):
        # -1 would read the streams of 2**64 - 1, and 2**64 those of 0
        with pytest.raises(InvalidParamError, match=r"must be in \[0, 2\*\*64\)"):
            NoiseStream(seed, replicate)

    def test_accepts_the_largest_64_bit_seed(self):
        top = 2**64 - 1
        assert not np.array_equal(NoiseStream(top, top).normals_block(0, 2),
                                  NoiseStream(0, 0).normals_block(0, 2))

    @pytest.mark.parametrize("purpose", [NoiseStream.PURPOSE_GAUSS, NoiseStream.PURPOSE_SUBSET],
                             ids=["gauss", "subset"])
    def test_rejects_negative_step(self, purpose):
        # t = -1 would read the last row of block -1
        with pytest.raises(InvalidParamError, match="t must be >= 0, got -1"):
            _stream_rows(NoiseStream(0, 0), purpose, 2, range(-1, 0))


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
        eps = sample_noise(model, quad_obj, Theta, stream, range(n))
        assert eps.shape == (n, 2, 1)
        assert _sha256(eps) == MONTE_CARLO_DIGESTS["gauss_covariance"]
        draws = eps[:, :, 0]
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
        eps = sample_noise(model, quad_obj, Theta, stream, range(n))
        assert eps.shape == (n, 2, 1)
        assert _sha256(eps) == MONTE_CARLO_DIGESTS["gauss_zero_mean"]
        acc = eps.sum(axis=0)
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
        eps = sample_noise(model, logit_obj, Theta, stream, range(n))
        assert eps.shape == (n, logit_obj.m, logit_obj.d)
        assert _sha256(eps) == MONTE_CARLO_DIGESTS["minibatch_covariance"]
        # the sum over steps and clients of each block's outer product
        acc = np.einsum("tki,tkj->ij", eps, eps)
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
        eps = sample_noise(model, logit_obj, Theta, stream, range(n))
        assert eps.shape == (n, logit_obj.m, logit_obj.d)
        assert _sha256(eps) == MONTE_CARLO_DIGESTS["minibatch_zero_mean"]
        acc = eps.sum(axis=0)
        sq = float(np.sum(eps**2))
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


def _lanes(quad_obj, logit_obj):
    """A noise model of each lane with its objective."""
    return [(AdditiveGaussian.isotropic(2, 1, 1.0), quad_obj), (Minibatch(batch_size=2), logit_obj)]


class TestSampleNoiseRange:
    @pytest.mark.parametrize("steps", [range(0), range(512, 512), range(5, 3)])
    def test_an_empty_range_gives_no_draws(self, quad_obj, logit_obj, steps):
        for model, obj in _lanes(quad_obj, logit_obj):
            eps = sample_noise(model, obj, StackedPoint.zeros(obj.m, obj.d), NoiseStream(0), steps)
            assert eps.shape == (0, obj.m, obj.d)

    @pytest.mark.parametrize("t", [-1, range(-1, 3), range(-1, -1)])
    def test_rejects_a_negative_start(self, quad_obj, logit_obj, t):
        for model, obj in _lanes(quad_obj, logit_obj):
            with pytest.raises(InvalidParamError, match="t must be >= 0, got -1"):
                sample_noise(model, obj, StackedPoint.zeros(obj.m, obj.d), NoiseStream(0), t)

    @pytest.mark.parametrize("steps", [range(0, 6, 2), range(6, 0, -1), range(3, 4, 5)])
    def test_rejects_a_range_whose_step_is_not_1(self, quad_obj, logit_obj, steps):
        for model, obj in _lanes(quad_obj, logit_obj):
            with pytest.raises(InvalidParamError, match="range of step 1"):
                sample_noise(model, obj, StackedPoint.zeros(obj.m, obj.d), NoiseStream(0), steps)


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


# the Box-Muller pass of _draw_blocks and the noise turn of a _Draws fill
# take as many whole streams as _CHUNK_PAIRS pairs of words hold. Budgets:
# one pair (a stream per pass), an odd count, the module's own, and a whole
# grid (all 10 streams of a block in one pass at every width below)
CHUNK_BUDGETS = [1, 1537, noise._CHUNK_PAIRS, 10 * NoiseStream.block_size * 18]
# width -> the (m, d) of a Gaussian lane that wide
CHUNK_WIDTHS = {1: (1, 1), 3: (1, 3), 36: (6, 6)}
CHUNK_IDS = [range(0, 10, 2), range(1, 10, 2)]


class TestChunkBudget:
    """Every stream's normals and noise are its own at any chunk budget."""

    @pytest.mark.parametrize("lo, hi", [(0, 512), (3, 200), (257, 511)])
    @pytest.mark.parametrize("width", sorted(CHUNK_WIDTHS))
    @pytest.mark.parametrize("budget", CHUNK_BUDGETS)
    def test_draw_blocks_normals_are_each_streams_own(self, monkeypatch, budget, width,
                                                      lo, hi):
        streams = [NoiseStream(41, r) for r in range(10)]
        gauss = NoiseStream.PURPOSE_GAUSS
        alone = np.concatenate([noise._draw_blocks([s], gauss, 2, width, lo=lo, hi=hi)
                                for s in streams])
        monkeypatch.setattr(noise, "_CHUNK_PAIRS", budget)
        got = noise._draw_blocks(streams, gauss, 2, width, lo=lo, hi=hi)
        assert got.shape == (10, hi - lo, width)
        assert got.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("width", sorted(CHUNK_WIDTHS))
    @pytest.mark.parametrize("budget", CHUNK_BUDGETS)
    def test_fill_noise_is_each_streams_sample_noise(self, monkeypatch, budget, width):
        m, d = CHUNK_WIDTHS[width]
        obj = generate_logistic_problem(m=m, n=3, d=d, seed=3)
        A = np.random.default_rng(5).standard_normal((m, d, d))
        model = AdditiveGaussian(C=A @ A.transpose(0, 2, 1) + 0.1 * np.eye(d))
        monkeypatch.setattr(noise, "_CHUNK_PAIRS", budget)
        draws = noise._Draws(model, obj, 41, CHUNK_IDS)
        size = NoiseStream.block_size
        # at returns a view of a buffer that the next block overwrites
        grid = np.stack([draws.at(t).copy() for t in range(size, 2 * size)])
        assert grid.shape == (size, 2, 5, m, d)
        star = obj.theta_star_stacked
        for c, row in enumerate(CHUNK_IDS):
            for r, replicate in enumerate(row):
                want = sample_noise(model, obj, star, NoiseStream(41, replicate),
                                    range(size, 2 * size))
                assert np.ascontiguousarray(grid[:, c, r]).tobytes() == want.tobytes()


# (seed, replicate, lane, start, n) of the reads that two threads take in
# turn: counts that are not multiples of Philox's four-word output leave a
# generator's buffer part-read, and the next read starts at start % 4 != 0
REKEY_READS = [
    [(7, 0, 1, 0, 5), (7, 1, 2**64 - 1, 3, 10), (7, 2, 5, 6, 1), (7, 3, 5, 0, 4), (9, 4, 3, 1, 7)],
    [(8, 0, 1, 2, 3), (2**64 - 1, 5, 9, 0, 6), (8, 2, 5, 5, 2), (8, 3, 6, 4, 9), (8, 4, 3, 7, 1)],
]


class TestRekeying:
    """_seek re-keys through one state dict per thread, rewritten each call."""

    def test_threads_reading_in_turn_get_fresh_generators_words(self):
        turns = [threading.Semaphore(1), threading.Semaphore(0)]
        got, states = {}, {}

        def reader(i):
            philox = noise._philox()
            for k, (seed, replicate, lane, start, n) in enumerate(REKEY_READS[i]):
                assert turns[i].acquire(timeout=30)
                try:
                    stream = NoiseStream(seed, replicate)
                    got[i, k] = noise._words(philox, stream, lane, n, start)
                    states.setdefault(i, set()).add(id(noise._local.state))
                finally:
                    turns[1 - i].release()

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for i, reads in enumerate(REKEY_READS):
            for k, (seed, replicate, lane, start, n) in enumerate(reads):
                key = np.array([NoiseStream(seed, replicate)._key0, lane], dtype=np.uint64)
                want = Philox(key=key).random_raw(start + n)[start:]
                assert np.array_equal(got[i, k], want), (i, k)
        # each thread re-keyed through one dict of its own
        assert len(states[0]) == len(states[1]) == 1
        assert states[0] != states[1]


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
