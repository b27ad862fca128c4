"""Property tests: the block-wise draw reader against single streams, a
re-keyed Philox against a new one, a row range of a block against the whole
block, a range of steps' noise against the noise of each step, the Newton
solve for Theta_det against the Picard oracle, the shared Newton loop on
theta*, the sigmoid against the masked formula and an exact decimal
reference, the batched logistic gradient against its einsum and
sigmoid formula, the packed-word selection against argsort, the minibatch
drift against the full per-sample gradient formula, the batched Hessians
against the per-client ones, every topology builder's W against the block
average, the expansion's residual bound against the rr bound, and each
chain of a batched run against a lone run."""

import decimal
import io
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Philox

from dsgd_lab.dynamics import (RunConfig, _drift, _Draws, fixed_point, rr_run, run,
                               run_chains, solve_fixed_point)
from dsgd_lab.matops import damped_newton
from dsgd_lab.noise import (AdditiveGaussian, Minibatch, NoiseStream, _draw_blocks, _mix64,
                             _pick_index, _words, sample_noise)
from dsgd_lab.objectives import QuadraticObjectives, _sigmoid, generate_logistic_problem
from dsgd_lab.stacked import StackedPoint
from dsgd_lab.theory import det_bias_expansion, rr_bias_bound
from dsgd_lab.topology import (
    apply_comm,
    build_clusters,
    build_fully_connected,
    build_ring,
    from_laplacian,
    load_edge_list,
    project_consensus,
)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# (lane, width) -> the noise model and a problem of that draw width: m*d
# for Gaussian normals, m*n for minibatch words. At width 1 six whole
# streams make one Box-Muller chunk and at width 3 three; at width 36 one
# stream's block alone is more than a chunk
GRID_LANES = {
    ("gaussian", 1): (1, 2, 1), ("gaussian", 3): (1, 2, 3), ("gaussian", 6): (2, 5, 3),
    ("gaussian", 36): (6, 2, 6), ("minibatch", 1): (1, 1, 1), ("minibatch", 3): (1, 3, 1),
    ("minibatch", 10): (2, 5, 3), ("minibatch", 36): (4, 9, 1),
}
GRID_PROBLEMS = {
    (lane, width): (AdditiveGaussian.isotropic(m, d, 1.0) if lane == "gaussian" else Minibatch(1),
                    generate_logistic_problem(m=m, n=n, d=d, seed=1))
    for (lane, width), (m, n, d) in GRID_LANES.items()
}

# steps on both sides of the first block boundaries (blocks of 512) and of
# the half-blocks that a run's minibatch words are filled in, so a sequence
# crosses blocks and halves forwards and jumps back to earlier ones
STEPS = st.lists(st.sampled_from([0, 1, 255, 256, 510, 511, 512, 513, 767, 768, 1023, 1024,
                                  1600]),
                 min_size=1, max_size=6)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 40), independent=st.booleans(),
       lane=st.sampled_from(sorted(GRID_LANES)), steps=STEPS)
def test_draw_grid_matches_single_streams(seed, R, independent, lane, steps):
    ids = [range(0, 2 * R, 2), range(1, 2 * R, 2)] if independent else [range(R)]
    noise, obj = GRID_PROBLEMS[lane]
    draws = _Draws(noise, obj, seed, ids)
    grids = [draws.at(t).copy() for t in steps]
    size = NoiseStream.block_size
    for c, row in enumerate(ids):
        for r, rep in enumerate(row):
            stream = NoiseStream(seed, rep)
            read = stream.normals_block if lane[0] == "gaussian" else stream.raw_block
            blocks = {t // size: read(t // size, lane[1]) for t in steps}
            for t, grid in zip(steps, grids):
                draw = blocks[t // size][t % size]
                if lane[0] == "gaussian":
                    assert grid.shape == (len(ids), R, obj.m, obj.d)
                    assert np.array_equal(grid[c, r].ravel(), draw)
                else:
                    # the picks of the stream's words at step t, pick axis first
                    b = noise.batch_size
                    assert grid.shape == (b, len(ids), R, obj.m)
                    words = draw.reshape(obj.m, obj.n)
                    assert np.array_equal(grid[:, c, r], _pick_index(words, b))


# keys that the generator serves before the key under test, each as a
# (seed, replicate) stream, a lane word and a word count: counts that are
# not multiples of Philox's four-word output leave its buffer part-read
WORD = st.integers(0, 2**64 - 1)
SERVED = st.lists(st.tuples(WORD, WORD, WORD, st.integers(1, 4100)), max_size=4)


@settings(max_examples=100, deadline=None)
@given(seed=WORD, replicate=WORD, served=SERVED, half_word=st.booleans(), lane=WORD,
       n=st.integers(1, 2000))
def test_rekeyed_generator_gives_a_fresh_generators_words(seed, replicate, served, half_word,
                                                          lane, n):
    philox = Philox(0)
    for other_seed, other_replicate, other_lane, count in served:
        _words(philox, NoiseStream(other_seed, other_replicate), other_lane, count)
    if half_word:
        # a 32-bit draw leaves the other half of its word stored in the generator
        np.random.Generator(philox).integers(0, 2**32, dtype=np.uint32)
    key = np.array([_mix64(_mix64(_mix64(seed)) ^ _mix64(replicate)), lane], dtype=np.uint64)
    got = _words(philox, NoiseStream(seed, replicate), lane, n)
    assert np.array_equal(got, Philox(key=key).random_raw(n))


@settings(max_examples=100, deadline=None)
@given(seed=WORD, replicate=WORD, served=SERVED, lane=WORD, start=st.integers(0, 4100),
       n=st.integers(1, 600))
def test_words_from_a_start_are_that_range_of_a_fresh_generators_words(seed, replicate,
                                                                       served, lane, start, n):
    philox = Philox(0)
    for other_seed, other_replicate, other_lane, count in served:
        _words(philox, NoiseStream(other_seed, other_replicate), other_lane, count)
    key = np.array([_mix64(_mix64(_mix64(seed)) ^ _mix64(replicate)), lane], dtype=np.uint64)
    got = _words(philox, NoiseStream(seed, replicate), lane, n, start)
    assert np.array_equal(got, Philox(key=key).random_raw(start + n)[start:])


# rows [r0, r0 + k) of a block read alone, for one to three streams: the
# second and third are drawn by the generator that served the ones before.
# A subset row holds width words and a Gaussian row two per pair, so an odd
# width, or an odd pair count at an odd r0, starts the read inside a
# four-word Philox output
@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(st.tuples(WORD, WORD), min_size=1, max_size=3),
       gauss=st.booleans(), width=st.integers(1, 9), block=st.integers(0, 2**40),
       r0=st.integers(0, NoiseStream.block_size - 1), k=st.integers(1, NoiseStream.block_size))
@example(seeds=[(0, 0), (5, 1)], gauss=False, width=3, block=0, r0=1, k=2)
@example(seeds=[(0, 0), (5, 1)], gauss=True, width=2, block=1, r0=3, k=1)
@example(seeds=[(0, 0), (5, 1)], gauss=True, width=5, block=2, r0=7, k=5)
def test_a_row_range_read_alone_is_those_rows_of_the_block(seeds, gauss, width, block, r0, k):
    streams = [NoiseStream(seed, replicate) for seed, replicate in seeds]
    purpose = NoiseStream.PURPOSE_GAUSS if gauss else NoiseStream.PURPOSE_SUBSET
    hi = min(r0 + k, NoiseStream.block_size)
    whole = _draw_blocks(streams, purpose, block, width)
    rows = _draw_blocks(streams, purpose, block, width, lo=r0, hi=hi)
    assert rows.shape == (len(streams), hi - r0, width)
    assert np.array_equal(rows, whole[:, r0:hi])
    for stream, own in zip(streams, whole):
        assert np.array_equal(own, _draw_blocks([stream], purpose, block, width)[0])


# a noise model of each lane on a problem of its own, and a point away from
# theta* at which the noise is taken
RANGE_LANES = {
    "gaussian": (AdditiveGaussian.isotropic(2, 3, 1.0), generate_logistic_problem(m=2, n=4, d=3,
                                                                                 seed=2)),
    "minibatch": (Minibatch(2), generate_logistic_problem(m=2, n=5, d=2, seed=2)),
}


# starts on both sides of the first block boundaries; up to 1,100 steps
# reach two boundaries past the start
@settings(max_examples=60, deadline=None)
@given(lane=st.sampled_from(sorted(RANGE_LANES)), seed=st.integers(0, 2**32 - 1),
       start=st.sampled_from([0, 1, 511, 512, 513, 1023, 1024]), length=st.integers(0, 1_100))
@example(lane="gaussian", seed=0, start=1, length=1_100)
@example(lane="minibatch", seed=0, start=511, length=1_100)
@example(lane="minibatch", seed=0, start=512, length=0)
def test_a_range_of_steps_is_the_stack_of_its_steps(lane, seed, start, length):
    model, obj = RANGE_LANES[lane]
    point = StackedPoint(obj.m, obj.d, obj.theta_star_stacked.data + 0.5)
    stream = NoiseStream(seed, 3)
    steps = range(start, start + length)
    got = sample_noise(model, obj, point, stream, steps)
    assert got.shape == (length, obj.m, obj.d)
    want = [sample_noise(model, obj, point, stream, t).data for t in steps]
    assert got.tobytes() == np.array(want).tobytes()


def _problem(kind, m, d, seed):
    if kind == "logistic":
        return generate_logistic_problem(m=m, n=8, d=d, seed=seed)
    rng = np.random.default_rng(seed)
    A = np.empty((m, d, d))
    for k in range(m):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A[k] = (Q * rng.uniform(0.5, 3.0, d)) @ Q.T
    return QuadraticObjectives(A=A, theta_loc_star=rng.standard_normal((m, d)))


def _rounding_floor(obj, gamma, point):
    """Floating-point error of the residual Theta - W(Theta - gamma grad F(Theta)):
    eps times the size of the terms it is formed from."""
    terms = np.linalg.norm(point.data) + gamma * np.linalg.norm(obj.grad_stacked(point).data)
    return np.finfo(float).eps * terms


TOL = inspect.signature(fixed_point).parameters["tol"].default


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["quadratic", "logistic"]), m=st.integers(1, 12),
       n=st.integers(1, 50), d=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.1, 5.0))
def test_batched_hessians_are_bitwise_the_per_client_ones(kind, m, n, d, seed, scale):
    if kind == "logistic":
        obj = generate_logistic_problem(m=m, n=n, d=d, seed=seed)
    else:
        obj = _problem("quadratic", m, d, seed)
    rng = np.random.default_rng(seed)
    Th = obj.theta_star + scale * rng.standard_normal((m, d))
    H = obj._hess_batch(Th)
    assert H.shape == (m, d, d) and H.dtype == np.float64
    for k in range(m):
        assert H[k].tobytes() == obj.hess_local(k, Th[k]).tobytes()


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["quadratic", "logistic"]), m=st.integers(1, 5),
       d=st.integers(1, 3), ring=st.booleans(), seed=st.integers(0, 2**32 - 1),
       frac=st.floats(0.05, 1.0))
def test_newton_fixed_point_agrees_with_picard(kind, m, d, ring, seed, frac):
    obj = _problem(kind, m, d, seed)
    W = build_ring(m, 0.3) if ring and m >= 3 else build_fully_connected(m)
    gamma = frac / obj.L
    rate = gamma * obj.mu
    newton = solve_fixed_point(W, obj, gamma)
    picard = fixed_point(W, obj, gamma)
    assert newton.iterations == 1
    assert newton.residual <= TOL * rate
    # each point lies within its true residual / (gamma mu) of the true fixed
    # point; the computed residual is off by at most its rounding floor
    gap = np.linalg.norm(newton.point.data - picard.point.data)
    slack = _rounding_floor(obj, gamma, newton.point) + _rounding_floor(obj, gamma, picard.point)
    assert gap <= (newton.residual + picard.residual + slack) / rate


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 50), d=st.integers(1, 4),
       lam=st.floats(0.01, 1.0), spread=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_newton_finds_theta_star(m, n, d, lam, spread, seed):
    obj = generate_logistic_problem(m=m, n=n, d=d, heterogeneity_spread=spread,
                                    lambda_reg=lam, seed=seed)
    assert np.linalg.norm(obj._mean_grad(obj.theta_star)) <= 1e-12
    # a quadratic through the same loop at tol 0 lands on the direct solve
    quad = _problem("quadratic", m, d, seed)
    rhs = np.einsum("kij,kj->i", quad.A, quad.theta_loc_star) / m
    x, r = damped_newton(lambda x: quad.Abar @ x - rhs, lambda x: quad.Abar, np.zeros(d), 0.0)
    assert r <= np.linalg.norm(quad.Abar @ quad.theta_star - rhs)
    cond = np.linalg.cond(quad.Abar)
    eps = np.finfo(float).eps
    assert np.linalg.norm(x - quad.theta_star) <= 8 * d * eps * cond * np.linalg.norm(quad.theta_star)


def _sigmoid_masked(z):
    """The two-branch formula, each branch evaluated on its own boolean mask."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ulps_from_exact(z: float, got: float) -> float:
    """|got - sigma(z)| in ulps of sigma(z), with sigma(z) to 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        exact = 1 / (1 + (-decimal.Decimal(z)).exp())
        return float(abs(decimal.Decimal(got) - exact) / decimal.Decimal(math.ulp(float(exact))))


# hypothesis floats include NaN, +-inf, +-0 and subnormals; the edges are
# added explicitly, with |z| > 745 where exp(-|z|) underflows to 0 and
# |z| > 709 where the clamp of exp's argument acts
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
         745.2, -745.2, 800.0, -800.0, 1e308, -1e308, 36.7, -36.7, 709.0, -709.0, 709.5,
         -709.5]
SIGMOID_INPUTS = st.lists(st.one_of(st.floats(), st.sampled_from(EDGES)),
                          min_size=1, max_size=64)
# the range on which every value is a normal number and no step underflows
SIGMOID_RANGE = st.lists(st.one_of(st.floats(-700.0, 700.0),
                                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 36.7, -36.7,
                                                    700.0, -700.0])),
                         min_size=1, max_size=64)


@settings(max_examples=300, deadline=None)
@given(values=SIGMOID_INPUTS)
def test_sigmoid_at_nonnegative_z_is_bitwise_the_masked_formula(values):
    z = np.abs(np.array(values, dtype=float))
    with np.errstate(invalid="ignore"):
        got, ref = _sigmoid(z), _sigmoid_masked(z)
    nan = np.isnan(z)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), ref[~nan].view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(values=SIGMOID_RANGE)
def test_sigmoid_is_within_3_ulp_of_the_exact_value(values):
    z = np.array(values, dtype=float)
    got = _sigmoid(z)
    assert max(_ulps_from_exact(zi, gi) for zi, gi in zip(z.tolist(), got.tolist())) <= 3.0


def test_sigmoid_maps_nan_and_the_infinities():
    z = np.array([np.nan, np.inf, -np.inf])
    got = _sigmoid(z)
    assert np.isnan(got[0]) and got[1] == 1.0
    assert 0.0 <= got[2] <= 1.3e-308
    # the in-place core runs on a negated copy, so z itself is left as it was
    assert np.isnan(z[0]) and z[1] == np.inf and z[2] == -np.inf


def _grad_batch_formula(obj, Th):
    """The batched logistic gradient as einsum, _sigmoid, then
    einsum / n + lambda theta, each a new array."""
    s = _sigmoid(np.einsum("...kd,knd->...kn", Th, obj.data))
    return np.einsum("...kn,knd->...kd", s, obj.data) / obj.n + obj.lambda_reg * Th


@settings(max_examples=200, deadline=None)
@given(lead=st.sampled_from([(), (1,), (1, 1), (2, 3), (1, 7)]), m=st.integers(1, 12),
       n=st.integers(1, 50), d=st.integers(1, 6), lam=st.sampled_from([1e-3, 0.1, 3.7]),
       top=st.floats(-2.0, 3.5), zeros=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_logistic_grad_batch_is_bitwise_the_einsum_sigmoid_formula(lead, m, n, d, lam, top,
                                                                   zeros, seed):
    # magnitudes from 1e-3 to 10**top, so theta.x crosses +-709 where the
    # exp is clamped once top is about 2.5, and exact (signed) zeros
    rng = np.random.default_rng(seed)
    obj = generate_logistic_problem(m=m, n=n, d=d, lambda_reg=lam, seed=seed % 1000)
    shape = lead + (m, d)
    Th = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, top, shape)
    if zeros:
        Th[rng.random(shape) < 0.3] = 0.0
        Th[rng.random(shape) < 0.1] = -0.0
    got = obj._grad_batch(Th)
    assert got.shape == shape
    assert got.tobytes() == _grad_batch_formula(obj, Th).tobytes()


@settings(max_examples=200, deadline=None)
@given(values=SIGMOID_INPUTS, x=st.floats(-750.0, 750.0))
def test_sigmoid_is_monotone(values, x):
    z = np.sort(np.array(values, dtype=float))
    assert np.all(np.diff(_sigmoid(z[~np.isnan(z)])) >= 0.0)
    # and over neighbouring floats, whose values often round to one
    near = x + abs(np.spacing(x)) * np.arange(-32, 33)
    assert np.all(np.diff(_sigmoid(near)) >= 0.0)


@settings(max_examples=200, deadline=None)
@given(values=SIGMOID_RANGE, anywhere=SIGMOID_INPUTS)
def test_sigmoid_raises_no_floating_point_error(values, anywhere):
    # on [-700, 700], NaN and +inf no flag at all is raised, underflow included
    with np.errstate(all="raise"):
        _sigmoid(np.array(values + [np.nan, np.inf], dtype=float))
    # anywhere, -inf and 1e308 included, nothing overflows or is invalid
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        _sigmoid(np.array(anywhere, dtype=float))


# (m, n) with m*n a power of two (16, 32) and one above it (5, 9, 17, 33),
# n = 1 included, besides any small pair
PICK_SHAPES = st.one_of(
    st.tuples(st.integers(1, 5), st.integers(1, 20)),
    st.sampled_from([(1, 1), (3, 1), (1, 16), (2, 8), (4, 4), (4, 8), (1, 5), (3, 3),
                     (1, 17), (3, 11), (1, 33)]),
)


@settings(max_examples=300, deadline=None)
@given(shape=PICK_SHAPES, lead=st.sampled_from([(), (1, 1), (1, 3), (2, 1), (2, 3)]),
       kind=st.sampled_from(["full", "narrow", "shared_high"]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pick_index_is_the_argsort_rule(shape, lead, kind, seed, data):
    m, n = shape
    b = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="b")
    rng = np.random.default_rng(seed)
    size = lead + shape
    if kind == "full":
        keys = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    elif kind == "narrow":
        # exact ties, which argsort breaks its own way
        keys = rng.integers(0, 3, size=size, dtype=np.uint64)
    else:
        # in every row the words of ranks at and at + 1 share their bits above
        # the index bits and differ below them, in the opposite order to their
        # indices: inside the first b + 1 sorted words when at < b, outside
        # them otherwise
        at = data.draw(st.integers(0, max(n - 2, 0)), label="at")
        bits = (m * n - 1).bit_length()
        ranks = rng.permuted(np.broadcast_to(np.arange(n), size), axis=-1)
        ranks = np.where(ranks == at + 1, at, ranks).astype(np.uint64)
        flat = np.arange(m * n, dtype=np.uint64).reshape(m, n)
        offset = rng.integers(0, 2**32, dtype=np.uint64)
        keys = ((ranks + offset) << np.uint64(bits)) | (np.uint64(2**bits - 1) - flat)
    want = np.argsort(keys, axis=-1)[..., :b] + n * np.arange(m)[:, None]
    got = _pick_index(keys, b)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.moveaxis(want, -1, 0))


def _picked_rows(persample, keys, b):
    """The reference selection: the b rows of the full per-sample gradients
    that hold the smallest words, in increasing order of the words."""
    idx = np.argsort(keys, axis=-1)[..., :b]
    return np.take_along_axis(persample, idx[..., None], axis=-2)


def _subset_mean(persample, keys, b):
    """The reference mean: the picked rows added one at a time in pick
    order, then divided by b."""
    rows = _picked_rows(persample, keys, b)
    total = rows[..., 0, :]
    for j in range(1, b):
        total = total + rows[..., j, :]
    return total / b


def _dot_in_coordinate_order(Th, X):
    """theta_k . x_ki of every sample, (..., m, n), the d products added in
    index order."""
    z = Th[..., None, 0] * X[..., 0]
    for j in range(1, X.shape[-1]):
        z = z + Th[..., None, j] * X[..., j]
    return z


def _drift_case(C, shared, R, m, n, d, tied, scale, seed, b):
    """_drift at a random stack and the picks of random words, with the
    objective, the stack and the words, shaped (1 or C, R, m, n), that the
    picks came from."""
    obj = generate_logistic_problem(m=m, n=n, d=d, seed=seed)
    rng = np.random.default_rng(seed)
    Th = scale * rng.standard_normal((C, R, m, d))
    # words shared by the chains or one set per chain, picked as _Draws
    # picks them; a narrow range makes ties, which argsort must break the
    # same way
    high = 3 if tied else 2**64
    keys = rng.integers(0, high, size=(1 if shared else C, R, m, n), dtype=np.uint64)
    got = _drift(obj, Minibatch(b), Th, _pick_index(keys, b))
    assert got.shape == (C, R, m, d)
    return got, obj, Th, keys


DRIFT_CASE = dict(C=st.integers(1, 2), shared=st.booleans(), R=st.integers(1, 4),
                  m=st.integers(1, 5), n=st.integers(1, 50), tied=st.booleans(),
                  scale=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1), data=st.data())


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 5), **DRIFT_CASE)
def test_minibatch_drift_is_bitwise_the_full_gradient_formula(C, shared, R, m, n, d, tied,
                                                             scale, seed, data):
    b = data.draw(st.integers(1, n), label="b")
    got, obj, Th, keys = _drift_case(C, shared, R, m, n, d, tied, scale, seed, b)
    X = obj.data
    persample = _sigmoid(_dot_in_coordinate_order(Th, X))[..., None] * X
    want = _subset_mean(persample, keys, b) + obj.lambda_reg * Th
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 2), **DRIFT_CASE)
def test_minibatch_drift_at_d2_is_bitwise_the_einsum_formula(C, shared, R, m, n, d, tied,
                                                            scale, seed, data):
    # at d <= 2 einsum sums theta.x in index order too
    b = data.draw(st.integers(1, n), label="b")
    got, obj, Th, keys = _drift_case(C, shared, R, m, n, d, tied, scale, seed, b)
    X = obj.data
    persample = _sigmoid(np.einsum("...kd,knd->...kn", Th, X))[..., None] * X
    want = _subset_mean(persample, keys, b) + obj.lambda_reg * Th
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n, b", [(8, 8), (20, 9), (50, 10), (50, 50)])
def test_one_client_one_coordinate_sums_in_pick_order(n, b):
    # with C = R = m = d = 1 the b picked terms are one contiguous column,
    # which numpy's own mean over it would sum pairwise
    obj = generate_logistic_problem(m=1, n=n, d=1, seed=n + b)
    rng = np.random.default_rng(b)
    for t in range(20):
        Th = 10.0 * rng.standard_normal((1, 1, 1, 1))
        keys = rng.integers(0, 2**64, size=(1, 1, 1, n), dtype=np.uint64)
        persample = _sigmoid(np.einsum("...kd,knd->...kn", Th, obj.data))[..., None] * obj.data
        want = _subset_mean(persample, keys, b) + obj.lambda_reg * Th
        got = _drift(obj, Minibatch(b), Th, _pick_index(keys, b))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # sample_noise reads its words from the stream at step t
        point = StackedPoint(1, 1, Th[0, 0])
        stream = NoiseStream(seed=b, replicate=n)
        keys = stream.raw_block(0, n)[t].reshape(1, n)
        persample = _sigmoid(obj.data @ Th[0, 0, 0])[..., None] * obj.data
        want = _subset_mean(persample, keys, b) - persample.mean(axis=1)
        got = sample_noise(Minibatch(b), obj, point, stream, t).data
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(C=st.integers(1, 2), shared=st.booleans(), R=st.integers(1, 4), m=st.integers(1, 5),
       n=st.integers(8, 50), scale=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_minibatch_drift_at_d1_is_within_rounding_of_numpy_mean_and_fsum(C, shared, R, m, n,
                                                                        scale, seed, data):
    # d = 1 and b >= 8 is where numpy's .mean over b may sum pairwise instead
    # of in pick order, so there the pick-order drift is bounded, not equal
    b = data.draw(st.integers(8, n), label="b")
    obj = generate_logistic_problem(m=m, n=n, d=1, seed=seed)
    rng = np.random.default_rng(seed)
    Th = scale * rng.standard_normal((C, R, m, 1))
    keys = rng.integers(0, 2**64, size=(1 if shared else C, R, m, n), dtype=np.uint64)
    got = _drift(obj, Minibatch(b), Th, _pick_index(keys, b))
    X = obj.data
    persample = _sigmoid(np.einsum("...kd,knd->...kn", Th, X))[..., None] * X
    terms = np.broadcast_to(_picked_rows(persample, keys, b), (C, R, m, b, 1))
    ridge = obj.lambda_reg * Th
    numpy_mean = terms.mean(axis=-2) + ridge
    exact = np.array([math.fsum(row) for row in terms.reshape(-1, b)]).reshape(C, R, m, 1)
    fsum_mean = exact / b + ridge
    # two orders of a b-term sum differ by at most b eps sum|terms|, which the
    # mean divides by b; adding the ridge term rounds each side once more
    eps = np.finfo(float).eps
    tol = b * eps * np.abs(terms).sum(axis=-2) / b + eps * np.abs(got)
    assert np.all(np.abs(got - numpy_mean) <= tol)
    assert np.all(np.abs(got - fsum_mean) <= tol)


@st.composite
def _topologies(draw):
    """A W from each builder: fully connected, ring, clusters, or an edge
    list read as text, with its Laplacian step inside the builder's gate."""
    kind = draw(st.sampled_from(["fully_connected", "ring", "clusters", "edge_list"]))
    if kind == "fully_connected":
        return build_fully_connected(draw(st.integers(1, 20)))
    if kind == "ring":
        return build_ring(draw(st.integers(3, 20)), draw(st.floats(0.01, 0.5)))
    frac = draw(st.floats(0.05, 1.0))
    if kind == "clusters":
        k, size = draw(st.integers(1, 5)), draw(st.integers(2, 5))
        bridge = draw(st.floats(0.1, 2.0))
        return build_clusters(k * size, k, frac / (size - 1 + bridge), bridge)
    # a random spanning tree keeps the graph connected; extra edges close cycles
    m = draw(st.integers(2, 15))
    weight = st.floats(0.1, 2.0)
    edges = [(draw(st.integers(0, i - 1)), i, draw(weight)) for i in range(1, m)]
    for _ in range(draw(st.integers(0, m))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if i != j:
            edges.append((i, j, draw(weight)))
    L = load_edge_list(io.StringIO("".join(f"{i} {j} {w!r}\n" for i, j, w in edges)))
    return from_laplacian(L, frac / np.max(np.diag(L)))


@settings(max_examples=200, deadline=None)
@given(W=_topologies(), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_mixing_preserves_block_average_for_every_builder(W, d, seed):
    X = StackedPoint(W.m, d, np.random.default_rng(seed).standard_normal((W.m, d)))
    got = project_consensus(apply_comm(W, X)).data
    assert np.all(np.abs(got - project_consensus(X).data) <= 1e-12)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["quadratic", "logistic"]), clusters=st.booleans(),
       k=st.integers(1, 4), size=st.integers(2, 4), t=st.floats(0.05, 1.0),
       d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), frac=st.floats(0.01, 1.0))
def test_expansion_residual_bound_is_bitwise_half_the_rr_bound(kind, clusters, k, size, t, d,
                                                               seed, frac):
    # both are the one gamma^2 constant; halving it is exact in binary
    if clusters:
        W = build_clusters(k * size, k, t / size)
    else:
        W = build_ring(k + size, t / 2.0)
    obj = _problem(kind, W.m, d, seed)
    # min(1/(Lambda L), 1/L), with no division by a zero Lambda
    gamma = frac / (obj.L * max(W.spectral.Lambda, 1.0))
    residual = det_bias_expansion(W, obj, gamma).residual_bound
    assert residual == 0.5 * rr_bias_bound(obj, W, gamma)


# a 6-client logistic problem on the three graph families, with both noise
# lanes and none
CHAIN_OBJ = generate_logistic_problem(m=6, n=5, d=2, seed=8)
CHAIN_GRAPHS = {"ring": build_ring(6, 0.3), "full": build_fully_connected(6),
                "clusters": build_clusters(6, 2, 0.2)}
CHAIN_NOISE = {"gaussian": AdditiveGaussian.isotropic(6, 2, 0.5), "minibatch": Minibatch(2),
               "none": None}
_RECORD_FIELDS = ("times", "dist_opt", "dist_det", "consensus_err", "disagreement_norm",
                  "avg_client_dist", "final", "stat_count", "stat_sum", "stat_outer")


@settings(max_examples=40, deadline=None)
@given(graphs=st.lists(st.sampled_from(sorted(CHAIN_GRAPHS)), min_size=1, max_size=4),
       fracs=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
       R=st.integers(1, 5), lane=st.sampled_from(sorted(CHAIN_NOISE)),
       seed=st.integers(0, 2**32 - 1), with_det=st.booleans())
def test_each_chain_of_run_chains_is_a_lone_run(graphs, fracs, R, lane, seed, with_det):
    # C = len(graphs) chains, each with its own gamma, W and start, on one
    # set of draws; repeated graphs mix with one W, mixed ones with a stack.
    # T = 530 crosses the first 512-step block boundary
    obj, noise, C = CHAIN_OBJ, CHAIN_NOISE[lane], len(graphs)
    rng = np.random.default_rng(seed)
    starts = [StackedPoint(6, 2, rng.standard_normal((6, 2))) for _ in range(C)]
    dets = starts if with_det else None
    configs = [RunConfig(algorithm="dgd" if noise is None else "dsgd", gamma=frac / obj.L,
                         T=530, seed=seed, replicates=R, burn_in=20, record_every=100)
               for frac in fracs[:C]]
    Ws = [CHAIN_GRAPHS[name] for name in graphs]
    chains = run_chains(Ws, obj, noise, configs, starts, dets)
    for c, got in enumerate(chains):
        lone = run(Ws[c], obj, noise, configs[c], starts[c], starts[c] if with_det else None)
        assert got.config == configs[c]
        for name in _RECORD_FIELDS:
            want = getattr(lone, name)
            assert (getattr(got, name) is None) == (want is None), name
            assert want is None or np.array_equal(getattr(got, name), want), name
    if noise is not None:
        # the extrapolated run steps the same gamma and gamma/2 chains
        rr_cfg = RunConfig(algorithm="rr_dsgd", gamma=configs[0].gamma, T=530, seed=seed,
                           replicates=R, burn_in=20, record_every=100)
        half = replace(configs[0], gamma=configs[0].gamma / 2.0)
        pair = run_chains([Ws[0]] * 2, obj, noise, [configs[0], half], [starts[0]] * 2)
        rec = rr_run(Ws[0], obj, noise, rr_cfg, starts[0])
        assert np.array_equal(rec.final, 2.0 * pair[1].final - pair[0].final)
