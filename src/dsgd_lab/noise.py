"""Stochastic-gradient noise models and their counter-based random streams.

Two models:

* AdditiveGaussian: block k receives N(0, C_k) independent of the iterate,
* Minibatch: block k is the gradient of a uniformly-without-replacement
  subsample of size b minus the full local gradient (logistic objectives
  only; the ridge term cancels).

Randomness is keyed, not stateful: the draw consumed at step t by client k
of replicate r is a pure function of (seed, replicate, t, k). Streams are
backed by the Philox counter-based generator keyed from those coordinates,
with normals produced by Box-Muller on the raw 64-bit words. This makes
replicated runs reproducible under any scheduling, allows random access by
step, and gives shared-noise couplings for free (two chains reading the same
stream see identical draws).

A key is two 64-bit words: one mixed from (seed, replicate) when a stream
is made, one from (purpose, width, block) per block. A run fills one block
of all its streams at once with `_draw_blocks`, into one shared grid: one
generator, made for the call, is re-keyed for each stream instead of a new
one built per stream and block, and the normals come from one Box-Muller
pass per chunk of streams, so the temporaries stay small at any replicate
count. No generator outlives the call that made it, so streams hold no
generator state, and a stream read from several threads gives every block
its own words. Only the per-step readers (`raw_at`, `normals_at`) keep the
last block they read, so random access regenerates a block it has moved
away from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Philox

from .errors import (
    InvalidParamError,
    NotPositiveSemidefiniteError,
    ShapeMismatchError,
    UnsupportedCombinationError,
)
from .objectives import LogisticObjectives, ObjectiveSet, QuadraticObjectives, _sigmoid
from .stacked import StackedPoint

__all__ = [
    "NoiseStream",
    "AdditiveGaussian",
    "Minibatch",
    "TauEstimate",
    "sample_noise",
    "covariance_at",
    "estimate_tau",
    "tau_squares",
    "smoothness_constant",
]

_MASK = (1 << 64) - 1
_TWO_NEG53 = 2.0**-53
_TWO_PI = 2.0 * np.pi
# a generator's counter and buffer when it is (re-)keyed
_ZERO4 = np.zeros(4, dtype=np.uint64)
_ZERO4.setflags(write=False)
# Box-Muller pairs per pass of _draw_blocks: one pass over a whole R = 128
# grid of AC10-shape blocks raised a run's peak RSS by about 4 MB
_CHUNK_PAIRS = 2048


def _mix64(x: int) -> int:
    """SplitMix64 finalizer; scrambles stream coordinates into key words."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _lane_word(purpose: int, width: int, block: int) -> int:
    """The key word of a block's (purpose, width, block), the same for every
    stream."""
    return _mix64(_mix64(_mix64(purpose) + width) + block)


class NoiseStream:
    """Counter-based random stream for one replicate of one run.

    Draws are organized in blocks of ``block_size`` consecutive steps; the
    block for (purpose, width, block_index) is the first words of a Philox
    generator keyed on (seed, replicate, purpose, width, block_index). The
    (seed, replicate) word of that key is mixed once, when the stream is
    made. _draw_blocks makes a block for many streams at once, and
    normals_block is its one-stream case; raw_block returns one stream's
    words as the generator gives them, without the copy into a grid. Both
    generate a block on every call. The per-step readers keep the last
    block they read, so sequential access by step costs one generator call
    per block, while random access stays exact and pays one call per block
    switch.
    """

    PURPOSE_GAUSS = 1
    PURPOSE_SUBSET = 2
    block_size = 512

    def __init__(self, seed: int, replicate: int = 0):
        self.seed = int(seed)
        self.replicate = int(replicate)
        self._read = (None, None)  # ((purpose, width, block), block) of the last _at
        # chain the coordinates through the finalizer instead of xor-folding
        # them: xor is commutative, and (seed, replicate) pairs must not
        # collide under transposition
        self._key0 = _mix64(_mix64(_mix64(self.seed & _MASK)) ^ _mix64(self.replicate & _MASK))

    def raw_block(self, block: int, width: int) -> np.ndarray:
        """(block_size, width) uint64 words for the subset-selection lane."""
        lane = _lane_word(self.PURPOSE_SUBSET, width, block)
        words = _words(Philox(0), self, lane, self.block_size * width)
        return words.reshape(self.block_size, width)

    def normals_block(self, block: int, width: int) -> np.ndarray:
        """(block_size, width) standard normals for the Gaussian lane."""
        return _draw_blocks([self], self.PURPOSE_GAUSS, block, width)[0]

    def _at(self, purpose: int, width: int, t: int) -> np.ndarray:
        """Row t of the purpose's blocks, keeping that one block for the
        next step."""
        if t < 0:
            raise InvalidParamError(f"step t must be >= 0, got {t}")
        block, row = divmod(t, self.block_size)
        key = (purpose, width, block)
        if key != self._read[0]:
            reader = self.normals_block if purpose == self.PURPOSE_GAUSS else self.raw_block
            self._read = (key, reader(block, width))
        return self._read[1][row]

    def normals_at(self, t: int, width: int) -> np.ndarray:
        return self._at(self.PURPOSE_GAUSS, width, t)

    def raw_at(self, t: int, width: int) -> np.ndarray:
        return self._at(self.PURPOSE_SUBSET, width, t)


def _words(philox: Philox, stream: NoiseStream, lane: int, n: int) -> np.ndarray:
    """The first n words of Philox keyed on (the stream's key word, lane).

    philox is re-keyed, whatever it served before: its state is set to the
    key with counter zero and nothing buffered, which gives the words that
    Philox(key=...) would, without the OS entropy that constructor draws
    for a seed the key then overrides.
    """
    philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4,
                  "key": np.array([stream._key0, lane], dtype=np.uint64)},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return philox.random_raw(n)


def _draw_blocks(streams, purpose: int, block: int, width: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Block ``block`` of every stream's purpose lane, at width, in out[i].

    out is (len(streams), block_size, width), and is made when not given:
    uint64 words for NoiseStream.PURPOSE_SUBSET, float standard normals for
    PURPOSE_GAUSS. The streams share one block_size, and one generator made
    for the call is re-keyed for each of them. Normals come from one
    Box-Muller pass per chunk of whole streams, at most _CHUNK_PAIRS pairs
    of words unless one stream's block alone holds more, so the pass's
    temporaries stay small however many streams a run reads.
    """
    size = streams[0].block_size
    gauss = purpose == NoiseStream.PURPOSE_GAUSS
    if out is None:
        out = np.empty((len(streams), size, width), np.float64 if gauss else np.uint64)
    philox = Philox(0)
    lane = _lane_word(purpose, width, block)
    if not gauss:
        for s, dest in zip(streams, out):
            # words is freed only once the next stream's are made: freeing
            # each stream's words before the next were made kept about 2 MB
            # more resident over the benchmark's repeated rr-sto runs
            words = _words(philox, s, lane, size * width)
            dest[...] = words.reshape(size, width)
        return out
    pairs = (width + 1) // 2
    chunk = max(1, _CHUNK_PAIRS // (size * pairs))
    raw = np.empty((min(chunk, len(streams)), size, pairs, 2), np.uint64)
    for lo in range(0, len(streams), chunk):
        part = streams[lo:lo + chunk]
        for s, dest in zip(part, raw):
            dest[...] = _words(philox, s, lane, 2 * size * pairs).reshape(size, pairs, 2)
        words, z = raw[:len(part)], out[lo:lo + len(part)]
        # Box-Muller; u1 in (0, 1] so the log stays finite.
        u1 = ((words[..., 0] >> np.uint64(11)) + np.uint64(1)) * _TWO_NEG53
        u2 = (words[..., 1] >> np.uint64(11)) * _TWO_NEG53
        r = np.sqrt(-2.0 * np.log(u1))
        angle = _TWO_PI * u2
        z[..., 0::2] = r * np.cos(angle)
        # a sine only for the width // 2 pairs whose second normal is returned
        z[..., 1::2] = r[..., : width // 2] * np.sin(angle[..., : width // 2])
    return out


@dataclass(frozen=True)
class AdditiveGaussian:
    """State-independent additive noise: block k is N(0, C_k)."""

    C: np.ndarray  # (m, d, d), per-client PSD covariances

    def __post_init__(self):
        C = np.array(self.C, dtype=float)
        if C.ndim != 3 or C.shape[1] != C.shape[2]:
            raise ShapeMismatchError(f"C must be (m, d, d), got {C.shape}")
        if not np.all(np.isfinite(C)):
            raise InvalidParamError("noise covariance C has non-finite entries")
        for k in range(C.shape[0]):
            Ck = C[k]
            if np.max(np.abs(Ck - Ck.T)) > 1e-9 * max(np.max(np.abs(Ck)), 1.0):
                raise NotPositiveSemidefiniteError(f"C_{k} is not symmetric")
            w = np.linalg.eigvalsh(0.5 * (Ck + Ck.T))
            if w[0] < -1e-10 * max(abs(w[-1]), 1.0):
                raise NotPositiveSemidefiniteError(
                    f"C_{k} must be PSD; min eigenvalue {w[0]:.3e}"
                )
        C.setflags(write=False)
        object.__setattr__(self, "C", C)

    @classmethod
    def isotropic(cls, m: int, d: int, sigma2: float) -> "AdditiveGaussian":
        # checked before sigma2 * I is formed, where inf * 0 would warn
        if not np.isfinite(sigma2):
            raise InvalidParamError(f"sigma2 is non-finite: {sigma2}")
        if sigma2 < 0.0:
            raise InvalidParamError(f"sigma2 must be >= 0, got {sigma2}")
        return cls(C=np.tile(sigma2 * np.eye(d), (m, 1, 1)))

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def d(self) -> int:
        return self.C.shape[2]

    @cached_property
    def factors(self) -> np.ndarray:
        """Symmetric square roots S_k with S_k S_k^T = C_k."""
        S = np.empty_like(self.C)
        for k in range(self.m):
            w, V = np.linalg.eigh(0.5 * (self.C[k] + self.C[k].T))
            S[k] = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
        S.setflags(write=False)
        return S


@dataclass(frozen=True)
class Minibatch:
    """Subsample-gradient noise: size-b draws without replacement per client."""

    batch_size: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidParamError(f"batch_size must be >= 1, got {self.batch_size}")


NoiseModel = AdditiveGaussian | Minibatch


def _check_model(model, obj: ObjectiveSet) -> None:
    if isinstance(model, AdditiveGaussian):
        if model.m != obj.m or model.d != obj.d:
            raise ShapeMismatchError(
                f"noise model is ({model.m},{model.d}), objective is ({obj.m},{obj.d})"
            )
    elif isinstance(model, Minibatch):
        if isinstance(obj, QuadraticObjectives) or not isinstance(obj, LogisticObjectives):
            raise UnsupportedCombinationError(
                "minibatch noise is defined only for logistic objectives"
            )
        if model.batch_size > obj.n:
            raise InvalidParamError(
                f"batch_size {model.batch_size} exceeds samples per client {obj.n}"
            )
    else:
        raise UnsupportedCombinationError(f"unknown noise model {type(model).__name__}")


def _persample_grads(obj: LogisticObjectives, Theta: np.ndarray) -> np.ndarray:
    """Per-sample gradients of the data term, sigma(<theta_k, x_i>) x_i, of
    every client k at its block of the (m, d) point: (m, n, d)."""
    X = obj.data
    return _sigmoid(np.matmul(X, Theta[:, :, None])[..., 0])[..., None] * X


def _pick_index(keys: np.ndarray, b: int) -> np.ndarray:
    """The flat sample indices k*n + i that the selection words pick.

    keys is (..., m, n). Each row of n words picks the samples holding its
    b smallest words, in increasing order of the words: a uniform draw of b
    out of n without replacement. Returns (b, ..., m), the pick axis first,
    so that each pick is one contiguous block for _pick_mean; a leading
    axis of length 1 in keys gives one selection that broadcasts over every
    chain stacked along it.
    """
    m, n = keys.shape[-2:]
    idx = np.argsort(keys, axis=-1)[..., :b] + n * np.arange(m)[:, None]
    # the pick axis to the front: the same view as np.moveaxis, at a fraction
    # of its per-call cost, which small single draws pay
    return idx.transpose(idx.ndim - 1, *range(idx.ndim - 1))


def _picked(rows: np.ndarray, keys: np.ndarray, b: int) -> np.ndarray:
    """The (b, ..., m, ...) rows of the picks of _pick_index, from rows (m, n, ...)."""
    m, n = rows.shape[:2]
    return np.take(rows.reshape((m * n,) + rows.shape[2:]), _pick_index(keys, b), axis=0)


def _pick_mean(picked: np.ndarray) -> np.ndarray:
    """The mean over the leading pick axis of picked rows.

    The b rows are summed in pick order, then divided by b. numpy's own
    reductions choose their order from the memory layout (pairwise over a
    contiguous axis of 8 or more, sequential otherwise), so the explicit
    loop keeps every subset mean one function of its picks, at any shape.
    """
    total = picked[0].copy()
    for row in picked[1:]:
        total += row
    return total / len(picked)


def sample_noise(model, obj: ObjectiveSet, Theta: StackedPoint,
                 stream: NoiseStream, t: int) -> StackedPoint:
    """One draw of the stacked noise E(Theta) at step t of the stream.

    The draw is a pure function of the stream and t, so passing the same t
    evaluates the same noise realization at two different points.
    """
    _check_model(model, obj)
    if Theta.m != obj.m or Theta.d != obj.d:
        raise ShapeMismatchError(
            f"stacked point ({Theta.m},{Theta.d}) does not match objective "
            f"({obj.m},{obj.d})"
        )
    if isinstance(model, AdditiveGaussian):
        z = stream.normals_at(t, obj.m * obj.d).reshape(obj.m, obj.d)
        eps = np.einsum("kij,kj->ki", model.factors, z)
    else:
        keys = stream.raw_at(t, obj.m * obj.n).reshape(obj.m, obj.n)
        persample = _persample_grads(obj, Theta.data)
        eps = (_pick_mean(_picked(persample, keys, model.batch_size))
               - np.add.reduce(persample, axis=1) / obj.n)
    return StackedPoint(obj.m, obj.d, eps)


def covariance_at(model, obj: ObjectiveSet, theta) -> np.ndarray:
    """Averaged covariance Cbar(theta) = (1/m) sum_k Cov[eps_k(theta)], exact.

    AdditiveGaussian: (1/m) sum_k C_k independent of theta. Minibatch: the
    finite-population covariance of a without-replacement mean,
    (1 - b/n)/b times the per-sample gradient scatter, averaged over clients.
    """
    _check_model(model, obj)
    if isinstance(model, AdditiveGaussian):
        return model.C.mean(axis=0)
    theta = np.asarray(theta, dtype=float)
    b, n = model.batch_size, obj.n
    factor = (1.0 - b / n) / b
    out = np.zeros((obj.d, obj.d))
    if factor == 0.0:
        return out
    for G in _persample_grads(obj, np.broadcast_to(theta, (obj.m, obj.d))):
        D = G - G.mean(axis=0)
        out += factor * (D.T @ D) / (n - 1)
    return out / obj.m


@dataclass(frozen=True)
class TauEstimate:
    """Monte-Carlo estimate of a noise moment tau_p, with standard error.

    ``exact`` is filled for the additive Gaussian model, where closed forms
    exist; None otherwise.
    """

    p: int
    value: float
    std_error: float
    exact: float | None = None


def estimate_tau(model, obj: ObjectiveSet, Theta_star: StackedPoint, p: int,
                 n_draws: int = 100_000, seed: int = 0) -> TauEstimate:
    """Estimate tau_p = E[||E(Theta*)||^p]^(1/p) for p in {2, 4}.

    The same seed gives the same draws for p=2 and p=4, so the estimated
    pair always satisfies the Jensen ordering tau_2 <= tau_4. Standard
    errors are delta-method transforms of the mean's standard error.
    """
    if p not in (2, 4):
        raise InvalidParamError(f"p must be 2 or 4, got {p}")
    # the standard error takes the draws' spread with ddof=1
    if n_draws < 2:
        raise InvalidParamError(f"n_draws must be >= 2, got {n_draws}")
    _check_model(model, obj)
    return _tau_estimate(model, _tau_sq_norms(model, obj, Theta_star, n_draws, seed), p)


def tau_squares(model, obj: ObjectiveSet, Theta_star: StackedPoint,
                n_draws: int = 100_000, seed: int = 0) -> tuple:
    """(tau_2^2, tau_4^2) at Theta_star, the squares of what estimate_tau gives.

    Additive Gaussian noise uses the closed forms (estimate_tau's exact)
    and draws nothing; any other model gets both moments from one pass
    over the same n_draws draws (estimate_tau's value).
    """
    if n_draws < 1:
        raise InvalidParamError(f"n_draws must be >= 1, got {n_draws}")
    _check_model(model, obj)
    if isinstance(model, AdditiveGaussian):
        taus = (_tau_exact(model, 2), _tau_exact(model, 4))
    else:
        sq_norms = _tau_sq_norms(model, obj, Theta_star, n_draws, seed)
        taus = (float(np.mean(sq_norms)) ** 0.5, float(np.mean(sq_norms**2)) ** 0.25)
    return tuple(float(t) ** 2 for t in taus)


def _tau_sq_norms(model, obj: ObjectiveSet, Theta_star: StackedPoint,
                  n_draws: int, seed: int) -> np.ndarray:
    """||E(Theta*)||^2 for the first n_draws steps of stream (seed, 0)."""
    m, d = obj.m, obj.d
    stream = NoiseStream(seed=seed, replicate=0)
    sq_norms = np.empty(n_draws)
    if isinstance(model, AdditiveGaussian):
        width = m * d
        factors = model.factors
        for start in range(0, n_draws, stream.block_size):
            stop = min(start + stream.block_size, n_draws)
            blk = stream.normals_block(start // stream.block_size, width)
            z = blk[: stop - start].reshape(-1, m, d)
            eps = np.einsum("kij,rkj->rki", factors, z)
            sq_norms[start:stop] = np.sum(eps**2, axis=(1, 2))
    else:
        b, n = model.batch_size, obj.n
        width = m * n
        persample = _persample_grads(obj, Theta_star.data)
        full = np.add.reduce(persample, axis=1) / n
        for start in range(0, n_draws, stream.block_size):
            stop = min(start + stream.block_size, n_draws)
            blk = stream.raw_block(start // stream.block_size, width)
            keys = blk[: stop - start].reshape(-1, m, n)
            eps = _pick_mean(_picked(persample, keys, b)) - full
            sq_norms[start:stop] = np.sum(eps**2, axis=(1, 2))
    return sq_norms


def _tau_estimate(model, sq_norms: np.ndarray, p: int) -> TauEstimate:
    """The tau_p estimate from the draws' squared norms."""
    moment = sq_norms if p == 2 else sq_norms**2
    mean = float(np.mean(moment))
    se_mean = float(np.std(moment, ddof=1) / np.sqrt(len(sq_norms)))
    value = mean ** (1.0 / p)
    if mean > 0.0:
        std_error = se_mean / (p * mean ** (1.0 - 1.0 / p))
    else:
        std_error = 0.0
    exact = _tau_exact(model, p) if isinstance(model, AdditiveGaussian) else None
    return TauEstimate(p=p, value=value, std_error=std_error, exact=exact)


def _tau_exact(model: AdditiveGaussian, p: int) -> float:
    """Closed-form tau_p of additive Gaussian noise."""
    traces = np.trace(model.C, axis1=1, axis2=2)
    if p == 2:
        return float(np.sqrt(np.sum(traces)))
    tr = float(np.sum(traces))
    tr_sq = float(sum(np.sum(model.C[k] * model.C[k]) for k in range(model.m)))
    return float((tr**2 + 2.0 * tr_sq) ** 0.25)


def smoothness_constant(model, obj: ObjectiveSet) -> float:
    """Smoothness constant of the stochastic gradient map grad F + E.

    The additive model shifts the gradient by a constant, so the objective's
    own L applies. For minibatch noise every subsample-gradient map is
    lambda + max_i ||x_i||^2 / 4 smooth, uniformly over subsets.
    """
    _check_model(model, obj)
    if isinstance(model, AdditiveGaussian):
        return obj.L
    norms = np.linalg.norm(obj.data, axis=2)
    return obj.lambda_reg + 0.25 * float(np.max(norms) ** 2)
