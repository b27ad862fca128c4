"""Stochastic-gradient noise models and their counter-based random streams.

Two models:

* AdditiveGaussian: block k receives N(0, C_k) independent of the iterate,
* Minibatch: block k is the gradient of a uniformly-without-replacement
  subsample of size b minus the full local gradient (logistic objectives
  only; the ridge term cancels).

This module is the one that knows how draws become noise. _lane names the
lane and width a model reads, _noise binds a model to a point and gives the
function that turns (..., width) draws into (..., m, d) noise there, and
_drift turns a step's draws into the stochastic gradients of a stack of
chains; sample_noise, the tau pass and every engine's step use them.

Randomness is keyed, not stateful: the draw consumed at step t by client k
of replicate r is a pure function of (seed, replicate, t, k). Streams are
backed by the Philox counter-based generator keyed from those coordinates,
with normals produced by Box-Muller on the raw 64-bit words. This makes
replicated runs reproducible under any scheduling, allows random access by
step, and gives shared-noise couplings for free (two chains reading the same
stream see identical draws).

A key is two 64-bit words: one mixed from (seed, replicate) when a stream
is made, one from (purpose, width, block) per block. A run fills one block
of all its streams at once with `_draw_blocks`, into one shared grid: each
thread keeps one generator, which is re-keyed for each stream and each read
instead of a new one built per stream and block, and the normals come from
one Box-Muller pass per chunk of streams, so the temporaries stay small at
any replicate count. `_draw_blocks` also reads a range of a block's rows
alone, by starting Philox's counter at the range's first word, and gives
bit for bit those rows of the whole block. Streams hold no generator
state, so a stream read from several threads gives every block its own
words. Two readers rely on this, with the same bits at any CPU count:

* the minibatch tau pass reads its draws in quarter-block units and
  splits them over one thread per usable CPU (at most two);
* a run's minibatch words (`_Draws`) are filled a half-block at a time
  when two or more CPUs are usable, the next half on a worker thread while
  the steps read this one. Philox releases the GIL while it makes words,
  so the worker runs beside the step. A Gaussian block is filled whole on
  the calling thread: its Box-Muller pass and the re-keying of up to 128
  streams hold the GIL, so a worker slowed the Gaussian runs it was tried
  on.

The CLI's --threads sets neither. Only the per-step readers (`raw_at`,
`normals_at`) keep the last block they read, so random access regenerates a
block it has moved away from.
"""

from __future__ import annotations

import os
import threading
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
    "sample_noise",
    "covariance_at",
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
# subset words per piece that _draw_blocks copies into a grid: with the
# fill worker, whole-stream reads raised the benchmark's rr-sto peak RSS by
# 3.2 to 3.6 MB, pieces by 0.2 to 0.7 MB
_PIECE_WORDS = 16_384
# each thread's generator, re-keyed for every read: building one for each
# _draw_blocks call took 11 to 24 us
_local = threading.local()


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
    made, and the stream holds no generator, so any thread may read it.
    _draw_blocks makes a block for many streams at once, and normals_block
    and raw_block are its one-stream cases; raw_block's words come as the
    generator gives them, without a copy into a grid. Both generate a block
    on every call. The per-step readers keep the last block they read, so
    sequential access by step costs one generator call per block, while
    random access stays exact and pays one call per block switch. A run's
    grid of streams is read through _Draws, which fills minibatch words a
    half-block ahead on a worker thread when two or more CPUs are usable.
    """

    PURPOSE_GAUSS = 1
    PURPOSE_SUBSET = 2
    block_size = 512

    def __init__(self, seed: int, replicate: int = 0):
        self.seed = int(seed)
        self.replicate = int(replicate)
        # a key word holds 64 bits, so a value outside them would read the
        # streams of the value it wraps to
        for name, value in (("seed", self.seed), ("replicate", self.replicate)):
            if not 0 <= value <= _MASK:
                raise InvalidParamError(f"{name} must be in [0, 2**64), got {value}")
        self._read = (None, None)  # ((purpose, width, block), block) of the last _at
        # chain the coordinates through the finalizer instead of xor-folding
        # them: xor is commutative, and (seed, replicate) pairs must not
        # collide under transposition
        self._key0 = _mix64(_mix64(_mix64(self.seed)) ^ _mix64(self.replicate))

    def raw_block(self, block: int, width: int) -> np.ndarray:
        """(block_size, width) uint64 words for the subset-selection lane."""
        return _draw_blocks([self], self.PURPOSE_SUBSET, block, width)[0]

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
            self._read = (key, _draw_blocks([self], purpose, block, width)[0])
        return self._read[1][row]

    def normals_at(self, t: int, width: int) -> np.ndarray:
        return self._at(self.PURPOSE_GAUSS, width, t)

    def raw_at(self, t: int, width: int) -> np.ndarray:
        return self._at(self.PURPOSE_SUBSET, width, t)


def _philox() -> Philox:
    """The calling thread's generator, made at its first read."""
    try:
        return _local.philox
    except AttributeError:
        _local.philox = Philox(0)
        return _local.philox


def _seek(philox: Philox, stream: NoiseStream, lane: int, start: int) -> None:
    """Key philox on (the stream's key word, lane) at word start.

    philox is re-keyed, whatever it served before: its state is set to the
    key with counter start // 4 and nothing buffered, which gives the words
    that Philox(key=...) would from word 4 * (start // 4) on, without the
    OS entropy that constructor draws for a seed the key then overrides.
    The start % 4 words before start in that counter's output are drawn
    and dropped, so random_raw continues from word start. Philox is
    counter-based, so any range of words comes out the same alone as inside
    a longer read.
    """
    philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([start // 4, 0, 0, 0], dtype=np.uint64),
                  "key": np.array([stream._key0, lane], dtype=np.uint64)},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    if start % 4:
        philox.random_raw(start % 4)


def _words(philox: Philox, stream: NoiseStream, lane: int, n: int,
           start: int = 0) -> np.ndarray:
    """Words [start, start + n) of Philox keyed on (the stream's key word, lane)."""
    _seek(philox, stream, lane, start)
    return philox.random_raw(n)


def _draw_blocks(streams, purpose: int, block: int, width: int,
                 out: np.ndarray | None = None, lo: int = 0,
                 hi: int | None = None) -> np.ndarray:
    """Rows [lo, hi) of block ``block`` of every stream's purpose lane, at
    width, in out[i]; the default range is the whole block.

    out is (len(streams), hi - lo, width), and is made when not given:
    uint64 words for NoiseStream.PURPOSE_SUBSET, float standard normals for
    PURPOSE_GAUSS. The streams share one block_size, and the calling
    thread's generator is re-keyed for each of them. Each row reads its own
    run of words (width words, or two per Box-Muller pair), so rows [lo, hi)
    read alone are bit for bit those rows of the whole block. Words go into
    out in pieces of about _PIECE_WORDS, each continuing the counter of the
    one before. Normals come from one Box-Muller pass per chunk of whole
    streams, at most _CHUNK_PAIRS pairs of words unless one stream's rows
    alone hold more, so the pass's temporaries stay small however many
    streams a run reads.
    """
    if hi is None:
        hi = streams[0].block_size
    rows = hi - lo
    gauss = purpose == NoiseStream.PURPOSE_GAUSS
    philox = _philox()
    lane = _lane_word(purpose, width, block)
    if out is None:
        if not gauss and len(streams) == 1:
            # one stream's words are returned as drawn: copying them into a
            # new grid took about 37 times the minor page faults in a
            # 20,000-draw tau pass on two threads
            words = _words(philox, streams[0], lane, rows * width, lo * width)
            return words.reshape(1, rows, width)
        out = np.empty((len(streams), rows, width), np.float64 if gauss else np.uint64)
    if not gauss:
        piece = max(1, _PIECE_WORDS // width)
        for s, dest in zip(streams, out):
            _seek(philox, s, lane, lo * width)
            for r in range(0, rows, piece):
                k = min(piece, rows - r)
                dest[r:r + k] = philox.random_raw(k * width).reshape(k, width)
        return out
    pairs = (width + 1) // 2
    chunk = max(1, _CHUNK_PAIRS // (rows * pairs))
    raw = np.empty((min(chunk, len(streams)), rows, pairs, 2), np.uint64)
    for first in range(0, len(streams), chunk):
        part = streams[first:first + chunk]
        for s, dest in zip(part, raw):
            dest[...] = _words(philox, s, lane, 2 * rows * pairs,
                               2 * lo * pairs).reshape(rows, pairs, 2)
        words, z = raw[:len(part)], out[first:first + len(part)]
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


def _lane(model, obj: ObjectiveSet):
    """The NoiseStream purpose a noise model draws from, and its width."""
    if isinstance(model, AdditiveGaussian):
        return NoiseStream.PURPOSE_GAUSS, obj.m * obj.d
    return NoiseStream.PURPOSE_SUBSET, obj.m * obj.n


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Worker(threading.Thread):
    """A thread that runs fn(*args) and keeps what it raised, so that the
    thread that joins it can raise that same object.

    Plain threads rather than concurrent.futures, whose import (logging
    included) took 6 to 10 ms of every command's start-up.
    """

    def __init__(self, fn, *args):
        super().__init__(target=fn, args=args)
        self.error = None
        self.start()

    def run(self) -> None:
        try:
            super().run()
        except BaseException as exc:  # raised by the joining thread
            self.error = exc


class _Draws:
    """Per-step draws of a (C, R) grid of streams, read from one block buffer.

    ids[c][r] is the stream replicate id behind chain c and replicate r; C
    is 1 when every chain shares the replicates' streams. Gaussian noise
    reads standard normals, minibatch noise subset-selection words. T, when
    given, is the number of steps the run reads: nothing past step T - 1 is
    filled ahead.

    The buffer holds one block of every stream and is filled in units. On
    the subset lane with two or more usable CPUs a unit is half a block,
    and while the steps read one half a worker thread fills the next, at
    most one fill in flight; the step that crosses into that half joins it
    and raises what it raised. Philox makes the words without the GIL, so
    the worker runs beside the step. Otherwise (the Gaussian lane, or one
    CPU) a unit is the whole block, filled on the calling thread when it is
    first read, and no worker starts: the Gaussian fill re-keys up to 128
    streams and runs Box-Muller under the GIL, so a worker for it slowed the
    Gaussian runs it was tried on, and halves cost more than a whole block.
    The CLI's --threads does not set the worker. Every draw is the same to
    the bit either way; close() joins the fill in flight.
    """

    def __init__(self, model, obj: ObjectiveSet, seed: int, ids, T: int | None = None):
        self.streams = [NoiseStream(seed, r) for row in ids for r in row]
        self.shape = (len(ids), len(ids[0]))
        self.purpose, self.width = _lane(model, obj)
        self.block_size = self.streams[0].block_size
        self.ahead = self.purpose == NoiseStream.PURPOSE_SUBSET and _usable_cpus() >= 2
        self.unit = self.block_size // 2 if self.ahead else self.block_size
        self.T = T
        self.current = -1  # the unit the buffer holds for the steps
        self.pending = None  # (unit, worker) of the fill in flight
        self.buf = None

    def _fill(self, unit: int) -> None:
        block, lo = divmod(unit * self.unit, self.block_size)
        hi = lo + self.unit
        _draw_blocks(self.streams, self.purpose, block, self.width, self.buf[:, lo:hi], lo, hi)

    def at(self, t: int) -> np.ndarray:
        """(C, R, width) draws of step t.

        The result is a view of a buffer that a later fill overwrites, so it
        is valid only until a step in another unit is read.
        """
        unit = t // self.unit
        if unit != self.current:
            if self.buf is None:
                dtype = np.uint64 if self.purpose == NoiseStream.PURPOSE_SUBSET else np.float64
                self.buf = np.empty((len(self.streams), self.block_size, self.width), dtype)
                self.grid = self.buf.reshape(self.shape + self.buf.shape[1:])
            self.current = -1
            pending = self.close()
            if pending is not None and pending[1].error is not None:
                raise pending[1].error
            if pending is None or pending[0] != unit:
                self._fill(unit)
            self.current = unit
            if self.ahead and (self.T is None or (unit + 1) * self.unit < self.T):
                self.pending = (unit + 1, _Worker(self._fill, unit + 1))
        return self.grid[:, :, t % self.block_size]

    def close(self):
        """Join the fill in flight, if any, and return it as (unit, worker).

        A run calls this once it ends, which drops that fill's words and any
        error it raised."""
        pending, self.pending = self.pending, None
        if pending is not None:
            pending[1].join()
        return pending


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

    The picks are argsort's, ties included, found by a value sort: each
    word's low (m*n - 1).bit_length() bits are replaced by its flat sample
    index, each row of packed words is sorted, and the picks are the low
    bits of the first b. Where every two neighbours among the first b + 1
    sorted words of a row differ above the index bits, the row's b
    smallest words are strictly increasing and strictly below the rest, so
    argsort must pick the same samples in the same order. Where two such
    neighbours agree above the index bits in any row (random words do so
    with a chance of about 1e-14 per row), argsort of the words decides
    the whole call instead. The packed words take as much memory as
    argsort's index array.
    """
    m, n = keys.shape[-2:]
    low = np.uint64((1 << (m * n - 1).bit_length()) - 1)
    # rows of m*n words, so the flat indices k*n + i go in with one broadcast
    words = keys.reshape(-1, m * n) & ~low
    words |= np.arange(m * n, dtype=np.uint64)
    words = words.reshape(keys.shape)
    words.sort(axis=-1)
    head = words[..., :b + 1]
    if n > 1 and (head[..., 1:] ^ head[..., :-1]).min() <= low:
        idx = np.argsort(keys, axis=-1)[..., :b] + n * np.arange(m)[:, None]
    else:
        idx = (head[..., :b] & low).view(np.intp)
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


def _noise(model, obj: ObjectiveSet, Theta: np.ndarray):
    """The function that turns (..., width) draws of the model's lane into
    the (..., m, d) noise at the (m, d) point Theta.

    Gaussian noise is S_k z_k, whatever Theta. Minibatch noise is the mean
    gradient of the samples the words pick minus the full local gradient,
    both at Theta: the per-sample gradients and their full mean are formed
    here, once, and every call of the result reads them without writing.
    """
    if isinstance(model, AdditiveGaussian):
        def gaussian(draws):
            z = draws.reshape(draws.shape[:-1] + (obj.m, obj.d))
            return np.einsum("kij,...kj->...ki", model.factors, z)
        return gaussian
    persample = _persample_grads(obj, Theta)
    full = np.add.reduce(persample, axis=1) / obj.n

    def minibatch(draws):
        keys = draws.reshape(draws.shape[:-1] + (obj.m, obj.n))
        return _pick_mean(_picked(persample, keys, model.batch_size)) - full
    return minibatch


def _drift(obj: ObjectiveSet, model, Th: np.ndarray, draw: np.ndarray | None) -> np.ndarray:
    """The (C, R, m, d) stochastic gradients of a stack of chains at a
    step's (1 or C, R, width) draws; model None gives the gradients."""
    if not isinstance(model, Minibatch):
        drift = obj._grad_batch(Th)
        return drift if model is None else drift + _noise(model, obj, Th)(draw)
    # the subsample mean is the gradient plus the noise, so the full data
    # gradient is never needed, and only the b picked samples' sigmoids
    # are. The picks come from the coordinate-major data: Xb is (d, b, 1 or
    # C, R, m), so theta.x sums the coordinates in index order and s.x is
    # one multiply over contiguous (R, m) rows
    _, R, m, d = Th.shape
    idx = _pick_index(draw.reshape(-1, R, m, obj.n), model.batch_size)
    Xb = np.take(obj.data_by_coord, idx, axis=1)
    z = Xb[0] * Th[..., 0]
    for j in range(1, d):
        z += Xb[j] * Th[..., j]
    grad = _pick_mean(np.multiply(_sigmoid(z), Xb).swapaxes(0, 1))
    return grad.transpose(1, 2, 3, 0) + obj.lambda_reg * Th


def sample_noise(model, obj: ObjectiveSet, Theta: StackedPoint,
                 stream: NoiseStream, t: int) -> StackedPoint:
    """One draw of the stacked noise E(Theta) at step t of the stream.

    The draw is a pure function of the stream and t, so passing the same t
    evaluates the same noise realization at two different points.
    """
    _check_model(model, obj)
    obj._check_point(Theta)
    eps = _noise(model, obj, Theta.data)(stream._at(*_lane(model, obj), t))
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


def tau_squares(model, obj: ObjectiveSet, Theta_star: StackedPoint,
                n_draws: int = 100_000, seed: int = 0) -> tuple:
    """(tau_2^2, tau_4^2) at Theta_star, tau_p = E[||E(Theta*)||^p]^(1/p).

    Additive Gaussian noise uses the closed forms and draws nothing; any
    other model gets both moments from one pass over the same n_draws
    draws, so the pair keeps the Jensen order tau_2 <= tau_4. The pass runs
    on one thread per usable CPU, at most two, whatever the CLI's
    --threads says; its result is the same to the bit at any count, and an
    error raised in any thread is raised here.
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


# steps per unit of the tau pass, a quarter of a block
_TAU_UNIT = NoiseStream.block_size // 4
# at most this many threads share the tau pass: each one keeps its own
# unit's draws and temporaries resident, about 1.5 MB of peak RSS at
# fig2-heterogeneous, and no count above two has been timed on as many cores
_MAX_TAU_WORKERS = 2


def _tau_sq_norms(model, obj: ObjectiveSet, Theta_star: StackedPoint,
                  n_draws: int, seed: int) -> np.ndarray:
    """||E(Theta*)||^2 for the first n_draws steps of stream (seed, 0).

    The draws are read in units of _TAU_UNIT steps, a quarter of a block,
    through _draw_blocks. Each usable CPU, up to _MAX_TAU_WORKERS and the
    number of units, takes one contiguous span of units: the calling
    thread runs the first, and one thread each the others, all joined
    before this returns. The noise is bound to Theta_star once, before the
    spans start, so the minibatch per-sample gradients at Theta_star and
    their full mean are formed once per pass and every thread reads them.
    A unit's draws and norms depend only on its steps, and each span writes
    its own slice of the result, so every bit is the same at any worker
    count. An exception in any span is raised here as it was raised.
    """
    stream = NoiseStream(seed=seed, replicate=0)
    purpose, width = _lane(model, obj)
    size = stream.block_size
    sq_norms = np.empty(n_draws)
    noise_at = _noise(model, obj, Theta_star.data)

    def run_span(starts: range) -> None:
        # draws is rebound only once the next unit's are made, so that the
        # allocator reuses the last unit's memory instead of faulting in
        # fresh pages for each unit
        for start in starts:
            stop = min(start + _TAU_UNIT, n_draws)
            block, row = divmod(start, size)
            draws = _draw_blocks([stream], purpose, block, width,
                                 lo=row, hi=row + stop - start)[0]
            eps = noise_at(draws)
            sq_norms[start:stop] = np.sum(eps**2, axis=(1, 2))

    units = range(0, n_draws, _TAU_UNIT)
    workers = max(1, min(_usable_cpus(), _MAX_TAU_WORKERS, len(units)))
    spans = [units[len(units) * i // workers:len(units) * (i + 1) // workers]
             for i in range(workers)]
    threads = []
    try:
        for starts in spans[1:]:
            threads.append(_Worker(run_span, starts))
        run_span(spans[0])
    finally:
        for thread in threads:
            thread.join()
    for thread in threads:
        if thread.error is not None:
            raise thread.error
    return sq_norms


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
