"""Iteration engines: DGD, DSGD, fixed points, couplings, extrapolated runs.

The update is Adapt-then-Combine: every client takes a local (stochastic)
gradient step, then the network averages with W. In stacked form

    Theta_{t+1} = W (Theta_t - gamma (grad F(Theta_t) + E_{t+1}(Theta_t))),

with E = 0 for the deterministic variant. One step kernel performs this
update for every engine, on a (C, R, m, d) stack: C chains, each with its
own step size, times R replicates, and W acts blockwise through batched
matmul; no Kronecker products are materialized. A plain run is C = 1, the
extrapolated run is C = 2 (gamma and gamma/2), a coupled pair is C = 2 (two
starts), and the single steps and the fixed-point iteration are C = R = 1.
All randomness flows through keyed NoiseStream objects, so a run is a pure
function of its configuration and seed: the trajectory of replicate r does
not depend on how many other replicates or chains are batched alongside it
or on any thread scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergenceError,
    InvalidParamError,
    InvalidStepError,
    NoConvergenceError,
    ShapeMismatchError,
)
from .matops import damped_newton
from .noise import (
    AdditiveGaussian,
    Minibatch,
    NoiseStream,
    _check_model,
    _draw_blocks,
    _pick_mean,
    _picked,
    smoothness_constant,
)
from .objectives import ObjectiveSet, _sigmoid
from .stacked import StackedPoint
from .topology import CommMatrix

__all__ = [
    "ALGORITHMS",
    "RunConfig",
    "RunRecord",
    "FixedPointResult",
    "dgd_step",
    "dsgd_step",
    "fixed_point",
    "solve_fixed_point",
    "run",
    "coupled_run",
    "rr_run",
    "default_burn_in",
]

ALGORITHMS = ("dgd", "dsgd", "rr_dgd", "rr_dsgd")
COUPLINGS = ("shared", "independent")


def default_burn_in(gamma: float, mu: float, T: int) -> int:
    """Steps until the deterministic transient is below 1e-6, capped by T."""
    rate = gamma * mu
    if rate >= 1.0:
        burn = 1
    else:
        burn = int(math.ceil(math.log(1e-6) / math.log(1.0 - rate)))
    return min(burn, max(T - 1, 0))


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a simulation run."""

    algorithm: str = "dsgd"
    gamma: float = 1e-3
    T: int = 1000
    seed: int = 0
    replicates: int = 1
    burn_in: int | None = None
    record_every: int = 1
    coupling: str = "shared"

    def __post_init__(self):
        alg = self.algorithm.lower().replace("-", "_")
        object.__setattr__(self, "algorithm", alg)
        if alg not in ALGORITHMS:
            raise InvalidParamError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        coup = self.coupling.lower()
        object.__setattr__(self, "coupling", coup)
        if coup not in COUPLINGS:
            raise InvalidParamError(
                f"coupling must be one of {COUPLINGS}, got {self.coupling!r}"
            )
        if not (self.gamma > 0.0):
            raise InvalidStepError(f"gamma must be positive, got {self.gamma}")
        if self.T < 0:
            raise InvalidParamError(f"T must be >= 0, got {self.T}")
        if self.replicates < 1:
            raise InvalidParamError(f"replicates must be >= 1, got {self.replicates}")
        if self.record_every < 1:
            raise InvalidParamError(f"record_every must be >= 1, got {self.record_every}")
        if self.burn_in is not None:
            if self.burn_in < 0:
                raise InvalidParamError(f"burn_in must be >= 0, got {self.burn_in}")
            if self.T > 0 and self.burn_in >= self.T:
                raise InvalidParamError(
                    f"burn_in {self.burn_in} must be < T = {self.T}"
                )
            if self.T == 0 and self.burn_in != 0:
                raise InvalidParamError("T = 0 admits only burn_in = 0")

    def resolved_burn_in(self, mu: float) -> int:
        if self.burn_in is not None:
            return self.burn_in
        return default_burn_in(self.gamma, mu, self.T)


@dataclass
class RunRecord:
    """Recorded trajectory statistics of one run (all replicates).

    Per recorded step t (rows) and replicate (columns):
    dist_opt = ||Theta_t - Theta*||, dist_det = ||Theta_t - Theta_det|| when a
    deterministic fixed point was supplied, consensus_err = ||P Theta_t - Theta*||,
    disagreement_norm = ||Q Theta_t||, avg_client_dist = (1/m) sum_i
    ||theta_i^t - theta*|| (the client-averaged metric used for aggregate
    reporting). Stationary sufficient statistics (first and second moments of
    the stacked iterate past burn-in) are accumulated every step, not just at
    recorded ones.
    """

    config: RunConfig
    m: int
    d: int
    theta_star: np.ndarray
    theta_det: np.ndarray | None
    times: np.ndarray
    dist_opt: np.ndarray
    dist_det: np.ndarray | None
    consensus_err: np.ndarray
    disagreement_norm: np.ndarray
    avg_client_dist: np.ndarray
    final: np.ndarray
    stat_count: int
    stat_sum: np.ndarray = field(repr=False)
    stat_outer: np.ndarray = field(repr=False)

    @property
    def replicates(self) -> int:
        return self.final.shape[0]

    def replicate_means(self) -> np.ndarray:
        """(R, m, d) per-replicate time averages past burn-in."""
        if self.stat_count == 0:
            raise InvalidParamError("no stationary samples accumulated (T <= burn_in)")
        return self.stat_sum / self.stat_count

    def replicate_second_moments(self) -> np.ndarray:
        """(R, m*d, m*d) per-replicate time-averaged outer products."""
        if self.stat_count == 0:
            raise InvalidParamError("no stationary samples accumulated (T <= burn_in)")
        return self.stat_outer / self.stat_count


@dataclass(frozen=True)
class FixedPointResult:
    """Fixed point of the deterministic recursion plus its certificate."""

    point: StackedPoint
    residual: float
    iterations: int


def _check_step(gamma: float, L: float) -> None:
    if not (gamma > 0.0):
        raise InvalidStepError(f"gamma must be positive, got {gamma}")
    if gamma > 1.0 / L:
        warnings.warn(
            f"step size gamma={gamma:.3g} exceeds 1/L={1.0 / L:.3g}; "
            "monotone contraction to the fixed point is not guaranteed",
            UserWarning,
            stacklevel=3,
        )


def _check_shapes(W: CommMatrix, obj: ObjectiveSet, *points: StackedPoint) -> None:
    for P in points:
        if P.m != obj.m or P.d != obj.d:
            raise ShapeMismatchError(
                f"stacked point is ({P.m},{P.d}), objective needs ({obj.m},{obj.d})"
            )
    if W.m != obj.m:
        raise ShapeMismatchError(f"W has m={W.m}, objective has m={obj.m}")


def _step(W: np.ndarray, obj: ObjectiveSet, noise, gammas: np.ndarray,
          Th: np.ndarray, draw: np.ndarray | None) -> np.ndarray:
    """One Adapt-then-Combine step of a (C, R, m, d) stack of chains.

    gammas holds the chains' step sizes, shaped (C, 1, 1, 1) so that they
    broadcast over the stack. draw is None for noiseless
    chains; otherwise it holds the step's draws for each replicate, shaped
    (1, R, width) when all C chains share them and (C, R, width) when each
    chain has its own. Shared draws are turned once, into noise or into
    subset indices and the picked samples' rows, and broadcast over the
    chains.
    """
    return np.matmul(W, Th - gammas * _drift(obj, noise, Th, draw))


def _drift(obj: ObjectiveSet, noise, Th: np.ndarray, draw: np.ndarray | None) -> np.ndarray:
    """The stack's (C, R, m, d) stochastic gradients at _step's draws."""
    _, R, m, d = Th.shape
    if isinstance(noise, Minibatch):
        # the subsample mean is the gradient plus the noise, so the full
        # data gradient is never needed, and only the b picked samples'
        # sigmoids are: Xb is (b, 1 or C, R, m, d) and s (b, C, R, m)
        Xb = _picked(obj.data, draw.reshape(-1, R, m, obj.n), noise.batch_size)
        s = _sigmoid(np.einsum("...kd,...kd->...k", Th, Xb))
        return _pick_mean(s[..., None] * Xb) + obj.lambda_reg * Th
    drift = obj._grad_batch(Th)
    if noise is not None:
        z = draw.reshape(-1, R, m, d)
        drift = drift + np.einsum("kij,...kj->...ki", noise.factors, z)
    return drift


def _lane(noise, obj: ObjectiveSet):
    """The NoiseStream purpose a noise model draws from, and its width."""
    if isinstance(noise, AdditiveGaussian):
        return NoiseStream.PURPOSE_GAUSS, obj.m * obj.d
    return NoiseStream.PURPOSE_SUBSET, obj.m * obj.n


class _Draws:
    """Per-step draws of a (C, R) grid of streams, read a block at a time.

    ids[c][r] is the stream replicate id behind chain c and replicate r; C
    is 1 when every chain shares the replicates' streams. Gaussian noise
    reads standard normals, minibatch noise subset-selection words.
    """

    def __init__(self, noise, obj: ObjectiveSet, seed: int, ids):
        self.streams = [NoiseStream(seed, r) for row in ids for r in row]
        self.shape = (len(ids), len(ids[0]))
        self.purpose, self.width = _lane(noise, obj)
        self.block_size = self.streams[0].block_size
        self.block = -1
        self.buf = None

    def at(self, t: int) -> np.ndarray:
        """(C, R, width) draws of step t.

        The result is a view of a buffer that the next block overwrites, so
        it is valid only until a step in another block is read.
        """
        b, row = divmod(t, self.block_size)
        if b != self.block:
            # one (C * R, block_size, width) buffer, filled in place per block
            self.buf = _draw_blocks(self.streams, self.purpose, b, self.width, self.buf)
            self.grid = self.buf.reshape(self.shape + self.buf.shape[1:])
            self.block = b
        return self.grid[:, :, row]


def _iterate(W: CommMatrix, obj: ObjectiveSet, noise, gammas, Th: np.ndarray,
             draws: _Draws | None, T: int):
    """Yield the (C, R, m, d) stack at t = 0, 1, ..., T."""
    W = W.entries
    gammas = np.reshape(np.asarray(gammas, dtype=float), (-1, 1, 1, 1))
    yield Th
    for t in range(T):
        Th = _step(W, obj, noise, gammas, Th, None if draws is None else draws.at(t))
        yield Th


def dgd_step(W: CommMatrix, obj: ObjectiveSet, gamma: float,
             Theta: StackedPoint) -> StackedPoint:
    """One deterministic Adapt-then-Combine update."""
    _check_step(gamma, obj.L)
    _check_shapes(W, obj, Theta)
    Th = _step(W.entries, obj, None, np.full((1, 1, 1, 1), gamma), Theta.data[None, None],
               None)
    return StackedPoint(obj.m, obj.d, Th[0, 0])


def dsgd_step(W: CommMatrix, obj: ObjectiveSet, noise, gamma: float,
              Theta: StackedPoint, stream: NoiseStream, t: int) -> StackedPoint:
    """One stochastic update at step t: local noisy gradient step, then mixing.

    Consumes the stream's draws of step t.
    """
    _check_step(gamma, obj.L)
    _check_model(noise, obj)
    _check_shapes(W, obj, Theta)
    draw = stream._at(*_lane(noise, obj), t)
    Th = _step(W.entries, obj, noise, np.full((1, 1, 1, 1), gamma), Theta.data[None, None],
               draw[None, None])
    return StackedPoint(obj.m, obj.d, Th[0, 0])


def fixed_point(W: CommMatrix, obj: ObjectiveSet, gamma: float,
                tol: float = 1e-10, max_iter: int | None = None,
                start: StackedPoint | None = None) -> FixedPointResult:
    """Iterate the deterministic recursion to its fixed point Theta_det.

    This Picard iteration is the oracle for Theta_det: solve_fixed_point
    hands it its Newton point as start, and it verifies that point with its
    own stop rule. start defaults to Theta*, the starting point for which
    the rate and the iteration cap below hold.

    Stops once the per-step displacement is below tol * gamma * mu, which
    pins the fixed-point residual ||(I-W) Theta + gamma W grad F(Theta)|| (equal
    to the displacement) well below tol and makes the reported point's
    accuracy uniform in gamma. The contraction rate is (1 - gamma mu), so the
    default iteration cap scales like 1/(gamma mu). A non-finite iterate
    raises DivergenceError at once, naming the iteration.
    """
    _check_step(gamma, obj.L)
    if start is None:
        start = obj.theta_star_stacked
    _check_shapes(W, obj, start)
    rate = gamma * obj.mu
    if max_iter is None:
        max_iter = max(1000, int(math.ceil(45.0 / min(rate, 1.0))))
    W_entries, gammas = W.entries, np.full((1, 1, 1, 1), gamma)
    Th = start.data[None, None]
    thresh = tol * rate
    for it in range(1, max_iter + 1):
        nxt = _step(W_entries, obj, None, gammas, Th, None)
        delta = float(np.linalg.norm(nxt - Th))
        if not math.isfinite(delta):
            raise DivergenceError(f"fixed-point iterate is not finite at iteration {it}")
        Th = nxt
        if delta <= thresh:
            residual = float(np.linalg.norm(Th - _step(W_entries, obj, None, gammas, Th, None)))
            return FixedPointResult(
                point=StackedPoint(obj.m, obj.d, Th[0, 0]), residual=residual, iterations=it
            )
    raise NoConvergenceError(
        f"fixed-point iteration did not reach tol={tol:.1e} within {max_iter} steps "
        f"(last displacement {delta:.3e})"
    )


#: flops of the Newton solve's dense work per (md)^3: its LU solves and one
#: nonsymmetric eigvals
NEWTON_FLOPS_PER_CUBE = 10.0
#: Picard steps to its stop rule per 1/(gamma mu) (8 to 13 measured)
PICARD_STEPS_PER_RATE = 8.0
#: interpreter overhead of one Picard step, counted in flops (about 30 us)
STEP_OVERHEAD_FLOPS = 1e5


def _newton_pays(obj: ObjectiveSet, gamma: float) -> bool:
    """Whether the dense Newton solve is cheaper than Picard from Theta*.

    Newton's Jacobian is an (md, md) matrix, so its cost grows as (md)^3;
    Picard takes about PICARD_STEPS_PER_RATE / (gamma mu) steps of m^2 d
    flops plus a fixed overhead. Newton therefore runs for every md <= 40
    at gamma <= 1/L, and for larger md only at step sizes small against
    it; at m=100, d=50 it needs 1/(gamma mu) above about 2.6e5.
    """
    m, d = obj.m, obj.d
    newton = NEWTON_FLOPS_PER_CUBE * float(m * d) ** 3
    picard = PICARD_STEPS_PER_RATE * (m * m * d + STEP_OVERHEAD_FLOPS) / (gamma * obj.mu)
    return newton <= picard


def _linearised_map(W: np.ndarray, obj: ObjectiveSet, gamma: float,
                    Th: np.ndarray) -> np.ndarray:
    """M = (W (x) I_d)(I - gamma blkdiag hess f_k(theta_k)) at the (m, d) point Th.

    M is the Jacobian of the deterministic step, an (md, md) matrix.
    """
    m, d = obj.m, obj.d
    local = np.eye(d) - gamma * np.stack([obj.hess_local(k, Th[k]) for k in range(m)])
    return np.einsum("ik,kab->iakb", W, local).reshape(m * d, m * d)


def _newton_point(W: CommMatrix, obj: ObjectiveSet, gamma: float) -> np.ndarray | None:
    """Certified Newton point of R(Theta) = Theta - W(Theta - gamma grad F(Theta)).

    matops.damped_newton from Theta* with Jacobian I - M, at tol 0, so it
    runs until ||R|| no longer falls. Its point is returned only if M there
    has spectral radius < 1, so that the step is a local contraction around
    it (Yuan, Ling & Yin 2016); otherwise, and on a non-finite iterate,
    None. A singular Jacobian or a non-finite M raises LinAlgError.
    """
    W_entries, gammas = W.entries, np.full((1, 1, 1, 1), gamma)
    eye = np.eye(obj.m * obj.d)

    def residual(Th):
        return Th - _step(W_entries, obj, None, gammas, Th[None, None], None)[0, 0]

    def jacobian(Th):
        return eye - _linearised_map(W_entries, obj, gamma, Th)

    found = damped_newton(residual, jacobian, obj.theta_star_stacked.data, tol=0.0)
    if found is None:
        return None
    Th = found[0]
    if np.max(np.abs(np.linalg.eigvals(_linearised_map(W_entries, obj, gamma, Th)))) >= 1.0:
        return None
    return Th


def solve_fixed_point(W: CommMatrix, obj: ObjectiveSet, gamma: float) -> FixedPointResult:
    """Theta_det by a certified Newton solve that fixed_point verifies.

    The Newton point (see _newton_point) is handed to the Picard oracle
    fixed_point as its start, whose stop rule accepts it after one
    iteration, so the result carries Picard's residual and accuracy. When
    Newton fails or its point is not certified stable, fixed_point runs
    from Theta* as it would alone, and reports divergence the same way.
    Newton is meant for small md: where its dense (md)^3 work would cost
    more than Picard's iterations (see _newton_pays), Picard runs alone.
    """
    _check_shapes(W, obj)
    start = None
    if gamma > 0.0 and _newton_pays(obj, gamma):  # fixed_point rejects gamma <= 0
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                point = _newton_point(W, obj, gamma)
        except np.linalg.LinAlgError:
            point = None
        if point is not None:
            start = StackedPoint(obj.m, obj.d, point)
    return fixed_point(W, obj, gamma, start=start)


def _record_metrics(P: np.ndarray, theta_star: np.ndarray,
                    Theta_det: np.ndarray | None):
    """Vectorized distance metrics for a (R, m, d) batch."""
    diff = P - theta_star[None, None, :]
    dist_opt = np.sqrt(np.sum(diff**2, axis=(1, 2)))
    avg = P.mean(axis=1)
    m = P.shape[1]
    consensus = np.sqrt(m * np.sum((avg - theta_star[None, :]) ** 2, axis=1))
    disagree = np.sqrt(np.sum((P - avg[:, None, :]) ** 2, axis=(1, 2)))
    client_avg = np.mean(np.sqrt(np.sum(diff**2, axis=2)), axis=1)
    if Theta_det is None:
        dist_det = None
    else:
        dist_det = np.sqrt(np.sum((P - Theta_det[None, :, :]) ** 2, axis=(1, 2)))
    return dist_opt, dist_det, consensus, disagree, client_avg


def _stack(points, R: int) -> np.ndarray:
    """(C, R, m, d) stack: chain c starts every replicate at points[c]."""
    return np.stack([np.tile(P.data[None], (R, 1, 1)) for P in points])


def run(W: CommMatrix, obj: ObjectiveSet, noise, config: RunConfig,
        Theta0: StackedPoint, Theta_det: StackedPoint | None = None) -> RunRecord:
    """Execute the configured algorithm for all replicates.

    noise may be None for the deterministic variants. Theta_det, when given,
    adds the distance-to-fixed-point column to the records. Deterministic
    given the configuration: replicate r's draws are keyed by (seed, r, t, k)
    and do not depend on batching or thread count.
    """
    if config.algorithm in ("rr_dgd", "rr_dsgd"):
        return rr_run(W, obj, noise, config, Theta0, Theta_det)
    if config.algorithm == "dsgd" and noise is None:
        raise InvalidParamError("dsgd requires a noise model; use algorithm='dgd' instead")
    if config.algorithm == "dgd":
        noise = None
    if noise is not None:
        _check_model(noise, obj)
    _check_shapes(W, obj, Theta0)
    _check_step(config.gamma, obj.L)

    R = config.replicates
    draws = None if noise is None else _Draws(noise, obj, config.seed, [range(R)])
    chain = _iterate(W, obj, noise, [config.gamma], _stack([Theta0], R), draws, config.T)
    return _drive(chain, lambda Th: Th[0], obj, config, Theta_det)


def rr_run(W: CommMatrix, obj: ObjectiveSet, noise, config: RunConfig,
           Theta0: StackedPoint, Theta_det: StackedPoint | None = None) -> RunRecord:
    """Two-step-size extrapolated run: records 2 Theta^{gamma/2} - Theta^{gamma}.

    Both chains start from Theta0. With shared coupling (the default) the
    gamma and gamma/2 chains consume the same draws at every step; with
    independent coupling each chain owns disjoint streams.
    """
    if config.algorithm in ("dgd", "dsgd"):
        raise InvalidParamError("rr_run requires an rr_dgd or rr_dsgd configuration")
    if config.algorithm == "rr_dsgd" and noise is None:
        raise InvalidParamError("rr_dsgd requires a noise model")
    if config.algorithm == "rr_dgd":
        noise = None
    if noise is not None:
        _check_model(noise, obj)
    _check_shapes(W, obj, Theta0)
    _check_step(config.gamma, obj.L)

    R = config.replicates
    if config.coupling == "shared":
        ids = [range(R)]
    else:
        ids = [range(0, 2 * R, 2), range(1, 2 * R, 2)]
    draws = None if noise is None else _Draws(noise, obj, config.seed, ids)
    gammas = [config.gamma, config.gamma / 2.0]
    chain = _iterate(W, obj, noise, gammas, _stack([Theta0, Theta0], R), draws, config.T)
    return _drive(chain, lambda Th: 2.0 * Th[1] - Th[0], obj, config, Theta_det)


def _drive(chain, combine, obj: ObjectiveSet, config: RunConfig,
           Theta_det: StackedPoint | None) -> RunRecord:
    """Consume the chain's stacks: record metrics, accumulate moments.

    combine maps a (C, R, m, d) stack to the (R, m, d) recorded iterate.
    Raises DivergenceError when that iterate is not finite at a record step
    or at T.
    """
    theta_star = obj.theta_star
    det_data = Theta_det.data if Theta_det is not None else None
    burn = config.resolved_burn_in(obj.mu)
    T, stride = config.T, config.record_every
    R = config.replicates
    m, d = obj.m, obj.d

    times = []
    rec = {k: [] for k in ("opt", "det", "cons", "dis", "client")}
    stat_sum = np.zeros((R, m, d))
    stat_outer = np.zeros((R, m * d, m * d))
    outer = np.empty_like(stat_outer)
    stat_count = 0

    def record(t, P):
        dist_opt, dist_det, cons, dis, client = _record_metrics(P, theta_star, det_data)
        times.append(t)
        rec["opt"].append(dist_opt)
        rec["det"].append(dist_det)
        rec["cons"].append(cons)
        rec["dis"].append(dis)
        rec["client"].append(client)

    for step_idx, Th in enumerate(chain):
        current = combine(Th)
        if step_idx > burn:
            stat_sum += current
            flat = current.reshape(R, m * d)
            stat_outer += np.multiply(flat[:, :, None], flat[:, None, :], out=outer)
            stat_count += 1
        if step_idx % stride == 0 or step_idx == T:
            bad = ~np.isfinite(current).all(axis=(1, 2))
            if bad.any():
                raise DivergenceError(
                    f"iterate is not finite at step {step_idx} in replicate "
                    f"{int(np.argmax(bad))}"
                )
            record(step_idx, current)

    dist_det = None
    if det_data is not None:
        dist_det = np.stack(rec["det"])
    return RunRecord(
        config=config,
        m=m,
        d=d,
        theta_star=theta_star.copy(),
        theta_det=det_data.copy() if det_data is not None else None,
        times=np.asarray(times, dtype=int),
        dist_opt=np.stack(rec["opt"]),
        dist_det=dist_det,
        consensus_err=np.stack(rec["cons"]),
        disagreement_norm=np.stack(rec["dis"]),
        avg_client_dist=np.stack(rec["client"]),
        final=current.copy(),
        stat_count=stat_count,
        stat_sum=stat_sum,
        stat_outer=stat_outer,
    )


def coupled_run(W: CommMatrix, obj: ObjectiveSet, noise, gamma: float, T: int,
                Theta0_a: StackedPoint, Theta0_b: StackedPoint, seed: int = 0,
                replicates: int = 1) -> np.ndarray:
    """Synchronously coupled pair of DSGD chains; returns E-hat||A_t - B_t||^2.

    Both chains consume identical noise draws at every step. Requires
    gamma < 2/L for the noise model's own smoothness constant (the coupling
    contraction argument breaks beyond it). The returned array has length
    T + 1 (squared distances averaged over replicates, starting at t=0).
    """
    if noise is None:
        raise InvalidParamError("coupled_run couples stochastic chains; supply a noise model")
    _check_model(noise, obj)
    L = smoothness_constant(noise, obj)
    if not (gamma < 2.0 / L):
        raise InvalidStepError(
            f"coupling requires gamma < 2/L = {2.0 / L:.6g}, got gamma = {gamma:.6g}"
        )
    _check_shapes(W, obj, Theta0_a, Theta0_b)
    R = replicates
    Th = _stack([Theta0_a, Theta0_b], R)
    draws = _Draws(noise, obj, seed, [range(R)])
    return np.array([
        float(np.mean(np.sum((P[0] - P[1]) ** 2, axis=(1, 2))))
        for P in _iterate(W, obj, noise, [gamma, gamma], Th, draws, T)
    ])
