"""Iteration engines: DGD, DSGD, fixed points, couplings, extrapolated runs.

The update is Adapt-then-Combine: every client takes a local (stochastic)
gradient step, then the network averages with W. In stacked form

    Theta_{t+1} = W (Theta_t - gamma (grad F(Theta_t) + E_{t+1}(Theta_t))),

with E = 0 for the deterministic variant. One step kernel performs this
update for every engine, on a (C, R, m, d) stack: C chains, each with its
own step size, W and start, times R replicates, and W acts blockwise
through batched matmul. A plain run is C = 1 of run_chains, the extrapolated
run is C = 2 (gamma and gamma/2), a coupled pair is C = 2 (two starts), and
the single steps and the fixed-point iteration are C = R = 1.
The noise module reads a run's draws and turns them into the stochastic
gradients; this module steps, iterates, records and solves. All randomness
flows through keyed NoiseStream objects, so a run is a pure function of its
configuration and seed: the trajectory of replicate r does not depend on
how many other replicates or chains are batched alongside it or on any
thread scheduling.
"""

from __future__ import annotations

import math
import sys
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
from .noise import NoiseStream, _check_model, _Draws, _drift, _lane, smoothness_constant
from .objectives import ObjectiveSet
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
    "run_chains",
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
        # log1p(-rate) stays non-zero where log(1 - rate) rounds to 0, below
        # rates of about 1e-16; a rate that underflows to 0 never settles
        steps = math.log(1e-6) / math.log1p(-rate) if rate > 0.0 else math.inf
        burn = math.ceil(min(steps, T))
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
        if not 0 <= self.seed < 2**64:
            raise InvalidParamError(f"seed must be in [0, 2**64), got {self.seed}")
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
        # attribute the warning to the first caller outside this module
        frame, level = sys._getframe(1), 2
        while frame.f_globals["__name__"] == __name__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"step size gamma={gamma:.3g} exceeds 1/L={1.0 / L:.3g}; "
            "monotone contraction to the fixed point is not guaranteed",
            UserWarning,
            stacklevel=level,
        )


def _check_shapes(W: CommMatrix, obj: ObjectiveSet, *points: StackedPoint) -> None:
    for P in points:
        obj._check_point(P)
    if W.m != obj.m:
        raise ShapeMismatchError(f"W has m={W.m}, objective has m={obj.m}")


def _step(W: np.ndarray, obj: ObjectiveSet, noise, gammas: np.ndarray | float,
          Th: np.ndarray, draw: np.ndarray | None) -> np.ndarray:
    """One Adapt-then-Combine step of a (C, R, m, d) stack of chains.

    gammas holds the chains' step sizes, shaped (C, 1, 1, 1) so that they
    broadcast over the stack, or one float. draw is None for noiseless
    chains; otherwise it holds the step's draws for each replicate, shaped
    (1, R, width) when all C chains share them and (C, R, width) when each
    chain has its own. Shared draws are turned once, into noise or into
    subset indices and the picked samples' rows, and broadcast over the
    chains.
    """
    return np.matmul(W, Th - gammas * _drift(obj, noise, Th, draw))


def _iterate(Ws, obj: ObjectiveSet, noise, gammas, starts, R: int,
             draws: _Draws | None, T: int):
    """Yield the (C, R, m, d) stack at t = 0, 1, ..., T, chain c stepping
    with gammas[c] from starts[c]; equal Ws mix as one (m, m) matrix."""
    W = np.stack([W.entries for W in Ws])[:, None]
    if (W == W[0]).all():
        W = W[0, 0]
    gammas = np.reshape(np.asarray(gammas, dtype=float), (-1, 1, 1, 1))
    Th = np.repeat(np.stack([P.data for P in starts])[:, None], R, axis=1)
    try:
        yield Th
        for t in range(T):
            Th = _step(W, obj, noise, gammas, Th, None if draws is None else draws.at(t))
            yield Th
    finally:
        # a fill in flight is joined however the chain ends, closed early included
        if draws is not None:
            draws.close()


def dgd_step(W: CommMatrix, obj: ObjectiveSet, gamma: float,
             Theta: StackedPoint) -> StackedPoint:
    """One deterministic Adapt-then-Combine update."""
    _check_step(gamma, obj.L)
    _check_shapes(W, obj, Theta)
    Th = _step(W.entries, obj, None, gamma, Theta.data[None, None], None)
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
    Th = _step(W.entries, obj, noise, gamma, Theta.data[None, None], draw[None, None])
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
    W_entries = W.entries
    Th = start.data[None, None]
    thresh = tol * rate
    for it in range(1, max_iter + 1):
        nxt = _step(W_entries, obj, None, gamma, Th, None)
        delta = float(np.linalg.norm(nxt - Th))
        if not math.isfinite(delta):
            raise DivergenceError(f"fixed-point iterate is not finite at iteration {it}")
        Th = nxt
        if delta <= thresh:
            residual = float(np.linalg.norm(Th - _step(W_entries, obj, None, gamma, Th, None)))
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
    local = np.eye(d) - gamma * obj._hess_batch(Th)
    return np.einsum("ik,kab->iakb", W, local).reshape(m * d, m * d)


def _newton_point(W: CommMatrix, obj: ObjectiveSet, gamma: float) -> np.ndarray | None:
    """Certified Newton point of R(Theta) = Theta - W(Theta - gamma grad F(Theta)).

    matops.damped_newton from Theta* with Jacobian I - M, at tol 0, so it
    runs until ||R|| no longer falls. Its point is returned only if M there
    has spectral radius < 1, so that the step is a local contraction around
    it (Yuan, Ling & Yin 2016); otherwise, and on a non-finite iterate,
    None. A singular Jacobian or a non-finite M raises LinAlgError.
    """
    W_entries = W.entries
    eye = np.eye(obj.m * obj.d)

    def residual(Th):
        return Th - _step(W_entries, obj, None, gamma, Th[None, None], None)[0, 0]

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


def _checked_noise(Ws, obj: ObjectiveSet, noise, configs, starts, Theta_dets):
    """The noise model the chains step with, after the input checks of every run."""
    alg = configs[0].algorithm
    if not alg.endswith("dsgd"):
        noise = None
    elif noise is None:
        raise InvalidParamError(
            f"{alg} requires a noise model; use algorithm={alg.replace('dsgd', 'dgd')!r} instead"
        )
    else:
        _check_model(noise, obj)
    dets = [P for P in Theta_dets if P is not None]
    for W in Ws:
        _check_shapes(W, obj, *starts, *dets)
    for config in configs:
        _check_step(config.gamma, obj.L)
    return noise


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
    return run_chains([W], obj, noise, [config], [Theta0], [Theta_det])[0]


def run_chains(Ws, obj: ObjectiveSet, noise, configs, starts,
               Theta_dets=None) -> list[RunRecord]:
    """Run configs[c] on Ws[c] from starts[c], all on the draws of a lone run, so chain
    c equals run(Ws[c], obj, noise, configs[c], starts[c], Theta_dets[c]) bit for bit.
    The configs differ only in gamma: they share the algorithm (dgd or dsgd), T,
    seed, replicates, record_every and the resolved burn-in."""
    Theta_dets = Theta_dets or [None] * len(configs)
    if not 0 < len(configs) == len(Ws) == len(starts) == len(Theta_dets):
        raise InvalidParamError("run_chains needs one W, start and Theta_det per config")

    def shared(c):
        return (c.algorithm, c.T, c.seed, c.replicates, c.record_every,
                c.resolved_burn_in(obj.mu))

    first = configs[0]
    if first.algorithm not in ("dgd", "dsgd") or any(shared(c) != shared(first)
                                                     for c in configs):
        raise InvalidParamError(
            "run_chains needs dgd or dsgd chains that share the algorithm, T, seed, "
            "replicates, record_every and burn-in"
        )
    noise = _checked_noise(Ws, obj, noise, configs, starts, Theta_dets)
    R = first.replicates
    draws = None if noise is None else _Draws(noise, obj, first.seed, [range(R)], first.T)
    gammas = [config.gamma for config in configs]
    return _drive(_iterate(Ws, obj, noise, gammas, starts, R, draws, first.T), obj, configs,
                  Theta_dets)


def rr_run(W: CommMatrix, obj: ObjectiveSet, noise, config: RunConfig,
           Theta0: StackedPoint, Theta_det: StackedPoint | None = None) -> RunRecord:
    """Two-step-size extrapolated run: records 2 Theta^{gamma/2} - Theta^{gamma}.

    Both chains start from Theta0. With shared coupling (the default) the
    gamma and gamma/2 chains consume the same draws at every step; with
    independent coupling each chain owns disjoint streams.
    """
    if config.algorithm in ("dgd", "dsgd"):
        raise InvalidParamError("rr_run requires an rr_dgd or rr_dsgd configuration")
    noise = _checked_noise([W], obj, noise, [config], [Theta0], [Theta_det])
    R = config.replicates
    if config.coupling == "shared":
        ids = [range(R)]
    else:
        ids = [range(0, 2 * R, 2), range(1, 2 * R, 2)]
    draws = None if noise is None else _Draws(noise, obj, config.seed, ids, config.T)
    gammas = [config.gamma, config.gamma / 2.0]
    chain = _iterate([W], obj, noise, gammas, [Theta0, Theta0], R, draws, config.T)
    return _drive(chain, obj, [config], [Theta_det], lambda Th: 2.0 * Th[1:] - Th[:1])[0]


def _drive(chain, obj: ObjectiveSet, configs, Theta_dets, combine=None) -> list[RunRecord]:
    """Consume the chain's stacks: record metrics, accumulate moments.

    combine maps a (C, R, m, d) stack to the (K, R, m, d) recorded iterates,
    one per config; by default they are the chains. Raises DivergenceError
    when one is not finite at a record step or at T, naming the chain if K > 1.
    """
    config = configs[0]
    theta_star = obj.theta_star
    dets = [None if P is None else P.data for P in Theta_dets]
    burn = config.resolved_burn_in(obj.mu)
    T, stride = config.T, config.record_every
    R = config.replicates
    K, m, d = len(configs), obj.m, obj.d

    times = []
    rows = [[] for _ in range(K)]
    stat_sum = np.zeros((K, R, m, d))
    stat_outer = np.zeros((K, R, m * d, m * d))
    outer = np.empty_like(stat_outer)
    stat_count = 0

    try:
        for step_idx, Th in enumerate(chain):
            current = Th if combine is None else combine(Th)
            if step_idx > burn:
                stat_sum += current
                flat = current.reshape(K, R, m * d)
                stat_outer += np.multiply(flat[..., :, None], flat[..., None, :], out=outer)
                stat_count += 1
            if step_idx % stride == 0 or step_idx == T:
                bad = ~np.isfinite(current).all(axis=(2, 3))
                if bad.any():
                    k, r = np.unravel_index(np.argmax(bad), bad.shape)
                    where = f"chain {k}, replicate {r}" if K > 1 else f"replicate {r}"
                    raise DivergenceError(
                        f"iterate is not finite at step {step_idx} in {where}")
                times.append(step_idx)
                for k in range(K):
                    rows[k].append(_record_metrics(current[k], theta_star, dets[k]))
    finally:
        # a DivergenceError leaves no fill thread behind
        chain.close()

    # _record_metrics gives RunRecord's columns dist_opt to avg_client_dist
    return [RunRecord(config, m, d, np.asarray(times, dtype=int),
                      *(None if col[0] is None else np.stack(col) for col in zip(*rows[k])),
                      current[k].copy(), stat_count, stat_sum[k], stat_outer[k])
            for k, config in enumerate(configs)]


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
    RunConfig(gamma=gamma, T=T, seed=seed, replicates=replicates)  # the run input checks
    L = smoothness_constant(noise, obj)
    if not (gamma < 2.0 / L):
        raise InvalidStepError(
            f"coupling requires gamma < 2/L = {2.0 / L:.6g}, got gamma = {gamma:.6g}"
        )
    _check_shapes(W, obj, Theta0_a, Theta0_b)
    draws = _Draws(noise, obj, seed, [range(replicates)], T)
    chain = _iterate([W], obj, noise, [gamma, gamma], [Theta0_a, Theta0_b], replicates,
                     draws, T)
    return np.array([float(np.mean(np.sum((P[0] - P[1]) ** 2, axis=(1, 2)))) for P in chain])
