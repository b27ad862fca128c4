"""Turn recorded trajectories into verdicts.

Stationary moment estimation with replicate-based standard errors, log-log
slope fits for bias/variance orders in the step size, linear speed-up checks
over the client count, and contraction-rate estimates from coupled chains.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import RunConfig, RunRecord, run, solve_fixed_point
from .errors import (
    DivergenceError,
    InsufficientSamplesError,
    InvalidParamError,
    NonPositiveError,
    ShapeMismatchError,
    TooFewPointsError,
)
from ._textio import write_csv
from .stacked import StackedPoint

MIN_EFFECTIVE_SAMPLES = 100

# traces below this are treated as exactly-zero noise when checking speed-up
ZERO_TRACE_TOL = 1e-16


@dataclass(frozen=True)
class StationaryMoments:
    """Estimated stationary mean and covariance of the stacked iterate.

    ``mean`` estimates the stationary average of Theta; ``block_cov[k, l]``
    estimates the (k, l) block of the second moment centered at the
    deterministic fixed point, so the grid satisfies
    block_cov[k, l] = block_cov[l, k].T exactly.  Standard errors come from
    the scatter of per-replicate averages; they are inf when only one
    replicate is available.
    """

    mean: StackedPoint
    block_cov: np.ndarray
    n_effective: int
    std_errors: np.ndarray
    cov_std_errors: np.ndarray

    def diag_trace_average(self) -> float:
        """(1/m) sum_k tr block_cov[k, k]."""
        return float(
            np.trace(self.block_cov, axis1=2, axis2=3).diagonal().mean()
        )

    def to_csv(self, dest) -> None:
        """Write covariance blocks as rows k,l,i,j,value,stderr."""
        write_csv(dest, ["k", "l", "i", "j", "value", "stderr"],
                  ([*idx, self.block_cov[idx], self.cov_std_errors[idx]]
                   for idx in np.ndindex(self.block_cov.shape)))


def _weighted_se(values: np.ndarray, weights: np.ndarray,
                 center: np.ndarray) -> np.ndarray:
    """Standard error of the weighted mean from per-replicate estimates."""
    n = len(weights)
    if n < 2:
        return np.full(center.shape, np.inf)
    dev = values - center[None, ...]
    var = np.tensordot(weights, dev**2, axes=(0, 0)) / (n - 1)
    return np.sqrt(var)


def stationary_moments(record: RunRecord, Theta_det: StackedPoint) -> StationaryMoments:
    """Stationary moment estimates from one run record.

    The covariance is centered at the supplied deterministic fixed point, not
    the empirical mean. Every replicate holds the same number of stationary
    samples, so the replicates weigh equally; standard errors come from the
    across-replicate scatter of per-replicate averages. Raises
    InsufficientSamplesError when the record has no stationary sample or
    fewer than MIN_EFFECTIVE_SAMPLES over all replicates, and DivergenceError
    when two or more replicates gave a mean, covariance or standard error
    that is not finite (their scatter overflowed).
    """
    if not isinstance(record, RunRecord):
        raise InvalidParamError(
            f"stationary_moments takes one RunRecord, got {type(record).__name__}"
        )
    m, d, R, count = record.m, record.d, record.replicates, record.stat_count
    if Theta_det.m != m or Theta_det.d != d:
        raise ShapeMismatchError(
            f"fixed point shape ({Theta_det.m},{Theta_det.d}) does not match "
            f"record ({m},{d})"
        )
    if count == 0:
        raise InsufficientSamplesError(
            "no stationary samples accumulated (T <= burn_in)"
        )
    n_effective = count * R
    if n_effective < MIN_EFFECTIVE_SAMPLES:
        raise InsufficientSamplesError(
            f"effective sample count {n_effective} is below the minimum "
            f"{MIN_EFFECTIVE_SAMPLES}"
        )
    det_flat = Theta_det.flat()
    means = record.stat_sum / count
    # E[(x - det)(x - det)^T] = E[xx^T] - mu det^T - det mu^T + det det^T,
    # exactly symmetric; cross[r] = outer(mu_r, det)
    cross = means.reshape(R, m * d, 1) * det_flat
    covs = (record.stat_outer / count - cross - cross.transpose(0, 2, 1)
            + np.outer(det_flat, det_flat))
    weights = np.full(R, 1.0 / R)
    # an overflow shows as a non-finite result, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.tensordot(weights, means, axes=(0, 0))
        cov = np.tensordot(weights, covs, axes=(0, 0))
        mean_se = _weighted_se(means, weights, mean)
        cov_se = _weighted_se(covs, weights, cov)
    if R > 1 and not np.isfinite(np.concatenate([mean, cov, mean_se, cov_se], axis=None)).all():
        raise DivergenceError(
            f"stationary moments of {R} replicates are not finite: "
            "their mean, covariance or scatter overflowed"
        )
    grid = cov.reshape(m, d, m, d).transpose(0, 2, 1, 3)
    grid_se = cov_se.reshape(m, d, m, d).transpose(0, 2, 1, 3)
    return StationaryMoments(
        mean=StackedPoint(m, d, mean),
        block_cov=grid,
        n_effective=n_effective,
        std_errors=mean_se,
        cov_std_errors=grid_se,
    )


class OrderFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def order_fit(xs, ys) -> OrderFit:
    """Least-squares fit of log y against log x.

    The slope estimates the order in the step size of the quantity in ys.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ShapeMismatchError(
            f"xs and ys must be 1-d of equal length, got {xs.shape} and "
            f"{ys.shape}"
        )
    if len(xs) < 3:
        raise TooFewPointsError(
            f"order fit requires at least 3 points, got {len(xs)}"
        )
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise NonPositiveError("order fit requires strictly positive points")
    if len(np.unique(xs)) != len(xs):
        raise InvalidParamError("x values must be distinct")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderFit(float(slope), float(intercept), float(r2))


@dataclass(frozen=True)
class SpeedupResult:
    """Mean diagonal-block traces per client count and the fitted slope.

    ``status`` is "ok" when the slope was fitted and "skipped" when the
    noise was (numerically) zero, in which case all traces vanish and the
    log-log fit is undefined.
    """

    entries: tuple
    slope: Optional[float]
    status: str

    def traces(self) -> np.ndarray:
        return np.asarray([t for _, t in self.entries])


def speedup_check(make_objectives: Callable, make_noise: Callable,
                  make_topology: Callable, gamma: float,
                  m_list: Sequence[int], T: int = 4000,
                  replicates: int = 4, seed: int = 0,
                  burn_in: Optional[int] = None) -> SpeedupResult:
    """Estimate how the stationary per-client variance scales with m.

    The three factories build the problem for a given client count; the
    stationary diagonal-block trace average is estimated for each m in
    m_list and the slope of log(trace) against log(m) is fitted.  At small
    step sizes the first-order prediction gives slope -1 regardless of the
    topology.
    """
    m_list = list(m_list)
    if len(m_list) < 3:
        raise TooFewPointsError(
            f"speed-up check requires at least 3 client counts, got "
            f"{len(m_list)}"
        )
    entries = []
    for m in m_list:
        W = make_topology(m)
        obj = make_objectives(m)
        model = make_noise(m)
        det = solve_fixed_point(W, obj, gamma).point
        if model is None:
            entries.append((m, 0.0))
            continue
        cfg = RunConfig(algorithm="dsgd", gamma=gamma, T=T, seed=seed,
                        replicates=replicates, burn_in=burn_in,
                        record_every=max(T, 1))
        rec = run(W, obj, model, cfg, det, Theta_det=det)
        moments = stationary_moments(rec, det)
        entries.append((m, moments.diag_trace_average()))
    traces = np.asarray([t for _, t in entries])
    if np.all(np.abs(traces) <= ZERO_TRACE_TOL):
        return SpeedupResult(tuple(entries), None, "skipped")
    fit = order_fit(np.asarray(m_list, dtype=float), traces)
    return SpeedupResult(tuple(entries), fit.slope, "ok")


@dataclass(frozen=True)
class ContractionEstimate:
    """Per-step ratios of coupled squared distances and their maximum.

    ``collapsed_at`` is the first step at which the distance reached zero;
    ratios past that point are undefined and omitted.  ``window`` > 1
    reports geometric per-step ratios over that lag, which smooths the
    fluctuations of stochastic runs.
    """

    ratios: np.ndarray
    max_ratio: Optional[float]
    collapsed_at: Optional[int]
    window: int = 1

    @property
    def verdict(self) -> str:
        if self.collapsed_at is not None:
            msg = f"collapsed at t={self.collapsed_at}"
            if self.max_ratio is not None:
                msg = f"max ratio {self.max_ratio:.6g}, {msg}"
            return msg
        return f"max ratio {self.max_ratio:.6g} (window {self.window})"


def contraction_estimate(distances, window: int = 1) -> ContractionEstimate:
    """Estimate the per-step contraction factor from coupled distances.

    ``distances`` is the sequence of (mean squared) distances between two
    coupled chains, as produced by a coupled run.  Returns the sequence of
    per-step ratios D_{t+window}/D_t raised to 1/window, their maximum, and
    where (if anywhere) the distance collapsed to zero.
    """
    D = np.asarray(distances, dtype=float)
    if D.ndim != 1 or len(D) < 2:
        raise InvalidParamError(
            "distance sequence must be 1-d with at least 2 entries"
        )
    if window < 1:
        raise InvalidParamError(f"window must be >= 1, got {window}")
    collapsed_at = None
    limit = len(D)
    for t, value in enumerate(D):
        if value <= 0.0:
            collapsed_at = t
            limit = t
            break
    ratios = []
    for t in range(limit - window):
        ratios.append((D[t + window] / D[t]) ** (1.0 / window))
    ratios = np.asarray(ratios)
    max_ratio = float(ratios.max()) if ratios.size else None
    return ContractionEstimate(
        ratios=ratios,
        max_ratio=max_ratio,
        collapsed_at=collapsed_at,
        window=window,
    )


def contraction_envelope(gamma: float, mu: float, L: float) -> float:
    """Theoretical per-step factor 1 - 2 gamma mu (1 - L gamma / 2).

    Valid for gamma < 2/L; squared-distance sequences of coupled chains
    stay below this factor per step up to statistical noise.
    """
    if not (gamma > 0.0):
        raise InvalidParamError(f"step size must be positive, got {gamma!r}")
    return 1.0 - 2.0 * gamma * mu * (1.0 - L * gamma / 2.0)
