"""Local objectives, their derivatives, and regularity constants.

Two families are supported:

* quadratic: f_k(theta) = 1/2 ||A_k^(1/2) (theta - theta_k*)||^2 with SPD A_k,
* logistic (label-free, ridge-regularized):
  f_k(theta) = (1/n) sum_i log(1 + exp(<theta, x_ki>)) + (lambda/2) ||theta||^2.

Each objective set caches the global optimum theta* of f = (1/m) sum_k f_k,
the strong-convexity and smoothness constants mu and L, the third-derivative
bound K3, and the heterogeneity zeta*^2 = sum_k ||grad f_k(theta*)||^2.

The logistic constants are conservative analytic bounds (mu = lambda, L and
K3 from data norms), not tight estimates: the closed-form predictions consume
upper bounds, and conservative values keep every inequality valid.
"""

from __future__ import annotations

import csv
import math
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParamError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    ShapeMismatchError,
)
from ._textio import open_text, write_csv
from .matops import damped_newton
from .stacked import StackedPoint

__all__ = [
    "ObjectiveSet",
    "QuadraticObjectives",
    "LogisticObjectives",
    "generate_logistic_problem",
    "export_dataset",
    "load_dataset",
]

#: max |sigma''| for the logistic sigmoid, attained at sigma = (3 +- sqrt3)/6.
SIGMOID_THIRD_BOUND = 1.0 / (6.0 * np.sqrt(3.0))


def _sigmoid(z):
    """1/(1 + exp(min(-z, 709))) of the array z, one exp computed in place.

    For z >= 0 this is 1/(1 + exp(-z)) bit for bit. Below 0 it stays within
    3 ulp of the exact value on [-700, 700], as the two-branch form
    exp(z)/(1 + exp(z)) does (2.3 and 2.2 ulp at worst over 220,000 random
    z). The clamp keeps exp finite, so no input overflows: -inf maps to
    about 1.2e-308, +inf to 1 and NaN to NaN.
    """
    return _sigmoid_of_negated(np.negative(z))


def _sigmoid_of_negated(e):
    """_sigmoid(-e), computed in the memory of the float array e and returned."""
    np.minimum(e, 709.0, out=e)
    np.exp(e, out=e)
    e += 1.0
    return np.divide(1.0, e, out=e)


def _client_mean(stack: np.ndarray) -> np.ndarray:
    """(1/m) sum_k stack[k] of an (m, ...) stack, the clients summed in client
    order: a numpy reduction over them goes pairwise at d = 1, m >= 8."""
    total = np.zeros(stack.shape[1:])
    for block in stack:
        total += block
    return total / len(stack)


class ObjectiveSet:
    """Common interface for a set of m local objectives in dimension d.

    Subclasses implement the derivative evaluations; everything here is
    immutable after construction, including the cached global optimum.
    """

    m: int
    d: int
    kind: str

    # subclasses provide: grad_local, hess_local, third_contract_local,
    # _grad_batch (stacked gradients of a (..., m, d) array), _hess_batch
    # (the (m, d, d) Hessians of an (m, d) point, block k bit for bit
    # hess_local(k, Th[k])), mu, L, K3, and _solve_optimum: a closed form
    # for quadratics; for logistic losses matops.damped_newton on the mean
    # gradient, the loop that also finds Theta_det.

    def _check_client(self, k: int) -> None:
        if not (0 <= k < self.m):
            raise IndexError(f"client index {k} out of range [0, {self.m})")

    def _check_point(self, Theta: StackedPoint) -> None:
        if Theta.m != self.m or Theta.d != self.d:
            raise ShapeMismatchError(
                f"stacked point is ({Theta.m},{Theta.d}), objective needs ({self.m},{self.d})"
            )

    def grad_stacked(self, Theta: StackedPoint) -> StackedPoint:
        """Stacked gradient: block k is grad f_k(theta_k)."""
        self._check_point(Theta)
        G = self._grad_batch(Theta.data[None, :, :])[0]
        return StackedPoint(self.m, self.d, G)

    def solve_global_optimum(self, tol: float = 1e-12) -> np.ndarray:
        """theta* minimizing f = (1/m) sum_k f_k, to gradient norm <= tol."""
        return self._solve_optimum(tol)

    @cached_property
    def theta_star(self) -> np.ndarray:
        theta = self.solve_global_optimum()
        theta.setflags(write=False)
        return theta

    @cached_property
    def theta_star_stacked(self) -> StackedPoint:
        return StackedPoint.replicate(self.theta_star, self.m)

    def mean_hessian(self, theta) -> np.ndarray:
        """(1/m) sum_k hess f_k(theta), the clients summed in client order."""
        theta = np.asarray(theta, dtype=float)
        return _client_mean(self._hess_batch(np.broadcast_to(theta, (self.m, self.d))))

    def heterogeneity(self) -> float:
        """zeta*^2 = sum_k ||grad f_k(theta*)||^2."""
        G = self.grad_stacked(self.theta_star_stacked)
        return float(np.sum(G.data**2))

    @cached_property
    def zeta_star(self) -> float:
        return float(np.sqrt(self.heterogeneity()))


class QuadraticObjectives(ObjectiveSet):
    """f_k(theta) = 1/2 (theta - theta_k*)^T A_k (theta - theta_k*), A_k SPD."""

    kind = "quadratic"

    def __init__(self, A, theta_loc_star):
        A = np.array(A, dtype=float)
        loc = np.array(theta_loc_star, dtype=float)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise ShapeMismatchError(f"A must be (m, d, d), got {A.shape}")
        if loc.shape != A.shape[:2]:
            raise ShapeMismatchError(
                f"theta_loc_star must be (m, d) = {A.shape[:2]}, got {loc.shape}"
            )
        self.m, self.d = loc.shape
        lam_min = np.empty(self.m)
        lam_max = np.empty(self.m)
        for k in range(self.m):
            Ak = A[k]
            if np.max(np.abs(Ak - Ak.T)) > 1e-9 * max(np.max(np.abs(Ak)), 1.0):
                raise NotPositiveDefiniteError(f"A_{k} is not symmetric")
            w = np.linalg.eigvalsh(0.5 * (Ak + Ak.T))
            lam_min[k], lam_max[k] = w[0], w[-1]
            if w[0] <= 0.0:
                raise NotPositiveDefiniteError(
                    f"A_{k} must be SPD; min eigenvalue {w[0]:.3e}"
                )
        A.setflags(write=False)
        loc.setflags(write=False)
        self.A = A
        self.theta_loc_star = loc
        self.mu = float(np.min(lam_min))
        self.L = float(np.max(lam_max))
        self.K3 = 0.0

    @cached_property
    def Abar(self) -> np.ndarray:
        M = self.A.mean(axis=0)
        M.setflags(write=False)
        return M

    def grad_local(self, k: int, theta) -> np.ndarray:
        self._check_client(k)
        theta = np.asarray(theta, dtype=float)
        return self.A[k] @ (theta - self.theta_loc_star[k])

    def hess_local(self, k: int, theta=None) -> np.ndarray:
        self._check_client(k)
        return self.A[k].copy()

    def third_contract_local(self, k: int, theta, u) -> np.ndarray:
        self._check_client(k)
        return np.zeros(self.d)

    def _hess_batch(self, Th: np.ndarray) -> np.ndarray:
        return self.A.copy()

    def _grad_batch(self, Th: np.ndarray) -> np.ndarray:
        return np.einsum("kij,...kj->...ki", self.A, Th - self.theta_loc_star)

    def _solve_optimum(self, tol: float) -> np.ndarray:
        rhs = np.einsum("kij,kj->i", self.A, self.theta_loc_star) / self.m
        return np.linalg.solve(self.Abar, rhs)


class LogisticObjectives(ObjectiveSet):
    """Label-free logistic losses over per-client data with ridge weight lambda."""

    kind = "logistic"

    def __init__(self, data, lambda_reg: float):
        data = np.array(data, dtype=float)
        if data.ndim != 3:
            raise ShapeMismatchError(f"data must be (m, n, d), got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidParamError("data contains non-finite entries")
        if not (lambda_reg > 0.0):
            raise InvalidParamError(f"lambda_reg must be positive, got {lambda_reg}")
        self.m, self.n, self.d = data.shape
        data.setflags(write=False)
        self.data = data
        self.lambda_reg = float(lambda_reg)
        self.mu = float(lambda_reg)
        second_moment_max = 0.0
        for k in range(self.m):
            X = data[k]
            w = np.linalg.eigvalsh(X.T @ X / self.n)
            second_moment_max = max(second_moment_max, float(w[-1]))
        self.L = self.mu + 0.25 * second_moment_max
        norms = np.linalg.norm(data, axis=2)
        self.K3 = float(SIGMOID_THIRD_BOUND * np.max(norms) ** 3)

    @cached_property
    def _neg_data(self) -> np.ndarray:
        """-data: theta.(-x) is -(theta.x) to the bit, since negation is exact
        and rounding to nearest is symmetric in sign, so a contraction with it
        gives the sigmoid's negated argument without a pass of its own."""
        X = np.negative(self.data)
        X.setflags(write=False)
        return X

    @cached_property
    def data_by_coord(self) -> np.ndarray:
        """The data coordinate-major, (d, m*n): column k*n + i is sample i of
        client k, so a gather of samples reads each coordinate contiguously."""
        X = np.ascontiguousarray(self.data.transpose(2, 0, 1)).reshape(self.d, -1)
        X.setflags(write=False)
        return X

    def grad_local(self, k: int, theta) -> np.ndarray:
        self._check_client(k)
        theta = np.asarray(theta, dtype=float)
        X = self.data[k]
        s = _sigmoid(X @ theta)
        return X.T @ s / self.n + self.lambda_reg * theta

    def hess_local(self, k: int, theta) -> np.ndarray:
        self._check_client(k)
        theta = np.asarray(theta, dtype=float)
        X = self.data[k]
        s = _sigmoid(X @ theta)
        w = s * (1.0 - s)
        return (X.T * w) @ X / self.n + self.lambda_reg * np.eye(self.d)

    def _hess_batch(self, Th: np.ndarray) -> np.ndarray:
        # the matvec and the gram product of hess_local, one batched matmul
        # each, so every block is that client's Hessian to the bit
        X = self.data
        s = _sigmoid(np.matmul(X, Th[:, :, None])[..., 0])
        w = s * (1.0 - s)
        H = np.matmul(X.transpose(0, 2, 1) * w[:, None, :], X)
        return H / self.n + self.lambda_reg * np.eye(self.d)

    def third_contract_local(self, k: int, theta, u) -> np.ndarray:
        """grad^3 f_k(theta) applied to u (x) u (ridge term contributes 0)."""
        self._check_client(k)
        theta = np.asarray(theta, dtype=float)
        u = np.asarray(u, dtype=float)
        X = self.data[k]
        s = _sigmoid(X @ theta)
        curv = s * (1.0 - s) * (1.0 - 2.0 * s)  # sigma''
        proj = X @ u
        return X.T @ (curv * proj**2) / self.n

    def value_local(self, k: int, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        z = self.data[k] @ theta
        return float(np.mean(np.logaddexp(0.0, z))) + 0.5 * self.lambda_reg * float(
            theta @ theta
        )

    def _grad_batch(self, Th: np.ndarray) -> np.ndarray:
        # the contraction with -data gives -(theta.x) for the sigmoid's
        # in-place core, and the mean and the ridge term are formed in place:
        # the ops of _sigmoid(theta.x), then einsum / n + lambda theta
        s = _sigmoid_of_negated(np.einsum("...kd,knd->...kn", Th, self._neg_data))
        g = np.einsum("...kn,knd->...kd", s, self.data)
        g /= self.n
        g += self.lambda_reg * Th
        return g

    def _mean_grad(self, theta: np.ndarray) -> np.ndarray:
        z = np.einsum("d,knd->kn", theta, self.data)
        s = _sigmoid(z)
        return (
            np.einsum("kn,knd->d", s, self.data) / (self.m * self.n)
            + self.lambda_reg * theta
        )

    def _solve_optimum(self, tol: float) -> np.ndarray:
        found = damped_newton(self._mean_grad, self.mean_hessian, np.zeros(self.d), tol)
        theta, grad_norm = found if found is not None else (None, math.inf)
        if grad_norm > tol:
            raise NoConvergenceError(
                f"Newton for theta* stopped at grad norm {grad_norm:.3e}, above tol={tol:.1e}"
            )
        return theta


def generate_logistic_problem(
    m: int,
    n: int = 50,
    d: int = 2,
    heterogeneity_spread: float = 2.0,
    lambda_reg: float = 0.1,
    seed: int = 0,
) -> LogisticObjectives:
    """Synthetic logistic problem with client-specific data distributions.

    Client k draws n points i.i.d. Gaussian with identity covariance and mean
    spread * (cos(2 pi k / m), sin(2 pi k / m), 0, ...). spread = 0 makes all
    clients statistically identical; growing it separates the local optima.
    Deterministic for a given seed.

    The defaults (n=50, lambda=0.1, spread=2) are this package's choices; the
    experimental setup they mimic leaves them unspecified.
    """
    if m < 1 or n < 1 or d < 1:
        raise InvalidParamError(f"need m, n, d >= 1, got m={m}, n={n}, d={d}")
    if seed < 0:
        raise InvalidParamError(f"seed must be >= 0, got {seed}")
    if not np.isfinite(heterogeneity_spread) or heterogeneity_spread < 0.0:
        raise InvalidParamError(
            f"heterogeneity_spread must be finite and >= 0, got {heterogeneity_spread}"
        )
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(m) / m
    means = np.zeros((m, d))
    means[:, 0] = np.cos(angles)
    if d >= 2:
        means[:, 1] = np.sin(angles)
    means *= heterogeneity_spread
    data = means[:, None, :] + rng.standard_normal((m, n, d))
    return LogisticObjectives(data=data, lambda_reg=lambda_reg)


def export_dataset(obj: LogisticObjectives, dest) -> None:
    """Write logistic data as CSV: client,index,x_0..x_{d-1} (17 sig digits)."""
    write_csv(dest, ["client", "index"] + [f"x_{j}" for j in range(obj.d)],
              ([k, i, *obj.data[k, i].tolist()] for k, i in np.ndindex(obj.m, obj.n)))


def load_dataset(source, lambda_reg: float) -> LogisticObjectives:
    """Read a dataset written by export_dataset back into an objective set.

    Every (client, index) pair from (0, 0) to the largest of each must have
    exactly one row; a missing, duplicate or negative pair is rejected.
    """
    with open_text(source, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["client", "index"]:
            raise InvalidParamError("dataset CSV must start with client,index,x_0,...")
        d = len(header) - 2
        rows = {}
        for row in reader:
            if not row:
                continue
            k, i = int(row[0]), int(row[1])
            if k < 0 or i < 0:
                raise InvalidParamError(f"row ({k},{i}) has a negative client or index")
            if (k, i) in rows:
                raise InvalidParamError(f"row ({k},{i}) appears twice")
            rows[(k, i)] = [float(v) for v in row[2:]]
        if not rows:
            raise InvalidParamError("dataset CSV contains no rows")
        m = max(k for k, _ in rows) + 1
        n = max(i for _, i in rows) + 1
        for k, i in np.ndindex(m, n):
            if (k, i) not in rows:
                raise InvalidParamError(
                    f"row ({k},{i}) is missing; {m} clients x {n} samples need every pair"
                )
        data = np.zeros((m, n, d))
        for (k, i), vec in rows.items():
            if len(vec) != d:
                raise InvalidParamError(f"row ({k},{i}) has {len(vec)} coordinates, expected {d}")
            data[k, i] = vec
        return LogisticObjectives(data=data, lambda_reg=lambda_reg)
