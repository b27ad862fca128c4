"""Closed-form predictions and explicit error bounds for decentralized (S)GD.

The deterministic fixed point of gossip descent has an exact expression for
quadratic objectives and a first-order expansion in the step size for general
smooth strongly convex ones.  This module evaluates those predictions, the
explicit bounds controlling their accuracy, the first-order stationary
variance and stochastic bias, the term-by-term diagnostics of the
non-asymptotic convergence bound, and step-size/horizon recommendations.

All block operators act on stacked (m, d) arrays and are applied blockwise;
nothing of size (m*d)^2 is materialized.  The only dense inverses are d x d:
the consensus-averaging operator has rank d, so the md-dimensional resolvent
reduces to a d x d core via the Woodbury identity, and the remaining resolvent
is summed as a Neumann series (geometric within the admissible step range).

Each ingredient is computed in one place: `_expansion_gate` checks
gamma <= min(1/(Lambda L), 1/L) for the expansion, `lemma3_bound` and
`rr_bias_bound`; `_second_order_constant` is the gamma^2 constant that
`rr_bias_bound` returns and the expansion's residual bound halves;
`_lyapunov_core` gives (Abar, J C-bar) at theta* to the first-order variance
and stochastic bias; `_BlockOps` holds the gossip operator and the consensus
solve; `_moment_bound` and `_psi0` give B and psi0 to the diagnostics and the
schedule; `_mu_squared` gives every bound its mu^2, and rejects a mu whose
square is 0 or subnormal.
"""

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    InvalidParamError,
    InvalidStepError,
    SingularMatrixError,
    StepTooLargeError,
    UnsupportedCombinationError,
)
from ._textio import write_csv
from .matops import sylvester_solve
from .noise import covariance_at, tau_squares
from .objectives import ObjectiveSet
from .stacked import StackedPoint
from .topology import CommMatrix, gossip_operator

_NEUMANN_MAX_ITER = 400
_NEUMANN_RTOL = 1e-15
# draws of the tau pass, taken with seed 0
_TAU_DRAWS = 20_000


def _require_positive_step(gamma: float) -> None:
    if not (gamma > 0.0):
        raise InvalidStepError(f"step size must be positive, got {gamma!r}")


def _require_step_at_most(gamma: float, limit: float, inequality: str) -> None:
    _require_positive_step(gamma)
    if gamma > limit:
        raise StepTooLargeError(
            f"gamma = {gamma:g} violates {inequality} = {limit:g}"
        )


def _standard_limit(L: float, Lambda: float, frac: float = 1.0) -> float:
    """min(1/(Lambda L), frac/L); the Lambda term drops out when Lambda = 0."""
    lim = frac / L
    if Lambda > 0.0:
        lim = min(lim, 1.0 / (Lambda * L))
    return lim


def _expansion_gate(W: CommMatrix, obj: ObjectiveSet, gamma: float):
    """Check gamma <= min(1/(Lambda L), 1/L) and return W's spectral profile."""
    prof = W.spectral
    _require_step_at_most(
        gamma, _standard_limit(obj.L, prof.Lambda),
        "gamma <= min(1/(Lambda*L), 1/L)",
    )
    return prof


def _resolve_m(obj: ObjectiveSet, m) -> int:
    if m is None:
        return obj.m
    m = int(m)
    if m < 1:
        raise InvalidParamError(f"client count must be >= 1, got {m}")
    return m


class _BlockOps:
    """Blockwise actions of the operators built from W and Hessians at theta*.

    G is the m x m gossip operator applied to client blocks; A multiplies
    block k by the k-th Hessian; h is the d-dimensional core of the
    consensus-averaging operator H (H X replicates h(X) to every block).
    """

    def __init__(self, W: CommMatrix, hessians: np.ndarray, mean_hessian,
                 gamma: float):
        self.G = gossip_operator(W)
        self.A = hessians
        self.Abar = np.asarray(mean_hessian, dtype=float)
        self.gamma = gamma
        self.m, self.d = hessians.shape[:2]

    def apply_GA(self, X: np.ndarray) -> np.ndarray:
        return self.G @ np.einsum("kij,kj->ki", self.A, X)

    def apply_B(self, v: np.ndarray) -> np.ndarray:
        """(I + gamma G A)^{-1} G A v via the Neumann series.

        Within the admissible step range ||gamma G A|| < 1/2, so the series
        converges geometrically.
        """
        z = self.apply_GA(v)
        acc = z.copy()
        term = z
        if not np.any(z):
            return acc
        for _ in range(_NEUMANN_MAX_ITER):
            term = -self.gamma * self.apply_GA(term)
            acc += term
            if np.linalg.norm(term) <= _NEUMANN_RTOL * max(
                np.linalg.norm(acc), 1e-300
            ):
                return acc
        raise SingularMatrixError(
            "resolvent series for (I + gamma G A) did not converge; the step "
            "size is too close to the invertibility limit"
        )

    def h(self, X: np.ndarray) -> np.ndarray:
        """Core of H: solve Abar y = mean_k A_k x_k."""
        rhs = np.einsum("kij,kj->ki", self.A, X).mean(axis=0)
        try:
            return np.linalg.solve(self.Abar, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("mean Hessian is singular") from exc

    def lift(self, y: np.ndarray) -> np.ndarray:
        return np.tile(y, (self.m, 1))


class QuadFixedPoint(NamedTuple):
    theta_det: StackedPoint
    consensus_part: StackedPoint
    disagreement_part: StackedPoint


def quad_exact_fixed_point(W: CommMatrix, quad, gamma: float) -> QuadFixedPoint:
    """Exact fixed point of deterministic gossip descent on quadratics.

    Evaluates Theta_det = Theta* + gamma (I - H)(I - gamma B H)^{-1} B
    (Theta*_loc - Theta*), together with its consensus and disagreement
    parts, where H replicates the Hessian-weighted block average, G is the
    gossip operator, and B = (I + gamma G A)^{-1} G A.  Since H has rank d,
    the md-dimensional resolvent reduces to a d x d solve.
    """
    if getattr(quad, "kind", None) != "quadratic":
        raise UnsupportedCombinationError(
            "exact fixed point requires quadratic objectives; use "
            "det_bias_expansion for general smooth objectives"
        )
    _require_positive_step(gamma)
    prof = W.spectral
    L, mu = quad.L, quad.mu
    star_stacked = quad.theta_star_stacked
    if prof.Lambda == 0.0:
        # fully connected: G = 0 hence B = 0 and the fixed point is theta*
        return QuadFixedPoint(
            star_stacked, star_stacked, StackedPoint.zeros(quad.m, quad.d)
        )
    limit = 2.0 / ((1.0 + L / mu) * L * prof.Lambda)
    if gamma >= limit:
        raise StepTooLargeError(
            f"gamma = {gamma:g} violates gamma < 2/((1 + L/mu) L Lambda) "
            f"= {limit:g}"
        )
    ops = _BlockOps(W, quad.A, quad.Abar, gamma)
    v = quad.theta_loc_star - quad.theta_star[None, :]
    x = ops.apply_B(v)
    # rank-d correction: S[:, j] = gamma h(B(U e_j)) over the basis of the
    # consensus subspace, then (I - gamma B H)^{-1} x = x + gamma B U
    # (I - S)^{-1} h(x)
    basis_img = np.empty((quad.d, quad.m, quad.d))
    S = np.empty((quad.d, quad.d))
    for j in range(quad.d):
        e = np.zeros(quad.d)
        e[j] = 1.0
        w = ops.apply_B(ops.lift(e))
        basis_img[j] = w
        S[:, j] = gamma * ops.h(w)
    try:
        core = np.linalg.solve(np.eye(quad.d) - S, ops.h(x))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "(I - gamma B H) is numerically singular"
        ) from exc
    ft = x + gamma * np.tensordot(core, basis_img, axes=(0, 0))
    lifted = ops.lift(ops.h(ft))
    theta_det = star_stacked.data + gamma * (ft - lifted)
    consensus = star_stacked.data - gamma * lifted
    disagreement = gamma * ft
    return QuadFixedPoint(
        StackedPoint(quad.m, quad.d, theta_det),
        StackedPoint(quad.m, quad.d, consensus),
        StackedPoint(quad.m, quad.d, disagreement),
    )


def _mu_squared(obj: ObjectiveSet) -> float:
    """mu^2, which the bounds divide by; InvalidParamError where it is
    below the smallest normal float, 0 included, since a subnormal mu^2
    makes the bounds inf or vacuous."""
    mu_sq = obj.mu**2
    if mu_sq < np.finfo(float).tiny:
        raise InvalidParamError(
            f"strong convexity mu = {obj.mu:.3g} is too small for the bounds: "
            f"mu^2 is {mu_sq:.3g}"
        )
    return mu_sq


class BiasExpansion(NamedTuple):
    prediction: StackedPoint
    residual_bound: float


def _second_order_constant(obj: ObjectiveSet, Lambda: float, gamma: float,
                           m: int) -> float:
    """gamma^2 (L^2/mu^2) Lambda^2 (K3 zeta*^2 / (mu sqrt(m)) + L zeta*)."""
    zeta = obj.zeta_star
    return float(
        gamma**2 * (obj.L**2 / _mu_squared(obj)) * Lambda**2
        * (obj.K3 * zeta**2 / (obj.mu * math.sqrt(m)) + obj.L * zeta)
    )


def det_bias_expansion(W: CommMatrix, obj: ObjectiveSet,
                       gamma: float) -> BiasExpansion:
    """First-order prediction of the deterministic fixed point.

    prediction = Theta* - gamma (I - H) G grad F(Theta*), with H and G built
    from the Hessians at theta*.  The returned residual bound, half the
    second-order constant, controls ||Theta_det - prediction|| for
    gamma <= min(1/(Lambda L), 1/L).
    """
    prof = _expansion_gate(W, obj, gamma)
    star = obj.theta_star
    hess = obj._hess_batch(obj.theta_star_stacked.data)
    ops = _BlockOps(W, hess, hess.mean(axis=0), gamma)
    Gg = ops.G @ obj.grad_stacked(obj.theta_star_stacked).data
    data = star[None, :] - gamma * (Gg - ops.h(Gg)[None, :])
    # halving is exact in binary floating point
    bound = 0.5 * _second_order_constant(obj, prof.Lambda, gamma, obj.m)
    return BiasExpansion(StackedPoint(obj.m, obj.d, data), bound)


def lemma3_bound(obj: ObjectiveSet, W: CommMatrix, gamma: float) -> float:
    """Upper bound gamma L Lambda zeta* / mu on ||Theta_det - Theta*||."""
    prof = _expansion_gate(W, obj, gamma)
    return float(gamma * obj.L * prof.Lambda * obj.zeta_star / obj.mu)


def _lyapunov_core(obj: ObjectiveSet, noise):
    """(Abar, X) at theta*: the mean Hessian, and X = J C-bar solving
    Abar X + X Abar = C(theta*)."""
    star = obj.theta_star
    Abar = obj.mean_hessian(star)
    return Abar, sylvester_solve(Abar, covariance_at(noise, obj, star))


def variance_first_order(obj: ObjectiveSet, noise, gamma: float,
                         m=None) -> np.ndarray:
    """Predicted common block of the stationary covariance, (gamma/m) J C(theta*).

    J inverts X -> Abar X + X Abar, so the block solves the Lyapunov equation
    Abar X + X Abar = C(theta*) and is scaled by gamma/m.  This is the
    first-order block for EVERY client pair (k, l); topology enters only at
    higher order.
    """
    _require_positive_step(gamma)
    m_eff = _resolve_m(obj, m)
    if noise is None:
        return np.zeros((obj.d, obj.d))
    out = (gamma / m_eff) * _lyapunov_core(obj, noise)[1]
    return 0.5 * (out + out.T)


def mean_third_contraction(obj: ObjectiveSet, theta, V: np.ndarray,
                           method: str = "analytic") -> np.ndarray:
    """Contract the averaged third derivative at theta against symmetric V.

    Returns T with T_a = sum_{b,c} (mean_k grad^3 f_k(theta))_{a,b,c} V_{b,c},
    computed through the eigendecomposition of V with each objective's
    analytic per-client contraction.  ``method="fd"`` takes central
    differences of the mean Hessian with step eps**(1/3) * scale instead,
    to cross-check the analytic path.
    """
    theta = np.asarray(theta, dtype=float)
    V = np.asarray(V, dtype=float)
    if V.shape != (obj.d, obj.d):
        raise InvalidParamError(
            f"contraction target must be ({obj.d}, {obj.d}), got {V.shape}"
        )
    if method not in ("analytic", "fd"):
        raise InvalidParamError(f"unknown contraction method {method!r}")
    vals, vecs = np.linalg.eigh(0.5 * (V + V.T))
    T = np.zeros(obj.d)
    step = np.finfo(float).eps ** (1.0 / 3.0) * max(
        1.0, float(np.linalg.norm(theta))
    )
    for lam, u in zip(vals, vecs.T):
        if lam == 0.0:
            continue
        if method == "analytic":
            contrib = np.zeros(obj.d)
            for k in range(obj.m):
                contrib += obj.third_contract_local(k, theta, u)
            contrib /= obj.m
        else:
            M = (
                obj.mean_hessian(theta + step * u)
                - obj.mean_hessian(theta - step * u)
            ) / (2.0 * step)
            contrib = M @ u
        T += lam * contrib
    return T


def stochastic_bias_first_order(obj: ObjectiveSet, noise, gamma: float) -> np.ndarray:
    """First-order shift of the stationary mean away from Theta_det.

    Evaluates -(gamma / 2m) Abar^{-1} T where T contracts the averaged third
    derivative at theta* against J C(theta*).  Identical for every client at
    this order; exactly zero for quadratic objectives.
    """
    _require_positive_step(gamma)
    if noise is None or obj.kind == "quadratic":
        return np.zeros(obj.d)
    Abar, V = _lyapunov_core(obj, noise)
    # zero noise returns +0.0 here; scaling a zero correction would give -0.0
    if not np.any(V):
        return np.zeros(obj.d)
    T = mean_third_contraction(obj, obj.theta_star, V)
    try:
        corr = np.linalg.solve(Abar, T)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "mean Hessian at the optimum is singular"
        ) from exc
    return -(gamma / (2.0 * obj.m)) * corr


def rr_bias_bound(obj: ObjectiveSet, W: CommMatrix, gamma: float) -> float:
    """Bound on the error of the extrapolated deterministic limit.

    gamma^2 (L^2/mu^2) Lambda^2 (K3 zeta*^2 / (mu sqrt(m)) + L zeta*): one
    order of gamma better than the single-step fixed point.
    """
    prof = _expansion_gate(W, obj, gamma)
    return _second_order_constant(obj, prof.Lambda, gamma, obj.m)


def _tau_squares(obj: ObjectiveSet, noise) -> tuple:
    """(tau_2^2, tau_4^2) at Theta*; zero without noise."""
    if noise is None:
        return 0.0, 0.0
    return tau_squares(noise, obj, obj.theta_star_stacked, _TAU_DRAWS, 0)


def _moment_bound(obj: ObjectiveSet, Lambda: float, gamma: float,
                  tau4_sq: float) -> float:
    """B = (tau4^2 + gamma^2 (L^4/mu^2) Lambda^2 zeta*^2) / mu."""
    return (
        tau4_sq + gamma**2 * (obj.L**4 / _mu_squared(obj)) * Lambda**2
        * obj.zeta_star**2
    ) / obj.mu


def _psi0(obj: ObjectiveSet, Lambda: float, gamma: float,
          tau2_sq: float) -> float:
    """Initial-condition constant of the convergence bound, from the origin."""
    L, mu, mu_sq = obj.L, obj.mu, _mu_squared(obj)
    lam2, zeta = Lambda**2, obj.zeta_star
    return (
        float(np.sum(obj.theta_star**2))
        + gamma**2 * (L**2 / mu_sq) * lam2 * zeta**2
        + (gamma / mu)
        * (tau2_sq + gamma**2 * (4.0 * L**4 / mu_sq) * lam2 * zeta**2)
    )


def _scaled(coeff: float, term: float) -> float:
    # avoid inf * 0 -> nan when a topology ratio blows up but its
    # coefficient vanishes
    return 0.0 if term == 0.0 else coeff * term


@dataclass(frozen=True)
class BoundDiagnostics:
    """Term-by-term breakdown of the stationary-variance and convergence bounds.

    All terms are reported individually because the source bounds hold up to
    absolute constants; only nonnegativity and the step-size scaling of each
    term are contractual.
    """

    gamma: float
    m: int
    tau2_sq: float
    tau4_sq: float
    B: float
    C: float
    psi0: float
    contraction_rate: float
    term_gamma: float
    term_gamma_3_2: float
    term_gamma_2: float
    term_gamma_5_2: float
    var_leading: float
    var_topology: float
    # the rows that bound_diagnostics sets to inf by its own branch, at
    # tau_2^2 = 0 and at rho >= 1; not a row itself
    inf_by_branch: tuple = field(default=(), repr=False, compare=False)

    @classmethod
    def row_names(cls):
        return [f.name for f in fields(cls) if f.name != "inf_by_branch"]

    def as_rows(self):
        return [(name, getattr(self, name)) for name in self.row_names()]


def bound_diagnostics(obj: ObjectiveSet, W: CommMatrix, noise, gamma: float,
                      m=None) -> BoundDiagnostics:
    """Evaluate every named term of the variance and convergence bounds.

    B = (tau4^2 + gamma^2 (L^4/mu^2) Lambda^2 zeta*^2) / mu bounds fourth
    moments at stationarity; C is the topology-correction factor of the
    variance bound; psi0 is the initial-condition constant of the
    convergence bound, evaluated at the origin.
    """
    prof = W.spectral
    L, mu, K3 = obj.L, obj.mu, obj.K3
    zeta = obj.zeta_star
    _require_step_at_most(
        gamma, _standard_limit(L, prof.Lambda, frac=0.1),
        "gamma <= min(1/(Lambda*L), 1/(10*L))",
    )
    m_eff = _resolve_m(obj, m)
    tau2_sq, tau4_sq = _tau_squares(obj, noise)
    lam2 = prof.Lambda**2
    B = _moment_bound(obj, prof.Lambda, gamma, tau4_sq)
    c_numer = (
        L * B + K3 * B**1.5 * math.sqrt(gamma)
        + 0.5 * gamma**2 * K3**2 * B**2 + tau2_sq
    )
    inf_by_branch = ()
    if tau2_sq > 0.0:
        C = c_numer / tau2_sq
    else:
        C = math.inf
        inf_by_branch += ("C",)
    rho = prof.rho
    if rho < 1.0:
        topo = rho**2 / (1.0 - rho**2)
    else:
        topo = math.inf
        inf_by_branch += ("term_gamma_2", "term_gamma_5_2", "var_topology")
    return BoundDiagnostics(
        gamma=gamma,
        m=m_eff,
        tau2_sq=tau2_sq,
        tau4_sq=tau4_sq,
        B=B,
        C=C,
        psi0=_psi0(obj, prof.Lambda, gamma, tau2_sq),
        contraction_rate=1.0 - gamma * mu,
        term_gamma=gamma * tau2_sq / (mu * m_eff),
        term_gamma_3_2=gamma**1.5 * K3 * B**1.5 / (mu * m_eff),
        term_gamma_2=gamma**2 * (
            (L**2 / _mu_squared(obj)) * lam2 * zeta**2
            + _scaled(topo, L * B) + _scaled(topo, tau2_sq)
        ),
        term_gamma_5_2=gamma**2.5 * _scaled(
            topo, K3 * B**1.5 + gamma**1.5 * K3**2 * B**2
        ),
        var_leading=(gamma * tau2_sq + gamma**1.5 * K3 * B**1.5)
        / (mu * m_eff),
        var_topology=gamma**2 * _scaled(topo, c_numer),
        inf_by_branch=inf_by_branch,
    )


def recommend_schedule(obj: ObjectiveSet, W: CommMatrix, noise, epsilon: float = 1e-2,
                       variant: str = "dsgd"):
    """Step size and horizon reaching accuracy epsilon, up to absolute constants.

    ``variant`` selects plain averaging ("dsgd") or two-step-size
    extrapolation ("rr"); the latter relaxes the heterogeneity-limited terms
    from 1/epsilon to 1/sqrt(epsilon).  All unspecified absolute constants
    are taken as 1; the horizon carries the log(psi0/epsilon) factor with
    the start at the origin.
    """
    variant = str(variant).strip().lower().replace("-", "_")
    if variant not in ("dsgd", "rr"):
        raise InvalidParamError(
            f"variant must be 'dsgd' or 'rr', got {variant!r}"
        )
    if not (epsilon > 0.0):
        raise InvalidParamError(f"epsilon must be positive, got {epsilon!r}")
    prof = W.spectral
    L, mu, mu_sq = obj.L, obj.mu, _mu_squared(obj)
    zeta = obj.zeta_star
    Lambda, rho = prof.Lambda, prof.rho
    if rho >= 1.0:
        raise InvalidParamError(
            "schedule recommendation requires rho < 1"
        )
    tau2_sq, tau4_sq = _tau_squares(obj, noise)

    def div(a, b):
        return a / b if b > 0.0 else math.inf

    het_eps = epsilon if variant == "dsgd" else math.sqrt(epsilon)
    gam = min(
        1.0 / L,
        div(mu, L**2 * Lambda * zeta),
        div(mu * obj.m * epsilon**2, tau2_sq),
        div(mu * het_eps, L * Lambda * zeta),
    )
    B = _moment_bound(obj, Lambda, gam, tau4_sq)
    topo = rho**2 / (1.0 - rho**2)
    if topo > 0.0:
        gam = min(
            gam,
            epsilon * math.sqrt(div(1.0, L * B * topo)),
            epsilon * math.sqrt(div(1.0, tau2_sq * topo)),
        )
    T_core = max(
        L / mu,
        L**2 * Lambda * zeta / mu_sq,
        div(tau2_sq, mu_sq * obj.m * epsilon**2),
        div(L * Lambda * zeta, mu_sq * het_eps),
        div(math.sqrt(tau2_sq), mu * epsilon) * math.sqrt(topo),
    )
    psi0 = _psi0(obj, Lambda, gam, tau2_sq)
    log_factor = max(1.0, math.log(psi0 / epsilon)) if psi0 > 0.0 else 1.0
    return float(gam), int(math.ceil(T_core * log_factor))


def _flat_rows(name: str, array: np.ndarray):
    """(name[i][j]..., entry) for every entry of array, in C order."""
    return [(name + "".join(f"[{i}]" for i in index), array[index])
            for index in np.ndindex(array.shape)]


@dataclass(frozen=True)
class TheoryReport:
    """Every closed-form prediction and bound for one configuration."""

    theta_det_pred: StackedPoint
    bias_first_order: StackedPoint
    det_residual_bound: float
    lemma3_bound: float
    variance_first_order: np.ndarray
    stochastic_bias_first_order: np.ndarray
    rr_bias_bound: float
    # None when gamma sits outside the (stricter) diagnostics gate while the
    # fixed-point and expansion gates still hold; rows() then reports NaN
    diagnostics: Optional[BoundDiagnostics]

    def rows(self):
        diag = (self.diagnostics.as_rows() if self.diagnostics is not None
                else [(name, float("nan")) for name in BoundDiagnostics.row_names()])
        return [
            *_flat_rows("theta_det_pred", self.theta_det_pred.data),
            *_flat_rows("bias_first_order", self.bias_first_order.data),
            ("det_residual_bound", self.det_residual_bound),
            ("lemma3_bound", self.lemma3_bound),
            *_flat_rows("variance_first_order", self.variance_first_order),
            *_flat_rows("stochastic_bias_first_order",
                        self.stochastic_bias_first_order),
            ("rr_bias_bound", self.rr_bias_bound),
            *((f"diag_{name}", value) for name, value in diag),
        ]

    def to_csv(self, dest) -> None:
        """Write rows() as quantity,value to a path or an open handle."""
        write_csv(dest, ["quantity", "value"],
                  ((name, float(value)) for name, value in self.rows()))


def theory_report(W: CommMatrix, obj: ObjectiveSet, noise,
                  gamma: float) -> TheoryReport:
    """Assemble the full report.

    The fixed-point and expansion gates are hard: a gamma outside them
    raises StepTooLargeError naming the violated inequality.  The
    non-asymptotic diagnostics use a stricter gate of their own; when only
    that one fails the report still carries the closed forms and the
    diagnostics come back as NaN.  A row that overflows to +-inf raises
    InvalidParamError naming the first such row; the infs that C and the
    topology terms take by their own branch, at tau_2^2 = 0 and at
    rho >= 1, are reported as they are.
    """
    # for quadratics the exact fixed point goes first: its step-size gate
    # gamma < 2/((1+L/mu) L Lambda) is the tighter one and should be the
    # inequality named on failure
    exact = (quad_exact_fixed_point(W, obj, gamma).theta_det
             if obj.kind == "quadratic" else None)
    expansion = det_bias_expansion(W, obj, gamma)
    try:
        diag = bound_diagnostics(obj, W, noise, gamma)
    except StepTooLargeError:
        diag = None
    bias = StackedPoint(
        obj.m, obj.d,
        expansion.prediction.data - obj.theta_star_stacked.data,
    )
    report = TheoryReport(
        theta_det_pred=expansion.prediction if exact is None else exact,
        bias_first_order=bias,
        det_residual_bound=expansion.residual_bound,
        lemma3_bound=lemma3_bound(obj, W, gamma),
        variance_first_order=variance_first_order(obj, noise, gamma),
        stochastic_bias_first_order=stochastic_bias_first_order(
            obj, noise, gamma
        ),
        rr_bias_bound=rr_bias_bound(obj, W, gamma),
        diagnostics=diag,
    )
    # an inf that bound_diagnostics gives by its own branch is the bound's
    # value; any other inf is an overflow
    branch_inf = {f"diag_{name}" for name in (diag.inf_by_branch if diag is not None else ())}
    for name, value in report.rows():
        if math.isinf(value) and name not in branch_inf:
            raise InvalidParamError(
                f"{name} overflows to {float(value)} at mu = {obj.mu:.3g}, "
                f"L = {obj.L:.3g}: the bounds are out of floating-point range"
            )
    return report
