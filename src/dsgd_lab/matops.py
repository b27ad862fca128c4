"""Dense linear algebra for small symmetric systems.

Contents
--------
sym_eig
    Full eigendecomposition of a symmetric matrix, eigenvalues descending.
pinv_sym
    Moore-Penrose pseudo-inverse through the eigendecomposition.
sylvester_solve
    Solve Abar X + X Abar = S for symmetric positive definite Abar.
projected_pinv_expansion
    Small-t expansion (A + tB)^-1 ~ (1/t)(P B P)^+ with its certified
    error constant, P the projector onto ker(A).
inverse_perturbation_bound
    Norm bound on (A+B)^-1 - A^-1 for a PSD perturbation B.
damped_newton
    Damped Newton for R(x) = 0, the one loop behind theta* and Theta_det.

All matrices are dense row-major float arrays; every operation is a pure
function of its inputs and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    NoConvergenceError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
    SingularMatrixError,
    InvalidParamError,
)

__all__ = [
    "SymSpectrum",
    "PinvExpansion",
    "sym_eig",
    "pinv_sym",
    "sylvester_solve",
    "projected_pinv_expansion",
    "inverse_perturbation_bound",
    "damped_newton",
]

#: Relative entrywise asymmetry beyond which a matrix is rejected.
SYMMETRY_RTOL = 1e-9

#: Default relative eigenvalue cutoff for pseudo-inverses / rank decisions.
PINV_RTOL = 1e-10

#: Iteration cap and smallest damping factor of damped_newton.
NEWTON_MAX_ITER, NEWTON_MIN_STEP = 50, 2.0**-10


def _as_square(M, name: str = "M") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidParamError(f"{name} must be a square matrix, got shape {M.shape}")
    return M


def _check_symmetric(M: np.ndarray, name: str = "M") -> None:
    scale = np.max(np.abs(M)) if M.size else 0.0
    asym = np.max(np.abs(M - M.T)) if M.size else 0.0
    if asym > SYMMETRY_RTOL * scale:
        raise NotSymmetricError(
            f"{name} is not symmetric: max |M - M^T| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max|M| = {SYMMETRY_RTOL * scale:.3e}"
        )


@dataclass(frozen=True)
class SymSpectrum:
    """Eigendecomposition of a symmetric matrix.

    eigenvalues are sorted descending; eigenvectors holds the matching
    orthonormal eigenvectors as columns, so
    ``eigenvectors @ np.diag(eigenvalues) @ eigenvectors.T`` rebuilds the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.T


def sym_eig(M) -> SymSpectrum:
    """Full spectrum of a symmetric matrix, eigenvalues in descending order.

    Parameters
    ----------
    M : (n, n) array_like
        Symmetric matrix. Asymmetry above ``1e-9 * max|M|`` entrywise is
        rejected rather than silently symmetrized.

    Raises
    ------
    NotSymmetricError
        If M fails the symmetry gate.
    NoConvergenceError
        If the underlying QR iteration does not converge.
    """
    M = _as_square(M)
    _check_symmetric(M)
    # Symmetrize exactly so the result is invariant to which triangle LAPACK reads.
    Ms = 0.5 * (M + M.T)
    try:
        w, V = np.linalg.eigh(Ms)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    order = np.argsort(w)[::-1]
    return SymSpectrum(eigenvalues=w[order], eigenvectors=V[:, order])


def pinv_sym(M, tol: float = PINV_RTOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with ``|lambda| <= tol * max|lambda|`` are treated as exact
    zeros; the rest are inverted in the eigenbasis. Satisfies all four
    Penrose identities to within 1e-8 for the matrices this package meets
    (the kernels are exact-rank, the cutoff only guards rounding noise).
    """
    spec = sym_eig(M)
    w, V = spec.eigenvalues, spec.eigenvectors
    if w.size == 0:
        return np.zeros_like(np.asarray(M, dtype=float))
    cut = tol * np.max(np.abs(w))
    inv = np.where(np.abs(w) > cut, 1.0 / np.where(np.abs(w) > cut, w, 1.0), 0.0)
    return (V * inv) @ V.T


def sylvester_solve(Abar, S) -> np.ndarray:
    """Solve ``Abar @ X + X @ Abar = S`` for SPD ``Abar``.

    In Abar's eigenbasis the equation decouples entrywise:
    ``X~_ij = S~_ij / (lambda_i + lambda_j)``, which is the operator
    ``J = (I (x) Abar + Abar (x) I)^-1`` applied to S. X is symmetric
    whenever S is.

    Raises
    ------
    NotPositiveDefiniteError
        If Abar has an eigenvalue <= 0.
    """
    S = _as_square(np.asarray(S, dtype=float), "S")
    spec = sym_eig(Abar)
    w, V = spec.eigenvalues, spec.eigenvectors
    if w.size != S.shape[0]:
        raise InvalidParamError(
            f"Abar is {w.size}x{w.size} but S is {S.shape[0]}x{S.shape[1]}"
        )
    if np.min(w) <= 0.0:
        raise NotPositiveDefiniteError(
            f"Abar must be positive definite; min eigenvalue = {np.min(w):.3e}"
        )
    St = V.T @ S @ V
    Xt = St / (w[:, None] + w[None, :])
    return V @ Xt @ V.T


@dataclass(frozen=True)
class PinvExpansion:
    """Result of projected_pinv_expansion.

    approx is (1/t)(P B P)^+ with P the orthogonal projector onto ker(A);
    exact is the true (A + tB)^-1; residual_bound is the lemma constant
    (1/lambda^+_min(A)) * (1 + lambda_max(B)/lambda_min(B))^2, valid for the
    spectral-norm difference ``exact - approx`` uniformly in t.
    """

    approx: np.ndarray
    residual_bound: float
    exact: np.ndarray


def projected_pinv_expansion(A, B, t: float) -> PinvExpansion:
    """Leading term of (A + tB)^-1 as t -> 0, with a certified error constant.

    Parameters
    ----------
    A : (n, n) array_like
        Symmetric positive semidefinite.
    B : (n, n) array_like
        Symmetric positive definite.
    t : float
        Positive scalar.

    Raises
    ------
    NotPositiveSemidefiniteError / NotPositiveDefiniteError
        If A (resp. B) fails its definiteness requirement.
    SingularMatrixError
        If A + tB is numerically singular.
    InvalidParamError
        If t <= 0.

    Notes
    -----
    When A has a trivial kernel the approximation degenerates to 0; when A
    is all-zero the approximation (1/t) B^-1 is exact and the lemma constant
    is undefined, reported here as inf.
    """
    if not (t > 0.0):
        raise InvalidParamError(f"t must be positive, got {t}")
    specA = sym_eig(A)
    wA, VA = specA.eigenvalues, specA.eigenvectors
    n = wA.size
    scaleA = np.max(np.abs(wA)) if n else 0.0
    if n and np.min(wA) < -PINV_RTOL * max(scaleA, 1.0):
        raise NotPositiveSemidefiniteError(
            f"A must be PSD; min eigenvalue = {np.min(wA):.3e}"
        )
    specB = sym_eig(B)
    wB = specB.eigenvalues
    if wB.size != n:
        raise InvalidParamError("A and B must have matching shapes")
    if np.min(wB) <= 0.0:
        raise NotPositiveDefiniteError(
            f"B must be positive definite; min eigenvalue = {np.min(wB):.3e}"
        )

    kernel = np.abs(wA) <= PINV_RTOL * max(scaleA, 0.0)
    P = VA[:, kernel] @ VA[:, kernel].T if np.any(kernel) else np.zeros((n, n))
    approx = pinv_sym(P @ np.asarray(B, dtype=float) @ P) / t

    M = np.asarray(A, dtype=float) + t * np.asarray(B, dtype=float)
    wM = sym_eig(M).eigenvalues
    if np.min(np.abs(wM)) <= PINV_RTOL * np.max(np.abs(wM)):
        raise SingularMatrixError("A + tB is numerically singular")
    exact = np.linalg.inv(M)

    positive = wA[~kernel]
    if positive.size:
        lam_plus_min = float(np.min(positive))
        kappaB = float(np.max(wB) / np.min(wB))
        bound = (1.0 / lam_plus_min) * (1.0 + kappaB) ** 2
    else:
        bound = math.inf
    return PinvExpansion(approx=approx, residual_bound=bound, exact=exact)


def inverse_perturbation_bound(A, B) -> float:
    """Bound ``||(A+B)^-1 - A^-1||_2 <= ||A^-1||_2^2 ||B||_2`` for PD A, PSD B.

    Returns the right-hand side; callers compare against the actual
    difference themselves.
    """
    specA = sym_eig(A)
    wA = specA.eigenvalues
    if wA.size == 0 or np.min(wA) <= 0.0:
        raise NotPositiveDefiniteError(
            f"A must be positive definite; min eigenvalue = "
            f"{np.min(wA) if wA.size else float('nan'):.3e}"
        )
    specB = sym_eig(B)
    wB = specB.eigenvalues
    scaleB = np.max(np.abs(wB)) if wB.size else 0.0
    if wB.size and np.min(wB) < -PINV_RTOL * max(scaleB, 1.0):
        raise NotPositiveSemidefiniteError(
            f"B must be PSD; min eigenvalue = {np.min(wB):.3e}"
        )
    norm_Ainv = 1.0 / float(np.min(wA))
    norm_B = float(np.max(np.abs(wB))) if wB.size else 0.0
    return norm_Ainv**2 * norm_B


def damped_newton(residual, jacobian, x0, tol: float):
    """Damped Newton for R(x) = 0 with R = residual, J = jacobian (x.size square).

    Each step solves J(x) delta = R(x) and halves delta, down to
    NEWTON_MIN_STEP, until ||R|| strictly falls, which a Newton direction
    does for nonsingular J. Stops at ||R|| <= tol (tol 0: the rounding
    floor), when no halving lowers ||R||, or after NEWTON_MAX_ITER steps.
    Returns the best iterate and its ||R||, or None at a non-finite
    residual; a singular J raises LinAlgError.
    """
    x = np.asarray(x0, dtype=float)
    R = residual(x)
    r = float(np.linalg.norm(R))
    if not math.isfinite(r):
        return None
    for _ in range(NEWTON_MAX_ITER):
        if r <= tol:
            break
        delta = np.linalg.solve(jacobian(x), R.ravel()).reshape(x.shape)
        t = 1.0
        while t >= NEWTON_MIN_STEP:
            cand = x - t * delta
            R_cand = residual(cand)
            r_cand = float(np.linalg.norm(R_cand))
            if not math.isfinite(r_cand):
                return None
            if r_cand < r:
                break
            t *= 0.5
        else:
            break
        x, R, r = cand, R_cand, r_cand
    return x, r
