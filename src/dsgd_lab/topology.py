"""Gossip matrices and their spectral profile.

Builders for the standard communication topologies (fully connected, ring,
sparsely-bridged clusters, arbitrary Laplacians and edge lists), validation of
the mixing assumptions (symmetric, stochastic, lambda_2 < 1), and the derived
spectral quantities: lambda_2, lambda_min, rho, Lambda = 2 ||(I-W)^+ W||_2 and
the spectral gap. Also hosts the consensus/disagreement projectors P and Q
acting on stacked iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import io
import math

import numpy as np

from .errors import (
    DisconnectedError,
    InvalidParamError,
    InvalidPartitionError,
    InvalidSizeError,
    InvalidStepError,
    NotLaplacianError,
    NotSymmetricError,
)
from ._textio import open_text
from .stacked import StackedPoint

__all__ = [
    "CommMatrix",
    "SpectralProfile",
    "build_fully_connected",
    "build_ring",
    "build_clusters",
    "from_laplacian",
    "load_edge_list",
    "gossip_operator",
    "apply_comm",
    "project_consensus",
    "project_disagreement",
]

#: Tolerance for row sums and entry nonnegativity of W.
STOCHASTIC_TOL = 1e-12

#: lambda_2 >= 1 - this means the graph is (numerically) disconnected.
CONNECTIVITY_TOL = 1e-12

# eigenvalues closer to zero than this are treated as exact zeros when
# deriving the spectral profile
SPECTRAL_ZERO_TOL = 1e-12

#: Default Laplacian step for the ring builder: equal self/neighbor weights.
RING_DEFAULT_STEP = 1.0 / 3.0


@dataclass(frozen=True)
class SpectralProfile:
    """Spectral quantities of a gossip matrix W.

    lambda2 is the second largest eigenvalue, lambda_min the smallest,
    rho = max(|lambda2|, |lambda_min|) the mixing radius,
    Lambda = 2 ||(I-W)^+ W||_2 = 2 max_{lambda != 1} |lambda/(1-lambda)|,
    and gap = 1 - lambda2. For a single client everything degenerates and
    all quantities are reported as 0 (gap = 1).
    """

    lambda2: float
    lambda_min: float
    rho: float
    Lambda: float
    gap: float


@dataclass(eq=False)
class CommMatrix:
    """Validated m x m gossip matrix: symmetric, stochastic, lambda_2 < 1.

    Immutable after construction; the spectral profile is computed lazily
    and cached.
    """

    m: int
    entries: np.ndarray

    def __post_init__(self):
        W = np.array(self.entries, dtype=float)
        if W.ndim != 2 or W.shape != (self.m, self.m):
            raise InvalidParamError(f"expected ({self.m},{self.m}) matrix, got {W.shape}")
        if not np.all(np.isfinite(W)):
            raise InvalidParamError("gossip matrix has non-finite entries")
        scale = max(np.max(np.abs(W)), 1.0)
        if np.max(np.abs(W - W.T)) > 1e-9 * scale:
            raise NotSymmetricError("gossip matrix must be symmetric")
        rows = W.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > STOCHASTIC_TOL:
            raise InvalidParamError(
                f"rows of W must sum to 1; worst deviation {np.max(np.abs(rows - 1.0)):.3e}"
            )
        if np.min(W) < -STOCHASTIC_TOL:
            raise InvalidParamError(f"W has negative entry {np.min(W):.3e}")
        W.setflags(write=False)
        self.entries = W
        self._eigenvalues_desc = np.sort(np.linalg.eigvalsh(0.5 * (W + W.T)))[::-1]
        if self.m > 1 and self._eigenvalues_desc[1] >= 1.0 - CONNECTIVITY_TOL:
            raise DisconnectedError(
                "Assumption fails: second eigenvalue of W reaches 1 "
                f"(lambda_2 = {self._eigenvalues_desc[1]:.15g}); graph is disconnected"
            )

    @classmethod
    def from_entries(cls, entries) -> "CommMatrix":
        entries = np.asarray(entries, dtype=float)
        return cls(m=entries.shape[0], entries=entries)

    @cached_property
    def spectral(self) -> SpectralProfile:
        if self.m == 1:
            return SpectralProfile(lambda2=0.0, lambda_min=0.0, rho=0.0, Lambda=0.0, gap=1.0)
        # snap eigenvalues that are zero up to rounding (e.g. the fully
        # connected graph) so that the derived quantities vanish exactly
        w = np.where(
            np.abs(self._eigenvalues_desc) <= SPECTRAL_ZERO_TOL,
            0.0,
            self._eigenvalues_desc,
        )
        lambda2 = float(w[1])
        lambda_min = float(w[-1])
        rho = max(abs(lambda2), abs(lambda_min))
        # all eigenvalues except the single unit one (w[0] = 1)
        rest = w[1:]
        with np.errstate(divide="ignore"):
            Lambda = 2.0 * float(np.max(np.abs(rest / (1.0 - rest)))) if rest.size else 0.0
        return SpectralProfile(
            lambda2=lambda2,
            lambda_min=lambda_min,
            rho=rho,
            Lambda=Lambda,
            gap=1.0 - lambda2,
        )


def build_fully_connected(m: int) -> CommMatrix:
    """W = (1/m) 11^T: averaging in one round. Single client gives [[1]]."""
    if m < 1:
        raise InvalidSizeError(f"need at least one client, got m={m}")
    return CommMatrix(m=m, entries=np.full((m, m), 1.0 / m))


def build_ring(m: int, t: float = RING_DEFAULT_STEP) -> CommMatrix:
    """W = I - t L for the m-cycle, self weight 1-2t and neighbor weight t.

    Requires m >= 3 and 0 < t <= 1/2 so entries stay nonnegative. The default
    t = 1/3 gives equal self and neighbor weights.
    """
    if m < 3:
        raise InvalidSizeError(f"ring needs m >= 3, got m={m}")
    if not (0.0 < t <= 0.5):
        raise InvalidStepError(f"ring step must satisfy 0 < t <= 1/2, got t={t}")
    L = 2.0 * np.eye(m)
    idx = np.arange(m)
    L[idx, (idx + 1) % m] = -1.0
    L[idx, (idx - 1) % m] = -1.0
    return from_laplacian(L, t)


def build_clusters(m: int, k: int, t: float, bridge_weight: float = 1.0) -> CommMatrix:
    """Clustered topology: complete clusters joined by single bridge edges.

    The m clients are split into k equal clusters of size m/k >= 2. Inside a
    cluster every pair is connected with unit weight; consecutive clusters
    (arranged in a cycle) are joined by one bridge edge of weight
    ``bridge_weight`` from the last node of one cluster to the first node of
    the next. W = I - t L of that weighted graph.

    This is one concrete parametrization of a "well-connected clusters,
    sparsely connected" network; the weights are a modeling choice.
    """
    if k < 1 or m % k != 0:
        raise InvalidPartitionError(f"k={k} must divide m={m}")
    size = m // k
    if size < 2:
        raise InvalidPartitionError(f"cluster size m/k = {size} must be >= 2")
    if t <= 0.0:
        raise InvalidStepError(f"Laplacian step must be positive, got {t}")
    if not math.isfinite(bridge_weight):
        raise InvalidStepError(f"bridge weight must be finite, got {bridge_weight}")
    if bridge_weight < 0.0:
        raise InvalidStepError(f"bridge weight must be nonnegative, got {bridge_weight}")
    A = np.zeros((m, m))
    for c in range(k):
        lo = c * size
        A[lo : lo + size, lo : lo + size] = 1.0
    np.fill_diagonal(A, 0.0)
    if k >= 2:
        bridges = {(c, (c + 1) % k) for c in range(k)}
        for c, nxt in bridges:
            i = c * size + size - 1
            j = nxt * size
            A[i, j] = A[j, i] = max(A[i, j], bridge_weight)
    return from_laplacian(np.diag(A.sum(axis=1)) - A, t)


def from_laplacian(L, t: float) -> CommMatrix:
    """W = I - t L for a weighted graph Laplacian L.

    L must be symmetric with zero row sums and nonpositive off-diagonal
    entries. Raises InvalidParam for a non-finite step, InvalidStep if the
    step makes entries of W negative and Disconnected if the graph has more
    than one component. The ring and cluster builders come through here, so
    this is the one place that checks W >= 0.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise NotLaplacianError(f"Laplacian must be square, got shape {L.shape}")
    m = L.shape[0]
    scale = max(np.max(np.abs(L)), 1.0) if L.size else 1.0
    if np.max(np.abs(L - L.T)) > 1e-9 * scale:
        raise NotLaplacianError("Laplacian must be symmetric")
    if np.max(np.abs(L.sum(axis=1))) > 1e-9 * scale:
        raise NotLaplacianError("Laplacian rows must sum to zero")
    off = L - np.diag(np.diag(L))
    if np.max(off) > 1e-9 * scale:
        raise NotLaplacianError("Laplacian off-diagonal entries must be <= 0")
    if not math.isfinite(t):
        raise InvalidParamError(f"step t={t} is non-finite")
    if t <= 0.0:
        raise InvalidStepError(f"step must be positive, got t={t}")
    W = np.eye(m) - t * L
    if np.min(W) < -STOCHASTIC_TOL:
        raise InvalidStepError(
            f"step t={t} makes W entries negative (min {np.min(W):.3e}); reduce t"
        )
    return CommMatrix(m=m, entries=W)


def load_edge_list(source) -> np.ndarray:
    """Assemble a weighted graph Laplacian from a plain-text edge list.

    Each non-comment line is ``i j weight`` (0-indexed node ids; the weight
    may be omitted and defaults to 1). Lines starting with ``#`` and blank
    lines are skipped. Returns the (n, n) Laplacian with n = max node id + 1.
    """
    if not (isinstance(source, (str, bytes, io.IOBase)) or hasattr(source, "readlines")):
        raise InvalidParamError(f"cannot read edge list from {type(source).__name__}")
    edges = []
    with open_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) not in (2, 3):
                raise InvalidParamError(
                    f"edge list line {lineno}: expected 'i j [weight]', got {line!r}"
                )
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise InvalidParamError(f"edge list line {lineno}: {exc}") from exc
            if i < 0 or j < 0:
                raise InvalidParamError(f"edge list line {lineno}: negative node id")
            if i == j:
                raise InvalidParamError(f"edge list line {lineno}: self-loop {i}-{j}")
            if not math.isfinite(w):
                raise InvalidParamError(f"edge list line {lineno}: non-finite weight {w}")
            if w < 0.0:
                raise InvalidParamError(f"edge list line {lineno}: negative weight {w}")
            edges.append((i, j, w))
    if not edges:
        raise InvalidParamError("edge list contains no edges")
    n = max(max(i, j) for i, j, _ in edges) + 1
    L = np.zeros((n, n))
    for i, j, w in edges:
        L[i, j] -= w
        L[j, i] -= w
        L[i, i] += w
        L[j, j] += w
    return L


def gossip_operator(W: CommMatrix) -> np.ndarray:
    """The m x m operator G = (I - W)^+ W.

    G vanishes on the consensus direction (G 1 = 0) and has spectral norm
    Lambda / 2. Callers lift it to the stacked space blockwise; no Kronecker
    product is ever materialized.
    """
    from .matops import pinv_sym

    I = np.eye(W.m)
    return pinv_sym(I - W.entries) @ W.entries


def apply_comm(W: CommMatrix, X: StackedPoint) -> StackedPoint:
    """Blockwise application of W to a stacked point: (W (x) I) X."""
    if X.m != W.m:
        from .errors import ShapeMismatchError

        raise ShapeMismatchError(f"stacked point has m={X.m}, W has m={W.m}")
    return StackedPoint(X.m, X.d, W.entries @ X.data)


def project_consensus(X: StackedPoint) -> StackedPoint:
    """P X: replicate the block average into every block."""
    avg = X.block_average()
    return StackedPoint(X.m, X.d, np.tile(avg, (X.m, 1)))


def project_disagreement(X: StackedPoint) -> StackedPoint:
    """Q X = X - P X: the residual after removing the consensus component."""
    return StackedPoint(X.m, X.d, X.data - X.block_average())
