"""Stacked network iterates: one d-vector per client, kept block-contiguous.

A StackedPoint is the concatenation (theta_1, ..., theta_m) of the m client
parameter vectors. Blocks are rows of an (m, d) array, so the flat view is
exactly the stacked vector of the underlying md-dimensional dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError

__all__ = ["StackedPoint"]


@dataclass(frozen=True)
class StackedPoint:
    """Immutable stacked parameter vector for m clients in dimension d."""

    m: int
    d: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.data, dtype=float)
        if arr.shape != (self.m, self.d):
            raise ShapeMismatchError(
                f"expected data of shape ({self.m}, {self.d}), got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_blocks(cls, blocks) -> "StackedPoint":
        arr = np.atleast_2d(np.asarray(blocks, dtype=float))
        return cls(m=arr.shape[0], d=arr.shape[1], data=arr)

    @classmethod
    def zeros(cls, m: int, d: int) -> "StackedPoint":
        return cls(m=m, d=d, data=np.zeros((m, d)))

    @classmethod
    def replicate(cls, theta, m: int) -> "StackedPoint":
        """Stack m copies of a single d-vector (a consensus point)."""
        theta = np.asarray(theta, dtype=float).ravel()
        return cls(m=m, d=theta.size, data=np.tile(theta, (m, 1)))

    def block(self, k: int) -> np.ndarray:
        return self.data[k]

    def flat(self) -> np.ndarray:
        return self.data.ravel()

    def block_average(self) -> np.ndarray:
        return self.data.mean(axis=0)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __add__(self, other: "StackedPoint") -> "StackedPoint":
        self._check_compatible(other)
        return StackedPoint(self.m, self.d, self.data + other.data)

    def __sub__(self, other: "StackedPoint") -> "StackedPoint":
        self._check_compatible(other)
        return StackedPoint(self.m, self.d, self.data - other.data)

    def _check_compatible(self, other: "StackedPoint") -> None:
        if (self.m, self.d) != (other.m, other.d):
            raise ShapeMismatchError(
                f"incompatible stacked points: ({self.m},{self.d}) vs ({other.m},{other.d})"
            )
