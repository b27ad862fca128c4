"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class so
that tests and the CLI can distinguish "bad input" from "numerical trouble".
All of them derive from :class:`DsgdLabError`.
"""


class DsgdLabError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetricError(DsgdLabError, ValueError):
    """Matrix expected to be symmetric is not (beyond tolerance)."""


class NotPositiveDefiniteError(DsgdLabError, ValueError):
    """Matrix expected to be positive definite has a nonpositive eigenvalue."""


class NotPositiveSemidefiniteError(DsgdLabError, ValueError):
    """Matrix expected to be PSD has a negative eigenvalue."""


class SingularMatrixError(DsgdLabError, ValueError):
    """Matrix that must be invertible is numerically singular."""


class NoConvergenceError(DsgdLabError, RuntimeError):
    """An iterative routine exhausted its budget before reaching tolerance."""


class DivergenceError(DsgdLabError, RuntimeError):
    """A simulated iterate is no longer finite (the step size is too large)."""


class InvalidSizeError(DsgdLabError, ValueError):
    """Network size outside the supported range for the requested builder."""


class InvalidStepError(DsgdLabError, ValueError):
    """Step size (Laplacian weight or optimization step) outside valid range."""


class InvalidPartitionError(DsgdLabError, ValueError):
    """Cluster layout does not divide the network evenly (or clusters too small)."""


class NotLaplacianError(DsgdLabError, ValueError):
    """Matrix is not a graph Laplacian (asymmetric, negative off-diagonals, or rows not summing to zero)."""


class DisconnectedError(DsgdLabError, ValueError):
    """Communication graph is disconnected: the second eigenvalue of W reaches 1."""


class ShapeMismatchError(DsgdLabError, ValueError):
    """Array argument has a shape incompatible with the model dimensions."""


class UnsupportedCombinationError(DsgdLabError, TypeError):
    """Requested pairing of model components is not defined (e.g. minibatch noise on a quadratic)."""


class InvalidParamError(DsgdLabError, ValueError):
    """Scalar parameter outside its documented domain."""


class StepTooLargeError(DsgdLabError, ValueError):
    """Step size violates the validity condition of a closed-form prediction.

    The message names the violated inequality.
    """


class InsufficientSamplesError(DsgdLabError, ValueError):
    """Not enough recorded samples to form a meaningful estimate."""


class NonPositiveError(DsgdLabError, ValueError):
    """Log-log fit requires strictly positive inputs."""


class TooFewPointsError(DsgdLabError, ValueError):
    """Fit requires at least three points."""


class BudgetExceededError(DsgdLabError, ValueError):
    """Sweep grid larger than the configured cell budget."""


class ConfigError(DsgdLabError, ValueError):
    """Malformed experiment configuration file or override."""
