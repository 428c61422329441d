"""Shared exception types."""


class BoundaryDecayError(ValueError):
    """A sampled function carries too much mass at the grid boundary."""


class GridMismatchError(ValueError):
    """Two grid-sampled objects live on incompatible grids."""


class DomainError(ValueError):
    """A functional is undefined on its input, e.g. the entropy of a zero operator."""


class FactorizationError(RuntimeError):
    """A dense factorization (SVD) failed to converge."""
