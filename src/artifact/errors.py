"""Exception types raised across the package.

Each class is one remedy open to the caller; the message names the check
that fired and its margin, so one class serves several checks.
"""

__all__ = [
    "ArtifactError",
    "BadSize",
    "CriticalPoint",
    "VortexOnPlaquette",
    "NoJumpFound",
    "ZeroOverlap",
]


class ArtifactError(Exception):
    """Base class for all package-specific errors."""


class BadSize(ArtifactError):
    """Use another ring size.

    This one is no integer, odd, too small or too large for the route, or
    differs from the other state's.
    """


class CriticalPoint(ArtifactError):
    """Move the couplings: the computation is too close to where the spectrum closes.

    The message states the margin: an exactly gapless momentum, a gap
    below 1e-12, a sampled mode below 1e-9, the 1e-3 strip around the
    critical field, a stencil that touches the gapless set or straddles a
    crossing of the parity sectors, a finite-ring gap below 1e-10, a gap
    too small for a sum to converge, or finite differences at a step and
    at half of it that disagree.
    """


class VortexOnPlaquette(ArtifactError):
    """Refine the grid: a plaquette phase reaches pi or a link modulus collapses."""


class NoJumpFound(ArtifactError):
    """Choose other endpoints: both carry the same integer label."""


class ZeroOverlap(ArtifactError):
    """Refine the loop: two consecutive loop states are numerically orthogonal."""
