"""Exception types raised across the package.

Every error carries a human-readable message; callers that need to branch
on failure mode should catch the specific class, not the common base.
"""

__all__ = [
    "ArtifactError",
    "BadSize",
    "GaplessMode",
    "CriticalPoint",
    "GridMismatch",
    "StencilCrossesCritical",
    "FiniteDifferenceUnstable",
    "DegenerateGroundState",
    "TooCloseToCritical",
    "GaplessOnGrid",
    "VortexOnPlaquette",
    "NoJumpFound",
    "SizeLimit",
    "ZeroOverlap",
]


class ArtifactError(Exception):
    """Base class for all package-specific errors."""


class BadSize(ArtifactError):
    """Chain length is unusable (odd, too small, or too large)."""


class GaplessMode(ArtifactError):
    """Both rotation arguments of the pairing angle vanish at this momentum."""


class CriticalPoint(ArtifactError):
    """Requested parameters sit on (or numerically at) the phase boundary."""


class GridMismatch(ArtifactError):
    """Two states live on different momentum grids."""


class StencilCrossesCritical(ArtifactError):
    """A finite-difference stencil touches the gapless set or a level crossing.

    Either a stencil point lands on the gapless set, or the two parity
    sectors of an exact-diagonalization ring swap order inside the stencil.
    """


class FiniteDifferenceUnstable(ArtifactError):
    """Half-step Richardson check of a finite-difference tensor failed."""


class DegenerateGroundState(ArtifactError):
    """Spectral sums are ill-defined: lowest two levels coincide."""


class TooCloseToCritical(ArtifactError):
    """A topological index was requested inside the excluded strip."""


class GaplessOnGrid(ArtifactError):
    """A discretization node sits too close to a band touching."""


class VortexOnPlaquette(ArtifactError):
    """A lattice plaquette carries a phase of magnitude pi or larger."""


class NoJumpFound(ArtifactError):
    """Bisection endpoints carry the same integer label."""


class SizeLimit(ArtifactError):
    """Exact diagonalization was requested beyond the supported size."""


class ZeroOverlap(ArtifactError):
    """Two consecutive loop states are numerically orthogonal."""
