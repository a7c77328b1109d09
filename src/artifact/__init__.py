"""Exact ground states, quantum geometry, and topology of a rotated XY ring."""

from .errors import (
    ArtifactError,
    BadSize,
    CriticalPoint,
    DegenerateGroundState,
    DegenerateRatio,
    FiniteDifferenceUnstable,
    GaplessMode,
    GaplessOnGrid,
    GridMismatch,
    NoJumpFound,
    SizeLimit,
    StencilCrossesCritical,
    TooCloseToCritical,
    VortexOnPlaquette,
    ZeroOverlap,
)
from .model import (
    ModelParams,
    bogoliubov_angle,
    dispersion,
    fermi_cutoff,
    gap,
    momentum_grid,
)
from .ground_state import (
    GroundState,
    ModeAmplitudes,
    build_ground_state,
    isotropic_ground_state,
    mode_amplitudes,
    overlap,
)
from .geometry import (
    CurvatureDensity,
    GeometricTensor,
    berry_curvature_density,
    berry_curvature_mode,
    qgt_finite_diff,
    qgt_product,
    qgt_spectral,
)
from .topology import (
    ChernMethod,
    ChernResult,
    PhaseLabel,
    PhasePoint,
    chern_discrete,
    chern_number,
    classify_phase,
    detect_transition,
)
# The exact-diagonalization oracle imports scipy; it is loaded on first use
# of one of its names, so the closed-form paths never import scipy.
_ORACLE_NAMES = (
    "ParitySectorResult",
    "SpectralTerm",
    "SpinSpectrum",
    "build_spin_hamiltonian",
    "ed_ground",
    "embed_ground_state",
    "free_fermion_parity_spectrum",
    "qgt_matrix_elements",
    "wilson_loop_berry_phase",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORACLE_NAMES))


__version__ = "0.1.0"

__all__ = [
    "ArtifactError",
    "BadSize",
    "ChernMethod",
    "ChernResult",
    "CriticalPoint",
    "CurvatureDensity",
    "DegenerateGroundState",
    "DegenerateRatio",
    "FiniteDifferenceUnstable",
    "GaplessMode",
    "GaplessOnGrid",
    "GeometricTensor",
    "GridMismatch",
    "GroundState",
    "ModeAmplitudes",
    "ModelParams",
    "NoJumpFound",
    "ParitySectorResult",
    "PhaseLabel",
    "PhasePoint",
    "SizeLimit",
    "SpectralTerm",
    "SpinSpectrum",
    "StencilCrossesCritical",
    "TooCloseToCritical",
    "VortexOnPlaquette",
    "ZeroOverlap",
    "berry_curvature_density",
    "berry_curvature_mode",
    "bogoliubov_angle",
    "build_ground_state",
    "build_spin_hamiltonian",
    "chern_discrete",
    "chern_number",
    "classify_phase",
    "detect_transition",
    "dispersion",
    "ed_ground",
    "embed_ground_state",
    "fermi_cutoff",
    "free_fermion_parity_spectrum",
    "gap",
    "isotropic_ground_state",
    "mode_amplitudes",
    "momentum_grid",
    "overlap",
    "qgt_finite_diff",
    "qgt_matrix_elements",
    "qgt_product",
    "qgt_spectral",
    "wilson_loop_berry_phase",
]
