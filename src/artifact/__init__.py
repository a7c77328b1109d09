"""Exact ground states, quantum geometry, and topology of a rotated XY ring."""

from . import errors, geometry, ground_state, model, topology
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .ground_state import *  # noqa: F403
from .geometry import *  # noqa: F403
from .topology import *  # noqa: F403

# The exact-diagonalization oracle imports scipy; it is loaded on first use
# of one of its names, so the closed-form paths never import scipy.
_ORACLE_NAMES = (
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
    *errors.__all__,
    *model.__all__,
    *ground_state.__all__,
    *geometry.__all__,
    *topology.__all__,
    *_ORACLE_NAMES,
]
