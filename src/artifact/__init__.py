"""Exact ground states, quantum geometry, and topology of a rotated XY ring."""

from . import errors, geometry, ground_state, model, oracle, topology
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .ground_state import *  # noqa: F403
from .geometry import *  # noqa: F403
from .topology import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *model.__all__,
    *ground_state.__all__,
    *geometry.__all__,
    *topology.__all__,
    *oracle.__all__,
]
