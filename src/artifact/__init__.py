"""Exact ground states, quantum geometry, and topology of a rotated XY ring.

``import artifact`` loads ``errors`` and ``model`` only, with no numpy: the
gap, the couplings and the error types are pure Python.  ``ground_state``,
``geometry``, ``topology`` and ``oracle``, and numpy with them, load on first
use.  Naming a submodule (``artifact.topology``, ``from artifact import
topology``) loads that module and what it imports; any other name,
``__all__`` and ``from artifact import *`` included, loads them all once.
``dir(artifact)`` lists every name in a fresh process.

Each CLI subcommand loads only what it runs: ``gap-map`` only ``model``,
``scan-chern`` ``topology`` and ``ground_state``, ``metric-scan``
``geometry`` and ``ground_state``, and ``oracle-verify`` ``geometry``,
``ground_state`` and ``oracle``; each but ``gap-map`` loads numpy.
"""

import importlib

from . import errors, model
from .errors import *  # noqa: F403
from .model import *  # noqa: F403

__version__ = "0.1.0"

_DEFERRED = ("ground_state", "geometry", "topology", "oracle")


def __getattr__(name: str):
    """A deferred submodule by its name; any other name after loading them all."""
    if name in _DEFERRED:
        return importlib.import_module(f".{name}", __name__)
    namespace = globals()
    if "__all__" not in namespace:
        deferred = [__getattr__(stem) for stem in _DEFERRED]
        for module in deferred:
            namespace.update({key: getattr(module, key) for key in module.__all__})
        modules = (errors, model, *deferred)
        namespace["__all__"] = [key for module in modules for key in module.__all__]
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())
