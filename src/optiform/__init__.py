"""CP-nets, strategic games with parametrized preferences and c-semiring
soft constraints, plus the translations between the three formalisms.

The submodules load on first use, so a process pays only for the ones it
runs."""

import importlib

from .errors import (
    CarrierMismatchError,
    EnumerationLimitError,
    OptiformError,
    ValidationError,
)

__all__ = [
    "bridge",
    "cpnet",
    "oracle",
    "pgame",
    "semiring",
    "serialize",
    "softcsp",
    "CarrierMismatchError",
    "EnumerationLimitError",
    "OptiformError",
    "ValidationError",
]

_SUBMODULES = {"bridge", "cpnet", "oracle", "pgame", "semiring", "serialize", "softcsp"}


def __getattr__(name):
    # PEP 562: only called for names not yet bound; importing a submodule
    # binds it on the package, so this runs once per submodule
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | _SUBMODULES)
