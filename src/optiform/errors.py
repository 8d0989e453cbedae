"""Shared exception types and the global enumeration bound."""

import os


class OptiformError(Exception):
    """Base class for all library errors."""


class CarrierMismatchError(OptiformError):
    """A semiring value was used with the wrong carrier."""


class ValidationError(OptiformError):
    """A structurally invalid instance (bad domain, incomplete table, ...)."""


class EnumerationLimitError(OptiformError):
    """A size bound was exceeded: the configured bound on the joint
    assignment space, or Python's bound on the digits of a written int."""


DEFAULT_MAX_SPACE = 10 ** 6


def max_space():
    """Joint-space enumeration bound; OPTIFORM_MAX_SPACE overrides it."""
    raw = os.environ.get("OPTIFORM_MAX_SPACE")
    if raw is None:
        return DEFAULT_MAX_SPACE
    try:
        return int(raw)
    except ValueError:
        raise OptiformError("OPTIFORM_MAX_SPACE must be an integer, got %r" % raw)


def check_space(size, what="joint assignment space"):
    bound = max_space()
    if size > bound:
        raise EnumerationLimitError(
            "%s has %d elements, exceeding the bound %d" % (what, size, bound)
        )
