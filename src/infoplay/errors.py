"""Exception hierarchy shared by all infoplay modules."""

import sys


class InfoplayError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(InfoplayError, ValueError):
    """An input violates a documented precondition or invariant."""


def require_ints(least=None, /, **counts) -> None:
    """Raise ValidationError naming the first of ``counts`` that is not a
    Python int, or that is below ``least`` when that is given.  A bool is
    an int, but no count."""
    for name, count in counts.items():
        if type(count) is not int:
            raise ValidationError(f"{name} must be an int, got {count!r}")
        if least is not None and count < least:
            raise ValidationError(f"{name} must be at least {least}, got {count}")


def require_addressable(**counts) -> None:
    """Raise MemoryError naming the first of ``counts``, each the element
    count of one array, whose 8-byte elements would overrun the address
    space, so that nothing of that size is built, mapped or forked for."""
    for name, count in counts.items():
        if count > sys.maxsize // 8:
            raise MemoryError(f"{name} of {count} elements exceeds the address space")


class ConfigError(InfoplayError, ValueError):
    """An experiment config file is malformed or fails its schema."""


class ResourceCapError(InfoplayError, RuntimeError):
    """A declared resource cap (e.g. maximum enumerated states) was exceeded."""


class EstimationError(InfoplayError, RuntimeError):
    """Too little data to produce a meaningful statistical estimate."""


class NumericalContractError(InfoplayError, RuntimeError):
    """A numerical contract was violated beyond tolerance (e.g. a measured
    curve is non-monotone by more than the allowed Monte Carlo dip)."""
