"""Exception types shared across the package, the check every number read
from outside passes, and the check every integer scale or count passes."""

import numbers
import sys

import numpy as np


class NalabError(Exception):
    """Base of every error the package raises on purpose."""


class DomainError(NalabError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class GridRangeError(NalabError, IndexError):
    """Annulus index or scale outside the configured grid."""


class PoleError(NalabError, ValueError):
    """Parameter hits a pole of the function being evaluated."""


class PrecisionError(NalabError, ArithmeticError):
    """Requested accuracy cannot be certified (series too slow, grid too coarse)."""


class UnsupportedError(NalabError, ValueError):
    """Valid input that this implementation deliberately does not cover."""


class ConfigError(NalabError, ValueError):
    """Malformed experiment configuration."""


def finite_number(x, name: str, integral: bool = False):
    """x as a float, or as an int when integral; else a ConfigError naming name.

    Bools, strings, nan and +-inf are refused, and so are values with a
    fractional part where an integer is expected.
    """
    # bool is an int subclass; comparing to float max rejects nan and inf,
    # and ints too large for a float, without converting them
    finite = isinstance(x, numbers.Real) and abs(x) <= sys.float_info.max
    if isinstance(x, bool) or not finite:
        raise ConfigError(f"{name} must be a finite number, got {x!r}")
    if integral and not float(x).is_integer():
        raise ConfigError(f"{name} must be an integer, got {x!r}")
    return int(x) if integral else float(x)


def require_integer(x, name: str) -> None:
    """DomainError naming name unless x is an int or a numpy integer.

    Bools are refused, and so are floats with an integral value: a scale or
    count of 2.0 is a caller's mistake, not a request for 2.
    """
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {x!r}")
