"""Exception types shared across the package, the check every number read
from outside passes, and the one gate of every integer index.

require_index is that gate: every scale, radius, annulus, vertex and n_max
the package takes passes through it, alone or as a flat sequence, and comes
out as an int or an int64 array inside its range; so does every other
integer whose range violations are GridRangeErrors (j_max, with hi = inf).
require_integer is its integer step.  On its own it gates the integers that
have no upper bound and whose lower bound is a domain condition, refused
with DomainError: iteration, refinement and pass counts, pair distances and
the tree's shape; and j_cut, whose range depends on the valid window.
"""

import numbers
import sys
from collections.abc import Iterable

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


def require_index(x, lo, hi, name: str):
    """x as an int in lo..hi, or a flat sequence of such ints as an int64 array.

    Any iterable is a sequence, so sets, ranges and generators pass; order
    and repeats are kept.  Bools, values that are not integers (2.0 among
    them), nan and nested sequences raise DomainError naming name; an index
    outside lo..hi raises GridRangeError naming the first such index.
    """
    if not isinstance(x, Iterable):
        require_integer(x, name)
        if not lo <= x <= hi:
            raise GridRangeError(f"{name}={x} outside {lo}..{hi}")
        return int(x)
    if not isinstance(x, np.ndarray):
        x = list(x)
        for v in x:  # numpy would store [1, True] as the integers [1, 1]
            require_integer(v, name)
    arr = np.asarray(x)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise DomainError(
            f"{name} must be a flat sequence of integers, got {arr.dtype} of shape {arr.shape}"
        )
    if arr.size and (arr.min() < lo or arr.max() > hi):
        bad = arr[(arr < lo) | (arr > hi)][0]
        raise GridRangeError(f"{name}={bad} outside {lo}..{hi}")
    return arr.astype(np.int64, copy=False)
