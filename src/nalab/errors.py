"""Exception types shared across the package, the check every number read
from outside passes, and the gates of every integer index and data array.

require_index is the gate of integer indices: every scale, radius, annulus,
vertex and n_max the package takes passes through it, alone or as a flat
sequence, and comes out as an int or an int64 array inside its range; so
does every other integer whose range violations are GridRangeErrors (j_max,
with hi = inf).  require_integer is its integer step.  On its own it gates
the integers that have no upper bound and whose lower bound is a domain
condition, refused with DomainError: iteration, refinement and pass counts,
pair distances and the tree's shape; and j_cut, whose range depends on the
valid window.  require_index_set is its form for index sets, whose order
and repeats do not count (test sets of annuli, vertex sets of the tree):
the distinct indices come out sorted.

require_data is the gate of data arrays: the values of every radial
function, radial weight, vertex function and vertex weight pass through it
and come out as a float array with one finite, nonnegative (for weights,
positive) entry per annulus or vertex.
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


def require_index_set(x, lo, hi, name: str) -> np.ndarray:
    """The distinct indices of x, sorted, as an int64 array; x as in require_index.

    The indices are marked in a boolean mask over lo..hi, not passed to
    numpy's unique, whose first call in a process imports numpy.ma.  A
    nonempty flat int64 array already strictly increasing inside lo..hi,
    such as a tree ball's vertices, is the mask's result itself: it comes
    back as a copy, unmarked.  Every other input, every refused one among
    them, takes the mask.
    """
    if (
        type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.int64 and x.size
        and lo <= x[0] and x[-1] <= hi and (x[1:] > x[:-1]).all()
    ):
        return x.copy()
    mask = np.zeros(max(hi - lo + 1, 0), dtype=bool)
    mask[require_index(x, lo, hi, name) - lo] = True
    return (np.flatnonzero(mask) + lo).astype(np.int64, copy=False)


def require_data(values, size: int, name: str, positive: bool = False) -> np.ndarray:
    """values as a float array of shape (size,), finite and nonnegative, or
    positive when positive; else DomainError naming name."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (size,):
        raise DomainError(f"{name} must have shape ({size},), got shape {arr.shape}")
    if not (np.all(np.isfinite(arr)) and np.all(arr > 0 if positive else arr >= 0)):
        raise DomainError(f"{name} must be finite and {'positive' if positive else 'nonnegative'}")
    return arr
