"""Exception types shared across the package."""


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
