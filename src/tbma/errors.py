"""Exception types shared across the package."""

from __future__ import annotations


class TbmaError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(TbmaError, ValueError):
    """A parameter violates its domain (e.g. non-positive variance)."""


class InvalidState(TbmaError, ValueError):
    """Sampler state violates an invariant (e.g. latent sign mismatch)."""


class NumericalError(TbmaError, ArithmeticError):
    """A linear-algebra step failed, typically signalling NaN contamination."""


class EmptyChain(TbmaError, ValueError):
    """A summary was requested from a chain with no stored samples."""


class DimensionError(TbmaError, ValueError):
    """Problem size exceeds what a brute-force oracle can handle."""


class SchemaError(TbmaError, ValueError):
    """A data schema does not resolve against the CSV file."""


class ParseError(TbmaError, ValueError):
    """A CSV cell or config entry could not be parsed."""


class IoError(TbmaError, OSError):
    """An output path could not be written."""
