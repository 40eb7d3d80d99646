"""Exception taxonomy for entwedge.

Errors are grouped by where they surface so the CLI can map them onto
exit codes: text/parse problems, validation problems, and size guards.
"""

from __future__ import annotations


class EntwedgeError(Exception):
    """Base class for all entwedge errors."""


# --- validation errors -------------------------------------------------

class ValidationError(EntwedgeError):
    """Input is well formed but violates a contract (norm, dims, ranges)."""


class LengthMismatchError(ValidationError):
    """Amplitude count does not equal the product of the subsystem dims."""


class NotNormalizedError(ValidationError):
    """State norm differs from 1 beyond tolerance.  Carries the actual norm."""

    def __init__(self, norm: float, tol: float):
        self.norm = float(norm)
        self.tol = float(tol)
        super().__init__(f"state norm is {norm!r}, not 1 within {tol:g}")


class ZeroStateError(ValidationError):
    """All amplitudes are zero, so the state cannot be normalized."""


class InvalidPartitionError(ValidationError):
    """Bipartition side is empty, full, or names an unknown subsystem."""


class WrongArityError(ValidationError):
    """Operation requires a specific number of subsystems."""


class WrongDimsError(ValidationError):
    """Operation requires specific subsystem dimensions."""


class ArityMismatchError(ValidationError):
    """Kets combined in a sum have different slot counts."""


# --- size guards -------------------------------------------------------

class TooLargeError(EntwedgeError):
    """Input passes a size guard or a work price: the state's subsystems
    or total dimension, the kernel's work, or a ket or invariance budget."""


# --- text and file errors ----------------------------------------------

class ParseError(EntwedgeError):
    """Input text or file could not be parsed."""


class KetSyntaxError(ParseError):
    """Syntax error in a ket expression.  Carries a 1-based column."""

    def __init__(self, message: str, column: int):
        self.column = int(column)
        super().__init__(f"{message} (column {column})")


class SchemaError(ParseError):
    """State file violates the schema.  Message names the offending field."""


class IoError(ParseError):
    """State file could not be read or written."""
