"""Exception taxonomy for entwedge.

One class per CLI exit code, each carrying that code as ``exit_code``:
text, file and ket-shape problems (1), validation problems (2) and size
guards (3).  The two subclasses exist for the data they carry.
"""

from __future__ import annotations


class EntwedgeError(Exception):
    """Base class for all entwedge errors."""


class ParseError(EntwedgeError):
    """Input text or file could not be read or parsed, or a ket
    expression's slot counts disagree or it has no kets."""

    exit_code = 1


class KetSyntaxError(ParseError):
    """Syntax error in a ket expression.  Carries a 1-based column."""

    def __init__(self, message: str, column: int):
        self.column = int(column)
        super().__init__(f"{message} (column {column})")


class ValidationError(EntwedgeError):
    """Input is well formed but violates a contract: amplitude count,
    norm, dims, arity, a bipartition, or a setting's range."""

    exit_code = 2


class NotNormalizedError(ValidationError):
    """State norm differs from 1 beyond tolerance.  Carries the actual norm."""

    def __init__(self, norm: float, tol: float):
        self.norm = float(norm)
        self.tol = float(tol)
        super().__init__(f"state norm is {norm!r}, not 1 within {tol:g}")


class TooLargeError(EntwedgeError):
    """Input passes a size guard or a work price: the state's subsystems
    or total dimension, the kernel's work, or a ket or invariance budget."""

    exit_code = 3
