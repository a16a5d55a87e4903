"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 1,
DataError (and an OSError, such as an unwritable output) exits 2,
NumericsError exits 3.
"""


class ProtfitError(Exception):
    """Base class for package errors."""


class UsageError(ProtfitError):
    """Bad command line or configuration."""


class DataError(ProtfitError):
    """Malformed or inconsistent input data."""


class NumericsError(ProtfitError):
    """Numerical failure (divergence, degenerate eigenproblem, non-finite loss)."""
