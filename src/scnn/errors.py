"""Exception types shared across the package.

The CLI maps these to exit codes: usage problems exit 1, DataError exits 2,
NumericError exits 3, and any other exception exits 4.
"""


class ScnnError(Exception):
    """Base class for all errors raised by this package."""


class DataError(ScnnError):
    """Malformed input file, schema violation, or inconsistent artifact."""


class NumericError(ScnnError):
    """Non-finite value where a finite one is required (loss, gradient, input)."""
