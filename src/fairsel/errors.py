"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError -> 2, anything else
derived from FairselError -> 3. Usage problems never reach here.
"""


class FairselError(Exception):
    """Base class for all errors raised by this package."""


class DataError(FairselError):
    """Malformed or unusable input data (CSV, spec file, checkpoint)."""


class DegenerateGroupError(DataError):
    """A group or class required by a metric is empty.

    Raised instead of silently returning zero, which would fake fairness.
    """


class DimensionError(FairselError):
    """Shape contract violation between caller-supplied arrays."""

    def __init__(self, what, expected, actual):
        super().__init__(f"{what}: expected {expected}, got {actual}")


class NumericalError(FairselError):
    """Non-finite values or diverging optimization."""
