"""Exception hierarchy shared across the package.

Each class carries the process exit code the command line returns for it,
so raising the right subclass matters: ParameterError and any other
SslogitError -> 1, DataError -> 2, NumericalError -> 3.
"""


class SslogitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParameterError(SslogitError):
    """Invalid argument, configuration value, or grid specification."""


class DataError(SslogitError):
    """Malformed, empty, or inconsistent input data."""

    exit_code = 2


class NumericalError(SslogitError):
    """Linear algebra failure that survives the defensive retries."""

    exit_code = 3
