"""Exception types shared across the package.

Each class states as `exit_code` the code the CLI exits with when it is raised.
`ConfigError` and `DataError` are also `ValueError`s, so a caller that catches
`ValueError` catches them too.
"""


class ContactNetError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(ContactNetError, ValueError):
    """Invalid CLI usage or experiment configuration."""
    exit_code = 1


class DataError(ContactNetError, ValueError):
    """Input data is malformed or unsuitable for the requested operation."""
    exit_code = 2


class ParseError(DataError):
    """Malformed input file. Carries a 1-based line number when known."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class UndefinedStatisticError(DataError):
    """The requested statistic is undefined for this graph (e.g. density with N < 2)."""


class FitError(DataError):
    """The model cannot be fitted to the given graph or partition."""


class NumericError(ContactNetError):
    """A numerical routine failed (non-convergence, singular scaling)."""
    exit_code = 3
