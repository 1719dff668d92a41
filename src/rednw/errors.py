"""Error taxonomy shared by the library and the CLI.

The CLI maps each family to a fixed process exit code, so library code must
raise the most specific class that applies: bad arguments or configuration
(exit 2), malformed or unusable input data (exit 3), and numeric failures of
an otherwise well-posed computation (exit 4).
"""


class RednwError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ArgumentError(RednwError):
    """Invalid argument, option, or configuration (exit code 2)."""

    exit_code = 2


class DataError(RednwError):
    """Unusable input data: parse failures, bad columns, bad rows (exit code 3)."""

    exit_code = 3


class NumericError(RednwError):
    """A well-posed computation failed numerically (exit code 4)."""

    exit_code = 4


class DegenerateFitError(NumericError):
    """A reduction fit has no signal to work with (e.g. zero covariance)."""


class AmbiguousRankError(NumericError):
    """Projection eigenvalues do not separate rank d from rank d+1."""
