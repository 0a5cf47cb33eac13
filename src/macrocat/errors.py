"""Exception and warning taxonomy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1,
numerical/domain failures exit 2, I/O failures exit 3.
"""


class ConfigError(Exception):
    """Invalid configuration document or parameter set."""


class NumericError(Exception):
    """A computation failed or was requested outside its domain of validity."""


class InternalConsistencyError(NumericError):
    """A mathematical invariant the implementation relies on was violated."""


class TruncationWarning(UserWarning):
    """Fock-space truncation is too tight for the requested operation.

    Recoverable: results are still returned, but trailing-diagonal
    population exceeds the accepted budget and accuracy degrades.
    """
