"""Exception and warning taxonomy shared across the package.

The CLI maps these onto exit codes: a value outside the documented domain
of a config field or of a kernel's argument exits 1 (:class:`ConfigError`),
a computation that fails on a valid input exits 2 (:class:`NumericError`,
also raised when an invariant the code relies on breaks, such as the MLE's
likelihood falling), an I/O failure exits 3.
"""


class ConfigError(ValueError):
    """Invalid configuration, or an argument outside a kernel's documented domain."""


class NumericError(Exception):
    """A computation failed on a valid input, or broke an invariant it relies on."""


class TruncationWarning(UserWarning):
    """Fock-space truncation is too tight for the requested operation.

    Recoverable: results are still returned, but trailing-diagonal
    population exceeds the accepted budget and accuracy degrades.
    """
