"""Exception types shared across the package."""


class TriplepackError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(TriplepackError, ValueError):
    """Arguments violate a documented precondition."""


class WrongCaseError(TriplepackError):
    """A constructor was called on (n, k) outside its residue case."""


class InfeasibleSequenceError(TriplepackError):
    """Degree sequence is not realizable as a simple graph."""


class NTooSmallError(TriplepackError):
    """n is below the vertex floor of a construction.

    Carries ``min_n``, the smallest n (in the same residue class or not)
    for which the construction goes through.
    """

    def __init__(self, msg, min_n=None):
        super().__init__(msg)
        self.min_n = min_n


class ParameterSearchExhaustedError(TriplepackError):
    """The bounded gadget-parameter search found no admissible combination."""
