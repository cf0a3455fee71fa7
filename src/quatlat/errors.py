"""Exception types raised by the library.

Every domain error derives from QuatlatError so callers (and the CLI) can
catch the whole family at once.  ParseError additionally carries the input
position at which scanning a quaternion literal failed.

Argument errors outside the domain raise a plain ValueError, which
QuatlatError does not catch: a `side` other than "left" or "right", an
unknown pair-fraction `convention`, a negative or non-integer power.
"""

import sys

__all__ = [
    "QuatlatError",
    "MixedParity",
    "ZeroInput",
    "NotLipschitz",
    "DivisionByZero",
    "BothZero",
    "NotPrimitive",
    "BoundExceeded",
    "BadResidueClass",
    "NotRepresentable",
    "ModelMismatch",
    "PreconditionViolated",
    "EvenNorm",
    "DimensionMismatch",
    "ParseError",
]


def _shown(value) -> str:
    """str(value) for an error message, or a stand-in where str() raises
    ValueError, on an integer past sys.get_int_max_str_digits()."""
    try:
        return str(value)
    except ValueError:
        return f"<a number of more than {sys.get_int_max_str_digits()} digits>"


class QuatlatError(Exception):
    """Base class for quatlat's domain errors; see the module docstring."""


class MixedParity(QuatlatError):
    """Doubled coordinates are neither all even nor all odd."""


class ZeroInput(QuatlatError):
    """An argument that must be nonzero was zero."""


class NotLipschitz(QuatlatError):
    """A Lipschitz (integer-coordinate) quaternion was required."""


class DivisionByZero(QuatlatError, ZeroDivisionError):
    """Quaternion division by zero."""


class BothZero(QuatlatError):
    """gcd of two zeros is undefined."""


class NotPrimitive(QuatlatError):
    """A primitive quaternion (content 1) was required."""


class BoundExceeded(QuatlatError):
    """An enumeration was requested past the fixed enumeration bound."""


class BadResidueClass(QuatlatError):
    """An integer argument lies in a residue class the operation cannot handle."""


class NotRepresentable(QuatlatError):
    """The integer admits no representation of the requested form."""


class ModelMismatch(QuatlatError):
    """A factorization model does not match the quaternion it is applied to."""


class PreconditionViolated(QuatlatError):
    """An argument fails a documented precondition not covered by a sharper error."""


class EvenNorm(QuatlatError):
    """An odd-norm quaternion was required."""


class DimensionMismatch(QuatlatError):
    """Vector dimensions do not fit the requested operation."""


class ParseError(QuatlatError):
    """A textual literal could not be parsed.

    Attributes:
        position: index into the input string where scanning failed.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
