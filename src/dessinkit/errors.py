"""Exception hierarchy shared by all dessinkit modules.

Every error raised on purpose derives from :class:`DessinkitError`, so callers
can tell bad input (exit 2 in the CLI) from a :class:`ResourceLimit` (exit 3)
and from bugs, which the CLI lets propagate.  Parse-type errors also derive
from ``ValueError`` for ergonomic ``except`` clauses.
"""


class DessinkitError(Exception):
    """Base class for all errors raised by dessinkit."""


class ParseError(DessinkitError, ValueError):
    """Malformed textual input (cycle notation, words, files, expressions)."""


class RepeatedPoint(ParseError):
    """A point occurs twice in disjoint-cycle input."""


class PointOutOfRange(ParseError):
    """A cycle mentions a point outside 1..degree."""


class DegreeMismatch(DessinkitError, ValueError):
    """Two permutations of different degrees were combined."""


class NotTransitive(DessinkitError, ValueError):
    """A permutation pair does not generate a transitive group."""


class ResourceLimit(DessinkitError, RuntimeError):
    """A configured cap (degree, memory, order) or a proven range was exceeded."""


class DivisionByZero(DessinkitError, ZeroDivisionError):
    """A zero denominator, or the inverse of the zero map or of zero in a
    tower field."""


class NotCoprime(DessinkitError, ValueError):
    """Parameters that must be coprime are not."""


class SizeGuard(ResourceLimit):
    """A polynomial stage or expression would exceed its size cap."""


class IrrationalCriticalPoints(DessinkitError, ValueError):
    """A map has critical points that are not rational numbers.

    ``cofactor`` holds the offending polynomial factor with no rational roots.
    """

    def __init__(self, message, cofactor=None):
        super().__init__(message)
        self.cofactor = cofactor


class OutOfRange(DessinkitError, ValueError):
    """A numeric argument is outside its required range."""


class FieldMismatch(DessinkitError, ValueError):
    """Two tower elements from different fields were combined."""


class NotAUnit(DessinkitError, ValueError):
    """A residue that must be invertible modulo p is not."""


class DegenerateTriple(DessinkitError, ValueError):
    """Branch-point triple with a repeated entry."""


class BadShape(DessinkitError, ValueError):
    """Word-builder input with the wrong shape (even/empty block list...)."""


class HypothesisFailed(DessinkitError, ValueError):
    """An instance does not satisfy the hypothesis of the check it was fed to."""


class NonIntegralCharacteristic(DessinkitError):
    """Internal consistency failure: the Euler characteristic formula did not
    produce an integer.  This indicates a bug, never a user error."""
