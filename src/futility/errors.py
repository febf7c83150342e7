"""Exception types shared across the package."""


class FutilityError(Exception):
    """Base class for all package errors."""


class DomainMismatch(FutilityError):
    """Operands belong to different coefficient domains."""


class NotInvertible(FutilityError):
    """Element has no multiplicative inverse; carries a gcd witness for Z/n."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsupportedDomain(FutilityError):
    """Operation is not defined over this coefficient domain."""


class CharacteristicZero(FutilityError):
    """Frobenius-based operation requested over a characteristic-zero domain."""


class DimensionMismatch(FutilityError):
    """Vector or matrix size does not match the ambient dimension."""


class ZeroPolynomial(FutilityError):
    """The zero polynomial was passed where a nonzero one is required."""


class DegreeBoundExceeded(FutilityError):
    """Polynomial degree exceeds the configured factorization bound."""


class NotAnIdeal(FutilityError):
    """Subspace is not closed under multiplication by the ambient algebra."""


class NotAField(FutilityError):
    """A zero divisor was met while inverting; carries the witness element."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceeded(FutilityError):
    """Work would exceed a budget: an exhaustive enumeration over its
    configured budget, or an input past a size cap (a case expression's
    exponent or degree, an algebra's dimension)."""


class SearchBudgetExceeded(FutilityError):
    """Randomized search gave up; distinct from a proven negative result."""


class BaseNotLocalArtinian(FutilityError):
    """Base presentation fails the local artinian validation."""


class MalformedPresentation(FutilityError):
    """Integer algebra presentation is inconsistent."""


class NotApplicable(FutilityError):
    """Input does not have the shape this construction requires."""


class InapplicableCommand(FutilityError):
    """CLI command does not apply to the case's coefficient domain."""


class ParseError(FutilityError):
    """Located syntax error in a case file or polynomial expression."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}, col {col})"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class UnreadableCase(FutilityError):
    """A case file or golden could not be read as UTF-8 text, a golden could
    not be written, or a corpus directory holds no case file."""


class ValidationError(FutilityError):
    """Case parsed but failed semantic validation."""
