"""Shared exception types, and the integer check for JSON payload fields."""


class BrzetaError(Exception):
    """Base class for package errors."""


class SchemaError(BrzetaError):
    """Malformed input data: alphabets, JSON payloads, model descriptions."""


class AlphabetMismatchError(BrzetaError):
    """Operands live over different alphabets."""


class TruncationBoundError(BrzetaError):
    """Truncation bounds are incompatible or a substitution would be unsound."""


class NonUnitError(BrzetaError):
    """Inversion of a series whose constant term vanishes."""


class FormulaViolationError(BrzetaError):
    """Two routes that must agree exactly produced different values."""

    def __init__(self, message, monomial=None, expected=None, actual=None):
        if monomial is not None:
            message = f"{message} [monomial={monomial} expected={expected} actual={actual}]"
        super().__init__(message)
        self.monomial = monomial
        self.expected = expected
        self.actual = actual


class ResourceBudgetError(BrzetaError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, message, required=None, budget=None):
        if required is not None:
            message = f"{message} (required {required}, budget {budget})"
        super().__init__(message)
        self.required = required
        self.budget = budget


class CompletenessWarning(UserWarning):
    """Dirichlet coefficients requested beyond what the truncation certifies."""


def as_int(value, name: str) -> int:
    """``int(value)`` for a payload field; a bool, a fractional number or a non-number is a SchemaError."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{name} must be an integer, got {value!r}") from exc
