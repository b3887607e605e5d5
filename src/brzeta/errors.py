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
    """A payload field as an int: a non-bool int, or a float with an integer value; anything else is a SchemaError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value
