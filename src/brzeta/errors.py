"""Shared exception types, and the integer and class-vector checks for payload fields."""


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


def class_vector(values, n: int) -> tuple[int, ...]:
    """A class vector as a tuple of n multiplicities, each read by :func:`as_int` and >= 0; else a SchemaError."""
    vec = tuple(as_int(x, "class multiplicity") for x in values)
    if len(vec) != n or any(x < 0 for x in vec):
        raise SchemaError(f"class vector needs {n} multiplicities >= 0, got {vec}")
    return vec
