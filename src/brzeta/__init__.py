"""Exact truncated zeta functions of modules over semilocal orders.

Submodule-counting generating functions are represented as truncated
multivariate power series with integer coefficients, one variable per simple
module class: every coefficient counts submodules.  Closed-form engines
(product formulas, recursive assembly over chain data, two-variable
hereditary counts) are verified against a brute-force submodule enumerator
over explicit matrix models.
"""

from .errors import (
    AlphabetMismatchError,
    BrzetaError,
    CompletenessWarning,
    FormulaViolationError,
    NonUnitError,
    ResourceBudgetError,
    SchemaError,
    TruncationBoundError,
)
from .series import Alphabet, AlphabetEntry, TruncatedSeries, split_trailing

__all__ = [
    "Alphabet",
    "AlphabetEntry",
    "TruncatedSeries",
    "split_trailing",
    "BrzetaError",
    "SchemaError",
    "AlphabetMismatchError",
    "TruncationBoundError",
    "NonUnitError",
    "FormulaViolationError",
    "ResourceBudgetError",
    "CompletenessWarning",
]

__version__ = "0.1.0"
