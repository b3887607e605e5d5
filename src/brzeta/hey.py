"""Submodule-counting products for modules split along their simple classes.

A module over a semilocal order whose blocks are maximal has its lattice zeta
function split as a product over simple classes: the class with residue field
size q and multiplicity m contributes ``prod_{j=0}^{m-1} (1 - q^j z)^{-1}``.
The reciprocal polynomial (signed, q-powered subspace counts) inverts it
exactly, giving a fast in-package consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchemaError, as_int
from .qcomb import cauchy_poly
from .series import Alphabet, TruncatedSeries


def _multiplicity(m: int) -> int:
    if m < 0:
        raise SchemaError(f"multiplicity must be >= 0, got {m}")
    return m


@dataclass(frozen=True)
class SemisimpleData:
    """A module split along its top: one alphabet entry per simple class (its
    label, residue field size q and norm q**r) and the class multiplicities
    ``ms``, each >= 0.  Zero classes is legal: the zero module, whose count is 1.

    The constructors check each multiplicity before they build the alphabet,
    which checks q, r and the labels.
    """

    alphabet: Alphabet
    ms: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ms", tuple(map(_multiplicity, self.ms)))
        if len(self.ms) != len(self.alphabet):
            raise SchemaError(f"{len(self.alphabet)} classes need {len(self.alphabet)} multiplicities, got {self.ms}")

    @property
    def top(self) -> tuple[int, ...]:
        """The class vector of the module's top: its multiplicities."""
        return self.ms

    @classmethod
    def from_specs(cls, specs) -> "SemisimpleData":
        """Build from (q, m) or (q, m, r) tuples; labels default to z / z1..zn."""
        return cls.from_json([dict(zip(("q", "m", "r"), spec)) for spec in specs])

    @classmethod
    def from_json(cls, payload) -> "SemisimpleData":
        if isinstance(payload, dict):
            payload = payload.get("entries", payload.get("classes", payload))
        if not isinstance(payload, (list, tuple)):
            raise SchemaError("semisimple data must be a list of class objects")
        entries, ms = [], []
        for i, item in enumerate(payload):
            if not isinstance(item, dict):
                raise SchemaError(f"class {i} must be an object, got {type(item).__name__}")
            try:
                q = as_int(item["q"], "q")
                m = as_int(item["m"], "m")
                r = as_int(item.get("r", 1), "r")
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(
                    f"class {i} needs integer fields q and m (and r, if given): {exc}"
                ) from exc
            label = item.get("label", "z" if len(payload) == 1 else f"z{i + 1}")
            if not isinstance(label, str) or not label:
                raise SchemaError(f"class {i}: label must be a nonempty string, got {label!r}")
            ms.append(_multiplicity(m))
            entries.append((label, q, r))
        return cls(Alphabet(entries), tuple(ms))


def hey_product(data: SemisimpleData, bound: int) -> TruncatedSeries:
    """Submodule-class generating series of the split module, as a product.

    Class i of multiplicity m_i over a size-q_i residue field contributes the
    run ``prod_{j=0}^{m_i - 1} (1 - q_i^j z_i)^{-1}``, expanded as one series
    by the q-binomial theorem (:meth:`TruncatedSeries.geometric`); the
    z_i-exponent records the colength class along that block.
    """
    al = data.alphabet
    out = TruncatedSeries.one(al, bound)
    for i, (e, m) in enumerate(zip(al, data.ms)):
        out = out * TruncatedSeries.geometric(al, bound, al.unit(i), 1, m, e.q)
    return out


def moebius_inverse_series(data: SemisimpleData, bound: int) -> TruncatedSeries:
    """The exact reciprocal ``prod_i prod_{j<m_i} (1 - q_i^j z_i)``.

    Multiplying by :func:`hey_product` at the same bound gives 1; the signed
    coefficients are the alternating q-powered subspace counts.
    """
    al = data.alphabet
    out = TruncatedSeries.one(al, bound)
    for i, (e, m) in enumerate(zip(al, data.ms)):
        out = out * TruncatedSeries.powers(al, bound, al.unit(i), cauchy_poly(m, e.q))
    return out
