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
from .series import Alphabet, AlphabetEntry, TruncatedSeries


@dataclass(frozen=True)
class SemisimpleEntry:
    """One simple class: residue field size q, multiplicity m, norm q**r."""

    label: str
    q: int
    m: int
    r: int = 1

    def __post_init__(self):
        # q and r are checked by the alphabet the data builds
        if self.m < 0:
            raise SchemaError(f"multiplicity must be >= 0, got {self.m}")


class SemisimpleData:
    """Ordered simple classes describing a module split along its top."""

    def __init__(self, entries):
        # zero classes is legal: the zero module, whose count is 1
        self.entries = tuple(entries)
        self._alphabet = Alphabet(AlphabetEntry(e.label, e.q, e.r) for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SemisimpleData) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SemisimpleData({list(self.entries)!r})"

    def alphabet(self) -> Alphabet:
        return self._alphabet

    @classmethod
    def from_specs(cls, specs) -> "SemisimpleData":
        """Build from (q, m) or (q, m, r) tuples; labels default to z / z1..zn."""
        specs = list(specs)
        entries = []
        for i, s in enumerate(specs):
            q, m, *rest = s
            r = rest[0] if rest else 1
            label = "z" if len(specs) == 1 else f"z{i + 1}"
            entries.append(SemisimpleEntry(label, int(q), int(m), int(r)))
        return cls(entries)

    @classmethod
    def from_json(cls, payload) -> "SemisimpleData":
        if isinstance(payload, dict):
            payload = payload.get("entries", payload.get("classes", payload))
        if not isinstance(payload, (list, tuple)):
            raise SchemaError("semisimple data must be a list of class objects")
        entries = []
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
            entries.append(SemisimpleEntry(label, q, m, r))
        return cls(entries)


def hey_product(data: SemisimpleData, bound: int) -> TruncatedSeries:
    """Submodule-class generating series of the split module, as a product.

    Class i of multiplicity m_i over a size-q_i residue field contributes the
    run ``prod_{j=0}^{m_i - 1} (1 - q_i^j z_i)^{-1}``, expanded as one series
    by the q-binomial theorem (:meth:`TruncatedSeries.geometric`); the
    z_i-exponent records the colength class along that block.
    """
    al = data.alphabet()
    out = TruncatedSeries.one(al, bound)
    for i, e in enumerate(data.entries):
        out = out * TruncatedSeries.geometric(al, bound, al.unit(i), 1, e.m, e.q)
    return out


def moebius_inverse_series(data: SemisimpleData, bound: int) -> TruncatedSeries:
    """The exact reciprocal ``prod_i prod_{j<m_i} (1 - q_i^j z_i)``.

    Multiplying by :func:`hey_product` at the same bound gives 1; the signed
    coefficients are the alternating q-powered subspace counts.
    """
    al = data.alphabet()
    out = TruncatedSeries.one(al, bound)
    for i, e in enumerate(data.entries):
        out = out * TruncatedSeries.powers(al, bound, al.unit(i), cauchy_poly(e.m, e.q))
    return out
