"""Exact truncated multivariate series over a weighted alphabet.

An :class:`Alphabet` lists the simple-module classes in play.  Entry ``i``
carries a residue-field size ``q_i >= 2`` and a matrix size ``r_i >= 1``, so
the free commutative generator ``z_i`` has multiplicative norm ``q_i**r_i``.
Monomials are plain exponent tuples, one slot per entry; their norm is the
product of entry norms raised to the exponents.

A :class:`TruncatedSeries` keeps an integer coefficient for every monomial
of total degree at most ``bound`` and drops everything above: every series
brzeta builds counts submodules, so the ring is over the integers, and a
non-integer coefficient or scalar is refused.  All arithmetic stays inside
that quotient, so two series may be combined only when their alphabets and
bounds agree; re-truncate explicitly with :meth:`TruncatedSeries.truncated`
first.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from operator import add
from typing import Iterable, Mapping

from .errors import (
    AlphabetMismatchError,
    CompletenessWarning,
    NonUnitError,
    SchemaError,
    TruncationBoundError,
)
from .qcomb import prime_power_factors

#: Exponent vector of a monomial; one nonnegative entry per alphabet slot.
Monomial = tuple[int, ...]


def mono_degree(a: Monomial) -> int:
    return sum(a)


def _graded(exps: Monomial) -> tuple[int, Monomial]:
    """The graded order on monomials: total degree first, then exponents."""
    return sum(exps), exps


@dataclass(frozen=True)
class AlphabetEntry:
    label: str
    q: int
    r: int = 1

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise SchemaError("alphabet entry needs a nonempty string label")
        if self.q < 2:
            raise SchemaError(f"entry {self.label!r}: residue size q must be >= 2, got {self.q}")
        if prime_power_factors(self.q) is None:
            raise SchemaError(f"entry {self.label!r}: residue size q must be a prime power, got {self.q}")
        if self.r < 1:
            raise SchemaError(f"entry {self.label!r}: matrix size r must be >= 1, got {self.r}")

    @property
    def norm(self) -> int:
        return self.q**self.r


class Alphabet(tuple):
    """Ordered tuple of entries; fixes the exponent-vector layout."""

    __slots__ = ()

    def __new__(cls, entries: Iterable[AlphabetEntry | tuple]):
        # empty alphabets are legal: the series ring degenerates to constants
        ents = tuple(e if isinstance(e, AlphabetEntry) else AlphabetEntry(*e) for e in entries)
        labels = [e.label for e in ents]
        if len(set(labels)) != len(labels):
            raise SchemaError(f"duplicate alphabet labels in {labels}")
        return super().__new__(cls, ents)

    def __repr__(self) -> str:
        inner = ", ".join(f"{e.label}:q^r={e.q}^{e.r}" for e in self)
        return f"Alphabet({inner})"

    def zero(self) -> Monomial:
        return (0,) * len(self)

    def unit(self, i: int) -> Monomial:
        """Exponent vector of the single generator ``z_i``."""
        return tuple(1 if j == i else 0 for j in range(len(self)))

    def mono_norm(self, exps: Monomial) -> int:
        n = 1
        for e, entry in zip(exps, self):
            if e:
                n *= entry.norm**e
        return n

    def format_monomial(self, exps: Monomial) -> str:
        parts = []
        for e, entry in zip(exps, self):
            if e == 1:
                parts.append(entry.label)
            elif e > 1:
                parts.append(f"{entry.label}^{e}")
        return "*".join(parts) if parts else "1"


def _exact(value) -> int:
    """``value`` as a plain int (a ``bool`` included); anything else is refused."""
    if type(value) is int:
        return value
    if isinstance(value, int):
        return int(value)
    raise SchemaError(f"coefficients and scalars must be integers, got {type(value).__name__}")


def _cleaned(coeffs: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """Ring-op output with its zeros dropped."""
    return {k: c for k, c in coeffs.items() if c}


class TruncatedSeries:
    """Finitely supported exact series, complete through total degree ``bound``."""

    __slots__ = ("alphabet", "bound", "coeffs")

    def __init__(self, alphabet: Alphabet, bound: int, coeffs: Mapping[Monomial, int] | None = None):
        if bound < 0:
            raise TruncationBoundError(f"bound must be >= 0, got {bound}")
        self.alphabet = alphabet
        self.bound = bound
        clean: dict[Monomial, int] = {}
        if coeffs:
            n = len(alphabet)
            for exps, c in coeffs.items():
                exps = tuple(exps)
                if len(exps) != n or any(e < 0 for e in exps):
                    raise SchemaError(f"bad exponent vector {exps} for {n}-entry alphabet")
                c = _exact(c)
                if c and mono_degree(exps) <= bound:
                    clean[exps] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, alphabet: Alphabet, bound: int, clean: dict[Monomial, int]) -> "TruncatedSeries":
        """A series over ``clean``, stored as given.

        For results valid by construction (the ring's own ops, the keyed sum
        of ``hereditary.polynomial_factor``, and the class tables
        ``prolif.SliceBase.orbit_table`` rotates): every key is a valid exponent
        vector of degree <= ``bound`` (>= 0), and every value is a nonzero int.
        """
        out = object.__new__(cls)
        out.alphabet = alphabet
        out.bound = bound
        out.coeffs = clean
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, bound: int) -> "TruncatedSeries":
        return cls(alphabet, bound)

    @classmethod
    def one(cls, alphabet: Alphabet, bound: int) -> "TruncatedSeries":
        return cls(alphabet, bound, {alphabet.zero(): 1})

    @classmethod
    def monomial(cls, alphabet: Alphabet, bound: int, exps: Monomial, coeff=1) -> "TruncatedSeries":
        return cls(alphabet, bound, {tuple(exps): coeff})

    @classmethod
    def powers(cls, alphabet: Alphabet, bound: int, exps: Monomial, coeffs: Iterable) -> "TruncatedSeries":
        """``sum_k coeffs[k] * m**k`` for a monomial ``m`` of degree >= 1.

        ``coeffs`` may be infinite: it is read only while ``m**k`` stays within ``bound``.
        """
        exps = tuple(exps)
        d = mono_degree(exps)
        if d < 1:
            raise TruncationBoundError("a series in powers of a monomial needs degree >= 1")
        terms = zip(range(bound // d + 1), coeffs)
        return cls(alphabet, bound, {tuple(k * e for e in exps): c for k, c in terms})

    @classmethod
    def geometric(cls, alphabet: Alphabet, bound: int, exps: Monomial, scalar=1, length=1, ratio=1) -> TruncatedSeries:
        """The run ``prod_{j<length} (1 - scalar*ratio**j*m)**-1`` as one series;
        ``m`` must have degree >= 1, and ``scalar`` and ``ratio >= 0`` are integers.

        By the q-binomial theorem (Andrews, *The Theory of Partitions*, Thm 3.3)
        coefficient k is ``scalar**k * [length+k-1 choose k]_ratio``, built as a
        running product of q-integer ratios [length+k-1]/[k] with
        [n+1] = 1 + ratio*[n]; every division is exact.  The defaults give the
        single factor ``(1 - m)**-1``; :func:`geometric_product` multiplies a
        run out factor by factor and is the witness of this one.
        """
        scalar, ratio = _exact(scalar), _exact(ratio)

        def coeffs():
            c, top, low = 1, 0, 1  # top = [length+k-1] and low = [k] at coefficient k >= 1
            for _ in range(length):
                top = 1 + ratio * top
            while True:
                yield c
                c, top, low = c * scalar * top // low, 1 + ratio * top, 1 + ratio * low

        return cls.powers(alphabet, bound, exps, coeffs())

    # -- inspection ------------------------------------------------------

    def coefficient(self, exps: Monomial) -> int:
        return self.coeffs.get(tuple(exps), 0)

    @property
    def constant_term(self) -> int:
        return self.coeffs.get(self.alphabet.zero(), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_degree(self) -> int:
        return max((mono_degree(k) for k in self.coeffs), default=0)

    def items(self) -> list[tuple[Monomial, int]]:
        """The nonzero terms in graded order: total degree first, then exponents."""
        return [(k, self.coeffs[k]) for k in sorted(self.coeffs, key=_graded)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.alphabet == other.alphabet
            and self.bound == other.bound
            and self.coeffs == other.coeffs
        )

    def first_disagreement(self, other: "TruncatedSeries"):
        """(monomial, self-coeff, other-coeff) at the least disagreeing monomial, or None."""
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError(f"{self.alphabet!r} vs {other.alphabet!r}")
        cut = min(self.bound, other.bound)
        for k in sorted(set(self.coeffs) | set(other.coeffs), key=_graded):
            if mono_degree(k) > cut:
                break
            a, b = self.coefficient(k), other.coefficient(k)
            if a != b:
                return k, a, b
        return None

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exps, c in self.items():
            mono = self.alphabet.format_monomial(exps)
            if mono == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)

    __repr__ = __str__

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError(f"{self.alphabet!r} vs {other.alphabet!r}")
        if self.bound != other.bound:
            raise TruncationBoundError(f"bound {self.bound} vs {other.bound}; re-truncate explicitly")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries(self.alphabet, self.bound, {self.alphabet.zero(): other})
        self._check_compatible(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return TruncatedSeries._trusted(self.alphabet, self.bound, _cleaned(out))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._trusted(self.alphabet, self.bound, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scaled(other)
        self._check_compatible(other)
        bound = self.bound
        out: dict[Monomial, int] = {}
        # iterate the sparser operand outside; each term's degree is summed once
        a, b = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        inner = [(sum(k), k, c) for k, c in b.coeffs.items()]
        for ka, ca in a.coeffs.items():
            room = bound - sum(ka)
            for db, kb, cb in inner:
                if db > room:
                    continue
                k = tuple(map(add, ka, kb))
                out[k] = out.get(k, 0) + ca * cb
        return TruncatedSeries._trusted(self.alphabet, bound, _cleaned(out))

    __rmul__ = __mul__

    def scaled(self, scalar) -> "TruncatedSeries":
        scalar = _exact(scalar)
        if not scalar:
            return TruncatedSeries.zero(self.alphabet, self.bound)
        out = {k: c * scalar for k, c in self.coeffs.items()}
        return TruncatedSeries._trusted(self.alphabet, self.bound, _cleaned(out))

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        acc = TruncatedSeries.one(self.alphabet, self.bound)
        square = self
        while n:
            if n & 1:
                acc = acc * square
            n >>= 1
            if n:
                square = square * square
        return acc

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a constant term of 1 or -1.

        Graded recurrence (Knuth, TAOCP vol. 2, 4.7): with c the constant term,
        the degree-d part of the inverse is h_d = -(1/c) * sum_{a>=1} f_a * h_{d-a},
        where f_a is the degree-a part of the series.  One pass per degree.
        Over the integers c must be a unit, so 1/c = c.
        """
        inv = self.constant_term
        if inv not in (1, -1):
            raise NonUnitError(f"cannot invert a series with constant term {inv}: not a unit of the integers")
        zero = self.alphabet.zero()
        bound = self.bound
        f_parts: list[list[tuple[Monomial, int]]] = [[] for _ in range(bound + 1)]
        for k, fk in self.coeffs.items():
            f_parts[sum(k)].append((k, fk))
        h_parts = [[(zero, inv)]]
        out = {zero: inv}
        for d in range(1, bound + 1):
            acc: dict[Monomial, int] = {}
            for a in range(1, d + 1):
                for ka, fa in f_parts[a]:
                    for kh, hh in h_parts[d - a]:
                        k = tuple(map(add, ka, kh))
                        acc[k] = acc.get(k, 0) + fa * hh
            part = _cleaned({k: -inv * v for k, v in acc.items()})
            h_parts.append(list(part.items()))
            out.update(part)
        return TruncatedSeries._trusted(self.alphabet, bound, out)

    # -- truncation management ----------------------------------------------

    def truncated(self, new_bound: int) -> "TruncatedSeries":
        """Forget coefficients above ``new_bound`` (must not exceed ``bound``)."""
        if new_bound > self.bound:
            raise TruncationBoundError(
                f"cannot raise bound {self.bound} -> {new_bound} without new information; "
                "use extended() only on exact polynomials"
            )
        if new_bound < 0:
            raise TruncationBoundError(f"bound must be >= 0, got {new_bound}")
        out = {k: c for k, c in self.coeffs.items() if sum(k) <= new_bound}
        return TruncatedSeries._trusted(self.alphabet, new_bound, out)

    def extended(self, new_bound: int) -> "TruncatedSeries":
        """Restate an exact polynomial at a larger bound.

        Only sound when the series is complete (nothing was ever dropped);
        the caller asserts that.
        """
        if new_bound < self.bound:
            return self.truncated(new_bound)
        return TruncatedSeries._trusted(self.alphabet, new_bound, self.coeffs)

    # -- substitution ---------------------------------------------------------

    def substitute(
        self,
        out_alphabet: Alphabet,
        mapping: Mapping[int, tuple],
        out_bound: int | None = None,
    ) -> "TruncatedSeries":
        """Push through the monomial substitution ``z_i -> scalar_i * m_i``.

        ``mapping[i] = (scalar_i, exps_i)`` with ``exps_i`` an exponent vector
        over ``out_alphabet`` of total degree >= 1 and ``scalar_i`` a positive
        integer.  Truncation stays sound because any dropped source monomial
        (degree > ``self.bound``) lands above ``(self.bound+1)*t_min``, which
        must exceed ``out_bound``.
        """
        n = len(self.alphabet)
        if set(mapping) != set(range(n)):
            raise SchemaError(f"substitution must map every entry index 0..{n - 1}")
        scalars: list[int] = []
        targets: list[Monomial] = []
        m = len(out_alphabet)
        t_min = None
        for i in range(n):
            scalar, exps = mapping[i]
            scalar = _exact(scalar)
            exps = tuple(exps)
            if scalar <= 0:
                raise SchemaError(f"substitution scalar for entry {i} must be positive, got {scalar}")
            if len(exps) != m or min(exps, default=0) < 0:
                raise SchemaError(f"bad target exponent vector {exps} over {m}-entry alphabet")
            d = sum(exps)
            if d < 1:
                raise TruncationBoundError(f"target for entry {i} has degree 0; truncation would be unsound")
            if t_min is None or d < t_min:
                t_min = d
            scalars.append(scalar)
            targets.append(exps)
        if out_bound is None:
            out_bound = self.bound
        if out_bound >= (self.bound + 1) * t_min:
            raise TruncationBoundError(
                f"out_bound {out_bound} not certified by source bound {self.bound} "
                f"with min target degree {t_min}"
            )
        if out_bound < 0:
            raise TruncationBoundError(f"bound must be >= 0, got {out_bound}")
        out: dict[Monomial, int] = {}
        for exps, c in self.coeffs.items():
            acc = [0] * m
            val = c
            for e, t, scalar in zip(exps, targets, scalars):
                if e:
                    for j, x in enumerate(t):
                        if x:
                            acc[j] += x * e
                    val *= scalar**e
            key = tuple(acc)
            if sum(key) <= out_bound:
                out[key] = out.get(key, 0) + val
        return TruncatedSeries._trusted(out_alphabet, out_bound, _cleaned(out))

    # -- Dirichlet extraction ------------------------------------------------

    def dirichlet_coeffs(self, n_max: int) -> dict[int, int]:
        """Coefficients of the Dirichlet series ``z_i -> norm_i**-s``, by norm <= n_max.

        Warns when the truncation cannot certify completeness, i.e. when a
        dropped degree-(bound+1) monomial could still have norm <= n_max.
        """
        q_min = min((e.norm for e in self.alphabet), default=None)
        if q_min is not None and q_min ** (self.bound + 1) <= n_max:
            warnings.warn(
                f"norms up to {n_max} may receive contributions beyond degree {self.bound} "
                f"(min entry norm {q_min}); coefficients are a lower truncation",
                CompletenessWarning,
                stacklevel=2,
            )
        out: dict[int, int] = {}
        for exps, c in self.coeffs.items():
            n = self.alphabet.mono_norm(exps)
            if n <= n_max:
                out[n] = out.get(n, 0) + c
        return {n: out[n] for n in sorted(out) if out[n]}


def geometric_product(
    alphabet: Alphabet, bound: int, factors: Iterable[tuple[Monomial, int]]
) -> TruncatedSeries:
    """``prod (1 - scalar*m)**-1`` over ``(exps, scalar)`` pairs, each ``m`` of degree >= 1."""
    out = TruncatedSeries.one(alphabet, bound)
    for exps, scalar in factors:
        out = out * TruncatedSeries.geometric(alphabet, bound, exps, scalar)
    return out


def split_trailing(series: TruncatedSeries, first_count: int) -> dict[Monomial, TruncatedSeries]:
    """Split a series over a two-block alphabet by its trailing-block monomials.

    The alphabet is read as ``first_count`` leading entries plus a trailing
    block.  Each key h is a trailing exponent vector that occurs; its value is
    the series over the leading block that multiplies h, complete through
    ``bound - degree(h)``.
    """
    parts: dict[Monomial, dict[Monomial, int]] = {}
    for k, c in series.coeffs.items():
        parts.setdefault(k[first_count:], {})[k[:first_count]] = c
    sub_alphabet = Alphabet(series.alphabet[:first_count])
    return {h: TruncatedSeries._trusted(sub_alphabet, series.bound - mono_degree(h), c) for h, c in parts.items()}
