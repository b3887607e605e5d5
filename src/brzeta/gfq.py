"""Exact linear algebra over small finite fields GF(q), q = p^e <= 256.

Field elements are integers ``0..q-1`` encoding polynomials over F_p in base
p.  All arithmetic goes through lookup tables held as tuples, so prime and
prime-power fields share one rref and one matrix-product loop, written in
plain Python over matrices held as lists of rows.  Subspaces are held in
reduced-row-echelon canonical form as tuples of rows, which makes them
hashable and makes equality a tuple comparison; ``SubspaceRep.extend`` grows
one by new rows without reducing its basis again, and the rows it reports
as new span the bigger space modulo the old one, which is all the oracle
needs of a quotient.  The one enumeration,
:func:`enumerate_subspaces`, serves the brute-force oracle; it counts its
output first (Gaussian binomials) and refuses to exceed the budget.  Chains of
subspaces are not enumerated here: the closed engines count them with
Gaussian binomials.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .errors import ResourceBudgetError, SchemaError
from .qcomb import gaussian_binomial, prime_power_factors

DEFAULT_BUDGET = 200_000

#: monic irreducible moduli over F_p, coefficients low -> high
BUILTIN_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
}

Tables = namedtuple("Tables", "add mul neg inv")


# -- field construction ------------------------------------------------------


def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo monic m, coefficients over F_p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _poly_trim(a)


def _poly_is_irreducible(m: tuple[int, ...], p: int) -> bool:
    deg = len(m) - 1
    if deg < 1 or m[-1] != 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = _poly_trim(tail + (1,))
            if len(divisor) - 1 != d:
                continue
            if not _poly_mod(m, divisor, p):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^e) with an explicit monic irreducible modulus (ignored when e=1)."""

    p: int
    e: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.e

    def encode(self, coeffs) -> int:
        v = 0
        for c in reversed(tuple(coeffs) + (0,) * (self.e - len(coeffs))):
            v = v * self.p + c % self.p
        return v

    def decode(self, value: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            out.append(value % self.p)
            value //= self.p
        return tuple(out)


def GF(q: int, modulus=None) -> FieldSpec:
    """Build a field spec; moduli for q in {4, 8, 9, 16} are built in.

    Other prime-power sizes up to 256 need an explicit monic irreducible
    ``modulus`` (coefficients low to high, length e+1); larger fields are out
    of scope.
    """
    if q > 256:
        raise SchemaError(f"fields beyond q=256 are out of scope, got q={q}")
    factors = prime_power_factors(q)
    if factors is None:
        raise SchemaError(f"field size must be a prime power, got {q}")
    p, e = factors
    if e == 1:
        return FieldSpec(p, 1, (0, 1))
    if modulus is None:
        if q in BUILTIN_MODULI:
            modulus = BUILTIN_MODULI[q]
        else:
            raise SchemaError(f"no built-in modulus for q={q}; supply a monic irreducible of degree {e}")
    modulus = tuple(int(c) % p for c in modulus)
    if len(modulus) != e + 1 or modulus[-1] != 1:
        raise SchemaError(f"modulus must be monic of degree {e}, got {modulus}")
    if not _poly_is_irreducible(modulus, p):
        raise SchemaError(f"modulus {modulus} is reducible over F_{p}")
    return FieldSpec(p, e, modulus)


@lru_cache(maxsize=None)
def tables(field: FieldSpec) -> Tables:
    """Addition, multiplication, negation and inverse tables as tuples; ``inv[0]`` is 0."""
    q, p = field.q, field.p
    if field.e == 1:
        add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
        mul = tuple(tuple(a * b % q for b in range(q)) for a in range(q))
        neg = tuple(-a % q for a in range(q))
    else:
        polys = [field.decode(v) for v in range(q)]
        add = tuple(
            tuple(field.encode(tuple((x + y) % p for x, y in zip(pa, pb))) for pb in polys) for pa in polys
        )
        mul = tuple(
            tuple(
                field.encode(_poly_mod(_poly_mul(_poly_trim(pa), _poly_trim(pb), p), field.modulus, p))
                for pb in polys
            )
            for pa in polys
        )
        neg = tuple(field.encode(tuple(-c % p for c in pa)) for pa in polys)
    inv = [0] * q
    for a in range(1, q):
        if mul[a].count(1) != 1:
            raise SchemaError(f"element {a} of GF({q}) has no unique inverse; bad modulus?")
        inv[a] = mul[a].index(1)
    return Tables(add, mul, neg, tuple(inv))


# -- matrices -----------------------------------------------------------------
#
# A matrix is a sequence of rows, each a sequence of field elements; results
# are lists of row lists.  A matrix with no rows carries no width.


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rref(field: FieldSpec, mat) -> tuple[list[list[int]], int, list[int]]:
    """RREF copy (zero rows last), rank, and pivot columns."""
    add, mul, neg, inv = tables(field)
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if a else 0
    pivots = []
    for c in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        for p in range(rank, rows):
            if a[p][c]:
                break
        else:
            continue
        a[rank], a[p] = a[p], a[rank]
        top = a[rank]
        if top[c] != 1:
            scale = mul[inv[top[c]]]
            top = a[rank] = [scale[x] for x in top]
        for r in range(rows):
            f = a[r][c]
            if f and r != rank:
                m = mul[neg[f]]
                a[r] = [add[x][m[y]] for x, y in zip(a[r], top)]
        pivots.append(c)
    return a, len(pivots), pivots


def mat_mul(field: FieldSpec, a, b) -> list[list[int]]:
    """Product a·b, accumulated one row of ``b`` at a time."""
    add, mul = tables(field)[:2]
    if a and len(a[0]) != len(b):
        raise SchemaError(f"matmul shape mismatch {len(a)}x{len(a[0])} x {len(b)} rows")
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, brow in zip(row, b):
            if x:
                m = mul[x]
                acc = [add[s][m[y]] for s, y in zip(acc, brow)]
        out.append(acc)
    return out


class SubspaceRep:
    """Row space in RREF canonical form; hashable, equality by its rows."""

    __slots__ = ("field", "ambient", "rows", "pivots", "_key")

    def __init__(self, field: FieldSpec, ambient: int, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(row) for row in rows)
        self.pivots = tuple(pivots)
        self._key = (field, ambient, self.rows)

    @classmethod
    def from_rows(cls, field: FieldSpec, ambient: int, mat) -> "SubspaceRep":
        if any(len(row) != ambient for row in mat):
            raise SchemaError(f"rows must have {ambient} columns, the ambient dimension")
        r, rank, piv = rref(field, mat)
        return cls(field, ambient, r[:rank], piv)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, SubspaceRep) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"SubspaceRep(dim={self.dim}, ambient={self.ambient}, q={self.field.q})"

    def reduce(self, mat) -> list[list[int]]:
        """Eliminate this space's pivot columns from the given rows (a copy)."""
        return [list(row) for row in _eliminate(self.field, mat, self.pivots, self.rows)]

    def extend(self, mat) -> tuple["SubspaceRep", list[tuple[int, ...]]]:
        """This space plus the row space of ``mat``, and the rows that are new.

        The given rows are reduced against this basis, only their residue is
        echelonized, and the residue's pivots are eliminated from the old
        basis rows; the result equals ``from_rows(self.rows + mat)`` without
        reducing the old basis again.  The new rows are the residue's RREF
        rows: rows of the bigger basis that span it modulo this space.
        """
        if any(len(row) != self.ambient for row in mat):
            raise SchemaError(f"rows must have {self.ambient} columns, the ambient dimension")
        residue = [row for row in _eliminate(self.field, mat, self.pivots, self.rows) if any(row)]
        if not residue:
            return self, []
        echelon, rank, new_pivots = rref(self.field, residue)
        new = [tuple(row) for row in echelon[:rank]]
        old = _eliminate(self.field, self.rows, new_pivots, new)
        merged = sorted(zip((*self.pivots, *new_pivots), (*old, *new)), key=lambda pr: pr[0])
        bigger = SubspaceRep(self.field, self.ambient, [row for _, row in merged], [c for c, _ in merged])
        return bigger, new

    def contains(self, other: "SubspaceRep") -> bool:
        if other.dim > self.dim:
            return False
        return not any(any(row) for row in self.reduce(other.rows))


def _eliminate(field: FieldSpec, mat, pivots, basis) -> list:
    """Clear each pivot column of ``basis`` (unit at its pivot) from every row of ``mat``."""
    add, mul, neg, _ = tables(field)
    out = []
    for row in mat:
        for c, brow in zip(pivots, basis):
            f = row[c]
            if f:
                m = mul[neg[f]]
                row = [add[x][m[y]] for x, y in zip(row, brow)]
        out.append(row)
    return out


def zero_space(field: FieldSpec, ambient: int) -> SubspaceRep:
    return SubspaceRep(field, ambient, (), ())


def full_space(field: FieldSpec, ambient: int) -> SubspaceRep:
    return SubspaceRep(field, ambient, identity(ambient), range(ambient))


def row_space(field: FieldSpec, mat, ambient: int | None = None) -> SubspaceRep:
    if ambient is None:
        ambient = len(mat[0]) if mat else 0
    return SubspaceRep.from_rows(field, ambient, mat)


def left_kernel(field: FieldSpec, mat) -> SubspaceRep:
    """All row vectors v with v·mat = 0; ambient = number of rows of mat."""
    k = len(mat)
    if k == 0:
        return zero_space(field, 0)
    d = len(mat[0])
    aug = [list(row) + unit for row, unit in zip(mat, identity(k))]
    r, rank, piv = rref(field, aug)
    return SubspaceRep.from_rows(field, k, [r[i][d:] for i in range(rank) if piv[i] >= d])


def subspace_sum(a: SubspaceRep, b: SubspaceRep) -> SubspaceRep:
    _check_same_space(a, b)
    return a.extend(b.rows)[0]


def intersection(a: SubspaceRep, b: SubspaceRep) -> SubspaceRep:
    _check_same_space(a, b)
    if a.dim == 0 or b.dim == 0:
        return zero_space(a.field, a.ambient)
    ker = left_kernel(a.field, a.rows + b.rows)
    if ker.dim == 0:
        return zero_space(a.field, a.ambient)
    vecs = mat_mul(a.field, [row[: a.dim] for row in ker.rows], a.rows)
    return SubspaceRep.from_rows(a.field, a.ambient, vecs)


def _check_same_space(a: SubspaceRep, b: SubspaceRep):
    if a.field != b.field or a.ambient != b.ambient:
        raise SchemaError(f"subspace mismatch: {a!r} vs {b!r}")


# -- enumeration ---------------------------------------------------------------


def enumerate_subspaces(
    field: FieldSpec,
    ambient: int,
    dims=None,
    budget: int = DEFAULT_BUDGET,
) -> list[SubspaceRep]:
    """All subspaces of F_q^ambient (optionally of given dimensions), RREF order.

    The exact count is computed first; exceeding ``budget`` raises
    ResourceBudgetError carrying the required count.
    """
    if dims is None:
        dim_list = list(range(ambient + 1))
    elif isinstance(dims, int):
        dim_list = [dims]
    else:
        dim_list = sorted(set(dims))
    if any(d < 0 or d > ambient for d in dim_list):
        raise SchemaError(f"dimensions {dim_list} out of range for ambient {ambient}")
    q = field.q
    total = sum(gaussian_binomial(ambient, d, q) for d in dim_list)
    if total > budget:
        raise ResourceBudgetError("subspace enumeration too large", required=total, budget=budget)
    out: list[SubspaceRep] = []
    for d in dim_list:
        for piv in combinations(range(ambient), d):
            free = [(i, c) for i in range(d) for c in range(piv[i] + 1, ambient) if c not in piv]
            base = [[1 if c == p else 0 for c in range(ambient)] for p in piv]
            for vals in product(range(q), repeat=len(free)):
                mat = [list(row) for row in base]
                for (i, c), v in zip(free, vals):
                    mat[i][c] = v
                out.append(SubspaceRep(field, ambient, mat, piv))
    return out
