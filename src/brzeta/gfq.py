"""Exact linear algebra over small finite fields GF(q), q = p^e <= 256.

Field elements are integers ``0..q-1`` encoding polynomials over F_p in base
p; all arithmetic goes through dense int64 lookup tables so prime and
prime-power fields share the same rref and matrix-product kernels.
Subspaces are held in reduced-row-echelon canonical form, which makes them
hashable and makes equality a byte comparison.  The one enumeration,
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

import numpy as np

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
LatticePair = namedtuple("LatticePair", "meet join")


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
    q, p = field.q, field.p
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    neg = np.zeros(q, dtype=np.int64)
    inv = np.zeros(q, dtype=np.int64)
    if field.e == 1:
        idx = np.arange(q, dtype=np.int64)
        add[:] = (idx[:, None] + idx[None, :]) % q
        mul[:] = (idx[:, None] * idx[None, :]) % q
        neg[:] = (-idx) % q
    else:
        polys = [field.decode(v) for v in range(q)]
        for a in range(q):
            pa = polys[a]
            neg[a] = field.encode(tuple((-c) % p for c in pa))
            for b in range(a, q):
                pb = polys[b]
                s = field.encode(tuple((x + y) % p for x, y in zip(pa, pb)))
                add[a, b] = add[b, a] = s
                m = field.encode(_poly_mod(_poly_mul(_poly_trim(pa), _poly_trim(pb), p), field.modulus, p))
                mul[a, b] = mul[b, a] = m
    for a in range(1, q):
        hits = np.nonzero(mul[a] == 1)[0]
        if hits.size != 1:
            raise SchemaError(f"element {a} of GF({q}) has no unique inverse; bad modulus?")
        inv[a] = hits[0]
    for arr in (add, mul, neg, inv):
        arr.setflags(write=False)
    return Tables(add, mul, neg, inv)


def validate_field(field: FieldSpec) -> None:
    """Consistency checks on the arithmetic tables."""
    t = tables(field)
    q = field.q
    idx = np.arange(q)
    assert np.array_equal(t.add[0], idx), "0 is not additive identity"
    assert np.array_equal(t.mul[1], idx), "1 is not multiplicative identity"
    assert np.array_equal(t.add, t.add.T) and np.array_equal(t.mul, t.mul.T), "tables not commutative"
    assert np.array_equal(t.add[idx, t.neg[idx]], np.zeros(q, dtype=np.int64)), "neg is not additive inverse"
    nz = idx[1:]
    assert np.array_equal(t.mul[nz, t.inv[nz]], np.ones(q - 1, dtype=np.int64)), "inv is not multiplicative inverse"
    if q <= 16:
        for a in range(q):
            assert np.array_equal(t.mul[t.mul[a]], t.mul[a][t.mul]), f"associativity fails at {a}"
            assert np.array_equal(t.mul[a][t.add], t.add[np.ix_(t.mul[a], t.mul[a])]), f"distributivity fails at {a}"


# -- matrices -----------------------------------------------------------------


def _as_matrix(mat, ambient=None) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(mat, dtype=np.int64))
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.size == 0:
        arr = arr.reshape(0, ambient if ambient is not None else arr.shape[-1] if arr.ndim == 2 else 0)
    return arr


def _rref_in_place(a, add, mul, neg, inv, pivots):
    """Reduce ``a`` to reduced row echelon form in place, one pivot column at a time.

    Returns the rank; ``pivots[:rank]`` receives the pivot columns.
    """
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        p = rank + nz[0]
        if p != rank:
            a[[rank, p]] = a[[p, rank]]
        piv = a[rank, c]
        if piv != 1:
            a[rank] = mul[inv[piv], a[rank]]
        col = a[:, c].copy()
        col[rank] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = add[a[hit], mul[neg[col[hit]][:, None], a[rank][None, :]]]
        pivots[rank] = c
        rank += 1
    return rank


def _mat_mul_tables(a, b, add, mul):
    """Table-driven product of int64 matrices, accumulated one column of ``a`` at a time."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        col = a[:, k]
        if np.any(col):
            out = add[out, mul[col[:, None], b[k][None, :]]]
    return out


def rref(field: FieldSpec, mat) -> tuple[np.ndarray, int, np.ndarray]:
    """RREF copy, rank, and pivot columns."""
    t = tables(field)
    a = _as_matrix(mat).copy()
    pivots = np.zeros(max(min(a.shape), 1), dtype=np.int64)
    rank = _rref_in_place(a, t.add, t.mul, t.neg, t.inv, pivots) if a.size else 0
    return a, rank, pivots[:rank].copy()


def mat_mul(field: FieldSpec, a, b) -> np.ndarray:
    t = tables(field)
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise SchemaError(f"matmul shape mismatch {a.shape} x {b.shape}")
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    return _mat_mul_tables(a, b, t.add, t.mul)


class SubspaceRep:
    """Row space in RREF canonical form; hashable, equality by bytes."""

    __slots__ = ("field", "ambient", "rows", "pivots", "_key")

    def __init__(self, field: FieldSpec, ambient: int, rows: np.ndarray, pivots: np.ndarray):
        self.field = field
        self.ambient = ambient
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        rows.setflags(write=False)
        self.rows = rows
        self.pivots = np.asarray(pivots, dtype=np.int64)
        self._key = (field, ambient, rows.tobytes())

    @classmethod
    def from_rows(cls, field: FieldSpec, ambient: int, mat) -> "SubspaceRep":
        a = _as_matrix(mat, ambient)
        if a.shape[1] != ambient:
            raise SchemaError(f"rows have {a.shape[1]} columns, ambient is {ambient}")
        r, rank, piv = rref(field, a)
        return cls(field, ambient, r[:rank].copy(), piv)

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, SubspaceRep) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"SubspaceRep(dim={self.dim}, ambient={self.ambient}, q={self.field.q})"

    def reduce(self, mat) -> np.ndarray:
        """Eliminate this space's pivot columns from the given rows (a copy)."""
        t = tables(self.field)
        out = _as_matrix(mat, self.ambient).copy()
        for i, c in enumerate(self.pivots):
            f = out[:, c]
            hit = np.nonzero(f)[0]
            if hit.size:
                out[hit] = t.add[out[hit], t.mul[t.neg[f[hit]][:, None], self.rows[i][None, :]]]
        return out

    def contains_vector(self, v) -> bool:
        return not self.reduce(v).any()

    def contains(self, other: "SubspaceRep") -> bool:
        if other.dim > self.dim:
            return False
        return not self.reduce(other.rows).any()


def zero_space(field: FieldSpec, ambient: int) -> SubspaceRep:
    return SubspaceRep(field, ambient, np.zeros((0, ambient), dtype=np.int64), np.zeros(0, dtype=np.int64))


def full_space(field: FieldSpec, ambient: int) -> SubspaceRep:
    return SubspaceRep(field, ambient, np.eye(ambient, dtype=np.int64), np.arange(ambient, dtype=np.int64))


def row_space(field: FieldSpec, mat, ambient: int | None = None) -> SubspaceRep:
    a = _as_matrix(mat, ambient)
    return SubspaceRep.from_rows(field, ambient if ambient is not None else a.shape[1], a)


def left_kernel(field: FieldSpec, mat) -> SubspaceRep:
    """All row vectors v with v @ mat = 0; ambient = number of rows of mat."""
    a = _as_matrix(mat)
    k, d = a.shape
    if k == 0:
        return zero_space(field, 0)
    aug = np.hstack([a, np.eye(k, dtype=np.int64)])
    r, rank, piv = rref(field, aug)
    keep = [i for i in range(rank) if piv[i] >= d]
    return SubspaceRep.from_rows(field, k, r[keep, d:] if keep else np.zeros((0, k), dtype=np.int64))


def subspace_sum(a: SubspaceRep, b: SubspaceRep) -> SubspaceRep:
    _check_same_space(a, b)
    return SubspaceRep.from_rows(a.field, a.ambient, np.vstack([a.rows, b.rows]))


def intersection(a: SubspaceRep, b: SubspaceRep) -> SubspaceRep:
    _check_same_space(a, b)
    if a.dim == 0 or b.dim == 0:
        return zero_space(a.field, a.ambient)
    stacked = np.vstack([a.rows, b.rows])
    ker = left_kernel(a.field, stacked)
    if ker.dim == 0:
        return zero_space(a.field, a.ambient)
    vecs = mat_mul(a.field, ker.rows[:, : a.dim], a.rows)
    return SubspaceRep.from_rows(a.field, a.ambient, vecs)


def lattice_ops(a: SubspaceRep, b: SubspaceRep) -> LatticePair:
    """(meet, join); dim meet + dim join = dim a + dim b."""
    return LatticePair(intersection(a, b), subspace_sum(a, b))


def _check_same_space(a: SubspaceRep, b: SubspaceRep):
    if a.field != b.field or a.ambient != b.ambient:
        raise SchemaError(f"subspace mismatch: {a!r} vs {b!r}")


class QuotientSpace:
    """Coordinates on upper/lower for nested row spaces.

    ``upper=None`` means the full ambient space.  ``project`` validates
    membership in ``upper``, so a vector outside it is an error rather than
    a silent wrong answer.
    """

    def __init__(self, field: FieldSpec, lower: SubspaceRep, upper: SubspaceRep | None = None):
        self.field = field
        self.lower = lower
        ambient = lower.ambient
        if upper is None:
            upper_rows = np.eye(ambient, dtype=np.int64)
        else:
            _check_same_space(lower, upper)
            if not upper.contains(lower):
                raise SchemaError("quotient needs lower <= upper")
            upper_rows = upper.rows
        comp = SubspaceRep.from_rows(field, ambient, lower.reduce(upper_rows))
        self.lift_rows = comp.rows
        self.lift_pivots = comp.pivots
        self.dim = comp.dim

    def project(self, mat) -> np.ndarray:
        """Quotient coordinates of each row; rows must lie in upper."""
        red = self.lower.reduce(mat)
        if self.dim == 0:
            if red.any():
                raise SchemaError("vector outside the quotient's upper space")
            return np.zeros((red.shape[0], 0), dtype=np.int64)
        coords = np.ascontiguousarray(red[:, self.lift_pivots])
        if not np.array_equal(mat_mul(self.field, coords, self.lift_rows), red):
            raise SchemaError("vector outside the quotient's upper space")
        return coords

    def lift(self, coords) -> np.ndarray:
        coords = _as_matrix(coords, self.dim)
        return mat_mul(self.field, coords, self.lift_rows)


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
        if d == 0:
            out.append(zero_space(field, ambient))
            continue
        for piv in combinations(range(ambient), d):
            free = [(i, c) for i in range(d) for c in range(piv[i] + 1, ambient) if c not in piv]
            base = np.zeros((d, ambient), dtype=np.int64)
            for i, c in enumerate(piv):
                base[i, c] = 1
            if not free:
                out.append(SubspaceRep(field, ambient, base.copy(), np.array(piv, dtype=np.int64)))
                continue
            for vals in product(range(q), repeat=len(free)):
                mat = base.copy()
                for (i, c), v in zip(free, vals):
                    mat[i, c] = v
                out.append(SubspaceRep(field, ambient, mat, np.array(piv, dtype=np.int64)))
    return out
