"""Exact linear algebra over small finite fields GF(q), q = p^e <= 256.

Field elements are integers ``0..q-1`` encoding polynomials over F_p in base
p, with addition, multiplication, negation and inverse tables held as
tuples.  A row vector is packed into one Python int, in one layout for every
field: coordinate k of a width-n row sits in slot n-1-k, and a slot holds
the element's e base-p digits in subslots of w bits (w = 1 for p = 2, else
``p.bit_length() + 1``, one bit to spare for a carry).  Int order is then
the order of the rows as tuples.  Over p = 2 addition is XOR; over odd p it
is one integer add and a carry test per subslot; scaling acts on the digit
planes.  A matrix is a list of packed rows whose width is passed alongside,
and :func:`pack` and :func:`unpack` are the only conversions from and to
lists of elements.  Subspaces are held in reduced-row-echelon canonical
form as tuples of packed rows, which makes them hashable and makes equality
a tuple comparison.  Reducing a row against an RREF basis reads its
entries at the basis pivots once and visits only the nonzero ones.
``SubspaceRep.extend`` is the one echelon routine: it inserts rows one at a
time into a reduced basis, which stays reduced after every row, so the
basis is never reduced again.  ``from_rows`` extends the zero space, a sum
of subspaces is one ``extend``, and :func:`left_kernel` extends the zero
space by ``[mat | I]``.  No intersection and no product of general matrices
is computed here: the oracle's one kernel is :func:`left_kernel`.  The one
enumeration, ``SubspaceRep.hyperplanes``, serves the brute-force oracle: it
lists the hyperplanes of a space over a subspace and a set of the space's
rows, read off the two RREFs with no echelonization per hyperplane.  The
module is arithmetic without policy: the oracle bounds how many hyperplanes
it asks for.  Chains of subspaces are not enumerated here: the closed
engines count them with Gaussian binomials.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import SchemaError
from .qcomb import prime_power_factors

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
    """GF(p^e) with its monic irreducible modulus."""

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


@lru_cache(maxsize=None)
def GF(q: int) -> FieldSpec:
    """Build a field spec for a prime power q <= 256; larger fields are out of scope.

    The modulus of GF(p^e) is the first monic irreducible of degree e, in the
    order of its value at p (coefficients low to high as base-p digits).
    """
    if q > 256:
        raise SchemaError(f"fields beyond q=256 are out of scope, got q={q}")
    factors = prime_power_factors(q)
    if factors is None:
        raise SchemaError(f"field size must be a prime power, got {q}")
    p, e = factors
    candidates = (tuple(value // p**i % p for i in range(e + 1)) for value in range(q, 2 * q))
    return FieldSpec(p, e, next(m for m in candidates if _poly_is_irreducible(m, p)))


@lru_cache(maxsize=None)
def tables(field: FieldSpec) -> Tables:
    """Addition, multiplication, negation and inverse tables as tuples; ``inv[0]`` is 0."""
    q, p = field.q, field.p
    polys = [field.decode(v) for v in range(q)]
    add = tuple(tuple(field.encode(tuple((x + y) % p for x, y in zip(pa, pb))) for pb in polys) for pa in polys)
    mul = tuple(
        tuple(
            field.encode(_poly_mod(_poly_mul(_poly_trim(pa), _poly_trim(pb), p), field.modulus, p)) for pb in polys
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


# -- packed rows ----------------------------------------------------------------
#
# The layout is described in the module docstring.  Raw slot values order
# like the element codes, so int order is tuple order.


class _Layout:
    """Per-field constants of the packed layout, derived from the field's tables."""

    def __init__(self, field: FieldSpec):
        p, e, q = field.p, field.e, field.q
        t = tables(field)
        self.p, self.e = p, e
        self.w = 1 if p == 2 else p.bit_length() + 1
        self.S = e * self.w  # bits per slot
        self.slot = (1 << self.S) - 1
        #: code -> raw slot value, and back
        self.raw = tuple(sum(d << (i * self.w) for i, d in enumerate(field.decode(v))) for v in range(q))
        self.code = {r: v for v, r in enumerate(self.raw)}
        self.inv = {self.raw[v]: self.raw[t.inv[v]] for v in range(1, q)}
        self.minus_one = self.raw[t.neg[1]]
        # m's F_p multiplication matrix as (source digit j, target digit i,
        # coefficient c) terms, digit offsets in bits: digit i of m * alpha^j is c
        self.terms = {}
        for v in range(q):
            cols = [field.decode(t.mul[v][p**j]) for j in range(e)]
            self.terms[self.raw[v]] = tuple(
                (j * self.w, i * self.w, c) for j in range(e) for i, c in enumerate(cols[j]) if c
            )


@lru_cache(maxsize=None)
def _layout(field: FieldSpec) -> _Layout:
    return _Layout(field)


class _Arith:
    """``add``, ``scale`` and ``axpy`` (x - f * b) on packed rows of width n.

    Over p = 2 scaling XORs at most e^2 shifted digit planes.  Over odd p,
    ``add`` and ``sub`` subtract p from every subslot that reached it, and
    scaling applies m's F_p matrix to the digit planes, multiplying each by
    doubling and adding.  The operations are closures over the width's masks.
    """

    def __init__(self, lay: _Layout, n: int):
        S, p, w, terms = lay.S, lay.p, lay.w, lay.terms
        self.S, self.slot, self.inv = S, lay.slot, lay.inv
        base = ((1 << (n * S)) - 1) // lay.slot  # the low bit of every slot

        if p == 2:

            def scale(m, x):
                if m == 1:
                    return x
                y = 0
                for j, i, _ in terms[m]:
                    y ^= ((x >> j) & base) << i
                return y

            def axpy(x, f, b):
                return x ^ (b if f == 1 else scale(f, b))

            self.add, self.scale, self.axpy = int.__xor__, scale, axpy
            return

        top = w - 1
        ones = base * sum(1 << (i * w) for i in range(lay.e))  # the low bit of every subslot
        carry = ones * ((1 << top) - p)  # a subslot s >= p iff s + carry sets its bit w-1
        big_p = ones * p
        digit = base * ((1 << w) - 1)  # digit 0 of every slot
        minus_one = lay.minus_one

        def add(a, b):
            s = a + b
            return s - (((s + carry) >> top) & ones) * p

        def sub(a, b):
            s = a + big_p - b
            return s - (((s + carry) >> top) & ones) * p

        def times(c, x):
            """c * x for an integer 1 <= c < p."""
            y = x
            for bit in bin(c)[3:]:
                y = add(y, y)
                if bit == "1":
                    y = add(y, x)
            return y

        def scale(m, x):
            if m == 1:
                return x
            y = 0
            for j, i, c in terms[m]:
                y = add(y, times(c, (x >> j) & digit) << i)
            return y

        def axpy(x, f, b):
            if f == 1:
                return sub(x, b)
            if f == minus_one:
                return add(x, b)
            return sub(x, scale(f, b))

        self.add, self.scale, self.axpy = add, scale, axpy


@lru_cache(maxsize=None)
def _arith(field: FieldSpec, n: int) -> _Arith:
    return _Arith(_layout(field), n)


def pack(field: FieldSpec, row) -> int:
    """The packed int of a row of field elements (codes 0..q-1)."""
    lay = _layout(field)
    x = 0
    for v in row:
        if not 0 <= v < field.q:
            raise SchemaError(f"entry {v!r} is not an element of GF({field.q})")
        x = (x << lay.S) | lay.raw[v]
    return x


def unpack(field: FieldSpec, n: int, x: int) -> list[int]:
    """The width-``n`` row of field elements held in the packed int ``x``."""
    lay = _layout(field)
    return [lay.code[(x >> ((n - 1 - k) * lay.S)) & lay.slot] for k in range(n)]


def _units(field: FieldSpec, n: int) -> list[int]:
    """Rows of the n x n identity matrix."""
    S = _layout(field).S
    return [1 << ((n - 1 - k) * S) for k in range(n)]


def _check_width(S: int, n: int, mat) -> None:
    if mat and (min(mat) < 0 or max(mat) >> (n * S)):
        raise SchemaError(f"rows must have {n} columns, the ambient dimension")


def _reduced(ar: _Arith, x: int, mask: int, by_slot: dict[int, int]) -> int:
    """``x`` with every pivot in ``mask`` of a reduced basis eliminated.

    A basis row is zero at every other pivot, so the entries of ``x`` at the
    pivots are read once and only the nonzero ones cost a row operation.
    """
    S, axpy = ar.S, ar.axpy
    hit = x & mask
    while hit:
        sh = (hit.bit_length() - 1) // S * S
        x = axpy(x, hit >> sh, by_slot[sh])
        hit &= (1 << sh) - 1
    return x


def compile_gather(field: FieldSpec, n: int, src) -> tuple[tuple[tuple[int, int], ...], int]:
    """A gather on width-``n`` rows as masked shifts: ``((mask, up), ...), down``.

    Entry k of ``src`` is the coordinate that the image reads at k, or -1 for
    0; the image has width ``len(src)``.  Sources moving by the same number
    of slots share one mask, and the image of x is the OR of
    ``(x & mask) << up`` over the pairs, shifted right by ``down``.
    """
    lay, m = _layout(field), len(src)
    masks: dict[int, int] = {}
    for k, j in enumerate(src):
        if j >= 0:
            move = ((m - 1 - k) - (n - 1 - j)) * lay.S
            masks[move] = masks.get(move, 0) | (lay.slot << ((n - 1 - j) * lay.S))
    down = max([0, *(-move for move in masks)])
    return tuple((mask, move + down) for move, mask in sorted(masks.items())), down


class SubspaceRep:
    """Row space in RREF canonical form; hashable, equality by its packed rows."""

    __slots__ = ("field", "ambient", "rows", "pivots", "_key", "_index")

    def __init__(self, field: FieldSpec, ambient: int, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        self._key = (field, ambient, self.rows)
        self._index = None

    @classmethod
    def from_rows(cls, field: FieldSpec, ambient: int, mat) -> "SubspaceRep":
        return zero_space(field, ambient).extend(mat)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, SubspaceRep) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"SubspaceRep(dim={self.dim}, ambient={self.ambient}, q={self.field.q})"

    def _eliminator(self):
        """(arithmetic, pivot mask, pivot slot -> row), built once per space."""
        if self._index is None:
            ar = _arith(self.field, self.ambient)
            by_slot = {(self.ambient - 1 - c) * ar.S: x for c, x in zip(self.pivots, self.rows)}
            self._index = (ar, sum(ar.slot << sh for sh in by_slot), by_slot)
        return self._index

    def reduce(self, mat) -> list[int]:
        """Eliminate this space's pivot columns from the given packed rows (a copy)."""
        ar, mask, by_slot = self._eliminator()
        return [_reduced(ar, x, mask, by_slot) for x in mat]

    def extend(self, mat) -> "SubspaceRep":
        """This space plus the row space of ``mat``; ``self`` if nothing is new.

        The rows are inserted one at a time into the reduced basis: a row is
        reduced at the basis pivots, and a nonzero residue is scaled to lead
        with 1, its lead is cleared from every basis row that has an entry
        there, and it joins the basis.  The basis is reduced after every row,
        so no row is reduced twice, and the result is the RREF of the
        stacked rows.
        """
        n = self.ambient
        ar, mask, by_slot = self._eliminator()
        _check_width(ar.S, n, mat)
        S, slot, axpy = ar.S, ar.slot, ar.axpy
        by_slot = dict(by_slot)
        for x in mat:
            x = _reduced(ar, x, mask, by_slot)
            if not x:
                continue
            sh = (x.bit_length() - 1) // S * S
            x = ar.scale(ar.inv[x >> sh], x)
            for s, b in by_slot.items():
                f = (b >> sh) & slot
                if f:
                    by_slot[s] = axpy(b, f, x)
            by_slot[sh] = x
            mask |= slot << sh
        if len(by_slot) == self.dim:
            return self
        leads = sorted(by_slot, reverse=True)  # ascending pivot columns
        return SubspaceRep(self.field, n, [by_slot[sh] for sh in leads], [n - 1 - sh // S for sh in leads])

    def contains(self, other: "SubspaceRep") -> bool:
        if other.dim > self.dim:
            return False
        return not any(self.reduce(other.rows))

    def hyperplanes(self, sub: "SubspaceRep", cols) -> list["SubspaceRep"]:
        """Every hyperplane H with sub + (the rows off ``cols``) <= H < self.

        ``sub`` lies in this space and ``cols`` are pivots of this space that
        are not pivots of ``sub``, in ascending order.  With R_p this space's
        row at pivot p, H is the kernel of a functional psi that is zero on
        R_p for every pivot p outside ``cols`` and ``sub``'s pivots and
        nonzero on some R_k, k in ``cols``: a point of projective space on
        ``cols``, scaled so that its rightmost nonzero value, at c, is 1.
        There are (q^d - 1)/(q - 1) of them for d = len(cols), all built; the
        caller bounds d.  ``sub``'s row at pivot p is u = R_p + sum_k u[k] R_k
        over the pivots k > p outside ``sub``, and psi(u) = 0, so psi(R_p) is
        -sum u[k] psi(R_k) over ``cols``; it vanishes right of c.  Hence H's
        RREF is R_p - psi(R_p) R_c for every pivot p != c, canonical as it
        stands, and the H with one c share one pivots tuple.
        """
        q, n = self.field.q, self.ambient
        lay, t = _layout(self.field), tables(self.field)
        add, mul, neg, raw, axpy = t.add, t.mul, t.neg, lay.raw, _arith(self.field, n).axpy
        at = {c: i for i, c in enumerate(self.pivots)}
        shifts = [(n - 1 - c) * lay.S for c in cols]
        mask = sum(lay.slot << sh for sh in shifts)
        # (row index, pivot, [(j, u[cols[j]]) nonzero]) for each row u of sub that meets cols
        meets = [
            (at[p], p, [(j, lay.code[(u >> sh) & lay.slot]) for j, sh in enumerate(shifts) if (u >> sh) & lay.slot])
            for p, u in zip(sub.pivots, sub.rows)
            if u & mask
        ]
        out = []
        for k, c in enumerate(cols):
            ic, rc = at[c], self.rows[at[c]]
            pivots = self.pivots[:ic] + self.pivots[ic + 1 :]
            free = [at[cols[j]] for j in range(k)]
            left = [(i, [(j, v) for j, v in coeffs if j <= k]) for i, p, coeffs in meets if p < c]
            for vals in product(range(q), repeat=k):
                psi = (*vals, 1)
                rows = list(self.rows)
                for i, a in zip(free, vals):
                    if a:
                        rows[i] = axpy(rows[i], raw[a], rc)
                for i, coeffs in left:
                    s = 0
                    for j, v in coeffs:
                        s = add[s][mul[v][psi[j]]]
                    if s:
                        rows[i] = axpy(rows[i], raw[neg[s]], rc)
                del rows[ic]
                out.append(SubspaceRep(self.field, n, rows, pivots))
        return out


def zero_space(field: FieldSpec, ambient: int) -> SubspaceRep:
    return SubspaceRep(field, ambient, (), ())


def full_space(field: FieldSpec, ambient: int) -> SubspaceRep:
    return SubspaceRep(field, ambient, _units(field, ambient), range(ambient))


def left_kernel(field: FieldSpec, mat, n: int) -> SubspaceRep:
    """All row vectors v with v·mat = 0 for width-``n`` rows; ambient = number of rows of mat."""
    k = len(mat)
    S = _layout(field).S
    # [mat | identity]: the identity fills the low k slots
    aug = zero_space(field, n + k).extend([(x << (k * S)) | unit for x, unit in zip(mat, _units(field, k))])
    # rows pivoting in the identity block are zero on the mat block
    kernel = [(x, c - n) for x, c in zip(aug.rows, aug.pivots) if c >= n]
    return SubspaceRep(field, k, [x for x, _ in kernel], [c for _, c in kernel])
