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
basis is never reduced again.  A span of rows extends the zero space, a
sum of subspaces is one ``extend``, and :class:`Preimage` inserts one wide row
per unknown of its system into a basis seeded with unit vectors.  No
kernel, no general intersection and no product of general matrices is
computed here: the one intersection the oracle needs, a span with a span
of unit vectors, is an ``extend`` of the gathered rows with those unit
coordinates moved last.  Two
routines serve the brute-force oracle's walk over annihilators, which never
reads a submodule back off its annihilator: :class:`Preimage`, the common
preimage of a subspace under partial permutations; and the one enumeration,
``SubspaceRep.lines``, which lists the spaces sub + <v> over the lines of
some of a space's rows, read off the two RREFs with no echelonization per
line.  The module is arithmetic without policy: the oracle bounds how many
lines it asks for.  Chains of subspaces are not enumerated here: the closed
engines count them with Gaussian binomials.
"""

from __future__ import annotations

import bisect
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


def _insert(ar: _Arith, by_slot: dict[int, int], mask: int, mat) -> None:
    """Insert rows into a reduced basis held as pivot slot -> row, in place.

    A row is reduced at the basis pivots (``mask``), and a nonzero residue is
    scaled to lead with 1, its lead is cleared from every basis row that has
    an entry there, and it joins the basis.  The basis is reduced after every
    row, so no row is reduced twice.
    """
    S, slot, axpy = ar.S, ar.slot, ar.axpy
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


def _from_slots(field: FieldSpec, n: int, S: int, by_slot: dict[int, int]) -> "SubspaceRep":
    """The space of a reduced basis held as pivot slot -> row."""
    leads = sorted(by_slot, reverse=True)  # ascending pivot columns
    return SubspaceRep(field, n, [by_slot[sh] for sh in leads], [n - 1 - sh // S for sh in leads])


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

    def extend(self, mat) -> "SubspaceRep":
        """This space plus the row space of ``mat``; ``self`` if nothing is new.

        The rows go through :func:`_insert`, so the result is the RREF of the
        stacked rows.
        """
        n = self.ambient
        ar, mask, by_slot = self._eliminator()
        _check_width(ar.S, n, mat)
        by_slot = dict(by_slot)
        _insert(ar, by_slot, mask, mat)
        if len(by_slot) == self.dim:
            return self
        return _from_slots(self.field, n, ar.S, by_slot)

    def lines(self, sub: "SubspaceRep", cols) -> list["SubspaceRep"]:
        """Every sub + <v>, one per line <v> of the span of this space's rows at ``cols``.

        ``sub`` lies in this space and ``cols`` are pivots of this space that
        are not pivots of ``sub``, in ascending order.  The rows R_c at those
        pivots are zero at ``sub``'s pivots, which are pivots here too.  The
        line whose lead is at c is spanned by v = R_c + sum_(j > c) a_j R_j
        over ``cols``, and the RREF of sub + <v> is ``sub``'s rows with their
        entries at c cleared by v, plus v: canonical as it stands.  There are
        (q^d - 1)/(q - 1) of them for d = len(cols), all built; the caller
        bounds d.
        """
        n, q = self.ambient, self.field.q
        ar, raw = _arith(self.field, n), _layout(self.field).raw
        S, slot, add, axpy = ar.S, ar.slot, ar.add, ar.axpy
        at = dict(zip(self.pivots, self.rows))
        out = []
        for t, c in enumerate(cols):
            sh = (n - 1 - c) * S
            hits = [(r, (y >> sh) & slot) for r, y in enumerate(sub.rows) if (y >> sh) & slot]
            pos = bisect.bisect(sub.pivots, c)
            pivots = sub.pivots[:pos] + (c,) + sub.pivots[pos:]
            vs = [at[c]]
            for j in cols[t + 1 :]:
                vs += [add(v, m) for m in [ar.scale(raw[a], at[j]) for a in range(1, q)] for v in vs]
            head, tail = sub.rows[:pos], sub.rows[pos:]
            for v in vs:
                rows = head + (v,) + tail
                if hits:
                    rows = list(rows)
                    for r, f in hits:  # a row with an entry at c leads left of it: r < pos
                        rows[r] = axpy(rows[r], f, v)
                out.append(SubspaceRep(self.field, n, rows, pivots))
        return out


class Preimage:
    """Y -> {f : f h in Y for every gather h}, for partial permutations h of width-n rows.

    Write f h_l = a_l Y, with one unknown per (gather l, row of Y).  Then
    a_l Y is zero where h_l writes nothing; f is a_l Y read back through h_l
    on the coordinates h_l reads; and two gathers that read one coordinate
    of f agree on it.  Each gather is compiled once to a wide gather of Y's
    rows, one row of the system per (l, y): block l holds y where h_l writes
    nothing; one agreement block per later gather holds y's entries read
    back, the first reader's as they are and the later reader's negated;
    the last block holds the read-back on the coordinates h_l is first to
    read.  The RREF rows of the system that lead in the last block span the
    f that meet every condition.  The coordinates that no gather reads are
    free: their unit vectors seed the basis, where the system is zero.
    """

    def __init__(self, field: FieldSpec, n: int, gathers):
        lay, count = _layout(field), len(gathers)
        width = 2 * count * n
        last = width - n  # the first coordinate of the last block
        readers = [[] for _ in range(n)]  # (l, k) with h_l[k] = j, in gather order
        srcs = [[-1] * width for _ in gathers]
        for l, h in enumerate(gathers):
            for k, j in enumerate(h):
                if j >= 0:
                    readers[j].append((l, k))
                else:
                    srcs[l][l * n + k] = k
        negs = [0] * count
        for j, ((l0, k0), *rest) in ((j, rd) for j, rd in enumerate(readers) if rd):
            srcs[l0][last + j] = k0
            for l, k in rest:
                col = (count + l - 1) * n + j
                srcs[l0][col], srcs[l][col] = k0, k
                negs[l] |= lay.slot << ((width - 1 - col) * lay.S)
        self.field, self.n, self.ar = field, n, _arith(field, width)
        self.acts = [(compile_gather(field, n, src), neg) for src, neg in zip(srcs, negs)]
        self.units = {(n - 1 - j) * lay.S: 1 << ((n - 1 - j) * lay.S) for j, rd in enumerate(readers) if not rd}
        self.mask = sum(lay.slot << sh for sh in self.units)

    def __call__(self, sub: SubspaceRep) -> SubspaceRep:
        ar, rows = self.ar, []
        for (pairs, down), neg in self.acts:
            for y in sub.rows:
                x = 0
                for mask, up in pairs:
                    x |= (y & mask) << up
                x >>= down
                rows.append(ar.axpy(x & ~neg, 1, x & neg) if neg else x)
        by_slot = dict(self.units)
        _insert(ar, by_slot, self.mask, rows)
        low = self.n * ar.S
        return _from_slots(self.field, self.n, ar.S, {sh: x for sh, x in by_slot.items() if sh < low})


def zero_space(field: FieldSpec, ambient: int) -> SubspaceRep:
    return SubspaceRep(field, ambient, (), ())


def full_space(field: FieldSpec, ambient: int) -> SubspaceRep:
    return SubspaceRep(field, ambient, _units(field, ambient), range(ambient))

