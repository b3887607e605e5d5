"""Two-variable submodule counts over basic orders with a cyclic radical chain.

A :class:`Lattice` is one validated spec: the basic hereditary order of
residue field size q whose n simple classes have projective covers forming a
chain of column lattices (Reiner, *Maximal Orders*), and a lattice M over it,
given by its column types c_1 <= ... <= c_r, one per projective summand.
The count assembled here is

    sum over finite-colength sublattices X of  w^{iso class of X} z^{colength},

computed by stratifying X by the image Ybar of X + pi*M_1 inside
M_1/pi*M_1 = F_q^r: each stratum contributes its chains, each with a monomial,
times a Hermite weight in v = z_1...z_n.  That stratum sum is exactly
divisible by the column-shift monomial u = prod_i z_i^(number of columns of
type < i), read off :attr:`Lattice.shift`; the quotient is the polynomial
factor F, and the count is F times the rank-r one-variable base count.

Nothing is enumerated: the strata are grouped by (filtration dims, dim Ybar),
counted as Schubert cells of the coordinate column flag (whose dims are
r - shift), and the chains of each filtration are counted by degree vector;
both counts are products of Gaussian binomials (Andrews, *The Theory of
Partitions*, ch. 3).  A chain's monomial is read off its degree vector d
alone: z_i carries d_1 + ... + d_{i-1} and w_j carries d_j.  So F is one sum
of integers keyed by monomial, each key already divided by u
(:func:`polynomial_factor`; a term u does not divide is a formula
violation).  The brute-force oracle's triangular model is the independent
check.

Both walks stop at the bound, on two degree bounds.  A chain whose
subspaces have dims x_1 >= x_2 >= ... carries the v^k term of degree
sum_i (x_1 - x_i) - sum shift + x_1 + n k, and every later x_j is at most
the last one placed; a stratum (dims, m) has chains with x_i <= dims_i and
Hermite weight starting at v^(r - m), so all its terms have degree at least
sum_i (r - dims_i) + n(r - m) + r - sum shift.  One descending walk
(:func:`_descending`) builds both the chain dims and the Schubert cells
within such a room.

Every returned term has w-degree exactly r, so a z-truncation at B is
complete once the total-degree bound is B + r.  Split by its w block once,
the joint count gives one colength count per isomorphism class of sublattice
(:func:`class_counts`); the partial and total counts read that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub

from .errors import FormulaViolationError, SchemaError, TruncationBoundError, as_int, class_vector
from .qcomb import cauchy_poly, gaussian_binomial, prime_power_factors
from .series import (
    Alphabet,
    AlphabetEntry,
    Monomial,
    TruncatedSeries,
    geometric_product,
    split_trailing,
)


@dataclass(frozen=True)
class Lattice:
    """A lattice over the basic hereditary order of residue field size q (a
    prime power) with n simple classes: its column types c_1 <= ... <= c_r
    (stored sorted), one per projective summand, each between 1 and n.
    :attr:`shift` gives both the column-shift monomial u and the coordinate
    column flag of the strata."""

    q: int
    n: int
    columns: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", as_int(self.q, "q"))
        object.__setattr__(self, "n", as_int(self.n, "n"))
        if self.q < 2:
            raise SchemaError(f"residue field size must be >= 2, got {self.q}")
        if prime_power_factors(self.q) is None:
            raise SchemaError(f"residue field size must be a prime power, got {self.q}")
        if self.n < 1:
            raise SchemaError(f"chain length must be >= 1, got {self.n}")
        cols = tuple(sorted(as_int(c, "column type") for c in self.columns))
        object.__setattr__(self, "columns", cols)
        if not cols:
            raise SchemaError("module needs at least one column")
        if cols[0] < 1:
            raise SchemaError(f"column types start at 1, got {cols}")
        if cols[-1] > self.n:
            raise SchemaError(f"column type {cols[-1]} exceeds the order's chain length {self.n}")

    @classmethod
    def of_class(cls, q: int, top) -> "Lattice":
        """The lattice whose top has multiplicity top[i-1] of each simple class i."""
        return cls(q, len(top), tuple(i for i, v in enumerate(top, start=1) for _ in range(v)))

    @property
    def r(self) -> int:
        return len(self.columns)

    @property
    def top(self) -> tuple[int, ...]:
        """Multiplicity of each simple class in M's top."""
        return tuple(self.columns.count(i) for i in range(1, self.n + 1))

    @property
    def alphabet(self) -> Alphabet:
        """The colength markers, one per simple class (:func:`z_alphabet`)."""
        return z_alphabet(self.q, self.n)

    @property
    def shift(self) -> tuple[int, ...]:
        """The number of columns of type < i, for i = 1..n: the z_i-exponent of
        the column-shift monomial u.  The other r - shift[j-1] columns, of type
        >= j, span the j-th coordinate subspace of the column flag."""
        return tuple(sum(c < i for c in self.columns) for i in range(1, self.n + 1))


def _labels(prefix: str, n: int) -> list[str]:
    return [prefix] if n == 1 else [f"{prefix}{i}" for i in range(1, n + 1)]


def z_alphabet(q: int, n: int) -> Alphabet:
    """Colength markers z (n = 1) or z1..zn, one per simple class of residue field size q."""
    return Alphabet(tuple(AlphabetEntry(lab, q, 1) for lab in _labels("z", n)))


def v_alphabet(q: int) -> Alphabet:
    """The one variable v = z_1...z_n of the base count, over residue field size q."""
    return Alphabet((AlphabetEntry("v", q, 1),))


def doubled_alphabet(q: int, n: int) -> Alphabet:
    """The z block of :func:`z_alphabet` followed by the class markers w or w1..wn."""
    return Alphabet(tuple(AlphabetEntry(lab, q, 1) for lab in _labels("z", n) + _labels("w", n)))


def _descending(first: int, caps, room: int) -> list[tuple[int, ...]]:
    """Weakly decreasing vectors (first, x_2, ...) with 0 <= x_j <= caps[j - 2]
    and sum_j (first - x_j) <= room, in lexicographic order.

    Every entry after x_j is at most x_j, so once x_j is placed the vector
    spends at least ``used + left * (first - x_j)`` of the room, where
    ``used`` is what the entries before x_j spend and ``left`` counts the
    entries still to place, x_j among them.  So x_j starts at the least value
    that keeps this within the room, and no branch is entered that must
    overrun it.
    """
    if room < 0:
        return []
    out = [((first,), 0)]
    for left, cap in zip(range(len(caps), 0, -1), caps):
        out = [
            (v + (x,), used + first - x)
            for v, used in out
            for x in range(max(0, first - (room - used) // left), min(v[-1], cap) + 1)
        ]
    return [v for v, _ in out]


_chain_count_cache: dict[tuple[int, tuple[int, ...], int], dict[tuple[int, ...], int]] = {}


def chain_degree_counts(q: int, dims: tuple[int, ...], room: int | None = None) -> dict[tuple[int, ...], int]:
    """How many chains V_1 = W_1 >= W_2 >= ... >= W_n with W_j <= V_j have each
    degree vector dim(W_j / W_{j+1}), where V_j is the span of the first dims[j-1]
    coordinates and W_{n+1} = 0.

    The chains with dim W_j = w_j number prod_{j>=2} [d_j - w_{j+1} choose w_j - w_{j+1}]_q.
    Only the w with sum_j (dims[0] - w_j) <= ``room`` are walked.  The default
    room, dims[0] * (n - 1), cuts nothing; a larger room is read as it, and
    a negative one as -1, so the cache holds one entry per distinct cut.  A
    cut table is the cached uncut one restricted to the room when there is
    one (w_1 - w_j is d_1 + ... + d_(j-1)); an uncut table is never built
    in order to cut it.
    """
    dims = tuple(dims)
    cap = dims[0] * (len(dims) - 1)
    room = cap if room is None else max(min(room, cap), -1)
    key = (q, dims, room)
    hit = _chain_count_cache.get(key)
    if hit is None:
        uncut = _chain_count_cache.get((q, dims, cap))
        if uncut is not None:
            hit = {d: c for d, c in uncut.items() if sum(accumulate(d[:-1])) <= room}
        else:
            hit = {}
            for w in _descending(dims[0], dims[1:], room):
                w = w + (0,)
                count = 1
                for j in range(1, len(dims)):
                    count *= gaussian_binomial(dims[j] - w[j + 1], w[j] - w[j + 1], q)
                hit[tuple(w[j] - w[j + 1] for j in range(len(dims)))] = count
        _chain_count_cache[key] = hit
    return hit


def stratum_counts(lattice: Lattice, bound: int | None = None) -> dict[tuple[tuple[int, ...], int], int]:
    """How many subspaces Ybar of F_q^r have each (filtration dims, dim Ybar).

    With f_j the dimension of the coordinate span m_j of the columns of type
    >= j and a_j = dim(Ybar meet m_j), the filtration dims are a_j + r - dim Ybar
    and the Ybar with a given a (a Schubert cell of the flag m_n <= ... <= m_1) number

        [f_n choose a_n]_q * prod_{j<n} q^(k_j (f_{j+1} - a_{j+1})) [f_j - f_{j+1} choose k_j]_q,

    with k_j = a_j - a_{j+1}.  Given a ``bound``, only the strata with a term of
    the polynomial factor through it are walked: those with
    sum_j (m - a_j) <= bound + sum shift - r - n(r - m), where m = dim Ybar
    (see :func:`polynomial_factor`).  The default cuts nothing.
    """
    q, r, n = lattice.q, lattice.r, lattice.n
    flags = [r - s for s in lattice.shift]
    spare = None if bound is None else bound + sum(lattice.shift) - r
    out = {}
    for m in range(r + 1):
        room = m * (n - 1) if spare is None else spare - n * (r - m)
        for a in _descending(m, flags[1:], room):
            count = gaussian_binomial(flags[-1], a[-1], q)
            for j in range(n - 1):
                k = a[j] - a[j + 1]
                count *= q ** (k * (flags[j + 1] - a[j + 1]))
                count *= gaussian_binomial(flags[j] - flags[j + 1], k, q)
            if count:
                out[(tuple(x + r - m for x in a), m)] = count
    return out


def hermite_Q(m: int, r: int, q: int) -> list[int]:
    """Stratum weight v^(r-m) * prod_{i=1}^m (1 - q^(i-1) v), as v-coefficients."""
    if not 0 <= m <= r:
        raise SchemaError(f"stratum dimension must satisfy 0 <= m <= r, got m={m}, r={r}")
    return [0] * (r - m) + cauchy_poly(m, q)


def solomon_hey_factor(r: int, q: int, bound: int) -> TruncatedSeries:
    """Base count of the rank-r free lattice over :func:`v_alphabet`: the run
    prod_{j=0}^{r-1} (1 - q^j v)^{-1}, expanded as one series by the
    q-binomial theorem (:meth:`TruncatedSeries.geometric`)."""
    if r < 0:
        raise SchemaError(f"rank must be >= 0, got {r}")
    return TruncatedSeries.geometric(v_alphabet(q), bound, (1,), 1, r, q)


def hermite_orbit_sum(m: int, r: int, q: int, bound: int) -> TruncatedSeries:
    """Orbit-by-orbit count prod_{j=m+1}^{r} v/(1 - q^(j-1) v) in the v variable.

    Equals hermite_Q(m,r,q) times solomon_hey_factor(r,q) as truncated series.
    """
    if not 0 <= m <= r:
        raise SchemaError(f"stratum dimension must satisfy 0 <= m <= r, got m={m}, r={r}")
    alphabet = v_alphabet(q)
    orbits = geometric_product(alphabet, bound, (((1,), q ** (j - 1)) for j in range(m + 1, r + 1)))
    return TruncatedSeries.monomial(alphabet, bound, (r - m,)) * orbits


def polynomial_factor(lattice: Lattice, bound: int) -> TruncatedSeries:
    """The polynomial F with Z(M; z, w) = F * (rank-r base count in v), complete
    through ``bound``, as one sum of integers keyed by monomial.

    The stratum weights of one dims are summed into one v-polynomial first.
    The chain of degree vector d times v^k, divided by the column-shift
    monomial u, has z_i-exponent d_1 + ... + d_{i-1} + k - shift_i and w
    block d.  A term that keeps a negative z exponent once the sum is done is
    a stratum-sum term that u does not divide: a formula violation.

    Two degree bounds let both walks stop at ``bound``.  A chain whose
    subspaces have dims x (x_1 = dims[0]) has key degree
    sum_i (x_1 - x_i) - sum shift + x_1 + n k, so with k_min the least power
    of v whose weight is nonzero, only the chains with
    sum_i (x_1 - x_i) <= bound + sum shift - x_1 - n k_min are walked.  A
    stratum (dims, m) has dims_i = a_i + r - m, chains with x_i <= dims_i and
    x_1 = r, and Hermite weight starting at v^(r - m), so all its terms have
    degree >= sum_i (m - a_i) + n(r - m) + r - sum shift
    (:func:`stratum_counts`).  A cut drops only terms past ``bound``.
    """
    if bound < 0:
        raise TruncationBoundError(f"bound must be >= 0, got {bound}")
    q, r, n, shift = lattice.q, lattice.r, lattice.n, lattice.shift
    spare = bound + sum(shift)
    weights: dict[tuple[int, ...], list[int]] = {}
    for (dims, m), count in stratum_counts(lattice, bound).items():
        w = weights.setdefault(dims, [0] * (r + 1))
        for k, c in enumerate(hermite_Q(m, r, q)):
            w[k] += count * c
    coeffs: dict[Monomial, int] = {}
    for dims, w in weights.items():
        powers = [((k,) * n, n * k, c) for k, c in enumerate(w) if c]
        if not powers:
            continue
        room = spare - dims[0] - powers[0][1]
        for d, cnt in chain_degree_counts(q, dims, room).items():
            z = tuple(map(sub, accumulate(d[:-1], initial=0), shift))
            low = sum(z) + dims[0]  # the key's degree at k = 0: the w block d sums to dims[0]
            for vk, nk, c in powers:
                if low + nk > bound:
                    break
                key = tuple(map(add, z, vk)) + d
                coeffs[key] = coeffs.get(key, 0) + cnt * c
    alphabet = doubled_alphabet(q, n)
    coeffs = {key: c for key, c in coeffs.items() if c}
    for key in coeffs:
        if min(key[:n]) < 0:
            raise FormulaViolationError(
                "assembled stratum sum is not divisible by the column-shift monomial: "
                f"monomial {alphabet.format_monomial(shift + (0,) * n)} does not divide term "
                f"{alphabet.format_monomial(tuple(map(add, key, shift)) + key[n:])}"
            )
    return TruncatedSeries._trusted(alphabet, bound, coeffs)


def brz_two_variable(lattice: Lattice, z_bound: int) -> TruncatedSeries:
    """Joint class/colength count over the doubled alphabet (z block, w block):
    the polynomial factor times the rank-r base count.

    Returned at total-degree bound z_bound + r; since every term has w-degree
    exactly r, all colength degrees up to z_bound are complete.
    """
    if z_bound < 0:
        raise TruncationBoundError(f"bound must be >= 0, got {z_bound}")
    n, r = lattice.n, lattice.r
    bound = z_bound + r
    poly = polynomial_factor(lattice, bound)
    return poly * TruncatedSeries.geometric(poly.alphabet, bound, (1,) * n + (0,) * n, 1, r, lattice.q)


def brs_F(lattice: Lattice, bound: int) -> TruncatedSeries:
    """The whole polynomial factor F, restated at the requested bound.

    Raises a truncation-bound error naming the degree of F if the requested
    bound is below it.
    """
    r = lattice.r
    # chain sums and stratum weights each have total degree <= rn, so 2rn + r covers all of F
    poly = polynomial_factor(lattice, 2 * r * lattice.n + r)
    degree = poly.max_degree()
    if degree > bound:
        raise TruncationBoundError(f"the polynomial factor has degree {degree}; bound {bound} would truncate it")
    return poly.extended(bound)


def class_counts(lattice: Lattice, z_bound: int) -> dict[tuple[int, ...], TruncatedSeries]:
    """Sublattice counts by colength monomial, one entry per isomorphism class
    that occurs, keyed by its projective multiplicities.

    The joint series is split by its w block once; every w-degree is r, so
    each entry is complete through ``z_bound``.
    """
    return split_trailing(brz_two_variable(lattice, z_bound), lattice.n)


def partial_zeta(lattice: Lattice, rho, z_bound: int) -> TruncatedSeries:
    """Count of sublattices in one isomorphism class, by colength monomial."""
    hit = class_counts(lattice, z_bound).get(class_vector(rho, lattice.n))
    return hit if hit is not None else TruncatedSeries.zero(lattice.alphabet, z_bound)


def total_zeta(lattice: Lattice, z_bound: int) -> TruncatedSeries:
    """Colength count with the class markers forgotten (all w_i -> 1)."""
    zero = TruncatedSeries.zero(lattice.alphabet, z_bound)
    return sum(class_counts(lattice, z_bound).values(), zero)


def hereditary_from_json(payload) -> Lattice:
    if not isinstance(payload, dict):
        raise SchemaError("hereditary input must be an object with q, n, columns")
    try:
        q = as_int(payload["q"], "q")
        n = as_int(payload["n"], "n")
        if not isinstance(payload["columns"], list):
            raise SchemaError(f"columns must be an array, got {payload['columns']!r}")
        columns = tuple(as_int(c, "column type") for c in payload["columns"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"hereditary input needs q, n, columns: {exc}") from exc
    return Lattice(q, n, columns)
