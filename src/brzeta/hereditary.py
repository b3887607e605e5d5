"""Two-variable submodule counts over basic orders with a cyclic radical chain.

A :class:`Lattice` is one validated spec: the basic hereditary order of
residue field size q whose n simple classes have projective covers forming a
chain of column lattices (Reiner, *Maximal Orders*), and a lattice M over it,
given by its column types c_1 <= ... <= c_r, one per projective summand.
The count assembled here is

    sum over finite-colength sublattices X of  w^{iso class of X} z^{colength},

computed by stratifying X by the image Ybar of X + pi*M_1 inside
M_1/pi*M_1 = F_q^r and counting each stratum with a chain polynomial and a
Hermite-form stratum polynomial in v = z_1...z_n.  The stratum sum is exactly
divisible by a fixed column-shift monomial u (non-divisibility is a formula
violation); the quotient is the polynomial factor F
(:func:`polynomial_factor`), and the count is F times the rank-r
one-variable base count.

Nothing is enumerated: the strata are grouped by (filtration dims, dim Ybar),
counted as Schubert cells of the coordinate column flag, and the chains of
each filtration are counted by degree vector; both counts are products of
Gaussian binomials (Andrews, *The Theory of Partitions*, ch. 3).  The
brute-force oracle's triangular model is the independent check.

Every returned term has w-degree exactly r, so a z-truncation at B is
complete once the total-degree bound is B + r.  Split by its w block once,
the joint count gives one colength count per isomorphism class of sublattice
(:func:`class_counts`); the partial and total counts read that table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaViolationError, NonUnitError, SchemaError, TruncationBoundError, as_int
from .qcomb import cauchy_poly, gaussian_binomial
from .series import (
    Alphabet,
    AlphabetEntry,
    Monomial,
    TruncatedSeries,
    geometric_product,
    mono_degree,
    split_trailing,
)


@dataclass(frozen=True)
class Lattice:
    """A lattice over the basic hereditary order of residue field size q with
    n simple classes: its column types c_1 <= ... <= c_r (stored sorted), one
    per projective summand, each between 1 and n."""

    q: int
    n: int
    columns: tuple[int, ...]

    def __post_init__(self):
        if self.q < 2:
            raise SchemaError(f"residue field size must be >= 2, got {self.q}")
        if self.n < 1:
            raise SchemaError(f"chain length must be >= 1, got {self.n}")
        cols = tuple(sorted(int(c) for c in self.columns))
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

    def flag_dim(self, j: int) -> int:
        """dim of the coordinate subspace of columns with type >= j."""
        return sum(1 for c in self.columns if c >= j)

    def shift_length(self, i: int) -> int:
        """Number of columns of type < i (the z_i-exponent of u)."""
        return sum(1 for c in self.columns if c < i)


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


def substitution_data(lattice: Lattice) -> tuple[Monomial, Monomial, list[Monomial]]:
    """(u, v, t_1..t_n) as exponent vectors over the doubled alphabet.

    u shifts by the columns already past each class, v is the product of all
    z_i, and t_j couples the class-j marker w_j with the z's strictly above j.
    """
    n = lattice.n
    u = tuple(lattice.shift_length(i) for i in range(1, n + 1)) + (0,) * n
    v = (1,) * n + (0,) * n
    t = []
    for j in range(1, n + 1):
        z_part = tuple(1 if i > j else 0 for i in range(1, n + 1))
        w_part = tuple(1 if i == j else 0 for i in range(1, n + 1))
        t.append(z_part + w_part)
    return u, v, t


def _descending(first: int, caps) -> list[tuple[int, ...]]:
    """Weakly decreasing vectors (first, x_2, ...) with 0 <= x_j <= caps[j - 2]."""
    out = [(first,)]
    for cap in caps:
        out = [v + (x,) for v in out for x in range(min(v[-1], cap) + 1)]
    return out


_chain_count_cache: dict[tuple[int, tuple[int, ...]], dict[tuple[int, ...], int]] = {}


def chain_degree_counts(q: int, dims: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """How many chains V_1 = W_1 >= W_2 >= ... >= W_n with W_j <= V_j have each
    degree vector dim(W_j / W_{j+1}), where V_j is the span of the first dims[j-1]
    coordinates and W_{n+1} = 0.

    The chains with dim W_j = w_j number prod_{j>=2} [d_j - w_{j+1} choose w_j - w_{j+1}]_q.
    """
    dims = tuple(dims)
    key = (q, dims)
    hit = _chain_count_cache.get(key)
    if hit is None:
        hit = {}
        for w in _descending(dims[0], dims[1:]):
            w = w + (0,)
            count = 1
            for j in range(1, len(dims)):
                count *= gaussian_binomial(dims[j] - w[j + 1], w[j] - w[j + 1], q)
            hit[tuple(w[j] - w[j + 1] for j in range(len(dims)))] = count
        _chain_count_cache[key] = hit
    return hit


def stratum_counts(lattice: Lattice) -> dict[tuple[tuple[int, ...], int], int]:
    """How many subspaces Ybar of F_q^r have each (filtration dims, dim Ybar).

    With f_j the dimension of the coordinate span m_j of the columns of type
    >= j and a_j = dim(Ybar meet m_j), the filtration dims are a_j + r - dim Ybar
    and the Ybar with a given a (a Schubert cell of the flag m_n <= ... <= m_1) number

        [f_n choose a_n]_q * prod_{j<n} q^(k_j (f_{j+1} - a_{j+1})) [f_j - f_{j+1} choose k_j]_q,

    with k_j = a_j - a_{j+1}.
    """
    q, r = lattice.q, lattice.r
    flags = [lattice.flag_dim(j) for j in range(1, lattice.n + 1)]
    out = {}
    for m in range(r + 1):
        for a in _descending(m, flags[1:]):
            count = gaussian_binomial(flags[-1], a[-1], q)
            for j in range(lattice.n - 1):
                k = a[j] - a[j + 1]
                count *= q ** (k * (flags[j + 1] - a[j + 1]))
                count *= gaussian_binomial(flags[j] - flags[j + 1], k, q)
            if count:
                out[(tuple(x + r - m for x in a), m)] = count
    return out


def filtered_poly(
    dims: tuple[int, ...], q: int, t_exps: list[Monomial], alphabet: Alphabet, bound: int
) -> TruncatedSeries:
    """Chain-sum polynomial: sum over chains of prod_j t_j^(step dimension),
    for the filtration with dimension vector ``dims``."""
    if len(t_exps) != len(dims):
        raise SchemaError(f"{len(dims)} filtration levels need {len(dims)} t-monomials")
    width = len(alphabet)
    coeffs: dict[Monomial, int] = {}
    for degvec, cnt in chain_degree_counts(q, dims).items():
        exps = [0] * width
        for j, d in enumerate(degvec):
            if d:
                tj = t_exps[j]
                for idx in range(width):
                    exps[idx] += tj[idx] * d
        key = tuple(exps)
        if mono_degree(key) <= bound:
            coeffs[key] = coeffs.get(key, 0) + cnt
    # valid keys of degree <= bound by construction, and every chain count is a positive int
    return TruncatedSeries._trusted(alphabet, bound, coeffs)


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


def _stratum_sum(lattice: Lattice, bound: int) -> TruncatedSeries:
    """Sum over strata Ybar of F_q^r of chain polynomial times Hermite weight.

    Strata are counted by (filtration dims, dim Ybar), which is all the two
    factors depend on, and only the Hermite weight depends on dim Ybar: the
    weights of one dims are summed into one v-polynomial first, so each
    chain polynomial is built and multiplied once.  The sum is over the
    doubled alphabet at ``bound``, before the base count and the
    column-shift division.
    """
    q, r = lattice.q, lattice.r
    alphabet = doubled_alphabet(q, lattice.n)
    _, v_exps, t_exps = substitution_data(lattice)
    weights: dict[tuple[int, ...], list[int]] = {}
    for (dims, m), count in stratum_counts(lattice).items():
        w = weights.setdefault(dims, [0] * (r + 1))
        for k, c in enumerate(hermite_Q(m, r, q)):
            w[k] += count * c
    acc = TruncatedSeries.zero(alphabet, bound)
    for dims, w in sorted(weights.items()):
        chains = filtered_poly(dims, q, t_exps, alphabet, bound)
        acc = acc + chains * TruncatedSeries.powers(alphabet, bound, v_exps, w)
    return acc


def polynomial_factor(lattice: Lattice, bound: int) -> TruncatedSeries:
    """The polynomial F with Z(M; z, w) = F * (rank-r base count in v), complete
    through ``bound``.

    The stratum sum is summed at ``bound + deg u`` and divided by the
    column-shift monomial u; this is the one place u is divided out, and a
    term that u does not divide is a formula violation.
    """
    u_exps, _, _ = substitution_data(lattice)
    acc = _stratum_sum(lattice, bound + mono_degree(u_exps))
    try:
        return acc.divided_by_monomial(u_exps)
    except NonUnitError as exc:
        raise FormulaViolationError(
            f"assembled stratum sum is not divisible by the column-shift monomial: {exc}"
        ) from exc


def brz_two_variable(lattice: Lattice, z_bound: int) -> TruncatedSeries:
    """Joint class/colength count over the doubled alphabet (z block, w block):
    the polynomial factor times the rank-r base count.

    Returned at total-degree bound z_bound + r; since every term has w-degree
    exactly r, all colength degrees up to z_bound are complete.
    """
    _, v_exps, _ = substitution_data(lattice)
    if z_bound < 0:
        raise TruncationBoundError(f"bound must be >= 0, got {z_bound}")
    bound = z_bound + lattice.r
    poly = polynomial_factor(lattice, bound)
    return poly * TruncatedSeries.geometric(poly.alphabet, bound, v_exps, 1, lattice.r, lattice.q)


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
    rho = tuple(rho)
    if len(rho) != lattice.n or any(x < 0 for x in rho):
        raise SchemaError(f"class vector needs {lattice.n} multiplicities >= 0, got {rho}")
    hit = class_counts(lattice, z_bound).get(rho)
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
