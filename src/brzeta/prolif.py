"""Assembly of full submodule counts from counts over a designated slice.

The module M sits over a ring with an invertible ideal I; the slice M/IM is
small (split, or a lattice over a chain order; a free module over a discrete
valuation slice is the one-class lattice), and a permutation sigma records
how tensoring with I permutes the simple classes.  Every finite-colength
submodule X of M is rebuilt layer by layer from its images in M/IM, which
turns the full count into a sum over sequences of slice classes of
substituted slice counts: the layer-j substitution sends each class variable
to a degree-(j+1) monomial with a hom-count scalar, so the sum is finite
under any truncation bound.  That layer map lives in one function,
:func:`layer_image`: layer j sends a class-ell quotient to
ell + sigma ell + ... + sigma^j ell, scaled by the hom counts from the
earlier levels to the twisted classes.  The substitution targets, the
per-chain fiber product, the layered products and the hom-weighted slice
counts all read it.  Each layer reads one per-class table: the submodules
of a slice module of the upper class, keyed by their own class.  The sum
runs backward over the layers as a transfer-matrix sum, so no class sequence
is enumerated; it applies the layer map to monomials by itself, which keeps
the sequence-by-sequence reference search an independent check of it.

Also here: the layered products (for split slices, and the single-sliver
form), each a finite product at any truncation because layer j has degree
>= j+1; Dirichlet specializations (one-class ideal counts, the integer
power-series ring count as a product of shifted Riemann factors, hom-weighted
slices); and the factored form, which pulls the class-independent base count
out of every layer as a closed prefactor.  Each engine computes its count one
way; the second way it must agree with is a case of a ``verify`` suite.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from itertools import product as _iter_product
from operator import add

from . import hereditary as _her
from .errors import ResourceBudgetError, SchemaError, as_int
from .hey import SemisimpleData
from .qcomb import gaussian_binomial
from .series import Monomial, TruncatedSeries, split_trailing

ClassVec = tuple[int, ...]

DEFAULT_SEQUENCE_BUDGET = 200_000


# -- permutations -------------------------------------------------------------


def validate_permutation(sigma, n: int, first: int = 0) -> tuple[int, ...]:
    """``sigma`` as a tuple, refused unless it is a bijection of first..first+n-1."""
    sigma = tuple(as_int(s, "sigma entry") for s in sigma)
    if len(sigma) != n or sorted(sigma) != list(range(first, first + n)):
        raise SchemaError(f"sigma must be a bijection of {first}..{first + n - 1}, got {sigma}")
    return sigma


def rotated(vec: tuple[int, ...], k: int) -> tuple[int, ...]:
    """rot^k(vec): entry i of the result is vec[i - k mod n]."""
    return vec[-k:] + vec[:-k] if k else vec


def perm_apply(sigma: tuple[int, ...], vec: ClassVec) -> ClassVec:
    """Push a class vector through sigma: entry i moves to slot sigma[i]."""
    out = [0] * len(vec)
    for i, v in enumerate(vec):
        out[sigma[i]] = v
    return tuple(out)


# -- slice data ----------------------------------------------------------------


class SliceBase:
    """The slice M/IM plus the class permutation sigma induced by tensoring with I.

    The slice is one validated spec: a split module (:class:`SemisimpleData`,
    one variable per simple class) or a lattice over a basic hereditary order
    (:class:`hereditary.Lattice`, classes 1..n).  Both give the slice alphabet
    and the top class, and the alphabet gives each class's residue field size.
    Each hands out one table per slice class: the submodules of a slice module
    of that class, keyed by their own class (:meth:`class_counts`).

    The basic hereditary order has an automorphism permuting its projectives
    cyclically, P_i -> P_{i+1} (Reiner, *Maximal Orders*), so the table of
    class rot^k(t) is that of t with its z block and its class keys rotated k
    places.  A lattice base builds each table once per rotation orbit and
    bound, at the orbit's lexicographically least class, and rotates it for
    the other classes (:meth:`orbit_table`); a split base's classes carry
    different fields, so it builds every table.
    """

    def __init__(self, spec, sigma=None):
        if not isinstance(spec, (SemisimpleData, _her.Lattice)):
            raise SchemaError(f"slice base needs SemisimpleData or a Lattice, got {type(spec).__name__}")
        self.spec, self.top = spec, spec.top
        if not self.top:
            raise SchemaError("semisimple base needs at least one class")
        self.n_classes = n = len(self.top)
        self.sigma = validate_permutation(sigma if sigma is not None else range(n), n)
        self.alphabet = spec.alphabet
        self.class_qs = tuple(e.q for e in self.alphabet)
        self._orbit_tables: dict[tuple, dict[ClassVec, TruncatedSeries]] = {}

    @classmethod
    def dvr(cls, q: int, m: int) -> "SliceBase":
        """Free rank-m module over a discrete valuation slice: the one-class
        lattice of rank m, or for m = 0 the zero split module."""
        q, m = as_int(q, "q"), as_int(m, "m")
        if q < 2 or m < 0:
            raise SchemaError(f"dvr base needs q >= 2 and m >= 0, got q={q}, m={m}")
        if m > sys.maxsize:  # one column per rank, held in a tuple
            raise SchemaError(f"dvr base rank must be at most {sys.maxsize}, got m={m}")
        if m == 0:
            return cls(SemisimpleData.from_specs([(q, 0)]))
        return cls(_her.Lattice(q, 1, (1,) * m))

    def __repr__(self) -> str:
        return f"SliceBase({self.spec!r}, sigma={self.sigma})"

    def hom_count(self, rho: ClassVec, ell: ClassVec) -> int:
        """Size of the hom space from the projective of top rho to the class ell."""
        out = 1
        for qi, a, b in zip(self.class_qs, rho, ell):
            if a and b:
                out *= qi ** (a * b)
        return out

    # -- slice counts --------------------------------------------------------

    def class_counts(self, upper: ClassVec, bound: int) -> dict[ClassVec, TruncatedSeries]:
        """Submodules of a slice module of class ``upper`` by colength monomial
        over the slice alphabet, keyed by their class; only classes that occur
        at this bound are present."""
        if isinstance(self.spec, _her.Lattice):
            return self.orbit_table(_her.class_counts, upper, bound)
        out = {}
        for lower in _iter_product(*(range(max(0, a - bound), a + 1) for a in upper)):
            exps = tuple(a - b for a, b in zip(upper, lower))
            if sum(exps) <= bound:
                coeff = 1
                for qi, a, b in zip(self.class_qs, upper, lower):
                    coeff *= gaussian_binomial(a, b, qi)
                out[lower] = TruncatedSeries(self.alphabet, bound, {exps: coeff})
        return out

    def orbit_table(self, build, upper: ClassVec, bound: int) -> dict[ClassVec, TruncatedSeries]:
        """``build(lattice, bound)``, a table keyed by class over the z block,
        for the lattice of class ``upper`` over a lattice base: the table of
        the least rotation of ``upper``, built on first use, rotated onto
        ``upper``."""
        n = self.n_classes
        least, back = min((rotated(upper, -k), k) for k in range(n))
        key = (build, least, bound)
        table = self._orbit_tables.get(key)
        if table is None:
            table = self._orbit_tables[key] = build(_her.Lattice.of_class(self.spec.q, least), bound)
        if not back:
            return table
        return {
            rotated(lower, back): TruncatedSeries._trusted(
                part.alphabet, part.bound, {rotated(e, back): c for e, c in part.coeffs.items()}
            )
            for lower, part in table.items()
        }

    @classmethod
    def from_json(cls, payload) -> "SliceBase":
        spec = payload.get("base", payload) if isinstance(payload, dict) else payload
        if not isinstance(spec, dict):
            raise SchemaError("slice base must be an object")
        kind = spec.get("kind")
        raw_sigma = payload.get("sigma", spec.get("sigma"))
        if kind == "semisimple":
            data = SemisimpleData.from_json(spec.get("entries", []))
            return cls(data, sigma_from_one_based(raw_sigma, len(data.ms)))
        if kind == "dvr":
            try:
                base = cls.dvr(as_int(spec["q"], "q"), as_int(spec["m"], "m"))
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"dvr base needs q and m: {exc}") from exc
            if raw_sigma is not None and sigma_from_one_based(raw_sigma, 1) != (0,):
                raise SchemaError("dvr base has a single class; sigma must be [1]")
            return base
        if kind == "hereditary":
            lattice = _her.hereditary_from_json(spec)
            return cls(lattice, sigma_from_one_based(raw_sigma, lattice.n))
        raise SchemaError(f"unknown slice kind {kind!r}")


def sigma_from_one_based(raw, n: int):
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)):
        raise SchemaError("sigma must be a list of 1-based images")
    return tuple(s - 1 for s in validate_permutation(raw, n, 1))


# -- class sequences and chains ----------------------------------------------


@dataclass(frozen=True)
class ChainData:
    """Increasing chain of slice submodules by class: tops of the Y_j and the
    classes of the successive quotients Y_{j+1}/Y_j; constant beyond the
    stored prefix (all later quotients zero)."""

    y_tops: tuple[ClassVec, ...]
    quotients: tuple[ClassVec, ...]

    def __post_init__(self):
        if len(self.y_tops) != len(self.quotients) + 1:
            raise SchemaError(
                f"{len(self.y_tops)} chain levels need {len(self.y_tops) - 1} quotients, "
                f"got {len(self.quotients)}"
            )
        widths = {len(v) for v in self.y_tops} | {len(v) for v in self.quotients}
        if len(widths) > 1:
            raise SchemaError(f"mixed class-vector widths {widths}")
        for v in self.y_tops + self.quotients:
            if any(x < 0 for x in v):
                raise SchemaError(f"negative class multiplicity in {v}")


def layer_image(base: SliceBase, tops: tuple[ClassVec, ...], ell: ClassVec, j: int) -> tuple[int, ClassVec]:
    """Layer-j image of a class-``ell`` quotient: (scalar, exponents).

    ``tops`` supplies the classes P_0..P_j, its last entry repeating forever.
    The quotient is sent to the class ell + sigma ell + ... + sigma^j ell with
    the hom counts from P_{j-k} to each twisted class sigma^k ell.  The k = 0
    count, against the layer's own class, cancels, so the scalar

        prod_{k=1}^{j} hom(P_{j-k}, sigma^k ell)

    is an integer, and layer 0 is the identity.
    """
    if j < 0:
        raise SchemaError(f"layer index must be >= 0, got {j}")
    last = len(tops) - 1
    scalar, exps, twisted = 1, ell, ell
    for k in range(1, j + 1):
        twisted = perm_apply(base.sigma, twisted)
        exps = tuple(map(add, exps, twisted))
        scalar *= base.hom_count(tops[min(j - k, last)], twisted)
    return scalar, exps


def change_of_variable(
    base: SliceBase, seq: tuple[ClassVec, ...], j: int
) -> dict[int, tuple[int, Monomial]]:
    """Layer-j substitution targets: z_i -> the :func:`layer_image` of class i.

    So z_i -> scalar_i * prod_{k<=j} z_{sigma^k(i)}, with
    scalar_i = prod_{k=1}^{j} q_t^(P_{j-k}[t]), t = sigma^k(i).  Targets have
    degree j+1, which keeps truncation sound.
    """
    n = base.n_classes
    return {i: layer_image(base, seq, tuple(int(t == i) for t in range(n)), j) for i in range(n)}


def fundamental_fiber_product(base: SliceBase, chain: ChainData, bound: int) -> TruncatedSeries:
    """Contribution of one stabilizing chain: a single scaled monomial, the
    product of the :func:`layer_image` of each quotient over the chain's tops;
    the constant chain gives 1.
    """
    n = base.n_classes
    if len(chain.y_tops[0]) != n:
        raise SchemaError(f"chain class width {len(chain.y_tops[0])} != {n} slice classes")
    if chain.y_tops[-1] != base.top:
        raise SchemaError("chain does not stabilize at the class of the slice module")
    coeff, exps = 1, (0,) * n
    for j, ell in enumerate(chain.quotients):
        scalar, image = layer_image(base, chain.y_tops, ell, j)
        coeff *= scalar
        exps = tuple(map(add, exps, image))
    return TruncatedSeries(base.alphabet, bound, {exps: coeff})


# -- proliferation sums -------------------------------------------------------


def _class_sequence_sum(base: SliceBase, bound: int, class_counts, budget: int) -> TruncatedSeries:
    """Sum over class sequences of the product of substituted layer counts,
    by the transfer-matrix method (Stanley, *Enumerative Combinatorics* 1, 4.7).

    A sequence P_0, ..., P_bound = top of slice classes contributes, at each
    layer j < bound, a term c*z^e of ``class_counts(P_{j+1}, bound)[P_j]``
    (the tables of :meth:`SliceBase.class_counts`), sent by
    :func:`change_of_variable` to the monomial z^(e + sigma e + ... + sigma^j e)
    with scalar prod_{l<j} prod_t q_t^(P_l[t] (sigma^(j-l) e)[t]).  So class P_l
    meets the later layers only through D_l = sum_{j>l} sigma^(j-l) e_j, and
    D_{l-1} = sigma(e_l + D_l).  The sum runs backward from layer bound-1 to 0
    over states (P_{j+1}, D_j), each holding the series of the layers above j;
    only the states of one layer are kept.  Layers at positions >= bound
    reduce to 1 at this bound, because a class jump at position j costs
    degree >= j+1.  A table is built on first use, once per upper class, and
    read in class order, so the order of the products does not depend on how
    the table was built (directly, or rotated off its orbit's table); every
    coefficient product counts against ``budget``.
    """
    sigma, qs = base.sigma, base.class_qs
    zero = (0,) * base.n_classes
    tables: dict[ClassVec, list] = {}  # upper -> [(lower, [(|e|, e, c), ...] by degree)]
    states: dict[tuple[ClassVec, ClassVec], dict[Monomial, int]] = {(base.top, zero): {zero: 1}}
    work = 0
    for j in range(bound - 1, -1, -1):
        span = j + 1  # the layer-j image of z^e has degree span * |e|
        shifts: dict[Monomial, Monomial] = {}
        built: dict[tuple[ClassVec, ClassVec], dict[Monomial, int]] = {}
        for (upper, d), series in states.items():
            terms = tables.get(upper)
            if terms is None:
                terms = tables[upper] = [
                    (lower, sorted((sum(e), e, c) for e, c in counts.coeffs.items()))
                    for lower, counts in sorted(class_counts(upper, bound).items())
                ]
            low = min(map(sum, series))
            for lower, entries in terms:
                weight = 1
                for qt, p, x in zip(qs, lower, d):
                    if p and x:
                        weight *= qt ** (p * x)
                for deg, e, c in entries:
                    room = bound - span * deg
                    if room < low:
                        break
                    shift = shifts.get(e)
                    if shift is None:
                        shift = image = e
                        for _ in range(j):
                            image = perm_apply(sigma, image)
                            shift = tuple(map(add, shift, image))
                        shifts[e] = shift
                    target = built.setdefault((lower, perm_apply(sigma, tuple(map(add, e, d)))), {})
                    factor = c * weight
                    for mono, v in series.items():
                        if sum(mono) <= room:
                            key = tuple(map(add, mono, shift))
                            target[key] = target.get(key, 0) + factor * v
                            work += 1
                    if work > budget:
                        raise ResourceBudgetError(
                            "class-sequence sum made too many coefficient products", required=work, budget=budget
                        )
        states = built
    total: dict[Monomial, int] = {}
    for series in states.values():
        for mono, v in series.items():
            total[mono] = total.get(mono, 0) + v
    return TruncatedSeries(base.alphabet, bound, total)


def proliferation_sum(base: SliceBase, bound: int, budget: int = DEFAULT_SEQUENCE_BUDGET) -> TruncatedSeries:
    """Full submodule count of M assembled from slice counts over class sequences."""
    return _class_sequence_sum(base, bound, base.class_counts, budget)


def single_sliver(base: SliceBase, bound: int) -> TruncatedSeries:
    """Product form when every slice submodule under the bound is a copy of the slice.

    The rule is read off the slice's own table at ``bound``, which keys the
    submodules of colength at most ``bound`` by their class: the product
    holds when ``base.top`` is the table's only key, and any other base is
    refused.  So a dvr base (a one-class lattice, or the zero module) passes
    at every bound, and every base passes at bound 0.
    """
    al = base.alphabet
    out = TruncatedSeries.one(al, bound)
    table = base.class_counts(base.top, bound)
    if list(table) != [base.top]:
        raise SchemaError("single-sliver form needs all finite-colength slice submodules isomorphic")
    full = table[base.top]
    top = (base.top,)
    for j in range(bound):
        out = out * full.truncated(bound // (j + 1)).substitute(al, change_of_variable(base, top, j), bound)
    return out


def lifted_hey(data: SemisimpleData, sigma, bound: int) -> TruncatedSeries:
    """Layered product for a module whose slice is split: layer n >= 0 twists
    the class orbit n+1 steps and contributes factors of degree n+1.

    Layer n, class i, step j < m_i contributes
    (1 - q_i^(j - m_i) * prod_{k=0}^n w_{sigma^k(i)})^{-1} with w_i = q_i^(m_i) z_i.
    The k = 0 factor q_i^(m_i) cancels q_i^(-m_i), so the scalar is the integer
    q_i^j times the twist of class i: the layer-n :func:`change_of_variable`
    of the split slice, whose top class is (m_1, ..., m_n).  So each (layer,
    class) is one run in ratio q_i, expanded as one series by the q-binomial
    theorem (:meth:`TruncatedSeries.geometric`).
    """
    out = TruncatedSeries.one(data.alphabet, bound)
    if not data.ms:
        return out
    base = SliceBase(data, sigma)
    top = (base.top,)
    for layer in range(bound):
        for q, m, (twist, exps) in zip(base.class_qs, data.ms, change_of_variable(base, top, layer).values()):
            out = out * TruncatedSeries.geometric(base.alphabet, bound, exps, twist, m, q)
    return out


# -- Dirichlet specializations -------------------------------------------------


def hom_slice_bound(q: int, r: int, n_max: int) -> int:
    """The least truncation bound that certifies every norm up to n_max: the
    least b with (q^r)^(b+1) > n_max."""
    if q < 2 or r < 1:
        raise SchemaError(f"bad parameters q={q}, r={r}")
    norm = q**r
    bound, reach = 0, norm
    while reach <= n_max:
        bound, reach = bound + 1, reach * norm
    return bound


def hom_slice_dirichlet(q: int, r: int, m: int, s_count: int, n_max: int) -> dict[int, int]:
    """Norm-indexed counts when all simple slice components match.

    Expands prod_{n>=0} prod_{j<m} (1 - q^(j+mn) z^(n+1))^(-s_count) with z of
    norm q^r, the s_count-th power of the one-class :func:`lifted_hey`, then
    groups by norm up to n_max.
    """
    if q < 2 or r < 1 or m < 0 or s_count < 0:
        raise SchemaError(f"bad parameters q={q}, r={r}, m={m}, s_count={s_count}")
    bound = hom_slice_bound(q, r, n_max)
    out = lifted_hey(SemisimpleData.from_specs([(q, m, r)]), None, bound) ** s_count
    return out.dirichlet_coeffs(n_max)


def lustig_coeffs(q: int, i_max: int) -> list[int]:
    """Ideal counts of the one-class power-series ring, colength 0..i_max.

    The coefficients of the layered product prod_{n>=0} (1 - q^n z^(n+1))^(-1),
    which is the one-class :func:`lifted_hey`.  The partition sums
    sum_j p(i,j) q^(i-j) are its witness in the ``lustig`` suite.
    """
    if q < 2 or i_max < 0:
        raise SchemaError(f"bad parameters q={q}, i_max={i_max}")
    series = lifted_hey(SemisimpleData.from_specs([(q, 1)]), None, i_max)
    return [series.coefficient((i,)) for i in range(i_max + 1)]


def _dirichlet_mul(a: dict[int, int], b: dict[int, int], n_max: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for x, cx in a.items():
        for y, cy in b.items():
            if x * y <= n_max:
                out[x * y] = out.get(x * y, 0) + cx * cy
    return out


def rossmann_coeffs(n_max: int) -> dict[int, int]:
    """Ideal counts of the integer power-series ring by index, 1..n_max.

    The product of shifted Riemann factors: index-n^j terms with weight
    n^(j-1) for each j >= 1.  The prime-local assembly from one-class counts
    is its witness in the ``rossmann`` suite.
    """
    if n_max < 1:
        return {}
    out = {1: 1}
    j = 1
    while 2**j <= n_max:
        layer = {1: 1}
        k = 2
        while k**j <= n_max:
            layer[k**j] = k ** (j - 1)
            k += 1
        out = _dirichlet_mul(out, layer, n_max)
        j += 1
    return out


# -- factored form over one-block lattice bases ---------------------------------


def zjv_factor(ell: int, q: int, j: int, bound: int) -> TruncatedSeries:
    """Layer-j image of the rank-ell base count: v -> q^(j*ell) v^(j+1).

    Substitutes the base count through the layer-j :func:`change_of_variable`
    of the rank-ell dvr slice.  The ``brs-factored`` suite checks it against
    the closed form prod_{i<ell} (1 - q^(i+j*ell) v^(j+1))^{-1}, the layer
    factor that :func:`brs_factored_prolif` builds its prefactor from.
    """
    if ell < 0 or j < 0:
        raise SchemaError(f"need ell >= 0 and j >= 0, got ell={ell}, j={j}")
    src = _her.solomon_hey_factor(ell, q, bound // (j + 1))
    return src.substitute(src.alphabet, change_of_variable(SliceBase.dvr(q, ell), ((ell,),), j), bound)


def _polynomial_parts(lattice: _her.Lattice, bound: int) -> dict[ClassVec, TruncatedSeries]:
    """The polynomial factor of ``lattice`` split by class, each part complete
    through ``bound``: every w-degree of F is r."""
    return split_trailing(_her.polynomial_factor(lattice, bound + lattice.r), lattice.n)


def polynomial_class_counts(base: SliceBase, upper: ClassVec, bound: int) -> dict[ClassVec, TruncatedSeries]:
    """The table of class ``upper`` over a lattice base with each entry replaced
    by its polynomial part: the polynomial factor of a slice module of that
    class, split by class, built once per rotation orbit
    (:meth:`SliceBase.orbit_table`).  The class-sequence sum over these
    tables is the remainder of :func:`brs_factored_prolif`."""
    return base.orbit_table(_polynomial_parts, upper, bound)


def brs_factored_prolif(
    base: SliceBase, bound: int, budget: int = DEFAULT_SEQUENCE_BUDGET
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Split the assembled count into (class-independent prefactor, remainder).

    The prefactor is the product of the layer images of the rank-r base
    count, built in closed form as prod_{j, i<r} (1 - q^(i+j*r) v^(j+1))^{-1}
    with v = z_1...z_n (see :func:`zjv_factor`), one q-binomial run per layer
    j (:meth:`TruncatedSeries.geometric`); the remainder is the
    class-sequence sum with each layer count replaced by its polynomial part.
    Their product is the plain assembled sum, which the ``brs-factored``
    suite checks; ``budget`` bounds the one class-sequence sum run here.
    """
    if not isinstance(base.spec, _her.Lattice):
        raise SchemaError("factored form needs a lattice (hereditary or nonzero dvr) base")
    q, n, r = base.spec.q, base.spec.n, base.spec.r
    al = base.alphabet
    # sigma permutes the classes, whose tops sum to r, so layer j sends v = z_1...z_n to q^(jr) v^(j+1)
    prefactor = TruncatedSeries.one(al, bound)
    for j in range(bound // n):
        prefactor = prefactor * TruncatedSeries.geometric(al, bound, (j + 1,) * n, q ** (j * r), r, q)
    remainder = _class_sequence_sum(base, bound, partial(polynomial_class_counts, base), budget)
    return prefactor, remainder
