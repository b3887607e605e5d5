"""The hereditary engine's earlier assembly of the polynomial factor, the joint
count and the polynomial class tables, which only the tests use.

``hereditary.polynomial_factor`` sums the factor as integers keyed by
monomial, grouped by filtration dims, with the column-shift monomial u
already divided out of each key.  Here the stratum sum is built as series,
stratum by stratum: the t-monomial chain polynomial times the stratum's
Hermite weight in powers of v, scaled by the stratum count.  u is divided out
afterwards by an exact monomial division.  The joint count multiplies the
stratum sum by the base count at a bound inflated by deg u and divides
afterwards, and the class tables split the whole exact factor and truncate
each part.  The engine and this module share only the chain and stratum
counts and the Hermite weights, so a slip in a key or a bound shows as a
disagreement.

``filtered_poly`` builds each chain monomial as the product of the
t-monomials t_j = w_j * prod_{i>j} z_i raised to the chain's degree vector,
the construction ``hereditary.polynomial_factor`` reads off the degree vector
directly.
"""

from brzeta import hereditary as her
from brzeta.series import TruncatedSeries, mono_degree, split_trailing


def u_v(lattice):
    """The column-shift monomial u and v = z_1...z_n over the doubled alphabet."""
    n = lattice.n
    return lattice.shift + (0,) * n, (1,) * n + (0,) * n


def t_monomials(n):
    """t_1..t_n over the doubled alphabet: t_j couples the class-j marker w_j
    with the z's strictly above j."""
    return [tuple(int(i > j) for i in range(1, n + 1)) + tuple(int(i == j) for i in range(1, n + 1))
            for j in range(1, n + 1)]


def filtered_poly(dims, q, alphabet, bound):
    """Chain-sum polynomial: sum over chains of prod_j t_j^(step dimension)."""
    t = t_monomials(len(dims))
    coeffs = {}
    for degvec, cnt in her.chain_degree_counts(q, dims).items():
        exps = [0] * len(alphabet)
        for tj, d in zip(t, degvec):
            for idx, e in enumerate(tj):
                exps[idx] += e * d
        key = tuple(exps)
        coeffs[key] = coeffs.get(key, 0) + cnt
    return TruncatedSeries(alphabet, bound, coeffs)


def stratum_sum(lattice, bound):
    """Sum over strata Ybar of F_q^r of chain polynomial times Hermite weight,
    one stratum class (dims, dim Ybar) at a time, over the doubled alphabet."""
    q, r = lattice.q, lattice.r
    alphabet = her.doubled_alphabet(q, lattice.n)
    _, v_exps = u_v(lattice)
    acc = TruncatedSeries.zero(alphabet, bound)
    for (dims, m), count in her.stratum_counts(lattice).items():
        weight = TruncatedSeries.powers(alphabet, bound, v_exps, her.hermite_Q(m, r, q))
        acc = acc + (filtered_poly(dims, q, alphabet, bound) * weight).scaled(count)
    return acc


def divided(series, exps):
    """Exact division by the monomial ``exps``, complete through ``bound - deg exps``;
    every term must be divisible."""
    out = {}
    for k, c in series.coeffs.items():
        quotient = tuple(a - b for a, b in zip(k, exps))
        assert min(quotient) >= 0, f"{exps} does not divide {k}"
        out[quotient] = c
    return TruncatedSeries(series.alphabet, series.bound - mono_degree(exps), out)


def polynomial_factor(lattice, bound):
    """The stratum sum at ``bound + deg u``, divided by u."""
    u_exps, _ = u_v(lattice)
    return divided(stratum_sum(lattice, bound + mono_degree(u_exps)), u_exps)


def brz_two_variable(lattice, z_bound):
    """(stratum sum * rank-r base count) / u, at total-degree bound z_bound + r."""
    u_exps, v_exps = u_v(lattice)
    internal_bound = z_bound + lattice.r + mono_degree(u_exps)
    acc = stratum_sum(lattice, internal_bound)
    shifted = acc * TruncatedSeries.geometric(acc.alphabet, internal_bound, v_exps, 1, lattice.r, lattice.q)
    return divided(shifted, u_exps)


def polynomial_class_counts(base, upper, bound):
    """The exact polynomial factor of a slice module of class ``upper``, split
    by class, each part truncated to ``bound``."""
    n = base.spec.n
    lattice = her.Lattice(base.spec.q, n, tuple(i for i, v in enumerate(upper, start=1) for _ in range(v)))
    r = lattice.r
    # chain sums and stratum weights each have total degree <= rn
    exact = polynomial_factor(lattice, 2 * r * n + r)
    return {lower: part.extended(bound) for lower, part in split_trailing(exact, n).items()}
