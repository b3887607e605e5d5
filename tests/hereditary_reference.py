"""The hereditary engine's earlier assemblies of the joint count and the
polynomial class tables, which only the tests use.

``hereditary.polynomial_factor`` divides the column-shift monomial u out of
the stratum sum once, at the bound its caller needs, and the joint count and
the polynomial class tables are built from that factor.  Here the joint
count multiplies the stratum sum by the base count at a bound inflated by
deg u and divides afterwards, and the class tables split the whole exact
factor and truncate each part.  The two share only the stratum sum, so a
slip in either bound shows as a disagreement.

``filtered_poly`` builds each chain monomial as the product of the
t-monomials t_j = w_j * prod_{i>j} z_i raised to the chain's degree vector,
the construction ``hereditary.filtered_poly`` reads off the degree vector
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


def brz_two_variable(lattice, z_bound):
    """(stratum sum * rank-r base count) / u, at total-degree bound z_bound + r."""
    u_exps, v_exps = u_v(lattice)
    internal_bound = z_bound + lattice.r + mono_degree(u_exps)
    acc = her._stratum_sum(lattice, internal_bound)
    shifted = acc * TruncatedSeries.geometric(acc.alphabet, internal_bound, v_exps, 1, lattice.r, lattice.q)
    return shifted.divided_by_monomial(u_exps)


def polynomial_class_counts(base, upper, bound):
    """The exact polynomial factor of a slice module of class ``upper``, split
    by class, each part truncated to ``bound``."""
    n = base.spec.n
    lattice = her.Lattice(base.spec.q, n, tuple(i for i, v in enumerate(upper, start=1) for _ in range(v)))
    r = lattice.r
    u_exps, _ = u_v(lattice)
    # chain sums and stratum weights each have total degree <= rn
    exact = her._stratum_sum(lattice, 2 * r * n + r).divided_by_monomial(u_exps)
    return {lower: part.extended(bound) for lower, part in split_trailing(exact, n).items()}
