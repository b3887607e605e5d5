"""The hereditary engine's earlier assemblies of the joint count and the
polynomial class tables, which only the tests use.

``hereditary.polynomial_factor`` divides the column-shift monomial u out of
the stratum sum once, at the bound its caller needs, and the joint count and
the polynomial class tables are built from that factor.  Here the joint
count multiplies the stratum sum by the base count at a bound inflated by
deg u and divides afterwards, and the class tables split the whole exact
factor and truncate each part.  The two share only the stratum sum, so a
slip in either bound shows as a disagreement.
"""

from brzeta import hereditary as her
from brzeta.series import TruncatedSeries, mono_degree, split_trailing


def brz_two_variable(lattice, z_bound):
    """(stratum sum * rank-r base count) / u, at total-degree bound z_bound + r."""
    u_exps, v_exps, _ = her.substitution_data(lattice)
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
    u_exps, _, _ = her.substitution_data(lattice)
    # chain sums and stratum weights each have total degree <= rn
    exact = her._stratum_sum(lattice, 2 * r * n + r).divided_by_monomial(u_exps)
    return {lower: part.extended(bound) for lower, part in split_trailing(exact, n).items()}
