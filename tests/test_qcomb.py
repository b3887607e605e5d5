"""q-combinatorics: Gaussian binomials, Cauchy products, partition counts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brzeta.qcomb import cauchy_poly, gaussian_binomial, partition_count, prime_power_factors


def _subspace_moebius(d, q):
    """Moebius value of a d-step interval in the subspace lattice: (-1)^d q^C(d,2)."""
    return (-1) ** d * q ** (d * (d - 1) // 2)


def _trial_division(q):
    """(p, e) with q = p^e, by dividing out the least factor; None otherwise."""
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q, e = q // p, e + 1
            return (p, e) if q == 1 else None
    return None


class TestPrimePowerFactors:
    def test_matches_trial_division(self):
        for q in range(0, 1025):
            assert prime_power_factors(q) == _trial_division(q), q

    def test_large_sizes(self):
        m61, m31 = 2**61 - 1, 2**31 - 1  # Mersenne primes
        assert prime_power_factors(m61) == (m61, 1)
        assert prime_power_factors(m31**2) == (m31, 2)
        assert prime_power_factors(3**200) == (3, 200)
        assert prime_power_factors(3 * m61) is None
        assert prime_power_factors(m31 * (2**19 - 1)) is None


class TestGaussianBinomial:
    def test_lines_in_plane(self):
        assert gaussian_binomial(2, 1, 2) == 3

    def test_trivial_cases(self):
        assert gaussian_binomial(5, 0, 7) == 1
        assert gaussian_binomial(5, 5, 7) == 1
        assert gaussian_binomial(3, 4, 2) == 0

    def test_planes_in_four_space(self):
        assert gaussian_binomial(4, 2, 2) == 35

    def test_symmetry(self):
        for m in range(7):
            for d in range(m + 1):
                assert gaussian_binomial(m, d, 3) == gaussian_binomial(m, m - d, 3)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_pascal_recursion(self, q):
        for m in range(1, 9):
            for d in range(1, m):
                lhs = gaussian_binomial(m, d, q)
                rhs = gaussian_binomial(m - 1, d - 1, q) + q**d * gaussian_binomial(m - 1, d, q)
                assert lhs == rhs


class TestSubspaceMoebius:
    def test_small_values(self):
        # the top coefficient of cauchy_poly(d, q) is the Moebius value of a d-step interval
        assert [cauchy_poly(d, 2)[d] for d in range(4)] == [1, -1, 2, -8]
        assert [_subspace_moebius(d, 2) for d in range(4)] == [1, -1, 2, -8]

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_inversion_identity(self, q):
        # sum over subspaces of the Moebius weight is zero unless V = 0
        for m in range(0, 6):
            total = sum(gaussian_binomial(m, d, q) * _subspace_moebius(d, q) for d in range(m + 1))
            assert total == (1 if m == 0 else 0)


class TestCauchyPoly:
    def test_empty_product(self):
        assert cauchy_poly(0, 2) == [1]

    def test_single_factor(self):
        assert cauchy_poly(1, 5) == [1, -1]

    def test_two_factors(self):
        assert cauchy_poly(2, 2) == [1, -3, 2]

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_matches_moebius_sum_form(self, q):
        for m in range(0, 7):
            coeffs = cauchy_poly(m, q)
            assert len(coeffs) == m + 1
            for d, c in enumerate(coeffs):
                assert c == gaussian_binomial(m, d, q) * _subspace_moebius(d, q)


class TestPartitionCount:
    def test_base_cases(self):
        assert partition_count(1, 1) == 1
        assert partition_count(4, 2) == 2
        assert partition_count(6, 3) == 3

    def test_out_of_range(self):
        assert partition_count(2, 3) == 0

    def test_row_sums_are_partition_numbers(self):
        # p(6) = 11
        assert sum(partition_count(6, j) for j in range(1, 7)) == 11

    @given(st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry(self, i):
        # greatest part j  <->  exactly j parts, via direct recursive enumeration
        def exactly_parts(n, j, cap=None):
            cap = n if cap is None else cap
            if j == 0:
                return 1 if n == 0 else 0
            return sum(exactly_parts(n - first, j - 1, first) for first in range(1, min(n, cap) + 1))

        for j in range(1, i + 1):
            assert partition_count(i, j) == exactly_parts(i, j)
