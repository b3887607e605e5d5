"""Truncated-series ring: exact arithmetic, truncation soundness, extraction."""

import random
import warnings
from fractions import Fraction
from itertools import count, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brzeta.errors import (
    AlphabetMismatchError,
    CompletenessWarning,
    NonUnitError,
    SchemaError,
    TruncationBoundError,
)
from brzeta.series import (
    Alphabet,
    AlphabetEntry,
    TruncatedSeries,
    geometric_product,
    split_trailing,
)

Z = Alphabet([("z", 2, 1)])
Z3 = Alphabet([("z1", 2, 1), ("z2", 3, 1), ("z3", 2, 2)])


def geom(scalar=1, bound=4, al=Z):
    return TruncatedSeries.geometric(al, bound, al.unit(0), scalar)


def poly(coeffs, bound=None, al=Z):
    bound = bound if bound is not None else len(coeffs) - 1
    return TruncatedSeries(al, bound, {(d,): c for d, c in enumerate(coeffs) if c})


class TestAlphabet:
    def test_norms_are_prime_powers_of_entries(self):
        assert Z3.mono_norm((1, 0, 0)) == 2
        assert Z3.mono_norm((0, 1, 0)) == 3
        assert Z3.mono_norm((0, 0, 1)) == 4
        assert Z3.mono_norm((2, 1, 1)) == 48

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            Alphabet([("z", 2, 1), ("z", 3, 1)])

    def test_small_residue_field_rejected(self):
        with pytest.raises(SchemaError):
            AlphabetEntry("z", 1, 1)
        with pytest.raises(SchemaError):
            AlphabetEntry("z", 2, 0)
        with pytest.raises(SchemaError, match="prime power"):
            AlphabetEntry("z", 6, 1)

    def test_alphabet_is_the_tuple_of_its_entries(self):
        entries = (AlphabetEntry("z1", 2, 1), AlphabetEntry("z2", 3, 1), AlphabetEntry("z3", 2, 2))
        assert Z3 == entries and hash(Z3) == hash(entries)
        assert (len(Z3), Z3[2], list(Z3)) == (3, entries[2], list(entries))
        part = split_trailing(TruncatedSeries(Z3, 2, {(1, 0, 1): 5}), 2)[(1,)]
        assert type(part.alphabet) is Alphabet and part.alphabet == entries[:2]

    def test_format(self):
        assert Z3.format_monomial((0, 0, 0)) == "1"
        assert Z3.format_monomial((2, 1, 0)) == "z1^2*z2"


class TestArithmetic:
    def test_multiplicative_identity(self):
        f = poly([1, 2, 3])
        assert f * TruncatedSeries.one(Z, 2) == f

    def test_telescoping_truncates_remainder(self):
        one_minus = poly([1, -1], bound=3)
        partial = poly([1, 1, 1, 1])
        assert one_minus * partial == TruncatedSeries.one(Z, 3)

    def test_direct_convolution(self):
        lhs = poly([1, 1], bound=2) * poly([1, 0, 2])
        assert lhs == poly([1, 1, 2])

    def test_negative_bound_rejected(self):
        with pytest.raises(TruncationBoundError):
            TruncatedSeries(Z, -1, {})

    def test_mixed_bounds_rejected(self):
        with pytest.raises(TruncationBoundError):
            poly([1, 1]) * poly([1, 1, 1])

    def test_mixed_alphabets_rejected(self):
        with pytest.raises(AlphabetMismatchError):
            poly([1, 1]) + TruncatedSeries.one(Z3, 1)

    def test_equality_requires_equal_bounds(self):
        assert (poly([1], bound=1) == poly([1], bound=2)) is False

    def test_scalar_ops(self):
        f = poly([1, 1])
        assert f.scaled(3).coefficient((1,)) == 3
        assert (f - f).is_zero()
        assert f**0 == TruncatedSeries.one(Z, 1)

    def test_power(self):
        assert poly([1, 1], bound=3) ** 3 == poly([1, 3, 3, 1])


class TestInvert:
    def test_geometric(self):
        assert poly([1, -1], bound=4).invert() == poly([1, 1, 1, 1, 1])

    def test_identity(self):
        one = TruncatedSeries.one(Z, 3)
        assert one.invert() == one

    def test_ratio_two(self):
        assert poly([1, -2], bound=3).invert() == poly([1, 2, 4, 8])

    def test_zero_constant_term_rejected(self):
        with pytest.raises(NonUnitError):
            poly([0, 1]).invert()

    def test_non_unit_constant_term_rejected(self):
        with pytest.raises(NonUnitError):
            poly([2, 1], bound=3).invert()


class TestCanonicalCoefficients:
    def test_bool_is_stored_as_plain_int(self):
        c = TruncatedSeries(Z, 2, {(0,): True}).constant_term
        assert type(c) is int and c == 1

    def test_unit_constant_inverts_in_ints(self):
        inv = poly([-1, 3], bound=3).invert()
        assert inv == poly([-1, -3, -9, -27])
        assert all(type(c) is int for c in inv.coeffs.values())

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TruncatedSeries(Z, 2, {(1,): Fraction(4, 2)}),
            lambda: poly([1, 1]).scaled(Fraction(1, 2)),
            lambda: poly([1, 1]) * Fraction(2),
            lambda: poly([1, 1]) + Fraction(1, 2),
            lambda: poly([1, 1]).substitute(Z, {0: (Fraction(1, 3), (1,))}, 1),
        ],
        ids=["coefficient", "scaled", "mul", "add", "substitute"],
    )
    def test_fraction_refused(self, build):
        with pytest.raises(SchemaError, match="must be integers"):
            build()


class TestPowers:
    def test_polynomial_in_a_monomial(self):
        got = TruncatedSeries.powers(Z3, 5, (1, 0, 1), [1, -3, 0, 2])
        assert got == TruncatedSeries(Z3, 5, {(0, 0, 0): 1, (1, 0, 1): -3})
        assert TruncatedSeries.powers(Z3, 6, (1, 0, 1), [1, -3, 0, 2]).coefficient((3, 0, 3)) == 2

    def test_infinite_coefficients_read_to_the_bound(self):
        assert TruncatedSeries.powers(Z, 4, (1,), count(1)) == poly([1, 2, 3, 4, 5])
        assert TruncatedSeries.powers(Z, 4, (2,), count(1)) == poly([1, 0, 2, 0, 3])

    def test_geometric_with_fraction_scalar(self):
        with pytest.raises(SchemaError, match="must be integers"):
            geom(Fraction(4, 2), bound=2)

    def test_degree_zero_rejected(self):
        with pytest.raises(TruncationBoundError):
            TruncatedSeries.powers(Z, 3, (0,), [1, 1])
        with pytest.raises(TruncationBoundError):
            TruncatedSeries.geometric(Z, 3, (0,), 2)

    def test_geometric_run_is_its_factors(self):
        # the q-binomial run against its factors multiplied one by one
        rng = random.Random(26)
        for length, ratio in product(range(7), (1, 2, 3, 4, 5, 7, 8, 9)):
            for scalar in (rng.randint(-9, -1), 0, rng.randint(1, 9)):
                exps = (0, 0, 0)
                while not 1 <= sum(exps) <= 3:
                    exps = tuple(rng.randint(0, 2) for _ in range(3))
                bound = rng.randint(0, 9)
                run = TruncatedSeries.geometric(Z3, bound, exps, scalar, length, ratio)
                factors = [(exps, scalar * ratio**j) for j in range(length)]
                assert run == geometric_product(Z3, bound, factors), (exps, scalar, length, ratio, bound)


class TestSubstitute:
    def test_identity_map(self):
        f = poly([1, 2, 3])
        assert f.substitute(Z, {0: (1, (1,))}, 2) == f

    def test_direct_image(self):
        f = poly([1, 1], bound=2)
        assert f.substitute(Z, {0: (2, (2,))}, 2) == poly([1, 0, 2])

    def test_degree_tripling(self):
        f = poly([1, 1, 1], bound=6)
        image = f.substitute(Z, {0: (4, (3,))}, 6)
        assert image == TruncatedSeries(Z, 6, {(0,): 1, (3,): 4, (6,): 16})

    def test_degree_zero_target_rejected(self):
        with pytest.raises(TruncationBoundError):
            poly([1, 1]).substitute(Z, {0: (1, (0,))}, 1)

    def test_partial_map_rejected(self):
        f = TruncatedSeries.one(Z3, 2)
        with pytest.raises(SchemaError):
            f.substitute(Z3, {0: (1, (1, 0, 0))}, 2)

    def test_unsound_output_bound_rejected(self):
        # source bound 2 with doubling map certifies only degree < 6
        f = poly([1, 1, 1])
        with pytest.raises(TruncationBoundError):
            f.substitute(Z, {0: (1, (2,))}, 6)
        f.substitute(Z, {0: (1, (2,))}, 5)


class TestDirichlet:
    def test_single_monomial_norm(self):
        assert poly([0, 0, 1], bound=2).dirichlet_coeffs(4) == {4: 1}

    def test_constant(self):
        assert TruncatedSeries.one(Z, 0).dirichlet_coeffs(1) == {1: 1}

    def test_lustig_style_series(self):
        table = poly([1, 1, 3, 7]).dirichlet_coeffs(8)
        assert table == {1: 1, 2: 1, 4: 3, 8: 7}

    def test_incompleteness_warns(self):
        with pytest.warns(CompletenessWarning):
            poly([1, 1]).dirichlet_coeffs(4)

    def test_complete_bound_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            poly([1, 1]).dirichlet_coeffs(2)


class TestSliceCoefficient:
    """Parts of :func:`split_trailing`: the coefficient of one trailing monomial."""

    ZW = Alphabet([("z", 2, 1), ("w", 2, 1)])

    def test_trivial_slice(self):
        f = TruncatedSeries(self.ZW, 2, {(0, 0): 1, (1, 0): 5})
        sliced = split_trailing(f, 1)[(0,)]
        assert sliced.constant_term == 1
        assert sliced.coefficient((1,)) == 5

    def test_rank_one_dvr_slice(self):
        w_over_1mz = TruncatedSeries(
            self.ZW, 4, {(k, 1): 1 for k in range(4)}
        )
        parts = split_trailing(w_over_1mz, 1)
        assert parts == {(1,): TruncatedSeries(Alphabet([("z", 2, 1)]), 3, {(k,): 1 for k in range(4)})}

    def test_absent_monomial(self):
        f = TruncatedSeries(self.ZW, 2, {(0, 1): 1, (1, 1): 1})
        assert (2,) not in split_trailing(f, 1)


small_series = st.builds(
    lambda coeffs: TruncatedSeries(Z3, 3, {m: c for m, c in coeffs.items()}),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)).filter(lambda m: sum(m) <= 3),
        st.integers(-4, 4),
        max_size=5,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(small_series)
def test_inverse_roundtrip(f):
    unit = f + TruncatedSeries.one(Z3, 3) - TruncatedSeries(Z3, 3, {(0, 0, 0): f.constant_term})
    assert unit.constant_term == 1
    assert unit * unit.invert() == TruncatedSeries.one(Z3, 3)


@settings(max_examples=40, deadline=None)
@given(small_series, small_series)
def test_substitute_is_multiplicative(f, g):
    mapping = {0: (2, (0, 1, 0)), 1: (1, (1, 0, 1)), 2: (3, (0, 0, 2))}
    lhs = (f * g).substitute(Z3, mapping, 3)
    rhs = f.substitute(Z3, mapping, 3) * g.substitute(Z3, mapping, 3)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(small_series, st.integers(0, 3))
def test_split_trailing_reassembles(f, first_count):
    # each part times its trailing monomial, summed, restores the series
    acc = TruncatedSeries.zero(Z3, f.bound)
    for h, part in split_trailing(f, first_count).items():
        assert part.alphabet == Alphabet(Z3[:first_count])
        assert part.bound == f.bound - sum(h)
        lifted = TruncatedSeries(Z3, f.bound, {k + (0,) * len(h): c for k, c in part.coeffs.items()})
        acc = acc + lifted * TruncatedSeries.monomial(Z3, f.bound, (0,) * first_count + h)
    assert acc == f


@settings(max_examples=40, deadline=None)
@given(small_series, small_series, st.integers(0, 3))
def test_truncation_commutes_with_product(f, g, k):
    assert (f * g).truncated(k) == f.truncated(k) * g.truncated(k)


# -- graded inversion and binary powering ------------------------------------------


ALPHABETS = [Alphabet(Z3[:n]) for n in (1, 2, 3)]


@st.composite
def unit_series(draw):
    """A small series over 1-3 classes whose constant term is a unit, 1 or -1."""
    al = draw(st.sampled_from(ALPHABETS))
    bound = draw(st.integers(0, 4))
    n = len(al)
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * n),
            st.integers(-3, 3),
            max_size=4,
        )
    )
    coeffs = {k: c for k, c in terms.items() if sum(k) <= bound}
    coeffs[al.zero()] = draw(st.sampled_from([1, -1]))
    return TruncatedSeries(al, bound, coeffs)


def geometric_sum_inverse(f):
    """1/f as (1/c) * sum_k (1 - f/c)^k, by repeated full products; 1/c = c for c = +-1."""
    inv = f.constant_term
    one = TruncatedSeries.one(f.alphabet, f.bound)
    g = one - f.scaled(inv)
    acc, power = one, one
    for _ in range(f.bound):
        power = power * g
        acc = acc + power
    return acc.scaled(inv)


@settings(max_examples=80, deadline=None)
@given(unit_series())
def test_graded_inverse(f):
    inv = f.invert()
    assert f * inv == TruncatedSeries.one(f.alphabet, f.bound)
    assert inv == geometric_sum_inverse(f)
    assert_canonical(inv)


@settings(max_examples=60, deadline=None)
@given(unit_series(), st.integers(0, 5))
def test_binary_power(f, k):
    folded = TruncatedSeries.one(f.alphabet, f.bound)
    for _ in range(k):
        folded = folded * f
    assert f**k == folded
    assert f**-k == f.invert() ** k
    assert_canonical(f**k)
    assert_canonical(f**-k)


# -- ring results are stored canonically ---------------------------------------------


def assert_canonical(series):
    """Re-check a series against the public constructor's rules."""
    n = len(series.alphabet)
    for k, c in series.coeffs.items():
        assert type(k) is tuple and len(k) == n, k
        assert all(type(e) is int and e >= 0 for e in k), k
        assert sum(k) <= series.bound, (k, series.bound)
        assert c != 0, k
        assert type(c) is int, (k, c)


class TestTrustedResults:
    F = TruncatedSeries(Z3, 3, {(0, 0, 0): 1, (1, 0, 0): 2, (0, 1, 1): -3, (1, 1, 1): 4})
    G = TruncatedSeries(Z3, 3, {(0, 0, 0): -1, (1, 0, 0): -1, (0, 0, 2): 5})

    def test_every_op_result(self):
        f, g = self.F, self.G
        mapping = {0: (3, (0, 1, 0)), 1: (2, (1, 0, 0)), 2: (1, (0, 0, 1))}
        results = [
            f + g,
            f - g,
            -f,
            f * g,
            f * 2,
            f.scaled(3),
            f.invert(),
            g**3,
            f**-2,
            f.truncated(1),
            f.truncated(0).extended(3),
            f.extended(5),
            f.substitute(Z3, mapping, 3),
            *split_trailing(f * g, 1).values(),
        ]
        for series in results:
            assert_canonical(series)

    def test_cancelling_add(self):
        total = self.F + self.G
        assert (0, 0, 0) not in total.coeffs
        assert total.coefficient((1, 0, 0)) == 1 and type(total.coefficient((1, 0, 0))) is int
        assert_canonical(total)
        assert (self.F + (-self.F)).coeffs == {}

    def test_truncated_drops_terms_above_the_new_bound(self):
        cut = self.F.truncated(1)
        assert cut == TruncatedSeries(Z3, 1, {(0, 0, 0): 1, (1, 0, 0): 2})
        assert_canonical(cut)

    def test_substitute_collapsing_terms_cancel(self):
        f = TruncatedSeries(Z3, 2, {(1, 0, 0): 1, (0, 1, 0): -2})
        image = f.substitute(Z3, {0: (2, (1, 0, 0)), 1: (1, (1, 0, 0)), 2: (1, (0, 0, 1))}, 2)
        assert image.is_zero()

    def test_caller_arguments_still_checked(self):
        with pytest.raises(TruncationBoundError):
            self.F.truncated(-1)
        with pytest.raises(SchemaError):
            self.F.substitute(Z3, {0: (0, (1, 0, 0)), 1: (1, (0, 1, 0)), 2: (1, (0, 0, 1))}, 3)
        with pytest.raises(SchemaError):
            self.F.substitute(Z3, {0: (1, (1, 0)), 1: (1, (0, 1, 0)), 2: (1, (0, 0, 1))}, 3)

    def test_public_constructor_still_validates(self):
        with pytest.raises(SchemaError):
            TruncatedSeries(Z3, 2, {(1, 0): 1})
        with pytest.raises(SchemaError):
            TruncatedSeries(Z3, 2, {(1, -1, 0): 1})
        with pytest.raises(SchemaError):
            TruncatedSeries(Z3, 2, {(1, 0, 0): 0.5})
