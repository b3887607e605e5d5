"""Closed product formula for split-slice submodule counts, and its inverse."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brzeta.errors import SchemaError
from brzeta.hey import SemisimpleData, hey_product, moebius_inverse_series
from brzeta.qcomb import cauchy_poly
from brzeta.series import Alphabet, AlphabetEntry, TruncatedSeries, geometric_product


def z_poly(data, coeffs):
    al = data.alphabet
    return TruncatedSeries(al, len(coeffs) - 1, {(d,): c for d, c in enumerate(coeffs) if c})


class TestHeyProduct:
    def test_rank_one(self):
        data = SemisimpleData.from_specs([(2, 1)])
        assert hey_product(data, 3) == z_poly(data, [1, 1, 1, 1])

    def test_rank_two(self):
        data = SemisimpleData.from_specs([(2, 2)])
        assert hey_product(data, 3) == z_poly(data, [1, 3, 7, 15])

    def test_multiplicative_over_classes(self):
        data = SemisimpleData.from_specs([(2, 2), (3, 1)])
        combined = hey_product(data, 3)
        al = data.alphabet
        f1 = hey_product(SemisimpleData.from_specs([(2, 2)]), 3)
        f2 = hey_product(SemisimpleData.from_specs([(3, 1)]), 3)
        lift1 = f1.substitute(al, {0: (1, (1, 0))}, 3)
        lift2 = f2.substitute(al, {0: (1, (0, 1))}, 3)
        assert combined == lift1 * lift2

    def test_empty_data(self):
        data = SemisimpleData.from_specs([])
        assert hey_product(data, 2) == TruncatedSeries.one(data.alphabet, 2)

    def test_zero_multiplicity_class_contributes_nothing(self):
        data = SemisimpleData.from_specs([(2, 0), (2, 1)])
        f = hey_product(data, 2)
        assert f.coefficient((1, 0)) == 0
        assert f.coefficient((0, 2)) == 1

    def test_single_entry_coefficients_strictly_increase(self):
        for q in (2, 3):
            for m in (2, 3, 4):
                f = hey_product(SemisimpleData.from_specs([(q, m)]), 6)
                coeffs = [f.coefficient((k,)) for k in range(7)]
                assert all(a < b for a, b in zip(coeffs, coeffs[1:]))

    def test_matches_factor_by_factor_product(self):
        rng = random.Random(26)
        for _ in range(60):
            specs = [(rng.choice((2, 3, 4, 5, 7, 8, 9)), rng.randint(0, 5), rng.randint(1, 2))
                     for _ in range(rng.randint(1, 3))]
            data, bound = SemisimpleData.from_specs(specs), rng.randint(0, 7)
            al = data.alphabet
            factors = [(al.unit(i), q**j) for i, (q, m, _) in enumerate(specs) for j in range(m)]
            assert hey_product(data, bound) == geometric_product(al, bound, factors), (specs, bound)

    def test_twenty_thousand_copies_of_one_class(self):
        # the z and z^2 coefficients are the Gaussian binomials [m choose 1]_2 and [m+1 choose 2]_2
        m = 20000
        f = hey_product(SemisimpleData.from_specs([(2, m)]), 2)
        assert f.coefficient((1,)) == 2**m - 1
        assert f.coefficient((2,)) == (2 ** (m + 1) - 1) * (2**m - 1) // 3


class TestMoebiusInverse:
    def test_rank_one(self):
        data = SemisimpleData.from_specs([(2, 1)])
        assert moebius_inverse_series(data, 1) == z_poly(data, [1, -1])

    def test_rank_two_is_cauchy(self):
        data = SemisimpleData.from_specs([(2, 2)])
        assert moebius_inverse_series(data, 2) == z_poly(data, [1, -3, 2])
        assert cauchy_poly(2, 2) == [1, -3, 2]

    def test_empty_data(self):
        data = SemisimpleData.from_specs([])
        assert moebius_inverse_series(data, 3) == TruncatedSeries.one(data.alphabet, 3)


class TestSpec:
    AL = Alphabet((AlphabetEntry("z1", 2), AlphabetEntry("z2", 3)))

    @pytest.mark.parametrize("ms", [(), (1,), (1, 2, 3)])
    def test_one_multiplicity_per_alphabet_entry(self, ms):
        with pytest.raises(SchemaError, match=r"^2 classes need 2 multiplicities"):
            SemisimpleData(self.AL, ms)

    def test_negative_multiplicity_refused(self):
        with pytest.raises(SchemaError, match=r"^multiplicity must be >= 0, got -1$"):
            SemisimpleData(self.AL, (1, -1))

    def test_multiplicity_checked_before_the_alphabet(self):
        # q = 6 is no prime power, but each constructor names the multiplicity first
        for build in (lambda: SemisimpleData.from_json([{"q": 6, "m": 1}, {"q": 2, "m": -1}]),
                      lambda: SemisimpleData.from_specs([(6, -1)])):
            with pytest.raises(SchemaError, match=r"^multiplicity must be >= 0, got -1$"):
                build()

    def test_fields(self):
        data = SemisimpleData.from_specs([(2, 3), (3, 0, 2)])
        assert data == SemisimpleData(Alphabet((AlphabetEntry("z1", 2), AlphabetEntry("z2", 3, 2))), [3, 0])
        assert data.ms == data.top == (3, 0)


class TestJson:
    def test_entries_key(self):
        data = SemisimpleData.from_json({"entries": [{"q": 2, "r": 1, "m": 1}]})
        assert len(data.alphabet) == 1 and data.ms == (1,)
        assert data.alphabet[0].label == "z"

    def test_bare_list_and_labels(self):
        data = SemisimpleData.from_json([{"q": 2, "m": 1}, {"q": 3, "m": 2, "label": "y"}])
        assert [e.label for e in data.alphabet] == ["z1", "y"]
        assert data.alphabet[1].r == 1 and data.ms == (1, 2)

    def test_missing_fields_rejected(self):
        with pytest.raises(SchemaError):
            SemisimpleData.from_json([{"q": 2}])

    def test_non_object_entry_rejected(self):
        with pytest.raises(SchemaError):
            SemisimpleData.from_json([3])


@st.composite
def random_data(draw):
    n = draw(st.integers(1, 3))
    specs = [
        (draw(st.sampled_from([2, 3, 4])), draw(st.integers(0, 4)), draw(st.integers(1, 2)))
        for _ in range(n)
    ]
    return SemisimpleData.from_specs(specs)


@settings(max_examples=30, deadline=None)
@given(random_data(), st.integers(0, 8))
def test_moebius_inverts_hey(data, bound):
    prod = hey_product(data, bound) * moebius_inverse_series(data, bound)
    assert prod == TruncatedSeries.one(data.alphabet, bound)


@settings(max_examples=30, deadline=None)
@given(random_data(), st.integers(0, 6))
def test_hey_coefficients_are_counts(data, bound):
    assert all(type(c) is int and c > 0 for c in hey_product(data, bound).coeffs.values())
