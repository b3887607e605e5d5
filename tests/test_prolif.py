"""Class-sequence sums, layered products, and the Dirichlet-table identities."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brzeta import hereditary as her
from brzeta import oracle as orc
from brzeta import prolif as pr
from brzeta.errors import FormulaViolationError, ResourceBudgetError, SchemaError, TruncationBoundError
from brzeta.hey import SemisimpleData, hey_product
from brzeta.series import Alphabet, AlphabetEntry, TruncatedSeries, geometric_product, split_trailing

import prolif_reference as ref


DVR21 = pr.SliceBase.dvr(2, 1)
DVR22 = pr.SliceBase.dvr(2, 2)
HER12 = pr.SliceBase(her.Lattice(2, 2, (1, 2)))


def z_poly(base, coeffs):
    al = base.alphabet
    return TruncatedSeries(al, len(coeffs) - 1, {(d,): c for d, c in enumerate(coeffs) if c})


def random_twisted_base(rng, n_max):
    """A semisimple or hereditary base with 1..n_max classes and a random sigma."""
    n = rng.randint(1, n_max)
    sigma = list(range(n))
    rng.shuffle(sigma)
    if rng.random() < 0.5:
        data = SemisimpleData.from_specs([(rng.choice((2, 3, 4, 5)), rng.randint(0, 3)) for _ in range(n)])
        return pr.SliceBase(data, sigma)
    lattice = her.Lattice(rng.choice((2, 3, 4)), n, [rng.randint(1, n) for _ in range(rng.randint(1, 4))])
    return pr.SliceBase(lattice, sigma)


def twist(base, vec):
    """sigma applied to a class vector by hand: entry i moves to slot sigma[i]."""
    out = [0] * len(vec)
    for i, v in enumerate(vec):
        out[base.sigma[i]] = v
    return tuple(out)


class TestSliceBase:
    def test_fibre_classes(self):
        semi = pr.SliceBase(SemisimpleData.from_specs([(2, 1), (3, 2)]))
        assert set(ref.fibre_classes(semi)) == {(a, b) for a in (0, 1) for b in (0, 1, 2)}
        assert ref.fibre_classes(DVR22) == [(2,)]
        assert sorted(ref.fibre_classes(HER12)) == [(0, 2), (1, 1), (2, 0)]

    def test_top_class(self):
        assert DVR22.top == (2,)
        assert HER12.top == (1, 1)

    def test_hom_count(self):
        assert DVR21.hom_count((1,), (1,)) == 2
        assert HER12.hom_count((1, 1), (1, 0)) == 2
        assert HER12.hom_count((1, 1), (0, 0)) == 1

    def test_sigma_validation(self):
        with pytest.raises(SchemaError):
            pr.validate_permutation((0, 0), 2)
        with pytest.raises(SchemaError):
            pr.validate_permutation((0, 1, 2), 2)

    def test_sigma_entries_must_be_integers(self):
        with pytest.raises(SchemaError, match=r"^sigma entry must be an integer, got 0.7$"):
            pr.validate_permutation([0.7, 1.2], 2)
        assert pr.validate_permutation([1.0, 0], 2) == (1, 0)

    def test_dvr_field_size_and_rank_must_be_integers(self):
        with pytest.raises(SchemaError, match=r"^m must be an integer, got 1.5$"):
            pr.SliceBase.dvr(2, 1.5)
        with pytest.raises(SchemaError, match=r"^q must be an integer, got 2.5$"):
            pr.SliceBase.dvr(2.5, 1)
        assert pr.SliceBase.dvr(2.0, 2.0).spec == DVR22.spec

    def test_spec_is_split_data_or_a_lattice(self):
        with pytest.raises(SchemaError, match=r"^slice base needs SemisimpleData or a Lattice, got tuple$"):
            pr.SliceBase((2, 2, (1, 2)))
        with pytest.raises(SchemaError, match=r"^semisimple base needs at least one class$"):
            pr.SliceBase(SemisimpleData.from_specs([]))

    def test_json_roundtrip_kinds(self):
        base = pr.SliceBase.from_json(
            {"base": {"kind": "hereditary", "q": 2, "n": 2, "columns": [1, 2]}, "sigma": [2, 1]}
        )
        assert isinstance(base.spec, her.Lattice) and base.sigma == (1, 0)
        base = pr.SliceBase.from_json({"kind": "dvr", "q": 3, "m": 2})
        assert isinstance(base.spec, her.Lattice)
        assert (base.spec.q, base.spec.n, base.spec.columns) == (3, 1, (1, 1))
        base = pr.SliceBase.from_json({"kind": "dvr", "q": 3, "m": 0})
        assert isinstance(base.spec, SemisimpleData) and base.top == (0,)
        with pytest.raises(SchemaError):
            pr.SliceBase.from_json({"kind": "mystery"})


class TestPairZeta:
    """Entries of the per-class tables: one (upper, lower) pair each."""

    def test_semisimple_is_gaussian_monomial(self):
        semi = pr.SliceBase(SemisimpleData.from_specs([(2, 2)]))
        table = semi.class_counts((2,), 3)
        assert table[(1,)] == TruncatedSeries.monomial(semi.alphabet, 3, (1,), 3)
        assert set(table) == {(0,), (1,), (2,)}
        assert (2,) not in semi.class_counts((1,), 3)

    def test_split_table_walks_only_classes_within_the_bound(self):
        big = pr.SliceBase(SemisimpleData.from_specs([(2, 2000), (3, 2000)]))
        table = big.class_counts((2000, 2000), 2)
        assert sorted(table) == [(1998, 2000), (1999, 1999), (1999, 2000), (2000, 1998), (2000, 1999), (2000, 2000)]
        assert table[(1999, 1999)].coefficient((1, 1)) == (2**2000 - 1) * (3**2000 - 1) // 2

    def test_dvr_is_hey(self):
        table = DVR22.class_counts((2,), 3)
        assert table == {(2,): z_poly(DVR22, [1, 3, 7, 15])}

    def test_hereditary_partial(self):
        f = HER12.class_counts((1, 1), 4)[(1, 1)]
        assert f.coefficient((0, 0)) == 1
        assert f.coefficient((1, 1)) == 5

    def test_semisimple_partial_zeta_op(self):
        rank2 = pr.SliceBase(SemisimpleData.from_specs([(2, 2)]))
        assert rank2.class_counts((2,), 2)[(2,)].constant_term == 1
        assert rank2.class_counts((2,), 2)[(1,)].coefficient((1,)) == 3
        rank3 = pr.SliceBase(SemisimpleData.from_specs([(2, 3)]))
        assert rank3.class_counts((3,), 3)[(1,)].coefficient((2,)) == 7
        # colength 3 lies above bound 2: the zero submodule's class is absent
        assert (0,) not in rank3.class_counts((3,), 2)


class TestChangeOfVariable:
    def test_layer_zero_is_identity(self):
        mapping = pr.change_of_variable(DVR21, ((1,), (1,)), 0)
        assert mapping == {0: (Fraction(1), (1,))}

    def test_dvr_layer_two(self):
        mapping = pr.change_of_variable(DVR21, ((1,), (1,), (1,), (1,)), 2)
        assert mapping == {0: (Fraction(4), (3,))}
        # the last entry repeats: a one-entry sequence gives the same map
        assert pr.change_of_variable(DVR21, ((1,),), 2) == mapping

    def test_hereditary_swap(self):
        base = pr.SliceBase(her.Lattice(2, 2, (1, 2)), sigma=(1, 0))
        mapping = pr.change_of_variable(base, ((1, 1), (1, 1)), 1)
        scalar, exps = mapping[0]
        assert scalar == 2 and exps == (1, 1)

    @staticmethod
    def _by_division(base, seq, j):
        """Reference layer map: multiply the hom counts from P_(j-k) to each
        twisted class, then divide out the hom count from P_j to class i."""
        n, last = base.n_classes, len(seq) - 1
        units = [tuple(int(s == t) for s in range(n)) for t in range(n)]
        mapping = {}
        for i in range(n):
            exps, num, tgt = [0] * n, Fraction(1), i
            for k in range(j + 1):
                exps[tgt] += 1
                num *= base.hom_count(seq[min(j - k, last)], units[tgt])
                tgt = base.sigma[tgt]
            mapping[i] = (num / base.hom_count(seq[min(j, last)], units[i]), tuple(exps))
        return mapping

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_multiply_then_divide(self, seed):
        rng = random.Random(seed)
        base = random_twisted_base(rng, 4)
        classes = ref.fibre_classes(base)
        for _ in range(10):
            seq = tuple(rng.choice(classes) for _ in range(rng.randint(1, 5)))
            for j in range(6):
                assert pr.change_of_variable(base, seq, j) == self._by_division(base, seq, j)


class TestFundamentalFiberProduct:
    def test_constant_chain(self):
        chain = pr.ChainData(((1,),), ())
        got = pr.fundamental_fiber_product(DVR21, chain, 3)
        assert got == TruncatedSeries.one(DVR21.alphabet, 3)

    def test_depth_one_chain(self):
        chain = pr.ChainData(((1,), (1,)), ((1,),))
        assert pr.fundamental_fiber_product(DVR21, chain, 3) == z_poly(DVR21, [0, 1, 0, 0])

    def test_depth_one_length_two(self):
        chain = pr.ChainData(((1,), (1,)), ((2,),))
        assert pr.fundamental_fiber_product(DVR21, chain, 3) == z_poly(DVR21, [0, 0, 1, 0])

    def test_two_step_chain_counts_homs(self):
        chain = pr.ChainData(((1,), (1,), (1,)), ((0,), (1,)))
        assert pr.fundamental_fiber_product(DVR21, chain, 3) == z_poly(DVR21, [0, 0, 2, 0])

    def test_chain_shape_validated(self):
        with pytest.raises(SchemaError):
            pr.ChainData(((1,), (1,)), ())

    def test_chain_must_end_at_top(self):
        chain = pr.ChainData(((0,),), ())
        with pytest.raises(SchemaError):
            pr.fundamental_fiber_product(DVR21, chain, 2)

    @staticmethod
    def _by_division(base, chain):
        """Reference chart value: for the quotient ell at level j, multiply the
        hom counts from Y_(j-k) to sigma^k ell over k = 0..j, then divide out
        the k = 0 count, from Y_j to ell itself."""
        last = len(chain.y_tops) - 1
        coeff, exps = Fraction(1), (0,) * base.n_classes
        for j, ell in enumerate(chain.quotients):
            num, twisted = Fraction(1), ell
            for k in range(j + 1):
                exps = tuple(a + b for a, b in zip(exps, twisted))
                num *= base.hom_count(chain.y_tops[min(j - k, last)], twisted)
                twisted = twist(base, twisted)
            coeff *= num / base.hom_count(chain.y_tops[j], ell)
        assert coeff.denominator == 1
        return TruncatedSeries(base.alphabet, sum(exps), {exps: int(coeff)})

    @pytest.mark.parametrize("seed", range(8))
    def test_twisted_matches_multiply_then_divide(self, seed):
        rng = random.Random(seed)
        twisted_multi_class = 0
        for _ in range(6):
            base = random_twisted_base(rng, 3)
            n, classes = base.n_classes, ref.fibre_classes(base)
            twisted_multi_class += base.sigma != tuple(range(n))
            for _ in range(8):
                depth = rng.randint(0, 4)
                tops = tuple(rng.choice(classes) for _ in range(depth)) + (base.top,)
                quotients = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(depth))
                chain = pr.ChainData(tops, quotients)
                want = self._by_division(base, chain)
                assert pr.fundamental_fiber_product(base, chain, want.bound) == want, (base, chain)
        assert twisted_multi_class


class TestProliferationSum:
    def test_rank_one_semisimple(self):
        base = pr.SliceBase(SemisimpleData.from_specs([(2, 1)]))
        assert pr.proliferation_sum(base, 3) == z_poly(base, [1, 1, 1, 1])

    def test_rank_two_semisimple_single_jump(self):
        base = pr.SliceBase(SemisimpleData.from_specs([(2, 2)]))
        assert pr.proliferation_sum(base, 1) == z_poly(base, [1, 3])

    def test_hereditary_bound_zero(self):
        assert pr.proliferation_sum(HER12, 0) == TruncatedSeries.one(HER12.alphabet, 0)

    def test_sequence_budget(self):
        base = pr.SliceBase(SemisimpleData.from_specs([(2, 3), (2, 3)]))
        with pytest.raises(ResourceBudgetError):
            pr.proliferation_sum(base, 6, budget=10)
        # the budget counts coefficient products, so a 2-class base at bound 6
        # (16^6 class sequences, few of them nonzero) runs under the default budget
        data = SemisimpleData.from_specs([(2, 2), (3, 2)])
        assert pr.proliferation_sum(pr.SliceBase(data), 6) == hey_product(data, 6)


@st.composite
def small_bases(draw):
    """A semisimple, hereditary or dvr slice base with at most 3 classes and a random sigma."""
    kind = draw(st.sampled_from(["semisimple", "hereditary", "dvr"]))
    if kind == "dvr":
        return pr.SliceBase.dvr(draw(st.sampled_from([2, 3, 4])), draw(st.integers(0, 2)))
    n = draw(st.integers(1, 3))
    sigma = draw(st.permutations(range(n)))
    if kind == "semisimple":
        q_m_r = st.tuples(st.sampled_from([2, 3, 4]), st.integers(0, 2), st.integers(1, 2))
        specs = [draw(q_m_r) for _ in range(n)]
        return pr.SliceBase(SemisimpleData.from_specs(specs), sigma)
    columns = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    return pr.SliceBase(her.Lattice(draw(st.sampled_from([2, 3])), n, columns), sigma)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_bases(), st.integers(0, 5))
def test_sum_matches_reference_dfs(base, bound):
    """The transfer-matrix sum equals the search over every class sequence, on
    the plain tables and on the polynomial tables of the factored form."""
    got = pr.proliferation_sum(base, bound)
    want = ref.proliferation_dfs(base, bound, base.class_counts, 10**9)
    assert got == want, (base, bound, got.first_disagreement(want))
    if isinstance(base.spec, her.Lattice):
        _, remainder = pr.brs_factored_prolif(base, bound)
        want = ref.proliferation_dfs(base, bound, partial(pr.polynomial_class_counts, base), 10**9)
        assert remainder == want, (base, bound, remainder.first_disagreement(want))


@pytest.mark.parametrize("q, n, bound", [(3, 2, 3), (4, 2, 3), (2, 3, 3), (3, 3, 2), (2, 2, 4), (2, 3, 4), (2, 2, 6)])
def test_hereditary_sum_matches_skew_enumeration(q, n, bound):
    """The sum over the basic hereditary slice (columns 1..n) counts the
    submodules of the skew power-series model, enumerated."""
    base = pr.SliceBase(her.Lattice(q, n, range(1, n + 1)))
    got = pr.proliferation_sum(base, bound)
    want = orc.empirical_zeta(orc.skew_module(q, n, math.ceil((bound + 1) / 2), bound + 1), bound)
    assert got == want, got.first_disagreement(want)


def _orbit_bases(seed=20261022):
    """Seeded lattice bases, n = 2..5 over q in {2, 4}, each with sigma the
    identity and the rotation i -> i + 1."""
    rng = random.Random(seed)
    for n in range(2, 6):
        for q in (2, 4):
            lattice = her.Lattice(q, n, [rng.randint(1, n) for _ in range(rng.randint(2, 4))])
            for sigma in (range(n), [(i + 1) % n for i in range(n)]):
                yield pr.SliceBase(lattice, sigma)


@pytest.mark.parametrize(
    "base", _orbit_bases(), ids=lambda b: f"q={b.spec.q},n={b.n_classes},cols={b.spec.columns},sigma={b.sigma}"
)
def test_orbit_tables_equal_the_tables_built_directly(base):
    """A table read off its rotation orbit's table equals the one built for
    its own class, for every class the sum reaches, plain and polynomial; so
    the sums over them agree too."""
    bound, q, n = 3, base.spec.q, base.n_classes

    def direct(upper, bound):
        return her.class_counts(her.Lattice.of_class(q, upper), bound)

    def direct_polynomial(upper, bound):
        lattice = her.Lattice.of_class(q, upper)
        return split_trailing(her.polynomial_factor(lattice, bound + lattice.r), n)

    reached, queue = {base.top}, [base.top]
    while queue:
        upper = queue.pop()
        want = direct(upper, bound)
        assert base.class_counts(upper, bound) == want, upper
        assert pr.polynomial_class_counts(base, upper, bound) == direct_polynomial(upper, bound), upper
        for lower in want.keys() - reached:
            reached.add(lower)
            queue.append(lower)
    assert any(min(pr.rotated(t, k) for k in range(n)) != t for t in reached)
    budget = pr.DEFAULT_SEQUENCE_BUDGET
    assert pr.proliferation_sum(base, bound) == pr._class_sequence_sum(base, bound, direct, budget)
    _, remainder = pr.brs_factored_prolif(base, bound)
    assert remainder == pr._class_sequence_sum(base, bound, direct_polynomial, budget)


class TestClassTables:
    """The sum builds each reachable table once, at the full bound, and substitutes nothing."""

    BASE = pr.SliceBase(her.Lattice(2, 4, (1, 2, 3, 4)))

    def test_one_build_per_reachable_class(self, monkeypatch):
        built = []
        substituted = []
        class_counts = pr.SliceBase.class_counts

        def counting(self, upper, bound):
            table = class_counts(self, upper, bound)
            built.append((upper, bound, table))
            return table

        monkeypatch.setattr(pr.SliceBase, "class_counts", counting)
        monkeypatch.setattr(TruncatedSeries, "substitute", lambda *args, **kwargs: substituted.append(args))
        got = pr.proliferation_sum(self.BASE, 4)
        monkeypatch.undo()

        # 11 of the 35 fibre classes are reached, each built once at the full
        # bound; the top is reached first, every other one as a lower class of
        # a table built before it
        uppers = [upper for upper, _, _ in built]
        assert len(ref.fibre_classes(self.BASE)) == 35
        assert len(uppers) == len(set(uppers)) == 11
        assert uppers[0] == self.BASE.top
        for i, upper in enumerate(uppers[1:], start=1):
            assert any(upper in table for _, _, table in built[:i]), upper
        assert {bound for _, bound, _ in built} == {4}
        # the layer maps are applied to monomials directly: no series is substituted
        assert substituted == []
        # the sum makes 123 coefficient products: a budget of 123 runs it, 122 refuses
        assert pr.proliferation_sum(self.BASE, 4, budget=123) == got
        with pytest.raises(ResourceBudgetError):
            pr.proliferation_sum(self.BASE, 4, budget=122)
        assert got == orc.empirical_zeta(orc.skew_module(2, 4, 2, 5), 4)

    def test_truncated_table_is_the_table_at_the_smaller_bound(self):
        for upper in ref.fibre_classes(self.BASE)[::4]:
            whole = self.BASE.class_counts(upper, 4)
            for src_bound in (2, 1):
                cut = {lower: s.truncated(src_bound) for lower, s in whole.items()}
                cut = {lower: s for lower, s in cut.items() if not s.is_zero()}
                assert cut == self.BASE.class_counts(upper, src_bound)


class TestSingleSliver:
    def test_dvr_rank_one(self):
        assert pr.single_sliver(DVR21, 3) == z_poly(DVR21, [1, 1, 3, 7])

    def test_zero_module(self):
        base = pr.SliceBase.dvr(3, 0)
        assert pr.single_sliver(base, 2) == TruncatedSeries.one(base.alphabet, 2)

    def test_dvr_rank_two_matches_enumeration(self):
        # ground truth: ideals*submodules of the free rank-2 module over F2[[u,t]]
        sliver = pr.single_sliver(DVR22, 2)
        counted = orc.empirical_zeta(orc.local2d_module(2, 3, 2), 2)
        assert sliver == counted
        assert sliver == z_poly(DVR22, [1, 3, 19])

    def test_isomorphism_hypothesis_check(self):
        with pytest.raises(SchemaError):
            pr.single_sliver(HER12, 2)
        with pytest.raises(SchemaError):
            pr.single_sliver(pr.SliceBase(SemisimpleData.from_specs([(2, 2)])), 2)

    @pytest.mark.parametrize(
        "base", [HER12, pr.SliceBase(SemisimpleData.from_specs([(2, 2)]))], ids=["two-class-lattice", "split-rank-two"]
    )
    def test_the_rule_is_read_off_the_table_at_the_bound(self, base):
        # at bound 0 the slice is its own only submodule; at bound 1 a smaller class occurs
        assert pr.single_sliver(base, 0) == TruncatedSeries.one(base.alphabet, 0)
        with pytest.raises(SchemaError, match="single-sliver form needs"):
            pr.single_sliver(base, 1)
        with pytest.raises(TruncationBoundError):
            pr.single_sliver(base, -1)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_dvr_three_ways(self, q):
        for m in range(4):
            sliver = pr.single_sliver(pr.SliceBase.dvr(q, m), 5)
            assert pr.proliferation_sum(pr.SliceBase.dvr(q, m), 5) == sliver, m
            assert pr.lifted_hey(SemisimpleData.from_specs([(q, m)]), None, 5) == sliver, m


class TestLiftedHey:
    def test_single_class(self):
        data = SemisimpleData.from_specs([(2, 1)])
        got = pr.lifted_hey(data, None, 3)
        assert [got.coefficient((k,)) for k in range(4)] == [1, 1, 3, 7]

    def test_empty(self):
        data = SemisimpleData.from_specs([])
        assert pr.lifted_hey(data, None, 4) == TruncatedSeries.one(data.alphabet, 4)

    def test_two_classes_swapped(self):
        data = SemisimpleData.from_specs([(2, 1), (2, 1)])
        got = pr.lifted_hey(data, (1, 0), 2)
        expect = TruncatedSeries(
            data.alphabet, 2,
            {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1, (0, 2): 1, (1, 1): 5},
        )
        assert got == expect

    def test_layer_floors_sound(self):
        # layer n factors start at degree n+1: bound 1 sees only layer 0
        data = SemisimpleData.from_specs([(2, 2)])
        assert pr.lifted_hey(data, None, 1) == z_poly(data, [1, 3])

    @staticmethod
    def w_form(data, sigma, bound):
        """The docstring's product, factor by factor: layer n, class i, step j gives
        (1 - q_i^(j - m_i) prod_{k<=n} w_{sigma^k(i)})^-1 with w_i = q_i^(m_i) z_i."""
        qs, ms = [e.q for e in data.alphabet], list(data.ms)
        w = [Fraction(q) ** m for q, m in zip(qs, ms)]
        factors = []
        for layer in range(bound):
            for i in range(len(qs)):
                exps, scalar, t = [0] * len(qs), Fraction(1), i
                for _ in range(layer + 1):
                    exps[t] += 1
                    scalar *= w[t]
                    t = sigma[t]
                factors += [(tuple(exps), Fraction(qs[i]) ** (j - ms[i]) * scalar) for j in range(ms[i])]
        assert all(scalar.denominator == 1 for _, scalar in factors)
        return geometric_product(data.alphabet, bound, [(exps, int(scalar)) for exps, scalar in factors])

    def test_three_cycle_matches_w_form(self):
        data = SemisimpleData.from_specs([(2, 1), (3, 2), (4, 1)])
        sigma, bound = (1, 2, 0), 5
        assert pr.lifted_hey(data, sigma, bound) == self.w_form(data, sigma, bound)

    def test_random_twists_match_w_form(self):
        rng = random.Random(26)
        for _ in range(40):
            n = rng.randint(1, 3)
            data = SemisimpleData.from_specs([(rng.choice((2, 3, 4, 5, 7, 8, 9)), rng.randint(0, 3)) for _ in range(n)])
            sigma = rng.sample(range(n), n)
            bound = rng.randint(0, 6)
            assert pr.lifted_hey(data, sigma, bound) == self.w_form(data, sigma, bound), (data, sigma, bound)

    def test_product_of_20001_factors(self):
        # layer 0 alone is one run of m = 20001 geometric factors at bound 1
        data = SemisimpleData.from_specs([(2, 20001)])
        assert pr.lifted_hey(data, None, 1) == z_poly(data, [1, 2**20001 - 1])


class TestDirichletTables:
    def test_hom_slice_rank_one(self):
        table = pr.hom_slice_dirichlet(2, 1, 1, 1, 8)
        assert table[1] == 1 and table[4] == 3 and table[8] == 7

    def test_hom_slice_rank_two(self):
        table = pr.hom_slice_dirichlet(2, 1, 2, 1, 8)
        assert table[2] == 3 and table[4] == 19 and table[8] == 99

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("s_count", [2, 3])
    def test_hom_slice_power_is_repeated_factors(self, m, s_count):
        q, r, n_max = 2, 2, 300
        bound = 4  # the largest with (q^r)^bound <= n_max
        al = Alphabet((AlphabetEntry("z", q, r),))
        factors = [((layer + 1,), q ** (j + m * layer)) for layer in range(bound) for j in range(m)]
        want = geometric_product(al, bound, [f for f in factors for _ in range(s_count)])
        assert pr.hom_slice_dirichlet(q, r, m, s_count, n_max) == want.dirichlet_coeffs(n_max)

    def test_lustig_values(self):
        assert pr.lustig_coeffs(2, 3) == [1, 1, 3, 7]
        assert pr.lustig_coeffs(3, 2)[2] == 4

    def test_rossmann_values(self):
        table = pr.rossmann_coeffs(64)
        assert table[1] == 1 and table[4] == 3 and table[9] == 4 and table[64] == 115

    def test_rossmann_multiplicative_on_coprimes(self):
        table = pr.rossmann_coeffs(60)
        for a, b in [(4, 9), (2, 25), (8, 5), (3, 16)]:
            assert table[a * b] == table[a] * table[b]


class TestZjv:
    def test_layer_zero_is_base_count(self):
        f = pr.zjv_factor(2, 2, 0, 2)
        assert [f.coefficient((k,)) for k in range(3)] == [1, 3, 7]

    def test_substituted_layer(self):
        f = pr.zjv_factor(1, 2, 1, 4)
        assert [f.coefficient((k,)) for k in range(5)] == [1, 0, 2, 0, 4]


class TestFactoredProliferation:
    def test_bound_zero(self):
        pre, rem = pr.brs_factored_prolif(HER12, 0)
        assert pre == TruncatedSeries.one(HER12.alphabet, 0)
        assert rem == TruncatedSeries.one(HER12.alphabet, 0)

    def test_rank_one_remainder_trivial(self):
        pre, rem = pr.brs_factored_prolif(pr.SliceBase.dvr(2, 1), 3)
        assert rem == TruncatedSeries.one(rem.alphabet, 3)

    def test_product_reproduces_sum(self):
        for bound in (2, 3):
            pre, rem = pr.brs_factored_prolif(HER12, bound)
            assert pre * rem == pr.proliferation_sum(HER12, bound)

    def test_closed_prefactor_is_the_substituted_base_counts(self):
        # layer j: the rank-r base count in v = z1 z2 z3, sent through the layer map of the top class
        lattice = her.Lattice(3, 3, (1, 1, 2, 3))
        base = pr.SliceBase(lattice, (1, 2, 0))
        al, top = base.alphabet, (base.top,)
        for bound in range(7):
            expect = TruncatedSeries.one(al, bound)
            for j in range(bound):
                layer = TruncatedSeries.geometric(al, bound // (j + 1), (1, 1, 1), 1, lattice.r, lattice.q)
                expect = expect * layer.substitute(al, pr.change_of_variable(base, top, j), bound)
            prefactor, _ = pr.brs_factored_prolif(base, bound)
            assert prefactor == expect, bound


def _sequence_term(base, tops, bound):
    """Product of substituted pair zetas for one padded class sequence."""
    al = base.alphabet
    top = base.top
    seq = tuple(tops) + (top,) * (bound + 1 - len(tops))
    term = TruncatedSeries.one(al, bound)
    for j in range(bound):
        src_bound = bound // (j + 1)
        factor = base.class_counts(seq[j + 1], src_bound).get(seq[j])
        if factor is None:
            return TruncatedSeries.zero(al, bound)
        term = term * factor.substitute(al, pr.change_of_variable(base, seq, j), bound)
    return term


def test_inner_sum_collapse_on_skew_model():
    """Fiber buckets grouped by their class sequence reproduce each class-sequence
    term of the proliferation sum (lattice slice of the basic two-class order)."""
    bound = 3
    model = orc.skew_module(2, 2, 2, bound + 1)
    base = HER12
    top = base.top
    groups: dict[tuple, list] = {}
    for chain, nodes in orc.fiber_partition(model, bound).items():
        padded = tuple(chain.y_tops) + (top,) * (bound + 1 - len(chain.y_tops))
        groups.setdefault(padded, []).extend(nodes)
    assert len(groups) > 3
    for tops, nodes in groups.items():
        got = orc.fiber_sum(model, nodes, bound)
        assert got == _sequence_term(base, tops, bound), tops
    total = sum(
        (_sequence_term(base, tops, bound) for tops in groups),
        TruncatedSeries.zero(base.alphabet, bound),
    )
    assert total == pr.proliferation_sum(base, bound)


SPLIT21 = pr.SliceBase(SemisimpleData.from_specs([(2, 1)]))


@pytest.mark.parametrize(
    "call",
    [
        lambda b: pr.proliferation_sum(SPLIT21, b),
        lambda b: pr.proliferation_sum(HER12, b),
        lambda b: pr.single_sliver(pr.SliceBase.dvr(2, 0), b),
        lambda b: pr.single_sliver(DVR22, b),
        lambda b: pr.lifted_hey(SemisimpleData.from_specs([]), None, b),
        lambda b: pr.lifted_hey(SemisimpleData.from_specs([(2, 1), (2, 1)]), (1, 0), b),
        lambda b: pr.brs_factored_prolif(HER12, b),
        lambda b: pr.brs_factored_prolif(DVR22, b),
    ],
    ids=["prolif-split", "prolif-lattice", "sliver-dvr0", "sliver-dvr2", "lifted-empty", "lifted",
         "factored-hereditary", "factored-dvr"],
)
def test_negative_bound_refused_by_the_series(call):
    """Each engine leaves the bound check to the series it builds."""
    with pytest.raises(TruncationBoundError, match=r"^bound must be >= 0, got -1$"):
        call(-1)
