"""Two-variable lattice counts over chain-form orders and their factorization."""

import functools
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brzeta import checks as chk
from brzeta import cli
from brzeta import gfq
from brzeta import hereditary as her
from brzeta import oracle as orc
from brzeta import prolif as pr
from brzeta.errors import FormulaViolationError, SchemaError, TruncationBoundError
from brzeta.qcomb import gaussian_binomial
from brzeta.series import TruncatedSeries

import gfq_reference as ref
import hereditary_reference as her_ref


LAT12 = her.Lattice(2, 2, (1, 2))


class TestSpecs:
    def test_column_types_must_fit(self):
        # refused when built, so no engine counts the columns as some other lattice
        for columns in ((3,), (1, 3)):
            with pytest.raises(SchemaError, match=r"^column type 3 exceeds the order's chain length 2$"):
                her.Lattice(2, 2, columns)

    def test_top_vector(self):
        assert LAT12.top == (1, 1)
        assert her.Lattice(2, 2, (2, 2)).top == (0, 2)

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            her.Lattice(2, 2, ())

    def test_columns_are_stored_sorted(self):
        assert her.Lattice(3, 3, [3, 1, 2, 1]).columns == (1, 1, 2, 3)
        assert her.Lattice(3, 3, (3, 1, 2, 1)) == her.Lattice(3, 3, (1, 1, 2, 3))

    def test_column_types_must_be_integers(self):
        with pytest.raises(SchemaError, match=r"^column type must be an integer, got 1.5$"):
            her.Lattice(2, 2, (1.5, 2))
        assert her.Lattice(2, 2, (2.0, 1)).columns == (1, 2)

    def test_field_size_and_chain_length_must_be_integers(self):
        with pytest.raises(SchemaError, match=r"^n must be an integer, got 2.5$"):
            her.Lattice(2, 2.5, (1, 2))
        with pytest.raises(SchemaError, match=r"^q must be an integer, got '4'$"):
            her.Lattice("4", 2, (1, 2))
        lattice = her.Lattice(4.0, 2.0, (1, 2))
        assert (type(lattice.q), type(lattice.n)) == (int, int)
        assert her.total_zeta(lattice, 3) == her.total_zeta(her.Lattice(4, 2, (1, 2)), 3)

    def test_of_class_inverts_top_on_the_verify_grid(self):
        lattices = list(chk._hereditary_grid())
        assert len(lattices) == 2 * (3 + 9 + 19)
        for lat in lattices:
            assert her.Lattice.of_class(lat.q, lat.top) == lat

    def test_alphabet_is_one_marker_per_class(self):
        assert LAT12.alphabet == her.z_alphabet(2, 2)
        assert her.Lattice(4, 1, (1, 1)).alphabet == her.z_alphabet(4, 1)

    def test_residue_field_size_must_be_a_prime_power(self):
        with pytest.raises(SchemaError, match=r"^residue field size must be a prime power, got 6$"):
            her.Lattice(6, 2, (1, 2))

    def test_top_class_validation(self):
        with pytest.raises(SchemaError):
            her.partial_zeta(LAT12, (1, -1), 2)
        with pytest.raises(SchemaError):
            her.partial_zeta(LAT12, (2,), 2)


class TestShift:
    """``Lattice.shift`` is the z block of the column-shift monomial u; the
    reference's u, v and t-monomials over the doubled alphabet keep their values."""

    def test_single_class(self):
        lattice = her.Lattice(2, 1, (1,))
        assert lattice.shift == (0,)
        assert her_ref.u_v(lattice) == ((0, 0), (1, 0)) and her_ref.t_monomials(1) == [(0, 1)]

    def test_mixed_columns(self):
        assert LAT12.shift == (0, 1)  # one column of type < 2 shifts by z2
        assert her_ref.u_v(LAT12) == ((0, 1, 0, 0), (1, 1, 0, 0))
        assert her_ref.t_monomials(2) == [(0, 1, 1, 0), (0, 0, 0, 1)]

    def test_uniform_columns(self):
        lattice = her.Lattice(2, 2, (2, 2))
        assert lattice.shift == (0, 0)
        assert her_ref.u_v(lattice) == ((0, 0, 0, 0), (1, 1, 0, 0))
        assert her_ref.t_monomials(2) == [(0, 1, 1, 0), (0, 0, 0, 1)]

    def test_shift_counts_columns_below_and_flag_those_above_on_the_verify_grid(self):
        for lat in chk._hereditary_grid():
            assert len(lat.shift) == lat.n
            for j in range(1, lat.n + 1):
                assert lat.shift[j - 1] == sum(1 for c in lat.columns if c < j)
                assert lat.r - lat.shift[j - 1] == sum(1 for c in lat.columns if c >= j)


def _unit_span(field, r, coords):
    """Coordinate subspace of F_q^r spanned by the given coordinates."""
    units = [gfq.pack(field, [1 if c == k else 0 for c in range(r)]) for k in coords]
    return ref.from_rows(field, r, units)


@functools.lru_cache(maxsize=None)
def _brute_chain_counts(q, dims):
    """Chains V_1 = W_1 >= ... >= W_n, W_j <= V_j, found among all subspaces of F_q^{d_1}."""
    field = gfq.GF(q)
    spaces = ref.enumerate_subspaces(field, dims[0])
    models = [_unit_span(field, dims[0], range(d)) for d in dims]
    counts = Counter()

    def rec(j, above, chain_dims):
        if j == len(dims):
            chain_dims = chain_dims + [0]
            counts[tuple(chain_dims[i] - chain_dims[i + 1] for i in range(len(dims)))] += 1
            return
        for w in spaces:
            if ref.contains(above, w) and ref.contains(models[j], w):
                rec(j + 1, w, chain_dims + [w.dim])

    rec(1, models[0], [dims[0]])
    return dict(counts)


def _filtration_dims(lattice, ybar):
    """Filtration dims of the stratum Ybar <= F_q^r, via intersections with the column flag.

    dim(Ybar meet m_j) comes from the dimension formula: dim Ybar + dim m_j - dim(Ybar + m_j).
    """
    field, r = ybar.field, lattice.r
    flag = [_unit_span(field, r, [k for k, c in enumerate(lattice.columns) if c >= j])
            for j in range(1, lattice.n + 1)]
    return tuple(mj.dim - ybar.extend(mj.rows).dim + r for mj in flag)


def _brute_stratum_counts(lattice):
    """(filtration dims, dim Ybar) over every subspace Ybar of F_q^r."""
    counts = Counter()
    for ybar in ref.enumerate_subspaces(gfq.GF(lattice.q), lattice.r):
        counts[(_filtration_dims(lattice, ybar), ybar.dim)] += 1
    return dict(counts)


#: hand-counted values, checked against both sides
LITERAL_CHAINS = {
    (2, (3,)): {(3,): 1},
    (2, (2, 2)): {(0, 2): 1, (1, 1): 3, (2, 0): 1},
    (2, (2, 1)): {(1, 1): 1, (2, 0): 1},
}
#: q=2, columns (1, 2): the full space and the line e_1 meet e_2's span in
#: dims 1 and 0, giving filtration (2, 1); the zero space gives (2, 2)
LITERAL_STRATA = {
    (2, 2, (1, 2)): {((2, 2), 0): 1, ((2, 1), 1): 2, ((2, 2), 1): 1, ((2, 1), 2): 1},
}


class TestFilteredDims:
    """The strata of F_2^2 under columns (1, 2), each checked against ``stratum_counts``."""

    def test_full_space(self):
        full = gfq.full_space(gfq.GF(2), 2)
        assert _filtration_dims(LAT12, full) == (2, 1)
        # the full space is the only 2-dimensional stratum
        assert her.stratum_counts(LAT12)[((2, 1), 2)] == 1

    def test_zero_space(self):
        zero = gfq.zero_space(gfq.GF(2), 2)
        assert _filtration_dims(LAT12, zero) == (2, 2)
        assert her.stratum_counts(LAT12)[((2, 2), 0)] == 1

    def test_coordinate_line(self):
        line = ref.from_rows(gfq.GF(2), 2, [gfq.pack(gfq.GF(2), [1, 0])])
        assert _filtration_dims(LAT12, line) == (2, 1)
        # e_1 and e_1 + e_2 miss e_2's span; e_2 alone gives (2, 2)
        counts = her.stratum_counts(LAT12)
        assert counts[((2, 1), 1)] == 2
        assert counts[((2, 2), 1)] == 1


class TestClosedCounts:
    @pytest.mark.parametrize(
        "q,n,columns",
        [
            (2, 1, (1, 1, 1)),
            (2, 1, (1, 1, 1, 1)),
            (2, 2, (1, 2)),
            (2, 2, (1, 1, 2)),
            (2, 2, (1, 1, 2, 2)),
            (2, 2, (1, 2, 2, 2)),
            (2, 3, (1, 2)),
            (2, 3, (1, 2, 3)),
            (2, 3, (1, 1, 2, 3)),
            (2, 3, (1, 2, 3, 3)),
            (3, 1, (1, 1, 1)),
            (3, 2, (1, 2)),
            (3, 2, (1, 1, 2)),
            (3, 2, (1, 2, 2)),
            (3, 2, (1, 1, 2, 2)),
            (3, 3, (1, 2)),
            (3, 3, (1, 2, 3)),
            (3, 3, (2, 3, 3)),
            (4, 2, (1, 2, 2)),
            (4, 3, (1, 2, 3)),
            (4, 2, (1, 1, 2, 2)),
        ],
        ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_counts_match_brute_force(self, q, n, columns):
        lattice = her.Lattice(q, n, columns)
        strata = her.stratum_counts(lattice)
        assert strata == _brute_stratum_counts(lattice)
        assert strata == LITERAL_STRATA.get((q, n, columns), strata)
        for dims in {dims for dims, _ in strata}:
            chains = her.chain_degree_counts(q, dims)
            assert chains == _brute_chain_counts(q, dims)
            assert chains == LITERAL_CHAINS.get((q, dims), chains)


#: the verify grid plus two lattices over GF(4)
WITNESS_LATTICES = list(chk._hereditary_grid()) + [her.Lattice(4, 2, (1, 2, 2)), her.Lattice(4, 3, (1, 2, 3))]


@pytest.mark.parametrize("lattice", WITNESS_LATTICES, ids=chk._grid_label)
def test_chain_monomials_read_off_the_degree_vector(lattice):
    """The keyed sum equals the stratum-by-stratum sum of t-monomial chain
    polynomials times Hermite weights, divided by u afterwards, at a low
    bound, a middle one and the factor's whole degree."""
    for bound in (0, 3, 2 * lattice.r * lattice.n + lattice.r):
        got = her.polynomial_factor(lattice, bound)
        want = her_ref.polynomial_factor(lattice, bound)
        assert got == want, (lattice, bound, got.first_disagreement(want))


class TestColumnShiftDivisibility:
    """No second computation checks that u divides the stratum sum, so a
    chain count that breaks it is a formula violation: a library error, and
    exit 3 on the command line."""

    @pytest.fixture
    def stray_chain(self, monkeypatch):
        """Every dims gains one chain of degree vector (0, dims[0]), whose
        monomial w_2^dims[0] u does not divide."""
        real = her.chain_degree_counts

        def with_stray(q, dims, room=None):
            counts = dict(real(q, dims, room))
            stray = (0, dims[0])
            counts[stray] = counts.get(stray, 0) + 1
            return counts

        monkeypatch.setattr(her, "chain_degree_counts", with_stray)

    def test_library_raises(self, stray_chain):
        with pytest.raises(FormulaViolationError, match="not divisible by the column-shift monomial"):
            her.polynomial_factor(LAT12, 8)

    def test_cli_exits_3_naming_the_term(self, capsys, stray_chain):
        code = cli.main(["hereditary", "--factor", "--data", '{"q":2,"n":2,"columns":[1,2]}', "--truncate", "8"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            "formula violation: assembled stratum sum is not divisible by the column-shift monomial: "
            "monomial z2 does not divide term w2^2\n"
        )

    def test_negative_bound_refused(self):
        with pytest.raises(TruncationBoundError):
            her.polynomial_factor(LAT12, -1)


def _rotated(t, k):
    """rot^k(t): entry i of the result is t_{i-k mod n}."""
    return tuple(t[(i - k) % len(t)] for i in range(len(t)))


@pytest.mark.parametrize("lattice", [lat for lat in chk._hereditary_grid() if lat.n >= 2], ids=chk._grid_label)
def test_rotating_the_top_rotates_the_joint_count(lattice):
    """The basic hereditary order has an automorphism permuting its
    projectives cyclically, P_i -> P_{i+1} (Reiner, *Maximal Orders*), so the
    lattice of top rot^k(top) has the joint count with its z block and its w
    block each rotated k places."""
    n = lattice.n
    joint = her.brz_two_variable(lattice, 3)
    for k in range(1, n):
        got = her.brz_two_variable(her.Lattice.of_class(lattice.q, _rotated(lattice.top, k)), 3)
        want = _rotated_series(joint, n, k)
        assert got == want, (lattice, k, got.first_disagreement(want))


def _rotated_series(series, n, k):
    """``series`` over the doubled alphabet with its z block and its w block each rotated k places."""
    rotated = {_rotated(key[:n], k) + _rotated(key[n:], k): c for key, c in series.coeffs.items()}
    return TruncatedSeries(series.alphabet, series.bound, rotated)


@pytest.mark.parametrize("lattice", [lat for lat in chk._hereditary_grid() if lat.n >= 2], ids=chk._grid_label)
def test_rotating_the_top_rotates_the_polynomial_factor(lattice):
    """The base count in v = z_1...z_n is rotation-invariant, so the whole
    polynomial factor rotates with the top, as the joint count does; the
    factored form's class tables are built once per rotation orbit on this."""
    n, whole = lattice.n, 2 * lattice.r * lattice.n + lattice.r
    factor = her.polynomial_factor(lattice, whole)
    for k in range(1, n):
        got = her.polynomial_factor(her.Lattice.of_class(lattice.q, _rotated(lattice.top, k)), whole)
        want = _rotated_series(factor, n, k)
        assert got == want, (lattice, k, got.first_disagreement(want))


def _off_grid_lattices(count=30, seed=20261021):
    """Seeded lattices beyond the verify grid: q in {2, 3, 4}, n <= 5, r <= 4."""
    rng = random.Random(seed)
    grid = set(chk._hereditary_grid())
    out = []
    while len(out) < count:
        q, n, r = rng.choice((2, 3, 4)), rng.randint(1, 5), rng.randint(1, 4)
        lattice = her.Lattice(q, n, [rng.randint(1, n) for _ in range(r)])
        if lattice not in grid:
            out.append(lattice)
    return out


def _spread(degvec):
    """sum_i (x_1 - x_i) for the chain dims x_i = d_i + ... + d_n of a degree vector."""
    return sum(accumulate(degvec[:-1], initial=0))


@pytest.mark.parametrize("lattice", _off_grid_lattices(), ids=chk._grid_label)
def test_walks_cut_only_terms_past_the_bound(lattice):
    """The bounded walks drop exactly what lies past the bound: the factor is
    the whole factor truncated, each cut stratum table is the uncut one
    restricted by the strata's degree bound, and each cut chain table is the
    uncut one restricted to the room."""
    q, n, r = lattice.q, lattice.n, lattice.r
    whole_bound = 2 * r * n + r
    whole = her.polynomial_factor(lattice, whole_bound)
    strata = her.stratum_counts(lattice)
    for bound in (0, 1, 3, r + 2, whole_bound):
        assert her.polynomial_factor(lattice, bound) == whole.truncated(bound), (lattice, bound)
        # a stratum (dims, m) has a_i = dims_i - r + m, so sum_i (m - a_i) = sum_i (r - dims_i)
        spare = bound + sum(lattice.shift) - r
        want = {key: c for key, c in strata.items() if sum(r - x for x in key[0]) <= spare - n * (r - key[1])}
        assert her.stratum_counts(lattice, bound) == want, (lattice, bound)
    for dims in {dims for dims, _ in strata}:
        uncut = her.chain_degree_counts(q, dims)
        for room in range(-2, dims[0] * (n - 1) + 2):
            want = {d: c for d, c in uncut.items() if _spread(d) <= room}
            assert her.chain_degree_counts(q, dims, room) == want, (q, dims, room)


@pytest.mark.parametrize("lattice", _off_grid_lattices(), ids=chk._grid_label)
def test_cut_chain_table_filters_a_cached_uncut_one(lattice, monkeypatch):
    """With the uncut chain table of (q, dims) cached, a cut request restricts
    it to the room without walking, and gets the table the walk gives."""
    q, n = lattice.q, lattice.n
    for dims in {dims for dims, _ in her.stratum_counts(lattice)}:
        for room in range(-2, dims[0] * (n - 1) + 2):
            monkeypatch.setattr(her, "_chain_count_cache", {})
            walked = her.chain_degree_counts(q, dims, room)
            monkeypatch.setattr(her, "_chain_count_cache", {})
            her.chain_degree_counts(q, dims)
            with monkeypatch.context() as m:
                m.setattr(her, "_descending", None)  # a walk would call it
                filtered = her.chain_degree_counts(q, dims, room)
            assert filtered == walked, (q, dims, room)


def _drawn_lattices(count=25, seed=20261020):
    """Lattices beyond the verify grid: q in {2, 3, 4}, n <= 4, r <= 3, and a
    z_bound of at most 2, which keeps the oracle's model small."""
    rng = random.Random(seed)
    for _ in range(count):
        q, n, r = rng.choice((2, 3, 4)), rng.randint(1, 4), rng.randint(1, 3)
        yield her.Lattice(q, n, [rng.randint(1, n) for _ in range(r)]), rng.randint(0, 2)


@pytest.mark.parametrize(
    "lattice,z_bound", _drawn_lattices(), ids=lambda v: chk._grid_label(v) if isinstance(v, her.Lattice) else f"b={v}"
)
def test_drawn_lattices_match_enumeration(lattice, z_bound):
    """The joint count equals the oracle's enumeration of the triangular model."""
    model = orc.triangular_module(lattice.q, lattice.n, -(-(z_bound + 1) // lattice.n), lattice.columns)
    assert her.brz_two_variable(lattice, z_bound) == orc.empirical_zeta(model, z_bound, joint=True)


class TestHermite:
    def test_q_poly_endpoints(self):
        assert her.hermite_Q(0, 3, 2) == [0, 0, 0, 1]  # v^r
        assert her.hermite_Q(2, 2, 2) == [1, -3, 2]  # full Cauchy product
        assert her.hermite_Q(1, 2, 2) == [0, 1, -1]  # v(1-v)

    def test_partition_of_unity(self):
        for q in (2, 3, 4, 5):
            for r in range(0, 7):
                acc = [Fraction(0)] * (r + 1)
                for m in range(r + 1):
                    g = gaussian_binomial(r, m, q)
                    for d, c in enumerate(her.hermite_Q(m, r, q)):
                        acc[d] += g * c
                assert acc[0] == 1 and not any(acc[1:])

    def test_orbit_sum_closed_form(self):
        for q in (2, 3):
            for r in range(0, 5):
                for m in range(r + 1):
                    orbit = her.hermite_orbit_sum(m, r, q, 10)
                    al = orbit.alphabet
                    qpoly = TruncatedSeries.powers(al, 10, (1,), her.hermite_Q(m, r, q))
                    assert orbit == qpoly * her.solomon_hey_factor(r, q, 10)

    def test_orbit_sum_values(self):
        full = her.hermite_orbit_sum(2, 2, 2, 3)
        assert full == TruncatedSeries.one(full.alphabet, 3)
        s = her.hermite_orbit_sum(0, 1, 2, 2)
        assert [s.coefficient((k,)) for k in range(3)] == [0, 1, 1]
        s = her.hermite_orbit_sum(1, 2, 2, 3)
        assert [s.coefficient((k,)) for k in range(4)] == [0, 1, 2, 4]


class TestSolomonHeyFactor:
    def test_rank_zero_and_one(self):
        one = her.solomon_hey_factor(0, 2, 2)
        assert one == TruncatedSeries.one(one.alphabet, 2)
        geo = her.solomon_hey_factor(1, 2, 3)
        assert [geo.coefficient((k,)) for k in range(4)] == [1, 1, 1, 1]

    def test_rank_two(self):
        f = her.solomon_hey_factor(2, 2, 2)
        assert [f.coefficient((k,)) for k in range(3)] == [1, 3, 7]


class TestTwoVariable:
    def test_rank_one_dvr_degeneration(self):
        joint = her.brz_two_variable(her.Lattice(2, 1, (1,)), 3)
        # w/(1-z): every submodule is free of full rank
        for k in range(4):
            assert joint.coefficient((k, 1)) == 1
            assert joint.coefficient((k, 0)) == 0

    def test_rank_two_collapse(self):
        joint = her.brz_two_variable(her.Lattice(2, 1, (1, 1)), 2)
        assert joint.coefficient((0, 2)) == 1
        assert joint.coefficient((1, 2)) == 3
        assert joint.coefficient((2, 2)) == 7
        assert all(exps[1] == 2 for exps, _ in joint.items())

    def test_mixed_columns_slice(self):
        sliced = her.partial_zeta(LAT12, (1, 1), 6)
        # (1+2v) * solomon_hey_factor(2,2,v): 1, 5, 13, 29 in v = z1 z2
        expect = {0: 1, 1: 5, 2: 13, 3: 29}
        for k, c in expect.items():
            assert sliced.coefficient((k, k)) == c

    def test_w_support_is_rank(self):
        joint = her.brz_two_variable(LAT12, 3)
        assert all(exps[2] + exps[3] == 2 for exps, _ in joint.items())

    def test_rank_eight_dvr_slice(self):
        # n = 1 is a DVR slice: the count is the rank-8 base count, with no
        # walk over the ~4e5 subspaces of F_2^8
        total = her.total_zeta(her.Lattice(2, 1, (1,) * 8), 3)
        assert total == TruncatedSeries.geometric(total.alphabet, 3, (1,), 1, 8, 2)

    def test_total_is_sum_of_partials(self):
        total = her.total_zeta(LAT12, 3)
        acc = TruncatedSeries.zero(total.alphabet, 3)
        for rho in [(0, 2), (1, 1), (2, 0)]:
            acc = acc + her.partial_zeta(LAT12, rho, 3)
        assert acc == total


class TestClassCounts:
    @pytest.mark.parametrize(
        "q,n,columns",
        [(2, 2, (1, 2)), (3, 2, (1, 1)), (4, 2, (1, 2)), (2, 3, (1, 2, 3)), (4, 3, (1, 3))],
    )
    def test_each_class_matches_enumeration(self, q, n, columns):
        lattice = her.Lattice(q, n, columns)
        table = her.class_counts(lattice, 2)
        model = orc.triangular_module(q, n, -(-3 // n), columns)
        zero = TruncatedSeries.zero(her.z_alphabet(q, n), 2)
        rhos = [rho for rho in product(range(lattice.r + 1), repeat=n) if sum(rho) == lattice.r]
        assert set(table) <= set(rhos)
        for rho in rhos:
            assert table.get(rho, zero) == orc.empirical_zeta(model, 2, partial=rho), rho


class TestPolynomialFactor:
    def test_rank_one_is_monomial(self):
        f = her.brs_F(her.Lattice(2, 1, (1,)), 3)
        assert f == TruncatedSeries.monomial(f.alphabet, 3, (0, 1))

    def test_rank_two_free(self):
        f = her.brs_F(her.Lattice(2, 1, (1, 1)), 4)
        assert f == TruncatedSeries.monomial(f.alphabet, 4, (0, 2))

    def test_mixed_columns_value(self):
        f = her.brs_F(LAT12, 7)
        # w1 w2 slice of F must be 1 + 2 z1 z2
        assert f.coefficient((0, 0, 1, 1)) == 1
        assert f.coefficient((1, 1, 1, 1)) == 2

    def test_factorization_identity(self):
        joint = her.brz_two_variable(LAT12, 3)
        f = her.brs_F(LAT12, 10).truncated(joint.bound)
        zfac = TruncatedSeries.geometric(joint.alphabet, joint.bound, (1, 1, 0, 0), 1, 2, 2)
        assert f * zfac == joint


@st.composite
def hereditary_cases(draw):
    """q in {2, 3, 4}, n <= 3 classes, r <= 3 columns, and a class of rank r."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    columns = st.lists(st.integers(1, n), min_size=r, max_size=r)
    q = draw(st.sampled_from([2, 3, 4]))
    return her.Lattice(q, n, draw(columns)), her.Lattice(q, n, draw(columns)).top


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hereditary_cases(), st.integers(0, 4))
def test_factor_first_matches_divide_after(case, bound):
    """The joint count and the polynomial class tables, built from the factor
    with u divided out first, equal the multiply-then-divide joint count and
    the truncated exact factor."""
    lattice, upper = case
    got = her.brz_two_variable(lattice, bound)
    want = her_ref.brz_two_variable(lattice, bound)
    assert got == want, (lattice, bound, got.first_disagreement(want))
    base = pr.SliceBase(lattice)
    got = pr.polynomial_class_counts(base, upper, bound)
    # the table leaves out a class whose part vanishes through the bound
    want = {k: v for k, v in her_ref.polynomial_class_counts(base, upper, bound).items() if not v.is_zero()}
    assert got.keys() == want.keys(), (lattice, upper, bound)
    for lower, part in got.items():
        assert part == want[lower], (lattice, upper, lower, part.first_disagreement(want[lower]))


class TestJson:
    def test_parse(self):
        lattice = her.hereditary_from_json({"q": 2, "n": 2, "columns": [2, 1]})
        assert (lattice.q, lattice.n, lattice.columns) == (2, 2, (1, 2))

    def test_bad_payload(self):
        with pytest.raises(SchemaError):
            her.hereditary_from_json({"q": 2})
        with pytest.raises(SchemaError):
            her.hereditary_from_json([1, 2])
