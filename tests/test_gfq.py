"""Finite-field linear algebra: fields, echelon forms, subspace enumeration."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brzeta import gfq, hereditary
from brzeta.errors import ResourceBudgetError, SchemaError
from brzeta.qcomb import gaussian_binomial

import gfq_reference as ref


#: one field per packed layout: p = 2 and odd p, prime and prime-power, up to
#: q = 27
LAYOUT_QS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]


class TestFieldConstruction:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_prime_power_fields_validate(self, q):
        add, mul, neg, inv = gfq.tables(gfq.GF(q))
        elems = range(q)
        assert list(add[0]) == list(elems), "0 is not additive identity"
        assert list(mul[1]) == list(elems), "1 is not multiplicative identity"
        for a in elems:
            assert add[a][neg[a]] == 0, "neg is not additive inverse"
            assert a == 0 or mul[a][inv[a]] == 1, "inv is not multiplicative inverse"
            for b in elems:
                assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a], "tables not commutative"
                for c in elems:
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]], f"associativity fails at {a}"
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]], f"distributivity fails at {a}"

    def test_moduli_are_the_first_irreducibles_by_value(self):
        """The search finds the moduli once listed by hand for these fields, so
        their tables, and every output over them, are unchanged."""
        listed = {2: (0, 1), 3: (0, 1), 5: (0, 1), 7: (0, 1)}
        listed |= {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1)}
        assert {q: gfq.GF(q).modulus for q in listed} == listed

    @pytest.mark.parametrize("q", [1, 6, 10, 12])
    def test_non_prime_powers_rejected(self, q):
        with pytest.raises(SchemaError):
            gfq.GF(q)

    def test_tables_shapes(self):
        t = gfq.tables(gfq.GF(4))
        assert len(t.add) == len(t.mul) == 4
        assert all(len(row) == 4 for row in t.add + t.mul)
        assert t.inv[1] == 1


class TestRref:
    """An ``extend`` of the zero space is the RREF of its rows."""

    def test_idempotent(self):
        f = gfq.GF(3)
        mat = [[1, 2, 0], [2, 1, 1], [0, 0, 2]]
        s1 = ref.from_rows(f, 3, _packed(f, mat))
        s2 = ref.from_rows(f, 3, s1.rows)
        assert (s2.rows, s2.dim, s2.pivots) == (s1.rows, s1.dim, s1.pivots)
        _assert_reference_rref(f, 3, mat, s1)

    def test_rank_nullity(self):
        f = gfq.GF(2)
        rng = random.Random(7)
        for _ in range(20):
            mat = _random_matrix(rng, 2, 4, 6)
            rank = _assert_reference_rref(f, 6, mat, ref.from_rows(f, 6, _packed(f, mat)))
            ker = ref.left_kernel(f, _packed(f, zip(*mat)), 4)  # vectors v with v @ mat.T = 0
            assert ker.dim == 6 - rank

    def test_left_kernel_annihilates(self):
        f = gfq.GF(4)
        t = gfq.tables(f)
        mat = _random_matrix(random.Random(11), 4, 5, 3)
        ker = ref.left_kernel(f, _packed(f, mat), 3)
        prod = _reference_mat_mul(_unpacked(f, 5, ker.rows), mat, t.add, t.mul)
        assert ker.dim == 2
        assert not any(any(row) for row in prod)

    @pytest.mark.parametrize("q", LAYOUT_QS)
    def test_left_kernel_every_layout(self, q):
        """v·mat = 0 on the kernel, whose dimension is rows - rank by the scalar reference."""
        f = gfq.GF(q)
        t = gfq.tables(f)
        rng = random.Random(200 + q)
        for trial in range(12):
            rows, cols = rng.randint(0, 8), rng.randint(1, 8)
            mat = _random_matrix(rng, q, rows, cols)
            if trial % 3 == 1:  # sparse: zero columns and rank deficiency
                mat = [[0 if rng.random() < 0.7 else x for x in row] for row in mat]
            ker = ref.left_kernel(f, _packed(f, mat), cols)
            assert ker.ambient == rows
            assert ker == ref.from_rows(f, rows, ker.rows)  # canonical as it stands
            if rows:
                prod = _reference_mat_mul(_unpacked(f, rows, ker.rows), mat, t.add, t.mul)
                assert not any(any(row) for row in prod)
            rank = _assert_reference_rref(f, cols, mat, ref.from_rows(f, cols, _packed(f, mat)))
            assert ker.dim == rows - rank


class TestSubspaces:
    @pytest.mark.parametrize("m,expected", [(1, 2), (2, 5), (3, 16)])
    def test_total_counts_f2(self, m, expected):
        subs = list(ref.enumerate_subspaces(gfq.GF(2), m))
        assert len(subs) == expected

    @pytest.mark.parametrize("q", [2, 3])
    def test_dimension_counts_match_gaussian(self, q):
        for m in range(0, 5):
            subs = list(ref.enumerate_subspaces(gfq.GF(q), m))
            for d in range(m + 1):
                got = sum(1 for s in subs if s.dim == d)
                assert got == gaussian_binomial(m, d, q)

    def test_enumeration_deduplicates(self):
        subs = list(ref.enumerate_subspaces(gfq.GF(2), 3))
        keys = {s.rows for s in subs}
        assert len(keys) == len(subs)

    def test_budget_enforced(self):
        with pytest.raises(ResourceBudgetError):
            list(ref.enumerate_subspaces(gfq.GF(3), 9, budget=10))

    def test_lattice_ops_modular_law(self):
        f = gfq.GF(2)
        a = ref.from_rows(f, 3, _packed(f, [[1, 0, 0]]))
        b = ref.from_rows(f, 3, _packed(f, [[1, 0, 0], [0, 1, 0]]))
        assert _meet(a, b) == a and a.extend(b.rows) == b
        rng = random.Random(5)
        for _ in range(15):
            a, b, c = (
                ref.from_rows(f, 4, _packed(f, _random_matrix(rng, 2, 2, 4))) for _ in range(3)
            )
            c = c.extend(a.rows)  # a <= c
            assert a.extend(_meet(b, c).rows) == _meet(a.extend(b.rows), c)

    def test_dimension_formula(self):
        f = gfq.GF(2)
        rng = random.Random(3)
        for _ in range(15):
            a = ref.from_rows(f, 4, _packed(f, _random_matrix(rng, 2, 2, 4)))
            b = ref.from_rows(f, 4, _packed(f, _random_matrix(rng, 2, 2, 4)))
            meet, join = _meet(a, b), a.extend(b.rows)
            assert a.dim + b.dim == meet.dim + join.dim
            assert ref.contains(a, meet) and ref.contains(b, meet)
            assert ref.contains(join, a) and ref.contains(join, b)
            # the relations between the two bases are the meet's vectors
            assert ref.left_kernel(f, a.rows + b.rows, 4).dim == meet.dim


class TestExtend:
    """``extend`` must give the RREF of the stacked rows without re-reducing the old basis."""

    @staticmethod
    def _check(a, rows):
        bigger = a.extend(rows)
        want = ref.from_rows(a.field, a.ambient, [*a.rows, *rows])
        assert bigger == want and bigger.rows == want.rows and bigger.pivots == want.pivots
        # the scalar reference RREF of the stacked rows, on unpacked lists
        _assert_reference_rref(a.field, a.ambient, _unpacked(a.field, a.ambient, [*a.rows, *rows]), bigger)
        return bigger

    @pytest.mark.parametrize("q", LAYOUT_QS)
    def test_matches_from_rows(self, q):
        f = gfq.GF(q)
        rng = random.Random(100 + q)
        for trial in range(40):
            ambient = rng.randint(1, 9)
            basis = _random_matrix(rng, q, rng.randint(0, ambient), ambient)
            a = ref.from_rows(f, ambient, _packed(f, basis))
            rows = _random_matrix(rng, q, rng.randint(0, 4), ambient)
            if trial % 4 == 1:  # sparse rows: zero columns and zero rows
                rows = [[0 if rng.random() < 0.7 else x for x in row] for row in rows]
            self._check(a, _packed(f, rows))

    @pytest.mark.parametrize("q", LAYOUT_QS)
    def test_edge_cases(self, q):
        f = gfq.GF(q)
        rng = random.Random(q)
        a = ref.from_rows(f, 6, _packed(f, _random_matrix(rng, q, 3, 6)))
        assert self._check(a, []) is a
        inside = ref.mat_mul(f, _packed(f, _random_matrix(rng, q, 4, a.dim)), a.rows, 6)
        assert self._check(a, inside) is a
        assert self._check(a, _packed(f, _identity(6))) == gfq.full_space(f, 6)
        empty = gfq.zero_space(f, 6)
        assert self._check(empty, a.rows) == a

    def test_rejects_wrong_width(self):
        f = gfq.GF(2)
        with pytest.raises(SchemaError):
            gfq.zero_space(f, 3).extend([gfq.pack(f, [1, 0, 0, 0])])


def _vectors(f, n):
    """Every packed vector of F_q^n."""
    return [gfq.pack(f, v) for v in product(range(f.q), repeat=n)]


def _random_space(rng, f, n):
    rows = _random_matrix(rng, f.q, rng.randint(0, n), n)
    if rng.random() < 0.5:  # sparse rows
        rows = [[0 if rng.random() < 0.6 else x for x in row] for row in rows]
    return ref.from_rows(f, n, _packed(f, rows))


def _pairing(f, n, x, y):
    """sum_k x[k] y[n-1-k], the pairing that ``gfq_reference.annihilator`` is taken under."""
    t = gfq.tables(f)
    s = 0
    for a, b in zip(gfq.unpack(f, n, x), reversed(gfq.unpack(f, n, y))):
        s = t.add[s][t.mul[a][b]]
    return s


def _gathered(f, n, x, src):
    """x times a gather, on unpacked entries."""
    v = gfq.unpack(f, n, x)
    return gfq.pack(f, [v[j] if j >= 0 else 0 for j in src])


class TestDualSteps:
    """The annihilator, the common preimage and the lines over a subspace, against brute force."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_annihilator_is_the_orthogonal_space(self, q):
        f = gfq.GF(q)
        rng = random.Random(300 + q)
        for _ in range(12):
            n = rng.randint(0, 4 if q > 4 else 5)
            y = _random_space(rng, f, n)
            x = ref.annihilator(y)
            want = [v for v in _vectors(f, n) if all(_pairing(f, n, v, b) == 0 for b in y.rows)]
            assert x == ref.from_rows(f, n, want) and x.dim == n - y.dim
            assert x == ref.from_rows(f, n, x.rows)  # canonical as it stands
            assert ref.annihilator(x) == y

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_preimage_of_partial_permutations(self, q):
        f = gfq.GF(q)
        rng = random.Random(400 + q)
        for _ in range(12):
            n = rng.randint(1, 4 if q > 4 else 5)
            gathers = []
            for _ in range(rng.randint(0, 3)):
                src = rng.sample(range(n), rng.randint(0, n))
                src += [-1] * (n - len(src))
                rng.shuffle(src)
                gathers.append(tuple(src))
            y = _random_space(rng, f, n)
            got = gfq.Preimage(f, n, gathers)(y)
            want = [v for v in _vectors(f, n) if not any(ref.reduce(y, [_gathered(f, n, v, h) for h in gathers]))]
            assert got == ref.from_rows(f, n, want), gathers
            assert got == ref.from_rows(f, n, got.rows)

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_lines_over_a_subspace(self, q):
        f = gfq.GF(q)
        rng = random.Random(500 + q)
        for _ in range(12):
            n = rng.randint(1, 6)
            space = _random_space(rng, f, n)
            picks = _random_matrix(rng, q, rng.randint(0, space.dim), space.dim)
            sub = ref.from_rows(f, n, ref.mat_mul(f, _packed(f, picks), space.rows, n))
            free = [c for c in space.pivots if c not in sub.pivots]
            cols = sorted(rng.sample(free, rng.randint(0, len(free))))
            at = dict(zip(space.pivots, space.rows))
            spans = ref.mat_mul(f, _vectors(f, len(cols))[1:], [at[c] for c in cols], n) if cols else []
            want = {ref.from_rows(f, n, [*sub.rows, v]) for v in spans}
            got = space.lines(sub, cols)
            assert len(got) == len(want) == (q ** len(cols) - 1) // (q - 1)
            assert set(got) == want
            for rep in got:  # canonical as built
                canon = ref.from_rows(f, n, rep.rows)
                assert (rep.rows, rep.pivots) == (canon.rows, canon.pivots)


class TestChains:
    """Chains V_1 >= W_2, W_2 <= V_2 of a two-layer filtered space over F_2.

    Each chain is one subspace W_2 of F_2^2 inside V_2 = span(e_1, ..., e_{d_2});
    its degree vector is (d_1 - dim W_2, dim W_2). The enumeration must agree
    with the closed count ``hereditary.chain_degree_counts``.
    """

    @staticmethod
    def _degree_vectors(dims):
        d1, d2 = dims
        field = gfq.GF(2)
        v2 = ref.from_rows(field, d1, _packed(field, _identity(d1)[:d2]))
        return sorted((d1 - w.dim, w.dim) for w in ref.enumerate_subspaces(field, d1) if ref.contains(v2, w))

    @staticmethod
    def _as_counts(degs):
        counts = {}
        for d in degs:
            counts[d] = counts.get(d, 0) + 1
        return counts

    def test_two_layer_full(self):
        degs = self._degree_vectors((2, 2))
        assert degs == [(0, 2), (1, 1), (1, 1), (1, 1), (2, 0)]
        assert hereditary.chain_degree_counts(2, (2, 2)) == self._as_counts(degs)

    def test_two_layer_restricted(self):
        degs = self._degree_vectors((2, 1))
        assert degs == [(1, 1), (2, 0)]
        assert hereditary.chain_degree_counts(2, (2, 1)) == self._as_counts(degs)


def _random_matrix(rng, q, rows, cols):
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _packed(field, mat):
    return [gfq.pack(field, row) for row in mat]


def _meet(a, b):
    """Brute-force intersection: the span of every vector that both spaces contain."""
    vectors = _packed(a.field, product(range(a.field.q), repeat=a.ambient))
    common = [x for x in vectors if not any(ref.reduce(a, [x]) + ref.reduce(b, [x]))]
    return ref.from_rows(a.field, a.ambient, common)


def _unpacked(field, n, rows):
    return [gfq.unpack(field, n, x) for x in rows]


def _reference_rref(a, add, mul, neg, inv, pivots):
    """Scalar table-driven RREF in place: the reference for an ``extend`` of the zero space.

    Returns the rank; ``pivots[:rank]`` receives the pivot columns.
    """
    rows, cols = len(a), len(a[0])
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        p = -1
        for r in range(rank, rows):
            if a[r][c] != 0:
                p = r
                break
        if p < 0:
            continue
        if p != rank:
            for j in range(cols):
                t = a[rank][j]
                a[rank][j] = a[p][j]
                a[p][j] = t
        piv = a[rank][c]
        if piv != 1:
            s = inv[piv]
            for j in range(cols):
                a[rank][j] = mul[s][a[rank][j]]
        for r in range(rows):
            if r != rank and a[r][c] != 0:
                f = neg[a[r][c]]
                for j in range(cols):
                    a[r][j] = add[a[r][j]][mul[f][a[rank][j]]]
        pivots[rank] = c
        rank += 1
    return rank


def _assert_reference_rref(field, n, mat, space):
    """``space`` has the rows, dimension and pivots of the reference RREF of ``mat``; returns the rank."""
    t = gfq.tables(field)
    expected = [list(row) for row in mat]
    pivots = [0] * (len(mat) + n)
    rank = _reference_rref(expected, t.add, t.mul, t.neg, t.inv, pivots) if mat else 0
    assert _unpacked(field, n, space.rows) == expected[:rank]
    assert space.dim == rank
    assert list(space.pivots) == pivots[:rank]
    return rank


def _reference_mat_mul(a, b, add, mul):
    """Scalar table-driven matrix product: the reference for ``gfq.mat_mul``."""
    n, kk = len(a), len(b)
    m = len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for k in range(kk):
            v = a[i][k]
            if v != 0:
                for j in range(m):
                    out[i][j] = add[out[i][j]][mul[v][b[k][j]]]
    return out


class TestKernels:
    @pytest.mark.parametrize("q", LAYOUT_QS)
    def test_rref_and_mat_mul_match_scalar_reference(self, q):
        f = gfq.GF(q)
        t = gfq.tables(f)
        rng = random.Random(q)
        for trial in range(12):
            rows, cols, inner = (rng.randint(1, 20) for _ in range(3))
            mat = _random_matrix(rng, q, rows, cols)
            if trial % 3 == 1:  # sparse: zero columns and rank deficiency
                mat = [[0 if rng.random() < 0.7 else x for x in row] for row in mat]
            elif trial % 3 == 2:  # rank at most 3 by construction
                left = _random_matrix(rng, q, rows, 3)
                right = _random_matrix(rng, q, 3, cols)
                mat = _reference_mat_mul(left, right, t.add, t.mul)
            _assert_reference_rref(f, cols, mat, ref.from_rows(f, cols, _packed(f, mat)))
            other = _random_matrix(rng, q, cols, inner)
            product = ref.mat_mul(f, _packed(f, mat), _packed(f, other), inner)
            assert _unpacked(f, inner, product) == _reference_mat_mul(mat, other, t.add, t.mul)

    def test_mat_mul_shape_mismatch(self):
        f = gfq.GF(2)
        with pytest.raises(SchemaError):
            ref.mat_mul(f, [gfq.pack(f, [1, 0])], [gfq.pack(f, [1, 0, 1])], 3)

    @pytest.mark.parametrize("q", LAYOUT_QS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pack_roundtrip_and_order(self, q, data):
        """Packing is invertible, and packed ints order like the rows as tuples."""
        f = gfq.GF(q)
        n = data.draw(st.integers(0, 8))
        row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        a, b = data.draw(row), data.draw(row)
        assert gfq.unpack(f, n, gfq.pack(f, a)) == a
        assert (gfq.pack(f, a) < gfq.pack(f, b)) == (tuple(a) < tuple(b))
