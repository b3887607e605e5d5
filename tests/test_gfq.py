"""Finite-field linear algebra: fields, echelon forms, subspace enumeration."""

import numpy as np
import pytest

from brzeta import gfq, hereditary
from brzeta.errors import ResourceBudgetError, SchemaError
from brzeta.qcomb import gaussian_binomial


class TestFieldConstruction:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_prime_power_fields_validate(self, q):
        gfq.validate_field(gfq.GF(q))

    @pytest.mark.parametrize("q", [1, 6, 10, 12])
    def test_non_prime_powers_rejected(self, q):
        with pytest.raises(SchemaError):
            gfq.GF(q)

    def test_tables_shapes(self):
        t = gfq.tables(gfq.GF(4))
        assert t.add.shape == (4, 4) and t.mul.shape == (4, 4)
        assert t.inv[1] == 1


class TestRref:
    def test_idempotent(self):
        f = gfq.GF(3)
        mat = np.array([[1, 2, 0], [2, 1, 1], [0, 0, 2]], dtype=np.int64)
        r1, rank1, _ = gfq.rref(f, mat)
        r2, rank2, _ = gfq.rref(f, r1)
        assert rank1 == rank2
        assert np.array_equal(r1[:rank1], r2[:rank2])

    def test_rank_nullity(self):
        f = gfq.GF(2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            mat = rng.integers(0, 2, size=(4, 6)).astype(np.int64)
            _, rank, _ = gfq.rref(f, mat)
            ker = gfq.left_kernel(f, mat.T)  # vectors v with v @ mat.T = 0
            assert ker.dim == 6 - rank

    def test_left_kernel_annihilates(self):
        f = gfq.GF(4)
        rng = np.random.default_rng(11)
        mat = rng.integers(0, 4, size=(5, 3)).astype(np.int64)
        ker = gfq.left_kernel(f, mat)
        prod = gfq.mat_mul(f, ker.rows, mat)
        assert not prod.any()


class TestSubspaces:
    @pytest.mark.parametrize("m,expected", [(1, 2), (2, 5), (3, 16)])
    def test_total_counts_f2(self, m, expected):
        subs = list(gfq.enumerate_subspaces(gfq.GF(2), m))
        assert len(subs) == expected

    @pytest.mark.parametrize("q", [2, 3])
    def test_dimension_counts_match_gaussian(self, q):
        for m in range(0, 5):
            subs = list(gfq.enumerate_subspaces(gfq.GF(q), m))
            for d in range(m + 1):
                got = sum(1 for s in subs if s.dim == d)
                assert got == gaussian_binomial(m, d, q)

    def test_enumeration_deduplicates(self):
        subs = list(gfq.enumerate_subspaces(gfq.GF(2), 3))
        keys = {s.rows.tobytes() for s in subs}
        assert len(keys) == len(subs)

    def test_budget_enforced(self):
        with pytest.raises(ResourceBudgetError):
            list(gfq.enumerate_subspaces(gfq.GF(3), 9, budget=10))

    def test_lattice_ops_modular_law(self):
        f = gfq.GF(2)
        a = gfq.row_space(f, np.array([[1, 0, 0]], dtype=np.int64))
        b = gfq.row_space(f, np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64))
        pair = gfq.lattice_ops(a, b)
        assert pair.meet.dim == 1 and pair.join.dim == 2

    def test_dimension_formula(self):
        f = gfq.GF(2)
        rng = np.random.default_rng(3)
        for _ in range(15):
            a = gfq.row_space(f, rng.integers(0, 2, size=(2, 4)).astype(np.int64))
            b = gfq.row_space(f, rng.integers(0, 2, size=(2, 4)).astype(np.int64))
            pair = gfq.lattice_ops(a, b)
            assert a.dim + b.dim == pair.meet.dim + pair.join.dim


class TestQuotientSpace:
    def test_project_lift_roundtrip(self):
        f = gfq.GF(2)
        lower = gfq.row_space(f, np.array([[0, 0, 1, 0]], dtype=np.int64))
        quo = gfq.QuotientSpace(f, lower)
        assert quo.dim == 3
        vec = np.array([[1, 1, 0, 0]], dtype=np.int64)
        down = quo.project(vec)
        back = quo.project(gfq.mat_mul(f, down, quo.lift_rows))
        assert np.array_equal(down, back)

    def test_membership_projection(self):
        f = gfq.GF(2)
        lower = gfq.row_space(f, np.array([[1, 1, 0]], dtype=np.int64))
        quo = gfq.QuotientSpace(f, lower)
        assert not quo.project(np.array([[1, 1, 0]], dtype=np.int64)).any()


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
        v2 = gfq.row_space(field, np.eye(d1, dtype=np.int64)[:d2], d1)
        return sorted((d1 - w.dim, w.dim) for w in gfq.enumerate_subspaces(field, d1) if v2.contains(w))

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


def _reference_rref(a, add, mul, neg, inv, pivots):
    """Scalar table-driven RREF in place: the reference for ``gfq.rref``.

    Returns the rank; ``pivots[:rank]`` receives the pivot columns.
    """
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        p = -1
        for r in range(rank, rows):
            if a[r, c] != 0:
                p = r
                break
        if p < 0:
            continue
        if p != rank:
            for j in range(cols):
                t = a[rank, j]
                a[rank, j] = a[p, j]
                a[p, j] = t
        piv = a[rank, c]
        if piv != 1:
            s = inv[piv]
            for j in range(cols):
                a[rank, j] = mul[s, a[rank, j]]
        for r in range(rows):
            if r != rank and a[r, c] != 0:
                f = neg[a[r, c]]
                for j in range(cols):
                    a[r, j] = add[a[r, j], mul[f, a[rank, j]]]
        pivots[rank] = c
        rank += 1
    return rank


def _reference_mat_mul(a, b, add, mul):
    """Scalar table-driven matrix product: the reference for ``gfq.mat_mul``."""
    n, kk = a.shape
    m = b.shape[1]
    out = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for k in range(kk):
            v = a[i, k]
            if v != 0:
                for j in range(m):
                    out[i, j] = add[out[i, j], mul[v, b[k, j]]]
    return out


class TestKernels:
    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_rref_and_mat_mul_match_scalar_reference(self, q):
        f = gfq.GF(q)
        t = gfq.tables(f)
        rng = np.random.default_rng(q)
        for trial in range(12):
            rows, cols, inner = (int(x) for x in rng.integers(1, 21, size=3))
            mat = rng.integers(0, q, size=(rows, cols)).astype(np.int64)
            if trial % 3 == 1:  # sparse: zero columns and rank deficiency
                mat[rng.random((rows, cols)) < 0.7] = 0
            elif trial % 3 == 2:  # rank at most 3 by construction
                left = rng.integers(0, q, size=(rows, 3)).astype(np.int64)
                right = rng.integers(0, q, size=(3, cols)).astype(np.int64)
                mat = _reference_mat_mul(left, right, t.add, t.mul)
            expected = mat.copy()
            pivots = np.zeros(max(rows, cols), dtype=np.int64)
            rank = _reference_rref(expected, t.add, t.mul, t.neg, t.inv, pivots)
            got, got_rank, got_pivots = gfq.rref(f, mat)
            assert got_rank == rank
            assert np.array_equal(got, expected)
            assert np.array_equal(got_pivots, pivots[:rank])
            other = rng.integers(0, q, size=(cols, inner)).astype(np.int64)
            assert np.array_equal(gfq.mat_mul(f, mat, other), _reference_mat_mul(mat, other, t.add, t.mul))
