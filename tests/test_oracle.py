"""Brute-force enumeration models: construction, counting, Hall numbers, fibers."""

import dataclasses
import random
import weakref
from itertools import combinations_with_replacement

import pytest

import brzeta.gfq as gfq
import brzeta.hereditary as her
import brzeta.oracle as orc
import brzeta.prolif as pr
from brzeta.errors import ResourceBudgetError, SchemaError
from brzeta.hey import SemisimpleData, hey_product

import gfq_reference as ref


_TRI = orc.triangular_module(2, 2, 2, (1, 2))
_LOCAL = orc.local2d_module(2, 3)
_SKEW = orc.skew_module(2, 2, 1, 2)


class TestModelConstruction:
    def test_validate_returns_nilpotency_index(self):
        assert orc.validate_model(orc.chain_module(2, 3, rank=2)) == 3
        assert orc.validate_model(orc.local2d_module(3, 2)) == 2
        assert orc.validate_model(orc.triangular_module(2, 2, 2, (1, 2))) == 4
        assert orc.validate_model(orc.skew_module(2, 2, 2, 3)) == 6

    def test_constructors_validate_their_models(self, monkeypatch):
        seen = []
        monkeypatch.setattr(orc, "validate_model", lambda model: seen.append(model.kind))
        orc.chain_module(2, 2)
        orc.local2d_module(2, 2)
        orc.triangular_module(2, 2, 1, (1,))
        orc.skew_module(2, 2, 1, 1)  # validates only the skew model, not a throwaway base
        assert seen == ["chain", "local2d", "triangular", "skew_poly"]

    def test_chain_rejects_empty(self):
        with pytest.raises(SchemaError):
            orc.chain_module(2, 0)

    def test_local2d_rejects_zero_rank(self):
        with pytest.raises(SchemaError):
            orc.local2d_module(2, 2, rank=0)

    def test_triangular_rejects_column_beyond_size(self):
        with pytest.raises(SchemaError):
            orc.triangular_module(2, 2, 2, (1, 3))

    def test_triangular_rejects_no_columns(self):
        with pytest.raises(SchemaError):
            orc.triangular_module(2, 2, 2, ())

    def test_skew_rejects_zero_digit_length(self):
        with pytest.raises(SchemaError):
            orc.skew_module(2, 2, 2, 0)

    def test_rejects_non_prime_power_field(self):
        with pytest.raises(SchemaError):
            orc.chain_module(6, 2)

    @pytest.mark.parametrize(
        "model, name, src, message",
        [
            (_TRI, "e1", _TRI.gens["g"], "e1 is not idempotent"),
            (_TRI, "e1", (0, -1, -1, -1, 4, 5, -1, -1), "do not sum to the identity"),
            (_LOCAL, "t", (-1, 3, -1, -1, -1, -1), "u and t do not commute"),
            (_TRI, "g", (-1, 0, -1, 2, -1, 4, -1, 6), "does not shift class 1"),  # g stays in each class
            (_SKEW, "t", _SKEW.gens["g"], "t is not central"),
        ],
        ids=[
            "not-idempotent", "idempotents-miss-a-coordinate", "u-t-not-commuting", "g-not-shifting", "t-not-central"
        ],
    )
    def test_validate_refuses_broken_relations(self, model, name, src, message):
        broken = dataclasses.replace(model, gens={**model.gens, name: src})
        with pytest.raises(SchemaError, match=message):
            orc.validate_model(broken)


def _gather_grid():
    """Small models of each kind, keyed by kind; their gathers do not depend on q."""
    grid = {"chain": [], "local2d": [], "triangular": [], "skew_poly": []}
    for c in (1, 2, 3):
        for rank in (1, 2):
            grid["chain"].append(orc.chain_module(2, c, rank))
            grid["local2d"].append(orc.local2d_module(3, c, rank))
    for n in (1, 2, 3):
        for c in (1, 2):
            for k in (1, 2):
                for columns in combinations_with_replacement(range(1, n + 1), k):
                    grid["triangular"].append(orc.triangular_module(2, n, c, columns))
    for n in (1, 2):
        for c_pi in (1, 2):
            for c_t in (1, 2, 3):
                grid["skew_poly"].append(orc.skew_module(2, n, c_pi, c_t))
    return grid


_GATHER_GRID = _gather_grid()


class TestGatherFacts:
    """What the oracle reads off a model's gathers equals what elimination gives."""

    @pytest.mark.parametrize("kind", sorted(_GATHER_GRID))
    def test_nilpotency_index_matches_repeated_radicals(self, kind):
        for model in _GATHER_GRID[kind]:
            index, jx = 0, model.full()
            while jx.dim:
                index, jx = index + 1, orc.radical_subspace(model, jx)
            assert orc.validate_model(model) == index, model.gens

    @pytest.mark.parametrize("kind", sorted(_GATHER_GRID))
    def test_joint_width_matches_the_top_of_m(self, kind):
        for model in _GATHER_GRID[kind]:
            width = sum(orc.top_class(model, model.full()))
            assert orc.empirical_zeta(model, 0, joint=True).bound == width, model.gens

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_alphabet_follows_field_and_class_count(self, q):
        for model in _models(q):
            assert model.alphabet == her.z_alphabet(q, model.n_classes), model.kind
            if model.slice_gen is not None:
                assert orc.FiberContext(model).slice_model.alphabet == model.alphabet


def _models(q):
    """One model of every kind over GF(q), plus the fiber slice models."""
    models = [
        orc.chain_module(q, 3, rank=2),
        orc.local2d_module(q, 3),
        orc.triangular_module(q, 2, 2, (1, 2)),
        orc.skew_module(q, 2, 1, 2),
    ]
    models += [orc.FiberContext(m).slice_model for m in models if m.slice_gen is not None]
    return models


def _random_rows(rng, model, count):
    return [[rng.randrange(model.field.q) for _ in range(model.dim)] for _ in range(count)]


def _packed(field, mat):
    return [gfq.pack(field, row) for row in mat]


def _dense(src):
    """The partial permutation matrix of a gather: row src[k] has its 1 in column k."""
    mat = [[0] * len(src) for _ in src]
    for k, j in enumerate(src):
        if j >= 0:
            mat[j][k] = 1
    return mat


class TestGeneratorActions:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_gather_equals_matrix_product(self, q):
        rng = random.Random(q)
        kinds = set()
        for model in _models(q):
            kinds.add(model.kind)
            for name, src in model.gens.items():
                rows = _packed(model.field, _random_rows(rng, model, 4))
                want = ref.mat_mul(model.field, rows, _packed(model.field, _dense(src)), model.dim)
                assert orc._mm(rows, model.acts[name]) == want, (model.kind, name)
        assert kinds == {"chain", "local2d", "triangular", "skew_poly", "local2d_slice", "skew_poly_slice"}

    def test_literal_generators(self):
        chain = orc.chain_module(2, 3, rank=2)
        assert chain.gens == {"t": (-1, 0, 1, -1, 3, 4), "e1": (0, 1, 2, 3, 4, 5)}
        local = orc.local2d_module(2, 2)  # basis 1, t, u
        assert local.gens == {"u": (-1, -1, 0), "t": (-1, 0, -1), "e1": (0, 1, 2)}
        tri = orc.triangular_module(2, 2, 1, (1,))  # basis (1, pi^0), (2, pi^1)
        assert tri.gens == {"g": (-1, 0), "e1": (0, -1), "e2": (-1, 1)}

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_slice_gathers_commute_with_projection(self, q):
        rng = random.Random(20 + q)
        for model in _models(q):
            if model.slice_gen is None:
                continue
            ctx = orc.FiberContext(model)
            for name in model.gens:
                rows = _packed(model.field, _random_rows(rng, model, 4))
                got = ctx.project(orc._mm(rows, model.acts[name]))
                assert got == orc._mm(ctx.project(rows), ctx.slice_model.acts[name]), (model.kind, name)

    @pytest.mark.parametrize(
        "bad",
        [
            (-1, 0, 0),  # source 0 read twice: row 0 of the matrix has two 1s
            (-1, 0, 3),  # a source past the last coordinate
            (-2, 0, 1),  # a source below -1
            (-1, 0),  # wrong length
        ],
        ids=["row-two-ones", "source-dim", "source-minus-2", "wrong-shape"],
    )
    def test_non_partial_permutation_refused(self, bad):
        model = orc.chain_module(3, 3)
        with pytest.raises(SchemaError, match="generator t"):
            dataclasses.replace(model, gens={**model.gens, "t": bad})


def _fixed_point_closure(model, rows):
    """Reference closure: re-reduce everything with every generator until the dimension stops."""
    sub = gfq.SubspaceRep.from_rows(model.field, model.dim, rows)
    mats = [_packed(model.field, _dense(src)) for src in model.gens.values()]
    while True:
        stack = list(sub.rows)
        for mat in mats:
            stack += ref.mat_mul(model.field, sub.rows, mat, model.dim)
        bigger = gfq.SubspaceRep.from_rows(model.field, model.dim, stack)
        if bigger.dim == sub.dim:
            return sub
        sub = bigger


def _is_fixed_point(model, sub):
    """Whether ``sub`` is its own fixed-point closure: no generator maps it outside itself."""
    return not any(any(sub.reduce(_image(model, sub.rows, name))) for name in model.gens)


def _image(model, rows, name):
    """Packed rows times a generator's dense matrix."""
    return ref.mat_mul(model.field, rows, _packed(model.field, _dense(model.gens[name])), model.dim)


def _radical_images(model, rows):
    return [row for name in model.rad_names for row in _image(model, rows, name)]


def _reference_top(model, rep):
    """dim(JX + X E_i) - dim JX per class, with JX the closure of X's radical images."""
    jx = _fixed_point_closure(model, _radical_images(model, rep.rows))
    f, n = model.field, model.dim
    return tuple(
        gfq.SubspaceRep.from_rows(f, n, [*jx.rows, *_image(model, rep.rows, name)]).dim - jx.dim
        for name in model.idem_names
    )


class TestSpinAndTops:
    """The one-extend radical and the tops against the spinning reference closure."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_radical_equals_reference_closure(self, q):
        rng = random.Random(10 + q)
        for model in _models(q):
            starts = []
            for count in (0, 1, 1, 2):
                rows = _random_rows(rng, model, count)
                if count and rng.random() < 0.5:  # sparse rows generate deeper submodules
                    rows = [[0 if rng.random() < 0.8 else x for x in row] for row in rows]
                starts.append(_packed(model.field, rows))
            starts += [[unit] for unit in model.full().rows]  # cyclic submodules of every depth
            for rows in starts:
                x = _fixed_point_closure(model, rows)
                want = _fixed_point_closure(model, _radical_images(model, x.rows))
                assert orc.radical_subspace(model, x) == want, model.kind

    @pytest.mark.parametrize(
        "model, bound",
        [
            (orc.chain_module(3, 3, rank=2), 2),
            (orc.local2d_module(2, 4), 3),
            (orc.triangular_module(2, 2, 2, (1, 2)), 3),
            (orc.triangular_module(3, 3, 1, (1, 2, 3)), 2),
            (orc.skew_module(2, 2, 2, 3), 2),
        ],
        ids=["chain", "local2d", "triangular-n2", "triangular-n3", "skew"],
    )
    def test_every_node_top_matches_blocks(self, model, bound):
        nodes = list(orc.submodules(model, bound))
        for node in nodes:
            want = _reference_top(model, node.rep)
            assert orc.top_class(model, node.rep) == want
            if node.colength < bound:
                assert node.top == want
        assert any(node.top is None for node in nodes)


class TestModelFromJson:
    def test_chain_payload(self):
        m = orc.model_from_json({"kind": "chain", "q": 2, "c": 3, "rank": 2})
        assert m.kind == "chain"
        assert m == orc.chain_module(2, 3, 2)
        assert m.dim == 6

    def test_local2d_rank_defaults_to_one(self):
        m = orc.model_from_json({"kind": "local2d", "q": 3, "c": 2})
        assert m == orc.local2d_module(3, 2)

    def test_triangular_payload_matches_constructor(self):
        m = orc.model_from_json(
            {"kind": "triangular", "q": 2, "n": 2, "c": 2, "columns": [2, 1]}
        )
        direct = orc.triangular_module(2, 2, 2, (1, 2))
        assert m == direct
        assert orc.empirical_zeta(m, 2) == orc.empirical_zeta(direct, 2)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            orc.model_from_json({"kind": "nope"})

    def test_non_object_payload(self):
        with pytest.raises(SchemaError):
            orc.model_from_json([1, 2])

    def test_missing_parameter(self):
        with pytest.raises(SchemaError):
            orc.model_from_json({"kind": "chain", "c": 2})


class TestMaximalSubmodules:
    def test_free_rank_two_has_line_count_of_plane(self):
        m = orc.chain_module(2, 3, rank=2)
        out = orc.maximal_submodules(m, m.full())
        assert len(out) == 3
        assert {bi for _, bi in out} == {0}

    def test_two_class_top_gives_one_per_class(self):
        m = orc.triangular_module(2, 2, 2, (1, 2))
        out = orc.maximal_submodules(m, m.full())
        assert len(out) == 2
        assert {bi for _, bi in out} == {0, 1}

    @pytest.mark.parametrize(
        "model, bound",
        [
            (orc.chain_module(3, 3, rank=2), 2),
            (orc.local2d_module(2, 4), 2),
            (orc.triangular_module(2, 2, 2, (1, 2)), 2),
            (orc.triangular_module(2, 3, 1, (1, 2, 3)), 2),
            (orc.local2d_module(4, 3), 2),
            (orc.local2d_module(3, 3), 2),
            (orc.chain_module(4, 2, rank=2, exact=True), 3),
            (orc.chain_module(8, 2, rank=2, exact=True), 3),
            (orc.chain_module(9, 2, rank=2, exact=True), 3),
            (orc.triangular_module(8, 2, 2, (1,)), 3),
            (orc.triangular_module(9, 2, 2, (1,)), 3),
            (orc.triangular_module(2, 3, 2, (1, 3)), 3),
            (orc.triangular_module(3, 3, 2, (1,)), 3),
            # the depth guard certifies labels against the infinite module; the
            # maximal submodules of the finite model itself need no certificate
            (dataclasses.replace(orc.skew_module(2, 2, 1, 2), exact=True), 3),
        ],
        ids=[
            "chain", "local2d", "triangular-n2", "triangular-n3", "local2d-q4", "local2d-q3", "chain-q4",
            "chain-q8", "chain-q9", "triangular-q8", "triangular-q9", "triangular-n3-c2", "triangular-n3-q3",
            "skew",
        ],
    )
    def test_matches_stable_hyperplanes(self, model, bound):
        f = model.field
        for node in orc.submodules(model, bound):
            x = node.rep
            class_images = [
                gfq.SubspaceRep.from_rows(f, model.dim, _image(model, x.rows, name))
                for name in model.idem_names
            ]
            want = set()
            for hyper in ref.enumerate_subspaces(f, x.dim, dims=x.dim - 1):
                h = gfq.SubspaceRep.from_rows(f, model.dim, ref.mat_mul(f, hyper.rows, x.rows, model.dim))
                if not _is_fixed_point(model, h):
                    continue
                # X/H is simple: exactly one class moves X out of H
                (cls,) = [i for i, image in enumerate(class_images) if not h.contains(image)]
                want.add((h, cls))
            got = orc.maximal_submodules(model, x)
            assert len(got) == len(want)
            assert set(got) == want

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_top_matches_reference_on_random_submodules(self, q):
        rng = random.Random(40 + q)
        for model in _models(q):
            for count in (1, 1, 2, 3):
                rows = _random_rows(rng, model, count)
                if rng.random() < 0.5:  # sparse rows generate deeper submodules
                    rows = [[0 if rng.random() < 0.8 else x for x in row] for row in rows]
                x = _fixed_point_closure(model, _packed(model.field, rows))
                assert orc.top_class(model, x) == _reference_top(model, x), model.kind

    @pytest.mark.parametrize("q, rank", [(2, 3), (3, 3), (4, 2)])
    def test_budget_counts_projective_points(self, q, rank):
        model = orc.chain_module(q, 2, rank=rank)
        points = (q**rank - 1) // (q - 1)  # hyperplanes of the rank-dimensional top
        assert len(orc.maximal_submodules(model, model.full(), budget=points)) == points
        with pytest.raises(ResourceBudgetError) as err:
            orc.maximal_submodules(model, model.full(), budget=points - 1)
        assert err.value.required == points


class TestSubmoduleCounts:
    def test_free_rank_two_over_dvr(self):
        z = orc.empirical_zeta(orc.chain_module(2, 3, rank=2), 2)
        assert [z.coefficient((k,)) for k in range(3)] == [1, 3, 7]

    def test_local_dimension_two_rank_one(self):
        z = orc.empirical_zeta(orc.local2d_module(2, 4), 3)
        assert [z.coefficient((k,)) for k in range(4)] == [1, 1, 3, 7]

    def test_local_dimension_two_rank_two(self):
        z = orc.empirical_zeta(orc.local2d_module(2, 3, rank=2), 2)
        assert [z.coefficient((k,)) for k in range(3)] == [1, 3, 19]

    def test_semisimple_plane(self):
        # F_2 x F_2 with the radical acting as zero: subspace counts.
        z = orc.empirical_zeta(orc.chain_module(2, 1, rank=2, exact=True), 2)
        assert [z.coefficient((k,)) for k in range(3)] == [1, 3, 1]

    def test_nodes_are_deduplicated(self):
        nodes = list(orc.submodules(orc.chain_module(2, 3, rank=2), 2))
        assert len(nodes) == 11
        assert len({n.rep for n in nodes}) == 11

    def test_truncation_depth_guard(self):
        nodes = orc.submodules(orc.chain_module(2, 2), 5)
        with pytest.raises(SchemaError, match="cannot certify colength"):
            next(nodes)

    def test_exact_model_skips_depth_guard(self):
        nodes = list(orc.submodules(orc.chain_module(2, 2, exact=True), 5))
        assert max(n.colength for n in nodes) == 2

    def test_node_budget(self):
        with pytest.raises(ResourceBudgetError) as err:
            list(orc.submodules(orc.chain_module(2, 4, rank=2), 3, budget=5))
        assert (err.value.required, err.value.budget) == (6, 5)

    def test_node_budget_counts_the_root(self):
        model = orc.chain_module(2, 2)
        assert len(list(orc.submodules(model, 0, budget=1))) == 1
        with pytest.raises(ResourceBudgetError) as err:
            list(orc.submodules(model, 0, budget=0))
        assert (err.value.required, err.value.budget) == (1, 0)

    def test_yield_order(self):
        model = orc.chain_module(2, 3, rank=2)
        nodes = list(orc.submodules(model, 2))
        root = nodes[0]
        assert (root.rep, root.colength, root.cls) == (model.full(), 0, (0,))
        assert root.top == orc.top_class(model, model.full()) == (2,)
        assert all((n.top is None) == (n.colength == 2) for n in nodes)
        # expanded nodes come level by level; each leaf follows the node it was first found under
        expanded = [n.colength for n in nodes if n.top is not None]
        assert expanded == sorted(expanded)
        parent = root
        for node in nodes[1:]:
            if node.top is not None:
                parent = node
            else:
                assert parent.colength == 1 and parent.rep.contains(node.rep)
        # a bound-0 enumeration expands nothing: the root is its one leaf
        (only,) = orc.submodules(model, 0)
        assert (only.rep, only.top) == (model.full(), None)

    def test_leaves_are_not_kept(self):
        model = orc.chain_module(2, 3, rank=2)
        nodes = orc.submodules(model, 2)
        count, leaf = 0, None
        for node in nodes:
            count += 1
            if node.top is None:
                leaf = weakref.ref(node)
                break
        del node
        assert leaf is not None and leaf() is None
        count += sum(1 for _ in nodes)
        assert leaf() is None
        assert count == 11


class TestLatticeAgainstBruteForce:
    """The streamed lattice against every stable subspace of small codimension."""

    @pytest.mark.parametrize(
        "model, bound",
        [
            (orc.chain_module(3, 2, rank=2, exact=True), 4),
            (orc.local2d_module(2, 3), 2),
            (orc.triangular_module(2, 2, 2, (1, 2)), 2),
            (dataclasses.replace(orc.skew_module(2, 2, 1, 2), exact=True), 2),
        ],
        ids=["chain", "local2d", "triangular-n2", "skew"],
    )
    def test_yields_each_stable_subspace_once(self, model, bound):
        full = model.full()
        dims = range(model.dim - bound, model.dim + 1)
        want = {h for h in ref.enumerate_subspaces(model.field, model.dim, dims) if _is_fixed_point(model, h)}
        nodes = list(orc.submodules(model, bound))
        assert len(nodes) == len({node.rep for node in nodes}) == len(want)
        assert {node.rep for node in nodes} == want
        for node in nodes:
            assert node.colength == model.dim - node.rep.dim
            assert node.cls == orc.composition_class(model, full, node.rep)


class TestJordanAndHall:
    def test_jordan_type_of_free_modules(self):
        m = orc.chain_module(2, 2, rank=2, exact=True)
        assert orc.jordan_type(m, m.full()) == (2, 2)
        m3 = orc.chain_module(2, 3)
        assert orc.jordan_type(m3, m3.full()) == (3,)

    def test_jordan_type_of_radical_and_quotient(self):
        m3 = orc.chain_module(2, 3)
        rad = orc.radical_subspace(m3, m3.full())
        assert orc.jordan_type(m3, rad) == (2,)
        assert orc.jordan_type(m3, m3.full(), lower=rad) == (1,)

    def test_jordan_needs_t_action(self):
        m = orc.triangular_module(2, 2, 1, (1,))
        with pytest.raises(SchemaError):
            orc.jordan_type(m, m.full())

    def test_hall_numbers_in_square_type(self):
        m = orc.chain_module(2, 2, rank=2, exact=True)
        full = m.full()
        assert orc.hall_number(m, full, (1,), (2, 1)) == 3
        assert orc.hall_number(m, full, (2,), (1, 1)) == 0
        assert orc.hall_number(m, full, (1, 1), (1, 1)) == 1
        assert orc.hall_number(m, full, (1, 1), (2,)) == 0
        assert orc.hall_number(m, full, (2,), (2,)) == 6

    def test_hall_length_mismatch_is_zero(self):
        m = orc.chain_module(2, 2, rank=2, exact=True)
        assert orc.hall_number(m, m.full(), (1,), (1,)) == 0

    def test_chain_count_equals_stepwise_product(self):
        m = orc.chain_module(2, 2, rank=2, exact=True)
        full = m.full()
        steps = [((2, 1), (1,)), ((1, 1), (1,))]
        assert orc.chain_type_count(m, full, steps) == 3
        first = [
            n
            for n in orc.submodules(m, 1)
            if n.colength == 1 and orc.jordan_type(m, n.rep) == (2, 1)
        ]
        assert len(first) == orc.hall_number(m, full, (1,), (2, 1))
        per = {orc.hall_number(m, n.rep, (1,), (1, 1)) for n in first}
        assert per == {1}

    def test_empty_chain_spec_counts_one(self):
        m = orc.chain_module(2, 2, rank=2, exact=True)
        assert orc.chain_type_count(m, m.full(), []) == 1


class TestTwoVariableAgreement:
    def test_joint_matches_closed_form_n2(self):
        model = orc.triangular_module(2, 2, 2, (1, 2))
        got = orc.empirical_zeta(model, 3, joint=True)
        want = her.brz_two_variable(her.Lattice(2, 2, (1, 2)), 3)
        assert got == want
        assert got.bound == 5  # colength bound + generic length

    def test_joint_matches_closed_form_n3(self):
        model = orc.triangular_module(2, 3, 1, (1, 2, 3))
        got = orc.empirical_zeta(model, 2, joint=True)
        want = her.brz_two_variable(her.Lattice(2, 3, (1, 2, 3)), 2)
        assert got == want

    def test_partial_matches_closed_form(self):
        model = orc.triangular_module(2, 2, 2, (1, 2))
        got = orc.empirical_zeta(model, 3, partial=(1, 1))
        want = her.partial_zeta(her.Lattice(2, 2, (1, 2)), (1, 1), 3)
        assert got == want
        assert got.coefficient((1, 1)) == 5

    def test_partial_top_width_must_match(self):
        model = orc.triangular_module(2, 2, 2, (1, 2))
        with pytest.raises(SchemaError):
            orc.empirical_zeta(model, 2, partial=(1,))


class TestPrimePowerFields:
    """Closed engines against enumeration on fields that ``verify`` never runs.

    q in {4, 8} are p = 2 with e > 1, q in {5, 7} odd primes other than 3,
    and q = 9 odd p with e > 1: each exercises its own packed-row arithmetic.
    """

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
    @pytest.mark.parametrize("rank, bound", [(1, 4), (2, 3), (3, 2)])
    def test_chain_matches_hey_product(self, q, rank, bound):
        got = orc.empirical_zeta(orc.chain_module(q, bound + 1, rank), bound)
        assert got == hey_product(SemisimpleData.from_specs([(q, rank)]), bound)

    @pytest.mark.parametrize("q", [4, 5])
    @pytest.mark.parametrize(
        "n, columns, bound",
        [(2, (1, 2), 4), (2, (1, 1, 2), 3), (3, (1, 2, 3), 3), (3, (1, 1, 3), 3)],
        ids=["n2-12", "n2-112", "n3-123", "n3-113"],
    )
    def test_triangular_matches_total_zeta(self, q, n, columns, bound):
        model = orc.triangular_module(q, n, -(-(bound + 1) // n), columns)
        want = her.total_zeta(her.Lattice(q, n, columns), bound)
        assert orc.empirical_zeta(model, bound) == want


def test_skew_model_matches_proliferation():
    model = orc.skew_module(2, 2, 2, 4)
    got = orc.empirical_zeta(model, 3)
    base = pr.SliceBase(her.Lattice(2, 2, (1, 2)))
    assert got == pr.proliferation_sum(base, 3)
    mons = [
        (0, 0), (1, 0), (0, 1),
        (2, 0), (1, 1), (0, 2),
        (3, 0), (2, 1), (1, 2), (0, 3),
    ]
    assert [got.coefficient(e) for e in mons] == [1, 1, 1, 1, 5, 1, 1, 9, 9, 1]


class TestFiberCharts:
    def test_charts_need_designated_generator(self):
        with pytest.raises(SchemaError):
            orc.FiberContext(orc.chain_module(2, 3))

    def test_partition_covers_lattice_and_matches_closed_form(self):
        model = orc.local2d_module(2, 4)
        base = pr.SliceBase.dvr(2, 1)
        parts = orc.fiber_partition(model, 3)
        assert len(parts) == 7
        assert sum(len(v) for v in parts.values()) == len(list(orc.submodules(model, 3))) == 12
        for chain, nodes in parts.items():
            got = orc.fiber_sum(model, nodes, 3)
            assert got == pr.fundamental_fiber_product(base, chain, 3), chain

    def test_two_generator_fibers(self):
        model = orc.local2d_module(2, 4)
        e0 = [gfq.pack(model.field, [1] + [0] * (model.dim - 1))]
        assert _fixed_point_closure(model, e0) == model.full()
        e0u = orc._mm(e0, model.acts["u"])
        e0t = orc._mm(e0, model.acts["t"])
        ut = _fixed_point_closure(model, e0u + e0t)
        ut2 = _fixed_point_closure(model, e0u + orc._mm(e0t, model.acts["t"]))
        assert orc.composition_class(model, model.full(), ut) == (1,)
        assert orc.composition_class(model, model.full(), ut2) == (2,)
        ctx = orc.FiberContext(model)
        ch1, ch2 = ctx.chart(ut, 3), ctx.chart(ut2, 3)
        assert ch1.y_tops == ch2.y_tops == ((1,), (1,))
        assert (ch1.quotients, ch2.quotients) == (((1,),), ((2,),))
        parts = orc.fiber_partition(model, 3)
        f1 = parts.get(ch1, [])
        f2 = parts.get(ch2, [])
        assert [n.cls for n in f1] == [(1,)]
        assert [n.cls for n in f2] == [(2,)]
        assert f1[0].rep == ut and f2[0].rep == ut2
