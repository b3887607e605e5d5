"""X-side references for the oracle, which only the tests use.

The oracle walks annihilators Y = X^perp and reads tops, quotient classes,
fiber charts and Jordan types off Y, with each generator acting on the dual
module by its transposed gather.  These compute the same things from X
itself, read off Y with ``gfq_reference.annihilator``, and act by the
generators' own gathers (:func:`acts`): the radical JX as the span of X's
images, the top of X as its pivots per class less JX's, the slice tower as
the projection of the left kernel of X's reduction of u^j, one kernel per
level, and Jordan types as the ranks of t^j on X.
"""

import brzeta.gfq as gfq
import brzeta.oracle as orc
from brzeta.errors import SchemaError
from brzeta.prolif import ChainData

import gfq_reference as ref


def acts(model):
    """Each radical generator's own gather on M, compiled to masked shifts of packed rows."""
    return {name: gfq.compile_gather(model.field, model.dim, src) for name, src in model.gens.items()}


def radical_subspace(model, rep):
    """J X for a submodule X: the span of the radical generators' images of X.

    That span is already a submodule: each radical generator g has g b = a g
    for every generator b (the relations ``validate_model`` checks), so
    (X g) b = (X a) g lies in X g, and one ``extend`` gives J X.
    """
    images = [img for act in acts(model).values() for img in orc._mm(rep.rows, act)]
    return gfq.zero_space(model.field, model.dim).extend(images)


def top_class(model, rep):
    """Multiplicity of each simple class in X/JX: X's pivots in the class less JX's."""
    return orc._class_dims(model, rep, radical_subspace(model, rep))


def composition_class(model, upper, lower):
    """Composition multiplicities of upper/lower, one slot per simple class."""
    if not ref.contains(upper, lower):
        raise SchemaError("composition class needs lower <= upper")
    return orc._class_dims(model, upper, lower)


def project(ctx, rows):
    """Slice coordinates of each packed row of ``ctx.model``: its entries off IM."""
    return orc._mm(rows, gfq.compile_gather(ctx.model.field, ctx.model.dim, tuple(ctx.free)))


def chart(ctx, rep, max_level):
    """The fiber chart of X read off X: level j of the tower is the projection of
    (X : u^j), the left kernel of X's reduction of the rows of u^j."""
    model = ctx.model
    f, n, nf = model.field, model.dim, len(ctx.free)
    power, towers, u = list(model.full().rows), [], acts(model)[model.slice_gen]
    for _ in range(max_level + 1):
        pre = ref.left_kernel(f, ref.reduce(rep, power), n)
        towers.append(ref.from_rows(f, nf, project(ctx, pre.rows)))
        if towers[-1].dim == nf:
            break
        power = orc._mm(power, u)
    else:
        raise SchemaError(f"slice tower did not stabilize within {max_level} levels")
    tops = tuple(top_class(ctx.slice_model, y) for y in towers)
    quots = tuple(composition_class(ctx.slice_model, towers[j + 1], towers[j]) for j in range(len(towers) - 1))
    return ChainData(tops, quots)


def jordan_type(model, rep, lower=None):
    """Partition of t-power ranks of X (or of X/lower) over a chain model, with t acting on M."""
    if "t" not in model.gens:
        raise SchemaError(f"jordan_type needs a t action; model kind is {model.kind}")
    t = acts(model)["t"]
    base = lower if lower is not None else gfq.zero_space(model.field, model.dim)
    cur = rep.rows
    ranks = []
    while True:
        rank = base.extend(cur).dim - base.dim
        ranks.append(rank)
        if rank == 0:
            break
        cur = orc._mm(cur, t)
    return orc._partition_from_ranks(ranks)


def typed_submodules(model, ambient, sub_type, quotient_type):
    """Each D <= A = ``ambient`` with D of type ``sub_type`` and A/D of type ``quotient_type``, read off X."""
    b = orc._as_partition(quotient_type)
    c = orc._as_partition(sub_type)
    colen = sum(b)
    if sum(c) + colen != ambient.dim:
        return
    for node in orc.submodules(model, colen, start=ref.annihilator(ambient)):
        rep = ref.annihilator(node.ann)
        if node.colength == colen and jordan_type(model, rep) == c and jordan_type(model, ambient, lower=rep) == b:
            yield rep


def chain_type_count(model, ambient, steps):
    """Chains D_0 <= D_1 <= ... <= A = ``ambient`` with prescribed (sub, quotient) types, read off X."""
    if not steps:
        return 1
    (sub_t, quo_t), rest = steps[0], steps[1:]
    return sum(chain_type_count(model, rep, rest) for rep in typed_submodules(model, ambient, sub_t, quo_t))
