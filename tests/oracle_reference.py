"""X-side references for the oracle, which only the tests use.

The oracle walks annihilators Y = X^perp and reads tops, quotient classes
and fiber charts off Y.  These compute the same things from X itself: the
radical JX as the span of X's images, the top of X as its pivots per class
less JX's, and the slice tower as the projection of the left kernel of
X's reduction of u^j, one kernel per level.
"""

import brzeta.gfq as gfq
import brzeta.oracle as orc
from brzeta.errors import SchemaError
from brzeta.prolif import ChainData

import gfq_reference as ref


def radical_subspace(model, rep):
    """J X for a submodule X: the span of the radical generators' images of X.

    That span is already a submodule: each radical generator g has g b = a g
    for every generator b (the relations ``validate_model`` checks), so
    (X g) b = (X a) g lies in X g, and one ``extend`` gives J X.
    """
    images = [img for act in model.acts.values() for img in orc._mm(rep.rows, act)]
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
    power, towers = list(model.full().rows), []
    for _ in range(max_level + 1):
        pre = ref.left_kernel(f, ref.reduce(rep, power), n)
        towers.append(ref.from_rows(f, nf, project(ctx, pre.rows)))
        if towers[-1].dim == nf:
            break
        power = orc._mm(power, model.acts[model.slice_gen])
    else:
        raise SchemaError(f"slice tower did not stabilize within {max_level} levels")
    tops = tuple(top_class(ctx.slice_model, y) for y in towers)
    quots = tuple(composition_class(ctx.slice_model, towers[j + 1], towers[j]) for j in range(len(towers) - 1))
    return ChainData(tops, quots)
