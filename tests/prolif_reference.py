"""The class-sequence sum by depth-first search over class sequences, and the
slice classes it walks, which only the tests use.

``prolif`` sums over class sequences by the transfer-matrix method; this
search walks every sequence and substitutes each layer's table entry through
``change_of_variable``, so the two share only the tables and the layer map.
The tests compare them on random bases, as an independent check of the sum.
"""

from itertools import product

from brzeta.errors import ResourceBudgetError, TruncationBoundError
from brzeta.prolif import ClassVec, SliceBase, change_of_variable
from brzeta.series import TruncatedSeries


def fibre_classes(base: SliceBase) -> list[ClassVec]:
    """All classes a layer image over ``base`` can take (unrealizable steps count zero)."""
    if base.kind == "semisimple":
        return list(product(*(range(e.m + 1) for e in base.data.entries)))
    # lattice classes of the same rank: compositions of r into n parts
    r, n = base.module.r, base.order.n
    out = []

    def rec(slots, remaining, acc):
        if slots == 1:
            out.append(tuple(acc + [remaining]))
            return
        for v in range(remaining + 1):
            rec(slots - 1, remaining - v, acc + [v])

    rec(n, r, [])
    return out


def proliferation_dfs(base: SliceBase, bound: int, class_counts, budget: int) -> TruncatedSeries:
    """Sum over class sequences of the product of substituted layer counts.

    ``class_counts(upper, bound)`` supplies the layer counts in the slice
    alphabet, keyed by the lower class, as :meth:`SliceBase.class_counts`
    does; it is asked once per upper class, and layer j reads that table
    truncated to bound // (j+1), without the entries that truncate to zero.
    Layers at positions >= bound reduce to 1 at this bound because a class
    jump at position j costs degree >= j+1.  Every visited node of the search
    counts against ``budget``.
    """
    al = base.alphabet()
    if bound < 0:
        raise TruncationBoundError(f"bound must be >= 0, got {bound}")
    one = TruncatedSeries.one(al, bound)
    if bound == 0:
        return one
    top = base.top_class()
    classes = fibre_classes(base)
    total = TruncatedSeries.zero(al, bound)
    full: dict[ClassVec, dict[ClassVec, TruncatedSeries]] = {}
    tables: dict[tuple[ClassVec, int], dict[ClassVec, TruncatedSeries]] = {}
    visited = 0

    def table_at(upper: ClassVec, src_bound: int) -> dict[ClassVec, TruncatedSeries]:
        table = tables.get((upper, src_bound))
        if table is None:
            whole = full.get(upper)
            if whole is None:
                whole = full[upper] = class_counts(upper, bound)
            table = {}
            for lower, series in whole.items():
                cut = series.truncated(src_bound)
                if not cut.is_zero():
                    table[lower] = cut
            tables[upper, src_bound] = table
        return table

    def rec(j: int, seq: tuple[ClassVec, ...], acc: TruncatedSeries):
        nonlocal total, visited
        visited += 1
        if visited > budget:
            raise ResourceBudgetError(
                "class-sequence search visited too many nodes", required=visited, budget=budget
            )
        if j == bound:
            total = total + acc
            return
        src_bound = bound // (j + 1)
        mapping = None  # reads only seq[:j], so every child of this node shares it
        for upper in classes if j + 1 < bound else [top]:
            raw = table_at(upper, src_bound).get(seq[j])
            if raw is None:
                continue
            if mapping is None:
                mapping = change_of_variable(base, seq, j)
            factor = raw.substitute(al, mapping, bound)
            nxt = acc * factor
            if nxt.is_zero():
                continue
            rec(j + 1, seq + (upper,), nxt)

    for p0 in classes:
        rec(0, (p0,), one)
    return total
