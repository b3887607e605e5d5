"""Reference linear algebra on packed GF(q) rows that only the tests use.

The oracle needs neither a product of general matrices nor an enumeration
of all subspaces, so these two live here: the tests build generator
matrices and brute-force hyperplane sets with them, as an independent check
of the oracle's kernels.
"""

from itertools import combinations, product

from brzeta import gfq
from brzeta.errors import ResourceBudgetError, SchemaError
from brzeta.qcomb import gaussian_binomial

DEFAULT_BUDGET = 200_000


def mat_mul(field, a, b, n):
    """Product a·b of packed matrices; ``b`` has ``len(b)`` rows of width ``n``."""
    ar = gfq._arith(field, n)
    S, k, add, scale = ar.S, len(b), ar.add, ar.scale
    out = []
    for x in a:
        if x < 0 or x >> (k * S):
            raise SchemaError(f"matmul shape mismatch: a row of the left factor is wider than its {k} rows")
        acc = 0
        while x:
            sh = (x.bit_length() - 1) // S * S
            acc = add(acc, scale(x >> sh, b[k - 1 - sh // S]))
            x &= (1 << sh) - 1
        out.append(acc)
    return out


def enumerate_subspaces(field, ambient, dims=None, budget=DEFAULT_BUDGET):
    """All subspaces of F_q^ambient (optionally of given dimensions), RREF order.

    The exact count is computed first; exceeding ``budget`` raises
    ResourceBudgetError carrying the required count.
    """
    if dims is None:
        dim_list = list(range(ambient + 1))
    elif isinstance(dims, int):
        dim_list = [dims]
    else:
        dim_list = sorted(set(dims))
    if any(d < 0 or d > ambient for d in dim_list):
        raise SchemaError(f"dimensions {dim_list} out of range for ambient {ambient}")
    total = sum(gaussian_binomial(ambient, d, field.q) for d in dim_list)
    if total > budget:
        raise ResourceBudgetError("subspace enumeration too large", required=total, budget=budget)
    lay = gfq._layout(field)
    out = []
    for d in dim_list:
        for piv in combinations(range(ambient), d):
            # (row, bit offset) of each free entry: right of its row's pivot, off the other pivots
            free = [
                (i, (ambient - 1 - c) * lay.S)
                for i in range(d)
                for c in range(piv[i] + 1, ambient)
                if c not in piv
            ]
            base = [1 << ((ambient - 1 - p) * lay.S) for p in piv]
            for vals in product(lay.raw, repeat=len(free)):
                rows = list(base)
                for (i, sh), v in zip(free, vals):
                    rows[i] |= v << sh
                out.append(gfq.SubspaceRep(field, ambient, rows, piv))
    return out
