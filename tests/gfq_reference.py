"""Reference linear algebra on packed GF(q) rows that only the tests use.

The oracle needs neither a product of general matrices, nor an enumeration
of all subspaces, nor a left kernel, nor a submodule read back off its
annihilator, so these four live here: the tests build generator matrices
and brute-force hyperplane sets with the first two, as an independent check
of the oracle's kernels, the X-side fiber chart of
``tests/oracle_reference.py`` solves one left kernel per tower level, and
the tests read each submodule X off the annihilator Y = X^perp that the
oracle holds with :func:`annihilator`.
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


def left_kernel(field, mat, n):
    """All row vectors v with v·mat = 0 for width-``n`` rows; ambient = number of rows of mat.

    The zero space extended by ``[mat | I]``: the rows that pivot in the
    identity block are zero on the mat block.
    """
    k, S = len(mat), gfq._layout(field).S
    units = [1 << ((k - 1 - i) * S) for i in range(k)]
    aug = gfq.zero_space(field, n + k).extend([(x << (k * S)) | unit for x, unit in zip(mat, units)])
    kernel = [(x, c - n) for x, c in zip(aug.rows, aug.pivots) if c >= n]
    return gfq.SubspaceRep(field, k, [x for x, _ in kernel], [c for _, c in kernel])


def from_rows(field, ambient, mat):
    """The row space of ``mat`` in RREF: the zero space extended by its rows."""
    return gfq.zero_space(field, ambient).extend(mat)


def contains(space, other):
    """Whether ``other`` lies in ``space``: each of its rows reduces to zero."""
    return other.dim <= space.dim and not any(reduce(space, other.rows))


def reduce(space, mat):
    """Each packed row of ``mat`` with ``space``'s pivot columns eliminated."""
    ar, mask, by_slot = space._eliminator()
    return [gfq._reduced(ar, x, mask, by_slot) for x in mat]


def annihilator(space):
    """The x with sum_k x[k] y[n-1-k] = 0 for every y in ``space``, in RREF.

    This pairs coordinate k with n-1-k.  Each non-pivot d of the space gives
    the row e_c - sum_r y_r[d] e_(n-1-p_r) at c = n-1-d, over the rows y_r at
    pivots p_r.  y_r[d] is nonzero only for d > p_r, so that row leads at c
    and is zero at every other such c: the rows are the RREF as they stand,
    with no elimination, and the map is an involution.
    """
    n = space.ambient
    ar = gfq._arith(space.field, n)
    S, slot = ar.S, ar.slot
    below = set(space.pivots)
    rows, pivots = [], []
    for d in range(n - 1, -1, -1):
        if d in below:
            continue
        sh, part = (n - 1 - d) * S, 0
        for p, y in zip(space.pivots, space.rows):
            part |= ((y >> sh) & slot) << (p * S)
        rows.append(ar.axpy(1 << (d * S), 1, part))
        pivots.append(n - 1 - d)
    return gfq.SubspaceRep(space.field, n, rows, pivots)
