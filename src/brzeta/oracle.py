"""Brute-force ground truth over explicit finite quotient models.

Each model realizes a module over a finite quotient of the ring of interest
as a finite-field row space, its vectors held as packed rows of
:mod:`brzeta.gfq` (one int per row; a ring element acts on the right).
A model is a monomial module: an ordered basis of labels, one per
coordinate, a move per radical generator sending each label to a label (or
out of the basis, to 0), and a class per label.  One builder,
:func:`_labelled_model`, reads each move as the coordinate each coordinate
moves to and gives each coordinate its label's class; each constructor only
checks its arguments and lists its labels and moves.  So every generator is
a partial permutation, held as its moves.  Each radical generator
normalizes the ring (the relations :func:`validate_model` checks on every
constructed model, stated on the classes), so the radical JX of a submodule
X is the span of X's images, with no closure to compute.  The idempotent of
class i is the projection onto that class's coordinates, so the RREF rows
of a submodule lie in one class's coordinates each, and a class count of a
submodule or a quotient is a count of pivots per class.
What does not depend on a submodule is read off the moves with no
elimination: J maps a span of coordinate vectors onto the span of the
coordinates the radical generators move them to, which gives the nilpotency
index and the generic length dim M/JM, and the alphabet follows from the
field and the class count.  Every budget decision is made here: the node
budget of :func:`submodules` and the per-class line count of its step;
:mod:`brzeta.gfq` enumerates without policy.
Submodules of colength <= B are streamed by :func:`submodules`, which walks
their annihilators.  Under the pairing of coordinate k with k,
X -> X^perp is an inclusion-reversing bijection onto the submodules of the
dual module M*, where each generator acts by the gather that its moves are
as they stand (the image reads at k the coordinate k moves to), compiled
once to masked shifts of packed rows, one per displacement; each idempotent
is a coordinate projection, so quotient classes are kept.
So a node of colength k is a k-dimensional submodule Y of M*, and the walk
rises level by level to its minimal supermodules (the lattice technique of
the MeatAxe, which works on both sides of this duality: Lux, Mueller and
Ringe, J. Symb. Comp. 17, 1994), deduplicating each level by the canonical
echelon rows of its nodes, at most B packed ints each.  One solve per
expanded node, the preimage P(Y) = (JX)^perp of Y under the generators'
gathers, gives both the top of X (P's pivots per class less Y's) and the
children Y + <v>, one per line of P e_i / Y e_i, whose RREFs are read off
Y's and P's with no echelonization per child.  A node at colength B is a
leaf, yielded when first found and never stored, so the generator holds
only the frontier still to expand and one set of row tuples for the level
being built.  X itself is never built.  Nodes come level by level, unsorted.
A depth guard keeps
truncation honest: when the model is a quotient of an infinite module by a
kernel inside radical-power depth d, enumeration and labeling at colength <= B
are faithful only if d >= B + 1, and that inequality is enforced rather than
assumed.

Also here, all read off annihilators: Jordan types and Hall numbers over
chain models (a finite F_q[t]-module and its dual have one Jordan type, and
X* = M*/X^perp, (A/X)* = X^perp/A^perp), chain counting with prescribed
isomorphism types, and the fiber chart sending a submodule X to its tower of
slice images ((M meet I^-j X) + IM)/IM: each level is dual to the span of
Y's images under a power of the slice generator's gather, met with the
slice's coordinates, one ``extend`` per level.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from . import gfq
from .errors import FormulaViolationError, ResourceBudgetError, SchemaError, as_int, class_vector
from .hereditary import doubled_alphabet, z_alphabet
from .prolif import ChainData
from .series import Alphabet, Monomial, TruncatedSeries

DEFAULT_NODE_BUDGET = 200_000


@dataclass
class RingModel:
    """A finite module with ring generator actions, and the dual module M* it is read through.

    ``gens`` maps each radical generator's name to its moves, one entry per
    coordinate: entry k is the coordinate that e_k moves to, or -1 where the
    image of e_k is 0.  No target may repeat, so each generator is a partial
    permutation; any other tuple is refused with SchemaError.
    The generators generate the radical as a two-sided ideal.
    ``classes`` gives each coordinate its simple class, 0-based: the
    projection onto the coordinates of class i is the ring's idempotent e_i
    (every simple class here is one-dimensional over its idempotent block).
    ``depth``: the kernel of the defining quotient lies inside radical-power
    ``depth`` of the true module; ``exact`` marks models that are the object
    of study itself rather than a truncation.
    Every computation here reads M*, whose coordinate k pairs with M's
    coordinate k and has its class.  <x g, y> = <x, y m> for the moves m of
    a generator g, so each tuple of ``gens`` is, as it stands, the gather by
    which its generator acts on M*: ``gathers`` holds them compiled to
    masked shifts of packed rows, and ``preimage`` is the one
    :class:`gfq.Preimage` they define, both built once.  For a submodule
    Y = X^perp, P(Y) = {f : f m in Y for every generator's moves m} is
    (JX)^perp, one solve that gives both the top of X and the minimal
    submodules over Y.
    """

    kind: str
    field: gfq.FieldSpec
    gens: dict
    classes: tuple
    depth: int
    slice_gen: str | None = None
    exact: bool = False
    #: one more than the largest class
    n_classes: int = dataclasses.field(init=False, repr=False, compare=False)
    gathers: dict = dataclasses.field(init=False, repr=False, compare=False)
    preimage: gfq.Preimage = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.classes = tuple(self.classes)
        if any(i < 0 for i in self.classes):
            raise SchemaError(f"classes must be >= 0, got {self.classes}")
        self.gens = {name: tuple(moves) for name, moves in self.gens.items()}
        for name, moves in self.gens.items():
            if len(moves) != self.dim:
                raise SchemaError(f"generator {name} must have {self.dim} entries, got {len(moves)}")
            used = [k for k in moves if k != -1]
            if any(not 0 <= k < self.dim for k in used):
                raise SchemaError(f"generator {name} has a target outside -1..{self.dim - 1}: {moves}")
            if len(set(used)) != len(used):
                raise SchemaError(f"generator {name} is not a partial permutation: a target repeats in {moves}")
        self.n_classes = max(self.classes, default=-1) + 1
        self.gathers = {name: gfq.compile_gather(self.field, self.dim, m) for name, m in self.gens.items()}
        self.preimage = gfq.Preimage(self.field, self.dim, list(self.gens.values()))

    @property
    def dim(self) -> int:
        """The number of coordinates, one per class entry."""
        return len(self.classes)

    @property
    def alphabet(self) -> Alphabet:
        """The colength markers z1..zn, one per simple class, over the model's field."""
        return z_alphabet(self.field.q, self.n_classes)

    def full(self) -> gfq.SubspaceRep:
        return gfq.full_space(self.field, self.dim)

    def top(self, ann: gfq.SubspaceRep, p: gfq.SubspaceRep | None = None) -> Monomial:
        """top(X)_i = dim_i P(Y) - dim_i Y for Y = X^perp; ``p`` passes in P(Y) when the caller has it.

        X/JX is dual to P(Y)/Y, class by class.
        """
        return _class_dims(self, self.preimage(ann) if p is None else p, ann)

    def children(self, ann: gfq.SubspaceRep, p: gfq.SubspaceRep, budget: int):
        """Each Y + <v> for a line v of P_i(Y)/Y_i, tagged with its class i.

        Y + <v> is a submodule with Y + <v>/Y simple of class i exactly when v
        lies in P(Y) e_i, and every minimal submodule over Y is one of them:
        (Y + <v>)^perp is a maximal submodule of X.  Class i has
        (q^d - 1)/(q - 1) of them for d = top(X)_i, and that count is
        checked against ``budget`` before the class is built.
        """
        q, below = self.field.q, set(ann.pivots)
        cols = [[] for _ in range(self.n_classes)]
        for c in p.pivots:
            if c not in below:
                cols[self.classes[c]].append(c)
        out = []
        for i, ci in enumerate(cols):
            if ci:
                count = (q ** len(ci) - 1) // (q - 1)
                if count > budget:
                    raise ResourceBudgetError("subspace enumeration too large", required=count, budget=budget)
                out += [(child, i) for child in p.lines(ann, ci)]
        return out


# -- model constructors ----------------------------------------------------


def _one_class(label) -> int:
    return 0


def _labelled_model(kind, q, basis, moves, depth, cls=_one_class, slice_gen=None, exact=False) -> RingModel:
    """The validated model with one coordinate per label of ``basis``, in order.

    ``moves`` maps each radical generator's name to its move on labels: if it
    sends b to b', e_b moves to e_b' (to 0 when b' is not a label), so the
    generator's entry at b is b'.  Label b's coordinate has class ``cls(b)``.
    :class:`RingModel` refuses two labels moving to one.
    """
    pos = {b: k for k, b in enumerate(basis)}
    gens = {name: [pos.get(move(b), -1) for b in basis] for name, move in moves.items()}
    model = RingModel(kind, gfq.GF(q), gens, tuple(cls(b) for b in basis), depth, slice_gen, exact)
    validate_model(model)
    return model


def _triangular_labels(n: int, c: int, columns) -> list[tuple[int, int, int]]:
    """(copy, i, a) for pi^a in coordinate i of each column of type tau: c powers, from 1 when i > tau."""
    return [(j, i, a) for j, tau in enumerate(columns) for i in range(1, n + 1) for a in range(i > tau, (i > tau) + c)]


def _corner(n: int):
    """The move of g on labels ending (i, a): i to i - 1, and 1 to n with one more power of pi."""
    return lambda b: (*b[:-2], b[-2] - 1, b[-1]) if b[-2] > 1 else (*b[:-2], n, b[-1] + 1)


def _corner_class(label) -> int:
    return label[-2] - 1


def chain_module(q: int, c: int, rank: int = 1, exact: bool = False) -> RingModel:
    """Free rank-``rank`` module over F_q[t]/(t^c); labels (copy, t-power), t raises the power."""
    q, c, rank = as_int(q, "q"), as_int(c, "c"), as_int(rank, "rank")
    if c < 1 or rank < 1:
        raise SchemaError(f"need c >= 1 and rank >= 1, got c={c}, rank={rank}")
    basis = [(i, a) for i in range(rank) for a in range(c)]
    return _labelled_model("chain", q, basis, {"t": lambda b: (b[0], b[1] + 1)}, c, exact=exact)


def local2d_module(q: int, c: int, rank: int = 1) -> RingModel:
    """Free rank-``rank`` module over F_q[u,t]/m^c, m = (u,t); labels (copy, a, b) for u^a t^b."""
    q, c, rank = as_int(q, "q"), as_int(c, "c"), as_int(rank, "rank")
    if c < 1 or rank < 1:
        raise SchemaError(f"need c >= 1 and rank >= 1, got c={c}, rank={rank}")
    basis = [(i, a, b) for i in range(rank) for a in range(c) for b in range(c - a)]
    moves = {"u": lambda x: (x[0], x[1] + 1, x[2]), "t": lambda x: (x[0], x[1], x[2] + 1)}
    return _labelled_model("local2d", q, basis, moves, c, slice_gen="u")


def triangular_module(q: int, n: int, c: int, columns) -> RingModel:
    """Direct sum of column lattices over the n x n triangular order mod pi^c.

    The order sits inside n x n matrices over F_q[[pi]] with below-diagonal
    entries divisible by pi; its radical is generated by the corner matrix g
    (superdiagonal ones plus pi in the lower-left), and g^n acts as pi.
    """
    columns = tuple(sorted(as_int(x, "column type") for x in columns))
    q, n, c = as_int(q, "q"), as_int(n, "n"), as_int(c, "c")
    if n < 1 or c < 1 or not columns:
        raise SchemaError(f"need n >= 1, c >= 1, nonempty columns; got n={n}, c={c}, columns={columns}")
    if any(x < 1 or x > n for x in columns):
        raise SchemaError(f"column types must lie in 1..{n}, got {columns}")
    basis = _triangular_labels(n, c, columns)
    return _labelled_model("triangular", q, basis, {"g": _corner(n)}, n * c, _corner_class)


def skew_module(q: int, n: int, c_pi: int, c_t: int) -> RingModel:
    """The triangular order's power-series extension mod (t^c_t, pi^c_pi),
    as a module over itself: one copy of each column, tensored with t-digits.
    t is central; the slice by I = (t) is the triangular order itself.  The
    labels are the triangular ones with a t-digit in front, which t raises.
    """
    q, n, c_pi, c_t = as_int(q, "q"), as_int(n, "n"), as_int(c_pi, "c_pi"), as_int(c_t, "c_t")
    if n < 1 or c_pi < 1 or c_t < 1:
        raise SchemaError(f"need n, c_pi, c_t >= 1; got n={n}, c_pi={c_pi}, c_t={c_t}")
    basis = [(k, *b) for k in range(c_t) for b in _triangular_labels(n, c_pi, range(1, n + 1))]
    moves = {"g": _corner(n), "t": lambda b: (b[0] + 1, *b[1:])}
    return _labelled_model("skew_poly", q, basis, moves, min(c_t, n * c_pi), _corner_class, slice_gen="t")


def model_from_json(payload) -> RingModel:
    if not isinstance(payload, dict):
        raise SchemaError("model description must be an object")
    kind = payload.get("kind")

    def arg(name, default=None):
        return as_int(payload[name] if default is None else payload.get(name, default), name)

    try:
        if kind == "chain":
            exact = payload.get("exact", False)
            if not isinstance(exact, bool):
                raise SchemaError(f"exact must be true or false, got {exact!r}")
            return chain_module(arg("q"), arg("c"), arg("rank", 1), exact)
        if kind == "local2d":
            return local2d_module(arg("q"), arg("c"), arg("rank", 1))
        if kind == "triangular":
            if not isinstance(payload["columns"], list):
                raise SchemaError(f"columns must be an array, got {payload['columns']!r}")
            columns = [as_int(x, "column type") for x in payload["columns"]]
            return triangular_module(arg("q"), arg("n"), arg("c"), columns)
        if kind == "skew_poly":
            return skew_module(arg("q"), arg("n"), arg("c_pi"), arg("c_t"))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad {kind} model parameters: {exc}") from exc
    raise SchemaError(f"unknown model kind {kind!r}")


# -- generator actions and structural validation ------------------------------


def _mm(rows, act) -> list[int]:
    """Packed rows times a generator, given as its compiled gather."""
    pairs, down = act
    out = []
    for x in rows:
        y = 0
        for mask, up in pairs:
            y |= (x & mask) << up
        out.append(y >> down)
    return out


def _compose(a, b) -> tuple[int, ...]:
    """Gather of acting by ``a`` and then by ``b``; read as moves, of ``b`` and then ``a``."""
    return tuple(a[k] if k >= 0 else -1 for k in b)


def _radical_coords(model: RingModel, coords) -> set[int]:
    """The coordinates spanning J * span{e_j : j in coords}: where the radical generators move the e_j."""
    return {m[j] for m in model.gens.values() for j in coords if m[j] >= 0}


def _unshifted_class(model: RingModel, moves, s: int) -> int | None:
    """The class of the first coordinate that ``moves`` does not send from class i
    to class i + s (mod the class count), or None when it sends all."""
    cls, n = model.classes, model.n_classes
    return next((cls[j] for j, k in enumerate(moves) if k >= 0 and cls[k] != (cls[j] + s) % n), None)


def validate_model(model: RingModel) -> int:
    """Check the ring relations and the kernel depth; return the radical nilpotency index.

    :func:`_labelled_model` runs it on every model it builds, so every
    constructor's model is checked: the relations are the premise of
    :meth:`RingModel.top`, whose preimage P(Y) is (JX)^perp only because
    the span of X's images under the radical generators is already a
    submodule, and so is JX.  They are stated on the classes, since the
    idempotent e_i is the projection onto the coordinates of class i.  The
    index is read off the moves: each J^k M is spanned by coordinate
    vectors, and :func:`_radical_coords` steps from J^k M to J^(k+1) M with
    no elimination.
    """
    gens = model.gens
    if model.kind == "local2d":
        if _compose(gens["u"], gens["t"]) != _compose(gens["t"], gens["u"]):
            raise SchemaError("u and t do not commute")
    if model.kind in ("triangular", "skew_poly"):
        # e_i g = g e_{i+1} (indices mod n): g moves class i + 1 to class i.
        # So g^n (= pi) keeps every class, and with t g = g t below it is
        # central: it needs no check of its own.
        i = _unshifted_class(model, gens["g"], -1)
        if i is not None:
            raise SchemaError(f"corner generator does not shift class {i + 1}")
    if model.kind == "skew_poly":
        t, g = gens["t"], gens["g"]
        i = _unshifted_class(model, t, 0)
        if i is not None:
            raise SchemaError(f"t is not central: it moves class {i + 1}")
        if _compose(t, g) != _compose(g, t):
            raise SchemaError("t is not central: fails against g")
    index, live = 0, set(range(model.dim))
    while live:
        index, live = index + 1, _radical_coords(model, live)
    if index < model.depth:
        raise SchemaError(
            f"radical nilpotency index {index} below the declared kernel depth {model.depth}"
        )
    return index


# -- submodule machinery -------------------------------------------------------


def _class_dims(model: RingModel, upper: gfq.SubspaceRep, lower: gfq.SubspaceRep) -> Monomial:
    """dim e_i(upper/lower) per class i, from the pivots of two submodules.

    Each idempotent e_i is the projection onto the coordinates of class i
    (``model.classes``), so a submodule X is the direct sum of its X e_i,
    every row of its RREF lies in one class's coordinates, and dim X e_i is
    the number of X's pivots in class i.  The same holds in the dual module.
    """
    dims = [0] * model.n_classes
    for c in upper.pivots:
        dims[model.classes[c]] += 1
    for c in lower.pivots:
        dims[model.classes[c]] -= 1
    return tuple(dims)


@dataclass
class SubmoduleNode:
    """A submodule X, held only as its annihilator Y = X^perp in M* (see :class:`RingModel`)."""

    ann: gfq.SubspaceRep  # Y = X^perp, a submodule of M*
    colength: int
    cls: Monomial  # composition class of (start module)/X
    top: Monomial | None = None  # top class of X, set when X is expanded (colength < bound)


def submodules(
    model: RingModel,
    bound: int,
    start: gfq.SubspaceRep | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[SubmoduleNode]:
    """Yield each submodule of A of colength <= bound once, with its class.

    ``start`` is A^perp, the annihilator of A in M* (default the zero space:
    A = M).  X <-> X^perp reverses inclusion and keeps quotient classes,
    since each idempotent is a coordinate projection: so the submodules of A
    of colength k are the submodules Y >= A^perp of M* with
    dim Y/A^perp = k.  The walk rises level by level to minimal
    supermodules Y + <v>; a node found at level k has colength exactly k, so
    levels never collide and each level is deduplicated on its own, by the
    RREF rows of its annihilators.  A node of colength < bound is yielded when it is
    expanded, with the top class that P(Y) = (JX)^perp gives; a node at the
    bound is a leaf, yielded as soon as it is first found, with
    ``top=None``, and not kept.  The generator holds only the frontier (the
    nodes still to expand: the rest of the level being expanded and the part
    of the next level below the bound) and, for the level being built, the
    set of RREF rows found on it.  The yield order is level by level, each
    parent before the children first found under it; it is not sorted.  The
    root counts against ``budget`` like every other node.  The depth guard
    rejects truncation models too shallow to label colength-``bound``
    quotients faithfully; it and every budget refusal are raised during
    iteration.
    """
    if bound < 0:
        raise SchemaError(f"colength bound must be >= 0, got {bound}")
    if not model.exact and model.depth < bound + 1:
        raise SchemaError(
            f"model depth {model.depth} cannot certify colength {bound}; "
            f"need depth >= {bound + 1}"
        )
    root_ann = gfq.zero_space(model.field, model.dim) if start is None else start
    root = SubmoduleNode(root_ann, 0, (0,) * model.n_classes)
    found = 1
    if found > budget:
        raise ResourceBudgetError("submodule lattice too large", required=found, budget=budget)
    frontier = deque([root])  # the nodes still to expand, one level after another
    for level in range(1, bound + 1):
        seen: set[tuple[int, ...]] = set()
        for _ in range(len(frontier)):
            parent = frontier.popleft()
            p = model.preimage(parent.ann)
            parent.top = model.top(parent.ann, p)
            yield parent
            up = [tuple(c + (i == bi) for i, c in enumerate(parent.cls)) for bi in range(model.n_classes)]
            for child, bi in model.children(parent.ann, p, budget):
                if child.rows in seen:
                    continue
                seen.add(child.rows)
                found += 1
                if found > budget:
                    raise ResourceBudgetError("submodule lattice too large", required=found, budget=budget)
                if level < bound:
                    frontier.append(SubmoduleNode(child, level, up[bi]))
                else:
                    yield SubmoduleNode(child, level, up[bi])
    yield from frontier  # the root, when bound is 0; empty otherwise


def empirical_zeta(
    model: RingModel,
    bound: int,
    partial=None,
    joint: bool = False,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TruncatedSeries:
    """Sum of quotient-class monomials over enumerated submodules.

    ``partial`` restricts to X whose top class equals the given vector (tops
    classify the projectives in scope).  ``joint`` appends the top class as a
    second block of variables, at bound ``bound + (generic length of M)``.
    """
    n = model.n_classes
    q = model.field.q
    if partial is not None:
        partial = class_vector(partial, n)
    if joint:
        # the generic length dim M/JM; JM is spanned by the coordinates the radical moves to
        r = model.dim - len(_radical_coords(model, range(model.dim)))
        alphabet = doubled_alphabet(q, n)
        out_bound = bound + r
    else:
        alphabet = model.alphabet
        out_bound = bound
    coeffs: dict[Monomial, int] = {}
    for node in submodules(model, bound, budget=budget):
        if partial is not None or joint:  # leaf tops are read only by a joint or partial count
            top = node.top if node.top is not None else model.top(node.ann)
        if partial is not None and top != partial:
            continue
        key = node.cls + top if joint else node.cls
        coeffs[key] = coeffs.get(key, 0) + 1
    return TruncatedSeries(alphabet, out_bound, coeffs)


# -- Jordan types and Hall numbers (chain models) -------------------------------


def _as_partition(spec) -> tuple[int, ...]:
    parts = tuple(sorted((as_int(x, "partition part") for x in spec), reverse=True))
    if any(p < 1 for p in parts):
        raise SchemaError(f"partition parts must be >= 1, got {parts}")
    return parts


def _partition_from_ranks(ranks: list[int]) -> tuple[int, ...]:
    ranks = ranks + [0, 0]
    parts = []
    for j in range(1, len(ranks) - 1):
        mult = ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]
        if mult < 0:
            raise FormulaViolationError("rank sequence is not convex", actual=str(ranks))
        parts.extend([j] * mult)
    return tuple(sorted(parts, reverse=True))


def jordan_type(model: RingModel, upper: gfq.SubspaceRep, lower: gfq.SubspaceRep | None = None) -> tuple[int, ...]:
    """Partition of t-power ranks of upper/lower (lower defaults to 0), two submodules of M*.

    t acts on M* by the gather its moves are.  A finite F_q[t]-module and its
    dual have one Jordan type, X* = M*/X^perp and (A/X)* = X^perp/A^perp, so
    the type of X is ``jordan_type(model, model.full(), X^perp)`` and that of
    A/X is ``jordan_type(model, X^perp, A^perp)``.
    """
    if "t" not in model.gens:
        raise SchemaError(f"jordan_type needs a t action; model kind is {model.kind}")
    t = model.gathers["t"]
    base = lower if lower is not None else gfq.zero_space(model.field, model.dim)
    cur = upper.rows
    ranks = []
    while True:
        rank = base.extend(cur).dim - base.dim
        ranks.append(rank)
        if rank == 0:
            break
        cur = _mm(cur, t)
    return _partition_from_ranks(ranks)


def typed_submodules(model: RingModel, ambient: gfq.SubspaceRep, sub_type, quotient_type):
    """D^perp for each D <= A with D of type ``sub_type`` and A/D of type ``quotient_type``.

    ``ambient`` is A^perp; the D come in the order of :func:`submodules`.
    """
    b = _as_partition(quotient_type)
    c = _as_partition(sub_type)
    colen = sum(b)
    if sum(c) + colen + ambient.dim != model.dim:
        return  # lengths cannot match, so no D qualifies
    full = model.full()
    for node in submodules(model, colen, start=ambient):
        if (
            node.colength == colen
            and jordan_type(model, full, node.ann) == c
            and jordan_type(model, node.ann, ambient) == b
        ):
            yield node.ann


def hall_number(model: RingModel, ambient: gfq.SubspaceRep, quotient_type, sub_type) -> int:
    """Count D <= A with D of type ``sub_type`` and A/D of type ``quotient_type``; ``ambient`` is A^perp."""
    return sum(1 for _ in typed_submodules(model, ambient, sub_type, quotient_type))


def chain_type_count(model: RingModel, ambient: gfq.SubspaceRep, steps) -> int:
    """Chains D_0 <= D_1 <= ... <= A with prescribed (sub, quotient) types; ``ambient`` is A^perp.

    ``steps`` lists, outermost first, pairs (type of D_j, type of D_{j+1}/D_j);
    the count enumerates directly, for cross-checking the Hall-number product.
    """
    steps = list(steps)
    if not steps:
        return 1
    (sub_t, quo_t), rest = steps[0], steps[1:]
    return sum(chain_type_count(model, ann, rest) for ann in typed_submodules(model, ambient, sub_t, quo_t))


# -- fiber charts ---------------------------------------------------------------


class FiberContext:
    """Slice data for the chart X -> ((M meet I^-j X) + IM)/IM, read off Y = X^perp.

    Built once per model: the coordinates ``free`` that no move of the slice
    generator reaches (its image IM is spanned by the e_k it moves to, so
    the other coordinates are the slice M/IM), the induced slice model, and
    one compiled gather per level of the tower.  The slice's dual
    (M/IM)* = (IM)^perp is spanned by the coordinates ``free`` of M*, in
    order: its coordinate p is M*'s coordinate free[p], and it pairs with
    slice coordinate p.  Level j's gather acts by h^j, for h the gather of
    the generator's moves, and then moves those coordinates last, in order;
    the levels stop at the first power of h that is zero.
    """

    def __init__(self, model: RingModel):
        if model.slice_gen is None:
            raise SchemaError(f"model kind {model.kind} has no designated ideal generator")
        self.model = model
        f, n = model.field, model.dim
        h = model.gens[model.slice_gen]
        reached = set(h)
        self.free = [k for k in range(n) if k not in reached]
        pos = {c: j for j, c in enumerate(self.free)}
        self.slice_model = RingModel(
            kind=f"{model.kind}_slice",
            field=f,
            gens={name: tuple(pos.get(m[c], -1) for c in self.free) for name, m in model.gens.items()},
            classes=tuple(model.classes[c] for c in self.free),
            depth=model.depth,
            exact=model.exact,
        )
        src = tuple([k for k in range(n) if k in reached] + self.free)
        self._levels = [gfq.compile_gather(f, n, src)]
        while any(k >= 0 for k in src):
            src = _compose(h, src)
            self._levels.append(gfq.compile_gather(f, n, src))

    def chart(self, ann: gfq.SubspaceRep, max_level: int) -> ChainData:
        """Class-level chain data of the slice tower of X = ann^perp; must stabilize.

        v u^j lies in X exactly when v pairs to 0 with Y h^j, so
        (X : u^j)^perp = span(Y h^j), and the dual of level j of the tower is
        its wall W_j = span(Y h^j) meet (M/IM)*: the RREF rows of Y's rows
        under level j's gather that pivot among the last nf coordinates,
        already in the slice's dual coordinates.  The tower reaches the
        whole slice where W_j = 0.  The top of level j is the slice model's
        top of W_j, and the quotient of levels j + 1 and j is dual to
        W_j / W_(j+1), class by class.
        """
        f, n = self.model.field, self.model.dim
        cut = n - len(self.free)
        zero = gfq.zero_space(f, n)
        walls = []
        for j in range(max_level + 1):
            span = zero.extend(_mm(ann.rows, self._levels[j]))
            last = [(x, c - cut) for x, c in zip(span.rows, span.pivots) if c >= cut]
            walls.append(gfq.SubspaceRep(f, len(self.free), [x for x, _ in last], [c for _, c in last]))
            if not last:
                break
        else:
            raise SchemaError(
                f"slice tower did not stabilize within {max_level} levels; "
                "raise the model depth"
            )
        sm = self.slice_model
        tops = tuple(sm.top(w) for w in walls)
        quots = tuple(_class_dims(sm, walls[j], walls[j + 1]) for j in range(len(walls) - 1))
        return ChainData(tops, quots)


def fiber_partition(
    model: RingModel, bound: int, budget: int = DEFAULT_NODE_BUDGET
) -> dict[ChainData, list[SubmoduleNode]]:
    """All submodules of colength <= bound, grouped by their slice chart."""
    ctx = FiberContext(model)
    out: dict[ChainData, list[SubmoduleNode]] = {}
    for node in submodules(model, bound, budget=budget):
        chain = ctx.chart(node.ann, bound)
        out.setdefault(chain, []).append(node)
    return out


def fiber_sum(model: RingModel, nodes, bound: int) -> TruncatedSeries:
    """Sum of quotient-class monomials of the given nodes, over the z alphabet."""
    coeffs: dict[Monomial, int] = {}
    for node in nodes:
        coeffs[node.cls] = coeffs.get(node.cls, 0) + 1
    return TruncatedSeries(model.alphabet, bound, coeffs)
