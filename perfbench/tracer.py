"""Outside-in span tracer for the brzeta layers, used only by the traced run.

``install`` wraps the public functions and methods of each layer module by
rebinding the module attribute, every ``from ... import`` alias of it in the
other brzeta modules, every module-level dict that holds it (the suite and
handler registries) and every class-level alias (``__rmul__ = __mul__``).
Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index
of the enclosing span or -1, ``request`` the index of the job that caused
it.  Spans stay in memory and are written out when the pass ends.  A span's
self time is its duration minus the durations of its direct children;
time under no span at all is reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

#: the package modules traced as layers (``gfq`` includes its ``_kernels``)
LAYERS = ("cli", "checks", "oracle", "gfq", "series", "hereditary", "prolif", "hey", "qcomb")

#: private names that mark a layer boundary worth a span of their own
EXTRA = {
    "cli": {"_emit", "_load_payload", "_config_from_args"},
    "prolif": {"_proliferation_dfs", "_sequence_budget_guard"},
    "series": {"TruncatedSeries.__mul__", "TruncatedSeries.__pow__", "TruncatedSeries.__add__",
               "TruncatedSeries.__sub__", "TruncatedSeries.__neg__"},
}

#: hot one-line helpers left unwrapped: a span would cost more than the call
SKIP = {
    "series": {"mono_mul", "mono_degree", "mono_divides", "mono_quotient", "Alphabet", "AlphabetEntry",
               "TruncatedSeries.coefficient", "TruncatedSeries.is_zero", "TruncatedSeries.items"},
    "gfq": {"FieldSpec", "SubspaceRep.contains_vector"},
    "checks": {"CheckResult"},
}

#: ``gfq.rref``/``gfq.mat_mul`` spans carry the field kind in their name
Q_KINDS = ("q2", "odd_prime", "prime_power")


def q_kind(q: int) -> str:
    if q == 2:
        return "q2"
    p = 2
    while p * p <= q and q % p:
        p += 1
    return "odd_prime" if p * p > q else "prime_power"


def _shape(mat) -> tuple[int, int]:
    shape = mat.shape if isinstance(mat, np.ndarray) else np.shape(mat)
    if len(shape) == 1:
        return 1, shape[0]
    return shape[0], shape[1]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self.raised: Counter = Counter()
        self.work: Counter = Counter()  # computed work: cells, mults, term pairs ...
        self.shapes: Counter = Counter()  # (op, shape..., q) -> calls

    def wrap(self, name, fn, probe=None, namer=None):
        """``fn`` recording one span per call; ``namer(args)`` may refine the name."""
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(args) if namer is not None else name
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[label] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, stack[-1] if stack else -1, tracer.request)
            if probe is not None:
                probe(args, result)
            return result

        return traced

    # -- probes that compute work from arguments -------------------------------------

    def _rref_probe(self, args, result):
        rows, cols = _shape(args[1])
        q = args[0].q
        self.work["gfq.rref.cells"] += rows * cols
        self.shapes[("rref", rows, cols, q)] += 1

    def _mat_mul_probe(self, args, result):
        n, k = _shape(args[1])
        m = _shape(args[2])[1]
        q = args[0].q
        self.work["gfq.mat_mul.mults"] += n * k * m
        self.shapes[("mat_mul", n, k, m, q)] += 1

    def _count_len(self, key):
        def probe(args, result):
            self.work[key] += len(result)
        return probe

    def _mul_probe(self, args, result):
        a, b = args
        if hasattr(b, "coeffs"):
            self.work["series.mul.term_pairs"] += len(a.coeffs) * len(b.coeffs)

    def _substitute_probe(self, args, result):
        self.work["series.substitute.terms_in"] += len(args[0].coeffs)

    def _build_parser_probe(self, args, parser):
        parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)

    def _special(self, name):
        """(probe, namer) for the spans whose metrics need their arguments."""
        if name == "gfq.rref":
            return self._rref_probe, lambda args: f"gfq.rref[{q_kind(args[0].q)}]"
        if name == "gfq.mat_mul":
            return self._mat_mul_probe, lambda args: f"gfq.mat_mul[{q_kind(args[0].q)}]"
        probes = {
            "gfq.enumerate_subspaces": self._count_len("gfq.enumerate_subspaces.yielded"),
            "oracle.submodule_bfs": self._count_len("oracle.bfs.nodes"),
            "oracle.maximal_submodules": self._count_len("oracle.bfs.children"),
            "series.TruncatedSeries.__mul__": self._mul_probe,
            "series.TruncatedSeries.substitute": self._substitute_probe,
            "cli.build_parser": self._build_parser_probe,
        }
        return probes.get(name), None


def _wanted(layer: str, qualname: str) -> bool:
    if qualname in EXTRA.get(layer, ()):
        return True
    skip = SKIP.get(layer, ())
    if qualname in skip or qualname.split(".")[0] in skip:
        return False
    return not any(part.startswith("_") for part in qualname.split("."))


def install(tracer: Tracer) -> int:
    """Wrap every layer's public callables; returns how many were wrapped."""
    import brzeta.cli  # noqa: F401  (imports every layer)

    modules = {name: mod for name, mod in sys.modules.items() if name == "brzeta" or name.startswith("brzeta.")}
    wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, replacement)

    def make(name, fn):
        probe, namer = tracer._special(name)
        return tracer.wrap(name, fn, probe, namer)

    for layer in LAYERS:
        mod = modules[f"brzeta.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                if _wanted(layer, attr) and not inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = (obj, make(f"{layer}.{attr}", obj))
            elif isinstance(obj, type):
                for mname, mobj in list(vars(obj).items()):
                    if not _wanted(layer, f"{attr}.{mname}"):
                        continue
                    name = f"{layer}.{attr}.{mname}"
                    if isinstance(mobj, types.FunctionType):
                        wrapped[id(mobj)] = (mobj, make(name, mobj))
                    elif isinstance(mobj, (classmethod, staticmethod)):
                        inner = make(name, mobj.__func__)
                        wrapped[id(mobj)] = (mobj, type(mobj)(inner))
                # class-level aliases share the wrapper of the name they alias
                for mname, mobj in list(vars(obj).items()):
                    hit = wrapped.get(id(mobj))
                    if hit is not None and hit[0] is mobj:
                        setattr(obj, mname, hit[1])

    def swap(value):
        hit = wrapped.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            new = swap(obj)
            if new is not obj:
                setattr(mod, attr, new)
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    obj[k] = swap(v)
    return len(wrapped)


# -- analysis --------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def write_spans(spans, path, origin: float) -> None:
    """Spans as gzip TSV (name, start, end, parent, request), times from ``origin``."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
        fh.write("name\tstart_s\tend_s\tparent\trequest\n")
        for name, start, end, parent, req in spans:
            fh.write(f"{name}\t{start - origin:.7f}\t{end - origin:.7f}\t{parent}\t{req}\n")


def layer_metrics(tracer: Tracer, traced_pass_s: float, suites: dict[str, str]) -> dict[str, float]:
    """Per-layer metric values (no units) from a finished traced pass.

    ``suites`` maps each verify suite name to the span name of its check.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    incl_s: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    for (name, start, end, _, _), st in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += st
        incl_s[name] += end - start
        layer_self[name.split(".", 1)[0]] += st

    def by_parent(child_name, parent_name):
        return sum(1 for name, _, _, parent, _ in spans
                   if name == child_name and parent >= 0 and spans[parent][0] == parent_name)

    m: dict[str, float] = {}
    for op in ("rref", "mat_mul"):
        names = {k: f"gfq.{op}[{k}]" for k in Q_KINDS}
        m[f"gfq.{op}.calls"] = sum(calls[n] for n in names.values())
        for kind, n in names.items():
            m[f"gfq.{op}.self_s.{kind}"] = self_s[n]
    m["gfq.rref.cells"] = tracer.work["gfq.rref.cells"]
    m["gfq.mat_mul.mults"] = tracer.work["gfq.mat_mul.mults"]
    m["gfq.reduce.calls"] = calls["gfq.SubspaceRep.reduce"]
    m["gfq.reduce.self_s"] = self_s["gfq.SubspaceRep.reduce"]
    m["gfq.from_rows.calls"] = calls["gfq.SubspaceRep.from_rows"]
    m["gfq.enumerate_subspaces.yielded"] = tracer.work["gfq.enumerate_subspaces.yielded"]
    m["gfq.enumerate_chains.calls"] = calls["gfq.enumerate_chains"]
    m["gfq.enumerate_chains.self_s"] = self_s["gfq.enumerate_chains"]

    bfs = "oracle.submodule_bfs"
    nodes, children = tracer.work["oracle.bfs.nodes"], tracer.work["oracle.bfs.children"]
    m["oracle.bfs.calls"] = calls[bfs]
    m["oracle.bfs.nodes"] = nodes
    m["oracle.bfs.children"] = children
    m["oracle.bfs.nodes_per_s"] = nodes / incl_s[bfs] if incl_s[bfs] else 0.0
    m["oracle.bfs.self_s"] = self_s[bfs]
    # every BFS returns its root, which no maximal-submodule step generated
    m["oracle.bfs.dedup_ratio"] = (nodes - calls[bfs]) / children if children else 0.0
    for fn in ("maximal_submodules", "top_class"):
        m[f"oracle.{fn}.calls"] = calls[f"oracle.{fn}"]
        m[f"oracle.{fn}.self_s"] = self_s[f"oracle.{fn}"]
    m["oracle.radical_subspace.calls"] = calls["oracle.radical_subspace"]

    ts = "series.TruncatedSeries."
    m["series.mul.calls"] = calls[ts + "__mul__"]
    m["series.mul.self_s"] = self_s[ts + "__mul__"]
    m["series.mul.term_pairs"] = tracer.work["series.mul.term_pairs"]
    m["series.invert.calls"] = calls[ts + "invert"]
    m["series.invert.self_s"] = self_s[ts + "invert"]
    m["series.pow.calls"] = calls[ts + "__pow__"]
    m["series.substitute.calls"] = calls[ts + "substitute"]
    m["series.substitute.self_s"] = self_s[ts + "substitute"]
    m["series.substitute.terms_in"] = tracer.work["series.substitute.terms_in"]
    m["series.geometric.calls"] = calls[ts + "geometric"]

    cdc = "hereditary.chain_degree_counts"
    m["hereditary.brz_two_variable.calls"] = calls["hereditary.brz_two_variable"]
    m["hereditary.brz_two_variable.self_s"] = self_s["hereditary.brz_two_variable"]
    m["hereditary.brs_F.self_s"] = self_s["hereditary.brs_F"]
    m["hereditary.chain_degree_counts.calls"] = calls[cdc]
    misses = by_parent("gfq.enumerate_chains", cdc)
    m["hereditary.chain_degree_counts.hit_ratio"] = (calls[cdc] - misses) / calls[cdc] if calls[cdc] else 0.0
    m["hereditary.chain_degree_counts.self_s"] = self_s[cdc]

    dfs = "prolif._proliferation_dfs"
    m["prolif.dfs.calls"] = calls[dfs]
    m["prolif.dfs.self_s"] = self_s[dfs]
    m["prolif.dfs.edges"] = by_parent("prolif.change_of_variable", dfs)
    m["prolif.pair_zeta.calls"] = calls["prolif.SliceBase.pair_zeta"]
    m["prolif.pair_zeta.self_s"] = self_s["prolif.SliceBase.pair_zeta"]
    m["prolif.budget_refusals"] = tracer.raised["prolif._sequence_budget_guard"]

    m["hey.hey_product.calls"] = calls["hey.hey_product"]
    m["hey.hey_product.self_s"] = self_s["hey.hey_product"]
    m["qcomb.gaussian_binomial.calls"] = calls["qcomb.gaussian_binomial"]

    for suite, span_name in suites.items():
        m[f"checks.{suite}.s"] = incl_s[span_name]

    m["cli.parse_s"] = sum(incl_s[n] for n in ("cli.build_parser", "cli.parse_args",
                                                "cli._config_from_args", "cli._load_payload"))
    m["cli.emit_s"] = incl_s["cli._emit"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.unattributed_s"] = traced_pass_s - sum(selfs)
    m["trace.spans"] = len(spans)
    return m


def shape_census(tracer: Tracer, top: int | None = None) -> list[dict]:
    """rref/mat_mul call counts by shape and field size, most frequent first."""
    rows = []
    for key, count in tracer.shapes.most_common(top):
        op, *dims, q = key
        rows.append({"op": op, "shape": "x".join(map(str, dims)), "q": q, "calls": count})
    return rows
