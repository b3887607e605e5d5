"""Command-line entry point: JSON specs in, exact series and tables out.

Every number is emitted as an integer or a num/den string pair — never a
float — and output is byte-identical across runs of the same command line.
Exit codes: 0 success, 2 malformed input or unsound request, 3 an exact
identity failed (a ``verify`` suite, or an invariant of the lattice factor or
of the Jordan types; the message carries the offending coefficient), 4 an
enumeration or time budget was exceeded.

JSON output is byte for byte ``json.dumps(doc, sort_keys=True, indent=2)``
of its document, plus a newline.  Series and tables, and the three series of
``prolif --mode factored``, are written straight to those bytes: each term is
formatted once, and no document is built for the pure-Python indenting
encoder to walk.  A command line that names a subcommand is parsed by that
subcommand's parser alone.

Each handler imports the layers it runs, so a ``hey`` request never loads
the oracle, the field kernels or the verification suites.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
import warnings

from .errors import (
    BrzetaError,
    CompletenessWarning,
    FormulaViolationError,
    ResourceBudgetError,
    SchemaError,
    TruncationBoundError,
)
from .hey import SemisimpleData, hey_product, moebius_inverse_series
from .series import TruncatedSeries


def _load_payload(text: str):
    """Inline JSON, or @path to read it from a file."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {text[1:]!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal over the interpreter's digit limit
        raise SchemaError(
            f"a JSON integer may have at most {sys.get_int_max_str_digits()} digits"
        ) from exc


_ASCII_INT = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")


def _parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each an optional sign and ASCII digits;
    spaces around an item are dropped, and so is an empty item."""
    parts = [p for p in text.split(",") if p.strip(" \t")]
    try:
        if all(map(_ASCII_INT.fullmatch, parts)):
            return tuple(map(int, parts))
    except ValueError:  # more digits than the interpreter reads
        pass
    raise SchemaError(f"expected comma-separated integers, got {text!r}")


def _json_array(items: list[str], indent: str) -> str:
    """``items``, each already JSON, as the array ``json.dumps(..., indent=2)``
    writes at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _json_object(fields, indent: str) -> str:
    """``(key, JSON value)`` pairs, plain ASCII keys in sorted order, as the
    nonempty object ``json.dumps(..., sort_keys=True, indent=2)`` writes at ``indent``."""
    inner = "\n" + indent + "  "
    return "{" + inner + ("," + inner).join(f'"{k}": {v}' for k, v in fields) + "\n" + indent + "}"


def _series_json(series: TruncatedSeries, indent: str = "") -> str:
    """The series document as ``json.dumps(doc, sort_keys=True, indent=2)``
    writes it at ``indent``: its terms, each with its monomial, exponent vector
    and num/den pair, and ``display``, the series as ``str`` shows it, are
    written in one pass over the sorted terms."""
    encode = json.encoder.encode_basestring_ascii
    alphabet = series.alphabet
    term, field, exponent = indent + "    ", indent + "      ", indent + "        "
    sep = ",\n" + exponent
    terms, shown = [], []
    for exps, c in series.items():
        mono = alphabet.format_monomial(exps)
        num = str(c)
        shown.append(num if mono == "1" else mono if c == 1 else f"{num}*{mono}")
        vector = f"[\n{exponent}{sep.join(map(str, exps))}\n{field}]" if exps else "[]"
        terms.append(
            f'{{\n{field}"den": "1",\n{field}"exponents": {vector},\n'
            f'{field}"monomial": {encode(mono)},\n{field}"num": "{num}"\n{term}}}'
        )
    fields = (
        ("bound", str(series.bound)),
        ("display", encode(" + ".join(shown) if shown else "0")),
        ("terms", _json_array(terms, indent + "  ")),
        ("variables", _json_array([encode(e.label) for e in alphabet], indent + "  ")),
    )
    return _json_object(fields, indent)


def _series_csv(series: TruncatedSeries) -> str:
    lines = ["monomial,num,den"]
    for exps, c in series.items():
        mono = series.alphabet.format_monomial(exps)
        if any(ch in mono for ch in ',"\r\n'):  # an RFC 4180 quoted field, its quotes doubled
            mono = '"' + mono.replace('"', '""') + '"'
        lines.append(f"{mono},{c},1")
    return "\n".join(lines) + "\n"


def _table_json(table: dict[int, int]) -> str:
    """The table document ``{"coefficients": [{"a_n": "<a_n>", "n": n}, ...]}``
    as ``json.dumps(doc, sort_keys=True, indent=2)`` writes it."""
    rows = [f'{{\n      "a_n": "{table[n]}",\n      "n": {n}\n    }}' for n in sorted(table)]
    return _json_object((("coefficients", _json_array(rows, "  ")),), "")


def _table_csv(table: dict[int, int]) -> str:
    lines = ["n,a_n"]
    for n in sorted(table):
        lines.append(f"{n},{table[n]}")
    return "\n".join(lines) + "\n"


def _refuse_csv(fmt: str) -> None:
    """Refuse ``--format csv`` for a result that is a document, before computing it."""
    if fmt == "csv":
        raise SchemaError("csv output is only available for series and tables")


def _format(fmt: str, doc, series, table, named_series) -> str:
    if series is not None:
        return _series_csv(series) if fmt == "csv" else _series_json(series) + "\n"
    if table is not None:
        return _table_csv(table) if fmt == "csv" else _table_json(table) + "\n"
    if named_series is not None:  # a document of series, refused as csv before it is computed
        return _json_object([(k, _series_json(s, "  ")) for k, s in sorted(named_series.items())], "") + "\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(fmt: str, doc=None, series=None, table=None, named_series=None) -> int:
    """Write one result to stdout.  An exact count may have more digits than
    ``str(int)`` allows by default, so the limit is lifted only while the
    result is formatted; input parsing keeps it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        out = _format(fmt, doc, series, table, named_series)
    finally:
        sys.set_int_max_str_digits(limit)
    sys.stdout.write(out)
    return 0


def _require(value, flag: str):
    if value is None:
        raise SchemaError(f"{flag} is required for this subcommand")
    return value


# -- subcommand bodies -----------------------------------------------------------


def _run_hey(args: argparse.Namespace) -> int:
    data = SemisimpleData.from_json(_load_payload(_require(args.data, "--data")))
    bound = _require(args.truncate, "--truncate")
    fn = moebius_inverse_series if args.inverse else hey_product
    return _emit(args.fmt, series=fn(data, bound))


def _run_hereditary(args: argparse.Namespace) -> int:
    from . import hereditary as her

    lattice = her.hereditary_from_json(_load_payload(_require(args.data, "--data")))
    bound = _require(args.truncate, "--truncate")
    if args.partial is not None:
        series = her.partial_zeta(lattice, _parse_ints(args.partial), bound)
    elif args.joint:
        series = her.brz_two_variable(lattice, bound)
    elif args.factor:
        series = her.brs_F(lattice, bound)
    else:
        series = her.total_zeta(lattice, bound)
    return _emit(args.fmt, series=series)


def _run_lifted_hey(args: argparse.Namespace) -> int:
    from . import prolif as pr

    data = SemisimpleData.from_json(_load_payload(_require(args.data, "--data")))
    bound = _require(args.truncate, "--truncate")
    sigma = None
    if args.sigma is not None:
        sigma = pr.sigma_from_one_based(_parse_ints(args.sigma), len(data.ms))
    return _emit(args.fmt, series=pr.lifted_hey(data, sigma, bound))


def _run_prolif(args: argparse.Namespace) -> int:
    from . import prolif as pr

    base = pr.SliceBase.from_json(_load_payload(_require(args.data, "--data")))
    bound = _require(args.truncate, "--truncate")
    budget = args.budget if args.budget is not None else pr.DEFAULT_SEQUENCE_BUDGET
    if args.mode == "sliver":
        return _emit(args.fmt, series=pr.single_sliver(base, bound))
    if args.mode == "factored":
        _refuse_csv(args.fmt)
        prefactor, remainder = pr.brs_factored_prolif(base, bound, budget)
        parts = {"prefactor": prefactor, "remainder": remainder, "product": prefactor * remainder}
        return _emit(args.fmt, named_series=parts)
    return _emit(args.fmt, series=pr.proliferation_sum(base, bound, budget))


def _run_lustig(args: argparse.Namespace) -> int:
    from . import prolif as pr

    return _emit(args.fmt, table=dict(enumerate(pr.lustig_coeffs(args.q, args.n_max))))


def _run_rossmann(args: argparse.Namespace) -> int:
    from . import prolif as pr

    return _emit(args.fmt, table=pr.rossmann_coeffs(args.n_max))


def _run_hom_slice(args: argparse.Namespace) -> int:
    from . import prolif as pr

    if args.truncate is not None and args.truncate < pr.hom_slice_bound(args.q, args.r, args.n_max):
        warnings.warn(
            f"truncation {args.truncate} does not certify coefficients up to {args.n_max}; "
            "using the minimal sound bound instead",
            CompletenessWarning,
            stacklevel=2,
        )
    return _emit(args.fmt, table=pr.hom_slice_dirichlet(args.q, args.r, args.m, args.s_count, args.n_max))


def _run_oracle(args: argparse.Namespace) -> int:
    from . import oracle as orc

    model = orc.model_from_json(_load_payload(args.data))
    bound = args.truncate
    budget = args.budget if args.budget is not None else orc.DEFAULT_NODE_BUDGET
    if args.fiber:
        if args.joint or args.partial is not None:
            raise SchemaError("--fiber groups all submodules by chart; it takes neither --joint nor --partial")
        _refuse_csv(args.fmt)
        parts = orc.fiber_partition(model, bound, budget)
        rows = []
        for chain in sorted(parts, key=lambda c: (len(c.quotients), c.quotients, c.y_tops)):
            nodes = parts[chain]
            rows.append(
                {
                    "quotients": [list(v) for v in chain.quotients],
                    "tops": [list(v) for v in chain.y_tops],
                    "count": len(nodes),
                    "colengths": sorted(n.colength for n in nodes),
                }
            )
        return _emit(args.fmt, doc={"bound": bound, "fibers": rows})
    series = orc.empirical_zeta(
        model,
        bound,
        partial=_parse_ints(args.partial) if args.partial is not None else None,
        joint=args.joint,
        budget=budget,
    )
    return _emit(args.fmt, series=series)


def _run_verify(args: argparse.Namespace) -> int:
    from . import checks as chk

    suites = list(chk.ALL_CHECKS) if not args.suites or "all" in args.suites else args.suites
    unknown = [s for s in suites if s not in chk.ALL_CHECKS]
    if unknown:
        raise SchemaError(f"unknown suite(s) {unknown}; known: {sorted(chk.ALL_CHECKS)}")
    if args.n_max is not None and chk.SIZED_SUITES.isdisjoint(suites):
        raise SchemaError(f"--max sizes only the suites {sorted(chk.SIZED_SUITES)}; none is selected")
    started = time.monotonic()
    failed = []
    for name in suites:
        if args.time_budget is not None and time.monotonic() - started > args.time_budget:
            raise ResourceBudgetError(
                "verification time budget exhausted",
                required=f"> {args.time_budget:.1f}s",
                budget=f"{args.time_budget:.1f}s",
            )
        size = (args.n_max,) if args.n_max is not None and name in chk.SIZED_SUITES else ()
        try:
            result = chk.ALL_CHECKS[name](*size)
        except FormulaViolationError as exc:  # an invariant inside the suite failed
            where = str(exc) if exc.monomial is None else exc.monomial
            want, got = ("-" if v is None else v for v in (exc.expected, exc.actual))
            result = chk.CheckResult(name, 1, disagreement=(where, want, got))
        if result.cases == 0:
            raise SchemaError(f"suite {name} checked no cases at --max {args.n_max}")
        sys.stdout.write(result.line() + "\n")
        if not result.passed:
            failed.append(result)
    if failed:
        first = failed[0]
        where, want, got = first.disagreement
        raise FormulaViolationError(
            f"suite {first.name} failed", monomial=where, expected=want, actual=got
        )
    return 0


# -- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """The top-level parser.  A command line that starts with a subcommand's
    name is parsed by that subcommand's parser alone; argparse's own top-level
    parse would scan every argument before passing them all to it.  Any other
    command line (none, ``-h``, an unknown name) takes argparse's path.
    ``subcommands`` maps each subcommand's name to its parser."""

    subcommands: dict[str, argparse.ArgumentParser]

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        parser = self.subcommands.get(args[0]) if args else None
        if parser is None:
            return super().parse_args(args, namespace)
        parsed, extras = parser.parse_known_args(args[1:], namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        parsed.subcommand = args[0]
        return parsed


def build_parser() -> argparse.ArgumentParser:
    """The one description of a request: each subcommand's namespace carries
    its handler as ``run``, and the handler reads the parsed flags."""
    parser = _Parser(
        prog="brzeta",
        description="Exact truncated zeta series of modules over semilocal orders.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=argparse.ArgumentParser)
    parser.subcommands = sub.choices

    def add(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def add_common(p, data_help):
        p.add_argument("--data", help=data_help + " (inline JSON or @file)")
        p.add_argument("--truncate", dest="truncate", type=int, help="total-degree bound")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = add("hey", _run_hey, "closed product count of split-slice submodules")
    add_common(p, "semisimple class data")
    p.add_argument("--inverse", action="store_true", help="emit the reciprocal series")

    p = add("hereditary", _run_hereditary, "two-variable / total / partial lattice counts")
    add_common(p, "order and module: {q, n, columns}")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--partial", help="top class vector, e.g. 1,0")
    g.add_argument("--joint", action="store_true", help="keep the class markers")
    g.add_argument("--factor", action="store_true", help="emit the polynomial factor")

    p = add("lifted-hey", _run_lifted_hey, "layered product for split slices with a twist")
    add_common(p, "semisimple class data")
    p.add_argument("--sigma", help="permutation as 1-based images, e.g. 2,1")

    p = add("prolif", _run_prolif, "class-sequence sum over a slice base")
    add_common(p, "slice base: {base: {...}, sigma: [...]}")
    p.add_argument("--mode", choices=("sum", "sliver", "factored"), default="sum")
    p.add_argument("--budget", type=int, help="budget of coefficient products in the class-sequence sum")

    p = add("lustig", _run_lustig, "ideal counts of the basic two-generator local ring")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max", dest="n_max", type=int, required=True, help="largest colength")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = add("rossmann", _run_rossmann, "global ideal-count Dirichlet coefficients")
    p.add_argument("--max", dest="n_max", type=int, required=True, help="largest norm")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = add("hom-slice", _run_hom_slice, "Dirichlet coefficients of a one-class slice power")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s-count", dest="s_count", type=int, required=True)
    p.add_argument("--max", dest="n_max", type=int, required=True, help="largest norm")
    p.add_argument(
        "--truncate", dest="truncate", type=int,
        help="total-degree bound to check: warns if it cannot certify --max; the minimal sound bound is always used",
    )
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = add("oracle", _run_oracle, "brute-force submodule enumeration of a finite model")
    p.add_argument("--model", dest="data", required=True, help="model JSON (inline or @file)")
    p.add_argument("--colength", dest="truncate", type=int, required=True)
    p.add_argument("--partial", help="restrict to one top class, e.g. 1,1")
    p.add_argument("--joint", action="store_true", help="mark classes alongside colength")
    p.add_argument("--fiber", action="store_true", help="group submodules by slice chart")
    p.add_argument("--budget", type=int, help="node budget")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = add("verify", _run_verify, "run the dual-computation verification suites")
    p.add_argument("--suite", dest="suites", action="append", help="suite name (repeatable) or 'all'")
    p.add_argument("--max", dest="n_max", type=int, help="size knob for suites that take one")
    p.add_argument("--budget", dest="time_budget", type=float, help="time budget in seconds")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call uses, built on the first call.

    Sharing is safe: each ``parse_args`` builds a fresh namespace, copies the
    ``--suite`` list before appending, and tracks exclusive-group conflicts
    per parse; help width is read when help is formatted.
    """
    return build_parser()


def __getattr__(name: str):
    """``_HANDLERS``, each subcommand's handler, read off the shared parser:
    the benchmark's tests list the subcommands by it."""
    if name != "_HANDLERS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return {cmd: p.get_default("run") for cmd, p in _shared_parser().subcommands.items()}


def _check_ranges(args: argparse.Namespace) -> None:
    """Refuse a negative bound, size or budget, and a NaN time budget."""
    truncate = getattr(args, "truncate", None)
    if truncate is not None and truncate < 0:
        raise TruncationBoundError(f"bound must be >= 0, got {truncate}")
    for name, flag in (("n_max", "--max"), ("budget", "--budget"), ("time_budget", "--budget")):
        value = getattr(args, name, None)
        if value is not None and not value >= 0:  # also refuses a NaN time budget
            raise SchemaError(f"{flag} must be >= 0, got {value}")


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command line; each call is independent of the ones before it.

    A warning is shown as one ``warning: <message>`` stderr line, and a
    ``CompletenessWarning`` is shown on every call, not once per process.
    """
    args = _shared_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always", CompletenessWarning)
        warnings.showwarning = _warning_line
        try:
            _check_ranges(args)
            return args.run(args)
        except FormulaViolationError as exc:
            print(f"formula violation: {exc}", file=sys.stderr)
            return 3
        except ResourceBudgetError as exc:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return 4
        except BrzetaError as exc:  # schema, bound, alphabet and unit errors alike
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
