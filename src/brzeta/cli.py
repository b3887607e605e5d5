"""Command-line entry point: JSON specs in, exact series and tables out.

Every number is emitted as an integer or a num/den string pair — never a
float — and output is byte-identical across runs of the same config.
Exit codes: 0 success, 2 malformed input or unsound request, 3 an exact
identity failed (the message carries the offending coefficient), 4 an
enumeration or time budget was exceeded.

Each handler imports the layers it runs, so a ``hey`` request never loads
the oracle, the field kernels or the verification suites.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from dataclasses import dataclass, field

from .errors import (
    AlphabetMismatchError,
    BrzetaError,
    CompletenessWarning,
    FormulaViolationError,
    NonUnitError,
    ResourceBudgetError,
    SchemaError,
    TruncationBoundError,
)
from .hey import SemisimpleData, hey_product, moebius_inverse_series
from .series import TruncatedSeries


@dataclass
class RunConfig:
    subcommand: str
    data: str | None = None
    truncate: int | None = None
    n_max: int | None = None
    fmt: str = "json"
    budget: int | None = None  # work budget (oracle nodes / class-sequence coefficient products)
    time_budget: float | None = None  # verification budget in seconds
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.truncate is not None and self.truncate < 0:
            raise TruncationBoundError(f"bound must be >= 0, got {self.truncate}")
        for name, flag in (("n_max", "--max"), ("budget", "--budget"), ("time_budget", "--budget")):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # also refuses a NaN time budget
                raise SchemaError(f"{flag} must be >= 0, got {value}")
        if self.fmt not in ("json", "csv"):
            raise SchemaError(f"output format must be json or csv, got {self.fmt!r}")


def _load_payload(text: str):
    """Inline JSON, or @path to read it from a file."""
    if text is None:
        raise SchemaError("missing JSON input")
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


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise SchemaError(f"expected comma-separated integers, got {text!r}") from exc


def _series_doc(series: TruncatedSeries) -> dict:
    terms = []
    for exps, c in series.items():
        terms.append(
            {
                "monomial": series.alphabet.format_monomial(exps),
                "exponents": list(exps),
                "num": str(c.numerator),
                "den": str(c.denominator),
            }
        )
    return {
        "bound": series.bound,
        "variables": [e.label for e in series.alphabet.entries],
        "terms": terms,
        "display": str(series),
    }


def _series_csv(series: TruncatedSeries) -> str:
    lines = ["monomial,num,den"]
    for exps, c in series.items():
        mono = series.alphabet.format_monomial(exps)
        lines.append(f"{mono},{c.numerator},{c.denominator}")
    return "\n".join(lines) + "\n"


def _table_doc(table: dict[int, int], key="n") -> dict:
    return {"coefficients": [{key: n, "a_n": str(table[n])} for n in sorted(table)]}


def _table_csv(table: dict[int, int]) -> str:
    lines = ["n,a_n"]
    for n in sorted(table):
        lines.append(f"{n},{table[n]}")
    return "\n".join(lines) + "\n"


def _format(config: RunConfig, doc, series, table) -> str:
    if series is not None:
        return _series_csv(series) if config.fmt == "csv" else json.dumps(_series_doc(series), sort_keys=True, indent=2) + "\n"
    if table is not None:
        return _table_csv(table) if config.fmt == "csv" else json.dumps(_table_doc(table), sort_keys=True, indent=2) + "\n"
    if config.fmt == "csv":
        raise SchemaError("csv output is only available for series and tables")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(config: RunConfig, doc=None, series=None, table=None) -> int:
    """Write one result to stdout.  An exact count may have more digits than
    ``str(int)`` allows by default, so the limit is lifted only while the
    result is formatted; input parsing keeps it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        out = _format(config, doc, series, table)
    finally:
        sys.set_int_max_str_digits(limit)
    sys.stdout.write(out)
    return 0


def _require(value, flag: str):
    if value is None:
        raise SchemaError(f"{flag} is required for this subcommand")
    return value


# -- subcommand bodies -----------------------------------------------------------


def _run_hey(config: RunConfig) -> int:
    data = SemisimpleData.from_json(_load_payload(_require(config.data, "--data")))
    bound = _require(config.truncate, "--truncate")
    fn = moebius_inverse_series if config.options.get("inverse") else hey_product
    return _emit(config, series=fn(data, bound))


def _run_hereditary(config: RunConfig) -> int:
    from . import hereditary as her

    order, module = her.hereditary_from_json(_load_payload(_require(config.data, "--data")))
    bound = _require(config.truncate, "--truncate")
    partial = config.options.get("partial")
    if partial is not None:
        series = her.partial_zeta(order, module, _parse_ints(partial), bound)
    elif config.options.get("joint"):
        series = her.brz_two_variable(order, module, bound)
    elif config.options.get("factor"):
        series = her.brs_F(order, module, bound)
    else:
        series = her.total_zeta(order, module, bound)
    return _emit(config, series=series)


def _run_lifted_hey(config: RunConfig) -> int:
    from . import prolif as pr

    data = SemisimpleData.from_json(_load_payload(_require(config.data, "--data")))
    bound = _require(config.truncate, "--truncate")
    sigma_text = config.options.get("sigma")
    sigma = None
    if sigma_text is not None:
        sigma = pr.sigma_from_one_based(_parse_ints(sigma_text), len(data.entries))
    return _emit(config, series=pr.lifted_hey(data, sigma, bound))


def _run_prolif(config: RunConfig) -> int:
    from . import prolif as pr

    base = pr.SliceBase.from_json(_load_payload(_require(config.data, "--data")))
    bound = _require(config.truncate, "--truncate")
    budget = config.budget if config.budget is not None else pr.DEFAULT_SEQUENCE_BUDGET
    mode = config.options.get("mode", "sum")
    if mode == "sliver":
        return _emit(config, series=pr.single_sliver(base, bound))
    if mode == "factored":
        prefactor, remainder = pr.brs_factored_prolif(base, bound, budget)
        doc = {
            "prefactor": _series_doc(prefactor),
            "remainder": _series_doc(remainder),
            "product": _series_doc(prefactor * remainder),
        }
        return _emit(config, doc=doc)
    return _emit(config, series=pr.proliferation_sum(base, bound, budget))


def _run_lustig(config: RunConfig) -> int:
    from . import prolif as pr

    q = int(config.options["q"])
    i_max = _require(config.n_max, "--max")
    coeffs = pr.lustig_coeffs(q, i_max)
    return _emit(config, table=dict(enumerate(coeffs)))


def _run_rossmann(config: RunConfig) -> int:
    from . import prolif as pr

    n_max = _require(config.n_max, "--max")
    return _emit(config, table=pr.rossmann_coeffs(n_max))


def _run_hom_slice(config: RunConfig) -> int:
    from . import prolif as pr

    opts = config.options
    q, r, m, s_count = int(opts["q"]), int(opts["r"]), int(opts["m"]), int(opts["s_count"])
    n_max = _require(config.n_max, "--max")
    if config.truncate is not None and config.truncate < pr.hom_slice_bound(q, r, n_max):
        warnings.warn(
            f"truncation {config.truncate} does not certify coefficients up to {n_max}; "
            "using the minimal sound bound instead",
            CompletenessWarning,
            stacklevel=2,
        )
    return _emit(config, table=pr.hom_slice_dirichlet(q, r, m, s_count, n_max))


def _run_oracle(config: RunConfig) -> int:
    from . import oracle as orc

    model = orc.model_from_json(_load_payload(_require(config.data, "--data")))
    bound = _require(config.truncate, "--colength")
    budget = config.budget if config.budget is not None else orc.DEFAULT_NODE_BUDGET
    if config.options.get("fiber"):
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
        return _emit(config, doc={"bound": bound, "fibers": rows})
    partial = config.options.get("partial")
    series = orc.empirical_zeta(
        model,
        bound,
        partial=_parse_ints(partial) if partial is not None else None,
        joint=bool(config.options.get("joint")),
        budget=budget,
    )
    return _emit(config, series=series)


_SUITE_SIZE_KNOB = {
    "rossmann": "n_max",
    "lustig": "i_formulas",
    "moebius": "trials",
    "dvr-consistency": "bound",
    "voll": "bound",
    "fiber": "bound",
    "hey-oracle": "bound",
}


def _run_verify(config: RunConfig) -> int:
    from . import checks as chk

    suites = config.options.get("suites") or list(chk.ALL_CHECKS)
    if "all" in suites:
        suites = list(chk.ALL_CHECKS)
    unknown = [s for s in suites if s not in chk.ALL_CHECKS]
    if unknown:
        raise SchemaError(f"unknown suite(s) {unknown}; known: {sorted(chk.ALL_CHECKS)}")
    started = time.monotonic()
    failed = []
    for name in suites:
        if config.time_budget is not None and time.monotonic() - started > config.time_budget:
            raise ResourceBudgetError(
                "verification time budget exhausted",
                required=f"> {config.time_budget:.1f}s",
                budget=f"{config.time_budget:.1f}s",
            )
        kwargs = {}
        if config.n_max is not None and name in _SUITE_SIZE_KNOB:
            kwargs[_SUITE_SIZE_KNOB[name]] = config.n_max
        try:
            result = chk.ALL_CHECKS[name](**kwargs)
        except FormulaViolationError as exc:  # an engine's own identity failed
            where = str(exc) if exc.monomial is None else exc.monomial
            want, got = ("-" if v is None else v for v in (exc.expected, exc.actual))
            result = chk.CheckResult(name, False, 1, disagreement=(where, want, got))
        if result.cases == 0:
            raise SchemaError(f"suite {name} checked no cases at --max {config.n_max}")
        sys.stdout.write(result.line() + "\n")
        if not result.passed:
            failed.append(result)
    if failed:
        first = failed[0]
        where, want, got = first.disagreement or ("?", "?", "?")
        raise FormulaViolationError(
            f"suite {first.name} failed", monomial=where, expected=want, actual=got
        )
    return 0


_HANDLERS = {
    "hey": _run_hey,
    "hereditary": _run_hereditary,
    "lifted-hey": _run_lifted_hey,
    "prolif": _run_prolif,
    "lustig": _run_lustig,
    "rossmann": _run_rossmann,
    "hom-slice": _run_hom_slice,
    "oracle": _run_oracle,
    "verify": _run_verify,
}


def run(config: RunConfig) -> int:
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        raise SchemaError(f"unknown subcommand {config.subcommand!r}")
    return handler(config)


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brzeta",
        description="Exact truncated zeta series of modules over semilocal orders.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, data_help=None, truncate_flag="--truncate"):
        if data_help:
            p.add_argument("--data", help=data_help + " (inline JSON or @file)")
        if truncate_flag:
            p.add_argument(truncate_flag, dest="truncate", type=int, help="total-degree bound")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = sub.add_parser("hey", help="closed product count of split-slice submodules")
    add_common(p, "semisimple class data")
    p.add_argument("--inverse", action="store_true", help="emit the reciprocal series")

    p = sub.add_parser("hereditary", help="two-variable / total / partial lattice counts")
    add_common(p, "order and module: {q, n, columns}")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--partial", help="top class vector, e.g. 1,0")
    g.add_argument("--joint", action="store_true", help="keep the class markers")
    g.add_argument("--factor", action="store_true", help="emit the polynomial factor")

    p = sub.add_parser("lifted-hey", help="layered product for split slices with a twist")
    add_common(p, "semisimple class data")
    p.add_argument("--sigma", help="permutation as 1-based images, e.g. 2,1")

    p = sub.add_parser("prolif", help="class-sequence sum over a slice base")
    add_common(p, "slice base: {base: {...}, sigma: [...]}")
    p.add_argument("--mode", choices=("sum", "sliver", "factored"), default="sum")
    p.add_argument("--budget", type=int, help="budget of coefficient products in the class-sequence sum")

    p = sub.add_parser("lustig", help="ideal counts of the basic two-generator local ring")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max", dest="n_max", type=int, required=True, help="largest colength")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = sub.add_parser("rossmann", help="global ideal-count Dirichlet coefficients")
    p.add_argument("--max", dest="n_max", type=int, required=True, help="largest norm")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = sub.add_parser("hom-slice", help="Dirichlet coefficients of a one-class slice power")
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

    p = sub.add_parser("oracle", help="brute-force submodule enumeration of a finite model")
    p.add_argument("--model", dest="data", required=True, help="model JSON (inline or @file)")
    p.add_argument("--colength", dest="truncate", type=int, required=True)
    p.add_argument("--partial", help="restrict to one top class, e.g. 1,1")
    p.add_argument("--joint", action="store_true", help="mark classes alongside colength")
    p.add_argument("--fiber", action="store_true", help="group submodules by slice chart")
    p.add_argument("--budget", type=int, help="node budget")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify", help="run the dual-computation verification suites")
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    known = {"subcommand", "data", "truncate", "n_max", "fmt", "budget", "time_budget"}
    options = {k: v for k, v in vars(args).items() if k not in known and v is not None}
    return RunConfig(
        subcommand=args.subcommand,
        data=getattr(args, "data", None),
        truncate=getattr(args, "truncate", None),
        n_max=getattr(args, "n_max", None),
        fmt=getattr(args, "fmt", "json"),
        budget=getattr(args, "budget", None),
        time_budget=getattr(args, "time_budget", None),
        options=options,
    )


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
            return run(_config_from_args(args))
        except (SchemaError, TruncationBoundError, AlphabetMismatchError, NonUnitError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except FormulaViolationError as exc:
            print(f"formula violation: {exc}", file=sys.stderr)
            return 3
        except ResourceBudgetError as exc:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return 4
        except BrzetaError as exc:  # any future subtype defaults to schema-class exit
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
