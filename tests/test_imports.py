"""Every module-level import in the package is used by the module that makes it,
every module-level definition and every method of a module-level class is read
somewhere in the package, no module imports ``fractions``: every count, the
series ring's coefficients included, is an integer, and only four named
functions raise a formula violation."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "brzeta"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")

#: the packed-row format's conversions to and from element lists, which the tests
#: use, the zero test of the public series API, and the ``cli._HANDLERS`` view of
#: the parser's subcommands, which the benchmark's tests read
DEAD_ALLOWED = {"gfq.pack", "gfq.unpack", "series.TruncatedSeries.is_zero", "cli.__getattr__"}


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def imported_modules(source: str) -> set[str]:
    """Top-level package of every module an import statement anywhere in ``source`` names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def _names_read(node) -> set[str]:
    """Every name that ``node`` loads, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function or class whose name no other
    top-level statement of any module reads as a Name or an Attribute, then
    ``module.Class.name`` of each non-dunder method of a top-level class whose
    name nothing outside the method's own body reads."""
    statements = [(module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body]
    reads = [(stmt, _names_read(stmt)) for _, stmt in statements]
    out = [
        f"{module}.{stmt.name}"
        for module, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(stmt.name in names for other, names in reads if other is not stmt)
    ]
    for module, cls in statements:
        if not isinstance(cls, ast.ClassDef):
            continue
        outside = [names for other, names in reads if other is not cls]
        members = [(member, _names_read(member)) for member in cls.body]
        for method, _ in members:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) or method.name.startswith("__"):
                continue
            inside = [names for other, names in members if other is not method]
            if not any(method.name in names for names in outside + inside):
                out.append(f"{module}.{cls.name}.{method.name}")
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_scanner_sees_unused_names():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nprint(d)\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_series_imports_fractions(module):
    # series included: its ring is over the integers
    assert "fractions" not in imported_modules((SRC / module).read_text())


def test_import_scanner_sees_nested_imports():
    source = "import os.path\nfrom . import series\n\n\ndef f():\n    from fractions import Fraction\n"
    assert imported_modules(source) == {"os", "fractions"}
    assert imported_modules("from .fractions import x\n") == set()


def test_every_definition_is_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(set(unread_definitions(sources)) - DEAD_ALLOWED) == []


def test_definition_scanner_skips_own_body_and_docstrings():
    sources = {
        "a": 'def f():\n    return f()\n\n\ndef g():\n    """Calls h."""\n\n\nclass C:\n    pass\n',
        "b": "from .a import C\n\n\ndef h(x):\n    return x.g\n",
    }
    assert unread_definitions(sources) == ["a.f", "a.C", "b.h"]


def test_definition_scanner_sees_unread_methods():
    source = (
        "class C:\n"
        "    def __init__(self):\n        self.a()\n\n"
        "    def a(self):\n        return self.b\n\n"
        "    def b(self):\n        return 1\n\n"
        "    def c(self):\n        return self.c()\n\n\n"
        "C()\n"
    )
    assert unread_definitions({"m": source}) == ["m.C.c"]


#: every function that raises a formula violation: ``verify``'s report of a
#: failed suite, the ``hall`` suite's witness search, and the two invariants no
#: second computation checks (u-divisibility of the stratum sum, convexity of a
#: rank sequence); every other engine computes one way, checked by a suite
FORMULA_VIOLATION_RAISERS = {
    "checks._witness",
    "cli._run_verify",
    "hereditary.polynomial_factor",
    "oracle._partition_from_ranks",
}


def formula_violation_raisers(sources: dict[str, str]) -> set[str]:
    """``module.function`` of each function whose body raises ``FormulaViolationError``."""
    return {
        f"{module}.{fn.name}"
        for module, source in sources.items()
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and node.exc is not None
        and "FormulaViolationError" in _names_read(node.exc)
    }


def test_only_the_named_functions_raise_formula_violations():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert formula_violation_raisers(sources) == FORMULA_VIOLATION_RAISERS


def test_raiser_scanner_sees_calls_and_attributes():
    source = (
        "def f():\n    raise FormulaViolationError('x')\n\n\n"
        "def g():\n    raise errors.FormulaViolationError\n\n\n"
        "def h():\n    raise SchemaError('FormulaViolationError')\n"
    )
    assert formula_violation_raisers({"m": source}) == {"m.f", "m.g"}
