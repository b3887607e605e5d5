"""End-to-end command-line behavior: exact output, exit codes, determinism."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brzeta.checks as chk
import brzeta.cli as cli
import brzeta.hereditary as her
import brzeta.prolif as pr
import cli_reference as ref
from brzeta.errors import (
    AlphabetMismatchError,
    BrzetaError,
    FormulaViolationError,
    NonUnitError,
    SchemaError,
    TruncationBoundError,
)
from brzeta.hey import SemisimpleData, hey_product, moebius_inverse_series
from brzeta.series import Alphabet, AlphabetEntry, TruncatedSeries

DVR = '{"kind": "dvr", "q": 2, "m": 1}'
HER = '{"q": 2, "n": 2, "columns": [1, 2]}'


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTables:
    def test_ideal_count_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["lustig", "--q", "2", "--max", "3", "--format", "csv"])
        assert code == 0
        assert out == "n,a_n\n0,1\n1,1\n2,3\n3,7\n"

    def test_ideal_count_json(self, capsys):
        code, out, _ = run_cli(capsys, ["lustig", "--q", "3", "--max", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "coefficients": [
                {"n": 0, "a_n": "1"},
                {"n": 1, "a_n": "1"},
                {"n": 2, "a_n": "4"},
            ]
        }

    def test_global_counts(self, capsys):
        code, out, _ = run_cli(capsys, ["rossmann", "--max", "4", "--format", "csv"])
        assert code == 0
        assert out == "n,a_n\n1,1\n2,1\n3,1\n4,3\n"

    def test_hom_slice_counts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["hom-slice", "--q", "2", "--r", "1", "--m", "2", "--s-count", "1",
             "--max", "4", "--format", "csv"],
        )
        assert code == 0
        assert out == "n,a_n\n1,1\n2,3\n4,19\n"

    @pytest.mark.parametrize("truncate,warns", [("1", True), ("2", False), ("1000000000", False)])
    def test_hom_slice_truncation_against_the_sound_bound(self, capsys, truncate, warns):
        # q=2, r=1: --max 4 needs bound 2, since 2^3 > 4 >= 2^2
        argv = ["hom-slice", "--q", "2", "--r", "1", "--m", "1", "--s-count", "1",
                "--max", "4", "--truncate", truncate, "--format", "csv"]
        started = time.monotonic()
        code, out, err = run_cli(capsys, argv)
        assert time.monotonic() - started < 1.0
        assert (code, out) == (0, "n,a_n\n1,1\n2,1\n4,3\n")
        assert err.startswith(f"warning: truncation {truncate} does not certify") == warns
        assert (err == "") != warns

    def test_hom_slice_unsound_truncation_warns(self, capsys):
        argv = ["hom-slice", "--q", "2", "--r", "1", "--m", "1", "--s-count", "1",
                "--max", "64", "--truncate", "1", "--format", "csv"]
        # the warning is one stderr line on every call, not once per process
        for _ in range(2):
            code, out, err = run_cli(capsys, argv)
            assert code == 0
            assert out.splitlines()[-1] == "64,115"
            assert err == (
                "warning: truncation 1 does not certify coefficients up to 64; "
                "using the minimal sound bound instead\n"
            )

    def test_library_completeness_warning_is_one_line(self, capsys, monkeypatch):
        def short_table(q, r, m, s_count, n_max):
            al = Alphabet((AlphabetEntry("z", q, r),))
            return TruncatedSeries.one(al, 0).dirichlet_coeffs(n_max)

        monkeypatch.setattr(pr, "hom_slice_dirichlet", short_table)
        argv = ["hom-slice", "--q", "2", "--r", "1", "--m", "1", "--s-count", "1", "--max", "4"]
        for _ in range(2):
            code, out, err = run_cli(capsys, argv)
            assert code == 0 and json.loads(out) == {"coefficients": [{"n": 1, "a_n": "1"}]}
            assert err.startswith("warning: norms up to 4 ") and len(err.splitlines()) == 1


class TestSeriesOutput:
    def test_split_product_display(self, capsys):
        code, out, _ = run_cli(capsys, ["hey", "--data", '[{"q": 2, "m": 1}]', "--truncate", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["display"] == "1 + z + z^2"
        assert doc["bound"] == 2 and doc["variables"] == ["z"]
        assert doc["terms"][1] == {"monomial": "z", "exponents": [1], "num": "1", "den": "1"}

    def test_huge_coefficient(self, capsys):
        # the z coefficient 2^15000 - 1 has 4516 digits, over the default str(int) limit
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, ["hey", "--data", '[{"q": 2, "m": 15000}]', "--truncate", "1"])
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        num = json.loads(out)["terms"][1]["num"]
        sys.set_int_max_str_digits(0)
        try:
            assert int(num) == 2**15000 - 1
        finally:
            sys.set_int_max_str_digits(limit)

    def test_inverse_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, ["hey", "--data", '[{"q": 2, "m": 1}]', "--truncate", "2", "--inverse", "--format", "csv"]
        )
        assert code == 0
        assert out == "monomial,num,den\n1,1,1\nz,-1,1\n"

    @pytest.mark.parametrize("label", ["a,b", 'say "z"', "two\nlines", "cr\rhere"])
    def test_csv_quotes_a_label_that_breaks_a_field(self, capsys, label):
        data = json.dumps([{"q": 2, "m": 1, "label": label}])
        code, out, _ = run_cli(capsys, ["hey", "--format", "csv", "--data", data, "--truncate", "2"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert rows == [["monomial", "num", "den"], ["1", "1", "1"], [label, "1", "1"], [f"{label}^2", "1", "1"]]

    def test_hereditary_total_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, ["hereditary", "--data", HER, "--truncate", "2", "--format", "csv"]
        )
        assert code == 0
        assert out == "monomial,num,den\n1,1,1\nz2,1,1\nz1,1,1\nz1*z2,5,1\n"

    def test_hereditary_beyond_subspace_enumeration(self, capsys):
        # F_3^7 has ~2e6 subspaces; the strata are counted, not enumerated
        code, out, _ = run_cli(
            capsys,
            ["hereditary", "--joint", "--data", '{"q": 3, "n": 2, "columns": [1, 1, 1, 2, 2, 2, 2]}',
             "--truncate", "2"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"] and all(sum(t["exponents"][2:]) == 7 for t in doc["terms"])

    def test_lifted_hey_with_twist(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["lifted-hey", "--data", '[{"q": 2, "m": 1}, {"q": 2, "m": 1}]', "--sigma", "2,1", "--truncate", "2"],
        )
        assert code == 0
        doc = json.loads(out)
        got = {tuple(t["exponents"]): t["num"] for t in doc["terms"]}
        assert got == {
            (0, 0): "1", (1, 0): "1", (0, 1): "1",
            (2, 0): "1", (1, 1): "5", (0, 2): "1",
        }

    def test_prolif_sum_equals_sliver_on_dvr(self, capsys):
        code, out1, _ = run_cli(capsys, ["prolif", "--data", DVR, "--truncate", "3"])
        assert code == 0
        code, out2, _ = run_cli(
            capsys, ["prolif", "--data", DVR, "--truncate", "3", "--mode", "sliver"]
        )
        assert code == 0
        assert out1 == out2
        assert json.loads(out1)["display"] == "1 + z + 3*z^2 + 7*z^3"

    @pytest.mark.parametrize(
        "data",
        [
            '{"kind": "semisimple", "entries": [{"q": 2, "m": 2}]}',
            '{"kind": "hereditary", "q": 2, "n": 2, "columns": [1, 2]}',
        ],
        ids=["split-rank-two", "two-class-lattice"],
    )
    def test_sliver_of_any_base_at_bound_zero_is_one(self, capsys, data):
        code, out, _ = run_cli(capsys, ["prolif", "--mode", "sliver", "--data", data, "--truncate", "0"])
        assert (code, json.loads(out)["display"]) == (0, "1")
        code, out, err = run_cli(capsys, ["prolif", "--mode", "sliver", "--data", data, "--truncate", "1"])
        assert (code, out) == (2, "")
        assert err == "error: single-sliver form needs all finite-colength slice submodules isomorphic\n"

    def test_prolif_factored_doc(self, capsys):
        payload = json.dumps({"base": json.loads(HER), "kind": "hereditary"})
        code, out, _ = run_cli(
            capsys, ["prolif", "--data", '{"kind": "hereditary", "q": 2, "n": 2, "columns": [1, 2]}',
                     "--truncate", "2", "--mode", "factored"]
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"prefactor", "remainder", "product"}
        product = {tuple(t["exponents"]): t["num"] for t in doc["product"]["terms"]}
        assert product[(1, 1)] == "5"
        del payload

    def test_factored_csv_is_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, ["prolif", "--data", DVR, "--truncate", "2", "--mode", "factored",
                     "--format", "csv"]
        )
        assert code == 2
        assert "csv" in err


def _dumped(doc) -> str:
    """The reference bytes of a document."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emitted(**result) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli._emit("json", **result) == 0
    return out.getvalue()


PRIME_POWERS = st.sampled_from((2, 3, 4, 5, 8, 9, 27))


@st.composite
def drawn_series(draw):
    labels = draw(st.lists(st.text(min_size=1, max_size=4), max_size=3, unique=True))
    alphabet = Alphabet([AlphabetEntry(label, draw(PRIME_POWERS), draw(st.integers(1, 3))) for label in labels])
    bound = draw(st.integers(0, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * len(labels))
    coeffs = draw(st.dictionaries(exponents, st.integers() | st.integers(-2, 2), max_size=8))
    return TruncatedSeries(alphabet, bound, coeffs)


TABLES = st.dictionaries(st.integers(0, 10**6), st.integers() | st.integers(0, 3), max_size=12)


class TestJsonWriters:
    """Series and tables are written straight to the bytes ``json.dumps(doc,
    sort_keys=True, indent=2)`` gives for their documents."""

    @settings(max_examples=300, deadline=None)
    @given(series=drawn_series())
    def test_series_bytes(self, series):
        assert _emitted(series=series) == _dumped(ref.series_doc(series))

    @settings(max_examples=200, deadline=None)
    @given(table=TABLES)
    def test_table_bytes(self, table):
        assert _emitted(table=table) == _dumped(ref.table_doc(table))

    @settings(max_examples=100, deadline=None)
    @given(parts=st.fixed_dictionaries({"prefactor": drawn_series(), "remainder": drawn_series(),
                                        "product": drawn_series()}))
    def test_named_series_bytes(self, parts):
        want = _dumped({k: ref.series_doc(s) for k, s in parts.items()})
        assert _emitted(named_series=parts) == want

    def test_zero_series_and_empty_table(self, capsys):
        zero = TruncatedSeries.zero(Alphabet([("z", 2), ("w", 3)]), 3)
        assert _emitted(series=zero) == _dumped(ref.series_doc(zero))
        assert json.loads(_emitted(series=zero))["display"] == "0"
        assert _emitted(table={}) == _dumped({"coefficients": []})
        code, out, _ = run_cli(capsys, ["rossmann", "--max", "0"])
        assert (code, out) == (0, _dumped({"coefficients": []}))

    def test_empty_alphabet(self, capsys):
        code, out, _ = run_cli(capsys, ["hey", "--data", "[]", "--truncate", "2"])
        assert code == 0
        assert out == _dumped(ref.series_doc(hey_product(SemisimpleData.from_json([]), 2)))
        assert json.loads(out)["terms"][0]["exponents"] == []

    def test_negative_coefficients(self, capsys):
        data = '[{"q": 3, "m": 2}, {"q": 4, "m": 1}]'
        code, out, _ = run_cli(capsys, ["hey", "--data", data, "--truncate", "3", "--inverse"])
        want = moebius_inverse_series(SemisimpleData.from_json(json.loads(data)), 3)
        assert code == 0 and out == _dumped(ref.series_doc(want))
        assert any(t["num"].startswith("-") for t in json.loads(out)["terms"])

    def test_doubled_alphabet(self, capsys):
        code, out, _ = run_cli(capsys, ["hereditary", "--joint", "--data", HER, "--truncate", "3"])
        want = her.brz_two_variable(her.hereditary_from_json(json.loads(HER)), 3)
        assert code == 0 and out == _dumped(ref.series_doc(want))
        assert json.loads(out)["variables"] == ["z1", "z2", "w1", "w2"]

    def test_coefficient_over_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, ["hey", "--data", '[{"q": 2, "m": 15000}]', "--truncate", "1"])
        assert code == 0 and sys.get_int_max_str_digits() == limit
        want = hey_product(SemisimpleData.from_json([{"q": 2, "m": 15000}]), 1)
        sys.set_int_max_str_digits(0)
        try:
            assert out == _dumped(ref.series_doc(want))
            assert len(json.loads(out)["terms"][1]["num"]) > 4300
        finally:
            sys.set_int_max_str_digits(limit)

    def test_factored_document(self, capsys):
        data = '{"kind": "hereditary", "q": 4, "n": 2, "columns": [1, 2]}'
        code, out, _ = run_cli(capsys, ["prolif", "--mode", "factored", "--data", data, "--truncate", "3"])
        base = pr.SliceBase.from_json(json.loads(data))
        prefactor, remainder = pr.brs_factored_prolif(base, 3, pr.DEFAULT_SEQUENCE_BUDGET)
        want = {"prefactor": prefactor, "remainder": remainder, "product": prefactor * remainder}
        assert code == 0 and out == _dumped({k: ref.series_doc(s) for k, s in want.items()})


class TestOracleCommand:
    def test_series_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "--model", '{"kind": "chain", "q": 2, "c": 3, "rank": 2}',
             "--colength", "2", "--format", "csv"],
        )
        assert code == 0
        assert out == "monomial,num,den\n1,1,1\nz,3,1\nz^2,7,1\n"

    def test_field_with_a_searched_modulus(self, capsys):
        """GF(32) gets its modulus by search, like every prime-power field."""
        code, out, _ = run_cli(
            capsys,
            ["oracle", "--model", '{"kind": "chain", "q": 32, "c": 3, "rank": 2}', "--colength", "2"],
        )
        assert code == 0
        assert json.loads(out)["display"] == "1 + 33*z + 1057*z^2"
        code, out, _ = run_cli(capsys, ["hey", "--data", '[{"q": 32, "m": 2}]', "--truncate", "2"])
        assert code == 0 and json.loads(out)["display"] == "1 + 33*z + 1057*z^2"

    def test_fiber_grouping(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "--model", '{"kind": "local2d", "q": 2, "c": 3}',
             "--colength", "2", "--fiber"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == 2
        assert [f["count"] for f in doc["fibers"]] == [1, 1, 1, 2]
        assert sum(f["count"] for f in doc["fibers"]) == 5
        assert doc["fibers"][0]["quotients"] == []

    def test_depth_guard_exit(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["oracle", "--model", '{"kind": "chain", "q": 2, "c": 2}', "--colength", "5"],
        )
        assert code == 2
        assert "cannot certify" in err

    def test_budget_exit(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["oracle", "--model", '{"kind": "chain", "q": 2, "c": 4, "rank": 2}',
             "--colength", "3", "--budget", "3"],
        )
        assert code == 4
        assert "budget" in err

    @pytest.mark.parametrize("colength", ["0", "1"])
    def test_budget_counts_the_root(self, capsys, colength):
        code, out, err = run_cli(
            capsys,
            ["oracle", "--model", '{"kind": "chain", "q": 2, "c": 3}', "--colength", colength, "--budget", "0"],
        )
        assert (code, out) == (4, "")
        assert "required 1, budget 0" in err

    def test_hyperplane_count_refused_before_any_is_built(self, capsys):
        """The root's top over GF(16) has 273 hyperplanes; the oracle refuses them all at once."""
        code, out, err = run_cli(
            capsys,
            ["oracle", "--budget", "100", "--model", '{"kind":"chain","q":16,"c":2,"rank":3}', "--colength", "1"],
        )
        assert (code, out) == (4, "")
        assert err == "budget exceeded: subspace enumeration too large (required 273, budget 100)\n"


#: (size, suite) pairs at which a suite's size knob leaves it no case to check
EMPTY_AT_SIZE = {(0, "moebius"), (0, "rossmann")}


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "rossmann", "--max", "64"])
        assert code == 0
        assert out.startswith("PASS rossmann")
        assert "64 cases" in out

    def test_two_suites_print_two_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "q-partition", "--suite", "hall"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("PASS") for line in lines)

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--suite", "nope"])
        assert code == 2
        assert "unknown suite" in err

    def test_failing_suite_exits_three(self, capsys, monkeypatch):
        def broken():
            return chk.CheckResult("rossmann", 1, disagreement=("n=4", "3", "2"))

        monkeypatch.setitem(chk.ALL_CHECKS, "rossmann", broken)
        code, out, err = run_cli(capsys, ["verify", "--suite", "rossmann"])
        assert code == 3
        assert out.startswith("FAIL rossmann")
        assert "n=4" in err

    @pytest.mark.parametrize(
        "error, tail",
        [
            (FormulaViolationError("sums disagree", monomial="z1^2", expected="7", actual="8"), "[at z1^2: expected 7, got 8]"),
            (FormulaViolationError("sums disagree"), "[at sums disagree: expected -, got -]"),
        ],
        ids=["with-monomial", "message-only"],
    )
    def test_engine_violation_fails_its_suite_only(self, capsys, monkeypatch, error, tail):
        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr(pr, "brs_factored_prolif", raising)
        code, out, err = run_cli(
            capsys, ["verify", "--suite", "brs-factored", "--suite", "rossmann", "--max", "16"]
        )
        assert code == 3
        fail, passed = out.splitlines()
        assert fail == f"FAIL brs-factored (1 cases) {tail}"
        assert passed.startswith("PASS rossmann")
        assert "None" not in out + err and "Traceback" not in err

    @pytest.mark.parametrize(
        "engine, patch, suite, line",
        [
            ("lustig_coeffs", lambda real: lambda q, i_max: [c + (i == 3) for i, c in enumerate(real(q, i_max))],
             "lustig", "FAIL lustig (1 cases) [at q=2,partitions,colength=3: expected 7, got 8]"),
            ("rossmann_coeffs", lambda real: lambda n_max: {n: c + (n == 12) for n, c in real(n_max).items()},
             "rossmann", "FAIL rossmann (12 cases) [at n=12: expected 3, got 4]"),
            ("zjv_factor", lambda real: lambda ell, q, j, bound: real(ell, q, j + (j == 1), bound),
             "brs-factored", "FAIL brs-factored (1 cases) [at zjv ell=1,j=1:v^2: expected 2, got 0]"),
            ("brs_factored_prolif",
             lambda real: lambda base, bound: (real(base, bound)[0], real(base, bound)[1].scaled(2)),
             "brs-factored", "FAIL brs-factored (1 cases) [at prefactor*remainder:1: expected 1, got 2]"),
        ],
        ids=["lustig-partitions", "rossmann-prime-local", "zjv-closed-form", "factored-product"],
    )
    def test_engine_disagreeing_with_its_witness_fails_its_suite(
        self, capsys, monkeypatch, engine, patch, suite, line
    ):
        """Each closed engine's second computation is a case of the suite that names it."""
        monkeypatch.setattr(pr, engine, patch(getattr(pr, engine)))
        code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--suite", "voll"])
        assert code == 3
        assert out.splitlines() == [line, "PASS voll (8 cases) \u2014 semisimple class-sequence sum = closed product"]
        assert err.startswith("formula violation: ") and "Traceback" not in err

    @pytest.mark.parametrize("suites", [["hall"], ["hall", "q-partition"]], ids=["one", "two"])
    def test_max_without_a_sized_suite_exits_2(self, capsys, suites):
        argv = ["verify"] + [arg for suite in suites for arg in ("--suite", suite)] + ["--max", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: --max ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "size,suite",
        [
            (size, suite)
            for size in range(4)
            for suite in sorted(chk.SIZED_SUITES)
            if (size, suite) not in EMPTY_AT_SIZE
        ],
    )
    def test_small_size_knob_passes(self, capsys, suite, size):
        code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--max", str(size)])
        assert code == 0 and "Traceback" not in err
        lines = out.splitlines()
        assert lines and all(line.startswith(f"PASS {suite} ") for line in lines)

    def test_sized_outputs_are_pinned(self, capsys):
        """Sizes 1 to 3 of each sized suite, in this order, print stdout of a
        pinned sha256: 21 PASS lines."""
        out = []
        for suite in ("hey-oracle", "moebius", "lustig", "rossmann", "dvr-consistency", "voll", "fiber"):
            for size in (1, 2, 3):
                code, text, _ = run_cli(capsys, ["verify", "--suite", suite, "--max", str(size)])
                assert code == 0
                out.append(text)
        digest = hashlib.sha256("".join(out).encode()).hexdigest()
        assert digest == "65127e150457e82d1127091e14e244382e2be351906333115215005a7f7a202d"

    @pytest.mark.parametrize("size,suite", sorted(EMPTY_AT_SIZE))
    def test_size_knob_that_checks_nothing_exits_2(self, capsys, suite, size):
        code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--max", str(size)])
        assert (code, out) == (2, "")
        assert err == f"error: suite {suite} checked no cases at --max {size}\n"

    def test_time_budget(self, capsys, monkeypatch):
        ticks = iter([0.0, 10.0, 20.0])
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(ticks))
        code, _, err = run_cli(
            capsys, ["verify", "--suite", "hall", "--suite", "q-partition", "--budget", "5"]
        )
        assert code == 4
        assert "time budget" in err


class TestInputHandling:
    def test_file_payload(self, capsys, tmp_path):
        path = tmp_path / "order.json"
        path.write_text(HER)
        code, out, _ = run_cli(
            capsys, ["hereditary", "--data", f"@{path}", "--truncate", "1", "--format", "csv"]
        )
        assert code == 0
        assert out == "monomial,num,den\n1,1,1\nz2,1,1\nz1,1,1\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["hereditary", "--data", f"@{tmp_path}/absent.json", "--truncate", "1"]
        )
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json(self, capsys):
        code, _, err = run_cli(capsys, ["hey", "--data", "{", "--truncate", "2"])
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--model", '{"kind": "chain", "q": 6, "c": 2}', "--colength", "1"],
            ["hey", "--data", '[{"q": 2, "m": 1, "r": "x"}]', "--truncate", "2"],
            ["prolif", "--data", '{"kind": "semisimple", "entries": []}', "--truncate", "3"],
            ["hey", "--data", '[{"q": 6, "m": 1}]', "--truncate", "2"],
            ["hey", "--data", '[{"q": 1, "m": 1}]', "--truncate", "2"],
            ["hey", "--data", '[{"q": 2, "m": 1, "label": "a"}, {"q": 3, "m": 1, "label": "a"}]', "--truncate", "2"],
            ["lifted-hey", "--data", '[{"q": 6, "m": 1}]', "--truncate", "2"],
            ["hereditary", "--data", '{"q": 6, "n": 2, "columns": [1, 2]}', "--truncate", "2"],
            ["lustig", "--q", "6", "--max", "3"],
            ["hom-slice", "--q", "6", "--r", "1", "--m", "1", "--s-count", "1", "--max", "100"],
            ["prolif", "--data", '{"kind": "dvr", "q": 6, "m": 1}', "--truncate", "2"],
            ["prolif", "--data", '{"kind": "semisimple", "entries": [{"q": 6, "m": 1}]}', "--truncate", "2"],
            ["prolif", "--data", '{"kind": "semisimple", "entries": [{"q": 2, "m": 1}], "sigma": [1, "a"]}',
             "--truncate", "2"],
            ["prolif", "--data", '{"kind": "hereditary", "q": 2, "n": 2, "columns": [1, 2], "sigma": [2, null]}',
             "--truncate", "2"],
            ["hey", "--data", '[{"q": 2.5, "m": 1}]', "--truncate", "2"],
            ["hey", "--data", '[{"q": 2, "m": 1.7}]', "--truncate", "2"],
            ["hey", "--data", '[{"q": 2, "m": true}]', "--truncate", "2"],
            ["oracle", "--model", '{"kind": "chain", "q": 2.9, "c": 2}', "--colength", "1"],
            ["hereditary", "--data", '{"q": 2, "n": 2, "columns": [1, 2.5]}', "--truncate", "2"],
            ["hey", "--data", '[{"q": "\u0662", "m": 1}]', "--truncate", "1"],
            ["hey", "--data", '[{"q": " 2", "m": "1_0"}]', "--truncate", "1"],
            ["oracle", "--model", '{"kind": "chain", "q": 2, "c": "3"}', "--colength", "1"],
            ["hereditary", "--data", '{"q": 2, "n": 2, "columns": [1, "2"]}', "--truncate", "2"],
            ["prolif", "--data", '{"kind": "dvr", "q": 2, "m": 1.5}', "--truncate", "2"],
            ["oracle", "--model", '{"kind": "chain", "q": 2, "c": 3, "exact": "no"}', "--colength", "5"],
            ["oracle", "--model", '{"kind": "chain", "q": 2, "c": 3, "exact": "false"}', "--colength", "5"],
            ["oracle", "--model", '{"kind": "chain", "q": 2, "c": 3, "exact": 1}', "--colength", "5"],
            ["hereditary", "--data", '{"q": 2, "n": 2, "columns": "12"}', "--truncate", "2"],
            ["prolif", "--data", '{"kind": "hereditary", "q": 2, "n": 2, "columns": "12"}', "--truncate", "2"],
            ["oracle", "--model", '{"kind": "triangular", "q": 2, "n": 2, "c": 2, "columns": "12"}',
             "--colength", "1"],
            ["prolif", "--data", '{"base": 5}', "--truncate", "2"],
            ["prolif", "--data", '{"base": []}', "--truncate", "2"],
            ["prolif", "--mode", "sliver", "--data", '{"kind": "semisimple", "entries": [{"q": 2, "m": 2}]}',
             "--truncate", "3"],
            ["prolif", "--mode", "sliver", "--data", '{"kind": "hereditary", "q": 2, "n": 2, "columns": [1, 2]}',
             "--truncate", "3"],
            ["verify", "--suite", "rossmann", "--max", "-1"],
            ["verify", "--suite", "moebius", "--max", "-1"],
            ["rossmann", "--max", "-1"],
            ["hom-slice", "--q", "2", "--r", "1", "--m", "1", "--s-count", "1", "--max", "-1"],
            ["oracle", "--model", '{"kind": "chain", "q": 2, "c": 3}', "--colength", "1", "--budget", "-3"],
            ["prolif", "--data", '{"kind": "dvr", "q": 2, "m": 1}', "--truncate", "2", "--budget", "-1"],
            ["verify", "--suite", "moebius", "--budget", "-1"],
            ["verify", "--suite", "moebius", "--budget", "nan"],
            ["hereditary", "--data", '{"q": 2, "n": 2, "columns": [1, 2]}', "--factor", "--truncate", "3"],
            ["hey", "--data", '[{"q": 2, "m": ' + "1" * 5000 + "}]", "--truncate", "1"],
            ["hey", "--data", '[{"q": 2, "m": 1, "label": 5}]', "--truncate", "2"],
            ["hey", "--data", '[{"q": 2, "m": 1, "label": ""}]', "--truncate", "2"],
            ["oracle", "--model", '{"kind": "local2d", "q": 2, "c": 2}', "--colength", "1", "--joint", "--fiber"],
            ["oracle", "--model", '{"kind": "local2d", "q": 2, "c": 2}', "--colength", "1", "--partial", "1",
             "--fiber"],
            ["oracle", "--model", '{"kind": "triangular", "q": 2, "n": 2, "c": 2, "columns": [1, 2]}',
             "--colength", "2", "--partial=-1,0"],
            ["oracle", "--partial=-1,0", "--budget", "3", "--model",
             '{"kind": "triangular", "q": 2, "n": 2, "c": 2, "columns": [1, 2]}', "--colength", "2"],
            ["oracle", "--fiber", "--format", "csv", "--budget", "2", "--model", '{"kind": "local2d", "q": 4, "c": 3}',
             "--colength", "2"],
            ["prolif", "--mode", "factored", "--format", "csv", "--budget", "1", "--data",
             '{"kind": "hereditary", "q": 2, "n": 2, "columns": [1, 2]}', "--truncate", "3"],
            ["hereditary", "--partial", "\u0661,1", "--data", '{"q": 2, "n": 2, "columns": [1, 2]}', "--truncate", "1"],
            ["lifted-hey", "--sigma", "\u0662,1", "--data", '[{"q": 2, "m": 1}, {"q": 2, "m": 1}]', "--truncate", "1"],
            ["hereditary", "--partial", "1_0,0", "--data", '{"q": 2, "n": 2, "columns": [1, 2]}', "--truncate", "1"],
        ],
        ids=[
            "non-prime-power-model",
            "non-integer-r",
            "empty-semisimple-base",
            "hey-q6",
            "hey-q1",
            "hey-duplicate-labels",
            "lifted-hey-q6",
            "hereditary-q6",
            "lustig-q6",
            "hom-slice-q6",
            "prolif-dvr-q6",
            "prolif-semisimple-q6",
            "sigma-not-a-number",
            "sigma-null",
            "fractional-q",
            "fractional-m",
            "bool-m",
            "fractional-model-q",
            "fractional-column",
            "string-q-non-ascii-digit",
            "string-q-and-m",
            "string-model-c",
            "string-column",
            "fractional-dvr-m",
            "exact-string-no",
            "exact-string-false",
            "exact-integer",
            "hereditary-columns-string",
            "prolif-columns-string",
            "triangular-columns-string",
            "prolif-base-number",
            "prolif-base-array",
            "sliver-split-rank-two",
            "sliver-two-class-lattice",
            "verify-rossmann-negative-max",
            "verify-moebius-negative-max",
            "rossmann-negative-max",
            "hom-slice-negative-max",
            "oracle-negative-budget",
            "prolif-negative-budget",
            "verify-negative-time-budget",
            "verify-nan-time-budget",
            "factor-bound-below-degree",
            "json-integer-over-digit-limit",
            "label-number",
            "label-empty",
            "fiber-with-joint",
            "fiber-with-partial",
            "oracle-negative-partial",
            "oracle-negative-partial-small-budget",
            "fiber-csv-small-budget",
            "factored-csv-small-budget",
            "partial-non-ascii-digit",
            "sigma-non-ascii-digit",
            "partial-underscore",
        ],
    )
    def test_malformed_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "set_int_max_str_digits" not in err  # advice only a Python caller can act on

    @pytest.mark.parametrize(
        "error", [SchemaError, TruncationBoundError, AlphabetMismatchError, NonUnitError, BrzetaError]
    )
    def test_every_input_error_exits_2(self, capsys, monkeypatch, error):
        def raising(data, bound):
            raise error("refused")

        monkeypatch.setattr(cli, "hey_product", raising)
        code, out, err = run_cli(capsys, ["hey", "--data", '[{"q": 2, "m": 1}]', "--truncate", "2"])
        assert (code, out, err) == (2, "", "error: refused\n")

    @pytest.mark.parametrize(
        "data, sigma, message",
        [
            ('[{"q": 2, "m": 1}]', "3", "sigma must be a bijection of 1..1, got (3,)"),
            ("[]", "1", "sigma must be a bijection of 1..0, got (1,)"),
        ],
        ids=["image-out-of-range", "no-classes"],
    )
    def test_sigma_refusal_is_one_based(self, capsys, data, sigma, message):
        argv = ["lifted-hey", "--data", data, "--sigma", sigma, "--truncate", "2"]
        assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hereditary", "--data", '{"q": 1, "n": 2, "columns": [1, 2]}'], "residue field size must be >= 2, got 1"),
            (["hereditary", "--data", '{"q": 2, "n": 0, "columns": [1]}'], "chain length must be >= 1, got 0"),
            (["hereditary", "--data", '{"q": 6, "n": 2, "columns": [1, 2]}'],
             "residue field size must be a prime power, got 6"),
            # the prime power check comes before the chain length check
            (["hereditary", "--data", '{"q": 6, "n": 0, "columns": [1]}'],
             "residue field size must be a prime power, got 6"),
            (["prolif", "--data", '{"kind": "dvr", "q": 6, "m": 2}'],
             "residue field size must be a prime power, got 6"),
            # a rank-0 dvr base is split data: its alphabet names q
            (["prolif", "--data", '{"kind": "dvr", "q": 6, "m": 0}'],
             "entry 'z': residue size q must be a prime power, got 6"),
            (["hereditary", "--data", '{"q": 2, "n": 2, "columns": []}'], "module needs at least one column"),
            (["hereditary", "--data", '{"q": 2, "n": 2, "columns": [0, 1]}'], "column types start at 1, got (0, 1)"),
            (["hereditary", "--data", '{"q": 4, "n": 2, "columns": [1, 3]}'],
             "column type 3 exceeds the order's chain length 2"),
            (["prolif", "--data", '{"kind": "hereditary", "q": 2, "n": 2, "columns": [1, 3]}'],
             "column type 3 exceeds the order's chain length 2"),
            (["hey", "--data", '[{"q": 2, "m": -1}]'], "multiplicity must be >= 0, got -1"),
            # q = 6 is no prime power either: the multiplicity is checked first
            (["hey", "--data", '[{"q": 6, "m": -1}]'], "multiplicity must be >= 0, got -1"),
            (["prolif", "--mode", "factored", "--data", '{"kind": "semisimple", "entries": [{"q": 2, "m": 1}]}'],
             "factored form needs a lattice (hereditary or nonzero dvr) base"),
            # a rank past the largest tuple size, and a chain length no sigma list can match
            (["prolif", "--data", '{"kind": "dvr", "q": 2, "m": 1000000000000000000000000000000}'],
             f"dvr base rank must be at most {sys.maxsize}, got m=1000000000000000000000000000000"),
            (["prolif", "--data", '{"base": {"kind": "hereditary", "q": 3, "n": 1000000000000000000000000000000, '
                                  '"columns": [1, 2]}, "sigma": [1, 2]}'],
             "sigma must be a bijection of 1..1000000000000000000000000000000, got (1, 2)"),
            # a multiplicity past the largest run of factors, for each reader of split data
            (["hey", "--data", '[{"q": 2, "m": 1000000000000000000000000000000}]'],
             f"multiplicity must be at most {sys.maxsize}, got 1000000000000000000000000000000"),
            (["lifted-hey", "--data", '[{"q": 2, "m": 1000000000000000000000000000000}]'],
             f"multiplicity must be at most {sys.maxsize}, got 1000000000000000000000000000000"),
            (["prolif", "--data", '{"kind": "semisimple", "entries": [{"q": 2, "m": 1000000000000000000000000000000}, '
                                  '{"q": 3, "m": 2000}]}'],
             f"multiplicity must be at most {sys.maxsize}, got 1000000000000000000000000000000"),
        ],
        ids=["q1", "n0", "q6", "q6-n0", "prolif-dvr-q6", "prolif-dvr-q6-m0", "no-columns", "column-0",
             "column-past-chain", "prolif-column-past-chain", "hey-m-negative", "hey-q6-m-negative",
             "factored-semisimple", "prolif-dvr-huge-rank", "prolif-hereditary-huge-chain-with-sigma",
             "hey-huge-multiplicity", "lifted-hey-huge-multiplicity", "prolif-semisimple-huge-multiplicity"],
    )
    def test_spec_refusal_names_its_first_fault(self, capsys, argv, message):
        assert run_cli(capsys, argv + ["--truncate", "2"]) == (2, "", f"error: {message}\n")

    def test_negative_truncation(self, capsys):
        code, _, err = run_cli(capsys, ["hey", "--data", '[{"q": 2, "m": 1}]', "--truncate", "-1"])
        assert code == 2
        assert "bound" in err

    def test_factor_bound_below_degree_names_it(self, capsys):
        argv = ["hereditary", "--data", '{"q": 2, "n": 2, "columns": [1, 2]}', "--factor", "--truncate"]
        code, _, err = run_cli(capsys, argv + ["3"])
        assert code == 2 and "degree 4" in err
        code, out, _ = run_cli(capsys, argv + ["4"])
        assert code == 0 and out

    def test_exclusive_hereditary_modes(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["hereditary", "--data", HER, "--truncate", "2", "--joint", "--factor"])
        capsys.readouterr()

    def test_unknown_format_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["hey", "--data", '[{"q": 2, "m": 1}]', "--truncate", "2", "--format", "xml"])
        assert exc.value.code == 2
        capsys.readouterr()


def test_output_is_deterministic(capsys):
    argv = ["hereditary", "--data", HER, "--truncate", "3", "--joint"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["terms"] and all(t["den"] == "1" for t in doc["terms"])


class TestSharedParser:
    """``main`` may be called many times in one process; the parser is built once."""

    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cli._shared_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run_cli(capsys, ["rossmann", "--max", "4"])[0] == 0
        assert len(built) == 10  # the top parser and one per subcommand
        assert run_cli(capsys, ["lustig", "--q", "2", "--max", "3"])[0] == 0
        assert len(built) == 10
        assert cli._shared_parser.cache_info().misses == 1

    def test_calls_match_fresh_processes(self, capsys):
        her = ["hereditary", "--data", HER, "--truncate", "3"]
        sequence = [
            ["verify", "--suite", "rossmann", "--max", "4"],
            ["verify", "--suite", "lustig", "--max", "2"],
            her + ["--joint", "--factor"],
            her + ["--joint"],
            her,
            her + ["--format", "csv"],
        ]
        in_process = []
        for argv in sequence:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses a command line with exit 2
                code = exc.code
            in_process.append((code, capsys.readouterr().out))
        fresh = [_subprocess_main(argv) for argv in sequence]
        assert in_process == [(code, out) for code, out, _ in fresh]
        assert [code for code, _ in in_process] == [0, 0, 2, 0, 0, 0]
        # one suite per verify call: the appended --suite list starts empty each time
        assert in_process[0][1].startswith("PASS rossmann") and in_process[0][1].count("PASS ") == 1
        assert in_process[1][1].startswith("PASS lustig") and in_process[1][1].count("PASS ") == 1
        assert len({out for _, out in in_process[3:]}) == 3

    def test_help_width_is_read_per_call(self, capsys, monkeypatch):
        widths = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "--help"])
            assert exc.value.code == 0
            widths.append(max(len(line) for line in capsys.readouterr().out.splitlines()))
        assert widths[0] < widths[1]


def _argparse_parse(argv):
    """argparse's own top-level parse of ``argv`` on a fresh parser: the
    reference for the parse that starts at the subcommand's parser."""
    return argparse.ArgumentParser.parse_args(cli.build_parser(), argv)


def _outcome(capsys, parse, argv):
    """(exit code, stdout, stderr, parsed flags) of one parse."""
    try:
        flags, code = vars(parse(argv)), 0
    except SystemExit as exc:
        flags, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, flags


class TestParsePath:
    """A command line that names a subcommand is parsed by that subcommand's
    parser alone, with the outcome of argparse's top-level parse."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["nope", "--q", "2"],
            ["-h", "hey"],
            ["hey", "-h"],
            ["hey", "--data", "[]", "--truncate", "2", "--bogus", "x"],
            ["hey", "--data", "[]", "stray"],
            ["oracle", "--colength", "2"],
            ["hey", "--data", "[]", "--truncate", "two"],
            ["hey", "--data", "[]", "--truncate", "2", "--format", "xml"],
            ["hereditary", "--data", HER, "--truncate", "2", "--joint", "--factor"],
        ],
    )
    def test_refusals_and_help_match_argparse(self, capsys, argv):
        got = _outcome(capsys, cli.main, argv)
        want = _outcome(capsys, _argparse_parse, argv)
        assert got[:3] == want[:3]
        assert got[0] in (0, 2) and (got[1] or got[2])

    @pytest.mark.parametrize(
        "argv",
        [
            ["hey", "--data=[]", "--truncate", "2", "--inverse"],
            ["hey", "--trunc", "-1", "--data", "[]"],
            ["hereditary", "--data", HER, "--truncate", "2", "--partial", "1,0", "--format", "csv"],
            ["prolif", "--data", DVR, "--truncate", "2", "--mode", "factored", "--budget", "9"],
            ["lifted-hey", "--data", "[]", "--sigma", "1"],
            ["lustig", "--q", "2", "--max", "3"],
            ["rossmann", "--max", "4"],
            ["hom-slice", "--q", "2", "--r", "1", "--m", "1", "--s-count", "1", "--max", "4", "--truncate", "1"],
            ["oracle", "--model", DVR, "--colength", "2", "--fiber"],
            ["verify", "--suite", "hall", "--suite", "lustig", "--max", "2"],
            ["verify"],
        ],
    )
    def test_flags_match_argparse(self, capsys, argv):
        got = _outcome(capsys, cli._shared_parser().parse_args, argv)
        assert got == _outcome(capsys, _argparse_parse, argv)
        assert got[3]["subcommand"] == argv[0]

    def test_argv_defaults_to_the_command_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["brzeta", "rossmann", "--max", "2", "--format", "csv"])
        assert run_cli(capsys, None) == (0, "n,a_n\n1,1\n2,1\n", "")


def _subprocess_main(argv, prelude=""):
    """(exit code, stdout, stderr) of ``brzeta.cli.main(argv)`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys; {prelude}from brzeta.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_runs_with_numpy_blocked():
    """The package has no dependency: the CLI runs in an interpreter where numpy cannot import."""
    cases = [
        (
            ["oracle", "--model", '{"kind": "chain", "q": 4, "c": 3, "rank": 2}', "--colength", "2",
             "--format", "csv"],
            "monomial,num,den\n1,1,1\nz,5,1\nz^2,21,1\n",
        ),
        (
            ["verify", "--suite", "hall"],
            "PASS hall (10 cases) \u2014 iso-class sums and chain products match enumeration\n",
        ),
    ]
    for argv, expected in cases:
        code, out, err = _subprocess_main(argv, prelude="sys.modules['numpy'] = None; ")
        assert (code, out) == (0, expected), err


HEY_LAYERS = {"brzeta", "brzeta.cli", "brzeta.errors", "brzeta.qcomb", "brzeta.series", "brzeta.hey"}
HEREDITARY_LAYERS = HEY_LAYERS | {"brzeta.hereditary"}
PROLIF_LAYERS = HEREDITARY_LAYERS | {"brzeta.prolif"}
ORACLE_LAYERS = PROLIF_LAYERS | {"brzeta.gfq", "brzeta.oracle"}
#: one small valid request per subcommand, and every package module it loads
SUBCOMMAND_LAYERS = [
    (["hey", "--data", '[{"q": 2, "m": 1}]', "--truncate", "2"], HEY_LAYERS),
    (["hereditary", "--data", HER, "--truncate", "2"], HEREDITARY_LAYERS),
    (["lifted-hey", "--data", '[{"q": 2, "m": 1}]', "--truncate", "2"], PROLIF_LAYERS),
    (["prolif", "--data", DVR, "--truncate", "2"], PROLIF_LAYERS),
    (["lustig", "--q", "2", "--max", "3"], PROLIF_LAYERS),
    (["rossmann", "--max", "4"], PROLIF_LAYERS),
    (["hom-slice", "--q", "2", "--r", "1", "--m", "1", "--s-count", "1", "--max", "4"], PROLIF_LAYERS),
    (["oracle", "--model", '{"kind": "chain", "q": 2, "c": 3}', "--colength", "2"], ORACLE_LAYERS),
    (["verify", "--suite", "rossmann", "--max", "4"], ORACLE_LAYERS | {"brzeta.checks"}),
]


@pytest.mark.parametrize("argv,layers", SUBCOMMAND_LAYERS, ids=[argv[0] for argv, _ in SUBCOMMAND_LAYERS])
def test_subcommand_loads_only_its_layers(argv, layers):
    """A request imports the package modules its handler runs and no others,
    and never ``fractions``: every count is an integer."""
    list_loaded = (
        "import atexit; atexit.register(lambda: print(*sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('brzeta', 'fractions')))); "
    )
    code, out, err = _subprocess_main(argv, prelude=list_loaded)
    assert code == 0, err
    loaded = set(out.splitlines()[-1].split())
    assert "fractions" not in loaded
    assert loaded == layers


# -- payload fuzz ------------------------------------------------------------------

#: values of the wrong type or range, drawn for some fields of some payloads
JUNK = st.sampled_from([None, True, "", "x", -1, 0, 6, 0.5, 2.0, [], [1, -1], {}])


def _mostly(valid):
    """``valid`` in seven branches of eight, as distinct copies: repeating one strategy does not weight it."""
    return st.one_of(*(valid.map(lambda v: v) for _ in range(7)), JUNK)


#: small field sizes and sizes, so each request runs in milliseconds
Q = _mostly(st.sampled_from([2, 3, 4]))
SMALL = _mostly(st.integers(0, 2))
POSITIVE = _mostly(st.integers(1, 3))
COLUMNS = _mostly(st.lists(st.integers(1, 3), min_size=1, max_size=3))


def _obj(required, **optional):
    """A JSON object: every ``required`` field, and any subset of the ``optional`` ones."""
    return st.fixed_dictionaries(required, optional=optional)


def _request(name, payload_flag, payload, *flag_sets):
    """argv strategies: ``name``, the payload as JSON, and one choice from each flag set."""
    return st.tuples(payload, *(st.sampled_from(flags) for flags in flag_sets)).map(
        lambda drawn: [name, payload_flag, json.dumps(drawn[0]), *(f for flags in drawn[1:] for f in flags)]
    )


LABEL = _mostly(st.sampled_from(["a", "z1"]))
ENTRIES = _mostly(st.lists(_obj({"q": Q, "m": SMALL}, r=POSITIVE, label=LABEL), max_size=2))
LATTICE = _obj({"q": Q, "n": POSITIVE, "columns": COLUMNS})
BASE = st.one_of(
    _obj({"kind": st.just("dvr"), "q": Q, "m": SMALL}),
    _obj({"kind": st.just("semisimple"), "entries": ENTRIES}),
    _obj({"kind": st.just("hereditary"), "q": Q, "n": POSITIVE, "columns": COLUMNS}),
)
MODEL = st.one_of(
    _obj({"kind": st.just("chain"), "q": Q, "c": POSITIVE}, rank=POSITIVE, exact=_mostly(st.booleans())),
    _obj({"kind": st.just("local2d"), "q": Q, "c": POSITIVE}, rank=POSITIVE),
    _obj({"kind": st.just("triangular"), "q": Q, "n": POSITIVE, "c": POSITIVE, "columns": COLUMNS}),
    _obj({"kind": st.just("skew_poly"), "q": Q, "n": POSITIVE, "c_pi": POSITIVE, "c_t": POSITIVE}),
)
SIGMA = _mostly(st.lists(st.integers(1, 3), max_size=3))
TRUNCATE = [["--truncate", str(t)] for t in (0, 1, 2, 3, -1)]
FORMAT = [[], ["--format", "csv"]]
BUDGET = [[], ["--budget", "0"], ["--budget", "40"], ["--budget", "400"]]
REQUESTS = st.one_of(
    _request("hey", "--data", ENTRIES, TRUNCATE, FORMAT, [[], ["--inverse"]]),
    _request("lifted-hey", "--data", ENTRIES, TRUNCATE, FORMAT,
             [[], ["--sigma", "1"], ["--sigma", "2,1"], ["--sigma", "x"]]),
    _request("hereditary", "--data", _mostly(LATTICE), TRUNCATE, FORMAT,
             [[], ["--joint"], ["--factor"], ["--partial", "1,0"], ["--partial", "1"]]),
    _request("prolif", "--data", _mostly(st.one_of(BASE, _obj({"base": BASE}, sigma=SIGMA))), TRUNCATE, FORMAT,
             [[], ["--mode", "sliver"], ["--mode", "factored"]], BUDGET),
    _request("oracle", "--model", _mostly(MODEL), [["--colength", str(t)] for t in (0, 1, 2, -1)], FORMAT,
             [[], ["--joint"], ["--fiber"], ["--partial", "1,0"], ["--partial=-1"]], BUDGET),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=REQUESTS)
def test_payload_fuzz_ends_in_a_defined_exit(argv):
    """Any payload ends in exit 0, 2, 3 or 4, and a refusal is one stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
