"""End-to-end command-line behavior: exact output, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brzeta.checks as chk
import brzeta.cli as cli
from brzeta.errors import CompletenessWarning, SchemaError, TruncationBoundError

DVR = '{"kind": "dvr", "q": 2, "m": 1}'
HER = '{"q": 2, "n": 2, "columns": [1, 2]}'


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunConfig:
    def test_negative_bound_rejected(self):
        with pytest.raises(TruncationBoundError):
            cli.RunConfig("hey", truncate=-1)

    def test_odd_format_rejected(self):
        with pytest.raises(SchemaError):
            cli.RunConfig("hey", fmt="xml")

    def test_defaults(self):
        config = cli.RunConfig("hey")
        assert config.fmt == "json" and config.options == {}


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

    def test_hom_slice_unsound_truncation_warns(self, capsys):
        argv = ["hom-slice", "--q", "2", "--r", "1", "--m", "1", "--s-count", "1",
                "--max", "64", "--truncate", "1", "--format", "csv"]
        with pytest.warns(CompletenessWarning):
            code = cli.main(argv)
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "64,115"


class TestSeriesOutput:
    def test_split_product_display(self, capsys):
        code, out, _ = run_cli(capsys, ["hey", "--data", '[{"q": 2, "m": 1}]', "--truncate", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["display"] == "1 + z + z^2"
        assert doc["bound"] == 2 and doc["variables"] == ["z"]
        assert doc["terms"][1] == {"monomial": "z", "exponents": [1], "num": "1", "den": "1"}

    def test_inverse_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, ["hey", "--data", '[{"q": 2, "m": 1}]', "--truncate", "2", "--inverse", "--format", "csv"]
        )
        assert code == 0
        assert out == "monomial,num,den\n1,1,1\nz,-1,1\n"

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


class TestOracleCommand:
    def test_series_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "--model", '{"kind": "chain", "q": 2, "c": 3, "rank": 2}',
             "--colength", "2", "--format", "csv"],
        )
        assert code == 0
        assert out == "monomial,num,den\n1,1,1\nz,3,1\nz^2,7,1\n"

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
            return chk.CheckResult(
                "rossmann", False, 1, disagreement=("n=4", "3", "2")
            )

        monkeypatch.setitem(cli.chk.ALL_CHECKS, "rossmann", broken)
        code, out, err = run_cli(capsys, ["verify", "--suite", "rossmann"])
        assert code == 3
        assert out.startswith("FAIL rossmann")
        assert "n=4" in err

    @pytest.mark.parametrize("suite", sorted(cli._SUITE_SIZE_KNOB))
    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    def test_small_size_knob_passes(self, capsys, suite, size):
        code, out, err = run_cli(capsys, ["verify", "--suite", suite, "--max", str(size)])
        assert code == 0 and "Traceback" not in err
        lines = out.splitlines()
        assert lines and all(line.startswith(f"PASS {suite} ") for line in lines)

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
        ],
        ids=[
            "non-prime-power-model",
            "non-integer-r",
            "empty-semisimple-base",
            "hey-q6",
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
        ],
    )
    def test_malformed_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

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


def test_output_is_deterministic(capsys):
    argv = ["hereditary", "--data", HER, "--truncate", "3", "--joint"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["terms"] and all(t["den"] == "1" for t in doc["terms"])


def test_runs_with_numpy_blocked():
    """The package has no dependency: the CLI runs in an interpreter where numpy cannot import."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys; sys.modules['numpy'] = None; from brzeta.cli import main; sys.exit(main(sys.argv[1:]))"
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
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, expected), proc.stderr
