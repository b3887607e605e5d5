"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _python(code: str) -> subprocess.CompletedProcess:
    env = {**run.child_env(), "PYTHONPATH": f"{ROOT / 'src'}:{BENCH}"}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


# -- inputs --------------------------------------------------------------------


def test_same_seed_gives_same_requests_stream():
    assert workloads.requests_stream(7) == workloads.requests_stream(7)


def test_seeds_reorder_one_fixed_multiset():
    a, b = workloads.requests_stream(1), workloads.requests_stream(2)
    assert a != b
    assert Counter(map(workloads.job_key, a)) == Counter(map(workloads.job_key, b))
    assert len(a) == sum(copies for _, copies in workloads.REQUEST_CATALOGUE)


def test_requests_cover_every_subcommand():
    import brzeta.cli

    used = {argv[0] for argv, _ in workloads.REQUEST_CATALOGUE}
    assert used == set(brzeta.cli._HANDLERS)


# -- references and failure accounting ----------------------------------------


def test_one_byte_change_to_an_output_fails():
    out = '{\n  "bound": 2\n}\n'
    ref = {"exit": 0, "sha256": workloads.digest(out)}
    assert workloads.check(ref, 0, out)
    assert not workloads.check(ref, 0, out.replace("2", "3"))
    assert not workloads.check(ref, 0, out[:-1])
    assert not workloads.check(ref, 2, out)
    assert not workloads.check(ref, "uncaught ValueError", out)
    assert not workloads.check(None, 0, out)


def test_every_job_has_a_reference_and_three_are_known_defects():
    refs = workloads.load_refs(BENCH / "refs.json")
    keys = {workloads.job_key(argv) for argv in workloads.all_distinct_jobs()}
    assert keys <= set(refs)
    defects = {k for k in keys if "known_defect" in refs[k]}
    assert len(defects) == 3


def test_failed_jobs_split_into_known_defects_and_unexpected():
    jobs = [
        {"ok": True, "known_defect": False, "stdout": "PASS a (1 cases)\n"},
        {"ok": False, "known_defect": True, "stdout": ""},
        {"ok": False, "known_defect": False, "stdout": "FAIL b (1 cases)\n"},
    ]
    acc = run.account([{"jobs": jobs}], "verify")
    assert len(acc["failed"]) == 2 and len(acc["unexpected"]) == 1
    assert not acc["suites_pass"]


# -- statistics ------------------------------------------------------------------


def test_tail_level_is_fixed_by_jobs_per_pass():
    assert run.tail_level(266) == 95
    assert run.tail_level(8) == 50
    assert run.tail_level(1) == 50


def test_percentile_interpolates_and_matches_the_median():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, 3.0], 100) == 3.0
    assert run.percentile([5.0], 95) == 5.0


# -- tracing ------------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_nest():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.leaf", 2.0, 3.0, 1, 0),
        ("b", 5.0, 6.5, 0, 0),
        ("other_root", 11.0, 12.0, -1, 1),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    assert sum(tracer.self_times(spans)) == pytest.approx(11.0)


def test_q_kind():
    assert [tracer.q_kind(q) for q in (2, 3, 4, 5, 8, 9, 16)] == [
        "q2", "odd_prime", "prime_power", "odd_prime", "prime_power", "prime_power", "prime_power"]


def test_install_rebinds_aliases_registries_and_class_aliases():
    proc = _python(
        "import brzeta.cli as cli, brzeta.checks as chk, brzeta.series as se, tracer\n"
        "t = tracer.Tracer(); tracer.install(t)\n"
        "assert cli.hey_product is chk.hey_product\n"
        "assert se.TruncatedSeries.__rmul__ is se.TruncatedSeries.__mul__\n"
        "cli.main(['hey', '--data', '[{\"q\": 4, \"m\": 2}]', '--truncate', '3'])\n"
        "chk.ALL_CHECKS['rossmann']()\n"
        "print(sorted({s[0] for s in t.spans}))\n"
    )
    assert proc.returncode == 0, proc.stderr
    names = set(eval(proc.stdout.splitlines()[-1]))
    for name in ("cli.main", "cli.parse_args", "cli._emit", "hey.hey_product", "checks.check_rossmann",
                 "series.TruncatedSeries.__mul__", "series.TruncatedSeries.geometric"):
        assert name in names


def test_cold_guard_refuses_warm_caches():
    proc = _python("import brzeta.gfq as g, passrun\ng.tables(g.GF(3))\npassrun.cold_guard()\n")
    assert proc.returncode != 0 and "cold-pass guard" in proc.stderr


# -- the contract in BENCHMARK.json -------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    import brzeta.checks

    suites = {name: f"checks.{fn.__name__}" for name, fn in brzeta.checks.ALL_CHECKS.items()}
    plain = {"pass_s": 1.0, "jobs": []}
    traced = {"pass_s": 1.5, "jobs": [],
              "layers": tracer.layer_metrics(tracer.Tracer(), 1.5, suites)}
    layers = run.trace_layers(plain, traced)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: run.per_layer_unit(k) for k in layers}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
