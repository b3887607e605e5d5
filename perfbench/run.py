"""The brzeta benchmark: cold passes of a workload, checked outputs, one JSON line.

    python3 perfbench/run.py --workload requests --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout whose ``src/brzeta`` is the program under
test; the package is imported from there, never from an installed copy.

``--trace 0`` measures the end-to-end metrics for about ``--seconds``: cold
passes of the workload, each in a fresh interpreter, and ``setup_s``, the
median over at least ``SETUP_SAMPLES`` fresh interpreters answering one
trivial ``hey`` request, a few before each pass and the rest at the end.
No pass starts that would, with the set-up samples still owed, end past
``--seconds``, but there is always one.  All times are wall-clock times.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics; its span log and shape census go to ``perfbench/out/``.
``--workload all`` runs every workload in turn.

Human-readable lines come first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts jobs whose exit code or stdout differs from ``refs.json``;
``correct`` is false when any of them is not one of the known seed defects
recorded there, or when a ``verify`` suite line does not read PASS.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: fewest fresh interpreters timed for ``setup_s``; a few go before each pass
SETUP_SAMPLES = 30
SETUP_PER_PASS = 3
#: a workload is abandoned when a pass is still running this long after
#: ``--seconds`` from the workload's start; a default run then still ends
#: within three minutes
GRACE_S = 120
TAIL_LEVELS = (50, 75, 90, 95, 99, 99.9)

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "request_ms.p50": "ms",
    "request_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def check_program() -> None:
    """The checkout must hold the package source, and the children must import it."""
    if not (ROOT / "src" / "brzeta" / "cli.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'brzeta'}")
    proc = subprocess.run(
        [sys.executable, "-c", "import brzeta; print(brzeta.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    where = Path(proc.stdout.strip() or ".").resolve()
    if proc.returncode != 0 or (ROOT / "src") not in where.parents:
        raise BenchError(f"brzeta does not import from {ROOT / 'src'}: {proc.stderr.strip() or where}")


def measure_setup(refs: dict, count: int) -> tuple[list[float], int]:
    """Wall times of ``count`` fresh ``brzeta`` processes answering one trivial
    request, and how many answered wrongly."""
    cmd = [sys.executable, "-m", "brzeta.cli"] + workloads.SETUP_ARGV
    ref = refs[workloads.job_key(workloads.SETUP_ARGV)]
    times, wrong = [], 0
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        wrong += not workloads.check(ref, proc.returncode, proc.stdout)
    return times, wrong


def run_pass(workload: str, seed: int, deadline: float, trace: bool = False,
             spans: Path | None = None) -> dict:
    """One pass in a fresh interpreter, which is stopped at ``deadline`` (``perf_counter`` time)."""
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass was still running {GRACE_S} s after --seconds") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_level(jobs_per_pass: int) -> float:
    """Highest level with at least ten of one pass's samples beyond it.

    Fixed by the workload, not by how many passes fit in a run, so two
    commits always compare the same percentile.
    """
    fit = [lv for lv in TAIL_LEVELS if jobs_per_pass * (1 - lv / 100) >= 10]
    return max(fit) if fit else 50


def percentile(values: list[float], level: float) -> float:
    """Percentile by linear interpolation between ranks; level 50 is the median."""
    ordered = sorted(values)
    pos = level / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def account(passes: list[dict], workload: str) -> dict:
    """Failure counts over all jobs of the given passes."""
    jobs = [job for p in passes for job in p["jobs"]]
    failed = [job for job in jobs if not job["ok"]]
    unexpected = [job for job in failed if not job["known_defect"]]
    suites_pass = all(
        line.startswith("PASS ")
        for job in jobs if workload == "verify"
        for line in job["stdout"].splitlines()
    )
    return {"jobs": jobs, "failed": failed, "unexpected": unexpected, "suites_pass": suites_pass}


def measure(workload: str, seed: int, seconds: float, refs: dict) -> tuple[dict, list[str]]:
    measure_setup(refs, 1)  # warm-up: byte-compiles the package in a fresh checkout
    setup_times, setup_wrong, passes = [], 0, []
    start = time.perf_counter()
    deadline = start + seconds + GRACE_S
    while True:
        # set-up samples are spread over the run, so they see the same host as the passes
        times, wrong = measure_setup(refs, SETUP_PER_PASS)
        setup_times += times
        setup_wrong += wrong
        passes.append(run_pass(workload, seed, deadline))
        elapsed = time.perf_counter() - start
        mean_setup = statistics.fmean(setup_times)
        next_round = elapsed / len(passes)
        owed = max(0, SETUP_SAMPLES - len(setup_times) - SETUP_PER_PASS) * mean_setup
        if elapsed + next_round + owed > seconds:
            break
    times, wrong = measure_setup(refs, max(0, SETUP_SAMPLES - len(setup_times)))
    setup_times += times
    setup_wrong += wrong
    acc = account(passes, workload)
    per_pass = len(passes[0]["jobs"])
    level = tail_level(per_pass)

    def per_pass_median(field, lv):
        return statistics.median(percentile([job[field] for job in p["jobs"]], lv) for p in passes)

    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "request_ms.p50": per_pass_median("ms", 50),
        "request_ms.tail": per_pass_median("ms", level),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    # every workload reports every end-to-end metric; on verify (one job) and
    # closed (eight) both latencies are the median job time of a pass
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "pass_s": f"median of {len(passes)} cold passes",
        "request_ms.p50": f"median over passes of each pass's p50 of {per_pass} jobs",
        "request_ms.tail": f"median over passes of each pass's p{level:g} of {per_pass} jobs",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }
    attempted, failed = len(acc["jobs"]), len(acc["failed"])
    result = {
        "correct": not acc["unexpected"] and not setup_wrong and acc["suites_pass"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()},
    }
    lines = [f"workload {workload}  seed {seed}  {len(passes)} passes of {per_pass} jobs  "
             f"{time.perf_counter() - start:.1f} s"]
    for name, v in metrics.items():
        lines.append(f"  {name:<16} {v:12.4f} {END_TO_END_UNITS[name]:<3} {notes[name]}")
    defects = sum(1 for job in acc["failed"] if job["known_defect"])
    lines.append(f"  {'failed_frac':<16} {failed / attempted:12.4f}     "
                 f"{failed} of {attempted} jobs ({defects} known seed defects)")
    for job in acc["unexpected"][:5]:
        lines.append(f"  UNEXPECTED FAILURE exit={job['exit']} {job['key']}")
    if setup_wrong:
        lines.append(f"  UNEXPECTED FAILURE: {setup_wrong} set-up requests gave a wrong answer")
    return result, lines


def per_layer_unit(name: str) -> str:
    suffix_units = {
        ".nodes_per_s": "1/s", ".cells": "cells", ".mults": "mults", ".term_pairs": "pairs",
        ".terms_in": "terms", "_ratio": "ratio", ".emit_bytes": "bytes",
    }
    for suffix, unit in suffix_units.items():
        if name.endswith(suffix):
            return unit
    if name.endswith(("_s", ".s")) or ".self_s." in name:
        return "s"
    return "count"


def trace_layers(plain: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced pass, plus those the harness sees:
    exit codes (an uncaught exception counts as 1), stdout bytes and the
    tracing overhead against the untraced pass."""
    layers = dict(traced["layers"])
    exits = Counter(job["exit"] if isinstance(job["exit"], int) else 1 for job in traced["jobs"])
    for code in range(5):
        layers[f"cli.exit.{code}"] = exits[code]
    layers["cli.emit_bytes"] = sum(job["stdout_bytes"] for job in traced["jobs"])
    layers["trace.pass_s"] = traced["pass_s"]
    layers["trace.overhead_s"] = traced["pass_s"] - plain["pass_s"]
    return layers


def measure_trace(workload: str, seed: int, seconds: float, refs: dict) -> tuple[dict, list[str]]:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.tsv.gz"
    start = time.perf_counter()
    deadline = start + seconds + GRACE_S
    plain = run_pass(workload, seed, deadline)
    traced = run_pass(workload, seed, deadline, trace=True, spans=spans)
    acc = account([plain, traced], workload)
    layers = trace_layers(plain, traced)
    summary = out_dir / f"trace-{workload}-seed{seed}.json"
    with open(summary, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "untraced_pass_s": plain["pass_s"],
                   "layers": layers, "shape_census": traced["census"]}, fh, indent=1)
    result = {
        "correct": not acc["unexpected"] and acc["suites_pass"],
        "attempted": len(acc["jobs"]),
        "failed": len(acc["failed"]),
        "metrics": {name: {"value": v, "unit": per_layer_unit(name)} for name, v in layers.items()},
    }
    lines = [f"workload {workload}  seed {seed}  traced pass {traced['pass_s']:.3f} s, "
             f"untraced {plain['pass_s']:.3f} s  {time.perf_counter() - start:.1f} s"]
    for name, v in layers.items():
        lines.append(f"  {name:<44} {v:16.6g} {per_layer_unit(name)}")
    lines.append("  rref/mat_mul shapes by calls (rows x cols, or n x k x m for mat_mul):")
    for row in traced["census"][:12]:
        lines.append(f"    {row['op']:<8} {row['shape']:>10}  q={row['q']:<3} {row['calls']:>8} calls")
    lines.append(f"  spans: {spans.relative_to(ROOT)}  census and metrics: {summary.relative_to(ROOT)}")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_program()
        refs = workloads.load_refs(HERE / "refs.json")
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            if args.trace:
                results[name], report = measure_trace(name, args.seed, args.seconds, refs)
            else:
                results[name], report = measure(name, args.seed, args.seconds, refs)
            print("\n".join(report), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
