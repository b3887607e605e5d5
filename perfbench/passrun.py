"""One cold pass of a workload, in this fresh interpreter.

    python3 perfbench/passrun.py --workload closed --seed 1 --trace 0

The package is imported first; the pass is timed from after import.  Each
job's stdout and exit code are captured and checked against ``refs.json``.
The last stdout line is one JSON object with the pass's wall time, peak
RSS and per-job results; with ``--trace 1`` it also holds the per-layer
metrics, and the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_job(argv: list[str]) -> tuple[object, str]:
    """(exit code, stdout) of one job; an uncaught exception gives its type name."""
    import brzeta.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _lib_invert() if argv == workloads.LIB_INVERT else brzeta.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line with exit 2
            code = exc.code
        except Exception as exc:  # a traceback is a defined outcome here: it fails the job
            code = f"uncaught {type(exc).__name__}"
    return code, out.getvalue()


def _lib_invert() -> int:
    import brzeta.hey as hey

    data = hey.SemisimpleData.from_specs([(2, 2), (3, 1), (5, 2)])
    inverse = hey.hey_product(data, 12).invert()
    same = inverse == hey.moebius_inverse_series(data, 12)
    sys.stdout.write(f"{inverse}\n{'equals' if same else 'differs from'} moebius_inverse_series\n")
    return 0


def cold_guard() -> None:
    """Refuse to time a pass whose closed-engine caches are already warm."""
    import brzeta.gfq as gfq
    import brzeta.hereditary as her

    if her._chain_count_cache or gfq.tables.cache_info().currsize:
        raise SystemExit("cold-pass guard: chain-count or field-table cache is not empty before the pass")


def run_pass(workload: str, seed: int, trace: bool, spans_path: str | None) -> dict:
    import brzeta.checks as checks
    import brzeta.cli  # noqa: F401  (imports every layer)

    refs = workloads.load_refs(HERE / "refs.json")
    jobs = workloads.jobs_for(workload, seed)
    keys = [workloads.job_key(argv) for argv in jobs]
    tracer = None
    if trace:
        import tracer as tracing

        suites = {name: f"checks.{fn.__name__}" for name, fn in checks.ALL_CHECKS.items()}
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if workload in ("verify", "closed"):
        cold_guard()

    results = []
    start = time.perf_counter()
    for i, (argv, key) in enumerate(zip(jobs, keys)):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        code, stdout = run_job(argv)
        t1 = time.perf_counter()
        ref = refs.get(key)
        results.append({
            "key": key,
            "ms": (t1 - t0) * 1e3,
            "exit": code,
            "ok": workloads.check(ref, code, stdout),
            "known_defect": bool(ref and ref.get("known_defect")),
            "stdout_bytes": len(stdout.encode("utf-8")),
            "stdout": stdout if workload == "verify" else None,
        })
    pass_s = time.perf_counter() - start
    doc = {
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer is not None:
        doc["layers"] = tracing.layer_metrics(tracer, pass_s, suites)
        doc["census"] = tracing.shape_census(tracer)
        if spans_path:
            tracing.write_spans(tracer.spans, spans_path, start)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the span log (gzip TSV) of a traced pass")
    args = parser.parse_args(argv)
    doc = run_pass(args.workload, args.seed, bool(args.trace), args.spans)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
