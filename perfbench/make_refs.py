"""Regenerate ``refs.json``: the expected exit code and stdout digest of every job.

    python3 perfbench/make_refs.py

References were generated at the seed commit of the benchmark.  Where the
program is wrong there, the expected result comes from the contract or a
dual computation instead, and the job is marked ``known_defect`` so that it
stays in the workloads and counts as failed until the program is fixed.
Rerun this only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import passrun  # noqa: E402
import workloads  # noqa: E402

_HEY_BAD_R = ["hey", "--data", '[{"q":2,"m":1,"r":"x"}]', "--truncate", "2"]
_PROLIF_EMPTY = ["prolif", "--data", '{"kind":"semisimple","entries":[]}', "--truncate", "3"]
_ENTRIES = '[{"q":2,"m":2},{"q":3,"m":2}]'
_PROLIF_BOUND6 = ["prolif", "--data", '{"kind":"semisimple","entries":' + _ENTRIES + "}", "--truncate", "6"]


def _dual_bound6() -> dict:
    """The split-slice class-sequence sum equals the closed product ``hey``."""
    code, closed = passrun.run_job(["hey", "--data", _ENTRIES, "--truncate", "6"])
    _, summed = passrun.run_job(_PROLIF_BOUND6 + ["--budget", str(10**6)])
    if code != 0 or summed != closed:
        raise SystemExit("make_refs: prolif and hey disagree on the bound-6 semisimple base")
    return {"exit": 0, "sha256": workloads.digest(closed)}


#: key -> (expected result, why the seed's own result is not the reference)
OVERRIDES = {
    workloads.job_key(_HEY_BAD_R): (
        lambda: {"exit": 2, "sha256": workloads.digest("")},
        "a non-integer r is malformed input (exit 2); the seed raises ValueError with a traceback",
    ),
    workloads.job_key(_PROLIF_EMPTY): (
        lambda: {"exit": 2, "sha256": workloads.digest("")},
        "an empty semisimple base is refused as malformed (exit 2); the seed raises ValueError from min()",
    ),
    workloads.job_key(_PROLIF_BOUND6): (
        _dual_bound6,
        "the search does 1222 substitutions, yet the seed refuses it on a 531441-leaf estimate (exit 4); "
        "expected output is the closed product from the hey subcommand",
    ),
}


def build() -> dict:
    jobs = {}
    for argv in workloads.all_distinct_jobs():
        key = workloads.job_key(argv)
        code, stdout = passrun.run_job(argv)
        entry = {"exit": code, "sha256": workloads.digest(stdout)}
        if key in OVERRIDES:
            expected, why = OVERRIDES[key]
            entry = {**expected(), "known_defect": why, "seed_exit": code}
        elif not isinstance(code, int):
            raise SystemExit(f"make_refs: {key} ends in {code}; add an override with its expected result")
        jobs[key] = entry
    missing = set(OVERRIDES) - set(jobs)
    if missing:
        raise SystemExit(f"make_refs: overrides for jobs no workload runs: {sorted(missing)}")
    return {"jobs": jobs}


def main() -> int:
    doc = build()
    with open(HERE / "refs.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    defects = sum(1 for e in doc["jobs"].values() if "known_defect" in e)
    print(f"wrote {len(doc['jobs'])} references ({defects} known defects)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
