"""Workload definitions and reference checking for the brzeta benchmark.

A *job* is one call into the package: a CLI argv sent through
``brzeta.cli.main`` in process, or the named library job ``LIB_INVERT``.
Each job's key is its argv as a JSON list, and ``refs.json`` maps that key
to the exit code and stdout digest expected for it.

Workloads:

* ``verify``   -- the acceptance gate, ``verify --suite all``, one job per pass.
* ``closed``   -- closed-engine jobs at sizes where they start to hit walls,
  run cold (a fresh interpreter, empty chain-count and field-table caches).
* ``requests`` -- a seeded stream of small CLI requests over all nine
  subcommands, sent one after another from one client (closed loop).

``verify`` and ``closed`` are fixed job lists; the seed only orders the
``requests`` stream.  The stream is a fixed multiset, so every seed does the
same work and the first (cold) occurrence of each spec is paid once per
pass whatever the order.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("verify", "closed", "requests")

#: the trivial request whose fresh-interpreter cost is ``setup_s``
SETUP_ARGV = ["hey", "--data", '[{"q": 2, "m": 1}]', "--truncate", "2"]

#: library job: the inverse of a three-class product, checked equal to its
#: closed reciprocal ``moebius_inverse_series``
LIB_INVERT = ["lib", "hey_product([(2,2),(3,1),(5,2)], 12).invert()"]


def _j(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


VERIFY_JOBS = [["verify", "--suite", "all"]]

CLOSED_JOBS = [
    ["hereditary", "--joint", "--data", _j({"q": 2, "n": 3, "columns": [1, 1, 2, 2, 3]}), "--truncate", "3"],
    ["hereditary", "--joint", "--data", _j({"q": 2, "n": 2, "columns": [1, 1, 1, 2, 2, 2]}), "--truncate", "3"],
    ["hereditary", "--data", _j({"q": 3, "n": 2, "columns": [1, 1, 2, 2, 2]}), "--truncate", "3"],
    ["hereditary", "--joint", "--data", _j({"q": 2, "n": 4, "columns": [1, 2, 3, 4]}), "--truncate", "3"],
    ["prolif", "--data", _j({"kind": "hereditary", "q": 2, "n": 3, "columns": [1, 2, 3]}), "--truncate", "5"],
    ["prolif", "--mode", "factored", "--data", _j({"kind": "hereditary", "q": 2, "n": 3, "columns": [1, 2, 3]}),
     "--truncate", "4"],
    ["prolif", "--data", _j({"kind": "semisimple", "entries": [{"q": 2, "m": 2}, {"q": 3, "m": 2}]}),
     "--truncate", "6"],
    LIB_INVERT,
]


def _tri(q, n, c, columns):
    return _j({"kind": "triangular", "q": q, "n": n, "c": c, "columns": columns})


#: (argv, copies per pass).  Fields are mostly q in {4, 5, 8, 9}, so the
#: table-driven prime-power kernels run here and nowhere in ``verify``.
#: The heaviest specs (triangular q=4 n=3 c=2) are weighted so that the
#: tail percentile falls inside one group of like requests.
REQUEST_CATALOGUE = [
    (["hey", "--data", _j([{"q": 4, "m": 2}]), "--truncate", "6"], 12),
    (["hey", "--data", _j([{"q": 5, "m": 3}, {"q": 9, "m": 1}]), "--truncate", "5"], 8),
    (["hey", "--inverse", "--data", _j([{"q": 8, "m": 2}]), "--truncate", "6"], 8),
    (["hey", "--format", "csv", "--data", _j([{"q": 2, "m": 1}]), "--truncate", "4"], 10),
    (["hereditary", "--data", _j({"q": 4, "n": 2, "columns": [1, 2]}), "--truncate", "3"], 10),
    (["hereditary", "--joint", "--data", _j({"q": 5, "n": 2, "columns": [1, 2]}), "--truncate", "2"], 8),
    (["hereditary", "--partial", "1,1", "--data", _j({"q": 4, "n": 2, "columns": [1, 2]}), "--truncate", "3"], 8),
    (["hereditary", "--factor", "--data", _j({"q": 9, "n": 2, "columns": [1, 2]}), "--truncate", "10"], 6),
    (["hereditary", "--joint", "--data", _j({"q": 8, "n": 3, "columns": [1, 3]}), "--truncate", "2"], 6),
    (["hereditary", "--data", _j({"q": 9, "n": 2, "columns": [1, 2, 2]}), "--truncate", "3"], 6),
    (["lifted-hey", "--data", _j([{"q": 4, "m": 1}, {"q": 4, "m": 1}]), "--sigma", "2,1", "--truncate", "4"], 8),
    (["lifted-hey", "--data", _j([{"q": 9, "m": 2}]), "--truncate", "5"], 6),
    (["prolif", "--data", _j({"kind": "dvr", "q": 4, "m": 1}), "--truncate", "4"], 8),
    (["prolif", "--mode", "sliver", "--data", _j({"kind": "dvr", "q": 9, "m": 2}), "--truncate", "4"], 6),
    (["prolif", "--data", _j({"kind": "semisimple", "entries": [{"q": 5, "m": 1}]}), "--truncate", "4"], 6),
    (["prolif", "--mode", "factored", "--data", _j({"kind": "hereditary", "q": 4, "n": 2, "columns": [1, 2]}),
      "--truncate", "3"], 4),
    (["prolif", "--data", _j({"base": {"kind": "hereditary", "q": 8, "n": 2, "columns": [1, 2]}, "sigma": [2, 1]}),
      "--truncate", "3"], 4),
    (["lustig", "--q", "8", "--max", "10"], 8),
    (["lustig", "--q", "5", "--max", "8", "--format", "csv"], 6),
    (["rossmann", "--max", "200", "--format", "csv"], 6),
    (["hom-slice", "--q", "4", "--r", "1", "--m", "2", "--s-count", "2", "--max", "1000"], 6),
    (["hom-slice", "--q", "9", "--r", "2", "--m", "1", "--s-count", "3", "--max", "100000", "--truncate", "1"], 4),
    (["oracle", "--model", _j({"kind": "chain", "q": 4, "c": 3, "rank": 2}), "--colength", "2"], 10),
    (["oracle", "--model", _j({"kind": "chain", "q": 9, "c": 3, "rank": 2}), "--colength", "2"], 4),
    (["oracle", "--model", _j({"kind": "local2d", "q": 5, "c": 3}), "--colength", "2"], 6),
    (["oracle", "--model", _j({"kind": "local2d", "q": 8, "c": 3}), "--colength", "2"], 6),
    (["oracle", "--model", _tri(8, 2, 2, [1, 2]), "--colength", "3"], 4),
    (["oracle", "--partial", "1,0", "--model", _tri(9, 2, 2, [1, 2]), "--colength", "2"], 4),
    (["oracle", "--fiber", "--model", _j({"kind": "local2d", "q": 4, "c": 3}), "--colength", "2"], 6),
    (["oracle", "--model", _j({"kind": "skew_poly", "q": 4, "n": 2, "c_pi": 2, "c_t": 3}), "--colength", "2"], 4),
    (["oracle", "--model", _tri(4, 3, 1, [1, 2, 3]), "--colength", "2", "--joint"], 6),
    (["oracle", "--model", _tri(4, 3, 2, [1, 2, 3]), "--colength", "2", "--joint"], 14),
    (["oracle", "--model", _tri(4, 3, 2, [1, 2, 3]), "--colength", "3", "--joint"], 2),
    (["oracle", "--fiber", "--model", _j({"kind": "local2d", "q": 4, "c": 4}), "--colength", "3"], 2),
    (["verify", "--suite", "rossmann", "--max", "64"], 4),
    (["verify", "--suite", "voll", "--max", "3"], 4),
    (["verify", "--suite", "moebius", "--max", "5"], 4),
    (["verify", "--suite", "fiber", "--max", "2"], 2),
    (["verify", "--suite", "q-partition"], 2),
    # malformed or unsound input: exit 2
    (["hey", "--data", _j([{"q": 2, "m": 1, "r": "x"}]), "--truncate", "2"], 2),
    (["prolif", "--data", _j({"kind": "semisimple", "entries": []}), "--truncate", "3"], 2),
    (["hey", "--data", "{not json", "--truncate", "2"], 4),
    (["hereditary", "--data", _j({"q": 4, "n": 2, "columns": [1, 3]}), "--truncate", "2"], 4),
    (["oracle", "--model", _j({"kind": "chain", "q": 4, "c": 2}), "--colength", "3"], 4),
    (["oracle", "--model", _j({"kind": "chain", "q": 6, "c": 2}), "--colength", "1"], 2),
    (["oracle", "--fiber", "--format", "csv", "--model", _j({"kind": "local2d", "q": 4, "c": 2}),
      "--colength", "1"], 2),
    (["hey", "--data", _j([{"q": 4, "m": 1}]), "--truncate", "-1"], 2),
    (["verify", "--suite", "nosuch"], 2),
    (["lustig", "--q", "4"], 2),
    # an explicit node budget that the enumeration overruns: exit 4
    (["oracle", "--budget", "20", "--model", _j({"kind": "chain", "q": 4, "c": 3, "rank": 2}),
      "--colength", "2"], 2),
]


def requests_stream(seed: int) -> list[list[str]]:
    """The ``requests`` pass: every catalogue entry at its weight, in seeded order."""
    stream = [list(argv) for argv, copies in REQUEST_CATALOGUE for _ in range(copies)]
    random.Random(seed).shuffle(stream)
    return stream


def jobs_for(workload: str, seed: int) -> list[list[str]]:
    if workload == "verify":
        return [list(j) for j in VERIFY_JOBS]
    if workload == "closed":
        return [list(j) for j in CLOSED_JOBS]
    if workload == "requests":
        return requests_stream(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def all_distinct_jobs() -> list[list[str]]:
    """Every job any workload can run, plus the set-up request, each once."""
    seen, out = set(), []
    for argv in [SETUP_ARGV] + VERIFY_JOBS + CLOSED_JOBS + [a for a, _ in REQUEST_CATALOGUE]:
        key = job_key(argv)
        if key not in seen:
            seen.add(key)
            out.append(list(argv))
    return out


# -- references ----------------------------------------------------------------


def job_key(argv) -> str:
    return json.dumps(list(argv))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(ref: dict | None, code, stdout: str) -> bool:
    """True when a job's exit code and stdout both match its reference.

    ``code`` is the exit status, or a string naming an uncaught exception,
    which never matches.  A job without a reference never matches either.
    """
    return ref is not None and code == ref["exit"] and digest(stdout) == ref["sha256"]


def load_refs(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["jobs"]
