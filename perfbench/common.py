"""Shared helpers of the perfbench benchmark: paths, inputs, statistics, output.

The benchmark drives the program from the checkout it sits in: ``src/``
holds the package and ``benchmarks/bench_meta.py`` the provenance stamp.
Nothing here imports :mod:`repro` at module level, so ``run.py`` can
report a missing source tree cleanly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import statistics
import sys
from typing import Iterable, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
#: run artifacts (spans, full results, exact-count ledger); gitignored.
OUT = ROOT / ".perfbench_out"

#: the paper-scale learning problems, each at its canonical generator seed.
LEARN_DATASETS = ("carcinogenesis", "krki", "mesh")
PAPER_SEED = 0
#: the serving workload publishes these sequential theories.
SERVED_DATASETS = ("carcinogenesis", "mesh")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source tree, bad arguments)."""


def add_source_path() -> None:
    """Make ``repro`` and ``bench_meta`` importable from this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no source tree at {SRC}: run from the root of a repository checkout")
    if not (ROOT / "benchmarks" / "bench_meta.py").is_file():
        raise BenchError("benchmarks/bench_meta.py is missing from the checkout")
    for p in (str(SRC), str(ROOT / "benchmarks")):
        if p not in sys.path:
            sys.path.insert(0, p)


def child_env() -> dict:
    """Environment for program subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def source_digest() -> str:
    """SHA-256 over every file of ``src/``: identifies the code measured.

    The checkout a benchmark runs in is not a git repository, so this is
    the commit identity the exact-count ledger keys on.
    """
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# -- golden theories ------------------------------------------------------------


def golden_path(dataset: str, scale: str, seed: int, algo: str) -> pathlib.Path:
    return GOLDEN / f"{dataset}-{scale}-s{seed}-{algo}.pl"


def golden_text(dataset: str, scale: str, seed: int, algo: str) -> str:
    path = golden_path(dataset, scale, seed, algo)
    if not path.is_file():
        raise BenchError(f"golden theory {path.name} is missing")
    return path.read_text()


def golden_theory(dataset: str, scale: str, seed: int, algo: str):
    from repro.logic.clause import Theory
    from repro.logic.io import read_program

    return Theory(read_program(golden_text(dataset, scale, seed, algo)))


def theory_text(theory) -> str:
    from repro.logic.io import theory_to_prolog

    return theory_to_prolog(theory)


# -- statistics -----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample.

    Kept here rather than taken from ``repro.obs.metrics`` so that a change
    to the program cannot change how the benchmark reads its results.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    k = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[k - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mib_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mib_of(pid: int) -> Optional[float]:
    """VmHWM of a live process, in MiB (None once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


# -- output ---------------------------------------------------------------------


def provenance(trace: bool, layer_source: str) -> dict:
    """``bench_environment()`` plus nproc and where the layer numbers came from."""
    from bench_meta import bench_environment

    meta = bench_environment(smoke=False)
    meta["nproc"] = len(os.sched_getaffinity(0))
    meta["src_sha256"] = source_digest()
    meta["traced"] = bool(trace)
    meta["layer_source"] = layer_source
    return meta


def emit(workload: str, seed: int, trace: bool, result: dict) -> None:
    """Print every metric by name and unit, save the full record, and
    print the one-line summary as the last line of stdout."""
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, m in result.get("details", {}).items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for err in result.get("errors", [])[:20]:
        print(f"! {err}")
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=seed)
    (OUT / f"{workload}-s{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n"
    )
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(summary), flush=True)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# -- exact-count ledger ---------------------------------------------------------


def check_exact_counts(key: str, counts: dict) -> list[str]:
    """Compare deterministic counters with earlier runs of the same code.

    The ledger lives in the checkout (gitignored) and holds one entry per
    source digest, so runs of two commits can alternate in one checkout
    and each is still compared with earlier runs of its own code.
    Returns the mismatches; the first run of a key records its counts.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "exact_counts.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    entry = ledger.setdefault(source_digest(), {})
    known = entry.get(key)
    if known is None:
        entry[key] = counts
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return []
    return [
        f"exact count {key}:{name} = {counts.get(name)} differs from an earlier run ({known.get(name)})"
        for name in sorted(set(known) | set(counts))
        if known.get(name) != counts.get(name)
    ]
