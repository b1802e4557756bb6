"""Shared plumbing of the benchmark: locating the source tree, statistics,
the run stamp and the result record every workload returns.

Nothing here imports :mod:`repro`; :func:`import_repro` is the single place
the package under test is put on ``sys.path``, and it refuses to fall back
to any other installed copy.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traced runs write their spans (ignored by git).
OUT = Path(__file__).resolve().parent / "out"
#: Repetitions a clean pass makes even when ``--seconds`` runs out first,
#: so every per-operation median has at least three samples.
MIN_REPETITIONS = 3


#: The speed probe's kernel time on an uncontended core of the machine the
#: benchmark was written on (2-vCPU Xeon VM, Python 3.11).
PROBE_REF_S = 4.0e-4


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, server died, ...)."""


class CheckFailed(AssertionError):
    """A correctness or determinism check failed: the run is not valid."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no source tree at {SRC}: nothing to benchmark")
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"imported repro from {where}, not from {SRC}")
    return repro


def child_env() -> Dict[str, str]:
    """Environment for child processes: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _probe_kernel() -> None:
    table: Dict[int, int] = {}
    for i in range(3000):
        table[i % 997] = table.get(i % 997, 0) + i


def probe_scale() -> float:
    """Reference speed over the host's speed right now (fastest of three).

    On a shared host the same work can take half again as long for tens
    of seconds at a time. Host times taken beside a probe are multiplied
    by this factor, which reports them as if run at the reference speed:
    a change to the program moves the timed work and not the probe, which
    runs only pure-Python dict arithmetic.
    """
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _probe_kernel()
        best = min(best, perf_counter() - start)
    return PROBE_REF_S / best


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise BenchError("median of no values")
    return float(statistics.median(values))


def position_medians(runs: Sequence[Sequence[float]]) -> List[float]:
    """Median across repetitions of each operation's time.

    Every repetition of a seed performs the same operations in the same
    order, so ``runs[r][i]`` is operation ``i`` timed in repetition ``r``.
    Taking each operation's median before aggregating filters noise that
    hits one stretch of one repetition (another tenant of the machine, a
    frequency dip) far better than a median of repetition totals.
    """
    lengths = {len(run) for run in runs}
    if len(lengths) != 1:
        raise CheckFailed(f"repetitions performed different operation counts: {sorted(lengths)}")
    return [float(statistics.median(times)) for times in zip(*runs)]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    if not values:
        raise BenchError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py``: names the measured code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    """The checkout's commit, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def stamp() -> Dict[str, object]:
    """Measurement conditions recorded beside every result."""
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


@dataclass
class Outcome:
    """What one pass of a workload measured and checked.

    ``metrics`` maps metric name to value; ``counts`` holds the
    deterministic work counters that must repeat exactly between passes
    of one seed; ``spans`` counts the spans a traced pass recorded.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    host_seconds: List[float] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)


def same_counts(label: str, first: Dict[str, object], second: Dict[str, object]) -> None:
    """Require two passes' shared deterministic counters to be identical."""
    shared = sorted(set(first) & set(second))
    check(bool(shared), f"{label}: no deterministic counters to compare")
    diffs = [
        f"{key}: {first[key]!r} != {second[key]!r}"
        for key in shared
        if first[key] != second[key]
    ]
    check(not diffs, f"{label}: deterministic counters differ: " + "; ".join(diffs))
