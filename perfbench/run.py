"""Benchmark entry point: one workload, one seed, one line of results.

Usage::

    python3 perfbench/run.py --workload twin_fig9 --seed 1 --seconds 16 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the workload with
no instrumentation and prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` runs a shorter clean pass and then a
traced pass of the same seed, checks that their deterministic counters are
identical, writes the spans under ``perfbench/out/`` and prints every
per-layer metric, including the traced-vs-clean host-time ratio. The last
line of standard output is always the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
stamps the measurement conditions.

Exit codes: 0 on a valid run, 1 when a correctness or determinism check
fails (the result line then says ``"correct": false``), 2 when the
benchmark cannot run here (for example, no ``src/`` tree to measure).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    OUT,
    ROOT,
    BenchError,
    CheckFailed,
    Outcome,
    import_repro,
    median,
    same_counts,
    stamp,
)

WORKLOADS = ("twin_fig9", "twin_chaos", "archive_putget", "serve_http")
#: Share of ``--seconds`` the clean pass of a traced run measures for.
TRACED_CLEAN_SHARE = 0.5
MEMORY_PASS_TIMEOUT_S = 120


def load_spec() -> Dict[str, List[dict]]:
    """The metric lists of ``BENCHMARK.json`` (names, units)."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"no {spec_path}")
    return json.loads(spec_path.read_text())


def workload(name: str):
    """The workload object; importing it imports ``repro``."""
    if name in ("twin_fig9", "twin_chaos"):
        from twin import WORKLOADS as table
    elif name == "archive_putget":
        from archive import WORKLOADS as table
    else:
        from serve import ServeWorkload

        table = {"serve_http": ServeWorkload()}
    return table[name]


def memory_pass(name: str, seed: int) -> float:
    """Peak RSS (MB) of a fresh process running one repetition."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            name,
            "--seed",
            str(seed),
            "--memory-pass",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=MEMORY_PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"memory pass failed ({proc.returncode}): {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"])


def clean_run(name: str, wl, seed: int, seconds: float) -> Outcome:
    out = wl.clean(seed, seconds)
    if "peak_rss_mb" not in out.metrics:
        out.metrics["peak_rss_mb"] = memory_pass(name, seed)
    return out


def traced_run(name: str, wl, seed: int, seconds: float) -> Outcome:
    """A short clean pass, then a traced pass; per-layer metrics."""
    clean_seconds = seconds * TRACED_CLEAN_SHARE
    if name == "serve_http":
        clean = wl.clean(seed, clean_seconds, spawns=1)
        traced, _summary = wl.traced(seed, clean_seconds)
    else:
        clean = wl.clean(seed, clean_seconds)
        traced, recorder = wl.traced(seed)
        recorder.write(OUT / f"{name}-seed{seed}-spans.jsonl")
        traced.notes["spans"] = len(recorder.spans)
    same_counts(f"{name} clean vs traced", clean.counts, traced.counts)
    metrics = dict(clean.metrics)
    metrics.update(traced.metrics)
    # Both passes time the same operations the same way.
    metrics["trace.overhead_ratio"] = median(traced.host_seconds) / median(clean.host_seconds)
    metrics["trace.spans"] = traced.notes["spans"]
    traced.metrics = metrics
    traced.attempted += clean.attempted
    traced.failed += clean.failed
    traced.notes["clean_repetitions"] = clean.notes.get("repetitions", 1)
    return traced


def result_line(spec_metrics: List[dict], out: Outcome, correct: bool) -> dict:
    """The contract's result object, metrics in ``BENCHMARK.json`` order.

    Per-layer metrics a workload does not exercise read 0 (the layer did
    no work there).
    """
    metrics = {}
    for entry in spec_metrics:
        value = out.metrics.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    return {
        "correct": correct,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        import_repro()
        wl = workload(args.workload)
        if args.memory_pass:
            wl.memory_unit(args.seed)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            print(json.dumps({"peak_rss_mb": peak}))
            return 0
        spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
        correct = True
        try:
            if args.trace:
                out = traced_run(args.workload, wl, args.seed, args.seconds)
            else:
                out = clean_run(args.workload, wl, args.seed, args.seconds)
        except CheckFailed as failure:
            print(f"check failed: {failure}", file=sys.stderr)
            correct = False
            out = Outcome(attempted=1, failed=1)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(),
        "notes": out.notes,
        "counts": out.counts,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(spec_metrics, out, correct)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
