"""Benchmark of the exact answers: tables, board scores, temperatures, means.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every iteration is a fresh interpreter
(``worker.py``), one at a time, because the package keeps module-level
caches that would make a second in-process repeat time a warm cache.
Iterations repeat until ``--seconds`` have passed (at least
``MIN_ITERATIONS``); every metric is the median over iterations.  Times are
reported at a fixed machine speed: each iteration also times a short
reference computation now and then (``worker.reference_s``), and its times
are scaled by ``REFERENCE_NOMINAL_S`` over the mean of those, so that other
tenants slowing the machine do not move them.  The record keeps the
unscaled values.  The first iteration checks each answer against an
independent reference or a pinned value, and later iterations must give
the same answers.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced iterations alternate; the last line holds
the per-layer metrics of the traced ones and the tracing overhead.  The
line before it is the full record: seed, machine, answer counts, failures,
per-iteration values and any per-layer metric that could not be measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import OVERHEAD_METRIC, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("segtable", "boards", "fragments", "thermo")
MIN_ITERATIONS = 3
# A run must end within 180 s; no worker may start after this point.
RUN_LIMIT_S = 150.0
# The reference computation's time on a quiet machine; times are scaled
# to it.  Changing it shifts every time, so it stays fixed.
REFERENCE_NOMINAL_S = 0.02
TAIL_LADDER = (75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


class WorkerError(RuntimeError):
    pass


def _rank(p: float, count: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``count`` values."""
    return max(1, math.ceil(round(p * count / 100.0, 9)))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least ten answers beyond it.

    None when even the lowest rung has fewer than ten answers beyond it,
    in which case the tail is not reported.
    """
    best = None
    for p in TAIL_LADDER:
        if count - _rank(p, count) >= TAIL_BEYOND:
            best = p
    return best


def tally(iterations: list[dict]) -> tuple[int, int, list[str]]:
    """Answers attempted and failed over all iterations.

    The first iteration carries the check results.  An answer fails when it
    raised, failed its check, or differs from the checked iteration.
    """
    reference = iterations[0]["answers"]
    failures = iterations[0]["failures"]
    attempted = failed = 0
    messages = [m for m in failures if m]
    for it in iterations:
        answers = it["answers"]
        attempted += max(len(answers), len(reference))
        failed += abs(len(answers) - len(reference))
        for a, ref, msg in zip(answers, reference, failures):
            if a["error"] or msg or a["label"] != ref["label"] or a["value"] != ref["value"]:
                failed += 1
                if a["error"]:
                    messages.append(f"{a['label']}: {a['error']}")
    return attempted, failed, messages


def speed(it: dict) -> float:
    """How many times slower than nominal the machine ran this iteration."""
    return it["reference_s"] / REFERENCE_NOMINAL_S


def end_to_end(untraced: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics (medians over iterations, times at nominal
    machine speed) and tail facts."""
    def scaled(key):
        return statistics.median(it[key] / speed(it) for it in untraced)

    metrics = {
        "wall_s": (scaled("wall_s"), "s"),
        "cpu_s": (scaled("cpu_s"), "s"),
        "setup_s": (scaled("setup_s"), "s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in untraced), "MB"),
    }
    # Each answer's latency is its median over iterations, which also
    # discards a burst of contention that covered only part of an iteration.
    latencies = [
        statistics.median(it["answers"][i]["ms"] / speed(it) for it in untraced)
        for i in range(len(untraced[0]["answers"]))
    ]
    metrics["answer_p50_ms"] = (percentile(latencies, 50), "ms")
    tail = tail_percentile(len(latencies))
    if tail is not None:
        metrics["answer_tail_ms"] = (percentile(latencies, tail), "ms")
    return metrics, {"answer_count": len(latencies), "tail_percentile": tail}


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over traced iterations) and missing names."""
    units = metric_units()
    names = set().union(*(it["layers"] for it in traced))
    metrics = {
        name: (statistics.median(it["layers"][name] for it in traced if name in it["layers"]),
               units[name][0])
        for name in sorted(names)
    }
    overhead = (statistics.median(it["wall_s"] / speed(it) for it in traced)
                / statistics.median(it["wall_s"] / speed(it) for it in untraced))
    metrics[OVERHEAD_METRIC[0]] = (overhead, OVERHEAD_METRIC[1])
    missing = sorted(set().union(*(it["missing"] for it in traced)))
    return metrics, missing


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


def spawn(workload: str, seed: int, traced: bool, check: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    spawned = time.monotonic()
    cmd = [sys.executable, str(WORKER), workload, str(seed), repr(spawned),
           "1" if traced else "0", "1" if check else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} iteration ran past the run limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    untraced: list[dict] = []
    traced: list[dict] = []
    minimum = 2 * MIN_ITERATIONS if trace else MIN_ITERATIONS
    i = 0
    while i < minimum or time.monotonic() - start < seconds:
        if time.monotonic() > hard_deadline:
            break
        is_traced = trace and i % 2 == 1
        it = spawn(workload, seed, is_traced, check=(i == 0), deadline=hard_deadline + 25)
        (traced if is_traced else untraced).append(it)
        i += 1
    attempted, failed, messages = tally(untraced + traced)
    e2e, tail = end_to_end(untraced)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        **machine(), **tail,
        "iterations": len(untraced) + len(traced),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": messages[:20],
        "runs": {key: [it[key] for it in untraced]
                 for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "reference_s")},
        "facts": untraced[0]["facts"],
    }
    if trace:
        metrics, missing = per_layer(untraced, traced)
        record["traced_wall_s"] = [it["wall_s"] for it in traced]
        record["missing"] = missing
    else:
        metrics = e2e
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": record["metrics"]}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "bipartite_influence" / "__init__.py",
                   ROOT / "tests" / "conftest.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a checkout "
                  f"of the repository", file=sys.stderr)
            return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
