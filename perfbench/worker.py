"""One benchmark iteration in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED SPAWNED TRACE CHECK

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, imports and input
generation.  With ``TRACE`` 1 the layer wrappers are installed; with
``CHECK`` 1 every answer is checked after the timed section.  Prints one
JSON object on stdout.

The worker also times a short fixed reference computation, the probe:
once before it imports the package, between answers whenever
``PROBE_EVERY_S`` have passed, and once after the timed section.  Other
tenants of a shared machine slow whole stretches of a run by up to twice;
the parent divides this iteration's times by the mean probe to take that
out.  Probe time is left out of every reported time.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time

REFERENCE_PATH = 20
PROBE_EVERY_S = 0.2


def reference_s() -> float:
    """Seconds taken by a fixed search that uses no code of the package.

    Memoized minimax of a simple removal game on a path of
    ``REFERENCE_PATH`` vertices over bitmasks: the same kind of interpreter
    work (dicts, tuples, integer bit operations, calls) as the solvers.  The
    collector is off so that the package's heap does not change the figure.
    """
    memo: dict = {}

    def score(alive: int, black: bool) -> int:
        key = (alive, black)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = None
        rest = alive
        while rest:
            low = rest & -rest
            rest ^= low
            if ((low.bit_length() - 1) % 2 == 0) != black:
                continue
            removed = low | ((low << 1) | (low >> 1)) & alive
            gain = removed.bit_count()
            val = (gain if black else -gain) + score(alive & ~removed, not black)
            if best is None or (val > best if black else val < best):
                best = val
        memo[key] = 0 if best is None else best
        return memo[key]

    full = (1 << REFERENCE_PATH) - 1
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        score(full, True)
        score(full, False)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Probes:
    """Reference timings taken now and then, and the time they used."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.last = time.monotonic()

    def probe(self) -> None:
        wall, cpu = time.monotonic(), time.process_time()
        self.samples.append(reference_s())
        self.last = time.monotonic()
        self.wall_s += self.last - wall
        self.cpu_s += time.process_time() - cpu

    def between_answers(self) -> None:
        if time.monotonic() - self.last >= PROBE_EVERY_S:
            self.probe()


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    workload, seed, spawned, traced, check = argv
    probes = Probes()
    probes.probe()
    import workloads

    make, run, check_answers = workloads.WORKLOADS[workload]
    inputs = make(int(seed))
    tracer = None
    if traced == "1":
        from layers import Tracer

        tracer = Tracer()
        tracer.install(workloads.MODULES)
    rec = workloads.Recorder(probes.between_answers)
    ctx: dict = {"facts": {}}
    with workloads.scratch_dir() as tmpdir:
        ctx["tmpdir"] = tmpdir
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.monotonic()
        setup_probe_wall, setup_probe_cpu = probes.wall_s, probes.cpu_s
        probes.last = start
        run(inputs, rec, ctx)
        end = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_SELF)
    section_probe_wall = probes.wall_s - setup_probe_wall
    section_probe_cpu = probes.cpu_s - setup_probe_cpu
    probes.probe()
    result = {
        "reference_s": sum(probes.samples) / len(probes.samples),
        "probes": len(probes.samples),
        "setup_s": start - float(spawned) - setup_probe_wall,
        "wall_s": end - start - section_probe_wall,
        "cpu_s": _cpu_s(after) - _cpu_s(before) - section_probe_cpu,
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "answers": rec.answers,
        "facts": ctx["facts"],
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"], result["missing"] = tracer.layer_metrics(
            workloads.MODULES, ctx["facts"]
        )
    if check == "1":
        result["failures"] = check_answers(inputs, rec.answers, ctx, workloads.load_pinned())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
