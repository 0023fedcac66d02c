"""The batch workload's serving process: a user's batch job.

It loads the bundle into an in-process ``AnnotationService`` (several
times, to time set-up), runs one unmeasured warm-up round on tables of its
own, then runs whole rounds of fixed-size ``annotate_batch`` calls until
the measured time reaches ``--seconds``.  Every round annotates fresh
tables (``inputs.batch_round`` of the seed and the round index) with a
freshly loaded service, both made before the round's clock starts, so
each round runs cold: no table and no mention of it has been seen by the
service yet.  It reports timings and every answer as
JSON; the benchmark process regenerates the tables and checks the answers.

    python perfbench/batch_job.py --bundle DIR --seed 1 --out FILE \
        --seconds 10 --loads 15 --round-tables 640 --warmup-tables 160 --call-tables 16
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--loads", type=int, required=True)
    parser.add_argument("--round-tables", type=int, required=True)
    parser.add_argument("--warmup-tables", type=int, required=True)
    parser.add_argument("--call-tables", type=int, required=True)
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs, machine
    from repro.serve import AnnotationService

    world = inputs.training_resources().world

    def calls(tables):
        return [tables[lo:lo + args.call_tables]
                for lo in range(0, len(tables), args.call_tables)]

    # Each load replaces the previous service, closed and released first,
    # so only one bundle is ever in memory (as in a user's batch job).
    setup_s = []
    service = None
    for _ in range(args.loads):
        if service is not None:
            service.close()
            service = None
        start = time.perf_counter()
        service = AnnotationService.load(args.bundle)
        setup_s.append(time.perf_counter() - start)

    warmup = inputs.batch_round(world, args.seed, 0, args.warmup_tables, warmup=True)
    for call in calls(warmup):  # not measured
        service.annotate_batch(call)

    latencies: list[list[float]] = []
    windows: list[tuple[float, float]] = []
    answers: list[list[list[str] | None]] = []
    failed = 0
    cpu_before = machine.cpu_times()
    process_cpu_before = machine.cpu_seconds([os.getpid()])
    measured = 0.0
    while measured < args.seconds:
        # A round is one batch job over a corpus of its own: a fresh service,
        # whose linker has met none of the round's mentions yet.
        service.close()
        service = None
        service = AnnotationService.load(args.bundle)
        tables = inputs.batch_round(world, args.seed, len(windows), args.round_tables)
        latencies.append([])
        answers.append([])
        round_start = time.perf_counter()
        for call in calls(tables):
            start = time.perf_counter()
            try:
                result = service.annotate_batch(call)
            except Exception:  # noqa: BLE001 - counted as a failed operation
                traceback.print_exc()
                failed += 1
                result = [None] * len(call)
            latencies[-1].append(time.perf_counter() - start)
            answers[-1].extend(result)
        windows.append((round_start, time.perf_counter()))
        measured += windows[-1][1] - round_start
    cpu_after = machine.cpu_times()
    pid = os.getpid()
    serving_cpu_s = machine.cpu_seconds([pid]) - process_cpu_before
    report = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "windows": windows,
        "answers": answers,
        "failed": failed,
        "peak_rss_mb": machine.peak_rss_mb([pid]),
        "threads": machine.threads([pid]),
        "serving_cpu_s": serving_cpu_s,
        "steal_share": machine.steal_share(cpu_before, cpu_after),
        "loadavg": machine.loadavg(),
    }
    service.close()
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
