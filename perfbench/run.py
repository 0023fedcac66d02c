"""KGLink end-to-end benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload batch_cold_semtab --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The run trains a KGLink bundle on the
workload's dataset (``smoke`` profile, as Table I uses it), serves it the
way users run it, measures for ``--seconds`` seconds of whole request
rounds, checks every answer, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` re-runs the same work with spans
recorded in every process and reports the per-layer metrics instead.  The
line before it (``perfbench-info ...``) carries what is reported next to
the metrics: machine load, CPU steal, thread settings, check details.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("batch_cold_semtab", "fleet_zipf_viznet")
#: Set-ups per run; ``setup_s`` is their median.
BATCH_LOADS = 15
FLEET_SETUPS = 9
#: Fits per run; ``fit_s`` is their median (every fit is the same work).
FITS = 3
#: Requests of the fleet warm-up round (drawn from a pool of their own).
WARMUP_REQUESTS = 64
#: Keep-alive connections of the load generator.  One: the serving
#: processes already keep both cores of the 2-core VM busy (OpenBLAS's
#: second thread spins), and a second client made p90 latency follow
#: hypervisor steal far more than it follows the program.
CONNECTIONS = 1
CHILD_TIMEOUT_S = 150.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny rounds and one set-up (the harness self-test)")
    return parser.parse_args(argv)


def child_env(trace_dir: Path | None) -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if trace_dir is not None:
        paths.insert(0, str(ROOT / "perfbench" / "tracehook"))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def percentile_ms(latencies: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` cut points) in ms."""
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


# --------------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------------- #
def train_bundle(workload: str, bundle_dir: Path, fits: int = 1):
    """Fit KGLink ``fits`` times on the workload's training split; save the last fit.

    Returns the world, the median fit time, the training labels and the
    label vocabulary.
    """
    from perfbench import inputs
    from repro.experiments.runners import build_annotator

    resources = inputs.training_resources()
    splits = resources.splits(inputs.DATASET_OF[workload])
    validation = splits.validation if len(splits.validation.tables) else None
    fit_s = []
    annotator = None
    for _ in range(fits):
        if annotator is not None:
            annotator.close()
            annotator = None
        annotator = build_annotator("KGLink", resources, resources.profile)
        start = time.perf_counter()
        annotator.fit(splits.train, validation)
        fit_s.append(time.perf_counter() - start)
    service = annotator.into_service()
    service.save(bundle_dir)
    service.close()
    annotator.close()
    train_labels = [column.label for table in splits.train.tables
                    for column in table.columns if column.label is not None]
    return resources.world, fit_s, train_labels, set(annotator.label_vocabulary)


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
def run_batch(world, seed, seconds, smoke, bundle_dir, work, trace_dir):
    from perfbench import inputs
    from perfbench.checks import Answered

    round_tables, warmup_tables = ((64, 16) if smoke else
                                   (inputs.BATCH_ROUND_TABLES, inputs.BATCH_WARMUP_TABLES))
    out_file = work / "batch.json"
    command = [sys.executable, str(ROOT / "perfbench" / "batch_job.py"),
               "--bundle", str(bundle_dir), "--seed", str(seed),
               "--out", str(out_file), "--seconds", str(seconds),
               "--loads", str(1 if smoke else BATCH_LOADS),
               "--round-tables", str(round_tables), "--warmup-tables", str(warmup_tables),
               "--call-tables", str(inputs.BATCH_CALL_TABLES)]
    subprocess.run(command, env=child_env(trace_dir), check=True, timeout=CHILD_TIMEOUT_S,
                   stdin=subprocess.DEVNULL)
    report = json.loads(out_file.read_text())
    # The batch job drew each round's tables from the seed; drawing them
    # again here gives the generator's labels to score its answers against.
    answered = [Answered(table, predictions)
                for index, round_answers in enumerate(report["answers"])
                for table, predictions in zip(
                    inputs.batch_round(world, seed, index, round_tables), round_answers)
                if predictions is not None]
    return {
        "attempted": sum(len(lat) for lat in report["latencies_s"]),
        "failed": report["failed"],
        "round_rates": [round_tables / (hi - lo) for lo, hi in report["windows"]],
        "measured_s": sum(hi - lo for lo, hi in report["windows"]),
        "round_latencies": report["latencies_s"],
        "windows": report["windows"],
        "setup": report["setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "answered": answered,
        "inconsistent": [],
        "info": {"rounds": len(report["windows"]), "round_tables": round_tables,
                 "serving_threads": report["threads"],
                 "serving_cpu_s": report["serving_cpu_s"],
                 "steal_share": report["steal_share"], "loadavg": report["loadavg"]},
    }


def run_fleet(world, seed, seconds, smoke, bundle_dir, work, trace_dir):
    from perfbench import inputs, loadgen, machine
    from perfbench.checks import Answered
    from perfbench.servers import HOST, Server

    env = child_env(trace_dir)
    pool, requests = (24, 32) if smoke else (inputs.ZIPF_POOL_TABLES,
                                             inputs.ZIPF_ROUND_REQUESTS)
    rounds: list = []

    def make_round(index: int) -> list[bytes]:
        zipf = inputs.zipf_round(world, seed, index, pool, requests)
        rounds.append(zipf)
        return [loadgen.post("/annotate", json.dumps(
            inputs.table_payload(zipf.pool[i], with_id=False)).encode())
            for i in zipf.sequence]

    warm = inputs.zipf_round(world, seed, 0, pool, WARMUP_REQUESTS, warmup=True)
    warmup = [loadgen.post("/annotate", json.dumps(
        inputs.table_payload(warm.pool[i], with_id=False)).encode()) for i in warm.sequence]

    setup = []
    server = None
    # The fleet hands each request from process to process and idles in its
    # coalescing window, so its CPUs sleep and wake all the time: keep them
    # awake while it serves (see machine.keep_awake).
    with machine.keep_awake() as awake:
        try:
            for attempt in range(1 if smoke else FLEET_SETUPS):
                if server is not None:
                    server.stop()
                server = Server(bundle_dir, env, work / f"fleet-{attempt}.log")
                setup.append(server.start())
            pids = server.pids()
            cpu_before, serving_cpu = machine.cpu_times(), machine.cpu_seconds(pids)
            results = asyncio.run(loadgen.drive(HOST, server.port, warmup, make_round,
                                                seconds, CONNECTIONS))
            cpu_after = machine.cpu_times()
            serving_cpu = machine.cpu_seconds(pids) - serving_cpu
            peak_rss = machine.peak_rss_mb(pids)
            serving_threads = machine.threads(pids)
            stats = server.stats()
        finally:
            if server is not None:
                server.stop()
        awake_loops = sum(loop.poll() is None for loop in awake)

    # Each distinct table of a round is scored once; its repeats must carry
    # the same answer (an annotation depends only on the table's content).
    answered, errors, inconsistent = [], [], []
    for round_index, (zipf, result) in enumerate(zip(rounds, results)):
        errors.extend(result.errors)
        first: dict[int, list[str]] = {}
        for index, predictions in zip(zipf.sequence, result.answers):
            if predictions is None:
                continue
            if index not in first:
                first[index] = predictions
                answered.append(Answered(zipf.pool[index], predictions))
            elif predictions != first[index]:
                inconsistent.append(f"round {round_index} table {index}: "
                                    f"{first[index]} then {predictions}")
    windows = [result.window for result in results]
    return {
        "attempted": sum(len(result.latencies) for result in results),
        "failed": len(errors),
        "round_rates": [sum(a is not None for a in result.answers)
                        / (result.window[1] - result.window[0]) for result in results],
        "measured_s": sum(hi - lo for lo, hi in windows),
        "round_latencies": [result.latencies for result in results],
        "windows": windows,
        "setup": setup,
        "peak_rss_mb": peak_rss,
        "answered": answered,
        "inconsistent": inconsistent,
        "info": {"rounds": len(results), "round_requests": requests, "round_pool": pool,
                 "connections": CONNECTIONS, "awake_loops": awake_loops,
                 "repeat_share": statistics.fmean(z.repeat_share for z in rounds),
                 "errors": errors[:5], "serving_threads": serving_threads,
                 "serving_cpu_s": serving_cpu,
                 "steal_share": machine.steal_share(cpu_before, cpu_after),
                 "loadavg": machine.loadavg(), "server_stats": stats},
    }


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, machine, tracing

    # SIGTERM unwinds through the finally blocks that stop servers and
    # remove the work directory.  A second SIGTERM is ignored: raised inside
    # that clean-up, it would abandon a server still draining.
    def terminate(signum, frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)

    tracer = tracing.install(role="bench") if args.trace else None
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_dir = work / "spans" if args.trace else None
    try:
        work.mkdir(parents=True)
        if trace_dir is not None:
            trace_dir.mkdir()
        bundle_dir = work / "bundle"
        world, fit_s, train_labels, vocabulary = train_bundle(
            args.workload, bundle_dir, 1 if args.smoke else FITS)
        if args.workload == "batch_cold_semtab":
            run = run_batch(world, args.seed, args.seconds, args.smoke, bundle_dir,
                            work, trace_dir)
        else:
            run = run_fleet(world, args.seed, args.seconds, args.smoke, bundle_dir,
                            work, trace_dir)
        spans = None
        if tracer is not None:
            spans = tracer.rows() + tracing.load_rows(trace_dir)
            tracer.reset()
        report = checks.run_all(run["answered"], run["inconsistent"], train_labels,
                                vocabulary, bundle_dir, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    # Every figure of the window is a median over its rounds, so one round
    # slowed by the machine moves it little.
    tables_per_s = statistics.median(run["round_rates"])
    round_p50 = [statistics.median(lat) * 1e3 for lat in run["round_latencies"]]
    round_p90 = [percentile_ms(lat, 90) for lat in run["round_latencies"]]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": run["attempted"], "failed": run["failed"],
        "measured_s": run["measured_s"], "tables_per_s": tables_per_s,
        "round_tables_per_s": run["round_rates"], "round_p50_ms": round_p50,
        "round_p90_ms": round_p90,
        "setup_samples_s": run["setup"], "fit_samples_s": fit_s,
        "threads": machine.thread_settings(),
        **run["info"],
        "checks": report,
    }
    if spans is not None:
        metrics, info["trace_attribution"] = tracing.layer_metrics(spans, run["windows"])
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in tracing.PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": (statistics.median(run["setup"]), "s"),
            "fit_s": (statistics.median(fit_s), "s"),
            "tables_per_s": (tables_per_s, "tables/s"),
            "latency.p50_ms": (statistics.median(round_p50), "ms"),
            "latency.p90_ms": (statistics.median(round_p90), "ms"),
            "accuracy": (report["accuracy"], "%"),
            "weighted_f1": (report["weighted_f1"], "%"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        result_metrics = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in values.items()}
    print("perfbench-info " + json.dumps(info, default=str), flush=True)
    print(json.dumps({"correct": report["ok"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": result_metrics}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
