"""Self-test of the benchmark harness (about a minute on two cores).

    python3 perfbench/selftest.py

1. Every workload runs on a few requests (``--smoke``), untraced and traced;
   the last line has exactly the four result keys, the run is correct with
   no failed operation, and the metric names and units are those of
   ``BENCHMARK.json``.
2. The output checks pass on true answers and fail when one label of one
   answer is altered, to another label of the vocabulary (re-annotation
   identity) or to a label outside it (shape check).
3. In a directory that holds only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(condition: bool, detail) -> None:
    if not condition:
        raise AssertionError(detail)


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workloads(spec: dict) -> None:
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run_benchmark(ROOT, workload, trace)
            expect(done.returncode == 0, f"{workload} trace={trace}:\n{done.stderr[-3000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == RESULT_KEYS, result.keys())
            expect(result["correct"] is True and result["failed"] == 0, result)
            expect(result["attempted"] >= 1, result)
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            expect(units == expected[trace], (workload, trace, units))
            print(f"ok  {workload} trace={trace}: {result['attempted']} operations")


def check_output_checks() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, inputs
    from perfbench.run import train_bundle
    from repro.serve import AnnotationService

    work = ROOT / ".perfbench-work" / "selftest-checks"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        world, _, train_labels, vocabulary = train_bundle(
            "batch_cold_semtab", work / "bundle")
        tables = inputs.batch_round(world, 3, 0, 8)
        with AnnotationService.load(work / "bundle") as service:
            answers = service.annotate_batch(tables)
        answered = [checks.Answered(t, a) for t, a in zip(tables, answers)]
        report = checks.run_all(answered, [], train_labels, vocabulary, work / "bundle", 3)
        expect(report["ok"], report)

        original = answered[5].predictions[0]
        other = next(label for label in sorted(vocabulary) if label != original)
        answered[5].predictions[0] = other
        report = checks.run_all(answered, [], train_labels, vocabulary, work / "bundle", 3)
        expect(not report["ok"] and report["reannotation_errors"], report)
        answered[5].predictions[0] = "no such type"
        report = checks.run_all(answered, [], train_labels, vocabulary, work / "bundle", 3)
        expect(not report["ok"] and report["shape_errors"], report)
        print("ok  output checks pass on true answers and catch one altered label")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_without_program(spec: dict) -> None:
    bare = ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark(bare, spec["workloads"][0]["name"], 0)
        expect(done.returncode != 0, done.stdout)
        expect('"metrics"' not in done.stdout, done.stdout)
        print("ok  without the program the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_without_program(spec)
    check_workloads(spec)
    check_output_checks()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
