"""Self-test of the benchmark on tiny scenes: ``python3 perfbench/run.py --self-test``.

Runs a 64x64 classify workload and a 128x128 single-look similarity
workload (64x64 after multilook) untraced and traced, prints every metric
name with its unit and value, checks that the metric and workload names
agree with BENCHMARK.json, and checks that deliberately corrupted
artifacts are counted as failed operations. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run
from workloads import DEFAULT_SEED, ROOT, WORKLOADS, Workload, demo_spec

TINY = (
    Workload("tiny_classify", "classify", "T3", 64, ()),
    Workload("tiny_similarity", "similarity", "S2", 128, ("--multilook", "2", "2"), 2),
)


class Report:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        self.failures += not ok


def check_manifest(report: Report) -> None:
    report.expect(DEFAULT_SEED == demo_spec().seed, "the default seed is the demo spec's seed")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    report.expect(
        sorted(w["name"] for w in manifest["workloads"]) == sorted(WORKLOADS),
        "BENCHMARK.json workloads match workloads.WORKLOADS",
    )
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in manifest[key]}
        report.expect(declared == units, f"BENCHMARK.json {key} names and units match run.py")


def check_runs(report: Report, workload: Workload, work: Path) -> None:
    for trace in (False, True):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        result, details = run.run(workload, DEFAULT_SEED, 0.0, trace, work)
        label = f"{workload.name} trace={int(trace)}"
        for name, metric in result["metrics"].items():
            print(f"  {label} {name} = {metric['value']!r} {metric['unit']}")
        units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
        report.expect(
            {n: m["unit"] for n, m in result["metrics"].items()} == units,
            f"{label} reports every metric with its unit",
        )
        report.expect(
            result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{label} passes its output checks "
            f"({[op['reason'] for op in details['ops'] if not op['ok']]})",
        )
        if trace:
            report.expect(
                details.get("tracing", {}).get("stress_checks", {}).get("covered_fraction", False),
                f"{label} spans cover at least {run.MIN_COVERED_FRACTION:.0%} of the traced wall",
            )


def _truncate(path: Path) -> None:
    with open(path, "r+b") as handle:
        handle.truncate(path.stat().st_size // 2)


def _raise_last_objective(path: Path) -> None:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[-1]["objective"] = records[0]["objective"] + abs(records[0]["objective"]) + 1.0
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _break_gamma(path: Path) -> None:
    import numpy as np

    values = np.fromfile(path, dtype="<f4")
    values[0] += 0.5
    values.tofile(path)


CORRUPTIONS = {
    "classify": (
        ("truncated labels.bin", lambda out: _truncate(out / "labels.bin")),
        ("missing map.ppm", lambda out: os.remove(out / "map.ppm")),
        ("rising objective", lambda out: _raise_last_objective(out / "report.jsonl")),
    ),
    "similarity": (
        ("truncated gamma raster", lambda out: _truncate(out / "gamma_dihedral.f32")),
        ("gamma not summing to 1", lambda out: _break_gamma(out / "gamma_trihedral.f32")),
        ("missing f raster", lambda out: os.remove(out / "f_random_volume.f32")),
    ),
}


def check_corruptions(report: Report, workload: Workload, work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with run.Bench(workload, DEFAULT_SEED, work) as bench:
        bench.setup(1)
        bench.reference()
        report.expect(bench.ops[-1]["ok"], f"{workload.name} reference run passes")
        for what, corrupt in CORRUPTIONS[workload.command]:
            sample = bench.op()
            report.expect(sample["ok"], f"{workload.name} untouched operation passes")
            corrupt(work / "op")
            bad = bench.check(work / "op", {"exit_code": 0, "wall_s": 0.0, "peak_rss_mib": 0.0})
            report.expect(not bad["ok"], f"{workload.name} {what} counts as failed ({bad['reason']})")
    failed = sum(not op["ok"] for op in bench.ops)
    report.expect(
        failed == len(CORRUPTIONS[workload.command]),
        f"{workload.name} failed count equals the corrupted operations ({failed})",
    )


def check_rss_isolation(report: Report, work: Path) -> None:
    """A child's peak RSS must not include the benchmark's own memory."""
    import numpy as np

    work.mkdir(parents=True, exist_ok=True)
    ballast = np.ones(2**25)  # 256 MiB held by the benchmark process
    with run.Bench(TINY[0], DEFAULT_SEED, work) as bench:
        sample = bench.spawner.run([sys.executable, "-c", "pass"], work / "rss.log")
    del ballast
    report.expect(
        sample["exit_code"] == 0 and sample["peak_rss_mib"] < 128,
        f"a child started while the benchmark holds 256 MiB reports its own peak RSS "
        f"({sample['peak_rss_mib']:.1f} MiB)",
    )


def main() -> int:
    report = Report()
    check_manifest(report)
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        check_rss_isolation(report, work)
        for workload in TINY:
            check_runs(report, workload, work)
            check_corruptions(report, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(f"self-test: {report.failures} failure(s)")
    return 1 if report.failures else 0
