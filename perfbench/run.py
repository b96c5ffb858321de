"""geopolsar benchmark: time the CLI end to end, or trace it per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Each run builds the workload's scene from the seed (timed as ``setup_s``,
several times, median), makes one untimed reference run, then runs the
``geopolsar`` CLI as a separate process, one at a time (closed loop), until
``--seconds`` have passed and at least ``MIN_OPS`` operations were made.
Every operation's artifacts are checked; a failed check counts as a failed
operation. On a workload marked ``calibrated``, a calibration process
(calibrate.py) runs before the first and after every scene build and
operation, and the reported times are scaled by the reference calibration
time over the lower quartile of the calibration times of their phase
(set-up or operations), which cancels the drift of a shared host's speed
between runs. ``--trace 1`` adds
``TRACED_RUNS`` traced in-process runs (see traced.py) and reports the
per-layer metrics instead.

The last stdout line is the result object; the line before it holds the
details (machine facts, every sample, tracing overhead, stress checks).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from workloads import (  # noqa: E402
    CLI,
    DEFAULT_SEED,
    DEMO_SPEC,
    ROOT,
    SRC,
    WORKLOADS,
    Workload,
    child_env,
    op_args,
    setup_argv,
    truth_map,
)

SETUPS = 3  # scene builds per run; setup_s is their median
MIN_OPS = 2  # timed CLI operations per run, even past --seconds
TRACED_RUNS = 3  # traced in-process runs per --trace 1 run
CHILD_TIMEOUT_S = 150.0
CLOSE_TIMEOUT_S = 10.0
# past this many seconds of a run, start no optional operation, so that even
# a much slower program yields a result within 180 s
RUN_BUDGET_S = 120.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "mpix_per_s": "Mpix/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "accuracy": "ratio",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "scene.read_s": "s",
    "scene.read_mib": "MiB",
    "preprocess.multilook_s": "s",
    "preprocess.deorient_s": "s",
    "preprocess.filter_s": "s",
    "raster.kennaugh_s": "s",
    "geodesic.similarity_s": "s",
    "classify.categorize_s": "s",
    "classify.seed_s": "s",
    "classify.merge_s": "s",
    "classify.merges": "count",
    "classify.merge_pair_evals": "count",
    "classify.iterate_s": "s",
    "classify.iterate_w1_s": "s",
    "classify.passes": "count",
    "classify.distance_evals": "count",
    "classify.clusters_retired": "count",
    "classify.mixed_fraction": "ratio",
    "render.map_s": "s",
    "pipeline.self_s": "s",
    "pipeline.write_s": "s",
    "pipeline.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.covered_fraction": "ratio",
}
# what each workload claims to stress, checked on its traced runs
LARGEST_SELF_SPAN = {"demo128": "classify.merge", "strips1024": "classify.iterate"}
ABSENT_LAYER = {"slc_similarity": "classify"}
MIN_COVERED_FRACTION = 0.90


class SetupError(RuntimeError):
    """The scene could not be built or the host not calibrated; no result."""


class Spawner:
    """Starts children through spawn.py, so their peak RSS is their own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")],
            env=child_env(),
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: Sequence[str], log: Path) -> Dict:
        """Run one child; wall time from spawn to reap, its own peak RSS."""
        request = {"argv": list(argv), "log": str(log), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        # wake up now and then: a signal that lands on a BLAS thread runs its
        # Python handler only when the main thread next executes bytecode
        while not select.select([self.proc.stdout], [], [], 0.5)[0]:
            pass
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn helper exited")
        return json.loads(reply)

    def close(self) -> None:
        """Stop the helper; it kills and reaps a running child first."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def stderr_tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Bench:
    """One benchmark run of one workload: scene, reference, operations."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.scene = work / "scene"
        self.truth = truth_map(workload)
        self.non_mixed = None
        self.reference_digest: Optional[str] = None
        self.ops: List[Dict] = []
        self.calibrations: Dict[str, List[float]] = {"setup": [], "op": []}
        self.started = time.perf_counter()
        self.spawner = Spawner()

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.close()

    def over_budget(self) -> bool:
        return time.perf_counter() - self.started > RUN_BUDGET_S

    def calibrate(self, phase: str) -> None:
        """Record one calibration wall time (spawn to reap) for phase."""
        if not self.workload.calibrated:
            return
        log = self.work / "calibrate.log"
        sample = self.spawner.run([sys.executable, str(HERE / "calibrate.py")], log)
        if sample["exit_code"] != 0:
            raise SetupError(f"calibration failed: {stderr_tail(log)}")
        self.calibrations[phase].append(sample["wall_s"])

    def setup(self, times: int) -> List[float]:
        walls = []
        self.calibrate("setup")
        for _ in range(times):
            shutil.rmtree(self.scene, ignore_errors=True)
            argv = setup_argv(self.workload, self.seed, self.work, self.scene)
            sample = self.spawner.run(argv, self.work / "setup.log")
            if sample["exit_code"] != 0:
                raise SetupError(f"scene setup failed: {stderr_tail(self.work / 'setup.log')}")
            walls.append(sample["wall_s"])
            self.calibrate("setup")
        return walls

    def check(self, out: Path, sample: Dict):
        """Check one operation's artifacts into sample; never raises."""
        try:
            if sample["exit_code"] != 0:
                result = checks.Check().fail(
                    f"exit code {sample['exit_code']}: {stderr_tail(out.with_suffix('.log'))}"
                )
            elif self.workload.command == "classify":
                if self.non_mixed is None:
                    self.non_mixed = checks.category_reference(out, self.workload)
                result = checks.check_classify(out, self.workload, self.truth, self.non_mixed)
            else:
                result = checks.check_similarity(out, self.workload, self.truth)
        except Exception as exc:  # a malformed artifact is a failed operation
            result = checks.Check().fail(f"{type(exc).__name__}: {exc}")
        if result.ok:
            if self.reference_digest is None:
                self.reference_digest = result.digest
            elif result.digest != self.reference_digest:
                result.fail("output differs from the reference run")
        sample.update(
            ok=result.ok,
            reason=result.reason,
            accuracy=result.accuracy,
            objective_per_pixel=result.objective_per_pixel,
            **result.extra,
        )
        self.ops.append(sample)
        return sample

    def operation(self, kind: str, launcher: Sequence[str], *extra: str) -> Dict:
        """Run the workload's command once under launcher and check its outputs."""
        out = self.work / kind
        shutil.rmtree(out, ignore_errors=True)
        argv = [*launcher, *op_args(self.workload, self.scene, out, *extra)]
        sample = self.spawner.run(argv, out.with_suffix(".log"))
        sample["kind"] = kind
        return self.check(out, sample)

    def reference(self) -> Dict:
        """Untimed first run; classify runs also dump categories for accuracy."""
        extra = ("--dump-stage", "category") if self.workload.command == "classify" else ()
        return self.operation("reference", CLI, *extra)

    def op(self) -> Dict:
        """One timed operation: the workload's CLI command as users run it."""
        return self.operation("op", CLI)

    def timed(self, seconds: float) -> List[Dict]:
        samples = []
        start = time.perf_counter()
        self.calibrate("op")
        while not samples or (
            (len(samples) < MIN_OPS or time.perf_counter() - start < seconds)
            and not self.over_budget()
        ):
            samples.append(self.op())
            self.calibrate("op")
        return samples

    def traced(self) -> Dict:
        spans = self.work / "spans.json"
        spans.unlink(missing_ok=True)
        sample = self.operation("traced", [sys.executable, str(HERE / "traced.py"), str(spans), "--"])
        sample["trace"] = json.loads(spans.read_text()) if spans.is_file() else None
        return sample


def median(values):
    return statistics.median(values) if values else 0.0


def lower_quartile(values):
    """First quartile, as statistics.quantiles gives it; the value itself for one."""
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else median(values)


def summary(values):
    return {
        "n": len(values),
        "min": min(values, default=0.0),
        "lower_quartile": lower_quartile(values),
        "median": median(values),
        "max": max(values, default=0.0),
    }


def trace_metrics(workload: Workload, traces: List[Dict], untraced_wall: float):
    metrics = {
        name: median([t["metrics"][name] for t in traces])
        for name in PER_LAYER_UNITS
        if not name.startswith("trace.")
    }
    traced_wall = median([t["wall_s"] for t in traces])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics["trace.covered_fraction"] = median([t["covered_fraction"] for t in traces])

    span_names = {name for t in traces for name in t["self_s"]}
    self_s = {name: median([t["self_s"].get(name, 0.0) for t in traces]) for name in span_names}
    stress = {"covered_fraction": metrics["trace.covered_fraction"] >= MIN_COVERED_FRACTION}
    if workload.name in LARGEST_SELF_SPAN:
        stress["largest_self_span"] = max(self_s, key=self_s.get) == LARGEST_SELF_SPAN[workload.name]
    if workload.name in ABSENT_LAYER:
        layer = ABSENT_LAYER[workload.name]
        stress[f"no_{layer}_spans"] = not any(n.split(".")[0] == layer for n in span_names)
    details = {
        "self_s": self_s,
        "layer_self_s": {
            layer: median([t["layer_self_s"][layer] for t in traces])
            for layer in traces[0]["layer_self_s"]
        },
        "unwrapped": sorted({u for t in traces for u in t["unwrapped"]}),
        "overhead": {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall},
        "stress_checks": stress,
    }
    return metrics, details


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """One benchmark run: (result object, details)."""
    with Bench(workload, seed, work) as bench:
        return measure(bench, seconds, trace)


def measure(bench: Bench, seconds: float, trace: bool):
    workload = bench.workload
    details: Dict = {"workload": workload.name, "seed": bench.seed, "trace": int(trace)}
    setups = bench.setup(SETUPS if not trace else 1)
    details["setup_s"] = setups
    bench.reference()
    timed = bench.timed(seconds)
    good = [s for s in timed if s["ok"]] or timed
    walls = [s["wall_s"] for s in good]
    details["wall_s"] = summary(walls)
    details["calibration_s"] = {phase: summary(c) for phase, c in bench.calibrations.items()}
    # the lower quartile: a calibration is only ever slowed down by noise
    speed = {
        phase: REFERENCE_S / lower_quartile(c) if c else 1.0
        for phase, c in bench.calibrations.items()
    }
    details["speed_scale"] = speed

    if trace:
        traced = [bench.traced()]
        while len(traced) < TRACED_RUNS and not bench.over_budget():
            traced.append(bench.traced())
        traces = [s.pop("trace") for s in traced if s["ok"] and s.get("trace")]
        if traces:
            metrics, details["tracing"] = trace_metrics(workload, traces, median(walls))
        else:
            metrics = {name: 0.0 for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        # Scaled to the reference speed on a calibrated workload (see
        # workloads.py); the raw times are in the details.
        wall = median(walls) * speed["op"]
        metrics = {
            "wall_s": wall,
            "mpix_per_s": workload.out_mpix / wall,
            "peak_rss_mib": median([s["peak_rss_mib"] for s in good]),
            "setup_s": median(setups) * speed["setup"],
            "accuracy": median([s["accuracy"] or 0.0 for s in timed]),
        }
        units = END_TO_END_UNITS

    failed = sum(not s["ok"] for s in bench.ops)
    details["error_rate"] = failed / len(bench.ops)
    objectives = [s["objective_per_pixel"] for s in bench.ops if s.get("objective_per_pixel") is not None]
    details["objective_per_pixel"] = median(objectives) if objectives else None
    details["ops"] = bench.ops
    result = {
        "correct": failed == 0,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, details


def machine_facts() -> Dict:
    import numpy as np

    import geopolsar

    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "package_version": geopolsar.__version__,
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        facts["blas"] = None
    facts["blas_threads"] = _openblas_threads(np)
    try:
        facts["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        facts["git_commit"] = None
    return facts


def _openblas_threads(np) -> Optional[int]:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geopolsar benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the benchmark itself on tiny scenes")
    args = parser.parse_args(argv)

    if not (SRC / "geopolsar" / "__init__.py").is_file() or not DEMO_SPEC.is_file():
        print(f"error: {ROOT} holds no geopolsar checkout (src/geopolsar, demo/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    # on SIGTERM, unwind: the spawn helper kills and reaps the running child first
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, details = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    details["machine"] = machine_facts()
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
