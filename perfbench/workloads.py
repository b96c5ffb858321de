"""Workload definitions: the scene each one builds and the command it times.

Every workload uses the three-strip layout of the bundled demo spec
(``demo/three_region.spec``), scaled to the workload's scene size. The
benchmark seed replaces the spec's seed, so the default seed reproduces the
bundled demo scene byte for byte.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEMO_SPEC = ROOT / "demo" / "three_region.spec"

DEFAULT_SEED = 20260817
TARGET_NAMES = ("trihedral", "dihedral", "random_volume")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "classify" or "similarity"
    scene_kind: str  # "T3" (generate from a spec) or "S2" (single-look synthesis)
    scene_size: int  # rows == cols of the input scene
    extra_args: Tuple[str, ...]
    multilook: int = 1  # block edge given to --multilook; output = size / multilook
    # Scale times to the reference host speed measured by calibrate.py. On a
    # shared host the speed switches between modes about 1.45x apart, often
    # for a whole run. The calibration task (interpreter start, import, small
    # matrix calls) slows with the demo, whose time goes to the same kind of
    # work, and cancels the switch. It does not slow with the bulk array
    # work of the large scenes, whose raw times stay steadier unscaled.
    calibrated: bool = False

    @property
    def out_size(self) -> int:
        return self.scene_size // self.multilook

    @property
    def out_mpix(self) -> float:
        return self.out_size * self.out_size / 1e6


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("demo128", "classify", "T3", 128, (), calibrated=True),
        Workload("strips1024", "classify", "T3", 1024, ("--workers", "2")),
        Workload(
            "slc_similarity", "similarity", "S2", 2048, ("--multilook", "2", "2"), 2
        ),
    )
}


def child_env() -> Dict[str, str]:
    """Environment for every child process: the checkout's sources first."""
    env = dict(os.environ)
    parts = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


# the geopolsar console script, run from the checkout's sources
CLI = (sys.executable, "-m", "geopolsar.cli")


def demo_spec():
    """The bundled demo spec, parsed by the package."""
    from geopolsar.scene import parse_scene_spec

    return parse_scene_spec(DEMO_SPEC)


def scaled_regions(size: int, align: int = 1):
    """The demo strips scaled to size x size, as (r0, c0, r1, c1, model, span).

    Region edges are rounded to multiples of align, so multilook blocks
    never straddle two strips.
    """
    spec = demo_spec()

    def edge(value: int, extent: int) -> int:
        return int(round(value * size / extent / align)) * align

    return [
        (
            edge(r.row0, spec.rows),
            edge(r.col0, spec.cols),
            edge(r.row1, spec.rows),
            edge(r.col1, spec.cols),
            r.model,
            r.span,
        )
        for r in spec.regions
    ]


def setup_argv(workload: Workload, seed: int, work: Path, scene: Path) -> List[str]:
    """argv of the process that builds the workload's input scene."""
    if workload.scene_kind == "T3":
        spec = demo_spec()
        spec_path = DEMO_SPEC
        if (spec.rows, spec.cols) != (workload.scene_size, workload.scene_size):
            size = workload.scene_size
            spec_path = work / "scene.spec"
            lines = [f"rows = {size}", f"cols = {size}", f"looks = {spec.looks}", f"seed = {seed}"]
            for r0, c0, r1, c1, model, span in scaled_regions(size):
                lines.append(f"region = {r0} {c0} {r1} {c1} {model} {span!r}")
            spec_path.write_text("\n".join(lines) + "\n")
        return [*CLI, "generate", str(spec_path), "--seed", str(seed), "--out", str(scene)]
    return [
        sys.executable,
        str(HERE / "synth_s2.py"),
        "--size",
        str(workload.scene_size),
        "--align",
        str(workload.multilook),
        "--seed",
        str(seed),
        "--out",
        str(scene),
    ]


def op_args(workload: Workload, scene: Path, out: Path, *extra: str) -> List[str]:
    """Arguments of the timed geopolsar command, after the program name."""
    return [workload.command, str(scene), "--out", str(out), *workload.extra_args, *extra]


def truth_map(workload: Workload) -> np.ndarray:
    """Target index of the true model for every output pixel."""
    size = workload.scene_size
    m = workload.multilook
    truth = np.full((size, size), -1, dtype=np.int64)
    for r0, c0, r1, c1, model, _ in scaled_regions(size, align=m):
        truth[r0:r1, c0:c1] = TARGET_NAMES.index(model)
    # strip edges fall on block boundaries, so the top-left pixel names the block
    return truth[::m, ::m][: workload.out_size, : workload.out_size]
