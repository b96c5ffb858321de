"""The artifact manifest: what the final artifacts of fixed configurations hold.

``tests/golden.json`` maps "<configuration>/<file>" to the sha256 of that
file, or, for report.jsonl, to its records with each objective rounded to 13
significant digits. The configurations run the CLI in-process on the demo
spec, on a small single-look S2 scene, whose own files ``write_scene``
writes and the manifest pins too, and on a damaged copy of that scene;
`build` lists them.

    python tests/golden.py --write [PATH]   (default PATH: tests/golden.json)

``tests/test_golden.py`` compares a fresh build with the manifest in tier-1:
every hash must match, and every report field too, with the objective
within 1e-12 relative. The manifest has one entry per line, so a ``diff``
of two manifests names each configuration and file that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden.json"
DEMO_SPEC = ROOT / "demo" / "three_region.spec"
CLASSIFY_FILES = ("labels.bin", "labels.hdr", "legend.csv", "map.ppm")
OBJECTIVE_RTOL = 1e-12

# classify runs of the demo at its own seed: name -> extra CLI arguments
DEMO_VARIANTS = {
    "defaults": [],
    "no-deorient": ["--no-deorient"],
    "filter-window-1": ["--filter-window", "1"],
    "filter-window-3": ["--filter-window", "3"],
    "max-iterations-0": ["--max-iterations", "0"],
    "initial-clusters-100": ["--initial-clusters", "100"],
    "workers-2": ["--workers", "2"],
}
DEMO_SEEDS = range(6)
MASKED_BLOCK = (slice(40, 72), slice(30, 60))  # crosses the first strip edge
S2_SIZE, S2_SEED = 256, 7


def _cli(*argv) -> None:
    from geopolsar.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        if main([str(a) for a in argv]) != 0:
            raise RuntimeError(f"geopolsar {' '.join(map(str, argv))} failed")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report(path: Path) -> list:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        if record["objective"] is not None:
            record["objective"] = float(f"{record['objective']:.12e}")
    return records


def _hash_dir(entries: dict, name: str, directory: Path) -> None:
    for path in sorted(directory.iterdir()):
        entries[f"{name}/{path.name}"] = _sha256(path)


def _classify(entries: dict, name: str, scene: Path, out: Path, *extra) -> None:
    _cli("classify", scene, "--out", out, *extra)
    for file in CLASSIFY_FILES:
        entries[f"{name}/{file}"] = _sha256(out / file)
    entries[f"{name}/report.jsonl"] = _report(out / "report.jsonl")


def _masked_copy(scene: Path, out: Path) -> Path:
    """A copy of a float32 T3 scene with NaN in T11 over MASKED_BLOCK."""
    shutil.copytree(scene, out)
    t11 = np.fromfile(out / "T11.bin", "<f4").reshape(128, 128)
    t11[MASKED_BLOCK] = np.nan
    t11.tofile(out / "T11.bin")
    return out


def _damaged_s2(scene: Path, out: Path) -> Path:
    """A copy of the float32 S2 scene that is not reciprocal, VH += 0.5 - 0.25j,
    with non-finite parts: HH real NaN on rows 40:44, columns 30:60 (whole
    2 x 2 blocks), HH imaginary +inf at (100, 100) and HV real -inf at (7, 9)."""
    shutil.copytree(scene, out)
    channels = {name: np.fromfile(out / f"{name}.bin", "<f4").reshape(S2_SIZE, S2_SIZE, 2)
                for name in ("HH", "HV", "VH")}
    channels["VH"] += (0.5, -0.25)
    channels["HH"][40:44, 30:60, 0] = np.nan
    channels["HH"][100, 100, 1] = np.inf
    channels["HV"][7, 9, 0] = -np.inf
    for name, values in channels.items():
        values.tofile(out / f"{name}.bin")
    return out


def _s2_scene(out: Path) -> Path:
    """The benchmark's single-look S2 synthesis at S2_SIZE, written to out."""
    saved = list(sys.path)
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from synth_s2 import synthesize
    finally:
        sys.path[:] = saved
    from geopolsar.scene import write_scene

    write_scene(synthesize(S2_SIZE, 1, S2_SEED), out)
    return out


def build(work: Path) -> dict:
    """Run every configuration under work and return its manifest entries."""
    entries: dict = {}
    demo = work / "demo"
    _cli("generate", DEMO_SPEC, "--out", demo)
    _hash_dir(entries, "generate/demo", demo)
    for name, extra in DEMO_VARIANTS.items():
        _classify(entries, f"classify/demo/{name}", demo, work / name, *extra)
    for seed in DEMO_SEEDS:
        scene = work / f"seed{seed}"
        _cli("generate", DEMO_SPEC, "--out", scene, "--seed", seed)
        _classify(entries, f"classify/seed{seed}", scene, work / f"seed{seed}-out")
    masked = _masked_copy(demo, work / "masked")
    _classify(entries, "classify/demo/masked-block", masked, work / "masked-out")
    _cli("similarity", demo, "--out", work / "sim-demo")
    _hash_dir(entries, "similarity/demo", work / "sim-demo")
    s2 = _s2_scene(work / "s2")
    _hash_dir(entries, f"write/s2-{S2_SIZE}", s2)
    _cli("similarity", s2, "--out", work / "sim-s2", "--multilook", 2, 2)
    _hash_dir(entries, f"similarity/s2-{S2_SIZE}-multilook-2-2", work / "sim-s2")
    _classify(entries, f"classify/s2-{S2_SIZE}-multilook-2-2", s2, work / "s2-out",
              "--multilook", 2, 2)
    damaged = _damaged_s2(s2, work / "s2-damaged")
    _cli("similarity", damaged, "--out", work / "sim-s2-damaged", "--multilook", 2, 2)
    _hash_dir(entries, f"similarity/s2-{S2_SIZE}-damaged-multilook-2-2", work / "sim-s2-damaged")
    name, out = f"classify/s2-{S2_SIZE}-damaged-multilook-2-2", work / "s2-damaged-out"
    _classify(entries, name, damaged, out, "--multilook", 2, 2, "--dump-stage", "deorient")
    _hash_dir(entries, f"{name}/stages/stage_deorient", out / "stages" / "stage_deorient")
    return entries


def _same_report(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x.keys() != y.keys():
            return False
        for key in x:
            if key == "objective" and x[key] is not None and y[key] is not None:
                if abs(x[key] - y[key]) > OBJECTIVE_RTOL * abs(y[key]):
                    return False
            elif x[key] != y[key]:
                return False
    return True


def mismatches(built: dict, manifest: dict) -> list:
    """The "<configuration>/<file>" keys whose entries differ, are missing or
    are new."""
    moved = []
    for key in sorted(built.keys() | manifest.keys()):
        if key not in built or key not in manifest:
            moved.append(key)
        elif key.endswith("/report.jsonl"):
            if not _same_report(built[key], manifest[key]):
                moved.append(key)
        elif built[key] != manifest[key]:
            moved.append(key)
    return moved


def write(entries: dict, path: Path) -> None:
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", nargs="?", const=MANIFEST, type=Path, metavar="PATH",
                        required=True, help="write the manifest to PATH (default %(const)s)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        write(build(Path(work)), args.write)
    return 0


if __name__ == "__main__":
    sys.exit(main())
