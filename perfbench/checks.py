"""Output checks for one CLI operation.

Each check returns a ``Check``; a failed check is a failed operation and
never raises. Accuracy is the share of pixels whose result matches the true
model of its strip:

* classify: valid non-mixed pixels (from the reference run's category dump),
  result = category of the final class (acceptance criterion 5);
* similarity: valid pixels (finite f), result = argmax target of f_*.f32.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from workloads import TARGET_NAMES, Workload

MASKED_LABEL = 0xFFFF
MIN_ACCURACY = 0.95
# float32 storage of three shares in [0, 1]: a few ulps of 1.0 each
GAMMA_SUM_TOLERANCE = 1e-5
# criterion 6: an objective may rise by at most this share of the largest one
OBJECTIVE_SLACK = 1e-9


@dataclass
class Check:
    ok: bool = True
    reason: str = ""
    accuracy: Optional[float] = None
    objective_per_pixel: Optional[float] = None
    digest: str = ""
    extra: Dict = field(default_factory=dict)

    def fail(self, reason: str) -> "Check":
        if self.ok:
            self.ok, self.reason = False, reason
        return self


def _read(path: Path, dtype: str, count: int) -> np.ndarray:
    """The raw values of an artifact; ValueError if missing or mis-sized."""
    if not path.is_file():
        raise ValueError(f"missing {path.name}")
    size = path.stat().st_size
    expected = count * np.dtype(dtype).itemsize
    if size != expected:
        raise ValueError(f"{path.name} has {size} bytes, expected {expected}")
    return np.fromfile(path, dtype=dtype)


def _pnm(path: Path, magic: bytes, channels: int, rows: int, cols: int) -> None:
    header = magic + f"\n{cols} {rows}\n255\n".encode("ascii")
    if not path.is_file():
        raise ValueError(f"missing {path.name}")
    with open(path, "rb") as handle:
        head = handle.read(len(header))
    if head != header or path.stat().st_size != len(header) + rows * cols * channels:
        raise ValueError(f"{path.name} is not a {cols}x{rows} {magic.decode()} image")


def category_reference(ref_out: Path, workload: Workload) -> np.ndarray:
    """Mask of the valid non-mixed pixels, from a --dump-stage category run."""
    n = workload.out_size * workload.out_size
    mixed = _read(ref_out / "stages" / "stage_category" / "mixed.u8", "u1", n)
    return mixed == 0


def check_classify(
    out: Path, workload: Workload, truth: np.ndarray, non_mixed: np.ndarray
) -> Check:
    check = Check()
    rows = cols = workload.out_size
    try:
        labels = _read(out / "labels.bin", "<u2", rows * cols)
        header = dict(
            (part.strip() for part in line.split("=", 1))
            for line in (out / "labels.hdr").read_text().splitlines()
            if "=" in line
        )
        if (header.get("rows"), header.get("cols")) != (str(rows), str(cols)):
            raise ValueError("labels.hdr size does not match the scene")
        with open(out / "legend.csv", newline="") as handle:
            legend = list(csv.DictReader(handle))
        _pnm(out / "map.ppm", b"P6", 3, rows, cols)
        objectives = [
            json.loads(line)["objective"]
            for line in (out / "report.jsonl").read_text().splitlines()
        ]
    except (OSError, ValueError, KeyError) as exc:
        return check.fail(str(exc))
    check.digest = hashlib.sha256(labels.tobytes()).hexdigest()

    if (labels == MASKED_LABEL).any():
        check.fail(f"{int((labels == MASKED_LABEL).sum())} masked pixels on a clean scene")
    if int(header.get("classes", -1)) != len(legend) or int(labels.max()) >= len(legend):
        check.fail("labels refer to classes missing from the legend")
        return check
    if len(objectives) < 2:
        check.fail("report.jsonl has fewer than two passes")
    else:
        scale = max(abs(o) for o in objectives)
        for prev, nxt in zip(objectives, objectives[1:]):
            if nxt > prev + OBJECTIVE_SLACK * scale:
                check.fail(f"objective rose from {prev!r} to {nxt!r}")
        check.objective_per_pixel = objectives[-1] / int((labels != MASKED_LABEL).sum())

    class_category = np.empty(len(legend), dtype=np.int64)
    for row in legend:
        class_category[int(row["class_id"])] = TARGET_NAMES.index(row["category"])
    result = class_category[labels]
    check.accuracy = float((result == truth.ravel())[non_mixed].mean())
    check.extra["mixed_fraction"] = float(1.0 - non_mixed.mean())
    if check.accuracy < MIN_ACCURACY:
        check.fail(f"accuracy {check.accuracy:.4f} < {MIN_ACCURACY}")
    return check


def check_similarity(out: Path, workload: Workload, truth: np.ndarray) -> Check:
    check = Check()
    rows = cols = workload.out_size
    n = rows * cols
    digest = hashlib.sha256()
    stacks: Dict[str, List[np.ndarray]] = {"f": [], "gamma": [], "w": []}
    try:
        for name in TARGET_NAMES:
            for prefix, stack in stacks.items():
                values = _read(out / f"{prefix}_{name}.f32", "<f4", n)
                digest.update(values.tobytes())
                stack.append(values)
            _pnm(out / f"f_{name}.pgm", b"P5", 1, rows, cols)
    except (OSError, ValueError) as exc:
        return check.fail(str(exc))
    check.digest = digest.hexdigest()

    f = np.stack(stacks["f"])
    valid = np.isfinite(f).all(axis=0)
    if not valid.any():
        return check.fail("no valid pixels")
    gamma_sum = np.stack(stacks["gamma"]).astype(np.float64).sum(axis=0)[valid]
    worst = float(np.abs(gamma_sum - 1.0).max())
    if not worst <= GAMMA_SUM_TOLERANCE:
        check.fail(f"gamma sums to 1 only within {worst:.3g}")
    pick = np.argmax(np.where(valid, f, -np.inf), axis=0)
    check.accuracy = float((pick == truth.ravel())[valid].mean())
    check.extra["valid_fraction"] = float(valid.mean())
    if check.accuracy < MIN_ACCURACY:
        check.fail(f"accuracy {check.accuracy:.4f} < {MIN_ACCURACY}")
    return check
