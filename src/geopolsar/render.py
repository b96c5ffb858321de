"""Classification map rendering and legend emission.

Categories map to color channels (trihedral = blue, dihedral = red,
random volume = green, further targets cycle through cyan/magenta/yellow).
Classes inside a category step through equally spaced lightness levels from
dark (class 0) to light (the last class). Masked pixels render black.

The image is a binary P6 PPM, written byte-identically for identical
inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

#: Label value reserved for masked pixels in u16 label rasters.
MASKED_LABEL = 0xFFFF

# per-category RGB channel selectors, in target registry order
_CATEGORY_CHANNELS: Tuple[Tuple[int, ...], ...] = (
    (2,),  # trihedral: blue
    (0,),  # dihedral: red
    (1,),  # random volume: green
    (1, 2),  # cyan
    (0, 2),  # magenta
    (0, 1),  # yellow
)

_DARKEST = 0.35


@dataclass(frozen=True)
class ClassEntry:
    """Legend row for one rendered class."""

    class_id: int
    category_index: int
    category: str
    class_index: int
    pixels: int
    center_trace: float


def class_color(
    category_index: int, class_index: int, classes_per_category: int
) -> Tuple[int, int, int]:
    """RGB triple for one class; raises when class_index is off the ramp."""
    if not 0 <= class_index < classes_per_category:
        raise ValueError(
            f"class index {class_index} outside ramp of "
            f"{classes_per_category} classes"
        )
    if classes_per_category == 1:
        lightness = 1.0
    else:
        lightness = _DARKEST + (1.0 - _DARKEST) * (
            class_index / (classes_per_category - 1)
        )
    level = int(round(255.0 * lightness))
    channels = _CATEGORY_CHANNELS[category_index % len(_CATEGORY_CHANNELS)]
    rgb = [0, 0, 0]
    for channel in channels:
        rgb[channel] = level
    return tuple(rgb)


def render_map(
    labels: np.ndarray,
    classes: Sequence[ClassEntry],
    classes_per_category: int,
    image_path: Union[str, Path],
    legend_path: Optional[Union[str, Path]] = None,
) -> None:
    """Render a u16 label raster to a P6 PPM plus a CSV legend.

    labels holds class ids, with MASKED_LABEL marking masked pixels. Every
    label in the raster must be MASKED_LABEL or a class id in classes.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("labels must be a 2D raster")
    lut = np.zeros((MASKED_LABEL + 1, 3), dtype=np.uint8)
    known = np.zeros(MASKED_LABEL + 1, dtype=bool)
    known[MASKED_LABEL] = True
    for entry in classes:
        lut[entry.class_id] = class_color(
            entry.category_index, entry.class_index, classes_per_category
        )
        known[entry.class_id] = True
    unknown = (labels < 0) | (labels > MASKED_LABEL)
    if not unknown.any():
        unknown = ~known[labels]
    if unknown.any():
        raise ValueError(f"label {int(labels[unknown].flat[0])} has no class entry")
    rgb = lut[labels]

    image_path = Path(image_path)
    header = f"P6\n{labels.shape[1]} {labels.shape[0]}\n255\n".encode("ascii")
    image_path.write_bytes(header + rgb.tobytes())

    if legend_path is not None:
        with open(legend_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["class_id", "category", "r", "g", "b", "pixels", "center_trace"]
            )
            for entry in classes:
                r, g, b = lut[entry.class_id]
                writer.writerow(
                    [
                        entry.class_id,
                        entry.category,
                        r,
                        g,
                        b,
                        entry.pixels,
                        f"{entry.center_trace:.9g}",
                    ]
                )
