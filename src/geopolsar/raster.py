"""Raster container for per-pixel polarimetric matrices.

A PolsarRaster couples a (rows, cols, d, d) matrix stack with a validity
mask and the number of looks already averaged into each pixel. Rasters are
treated as immutable: operations return new instances and never write into
an input array, which keeps read-only sharing across worker threads safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrices import (
    kennaugh_from_coherency_array,
    kennaugh_from_sinclair_array,
    span_array,
)

__all__ = [
    "KIND_SINCLAIR",
    "KIND_COHERENCY",
    "KIND_KENNAUGH",
    "PolsarRaster",
    "raster_to_kennaugh",
]

KIND_SINCLAIR = "sinclair"
KIND_COHERENCY = "coherency"
KIND_KENNAUGH = "kennaugh"

_KIND_SIDE = {KIND_SINCLAIR: 2, KIND_COHERENCY: 3, KIND_KENNAUGH: 4}
_KIND_DTYPE = {
    KIND_SINCLAIR: np.complex128,
    KIND_COHERENCY: np.complex128,
    KIND_KENNAUGH: np.float64,
}


@dataclass
class PolsarRaster:
    """Image of per-pixel matrices with a validity mask.

    data has shape (rows, cols, d, d) where d depends on kind; mask has
    shape (rows, cols) with True marking valid pixels. Invalid pixels carry
    zeroed payloads and are excluded from every statistic downstream.
    """

    kind: str
    data: np.ndarray
    mask: Optional[np.ndarray] = None
    looks: float = 1.0

    def __post_init__(self):
        if self.kind not in _KIND_SIDE:
            raise ValueError(f"unknown raster kind {self.kind!r}")
        side = _KIND_SIDE[self.kind]
        self.data = np.asarray(self.data, dtype=_KIND_DTYPE[self.kind])
        if self.data.ndim != 4 or self.data.shape[2:] != (side, side):
            raise ValueError(
                f"{self.kind} raster needs shape (rows, cols, {side}, {side}), "
                f"got {self.data.shape}"
            )
        if self.mask is None:
            self.mask = np.ones(self.data.shape[:2], dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.data.shape[:2]:
                raise ValueError(
                    f"mask shape {self.mask.shape} does not match raster "
                    f"shape {self.data.shape[:2]}"
                )
        self.looks = float(self.looks)
        if not self.looks > 0.0:
            raise ValueError("looks must be positive")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple:
        return self.data.shape[:2]

    def valid_count(self) -> int:
        return int(self.mask.sum())

    def span(self) -> np.ndarray:
        """Per-pixel span; zero on masked pixels."""
        out = span_array(self.data, self.kind)
        return np.where(self.mask, out, 0.0)


def raster_to_kennaugh(raster: PolsarRaster) -> PolsarRaster:
    """Convert a Sinclair or coherency raster to a Kennaugh raster."""
    if raster.kind == KIND_KENNAUGH:
        return raster
    if raster.kind == KIND_SINCLAIR:
        data = kennaugh_from_sinclair_array(raster.data)
    else:
        data = kennaugh_from_coherency_array(raster.data)
    data[~raster.mask] = 0.0
    return PolsarRaster(KIND_KENNAUGH, data, raster.mask.copy(), raster.looks)
