"""Raster container for per-pixel polarimetric matrices.

A PolsarRaster couples a per-pixel payload with a validity mask and the
number of looks already averaged into each pixel. A Sinclair raster holds
(rows, cols, 2, 2) complex matrices. A coherency raster holds packed real
rows p(T) (``matrices.packed_rows``) of shape (rows, cols, 9) at 72 bytes
per pixel, over a component-major buffer, so each of the nine planes
``data[..., c]`` is contiguous. Rasters are treated as immutable:
operations return new instances and never write into an input array, which
keeps read-only sharing across worker threads safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrices import packed_rows, span_array

__all__ = [
    "KIND_SINCLAIR",
    "KIND_COHERENCY",
    "PolsarRaster",
]

KIND_SINCLAIR = "sinclair"
KIND_COHERENCY = "coherency"

# trailing payload shape per kind
_KIND_SHAPE = {KIND_SINCLAIR: (2, 2), KIND_COHERENCY: (9,)}


@dataclass
class PolsarRaster:
    """Image of per-pixel matrices with a validity mask.

    data has shape (rows, cols, 2, 2) for a Sinclair raster and packed shape
    (rows, cols, 9) for a coherency raster, read by ``packed_rows`` (so a
    (rows, cols, 3, 3) Hermitian stack is packed). mask has shape (rows, cols)
    with True marking valid pixels. Invalid pixels carry zeroed payloads and
    are excluded from every statistic downstream.
    """

    kind: str
    data: np.ndarray
    mask: Optional[np.ndarray] = None
    looks: float = 1.0

    def __post_init__(self):
        if self.kind not in _KIND_SHAPE:
            raise ValueError(f"unknown raster kind {self.kind!r}")
        if self.kind == KIND_COHERENCY:
            # component-major, without a copy when it already is
            planes = np.ascontiguousarray(np.moveaxis(packed_rows(self.data), -1, 0))
            self.data = np.moveaxis(planes, 0, -1)
        else:
            self.data = np.asarray(self.data, dtype=np.complex128)
        trailing = _KIND_SHAPE[self.kind]
        if self.data.ndim != 2 + len(trailing) or self.data.shape[2:] != trailing:
            shape = ", ".join(map(str, ("rows", "cols") + trailing))
            raise ValueError(f"{self.kind} raster needs shape ({shape}), got {self.data.shape}")
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
        return np.where(self.mask, span_array(self.data, self.kind), 0.0)
