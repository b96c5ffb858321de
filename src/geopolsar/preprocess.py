"""Preprocessing: orientation compensation, speckle filtering, multilooking.

The pipeline order is fixed: deorientation runs on the unfiltered coherency
raster first, then the speckle filter; filtering first would smear the
per-pixel orientation estimate across neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import CoherencyMatrix, pauli_from_sinclair_array
from .raster import KIND_COHERENCY, KIND_SINCLAIR, PolsarRaster

__all__ = [
    "PreprocessConfig",
    "orientation_angle",
    "deorient",
    "deorient_array",
    "deorient_raster",
    "speckle_filter",
    "multilook",
]

#: Row-block budget for the sliding-window filter, in window elements.
_FILTER_CHUNK_ELEMENTS = 8_000_000


@dataclass
class PreprocessConfig:
    """Knobs for the preprocessing stage."""

    deorient: bool = True
    filter_window: int = 5

    def __post_init__(self):
        if self.filter_window < 1 or self.filter_window % 2 == 0:
            raise ValueError("filter window must be a positive odd integer")


def orientation_angle(t) -> np.ndarray:
    """Per-matrix rotation angle theta that minimizes the rotated T33.

    theta = (1/4) * atan2(2 Re T23, T22 - T33), acting on the (2, 3) Pauli
    subspace with angle 2*theta. This choice simultaneously nulls Re T23
    and reaches the global minimum of T33 over all rotations.
    """
    t = np.asarray(t)
    return 0.25 * np.arctan2(
        2.0 * t[..., 1, 2].real, t[..., 1, 1].real - t[..., 2, 2].real
    )


def deorient_array(t) -> np.ndarray:
    """Deorient coherency stacks (..., 3, 3).

    Applies T' = R T R^H with R = [[1, 0, 0], [0, c, s], [0, -s, c]],
    c = cos(2 theta), s = sin(2 theta). T'11 is untouched, the trace and
    eigenvalues are preserved, Re T'23 = 0 and T'33 <= T33. The operation
    is idempotent: a deoriented stack yields theta = 0.
    """
    t = np.asarray(t, dtype=np.complex128)
    theta = orientation_angle(t)
    c = np.cos(2.0 * theta)
    s = np.sin(2.0 * theta)
    t11 = t[..., 0, 0]
    t12 = t[..., 0, 1]
    t13 = t[..., 0, 2]
    t22 = t[..., 1, 1].real
    t33 = t[..., 2, 2].real
    t23 = t[..., 1, 2]
    re23 = t23.real
    out = np.empty_like(t)
    out[..., 0, 0] = t11
    out[..., 0, 1] = c * t12 + s * t13
    out[..., 0, 2] = -s * t12 + c * t13
    out[..., 1, 1] = c * c * t22 + s * s * t33 + 2.0 * c * s * re23
    out[..., 2, 2] = s * s * t22 + c * c * t33 - 2.0 * c * s * re23
    out[..., 1, 2] = c * s * (t33 - t22) + c * c * t23 - s * s * t23.conj()
    # mirror the upper triangle so the result stays exactly Hermitian
    out[..., 1, 0] = out[..., 0, 1].conj()
    out[..., 2, 0] = out[..., 0, 2].conj()
    out[..., 2, 1] = out[..., 1, 2].conj()
    return out


def deorient(t: CoherencyMatrix) -> CoherencyMatrix:
    """Deorient a single coherency matrix."""
    return CoherencyMatrix.from_matrix(deorient_array(t.matrix))


def deorient_raster(raster: PolsarRaster) -> PolsarRaster:
    if raster.kind != KIND_COHERENCY:
        raise ValueError("deorientation requires a coherency raster")
    data = deorient_array(raster.data)
    data[~raster.mask] = 0.0
    return PolsarRaster(KIND_COHERENCY, data, raster.mask.copy(), raster.looks)


def _boxcar_channel(values: np.ndarray, window: int) -> np.ndarray:
    """Truncated-window boxcar sums of one 2D channel.

    Zero padding of half the window plus a plain window sum realizes the
    truncation: out-of-raster positions contribute nothing. Row blocks keep
    the intermediate (rows, cols, window, window) view bounded.
    """
    half = window // 2
    rows, cols = values.shape
    padded = np.zeros((rows + 2 * half, cols + 2 * half), dtype=values.dtype)
    padded[half : half + rows, half : half + cols] = values
    out = np.empty_like(values)
    block = max(1, _FILTER_CHUNK_ELEMENTS // max(1, cols * window * window))
    for r0 in range(0, rows, block):
        r1 = min(r0 + block, rows)
        view = np.lib.stride_tricks.sliding_window_view(
            padded[r0 : r1 + 2 * half], (window, window)
        )
        out[r0:r1] = view.sum(axis=(-2, -1))
    return out


def speckle_filter(raster: PolsarRaster, config: PreprocessConfig) -> PolsarRaster:
    """Boxcar speckle filter with truncated windows at the borders.

    Each valid output pixel is the entrywise mean of the valid pixels inside
    the window intersected with the raster; no padding values are invented.
    Invalid pixels stay invalid and contribute to no mean. The looks
    metadata is multiplied by the nominal window population.
    """
    if raster.kind != KIND_COHERENCY:
        raise ValueError("speckle filtering requires a coherency raster")
    window = config.filter_window
    if window == 1:
        return PolsarRaster(
            raster.kind, raster.data.copy(), raster.mask.copy(), raster.looks
        )
    counts = _boxcar_channel(raster.mask.astype(np.float64), window)
    data = np.where(raster.mask[..., None, None], raster.data, 0.0)
    out = np.empty_like(raster.data)
    for i in range(3):
        for j in range(i, 3):
            sums = _boxcar_channel(np.ascontiguousarray(data[:, :, i, j]), window)
            with np.errstate(invalid="ignore", divide="ignore"):
                mean = sums / counts
            out[:, :, i, j] = mean
            if i != j:
                out[:, :, j, i] = mean.conj()
    mask = raster.mask & (counts > 0)
    out[~mask] = 0.0
    return PolsarRaster(
        KIND_COHERENCY, out, mask, raster.looks * window * window
    )


def multilook(
    raster: PolsarRaster, range_factor: int, azimuth_factor: int
) -> PolsarRaster:
    """Multilook a Sinclair raster into a coherency raster by block averaging.

    Non-overlapping blocks of range_factor rows by azimuth_factor columns are
    averaged as Pauli outer products; trailing rows and columns that do not
    fill a block are dropped. Output looks = input looks * block population.
    """
    if raster.kind != KIND_SINCLAIR:
        raise ValueError("multilooking requires a Sinclair raster")
    if range_factor < 1 or azimuth_factor < 1:
        raise ValueError("multilook factors must be positive integers")
    rows = raster.rows // range_factor
    cols = raster.cols // azimuth_factor
    if rows == 0 or cols == 0:
        raise ValueError(
            f"raster {raster.rows}x{raster.cols} is smaller than one "
            f"{range_factor}x{azimuth_factor} block"
        )
    trim_r = rows * range_factor
    trim_c = cols * azimuth_factor
    pauli = pauli_from_sinclair_array(raster.data[:trim_r, :trim_c])
    mask = raster.mask[:trim_r, :trim_c]
    pauli = np.where(mask[..., None], pauli, 0.0)
    pauli = pauli.reshape(rows, range_factor, cols, azimuth_factor, 3)
    counts = (
        mask.reshape(rows, range_factor, cols, azimuth_factor)
        .sum(axis=(1, 3))
        .astype(np.float64)
    )
    t = np.einsum("rxcya,rxcyb->rcab", pauli, pauli.conj())
    out_mask = counts > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        t /= counts[..., None, None]
    t[~out_mask] = 0.0
    return PolsarRaster(
        KIND_COHERENCY, t, out_mask, raster.looks * range_factor * azimuth_factor
    )
