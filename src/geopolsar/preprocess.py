"""Preprocessing: orientation compensation, speckle filtering, multilooking.

The pipeline order is fixed: deorientation runs on the unfiltered coherency
raster first, then the speckle filter; filtering first would smear the
per-pixel orientation estimate across neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import (
    CoherencyMatrix,
    pack_coherency_array,
    packed_outer,
    pauli_planes,
    unpack_coherency_array,
)
from .raster import KIND_COHERENCY, KIND_SINCLAIR, PolsarRaster, RowSource, mask_non_finite

#: Pixels per output row tile of the pipeline's front end (deorient, filter,
#: similarity) and per input row tile of multilooking; a tile's planes stay
#: in cache.
_FILTER_TILE_PIXELS = 32_768

@dataclass
class PreprocessConfig:
    """Knobs for the preprocessing stage."""

    deorient: bool = True
    filter_window: int = 5

    def __post_init__(self):
        if self.filter_window < 1 or self.filter_window % 2 == 0:
            raise ValueError("filter window must be a positive odd integer")


def _angle(t22, t33, re23) -> np.ndarray:
    return 0.25 * np.arctan2(2.0 * re23, t22 - t33)


def orientation_angle(t) -> np.ndarray:
    """Per-matrix rotation angle theta that minimizes the rotated T33.

    theta = (1/4) * atan2(2 Re T23, T22 - T33), acting on the (2, 3) Pauli
    subspace with angle 2*theta. This choice simultaneously nulls Re T23
    and reaches the global minimum of T33 over all rotations.
    """
    p = pack_coherency_array(t)
    return _angle(p[..., 1], p[..., 2], p[..., 5])


def _deorient_packed(p: np.ndarray) -> np.ndarray:
    """Deorient packed rows (..., 9) in one pass over their planes, in plain
    real arithmetic: each entry is within 4 ulps of the pixel's span of the
    exact rotation of ``deorient_array``."""
    planes = np.moveaxis(p, -1, 0).reshape(9, -1)
    t11, t22, t33, r12, r13, r23, i12, i13, i23 = planes
    out = np.empty_like(planes)
    theta = _angle(t22, t33, r23)
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    cc, ss, cs2 = c * c, s * s, 2.0 * c * s
    out[0] = t11
    out[1] = cc * t22 + ss * t33 + cs2 * r23
    out[2] = ss * t22 + cc * t33 - cs2 * r23
    out[3] = c * r12 + s * r13  # T'12 = c T12 + s T13
    out[6] = c * i12 + s * i13
    out[4] = c * r13 - s * r12  # T'13 = c T13 - s T12
    out[7] = c * i13 - s * i12
    # T'23 = c s (T33 - T22) + c^2 T23 - s^2 conj(T23)
    out[5] = c * s * (t33 - t22) + (cc - ss) * r23
    out[8] = (cc + ss) * i23
    return np.moveaxis(out.reshape((9,) + p.shape[:-1]), 0, -1)


def deorient_array(t) -> np.ndarray:
    """Deorient coherency stacks (..., 3, 3).

    Applies T' = R T R^H with R = [[1, 0, 0], [0, c, s], [0, -s, c]],
    c = cos(2 theta), s = sin(2 theta). T'11 is untouched, the trace and
    eigenvalues are preserved, Re T'23 = 0 and T'33 <= T33. The operation
    is idempotent: a deoriented stack yields theta = 0.
    """
    return unpack_coherency_array(_deorient_packed(pack_coherency_array(t)))


def deorient(t: CoherencyMatrix) -> CoherencyMatrix:
    """Deorient a single coherency matrix."""
    return CoherencyMatrix.from_matrix(deorient_array(t.matrix))


def deorient_raster(raster: PolsarRaster) -> PolsarRaster:
    """Deorient every pixel of a coherency raster (ValueError for other kinds).

    Masked pixels stay zero. Each pixel is the rotation R T R^H of
    ``deorient_array``, computed on the packed planes."""
    if raster.kind != KIND_COHERENCY:
        raise ValueError("deorientation requires a coherency raster")
    data = _deorient_packed(raster.data)
    data[~raster.mask] = 0.0
    return PolsarRaster(KIND_COHERENCY, data, raster.mask, raster.looks)


def _box_sum(plane, mask: np.ndarray, window: int) -> np.ndarray:
    """Window sums of a plane's mask pixels, zero-padded by window // 2: each
    window row left to right, then the row sums top to bottom."""
    (rows, cols), half = mask.shape, window // 2
    padded = np.zeros((rows + 2 * half, cols + 2 * half))
    np.copyto(padded[half : half + rows, half : half + cols], plane, where=mask)
    rowsums = sum((padded[:, b : b + cols] for b in range(1, window)), padded[:, :cols])
    return sum((rowsums[a : a + rows] for a in range(1, window)), rowsums[:rows])


def speckle_filter(raster: PolsarRaster, config: PreprocessConfig) -> PolsarRaster:
    """Boxcar speckle filter with truncated windows at the borders.

    Each valid output pixel is the entrywise mean of the valid pixels inside
    the window intersected with the raster; no padding values are invented.
    Invalid pixels stay invalid and contribute to no mean. The looks
    metadata is multiplied by the nominal window population.

    Each of the nine packed planes is summed in `_box_sum`'s order and
    multiplied by the reciprocal window population; every entry is within
    4 ulps of the pixel's span of the exact mean.
    """
    if raster.kind != KIND_COHERENCY:
        raise ValueError("speckle filtering requires a coherency raster")
    window, mask = config.filter_window, raster.mask
    planes = np.moveaxis(raster.data, -1, 0)
    out = np.empty_like(planes)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = 1.0 / _box_sum(1.0, mask, window)
        for c in range(9):
            np.multiply(_box_sum(planes[c], mask, window), scale, out=out[c])
    # a valid pixel counts itself, so every valid window is populated
    out[:, ~raster.mask] = 0.0
    looks = raster.looks * window * window
    return PolsarRaster(KIND_COHERENCY, np.moveaxis(out, 0, -1), raster.mask, looks)


def _block_sums(x: np.ndarray, rf: int, af: int) -> np.ndarray:
    """Sums over rf x af blocks: each block's rows in turn, then its columns in
    turn."""
    rows = sum((x[k::rf] for k in range(1, rf)), x[0::rf])
    return sum((rows[:, k::af] for k in range(1, af)), rows[:, 0::af])


def multilook_rows(shape, looks: float, rf: int, af: int, read_rows) -> RowSource:
    """Row source of the rf x af block means of a Sinclair source of the given
    shape: ``rows(lo, hi)`` reads input rows lo*rf:hi*rf in row tiles, where
    ``read_rows(r0, r1, c1)`` returns HH, HV, VH, VV and the mask of rows
    r0:r1, columns :c1. A block sums the ``packed_outer`` products of its valid
    pixels' ``pauli_planes``, +0 if it has none; a pixel non-finite in a channel
    is masked, and so is a block with a non-finite mean (``mask_non_finite``).
    Trailing rows and columns that do not fill a block are dropped."""
    if rf < 1 or af < 1:
        raise ValueError("multilook factors must be positive integers")
    rows, cols = shape[0] // rf, shape[1] // af
    if rows == 0 or cols == 0:
        raise ValueError(f"raster {shape[0]}x{shape[1]} is smaller than one {rf}x{af} block")

    def block_rows(lo: int, hi: int) -> PolsarRaster:
        out = np.empty((9, hi - lo, cols))
        mask = np.empty((hi - lo, cols), dtype=bool)
        step = max(1, _FILTER_TILE_PIXELS // (rf * shape[1]))
        for r0 in range(0, hi - lo, step):
            r1 = min(r0 + step, hi - lo)
            hh, hv, vh, vv, valid = read_rows((lo + r0) * rf, (lo + r1) * rf, cols * af)
            valid = valid & np.isfinite(hh) & np.isfinite(hv) & np.isfinite(vh) & np.isfinite(vv)
            pauli = pauli_planes(hh, hv, vh, vv)
            del hh, hv, vh, vv  # freed before the products
            for x in pauli:
                x[~valid] = 0.0
            counts = _block_sums(valid.astype(np.float64), rf, af)
            mask[r0:r1] = counts > 0
            divisor = np.maximum(counts, 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                for c, product in enumerate(packed_outer(pauli[0::2], pauli[1::2])):
                    np.divide(_block_sums(product, rf, af), divisor, out=out[c, r0:r1])
            del pauli, product, counts, divisor  # freed before the next tile is read
        data = np.moveaxis(out, 0, -1)
        return mask_non_finite(PolsarRaster(KIND_COHERENCY, data, mask, looks * rf * af))

    return RowSource((rows, cols), block_rows)


def multilook(
    raster: PolsarRaster, range_factor: int, azimuth_factor: int
) -> PolsarRaster:
    """Multilook a Sinclair raster into a coherency raster by block averaging.

    Non-overlapping blocks of range_factor rows by azimuth_factor columns are
    averaged as Pauli outer products of the HH, HV' = (HV + VH) / 2 and VV
    entries; trailing rows and columns that do not fill a block are dropped.
    Output looks = input looks * block population; see `multilook_rows`.
    """
    if raster.kind != KIND_SINCLAIR:
        raise ValueError("multilooking requires a Sinclair raster")

    def read_rows(r0, r1, c1):
        s = raster.data[r0:r1, :c1]
        return s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1], raster.mask[r0:r1, :c1]

    source = multilook_rows(raster.shape, raster.looks, range_factor, azimuth_factor, read_rows)
    return source.rows(0, source.shape[0])
