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

#: Pixels per row tile of the speckle filter; a tile's planes stay in cache.
_FILTER_TILE_PIXELS = 32_768

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


def _pairwise_sum(terms):
    """Sum of equal-shape arrays in the order numpy's pairwise reduction adds
    as many contiguous complex values: fewer than 4 in turn; up to 64 in
    four lanes (term k joins lane k % 4), then (l0 + l1) + (l2 + l3), then
    the leftovers in turn; more in two recursive halves."""
    m = len(terms)
    if m > 64:
        split = (m - m % 8) // 2
        return _pairwise_sum(terms[:split]) + _pairwise_sum(terms[split:])
    if m < 4:
        return sum(terms[1:], terms[0])
    full = m - m % 4
    lanes = [sum(terms[j + 4 : full : 4], terms[j]) for j in range(4)]
    return sum(terms[full:], (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))


def _box_sum(padded: np.ndarray, window: int, rows: int, cols: int) -> np.ndarray:
    """Window sums of a plane zero-padded by window // 2: each window row
    pairwise, then the rows top to bottom from +0.0."""
    rowsums = _pairwise_sum([padded[:, b : b + cols] for b in range(window)])
    return sum((rowsums[a : a + rows] for a in range(window)), 0.0)


def speckle_filter(raster: PolsarRaster, config: PreprocessConfig) -> PolsarRaster:
    """Boxcar speckle filter with truncated windows at the borders.

    Each valid output pixel is the entrywise mean of the valid pixels inside
    the window intersected with the raster; no padding values are invented.
    Invalid pixels stay invalid and contribute to no mean. The looks
    metadata is multiplied by the nominal window population.

    The upper triangle's real and imaginary planes (a Hermitian diagonal is
    real) are summed row tile by row tile in `_box_sum`'s order and divided
    with the rounding of complex / real division. The bytes are those of
    numpy's complex sums over (window, window) sliding views, except with one
    column, where numpy adds a window as one run and they agree to rounding.
    """
    if raster.kind != KIND_COHERENCY:
        raise ValueError("speckle filtering requires a coherency raster")
    window = config.filter_window
    if window == 1:
        return PolsarRaster(
            raster.kind, raster.data.copy(), raster.mask.copy(), raster.looks
        )
    rows, cols = raster.shape
    half = window // 2
    step = max(1, _FILTER_TILE_PIXELS // cols)
    out = np.empty_like(raster.data)
    with np.errstate(invalid="ignore", divide="ignore"):
        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            lo, hi = max(r0 - half, 0), min(r1 + half, rows)
            padded = np.zeros((r1 - r0 + 2 * half, cols + 2 * half))
            inner = padded[lo - r0 + half : hi - r0 + half, half : half + cols]

            def box_sum(plane):
                np.copyto(inner, plane, where=raster.mask[lo:hi])
                return _box_sum(padded, window, r1 - r0, cols)

            scale = 1.0 / box_sum(1.0)
            tile = out[r0:r1]
            for i, j in zip(*np.triu_indices(3)):
                entry = raster.data[lo:hi, :, i, j]
                s_re = box_sum(entry.real)
                s_im = box_sum(entry.imag) if i != j else 0.0
                mean = tile[:, :, i, j]
                np.multiply(s_re + s_im * 0.0, scale, out=mean.real)
                np.multiply(s_im - s_re * 0.0, scale, out=mean.imag)
                if i != j:
                    np.conjugate(mean, out=tile[:, :, j, i])
    # a valid pixel counts itself, so every valid window is populated
    out[~raster.mask] = 0.0
    return PolsarRaster(
        KIND_COHERENCY, out, raster.mask.copy(), raster.looks * window * window
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
