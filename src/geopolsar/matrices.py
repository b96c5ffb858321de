"""Polarimetric matrix algebra for monostatic radar measurements.

Small immutable value types for single-pixel matrices (Sinclair, Pauli,
coherency, Kennaugh) together with vectorized ``*_array`` kernels that
operate on numpy stacks of matrices. Each conversion and the span exist
once, in the kernels, and the single-pixel functions call them; the
coherent Kennaugh matrix is the Kennaugh map of k k^H. The value types
validate their physical invariants on construction; the kernels are pure
functions and safe to run concurrently over disjoint slices. Coherency
input is read by one converter, ``packed_rows``, into packed real rows p(T),
and one closed form, ``packed_ldl``, gives their pivots and adjugates; the
span reads the kind of a stack from its trailing shape.

Conventions: one kernel, ``pauli_planes``, reads Sinclair data, in the Pauli
basis (HH+VV, HH-VV, HV+VH) / sqrt(2); the span of a Sinclair matrix is the
trace of its single-look coherency k k^H, |HH|^2 + 2|HV'|^2 + |VV|^2 with
HV' = (HV + VH) / 2. Coherency matrices are 3x3 Hermitian positive
semidefinite; Kennaugh matrices are 4x4 real symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# Eigenvalues of an averaged coherency matrix may dip slightly below zero
# from floating-point cancellation; tolerate down to -PSD_TOLERANCE * trace.
PSD_TOLERANCE = 1e-9

# Relative symmetry / hermitianity guard used when ingesting raw arrays.
_SYMMETRY_TOLERANCE = 1e-9

_SQRT1_2 = 1.0 / np.sqrt(2.0)

# index pairs of the strict upper triangle of a 4x4 matrix
_UPPER4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# Packed real layout p(T) of a 3x3 Hermitian matrix, the on-disk T3 order:
# [T11, T22, T33, Re T12, Re T13, Re T23, Im T12, Im T13, Im T23]. For
# Hermitian A and B, Tr(AB) = p(A) . W p(B) with the weights W below.
_PACKED = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
PACKED_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
PACKED_WEIGHTS.setflags(write=False)


@dataclass(frozen=True)
class SinclairMatrix:
    """Single-look 2x2 complex scattering matrix.

    Monostatic reciprocity is enforced structurally: only one cross-pol
    term is stored and both accessors return it.
    """

    s_hh: complex
    s_hv: complex
    s_vv: complex

    def __post_init__(self):
        for name in ("s_hh", "s_hv", "s_vv"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @property
    def s_vh(self) -> complex:
        return self.s_hv

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.s_hh, self.s_hv], [self.s_hv, self.s_vv]], dtype=np.complex128
        )


@dataclass(frozen=True)
class PauliVector:
    """3-component complex target vector in the Pauli basis."""

    k1: complex
    k2: complex
    k3: complex

    def __post_init__(self):
        for name in ("k1", "k2", "k3"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.k1, self.k2, self.k3], dtype=np.complex128)

    def norm_squared(self) -> float:
        return float(span_array(coherency_from_pauli_array(self.vector[None])))


@dataclass(frozen=True)
class CoherencyMatrix:
    """3x3 Hermitian positive semidefinite coherency matrix.

    Only the upper triangle is stored: real diagonal (t11, t22, t33) and
    complex off-diagonal terms (t12, t13, t23). Construction rejects
    non-finite entries, a negative diagonal and eigenvalues below
    -PSD_TOLERANCE * trace.
    """

    t11: float
    t22: float
    t33: float
    t12: complex = 0j
    t13: complex = 0j
    t23: complex = 0j

    def __post_init__(self):
        for name in ("t11", "t22", "t33"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("t12", "t13", "t23"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if not np.isfinite(self._row).all():
            raise ValueError("coherency matrix entries must be finite")
        scale = abs(self.t11) + abs(self.t22) + abs(self.t33)
        floor = -PSD_TOLERANCE * max(scale, np.finfo(float).tiny)
        if min(self.t11, self.t22, self.t33) < floor:
            raise ValueError("coherency diagonal must be nonnegative")
        # a nonzero row of zero trace has NaN pivots, which fail too
        if self._row.any() and not (packed_ldl(self._row, PSD_TOLERANCE)[0] >= 0.0).all():
            raise ValueError("coherency matrix is not positive semidefinite")

    @classmethod
    def from_matrix(cls, matrix) -> "CoherencyMatrix":
        """Build from a 3x3 array, validating hermitianity."""
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        scale = max(float(np.abs(m).max()), np.finfo(float).tiny)
        if np.abs(m - m.conj().T).max() > _SYMMETRY_TOLERANCE * scale:
            raise ValueError("coherency matrix must be Hermitian")
        p = pack_coherency_array(m).tolist()
        return cls(*p[:3], *map(complex, p[3:6], p[6:]))

    @property
    def _row(self) -> np.ndarray:
        """The packed row p(T) (``pack_coherency_array``)."""
        t12, t13, t23 = self.t12, self.t13, self.t23
        return np.array([self.t11, self.t22, self.t33, t12.real, t13.real, t23.real,
                         t12.imag, t13.imag, t23.imag])

    @property
    def matrix(self) -> np.ndarray:
        return unpack_coherency_array(self._row)


@dataclass(frozen=True, eq=False)  # compared by identity: its field is an array
class KennaughMatrix:
    """4x4 real symmetric Kennaugh matrix with finite entries.

    The input upper triangle is mirrored onto the lower one, so symmetry
    holds exactly in floating point. The backing array is read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        v = np.array(self.matrix, dtype=np.float64)
        if v.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("Kennaugh matrix entries must be finite")
        scale = max(float(np.abs(v).max()), np.finfo(float).tiny)
        if np.abs(v - v.T).max() > _SYMMETRY_TOLERANCE * scale:
            raise ValueError("Kennaugh matrix must be symmetric")
        for i, j in _UPPER4:
            v[j, i] = v[i, j]
        v.setflags(write=False)
        object.__setattr__(self, "matrix", v)

    @property
    def k11(self) -> float:
        return float(self.matrix[0, 0])


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------


def _stacks(x, n: int, noun: str, dtype=None) -> np.ndarray:
    """x as an array of the dtype, checked to be a stack of n x n matrices
    before it is converted."""
    x = np.asarray(x)
    if x.shape[-2:] != (n, n):
        raise ValueError(f"expected {noun} stacks (..., {n}, {n}), got shape {x.shape}")
    return np.asarray(x, dtype=dtype)


def packed_outer(kr, ki):
    """The nine packed planes p(k k^H) of Pauli vectors k with component real
    parts kr and imaginary parts ki (arrays, or scalars for zeros), in real
    arithmetic: Re T_xy = xr yr + xi yi, Im T_xy = xi yr - xr yi. Every outer
    product of the package (look means, multilook, scene generation) sums these."""
    for i, j in _PACKED:
        yield kr[i] * kr[j] + ki[i] * ki[j]
    for i, j in _PACKED[3:]:
        yield ki[i] * kr[j] - kr[i] * ki[j]


def pauli_planes(hh, hv, vh, vv) -> list:
    """The six float64 planes [Re k1, Im k1, Re k2, Im k2, Re k3, Im k3] of the
    Pauli vectors k = (HH + VV, HH - VV, HV + VH) / sqrt2 of Sinclair channels,
    in real arithmetic; the only code that reads Sinclair data."""
    with np.errstate(invalid="ignore", over="ignore"):
        return [_SQRT1_2 * op(x, y, dtype=np.float64)
                for op, a, b in ((np.add, hh, vv), (np.subtract, hh, vv), (np.add, hv, vh))
                for x, y in ((a.real, b.real), (a.imag, b.imag))]


def _sinclair_planes(s) -> list:
    """``pauli_planes`` of Sinclair stacks (..., 2, 2)."""
    s = _stacks(s, 2, "Sinclair")
    return pauli_planes(*(s[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))))


def pauli_from_sinclair_array(s) -> np.ndarray:
    """Pauli vectors, shape (..., 3), from Sinclair stacks of shape (..., 2, 2)."""
    return np.stack(_sinclair_planes(s), axis=-1).view(np.complex128)


def coherency_from_pauli_array(k) -> np.ndarray:
    """Coherency stacks (..., 3, 3) as the mean outer product over axis -2.

    Input has shape (..., L, 3) with L >= 1 looks. The ``packed_outer`` planes
    are summed over the looks and unpacked, so the result is exactly Hermitian.
    """
    k = np.asarray(k, dtype=np.complex128)
    if k.ndim < 2 or k.shape[-1] != 3:
        raise ValueError(f"expected shape (..., L, 3), got {k.shape}")
    looks = k.shape[-2]
    if looks < 1:
        raise ValueError("no samples")
    planes = packed_outer(np.moveaxis(k.real, -1, 0), np.moveaxis(k.imag, -1, 0))
    return unpack_coherency_array(np.stack([p.sum(axis=-1) / looks for p in planes], axis=-1))


def kennaugh_from_sinclair_array(s) -> np.ndarray:
    """Coherent Kennaugh stacks (..., 4, 4) from Sinclair stacks (..., 2, 2):
    the Kennaugh map of the single-look coherency matrix k k^H."""
    k = _sinclair_planes(s)
    return kennaugh_from_coherency_array(np.stack(list(packed_outer(k[0::2], k[1::2])), axis=-1))


def packed_rows(t) -> np.ndarray:
    """Packed rows (..., 9) of coherency data: real rows pass through as float64,
    with no copy when they already are, and complex rows raise; anything else
    is packed as (..., 3, 3) stacks."""
    t = np.asarray(t)
    if t.shape[-1:] != (9,):
        return pack_coherency_array(t)
    if np.iscomplexobj(t):
        raise ValueError(f"packed coherency rows must be real, got {t.dtype}")
    return t.astype(np.float64, copy=False)


def packed_ldl(p, shift: float = 0.0):
    """(d, adj, tr) of packed rows p (..., 9) of Hermitian T (T12 = x, T13 = y,
    T23 = z), in real arithmetic: tr = tr T, and the LDL^H pivots d (..., 3) and
    packed adjugate (..., 9) of M = T / |tr| + shift I, whose products stay in
    the float range. For tr > 0, tr M = T + shift tr I is positive definite iff
    every pivot is > 0, and then ln|tr M| = 3 ln tr + sum(ln d) and (tr M)^-1 =
    adj / (prod(d) tr). Pivots, unlike a determinant, keep the margin of T + tol tr I."""
    p = packed_rows(p)
    tr = span_array(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = p / np.abs(tr)[..., None]
        m[..., :3] += shift
        a, b, c, xr, yr, zr, xi, yi, zi = np.moveaxis(m, -1, 0)
        xx, yy, zz = xr * xr + xi * xi, yr * yr + yi * yi, zr * zr + zi * zi
        ur, ui = xr * yr + xi * yi, xr * yi - xi * yr  # conj(x) y
        d2 = b - xx / a
        sr, si = zr - ur / a, zi - ui / a  # z - conj(x) y / a
        d3 = (c - yy / a) - (sr * sr + si * si) / d2
        adj = (b * c - zz, a * c - yy, a * b - xx,
               (yr * zr + yi * zi) - c * xr, (xr * zr - xi * zi) - b * yr, ur - a * zr,
               (yi * zr - yr * zi) - c * xi, (xr * zi + xi * zr) - b * yi, ui - a * zi)
    return np.stack([a, d2, d3], axis=-1), np.stack(adj, axis=-1), tr


def kennaugh_from_coherency_array(t) -> np.ndarray:
    """Kennaugh stacks (..., 4, 4) from coherency data (``packed_rows``)."""
    p = packed_rows(t)
    t11, t22, t33, re12, re13, re23, im12, im13, im23 = np.moveaxis(p, -1, 0)
    k = np.empty(p.shape[:-1] + (4, 4), dtype=np.float64)
    k[..., 0, 0] = 0.5 * span_array(p)
    k[..., 1, 1] = 0.5 * (t11 + t22 - t33)
    k[..., 2, 2] = 0.5 * (t11 - t22 + t33)
    k[..., 3, 3] = 0.5 * (-t11 + t22 + t33)
    # the strict upper triangle in _UPPER4 order, mirrored
    for (i, j), entry in zip(_UPPER4, (re12, re13, im23, re23, im13, -im12)):
        k[..., i, j] = k[..., j, i] = entry
    return k


def pack_coherency_array(t) -> np.ndarray:
    """Packed real rows (..., 9) of Hermitian stacks (..., 3, 3), read from the
    upper triangle. The rows view a component-major buffer, so each packed
    column is contiguous."""
    t = _stacks(t, 3, "coherency", np.complex128)
    parts = [t[..., i, j].real for i, j in _PACKED]
    parts += [t[..., i, j].imag for i, j in _PACKED[3:]]
    return np.moveaxis(np.array(parts), 0, -1)


def unpack_coherency_array(p) -> np.ndarray:
    """Exactly Hermitian stacks (..., 3, 3) from packed rows (..., 9)."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros(p.shape[:-1] + (3, 3), dtype=np.complex128)
    for c, (i, j) in enumerate(_PACKED):
        out.real[..., i, j] = out.real[..., j, i] = p[..., c]
    for c, (i, j) in enumerate(_PACKED[3:]):
        out.imag[..., i, j], out.imag[..., j, i] = p[..., 6 + c], -p[..., 6 + c]
    return out


def span_array(data, rows=...) -> np.ndarray:
    """Total scattered power of the matrices [rows] (all by default) of a stack,
    whose trailing shape names its kind: (..., 2, 2) Sinclair, (..., 4, 4)
    Kennaugh, else coherency (``packed_rows``); only the summed entries are read."""
    data = np.asarray(data)
    if data.shape[-2:] == (2, 2):  # the trace of the single-look coherency k k^H
        k = _sinclair_planes(data[rows])
        t = packed_outer(k[0::2], k[1::2])  # T11, T22 and T33 come first
        return (next(t) + next(t)) + next(t)
    if data.shape[-2:] == (4, 4):
        return 2.0 * data[..., 0, 0][rows].real
    p = packed_rows(data)
    return (p[..., 0][rows] + p[..., 1][rows]) + p[..., 2][rows]


# ---------------------------------------------------------------------------
# single-pixel operations
# ---------------------------------------------------------------------------


def pauli_from_sinclair(s: SinclairMatrix) -> PauliVector:
    """Pauli target vector of a Sinclair matrix."""
    return PauliVector(*pauli_from_sinclair_array(s.matrix))


def coherency_from_pauli(samples: Sequence[PauliVector]) -> CoherencyMatrix:
    """Sample coherency matrix of one or more Pauli vectors.

    Raises ValueError("no samples") for an empty sequence.
    """
    stack = np.reshape([p.vector for p in samples], (-1, 3))
    return CoherencyMatrix.from_matrix(coherency_from_pauli_array(stack))


def kennaugh_from_sinclair(s: SinclairMatrix) -> KennaughMatrix:
    """Coherent (single-look) Kennaugh matrix of a Sinclair matrix."""
    return KennaughMatrix(kennaugh_from_sinclair_array(s.matrix))


def kennaugh_from_coherency(t: CoherencyMatrix) -> KennaughMatrix:
    """Incoherent (multilook) Kennaugh matrix of a coherency matrix."""
    return KennaughMatrix(kennaugh_from_coherency_array(t.matrix))


def span(
    value: Union[SinclairMatrix, PauliVector, CoherencyMatrix, KennaughMatrix]
) -> float:
    """Span (total power) of any of the matrix value types."""
    if isinstance(value, PauliVector):
        return value.norm_squared()
    if isinstance(value, (SinclairMatrix, CoherencyMatrix, KennaughMatrix)):
        return float(span_array(value.matrix))
    raise TypeError(f"unsupported type {type(value).__name__}")
