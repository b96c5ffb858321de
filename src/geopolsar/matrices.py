"""Polarimetric matrix algebra for monostatic radar measurements.

Small immutable value types for single-pixel matrices (Sinclair, Pauli,
coherency, Kennaugh) together with vectorized ``*_array`` kernels that
operate on numpy stacks of matrices. Each conversion and the span exist
once, in the kernels, and the single-pixel functions call them; the
coherent Kennaugh matrix is the Kennaugh map of k k^H. The value types
validate their physical invariants on construction; the kernels are pure
functions and safe to run concurrently over disjoint slices. Coherency
input is read by one converter, ``packed_rows``, into packed real rows p(T).

Conventions: Pauli basis ordering (HH+VV, HH-VV, 2HV) with a 1/sqrt(2)
normalization, so the squared Pauli norm equals the span
|HH|^2 + 2|HV|^2 + |VV|^2. Coherency matrices are 3x3 Hermitian positive
semidefinite; Kennaugh matrices are 4x4 real symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "PSD_TOLERANCE",
    "PACKED_WEIGHTS",
    "SinclairMatrix",
    "PauliVector",
    "CoherencyMatrix",
    "KennaughMatrix",
    "pauli_from_sinclair",
    "coherency_from_pauli",
    "kennaugh_from_sinclair",
    "kennaugh_from_coherency",
    "span",
    "pauli_from_sinclair_array",
    "coherency_from_pauli_array",
    "kennaugh_from_sinclair_array",
    "kennaugh_from_coherency_array",
    "span_array",
    "packed_rows",
    "pack_coherency_array",
    "unpack_coherency_array",
]

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
        object.__setattr__(self, "s_hh", complex(self.s_hh))
        object.__setattr__(self, "s_hv", complex(self.s_hv))
        object.__setattr__(self, "s_vv", complex(self.s_vv))

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
        object.__setattr__(self, "k1", complex(self.k1))
        object.__setattr__(self, "k2", complex(self.k2))
        object.__setattr__(self, "k3", complex(self.k3))

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.k1, self.k2, self.k3], dtype=np.complex128)

    def norm_squared(self) -> float:
        return abs(self.k1) ** 2 + abs(self.k2) ** 2 + abs(self.k3) ** 2


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
        object.__setattr__(self, "t11", float(self.t11))
        object.__setattr__(self, "t22", float(self.t22))
        object.__setattr__(self, "t33", float(self.t33))
        object.__setattr__(self, "t12", complex(self.t12))
        object.__setattr__(self, "t13", complex(self.t13))
        object.__setattr__(self, "t23", complex(self.t23))
        if not np.isfinite([self.t11, self.t22, self.t33, self.t12, self.t13, self.t23]).all():
            raise ValueError("coherency matrix entries must be finite")
        tr = self.t11 + self.t22 + self.t33
        scale = abs(self.t11) + abs(self.t22) + abs(self.t33)
        floor = -PSD_TOLERANCE * max(scale, np.finfo(float).tiny)
        if min(self.t11, self.t22, self.t33) < floor:
            raise ValueError("coherency diagonal must be nonnegative")
        if scale > 0.0:
            eigmin = float(np.linalg.eigvalsh(self.matrix)[0])
            if eigmin < -PSD_TOLERANCE * tr:
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
        return cls(
            m[0, 0].real,
            m[1, 1].real,
            m[2, 2].real,
            m[0, 1],
            m[0, 2],
            m[1, 2],
        )

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.t11, self.t12, self.t13],
                [np.conj(self.t12), self.t22, self.t23],
                [np.conj(self.t13), np.conj(self.t23), self.t33],
            ],
            dtype=np.complex128,
        )


class KennaughMatrix:
    """4x4 real symmetric Kennaugh matrix with finite entries.

    The input upper triangle is mirrored onto the lower one, so symmetry
    holds exactly in floating point. The backing array is read-only.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
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
        self._values = v

    @property
    def matrix(self) -> np.ndarray:
        return self._values

    @property
    def k11(self) -> float:
        return float(self._values[0, 0])

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.einsum("ij,ij->", self._values, self._values)))

    def __repr__(self):
        return f"KennaughMatrix({self._values.tolist()!r})"


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------


def pauli_from_sinclair_array(s) -> np.ndarray:
    """Pauli vectors, shape (..., 3), from Sinclair stacks of shape (..., 2, 2)."""
    s = np.asarray(s, dtype=np.complex128)
    hh = s[..., 0, 0]
    hv = s[..., 0, 1]
    vv = s[..., 1, 1]
    return _SQRT1_2 * np.stack([hh + vv, hh - vv, 2.0 * hv], axis=-1)


def coherency_from_pauli_array(k) -> np.ndarray:
    """Coherency stacks (..., 3, 3) as the mean outer product over axis -2.

    Input has shape (..., L, 3) with L >= 1 looks. The (i, j) and (j, i)
    accumulations run in the same order, so the result is exactly Hermitian.
    """
    k = np.asarray(k, dtype=np.complex128)
    if k.ndim < 2 or k.shape[-1] != 3:
        raise ValueError(f"expected shape (..., L, 3), got {k.shape}")
    looks = k.shape[-2]
    if looks < 1:
        raise ValueError("no samples")
    t = np.einsum("...la,...lb->...ab", k, k.conj())
    t /= looks
    return t


def kennaugh_from_sinclair_array(s) -> np.ndarray:
    """Coherent Kennaugh stacks (..., 4, 4) from Sinclair stacks (..., 2, 2):
    the Kennaugh map of the single-look coherency matrix k k^H."""
    k = pauli_from_sinclair_array(s)[..., None, :]
    return kennaugh_from_coherency_array(coherency_from_pauli_array(k))


def packed_rows(t) -> np.ndarray:
    """Packed rows (..., 9) of coherency data: rows pass through as float64, with
    no copy when they already are; anything else is packed as (..., 3, 3) stacks."""
    t = np.asarray(t)
    return t.astype(np.float64, copy=False) if t.shape[-1:] == (9,) else pack_coherency_array(t)


def kennaugh_from_coherency_array(t) -> np.ndarray:
    """Kennaugh stacks (..., 4, 4) from coherency data (``packed_rows``)."""
    p = packed_rows(t)
    t11, t22, t33, re12, re13, re23, im12, im13, im23 = np.moveaxis(p, -1, 0)
    k = np.empty(p.shape[:-1] + (4, 4), dtype=np.float64)
    k[..., 0, 0] = 0.5 * span_array(p, "coherency")
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
    t = np.asarray(t, dtype=np.complex128)
    if t.shape[-2:] != (3, 3):
        raise ValueError(f"expected coherency stacks (..., 3, 3), got shape {t.shape}")
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


def span_array(data, kind: str) -> np.ndarray:
    """Total scattered power per matrix in a stack.

    kind is one of 'sinclair', 'coherency' (``packed_rows``), 'kennaugh'.
    """
    data = np.asarray(data)
    if kind == "sinclair":
        hh = data[..., 0, 0]
        hv = data[..., 0, 1]
        vv = data[..., 1, 1]
        return (
            (hh * hh.conj()).real
            + 2.0 * (hv * hv.conj()).real
            + (vv * vv.conj()).real
        )
    if kind == "coherency":
        p = packed_rows(data)
        return (p[..., 0] + p[..., 1]) + p[..., 2]
    if kind == "kennaugh":
        return 2.0 * data[..., 0, 0].real
    raise ValueError(f"unknown matrix kind {kind!r}")


# ---------------------------------------------------------------------------
# single-pixel operations
# ---------------------------------------------------------------------------


def pauli_from_sinclair(s: SinclairMatrix) -> PauliVector:
    """Pauli target vector of a Sinclair matrix."""
    k = pauli_from_sinclair_array(s.matrix)
    return PauliVector(k[0], k[1], k[2])


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


_SPAN_KINDS = (
    (SinclairMatrix, "sinclair"),
    (CoherencyMatrix, "coherency"),
    (KennaughMatrix, "kennaugh"),
)


def span(
    value: Union[SinclairMatrix, PauliVector, CoherencyMatrix, KennaughMatrix]
) -> float:
    """Span (total power) of any of the matrix value types."""
    if isinstance(value, PauliVector):
        return value.norm_squared()
    for cls, kind in _SPAN_KINDS:
        if isinstance(value, cls):
            return float(span_array(value.matrix, kind))
    raise TypeError(f"unsupported type {type(value).__name__}")
