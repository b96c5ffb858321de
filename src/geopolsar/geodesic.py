"""Geodesic distance between Kennaugh matrices and scattering similarity.

The distance treats Kennaugh matrices as points on the unit sphere of the
Frobenius inner product:

    GD(K1, K2) = (2/pi) * arccos( Tr(K1^T K2) / (||K1||_F ||K2||_F) )

It is invariant to positive scaling of either argument, so it compares
scattering structure independent of absolute power. Similarity to a set of
canonical targets turns the distance into per-target fractions
f_i = 1 - GD, normalized shares gamma_i = f_i / sum(f), and power weights
w_i = 2 * k11 * gamma_i whose sum equals the span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from .matrices import PACKED_WEIGHTS, KennaughMatrix, kennaugh_from_coherency_array, span_array

__all__ = [
    "CanonicalTarget",
    "TRIHEDRAL",
    "DIHEDRAL",
    "RANDOM_VOLUME",
    "DEFAULT_TARGETS",
    "SimilarityTriple",
    "geodesic_distance",
    "geodesic_distance_array",
    "similarity",
    "similarity_triple",
    "similarity_arrays",
    "dominant_target",
]

# f values this far below zero are treated as the floating-point image of
# exact orthogonality (GD == 1) and floored to 0; anything lower is rejected.
_NEGATIVE_F_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CanonicalTarget:
    """Named elementary scatterer with its Kennaugh matrix."""

    name: str
    kennaugh: KennaughMatrix

    def __post_init__(self):
        if self.kennaugh.frobenius_norm() == 0.0:
            raise ValueError("degenerate Kennaugh matrix")


TRIHEDRAL = CanonicalTarget("trihedral", KennaughMatrix(np.diag([1.0, 1.0, 1.0, -1.0])))
DIHEDRAL = CanonicalTarget("dihedral", KennaughMatrix(np.diag([1.0, 1.0, -1.0, 1.0])))
RANDOM_VOLUME = CanonicalTarget(
    "random_volume", KennaughMatrix(np.diag([1.0, 0.5, 0.5, 0.0]))
)

# Ordered registry; ties in later argmax operations resolve to the first
# entry, so the order is part of the classifier contract.
DEFAULT_TARGETS: Tuple[CanonicalTarget, ...] = (TRIHEDRAL, DIHEDRAL, RANDOM_VOLUME)


def _frobenius_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ij->...", a, b)


def _geodesic(dot, d1, d2) -> np.ndarray:
    """GD from the Frobenius product dot and the squared norms d1, d2.

    The cosine sign(dot) * sqrt(min(dot^2 / (d1 * d2), 1)) gives exactly 0
    for bitwise-identical arguments and never leaves [-1, 1]; NaN stays NaN.
    """
    ratio = np.minimum((dot * dot) / (d1 * d2), 1.0)
    return (2.0 / np.pi) * np.arccos(np.sign(dot) * np.sqrt(ratio))


def geodesic_distance_array(k1, k2) -> np.ndarray:
    """Geodesic distance over broadcast stacks of 4x4 Kennaugh matrices."""
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    if not (np.isfinite(k1).all() and np.isfinite(k2).all()):
        raise ValueError("Kennaugh matrix entries must be finite")
    d1 = _frobenius_dot(k1, k1)
    d2 = _frobenius_dot(k2, k2)
    if np.any(d1 <= 0.0) or np.any(d2 <= 0.0):
        raise ValueError("degenerate Kennaugh matrix")
    return _geodesic(_frobenius_dot(k1, k2), d1, d2)


def geodesic_distance(
    k1: Union[KennaughMatrix, np.ndarray], k2: Union[KennaughMatrix, np.ndarray]
) -> float:
    """Geodesic distance between two Kennaugh matrices, in [0, 1] for
    physical (positive semidefinite derived) inputs."""
    m1 = k1.matrix if isinstance(k1, KennaughMatrix) else np.asarray(k1, float)
    m2 = k2.matrix if isinstance(k2, KennaughMatrix) else np.asarray(k2, float)
    return float(geodesic_distance_array(m1, m2))


def similarity(k, target: CanonicalTarget) -> float:
    """Similarity 1 - GD(k, target)."""
    return 1.0 - geodesic_distance(k, target.kennaugh)


@dataclass(frozen=True)
class SimilarityTriple:
    """Per-target similarity of one pixel.

    f, gamma and w are keyed by target name in registry order. gamma sums
    to 1; w sums to the pixel span.
    """

    f: Dict[str, float]
    gamma: Dict[str, float]
    w: Dict[str, float]

    def __post_init__(self):
        if not (self.f.keys() == self.gamma.keys() == self.w.keys()):
            raise ValueError("f, gamma and w must share the same target names")
        # written so that NaN fails both checks
        if not all(v >= 0.0 for m in (self.f, self.gamma, self.w) for v in m.values()):
            raise ValueError("similarity entries must be nonnegative")
        total = sum(self.gamma.values())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"gamma must sum to 1, got {total!r}")


def similarity_triple(
    k: KennaughMatrix, targets: Sequence[CanonicalTarget] = DEFAULT_TARGETS
) -> SimilarityTriple:
    """Similarities, normalized shares and power weights for one pixel, as
    ``similarity_arrays`` of a 1x1 stack; raises why it would mask the pixel.

    sum f == 0 cannot occur with the three built-in targets on a nonzero pixel.
    """
    pixel = k.matrix[None, None]
    f, gamma, w, valid = similarity_arrays(pixel, np.ones((1, 1), bool), targets)
    if not valid[0, 0]:
        if k.k11 < 0.0:
            raise ValueError("negative span")
        for target in targets:  # a zero matrix raises "degenerate" here
            if similarity(k, target) < -_NEGATIVE_F_TOLERANCE:
                raise ValueError(f"similarity out of range for target {target.name!r}")
        raise ValueError("equidistant-degenerate pixel")
    names = [t.name for t in targets]
    f, gamma, w = (dict(zip(names, a[:, 0, 0].tolist())) for a in (f, gamma, w))
    return SimilarityTriple(f, gamma, w)


def dominant_target(triple: SimilarityTriple) -> str:
    """Name of the maximum-weight target; ties go to registry order."""
    return list(triple.w)[int(np.argmax(list(triple.w.values())))]


def similarity_arrays(
    pixels: np.ndarray,
    mask: np.ndarray,
    targets: Sequence[CanonicalTarget] = DEFAULT_TARGETS,
):
    """Vectorized similarity over a Kennaugh stack or packed coherency rows.

    Parameters
    ----------
    pixels : (rows, cols, 4, 4) Kennaugh stack, or (rows, cols, 9) packed
        coherency rows (``matrices.packed_rows``), which are scored
        without a Kennaugh stack; the two routes agree to rounding
    mask : (rows, cols) bool array over the pixel grid, True = valid
    targets : ordered target registry

    Returns
    -------
    f, gamma, w : (n_targets, rows, cols) float arrays, NaN where invalid
    valid : (rows, cols) bool array; input mask minus zero-power pixels
    """
    if len(targets) == 0:
        raise ValueError("no targets")
    x = np.asarray(pixels, dtype=np.float64)
    tmat = np.stack([t.kennaugh.matrix for t in targets])
    if x.shape[-2:] == (4, 4):
        dots = np.einsum("rcij,tij->trc", x, tmat)
        d_pix, k11 = _frobenius_dot(x, x), x[..., 0, 0]
    elif x.shape[-1:] == (9,):
        # K(T) is linear in p = p(T), so no Kennaugh stack is formed: Tr(K(T) K_t)
        # = p . A_t with A_t the target pulled back through the packed basis,
        # ||K(T)||^2 = p . W p with W = PACKED_WEIGHTS the basis' Gram matrix,
        # and k11 = span / 2
        basis = kennaugh_from_coherency_array(np.eye(9))
        pullback = np.einsum("cij,tij->ct", basis, tmat)
        planes = np.moveaxis(x, -1, 0)
        dots, d_pix = np.zeros((len(tmat),) + x.shape[:-1]), np.zeros(x.shape[:-1])
        for plane, weights, gram in zip(planes, pullback, PACKED_WEIGHTS):
            d_pix += gram * (plane * plane)
            for row, weight in zip(dots, weights):
                if weight:  # a diagonal target weighs only the diagonal planes
                    row += weight * plane
        k11 = 0.5 * span_array(x, "coherency")
    else:
        raise ValueError(f"expected (rows, cols, 4, 4) or packed (rows, cols, 9), got {x.shape}")
    if np.shape(mask) != d_pix.shape:
        raise ValueError(f"mask shape {np.shape(mask)} does not match the pixel grid {d_pix.shape}")
    valid = np.asarray(mask, bool) & (d_pix > 0.0) & (k11 >= 0.0)

    d_t = _frobenius_dot(tmat, tmat)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 1.0 - _geodesic(dots, d_pix[None], d_t[:, None, None])
    # distances beyond 1 signal an unphysical pixel; mask rather than raise
    valid &= ~np.any(f < -_NEGATIVE_F_TOLERANCE, axis=0)
    f = np.where(f > 0.0, f, 0.0)
    total = f.sum(axis=0)
    valid &= total > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = f / total[None]
    w = (2.0 * k11)[None] * gamma
    f[:, ~valid] = np.nan
    gamma[:, ~valid] = np.nan
    w[:, ~valid] = np.nan
    return f, gamma, w, valid
