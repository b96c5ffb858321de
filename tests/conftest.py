"""Shared helpers: random matrix stacks and independent reference routes.

The reference implementations here deliberately use different numerics
than the package (explicit Kronecker products, det/inv instead of
Cholesky factorizations, python loops instead of vectorized kernels) so
agreement between the two is meaningful. The merge loop oracle is the
exception: it keeps the package's per-pair arithmetic and re-scores every
pair each round, so the cached-matrix merge must match it bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest

DEMO_SPEC = Path(__file__).resolve().parents[1] / "demo" / "three_region.spec"

# 4x4 expansion matrix mapping the lexicographic Sinclair product basis
# onto the Kennaugh basis.
_EXPANSION = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1j, -1j, 0],
    ],
    dtype=np.complex128,
)


def random_sinclair_stack(rng, n, scale=1.0):
    """(n, 2, 2) reciprocal scattering matrices with complex entries."""
    vals = scale * (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
    s = np.empty((n, 2, 2), dtype=np.complex128)
    s[:, 0, 0] = vals[:, 0]
    s[:, 0, 1] = vals[:, 1]
    s[:, 1, 0] = vals[:, 1]
    s[:, 1, 1] = vals[:, 2]
    return s


def random_psd_stack(rng, n, looks=4, scale=1.0):
    """(n, 3, 3) Hermitian positive semidefinite matrices.

    Built as averaged outer products of `looks` complex Gaussian vectors,
    which is also how measured coherency matrices arise.
    """
    z = scale * (
        rng.standard_normal((n, looks, 3)) + 1j * rng.standard_normal((n, looks, 3))
    )
    return np.einsum("nla,nlb->nab", z, z.conj()) / looks


def kennaugh_expansion_oracle(s):
    """Coherent Kennaugh matrices via the literal matrix construction
    K = (1/2) A* (S kron S*) A^H.

    Asserts that the imaginary residue of the construction is at floating
    point noise level before discarding it.
    """
    s = np.asarray(s, dtype=np.complex128)
    single = s.ndim == 2
    if single:
        s = s[None]
    out = np.empty(s.shape[:-2] + (4, 4), dtype=np.float64)
    for idx in range(s.shape[0]):
        kron = np.kron(s[idx], s[idx].conj())
        k = 0.5 * (_EXPANSION.conj() @ kron @ _EXPANSION.conj().T)
        scale = max(np.abs(k).max(), np.finfo(float).tiny)
        assert np.abs(k.imag).max() <= 1e-12 * scale
        out[idx] = k.real
    return out[0] if single else out


def wishart_pixel_oracle(t, v):
    """ln|V| + Tr(V^-1 T) via determinant and inverse."""
    sign, logdet = np.linalg.slogdet(v)
    assert sign.real > 0
    return float(logdet.real + np.trace(np.linalg.inv(v) @ t).real)


def wishart_center_oracle(v1, v2):
    s1, ld1 = np.linalg.slogdet(v1)
    s2, ld2 = np.linalg.slogdet(v2)
    assert s1.real > 0 and s2.real > 0
    cross = np.trace(np.linalg.inv(v1) @ v2) + np.trace(np.linalg.inv(v2) @ v1)
    return float(0.5 * (ld1.real + ld2.real + cross.real))


def _regularize(centers, epsilon):
    """V + epsilon * (tr V / 3) * I, keeping near-singular centers usable."""
    tr = np.trace(centers, axis1=-2, axis2=-1).real
    return centers + (epsilon * tr / 3.0)[..., None, None] * np.eye(3)


def _logdet_and_inverse(centers):
    try:
        chol = np.linalg.cholesky(centers)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular cluster center") from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    logdet = 2.0 * np.log(diag).sum(axis=-1)
    return logdet, np.linalg.inv(centers)


def scalar_center_distance_oracle(v1, v2, epsilon=0.0):
    """The single-pair einsum form of D(i, j) the merge loop oracle calls."""
    v1 = np.asarray(getattr(v1, "center", v1), dtype=np.complex128)
    v2 = np.asarray(getattr(v2, "center", v2), dtype=np.complex128)
    if epsilon:
        v1 = _regularize(v1, epsilon)
        v2 = _regularize(v2, epsilon)
    ld1, inv1 = _logdet_and_inverse(v1)
    ld2, inv2 = _logdet_and_inverse(v2)
    cross = np.einsum("ij,ji->", inv1, v2).real + np.einsum("ij,ji->", inv2, v1).real
    return float(0.5 * (ld1 + ld2 + cross))


def merge_loop_oracle(clusters, config):
    """Capped greedy merging that scores every allowed pair again each round.

    Strict '<' over pairs in row-major (i, j) order keeps the first of tied
    pairs, the rule the package's cached-matrix merge must reproduce.
    """
    from geopolsar.classify import Cluster

    work = sorted(clusters, key=lambda c: c.id)
    if not work:
        return []
    n_total = sum(c.member_count for c in work)
    n_max = 2.0 * n_total / config.final_classes_per_category
    epsilon = config.center_regularization
    while len(work) > config.final_classes_per_category:
        best = None
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if work[i].member_count + work[j].member_count > n_max:
                    continue
                d = scalar_center_distance_oracle(work[i], work[j], epsilon)
                if best is None or d < best[0]:
                    best = (d, i, j)
        if best is None:
            break
        _, i, j = best
        a, b = work[i], work[j]
        count = a.member_count + b.member_count
        center = (a.member_count * a.center + b.member_count * b.center) / count
        merged = Cluster(
            id=min(a.id, b.id),
            category=a.category,
            center=center,
            member_count=count,
            source_ids=tuple(sorted(a.source_ids + b.source_ids)),
        )
        work = [c for idx, c in enumerate(work) if idx not in (i, j)]
        work.append(merged)
        work.sort(key=lambda c: c.id)
    return work


@pytest.fixture(scope="session")
def demo_scene(tmp_path_factory):
    """The demo scene generated once per test session."""
    from geopolsar import run_generate

    out = tmp_path_factory.mktemp("demo") / "scene"
    run_generate(DEMO_SPEC, out)
    return out
