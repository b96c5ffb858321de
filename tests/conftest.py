"""Shared helpers: random matrix stacks and independent reference routes.

The reference implementations here deliberately use different numerics
than the package (explicit Kronecker products, det/inv instead of
Cholesky factorizations, python loops instead of vectorized kernels) so
agreement between the two is meaningful. The Kronecker expansion oracle
anchors acceptance criterion 3, since the package's coherent Kennaugh
matrix is itself the coherency route. The merge loop, sliding-window
filter, complex deorientation and full-matrix refinement oracles are the
exception: they keep the package's former, slower forms with the same
arithmetic, so the package must match them bit for bit. The multilook
oracle is the package's former complex form too, but the package now sums
the same products in real arithmetic, so the two agree to rounding.
"""

from pathlib import Path

from concurrent.futures import ThreadPoolExecutor

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


#: Row-block budget for the sliding-window filter oracle, in window elements.
_FILTER_CHUNK_ELEMENTS = 8_000_000


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


def speckle_filter_oracle(raster, config):
    """The sliding-window boxcar filter: numpy's complex window sums, then
    complex / real division."""
    from geopolsar.matrices import unpack_coherency_array
    from geopolsar.raster import KIND_COHERENCY, PolsarRaster

    if raster.kind != KIND_COHERENCY:
        raise ValueError("speckle filtering requires a coherency raster")
    window = config.filter_window
    if window == 1:
        return PolsarRaster(
            raster.kind, raster.data.copy(), raster.mask.copy(), raster.looks
        )
    counts = _boxcar_channel(raster.mask.astype(np.float64), window)
    data = np.where(raster.mask[..., None, None], unpack_coherency_array(raster.data), 0.0)
    out = np.empty_like(data)
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


def deorient_oracle(t) -> np.ndarray:
    """The complex deorientation of (..., 3, 3) stacks, the former package
    kernel: T' = R T R^H evaluated entrywise in numpy complex arithmetic."""
    t = np.asarray(t, dtype=np.complex128)
    theta = 0.25 * np.arctan2(
        2.0 * t[..., 1, 2].real, t[..., 1, 1].real - t[..., 2, 2].real
    )
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


def _pixel_center_distance_matrix(t, centers, epsilon, workers=1):
    """Distance matrix (n_pixels, n_centers) over the package's block grid,
    read at call time so a test can make the blocks ragged."""
    from geopolsar import classify

    logdet, vinv = _logdet_and_inverse(_regularize(centers, epsilon))
    n = t.shape[0]
    block = classify._DISTANCE_BLOCK
    out = np.empty((n, len(centers)), dtype=np.float64)
    spans = [(s, min(s + block, n)) for s in range(0, n, block)]

    def fill(span):
        s0, s1 = span
        out[s0:s1] = logdet + np.einsum("kij,pji->pk", vinv, t[s0:s1]).real

    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, spans))
    else:
        for span in spans:
            fill(span)
    return out


def recompute_clusters_oracle(t, labels, clusters):
    """Means over current members; emptied clusters are retired."""
    from geopolsar.classify import Cluster

    survivors = []
    for cluster in clusters:
        members = labels == cluster.id
        count = int(members.sum())
        if count == 0:
            continue
        center = t[members].mean(axis=0)
        if np.trace(center).real <= 0.0:
            continue
        survivors.append(
            Cluster(
                id=cluster.id,
                category=cluster.category,
                center=center,
                member_count=count,
                source_ids=cluster.source_ids,
            )
        )
    return survivors


def iterate_oracle(t, categories, mixed, clusters, config, initial_labels, workers=1):
    """Wishart refinement that builds and masks a full (n_pixels, n_clusters)
    distance matrix each pass; pass 1 reuses the pass-0 matrix."""
    t = np.asarray(t, dtype=np.complex128)
    n = t.shape[0]
    work = sorted((c for c in clusters), key=lambda c: c.id)
    labels = np.asarray(initial_labels, dtype=np.int64).copy()
    current_cat = np.asarray(categories, dtype=np.int64).copy()
    mixed = np.asarray(mixed, dtype=bool)
    epsilon = config.center_regularization
    history = []

    def distance_matrix(cluster_list):
        centers = np.stack([c.center for c in cluster_list])
        return _pixel_center_distance_matrix(t, centers, epsilon, workers)

    if n and work:
        dist = distance_matrix(work)
        ids0 = np.array([c.id for c in work])
        col0 = np.searchsorted(ids0, labels)
        objective = float(dist[np.arange(n), col0].sum())
    else:
        objective = 0.0
    history.append(
        {
            "iteration": 0,
            "changed": None,
            "changed_fraction": None,
            "objective": objective,
            "clusters": len(work),
        }
    )

    for iteration in range(1, config.max_iterations + 1):
        if n == 0 or not work:
            break
        if iteration > 1:
            dist = distance_matrix(work)
        cluster_ids = np.array([c.id for c in work])
        cluster_cat = np.array([c.category for c in work])
        dist[~mixed[:, None] & (cluster_cat[None, :] != current_cat[:, None])] = np.inf
        pick = np.argmin(dist, axis=1)
        new_labels = cluster_ids[pick]
        changed = int(np.count_nonzero(new_labels != labels))
        objective = float(dist[np.arange(n), pick].sum())
        current_cat = np.where(mixed, cluster_cat[pick], current_cat)
        labels = new_labels
        work = recompute_clusters_oracle(t, labels, work)
        history.append(
            {
                "iteration": iteration,
                "changed": changed,
                "changed_fraction": changed / n,
                "objective": objective,
                "clusters": len(work),
            }
        )
        if changed == 0 or changed / n < config.convergence_fraction:
            break
    return labels, work, history


@pytest.fixture(scope="session")
def demo_scene(tmp_path_factory):
    """The demo scene generated once per test session."""
    from geopolsar import run_generate

    out = tmp_path_factory.mktemp("demo") / "scene"
    run_generate(DEMO_SPEC, out)
    return out


def multilook_oracle(raster, range_factor, azimuth_factor):
    """The former package multilook: Pauli vectors, a masked copy, and the
    complex einsum of their outer products over each block."""
    from geopolsar.matrices import pauli_from_sinclair_array
    from geopolsar.raster import KIND_COHERENCY, KIND_SINCLAIR, PolsarRaster

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
