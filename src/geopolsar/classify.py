"""Category-preserving iterative Wishart classification.

Pixels are first categorized by their dominant canonical target. Each
category is split into span-ordered seed clusters, merged down to a small
number of classes under a size cap, and refined with the complex-Wishart
distance. Non-mixed pixels only ever compete among clusters of their own
category; mixed pixels compete globally and adopt the winning cluster's
category. Each distance is computed once: merging keeps a cached center-
distance matrix (ties go to the first pair (i, j) in row-major order), and
each refinement pass scores the pixels one fixed block at a time, keeping
only each pixel's nearest allowed cluster and its distance.

Distances:
    pixel to center   d(T, V) = ln|V| + Tr(V^-1 T)
    center to center  D(i, j) = (1/2) [ ln|Vi| + ln|Vj|
                                        + Tr(Vi^-1 Vj + Vj^-1 Vi) ]
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .geodesic import SimilarityTriple
from .matrices import CoherencyMatrix

__all__ = [
    "ClassifierConfig",
    "PixelCategory",
    "Cluster",
    "categorize",
    "categorize_arrays",
    "initial_clusters",
    "wishart_pixel_distance",
    "wishart_center_distance",
    "merge_clusters",
    "iterate_classification",
]

# Pixels are scored against distance blocks of this many rows; the block
# grid is fixed so results never depend on the worker count.
_DISTANCE_BLOCK = 8192


@dataclass
class ClassifierConfig:
    """Clustering and iteration knobs."""

    initial_clusters_per_category: int = 30
    final_classes_per_category: int = 5
    max_iterations: int = 4
    convergence_fraction: float = 0.01
    mixed_threshold: float = 0.5
    center_regularization: float = 1e-6

    def __post_init__(self):
        if self.initial_clusters_per_category < 1:
            raise ValueError("initial_clusters_per_category must be >= 1")
        if self.final_classes_per_category < 1:
            raise ValueError("final_classes_per_category must be >= 1")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not 0.0 <= self.convergence_fraction <= 1.0:
            raise ValueError("convergence_fraction must lie in [0, 1]")
        if not 0.0 < self.mixed_threshold <= 1.0:
            raise ValueError("mixed_threshold must lie in (0, 1]")
        if self.center_regularization < 0.0:
            raise ValueError("center_regularization must be >= 0")


@dataclass(frozen=True)
class PixelCategory:
    """Dominant-target category of a pixel plus its mixed flag."""

    category: str
    mixed: bool


@dataclass
class Cluster:
    """One Wishart cluster.

    category indexes the target registry; source_ids lists the seed cluster
    ids merged into this one, so post-merge labels can be recomposed.
    """

    id: int
    category: int
    center: np.ndarray
    member_count: int
    source_ids: Tuple[int, ...] = ()

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.complex128)
        if self.center.shape != (3, 3):
            raise ValueError("cluster center must be a 3x3 matrix")
        if self.member_count < 0:
            raise ValueError("member_count must be >= 0")
        if not self.source_ids:
            self.source_ids = (self.id,)


def categorize(
    triple: SimilarityTriple, threshold: float = 0.5
) -> PixelCategory:
    """Assign the dominant-target category; flag the pixel mixed when the
    winning weight fails to exceed threshold * sum(w)."""
    names = list(triple.w)
    category, mixed, valid = categorize_arrays(
        [[value] for value in triple.w.values()], threshold
    )
    if not valid[0]:
        raise ValueError("invalid pixel: weights sum to zero")
    return PixelCategory(names[category[0]], bool(mixed[0]))


def categorize_arrays(w: np.ndarray, threshold: float = 0.5):
    """Vectorized categorization.

    Parameters
    ----------
    w : (n_targets, n_pixels) weight array
    threshold : mixed-pixel threshold on max(w) / sum(w)

    Returns
    -------
    category : (n_pixels,) int argmax indices (ties to the lowest index)
    mixed : (n_pixels,) bool
    valid : (n_pixels,) bool, False where weights are absent or sum to zero
    """
    w = np.asarray(w, dtype=np.float64)
    total = w.sum(axis=0)
    valid = np.isfinite(total) & (total > 0.0)
    category = np.argmax(np.where(np.isfinite(w), w, -np.inf), axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.max(w, axis=0) / total
    mixed = valid & (ratio <= threshold)
    return category, mixed, valid


# ---------------------------------------------------------------------------
# Wishart distances
# ---------------------------------------------------------------------------


def _center_matrix(center) -> np.ndarray:
    if isinstance(center, Cluster):
        return center.center
    if isinstance(center, CoherencyMatrix):
        return center.matrix
    return np.asarray(center, dtype=np.complex128)


def _factor(centers: np.ndarray, epsilon: float):
    """(reg, ln|reg|, reg^-1) for reg = V + epsilon * (tr V / 3) * I; the
    regularization keeps near-singular centers usable."""
    tr = np.trace(centers, axis1=-2, axis2=-1).real
    reg = centers + (epsilon * tr / 3.0)[..., None, None] * np.eye(3)
    try:
        chol = np.linalg.cholesky(reg)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular cluster center") from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    logdet = 2.0 * np.log(diag).sum(axis=-1)
    return reg, logdet, np.linalg.inv(reg)


def _center_row(a: int, reg: np.ndarray, logdet: np.ndarray, vinv: np.ndarray):
    """D(a, k) for every k; one row per call keeps D(a, k) == D(k, a) bitwise."""
    cross = np.einsum("ij,kji->k", vinv[a], reg) + np.einsum("kij,ji->k", vinv, reg[a])
    return 0.5 * (logdet[a] + logdet + cross.real)


def _block_distances(t: np.ndarray, logdet: np.ndarray, vinv: np.ndarray):
    """d(T, V) for a block of pixels (rows) against factored centers (columns)."""
    return logdet + np.einsum("kij,pji->pk", vinv, t).real


def wishart_pixel_distance(t, center, epsilon: float = 0.0) -> float:
    """d(T, V) = ln|V| + Tr(V^-1 T) for one pixel and one center."""
    tm = t.matrix if isinstance(t, CoherencyMatrix) else np.asarray(t, complex)
    _, logdet, vinv = _factor(_center_matrix(center)[None], epsilon)
    return float(_block_distances(tm[None], logdet, vinv)[0, 0])


def wishart_center_distance(c1, c2, epsilon: float = 0.0) -> float:
    """Symmetrized between-cluster distance D(i, j)."""
    centers = np.stack([_center_matrix(c1), _center_matrix(c2)])
    return float(_center_row(0, *_factor(centers, epsilon))[1])


def _pixel_center_distances(t, clusters, epsilon, categories, mixed, pool, current=None):
    """Nearest allowed cluster of every pixel, scored one fixed block at a time.

    A pixel that is not mixed may only join clusters of its own category.
    Returns the winning column per pixel (ties to the lowest column), its
    distance, and, when current gives a column per pixel, the distance to
    that column. Blocks run on the thread pool and write disjoint slices, so
    any worker count produces identical bytes; no (pixels, clusters) matrix
    outlives its block.
    """
    _, logdet, vinv = _factor(np.stack([c.center for c in clusters]), epsilon)
    cluster_cat = np.array([c.category for c in clusters])
    n = t.shape[0]
    pick = np.empty(n, dtype=np.intp)
    best = np.empty(n)
    at_current = None if current is None else np.empty(n)

    def score(s0):
        s1 = min(s0 + _DISTANCE_BLOCK, n)
        dist = _block_distances(t[s0:s1], logdet, vinv)
        rows = np.arange(s1 - s0)
        if current is not None:
            at_current[s0:s1] = dist[rows, current[s0:s1]]
        dist[~mixed[s0:s1, None] & (cluster_cat != categories[s0:s1, None])] = np.inf
        pick[s0:s1] = np.argmin(dist, axis=1)
        best[s0:s1] = dist[rows, pick[s0:s1]]

    list(pool.map(score, range(0, n, _DISTANCE_BLOCK)))
    return pick, best, at_current


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def initial_clusters(
    pixels: np.ndarray,
    k: int,
    category: int = 0,
    start_id: int = 0,
) -> Tuple[List[Cluster], np.ndarray]:
    """Span-ordered equal-population seed clusters for one category.

    pixels has shape (n, 3, 3). Pixels are sorted by span and split into
    min(k, n) contiguous bins; the last bin absorbs the remainder. Returns
    the clusters plus each pixel's assigned cluster id.
    """
    pixels = np.asarray(pixels, dtype=np.complex128)
    n = pixels.shape[0]
    if n == 0:
        return [], np.empty(0, dtype=np.int64)
    if k < 1:
        raise ValueError("k must be >= 1")
    spans = np.trace(pixels, axis1=-2, axis2=-1).real
    order = np.argsort(spans, kind="stable")
    k_eff = min(k, n)
    base = n // k_eff
    labels = np.empty(n, dtype=np.int64)
    clusters: List[Cluster] = []
    for b in range(k_eff):
        lo = b * base
        hi = (b + 1) * base if b < k_eff - 1 else n
        members = order[lo:hi]
        cid = start_id + b
        labels[members] = cid
        clusters.append(
            Cluster(
                id=cid,
                category=category,
                center=pixels[members].mean(axis=0),
                member_count=len(members),
            )
        )
    return clusters, labels


def merge_clusters(
    clusters: Sequence[Cluster], config: ClassifierConfig
) -> List[Cluster]:
    """Greedy within-category merging under the size cap.

    Repeatedly merges the pair with the smallest center distance whose
    combined population stays within n_max = 2 * N / final_classes, where N
    is the category population. Stops at final_classes clusters or when no
    pair may merge. The cap applies only here, never during iteration. One
    cached (K, K) distance matrix is refreshed only in the merged row and
    column; ties go to the first pair in row-major order of the upper triangle.
    """
    work = sorted(clusters, key=lambda c: c.id)
    if not work:
        return []
    categories = {c.category for c in work}
    if len(categories) != 1:
        raise ValueError("merge_clusters expects clusters of a single category")
    n_total = sum(c.member_count for c in work)
    n_max = 2.0 * n_total / config.final_classes_per_category
    epsilon = config.center_regularization
    factors = _factor(np.stack([c.center for c in work]), epsilon)
    dist = np.stack([_center_row(a, *factors) for a in range(len(work))])
    while len(work) > config.final_classes_per_category:
        counts = np.array([c.member_count for c in work])
        allowed = np.triu(counts[:, None] + counts[None, :] <= n_max, 1)
        pairs = np.flatnonzero(allowed)
        if pairs.size == 0:
            break
        i, j = divmod(int(pairs[np.argmin(dist.flat[pairs])]), len(work))
        a, b = work[i], work[j]
        count = a.member_count + b.member_count
        center = (a.member_count * a.center + b.member_count * b.center) / count
        work[i] = Cluster(
            id=a.id,
            category=a.category,
            center=center,
            member_count=count,
            source_ids=tuple(sorted(a.source_ids + b.source_ids)),
        )
        del work[j]
        for stack, value in zip(factors, _factor(center[None], epsilon)):
            stack[i] = value[0]
        factors = [np.delete(stack, j, axis=0) for stack in factors]
        dist = np.delete(np.delete(dist, j, axis=0), j, axis=1)
        dist[i] = dist[:, i] = _center_row(i, *factors)
    return work


def _recompute_clusters(
    t: np.ndarray, labels: np.ndarray, clusters: List[Cluster]
) -> List[Cluster]:
    """Means over current members; emptied clusters are retired."""
    survivors: List[Cluster] = []
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


def iterate_classification(
    t: np.ndarray,
    categories: np.ndarray,
    mixed: np.ndarray,
    clusters: Sequence[Cluster],
    config: ClassifierConfig,
    initial_labels: np.ndarray,
    workers: int = 1,
) -> Tuple[np.ndarray, List[Cluster], List[Dict]]:
    """Iterative Wishart refinement of cluster labels.

    Parameters
    ----------
    t : (n, 3, 3) coherency matrices of the valid pixels
    categories : (n,) registry index per pixel (mixed pixels: seeded one)
    mixed : (n,) bool mixed flags; mixed pixels compete across all clusters
    clusters : post-merge clusters
    config : iteration knobs
    initial_labels : (n,) post-merge cluster id per pixel
    workers : worker threads for the distance blocks (result-invariant)

    Returns
    -------
    labels : (n,) final cluster id per pixel
    clusters : surviving clusters with refreshed centers and counts
    history : one record per pass with label-change counts and the total
        Wishart distance of the assignment. Each pass scores against the
        regularized centers but sets plain member means, so the total cannot
        rise when center_regularization is 0 and may rise slightly above it.
    """
    t = np.asarray(t, dtype=np.complex128)
    n = t.shape[0]
    work = sorted(clusters, key=lambda c: c.id)
    labels = np.asarray(initial_labels, dtype=np.int64).copy()
    categories = np.asarray(categories, dtype=np.int64)
    mixed = np.asarray(mixed, dtype=bool)
    history: List[Dict] = []

    def record(iteration, changed, objective):
        history.append(
            {
                "iteration": iteration,
                "changed": changed,
                "changed_fraction": None if changed is None else changed / n,
                "objective": objective,
                "clusters": len(work),
            }
        )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # pass 0 scores the post-merge assignment; pass 1 reuses its scores
        objective = 0.0
        if n and work:
            current = np.searchsorted([c.id for c in work], labels)
            pick, best, at_current = _pixel_center_distances(
                t, work, config.center_regularization, categories, mixed, pool, current
            )
            objective = float(at_current.sum())
        record(0, None, objective)
        for iteration in range(1, config.max_iterations + 1):
            if n == 0 or not work:
                break
            if iteration > 1:
                pick, best, _ = _pixel_center_distances(
                    t, work, config.center_regularization, categories, mixed, pool
                )
            # clusters are id-ordered, so argmin ties resolve to the lowest id
            new_labels = np.array([c.id for c in work])[pick]
            changed = int(np.count_nonzero(new_labels != labels))
            labels = new_labels
            work = _recompute_clusters(t, labels, work)
            record(iteration, changed, float(best.sum()))
            if changed == 0 or changed / n < config.convergence_fraction:
                break
    return labels, work, history
