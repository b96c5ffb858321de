"""Category-preserving iterative Wishart classification.

Pixels are first categorized by their dominant canonical target. Each
category is split into span-ordered seed clusters, merged down to a small
number of classes under a size cap, and refined with the complex-Wishart
distance. Non-mixed pixels only ever compete among clusters of their own
category; mixed pixels compete globally and adopt the winning cluster's
category.

Pixels and centers are packed real rows p(T) (``packed_rows``), and one kernel
scores them: d(T, V) = ln|V| + p(T) . Q with Q = W p(V^-1), W = PACKED_WEIGHTS.
Merging keeps D = (M + M^T) / 2 with M[i, j] = d(Vi, Vj); ties go to the first
(i, j). Clusters are counts n_k and packed sums S_k (``_statistics``), which give
the means and the objective sum_p d(T_p, V_k) = sum_k n_k ln|V_k| + p(S_k) . Q_k.

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
from .matrices import (
    PACKED_WEIGHTS, CoherencyMatrix, packed_rows, span_array, unpack_coherency_array
)

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

# Pixels are scored in blocks of this many rows; the block grid is fixed so
# results never depend on the worker count. OpenBLAS runs products this small
# on the calling thread, so its threads never contend with the block pool.
_DISTANCE_BLOCK = 2048


@dataclass
class ClassifierConfig:
    """Clustering and iteration knobs.

    center_regularization is the load epsilon: Wishart distances score pixels
    and centers as X + epsilon * (tr X / 3) * I. Centers stay plain means."""

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


def _matrix(value) -> np.ndarray:
    if isinstance(value, Cluster):
        return value.center
    if isinstance(value, CoherencyMatrix):
        return value.matrix
    return np.asarray(value, dtype=np.complex128)


def _packed(t) -> np.ndarray:
    """(n, 9) packed rows of an (n, 3, 3) coherency stack or of packed rows."""
    t = np.asarray(t)
    if t.shape[1:] not in ((9,), (3, 3)):
        raise ValueError(f"expected pixels of shape (n, 9) or (n, 3, 3), got {t.shape}")
    return packed_rows(t)


def _factor(centers: np.ndarray, epsilon: float, loaded: bool = True):
    """(Q, ln|V'|) for (K, 9) packed centers, unpacked here for LAPACK and loaded
    as V' = V + epsilon (tr V / 3) I, which keeps near-singular centers usable:
    d(T, V') = ln|V'| + p(T) . Q. If loaded, Q scores the loaded pixel T' instead
    (diagonal + eps/3 Tr(V'^-1))."""
    load = epsilon * span_array(centers, "coherency") / 3.0
    reg = unpack_coherency_array(centers) + load[:, None, None] * np.eye(3)
    try:
        chol = np.linalg.cholesky(reg)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular cluster center") from exc
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1).real).sum(axis=-1)
    q = packed_rows(np.linalg.inv(reg))
    q *= PACKED_WEIGHTS  # Tr(AB) = p(A) . W p(B)
    if loaded:
        q[:, :3] += epsilon / 3.0 * span_array(q, "coherency")[:, None]
    return q, logdet


def _distances(t: np.ndarray, q: np.ndarray, offset) -> np.ndarray:
    """p(T) . Q + offset (ln|V|) for packed rows against factored centers."""
    return np.dot(t, q.T) + offset


def wishart_pixel_distance(t, center, epsilon: float = 0.0) -> float:
    """d(T, V) = ln|V| + Tr(V^-1 T) for one pixel and one center."""
    factors = _factor(_packed(_matrix(center)[None]), epsilon, loaded=False)
    return float(_distances(_packed(_matrix(t)[None]), *factors)[0, 0])


def wishart_center_distance(c1, c2, epsilon: float = 0.0) -> float:
    """Symmetrized between-cluster distance D(i, j)."""
    centers = _packed(np.stack([_matrix(c1), _matrix(c2)]))
    m = _distances(centers, *_factor(centers, epsilon))
    return float(0.5 * (m[0, 1] + m[1, 0]))


def _statistics(columns: np.ndarray, t: np.ndarray, k: int):
    """(counts, (k, 9) packed sums) of the rows of t in each of k clusters."""
    sums = [np.bincount(columns, t[:, c], minlength=k) for c in range(9)]
    return np.bincount(columns, minlength=k), np.stack(sums, axis=1)


def _pixel_center_distances(t, q, logdet, cluster_cat, groups, pool):
    """Nearest allowed cluster of every packed pixel, scored in fixed blocks.

    q and logdet are the centers' ``_factor``. groups lists (rows, category):
    those pixels may only join clusters of that category, or of any when None.
    Returns only each pixel's winning column (ties to the lowest); the total
    distance comes from the statistics of the pick. Blocks write disjoint
    rows, so any worker count produces identical bytes.
    """
    pick = np.empty(len(t), dtype=np.intp)
    blocks = []
    for rows, category in groups:
        allowed = np.ones(len(q), bool) if category is None else cluster_cat == category
        # pixels without an allowed cluster score inf against every cluster
        cols = np.flatnonzero(allowed) if allowed.any() else np.arange(len(q))
        offset = np.where(allowed[cols], logdet[cols], np.inf)
        for s0 in range(0, len(rows), _DISTANCE_BLOCK):
            blocks.append((rows[s0 : s0 + _DISTANCE_BLOCK], cols, offset))

    def score(block):
        rows, cols, offset = block
        pick[rows] = cols[np.argmin(_distances(t[rows], q[cols], offset), axis=1)]

    list(pool.map(score, blocks))
    return pick


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

    pixels has shape (n, 3, 3) or packed (n, 9). They are sorted by span and
    split into min(k, n) contiguous bins; the last bin absorbs the remainder.
    Returns the clusters plus each pixel's assigned cluster id.
    """
    pixels = _packed(pixels)
    n = pixels.shape[0]
    if n == 0:
        return [], np.empty(0, dtype=np.int64)
    if k < 1:
        raise ValueError("k must be >= 1")
    order = np.argsort(span_array(pixels, "coherency"), kind="stable")
    k_eff = min(k, n)
    bins = np.empty(n, dtype=np.intp)
    bins[order] = np.minimum(np.arange(n) // (n // k_eff), k_eff - 1)
    counts, sums = _statistics(bins, pixels, k_eff)
    # means times 1 / count, which is how numpy's complex mean rounds
    centers = unpack_coherency_array(sums * (1.0 / counts)[:, None])
    state = zip(range(start_id, start_id + k_eff), centers, counts)
    return [Cluster(i, category, v, int(m)) for i, v, m in state], start_id + bins


def merge_clusters(
    clusters: Sequence[Cluster], config: ClassifierConfig
) -> List[Cluster]:
    """Greedy within-category merging under the size cap.

    Repeatedly merges the pair with the smallest center distance whose
    combined population stays within n_max = 2 * N / final_classes, where N
    is the category population. Stops at final_classes clusters or when no
    pair may merge. The cap applies only here, never during iteration. One
    bitwise symmetric (K, K) distance matrix is refreshed only in the merged
    row and column; ties go to the first pair in row-major upper-triangle order.
    """
    work = sorted(clusters, key=lambda c: c.id)
    if not work:
        return []
    if len({c.category for c in work}) != 1:
        raise ValueError("merge_clusters expects clusters of a single category")
    ids = [c.id for c in work]
    sources = [c.source_ids for c in work]
    counts = np.array([c.member_count for c in work])
    centers = _packed(np.stack([c.center for c in work]))
    alive = np.ones(len(work), dtype=bool)
    n_max = 2.0 * counts.sum() / config.final_classes_per_category
    q, logdet = _factor(centers, config.center_regularization)
    dist = _distances(centers, q, logdet)  # d(Vi, Vj)
    dist = 0.5 * (dist + dist.T)
    for _ in range(len(work) - config.final_classes_per_category):
        allowed = np.outer(alive, alive) & (counts[:, None] + counts[None, :] <= n_max)
        pairs = np.flatnonzero(np.triu(allowed, 1))
        if pairs.size == 0:
            break
        i, j = divmod(int(pairs[np.argmin(dist.flat[pairs])]), len(work))
        na, nb = int(counts[i]), int(counts[j])
        # times 1 / count, which is how numpy's complex mean rounds
        centers[i] = (na * centers[i] + nb * centers[j]) * (1.0 / (na + nb))
        counts[i] = na + nb
        sources[i] = tuple(sorted(sources[i] + sources[j]))
        alive[j] = False
        (q[i],), (logdet[i],) = _factor(centers[i : i + 1], config.center_regularization)
        row = _distances(centers[i : i + 1], q, logdet)[0]
        column = _distances(centers, q[i : i + 1], logdet[i])[:, 0]
        dist[i] = dist[:, i] = 0.5 * (row + column)
    state = zip(ids, unpack_coherency_array(centers), counts, sources, alive)
    return [Cluster(i, work[0].category, v, int(m), s) for i, v, m, s, a in state if a]


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
    t : (n, 3, 3) coherency matrices of the valid pixels, or (n, 9) packed
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
        Wishart distance sum_k n_k ln|V'_k| + p(S_k) . Q_k of the assignment,
        from each cluster's count and packed sum (pass 0 scores no pixel; inf
        if a non-mixed pixel's category has no cluster left). Every pass scores
        the loaded pixels T + epsilon * (tr T / 3) * I against the loaded member
        means, and the mean of loaded pixels is the loaded mean, so each pass is
        a Lloyd step and the total cannot rise. Centers stay plain means.
    """
    t = _packed(t)
    n = t.shape[0]
    work = sorted(clusters, key=lambda c: c.id)
    ids = np.array([c.id for c in work], dtype=np.int64)
    cluster_cat = np.array([c.category for c in work], dtype=np.int64)
    counts = np.array([c.member_count for c in work], dtype=np.int64)
    centers = _packed(np.reshape([c.center for c in work], (-1, 3, 3)))
    survivors = np.arange(len(work))
    labels = np.asarray(initial_labels, dtype=np.int64).copy()
    # pixels grouped by the clusters they may join: their category's, or all if mixed
    mixed = np.asarray(mixed, dtype=bool)
    categories = np.asarray(categories, dtype=np.int64)
    own = np.unique(categories[~mixed])
    groups = [(np.flatnonzero(~mixed & (categories == c)), c) for c in own]
    groups.append((np.flatnonzero(mixed), None))
    history: List[Dict] = []

    def record(iteration, changed, objective):
        fraction = None if changed is None else changed / n
        history.append({"iteration": iteration, "changed": changed, "changed_fraction": fraction,
                        "objective": objective, "clusters": len(ids)})

    def total(counts, sums):
        return float(counts @ logdet + (sums * q).sum())

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # pass 0 totals the post-merge assignment; pass 1 reuses its factors
        objective = 0.0
        if n and len(ids):
            q, logdet = _factor(centers, config.center_regularization)
            columns = np.minimum(np.searchsorted(ids, labels), len(ids) - 1)
            if labels.shape != (n,) or (ids[columns] != labels).any():
                raise ValueError(f"initial_labels must name a known cluster for each of {n} pixels")
            objective = total(*_statistics(columns, t, len(ids)))
        record(0, None, objective)
        for iteration in range(1, config.max_iterations + 1):
            if n == 0 or not len(ids):
                break
            if iteration > 1:
                q, logdet = _factor(centers, config.center_regularization)
            pick = _pixel_center_distances(t, q, logdet, cluster_cat, groups, pool)
            # clusters are id-ordered, so argmin ties resolve to the lowest id
            new_labels = ids[pick]
            changed = int(np.count_nonzero(new_labels != labels))
            labels = new_labels
            counts, sums = _statistics(pick, t, len(ids))
            # a pixel whose category has lost every cluster scores inf
            objective = total(counts, sums) if np.isin(own, cluster_cat).all() else np.inf
            # emptied clusters get a zero mean and retire, as do powerless ones
            centers = sums * (1.0 / np.maximum(counts, 1))[:, None]
            keep = span_array(centers, "coherency") > 0.0
            ids, cluster_cat, counts, centers, survivors = (
                a[keep] for a in (ids, cluster_cat, counts, centers, survivors)
            )
            record(iteration, changed, objective)
            if changed == 0 or changed / n < config.convergence_fraction:
                break
    state = zip([work[a] for a in survivors], unpack_coherency_array(centers), counts)
    clusters = [Cluster(c.id, c.category, v, int(m), c.source_ids) for c, v, m in state]
    return labels, clusters, history
