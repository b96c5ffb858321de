"""Category-preserving iterative Wishart classification.

Pixels are first categorized by their dominant canonical target. Each
category is split into span-ordered seed clusters, merged down to a small
number of classes under a size cap, and refined with the complex-Wishart
distance. Non-mixed pixels only ever compete among clusters of their own
category; mixed pixels compete globally and adopt the winning cluster's
category.

Pixels and centers are packed real rows p(T) (``packed_rows``), and one kernel
scores them: d(T, V) = ln|V| + p(T) . Q with Q = W p(V^-1), W = PACKED_WEIGHTS,
both in closed form (``packed_ldl``). Each merge round builds D = (M + M^T) / 2,
M[i, j] = d(Vi, Vj); ties go to the first (i, j). Clusters are counts n_k and
packed sums S_k (refinement sums each block as it scores it, ``_block_pass``),
which give the means and the objective sum_k n_k ln|V_k| + p(S_k) . Q_k.

Distances:
    pixel to center   d(T, V) = ln|V| + Tr(V^-1 T)
    center to center  D(i, j) = (1/2) [ ln|Vi| + ln|Vj|
                                        + Tr(Vi^-1 Vj + Vj^-1 Vi) ]
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .geodesic import SimilarityTriple
from .matrices import (
    PACKED_WEIGHTS, packed_ldl, packed_rows, span_array, unpack_coherency_array
)

# Pixels are scored and summed in blocks of this many rows; the grid is fixed so
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
        if not 0.0 <= self.center_regularization < np.inf:
            raise ValueError("center_regularization must be finite and >= 0")


@dataclass(frozen=True)
class PixelCategory:
    """Dominant-target category of a pixel plus its mixed flag."""

    category: str
    mixed: bool


@dataclass(eq=False)  # compared by identity: fields include an array
class Cluster:
    """One Wishart cluster.

    category indexes the target registry; source_ids lists the seed cluster
    ids merged into this one, so post-merge labels can be recomposed. The
    center is stored as its packed row ``row``.
    """

    id: int
    category: int
    center: np.ndarray
    member_count: int
    source_ids: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.member_count < 0:
            raise ValueError("member_count must be >= 0")
        if not self.source_ids:
            self.source_ids = (self.id,)


Cluster.center = property(  # after the class, which keeps center an init field
    lambda c: unpack_coherency_array(c.row), lambda c, value: setattr(c, "row", _row(value)[0]))


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


def _packed(t) -> np.ndarray:
    """(n, 9) packed rows of an (n, 3, 3) coherency stack or of packed rows."""
    t = np.asarray(t)
    if t.shape[1:] not in ((9,), (3, 3)):
        raise ValueError(f"expected pixels of shape (n, 9) or (n, 3, 3), got {t.shape}")
    return packed_rows(t)


def _row(value) -> np.ndarray:
    """(1, 9) packed row of a Cluster, a CoherencyMatrix, a 3x3 matrix or a packed row."""
    return _packed(np.asarray(getattr(value, "row", getattr(value, "matrix", value)))[None])


def _factor(centers: np.ndarray, epsilon: float):
    """(Q, ln|V'|) for (K, 9) packed centers (``packed_ldl``). Pixel and center
    are both loaded, X' = X + epsilon (tr X / 3) I: d(T', V') = ln|V'| + p(T) . Q,
    with Q the weighted p(V'^-1) plus eps/3 Tr(V'^-1) on its diagonal entries.
    V' is singular unless its LDL^H pivots are all > 0, as for Cholesky."""
    d, adj, tr = packed_ldl(centers, epsilon / 3.0)
    if not (d > 0.0).all():
        raise ValueError("singular cluster center")
    logdet = 3.0 * np.log(tr) + np.log(d).sum(axis=-1)
    q = adj / (d.prod(axis=-1) * tr)[:, None]
    q *= PACKED_WEIGHTS  # Tr(AB) = p(A) . W p(B)
    q[:, :3] += epsilon / 3.0 * span_array(q)[:, None]
    return q, logdet


def wishart_pixel_distance(t, center, epsilon: float = 0.0) -> float:
    """d(T', V') = ln|V'| + Tr(V'^-1 T') for one pixel and one center, both
    loaded as X' = X + epsilon (tr X / 3) I, as refinement scores them."""
    q, logdet = _factor(_row(center), epsilon)
    return float((np.dot(_row(t), q.T) + logdet)[0, 0])


def wishart_center_distance(c1, c2, epsilon: float = 0.0) -> float:
    """Symmetrized between-cluster distance D(i, j)."""
    return 0.5 * (wishart_pixel_distance(c1, c2, epsilon) + wishart_pixel_distance(c2, c1, epsilon))


def _block_pass(t, k: int, workers: int, assign):
    """(summed count, (k,) counts, (k, 9) packed sums) of what assign(rows, x)
    -> (count, each row's column) does to fixed blocks of scan-order rows x.
    Each worker, the caller being one, takes one contiguous run of blocks. A
    block's sums are one one-hot product with a component-major copy of x,
    added in block order, so no byte depends on t's layout or the worker count."""
    starts = range(0, len(t), _DISTANCE_BLOCK)
    found, partial = np.zeros(len(starts), np.int64), np.zeros((len(starts), k, 10))

    def run(blocks):
        x, one_hot = np.ones((10, _DISTANCE_BLOCK)), np.eye(k)  # x's ones row counts members
        for b in blocks:
            rows = slice(starts[b], starts[b] + _DISTANCE_BLOCK)
            block = x[:, : len(t[rows])]
            block[:9] = t[rows].T
            found[b], pick = assign(rows, block[:9].T)
            np.dot(np.take(one_hot, pick, axis=0).T, block.T, out=partial[b])

    runs = np.array_split(np.arange(len(starts)), min(workers, len(starts)))  # none empty
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        rest = pool.map(run, runs[1:])
        run(runs[0])
        list(rest)
    totals = partial.sum(axis=0)
    return int(found.sum()), totals[:, 9].astype(np.int64), totals[:, :9]


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def _table(clusters: Sequence[Cluster]):
    """(clusters sorted by id, their ids, categories and counts as int64
    arrays, their (K, 9) packed centers)."""
    work = sorted(clusters, key=lambda c: c.id)
    ids, cats, counts = (np.array([getattr(c, name) for c in work], dtype=np.int64)
                         for name in ("id", "category", "member_count"))
    return work, ids, cats, counts, np.reshape([c.row for c in work], (-1, 9))


def _span_bins(span: np.ndarray, k: int) -> np.ndarray:
    """Bin of each value, ranked with ties in the given order, among min(k, n)
    bins of m = n // min(k, n); the last absorbs the remainder. Only values
    equal to an edge, or NaN, are ranked, so no order of the values is built."""
    k = min(k, len(span))
    m, ordered = len(span) // k, np.sort(span)
    edges = ordered[m * np.arange(k)]  # the values at ranks 0, m, 2m, ...
    bins = np.zeros(len(span), dtype=np.min_scalar_type(k))
    for edge in edges[1:]:  # counts the edges at or below each value, without branches
        np.add(bins, span >= edge, out=bins, casting="unsafe")
    tied = np.flatnonzero(~(edges[bins] < span))  # equal, or NaN, which sorts last
    tied = tied[np.argsort(span[tied], kind="stable")]
    v = span[tied]  # sorted; a value's rank is its first rank plus its place among equals
    rank = np.searchsorted(ordered, v) + np.arange(len(v)) - np.searchsorted(v, v)
    bins[tied] = np.minimum(rank // m, k - 1)
    return bins


def initial_clusters(
    pixels: np.ndarray, k: int, category: Union[int, np.ndarray] = 0
) -> Tuple[List[Cluster], np.ndarray]:
    """Span-ordered equal-population seed clusters of each category, given as
    one int for all pixels or an (n,) array. pixels has shape (n, 3, 3) or
    packed (n, 9). Each category's pixels are ranked by span (ties in scan
    order) and split into min(k, n_c) contiguous bins, the spans at ranks m,
    2m, ... being the edges (``_span_bins``); the last absorbs the remainder.
    Bin b of category c gets id c * k + b. Returns the clusters by id plus
    each pixel's cluster id."""
    pixels = _packed(pixels)
    if k < 1:
        raise ValueError("k must be >= 1")
    slots = np.broadcast_to(category, len(pixels))
    populations = np.bincount(slots)
    columns = np.empty(len(pixels), dtype=np.min_scalar_type(len(populations) * k))
    for c in np.flatnonzero(populations):  # each span from its members alone: none at full size
        members = slots == c
        columns[members] = c * k + _span_bins(span_array(pixels, members), k)
    columns = columns.astype(np.int64)  # once the categories' scratch is freed
    counts = np.bincount(columns, minlength=len(populations) * k)
    sums = np.stack([np.bincount(columns, p, minlength=len(counts)) for p in pixels.T], axis=1)
    seeded = np.flatnonzero(counts)
    # means times 1 / count, which is how numpy's complex mean rounds
    centers = sums[seeded] * (1.0 / counts[seeded])[:, None]
    state = zip(seeded, seeded // k, centers, counts[seeded])
    return [Cluster(int(i), int(c), v, int(m)) for i, c, v, m in state], columns


def merge_clusters(
    clusters: Sequence[Cluster], config: ClassifierConfig
) -> List[Cluster]:
    """Greedy within-category merging under the size cap.

    Repeatedly merges the pair with the smallest center distance whose
    combined population stays within n_max = 2 * N / final_classes, where N
    is the category population, until final_classes clusters remain. The cap
    picks the pair, never whether one merges: of K > final_classes clusters
    the two smallest hold at most 2 * N / K < n_max. It applies only here,
    never during iteration. Each round factors every center and builds one
    bitwise symmetric (K, K) distance matrix; ties go to the first pair in
    row-major upper-triangle order. Two empty clusters merge into the first
    one's center.
    """
    work, _, cluster_cat, counts, centers = _table(clusters)
    if len(np.unique(cluster_cat)) > 1:
        raise ValueError("merge_clusters expects clusters of a single category")
    sources = [c.source_ids for c in work]
    alive = np.ones(len(work), dtype=bool)
    n_max = 2.0 * counts.sum() / config.final_classes_per_category
    for _ in range(len(work) - config.final_classes_per_category):
        allowed = np.outer(alive, alive) & (counts[:, None] + counts[None, :] <= n_max)
        pairs = np.flatnonzero(np.triu(allowed, 1))
        q, logdet = _factor(centers, config.center_regularization)
        dist = np.dot(centers, q.T) + logdet  # d(Vi, Vj)
        dist = 0.5 * (dist + dist.T)
        i, j = divmod(int(pairs[np.argmin(dist.flat[pairs])]), len(work))
        na, nb = int(counts[i]), int(counts[j])
        if na + nb:  # times 1 / count, which is how numpy's complex mean rounds
            centers[i] = (na * centers[i] + nb * centers[j]) * (1.0 / (na + nb))
        counts[i] = na + nb
        sources[i] = tuple(sorted(sources[i] + sources[j]))
        alive[j] = False
    state = zip(work, centers, counts, sources, alive)
    return [Cluster(c.id, c.category, v, int(m), s) for c, v, m, s, a in state if a]


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
    categories : registry index, one int or (n,) (mixed pixels: seeded one)
    mixed : bool mixed flag, one or (n,); mixed pixels compete across all clusters
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
    work, ids, cluster_cat, counts, centers = _table(clusters)
    labels = np.asarray(initial_labels)  # its own dtype, widened only as far as the ids need
    labels = labels.astype(np.result_type(labels, np.min_scalar_type(ids.max(initial=0))))
    # offset table row c serves category c; mixed pixels read row len(cats), open to all
    categories, mixed = np.broadcast_to(categories, n), np.broadcast_to(np.asarray(mixed, bool), n)
    own = np.unique(categories[~mixed])
    cats = np.arange(int(np.max(categories, initial=0)) + 1)[:, None]
    group = np.array(categories, dtype=np.min_scalar_type(len(cats)))
    group[mixed] = len(cats)
    history: List[Dict] = []

    def record(iteration, changed, objective):
        fraction = None if changed is None else changed / n
        history.append({"iteration": iteration, "changed": changed, "changed_fraction": fraction,
                        "objective": objective, "clusters": len(ids)})

    def total(counts, sums):
        return float(counts @ logdet + (sums * q).sum())

    def check(rows, x):  # pass 0: each label's column, and how many name no cluster
        pick = np.minimum(np.searchsorted(ids, labels[rows]), len(ids) - 1)
        return int(np.count_nonzero(ids[pick] != labels[rows])), pick

    def score(rows, x):  # passes 1+: move each pixel to its nearest allowed column, counting moves
        # offsets[g] is ln|V'| where group g may join, else inf; ties go to the lowest column and id
        pick = np.argmin(np.dot(x, q.T) + np.take(offsets, group[rows], axis=0), axis=1)
        changed = int(np.count_nonzero(ids[pick] != labels[rows]))
        labels[rows] = ids[pick]
        return changed, pick

    # pass 0 totals the post-merge assignment; every pass factors its own centers
    objective = 0.0
    if n and len(ids):
        q, logdet = _factor(centers, config.center_regularization)
        known = labels.shape == (n,)  # else every label is unknown
        unknown, counts, sums = _block_pass(t, len(ids), workers, check) if known else (n, 0, 0)
        if unknown:
            raise ValueError(f"initial_labels must name a known cluster for each of {n} pixels")
        objective = total(counts, sums)
    record(0, None, objective)
    for iteration in range(1, config.max_iterations + 1):
        if n == 0 or not len(ids):
            break
        q, logdet = _factor(centers, config.center_regularization)
        offsets = np.vstack([np.where(cats == cluster_cat, logdet, np.inf), logdet])
        changed, counts, sums = _block_pass(t, len(ids), workers, score)
        # a pixel whose category has lost every cluster scores inf
        objective = total(counts, sums) if np.isin(own, cluster_cat).all() else np.inf
        # emptied clusters get a zero mean and retire, as do powerless ones
        centers = sums * (1.0 / np.maximum(counts, 1))[:, None]
        keep = span_array(centers) > 0.0
        ids, cluster_cat, counts, centers = (a[keep] for a in (ids, cluster_cat, counts, centers))
        work = [c for c, k in zip(work, keep) if k]
        record(iteration, changed, objective)
        if changed == 0 or changed / n < config.convergence_fraction:
            break
    state = zip(work, centers, counts)
    clusters = [Cluster(c.id, c.category, v, int(m), c.source_ids) for c, v, m in state]
    return labels, clusters, history
