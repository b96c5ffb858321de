"""Shared helpers: random matrix stacks and independent reference routes.

The reference implementations here deliberately use different numerics
than the package (explicit Kronecker products, det/inv instead of
Cholesky factorizations, python loops instead of vectorized kernels) so
agreement between the two is meaningful. The Kronecker expansion oracle
anchors acceptance criterion 3, since the package's coherent Kennaugh
matrix is itself the coherency route. The merge loop, full-matrix
refinement, lexsort seeding and staged scene writer oracles are the
exception: they keep the package's former, slower forms with the same
arithmetic, so the package must match them bit for bit. The sliding-window filter, complex deorientation and multilook
oracles are the package's former complex forms too, but the package now
computes the same values in plain real arithmetic, so the two agree to
rounding. The filter and deorientation are also held to an np.longdouble
evaluation of the same operation, within 4 ulps of each pixel's span. The
per-look scene generator is the package's former sampler; the package now
draws the same law another way, so the two agree in distribution only.
``classify_oracle`` chains the stage oracles into a whole classify run; only
its partition and mask are held to the package's, exactly.
"""

import dataclasses
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


def _loaded_center(v, epsilon):
    """(V', ln|V'|, V'^-1) of a cluster or a 3x3 center, loaded when epsilon > 0."""
    v = np.asarray(getattr(v, "center", v), dtype=np.complex128)
    if epsilon:
        v = _regularize(v, epsilon)
    return (v, *_logdet_and_inverse(v))


def _loaded_pair_distance(a, b):
    """D(i, j) of two ``_loaded_center`` results, as single-pair einsums."""
    (v1, ld1, inv1), (v2, ld2, inv2) = a, b
    cross = np.einsum("ij,ji->", inv1, v2).real + np.einsum("ij,ji->", inv2, v1).real
    return float(0.5 * (ld1 + ld2 + cross))


def scalar_center_distance_oracle(v1, v2, epsilon=0.0):
    """The single-pair einsum form of D(i, j) the merge loop oracle scores."""
    return _loaded_pair_distance(_loaded_center(v1, epsilon), _loaded_center(v2, epsilon))


def merge_loop_oracle(clusters, config):
    """Capped greedy merging that scores every allowed pair again each round,
    from each live center loaded and factored once per round.

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
        loaded, best = [_loaded_center(c, epsilon) for c in work], None
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if work[i].member_count + work[j].member_count > n_max:
                    continue
                d = _loaded_pair_distance(loaded[i], loaded[j])
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


def ulps_of_span(out, ref) -> np.ndarray:
    """|out - ref| of packed rows (..., 9) in ulps of each pixel's span, the
    |T11| + |T22| + |T33| of ref's finite entries or their largest magnitude
    where that is larger (a pixel that is not PSD); 0 where either entry is
    not finite."""
    with np.errstate(invalid="ignore"):
        diff = np.abs(out - ref).astype(np.float64)
    mags = np.abs(np.asarray(ref, dtype=np.float64))
    mags[~np.isfinite(mags)] = 0.0
    span = np.maximum(mags[..., :3].sum(axis=-1), mags.max(axis=-1))
    diff[~np.isfinite(diff)] = 0.0
    return diff / np.spacing(span)[..., None]


def speckle_filter_longdouble(raster, window: int) -> np.ndarray:
    """The truncated-window boxcar means of a packed raster's valid pixels in
    np.longdouble: window sums by rows, then by columns; masked pixels 0."""
    rows, cols = raster.mask.shape
    half = window // 2
    padded = np.zeros((rows + 2 * half, cols + 2 * half, 10), dtype=np.longdouble)
    inner = padded[half : half + rows, half : half + cols]
    inner[..., :9] = np.where(raster.mask[..., None], raster.data, 0.0)
    inner[..., 9] = raster.mask
    rowsums = padded[:, :cols].copy()
    for b in range(1, window):
        rowsums += padded[:, b : b + cols]
    sums = rowsums[:rows].copy()
    for a in range(1, window):
        sums += rowsums[a : a + rows]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = sums[..., :9] / sums[..., 9:]
    out[~raster.mask] = 0.0
    return out


def deorient_longdouble(p) -> np.ndarray:
    """Deorientation of packed rows (..., 9) in np.longdouble, angle included."""
    t11, t22, t33, r12, r13, r23, i12, i13, i23 = np.moveaxis(
        np.asarray(p, dtype=np.longdouble), -1, 0
    )
    two_theta = 0.5 * np.arctan2(2.0 * r23, t22 - t33)
    c, s = np.cos(two_theta), np.sin(two_theta)
    cc, ss, cs = c * c, s * s, c * s
    return np.stack(
        [
            t11,
            cc * t22 + ss * t33 + 2.0 * cs * r23,
            ss * t22 + cc * t33 - 2.0 * cs * r23,
            c * r12 + s * r13,
            c * r13 - s * r12,
            cs * (t33 - t22) + (cc - ss) * r23,
            c * i12 + s * i13,
            c * i13 - s * i12,
            (cc + ss) * i23,
        ],
        axis=-1,
    )


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


def initial_clusters_oracle(pixels, k, category=0):
    """The former seeding rule: one stable ``np.lexsort`` by (category, span)
    orders every category, and each category's run of that order is cut into
    min(k, n_c) bins of n_c // min(k, n_c), the last taking the remainder.
    Seeds are each bin's members summed in index order by ``np.bincount``."""
    from geopolsar.classify import Cluster
    from geopolsar.matrices import packed_rows, span_array, unpack_coherency_array

    pixels = packed_rows(np.asarray(pixels))
    slots = np.broadcast_to(category, len(pixels))
    order = np.lexsort((span_array(pixels), slots))
    present, populations = np.unique(slots, return_counts=True)
    columns = np.empty(len(pixels), dtype=np.int64)
    for c, n_c, end in zip(present, populations, np.cumsum(populations)):
        k_eff = min(k, n_c)
        bins = np.minimum(np.arange(n_c) // (n_c // k_eff), k_eff - 1)
        columns[order[end - n_c : end]] = int(c) * k + bins
    size = (int(present[-1]) + 1) * k
    counts = np.bincount(columns, minlength=size)
    sums = np.stack([np.bincount(columns, pixels[:, c], minlength=size) for c in range(9)], axis=1)
    seeded = np.flatnonzero(counts)
    centers = unpack_coherency_array(sums[seeded] * (1.0 / counts[seeded])[:, None])
    state = zip(seeded, seeded // k, centers, counts[seeded])
    return [Cluster(int(i), int(c), v, int(m)) for i, c, v, m in state], columns


def append_scene_oracle(files, raster, rows, dtype="float32"):
    """The former scene writer: each component staged as a float64 (rows,
    cols, parts) stack, masked pixels set to NaN there, then cast to the
    file dtype, a cast whose finiteness differs from the stack's raising."""
    from geopolsar.raster import KIND_COHERENCY
    from geopolsar.scene import _DTYPES, _LAYOUT

    if dtype not in _DTYPES:
        raise ValueError(f"unknown scene dtype {dtype!r}")
    kind = "T3" if raster.kind == KIND_COHERENCY else "S2"
    casts = {}
    for name, index in _LAYOUT[kind].items():
        if kind == "T3":
            values = raster.data[..., list(index)]
        else:
            entry = raster.data[(..., *index)]
            values = np.stack([entry.real, entry.imag], axis=-1)
        values[~raster.mask] = np.nan
        with np.errstate(over="ignore"):
            casts[name] = np.ascontiguousarray(values, dtype=_DTYPES[dtype])
        if (np.isfinite(casts[name]) != np.isfinite(values)).any():
            raise ValueError(f"component {name}: finite values beyond the {dtype} range")
    if not files.files:
        head = dict(rows=rows, cols=raster.cols, looks=repr(raster.looks), kind=kind, dtype=dtype)
        head.update((f"component.{name}", f"{name}.bin") for name in casts)
        files.append("header.txt", "".join(f"{k} = {v}\n" for k, v in head.items()).encode())
    for name, cast in casts.items():
        files.append(f"{name}.bin", cast)


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


def classify_oracle(raster, config):
    """The classify chain built from the oracles above and numpy alone: complex
    deorientation, the sliding-window filter, a Kennaugh similarity by einsum
    and arccos, argmax categories and mixed flags, lexsort seeds, the merge
    loop per category, then full-matrix refinement of the loaded pixels and
    centers. Returns the cluster id of each pixel, -1 where masked, and the
    validity mask."""
    from geopolsar.classify import Cluster
    from geopolsar.matrices import kennaugh_from_coherency_array, unpack_coherency_array
    from geopolsar.raster import KIND_COHERENCY, PolsarRaster

    pre, classifier = config.preprocess, config.classifier
    t = unpack_coherency_array(raster.data)
    if pre.deorient:
        t = deorient_oracle(t)
    filtered = speckle_filter_oracle(PolsarRaster(KIND_COHERENCY, t, raster.mask, raster.looks), pre)
    k = kennaugh_from_coherency_array(filtered.data)
    targets = np.stack([target.kennaugh.matrix for target in config.targets])
    d_pix = np.einsum("rcij,rcij->rc", k, k)
    norms = np.sqrt(d_pix * np.einsum("tij,tij->t", targets, targets)[:, None, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = np.einsum("rcij,tij->trc", k, targets) / norms
        f = 1.0 - (2.0 / np.pi) * np.arccos(np.clip(cosines, -1.0, 1.0))
        valid = filtered.mask & (d_pix > 0.0) & (k[..., 0, 0] >= 0.0) & (f >= -1e-9).all(axis=0)
        f = np.maximum(f, 0.0)
        total = f.sum(axis=0)
        valid &= total > 0.0
        w = 2.0 * k[..., 0, 0] * f / total
        mixed = w.max(axis=0) / w.sum(axis=0) <= classifier.mixed_threshold
    pixels = unpack_coherency_array(filtered.data[valid])
    categories, mixed = np.argmax(w, axis=0)[valid], mixed[valid]

    k0 = classifier.initial_clusters_per_category
    seeds, labels = initial_clusters_oracle(pixels, k0, category=categories)
    merged = [c for category in sorted({s.category for s in seeds})
              for c in merge_loop_oracle([s for s in seeds if s.category == category], classifier)]
    seed_to_merged = np.full(len(config.targets) * k0, -1)
    for cluster in merged:
        seed_to_merged[list(cluster.source_ids)] = cluster.id

    epsilon = classifier.center_regularization
    loaded = [Cluster(c.id, c.category, _regularize(c.center, epsilon), c.member_count)
              for c in merged]
    labels, _, _ = iterate_oracle(
        _regularize(pixels, epsilon), categories, mixed, loaded,
        dataclasses.replace(classifier, center_regularization=0.0), seed_to_merged[labels],
    )
    image = np.full(valid.shape, -1)
    image[valid] = labels
    return image, valid


def same_partition(a, b):
    """True if the label images a and b group the pixels alike."""
    pairs = np.unique(np.stack([a.ravel(), b.ravel()]), axis=1)
    return pairs.shape[1] == len(np.unique(a)) == len(np.unique(b))


@pytest.fixture(scope="session")
def demo_scene(tmp_path_factory):
    """The demo scene generated once per test session."""
    from geopolsar import run_generate

    out = tmp_path_factory.mktemp("demo") / "scene"
    run_generate(DEMO_SPEC, out)
    return out


def multilook_oracle(raster, range_factor, azimuth_factor):
    """The former package multilook: Pauli vectors, a masked copy, and the
    complex einsum of their outer products over each block. The Pauli map is
    written out here in complex arithmetic, apart from the package's kernel."""
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
    s = raster.data[:trim_r, :trim_c]
    hh, hv, vh, vv = s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]
    pauli = np.sqrt(0.5) * np.stack([hh + vv, hh - vv, hv + vh], axis=-1)
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


def per_look_scene_oracle(spec):
    """The former package generator: every pixel draws L circular complex
    Gaussian Pauli vectors of covariance span * model + delta * I through the
    Cholesky factor and averages their outer products, one substream per
    region."""
    from geopolsar.matrices import coherency_from_pauli_array, pack_coherency_array
    from geopolsar.raster import KIND_COHERENCY, PolsarRaster
    from geopolsar.scene import _SAMPLING_FLOOR, MODEL_COHERENCY

    planes = np.empty((9, spec.rows, spec.cols))
    for idx, region in enumerate(spec.regions):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(idx,)))
        looks = region.looks if region.looks is not None else spec.looks
        sigma = region.span * MODEL_COHERENCY[region.model]
        delta = _SAMPLING_FLOOR * np.trace(sigma).real
        chol = np.linalg.cholesky(sigma + delta * np.eye(3))
        shape = (region.row1 - region.row0, region.col1 - region.col0)
        z = rng.standard_normal(shape + (looks, 3)) + 1j * rng.standard_normal(shape + (looks, 3))
        z *= np.sqrt(0.5)
        t = pack_coherency_array(coherency_from_pauli_array(z @ chol.T))
        planes[:, region.row0 : region.row1, region.col0 : region.col1] = np.moveaxis(t, -1, 0)
    return PolsarRaster(KIND_COHERENCY, np.moveaxis(planes, 0, -1), None, float(spec.looks))
