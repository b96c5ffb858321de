"""Acceptance suite: ten numbered criteria, one test per criterion.

Each test pins its tolerances inline; the pytest -v report gives the
pass/fail line per criterion. Runtime-limited criteria assert wall time.
"""

import time

import numpy as np
import pytest

import geopolsar as gp
from geopolsar.classify import (
    ClassifierConfig,
    initial_clusters,
    iterate_classification,
    merge_clusters,
)
from geopolsar.geodesic import (
    DIHEDRAL,
    RANDOM_VOLUME,
    TRIHEDRAL,
    geodesic_distance,
    geodesic_distance_array,
    similarity_arrays,
)
from geopolsar.matrices import (
    coherency_from_pauli_array,
    kennaugh_from_coherency_array,
    pauli_from_sinclair_array,
    span_array,
    unpack_coherency_array,
)
from geopolsar.preprocess import deorient_array, orientation_angle
from geopolsar.render import MASKED_LABEL

from conftest import kennaugh_expansion_oracle, random_psd_stack, random_sinclair_stack


@pytest.fixture(scope="module")
def classified(demo_scene, tmp_path_factory):
    """Criterion-5 run shared by criteria 5, 6 and 7; timed single-threaded."""
    out = tmp_path_factory.mktemp("acceptance")
    start = time.perf_counter()
    result = gp.run_classify(demo_scene, out / "run", gp.PipelineConfig(workers=1))
    elapsed = time.perf_counter() - start
    return result, out, elapsed


def demo_truth():
    truth = np.zeros((128, 128), dtype=int)
    truth[:, 43:86] = 1
    truth[:, 86:] = 2
    return truth


def test_criterion_01_geodesic_distance_anchors():
    """Canonical-target distances match their closed forms; < 1 s."""
    start = time.perf_counter()
    d_ab = geodesic_distance(TRIHEDRAL.kennaugh, DIHEDRAL.kennaugh)
    assert abs(d_ab - 1.0) <= 1e-12
    d_arv = geodesic_distance(TRIHEDRAL.kennaugh, RANDOM_VOLUME.kennaugh)
    closed_form = (2.0 / np.pi) * np.arccos(2.0 / (2.0 * np.sqrt(1.5)))
    assert abs(d_arv - closed_form) <= 1e-9
    assert abs(d_arv - 0.3918265520306073) <= 1e-9
    d_brv = geodesic_distance(DIHEDRAL.kennaugh, RANDOM_VOLUME.kennaugh)
    assert abs(d_brv - (2.0 / np.pi) * np.arccos(1.0 / (2.0 * np.sqrt(1.5)))) <= 1e-9
    assert geodesic_distance(RANDOM_VOLUME.kennaugh, RANDOM_VOLUME.kennaugh) == 0.0
    assert time.perf_counter() - start < 1.0


def test_criterion_02_scale_invariance_fuzz():
    """1e5 scaled pairs shift the distance by no more than 1e-11; < 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    n = 100_000
    k1 = kennaugh_from_coherency_array(random_psd_stack(rng, n, looks=2))
    k2 = kennaugh_from_coherency_array(random_psd_stack(rng, n, looks=5))
    lam1 = 10.0 ** rng.uniform(-6, 6, size=n)
    lam2 = 10.0 ** rng.uniform(-6, 6, size=n)
    base = geodesic_distance_array(k1, k2)
    scaled = geodesic_distance_array(
        lam1[:, None, None] * k1, lam2[:, None, None] * k2
    )
    assert np.abs(scaled - base).max() <= 1e-11
    assert time.perf_counter() - start < 10.0


def test_criterion_03_conversion_routes_agree():
    """1e4 Sinclair matrices: the literal construction K = (1/2) A* (S kron
    S*) A^H and the route through the Pauli coherency matrix agree to 1e-12
    after span normalization; < 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    s = random_sinclair_stack(rng, 10_000)
    s /= np.sqrt(span_array(s))[:, None, None]
    direct = kennaugh_expansion_oracle(s)
    pauli = pauli_from_sinclair_array(s)
    via_coherency = kennaugh_from_coherency_array(
        coherency_from_pauli_array(pauli[:, None, :])
    )
    assert np.abs(direct - via_coherency).max() <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_criterion_04_share_and_weight_conservation(demo_scene):
    """Per pixel: shares sum to 1 within 1e-12 and weights sum to the span
    within 1e-12 relative, on fuzzed pixels and on every demo scene pixel."""
    rng = np.random.default_rng(1004)
    k = kennaugh_from_coherency_array(random_psd_stack(rng, 5000)).reshape(
        50, 100, 4, 4
    )
    f, gamma, w, valid = similarity_arrays(k, np.ones((50, 100), bool))
    assert valid.all()
    assert np.abs(gamma.sum(axis=0) - 1.0).max() <= 1e-12
    spans = 2.0 * k[..., 0, 0]
    assert (np.abs(w.sum(axis=0) - spans) / spans).max() <= 1e-12

    raster = gp.read_scene(demo_scene)
    kd = kennaugh_from_coherency_array(unpack_coherency_array(raster.data))
    f, gamma, w, valid = similarity_arrays(kd, raster.mask)
    assert valid.all()
    assert np.abs(gamma.sum(axis=0) - 1.0).max() <= 1e-12
    spans = 2.0 * kd[..., 0, 0]
    assert (np.abs(w.sum(axis=0) - spans)[valid] / spans[valid]).max() <= 1e-12


def test_criterion_05_synthetic_scene_end_to_end(classified):
    """Demo scene: at least 95% of non-mixed pixels land in the matching
    category and every non-mixed pixel keeps its initial category; < 30 s."""
    result, _, elapsed = classified
    assert elapsed < 30.0
    truth = demo_truth()
    assert result.valid.all()

    cat_of_class = np.array([c.category_index for c in result.classes])
    final_cat = cat_of_class[result.labels]
    non_mixed = result.valid & ~result.mixed
    match_rate = (final_cat == truth)[non_mixed].mean()
    assert match_rate >= 0.95
    # category preservation: the categories array is the initial assignment
    assert (final_cat[non_mixed] == result.categories[non_mixed]).all()


def test_criterion_06_monotone_objective(classified):
    """The recorded per-pass total Wishart distance never increases by more
    than 1e-9 relative."""
    result, out, _ = classified
    import json

    records = [
        json.loads(line)
        for line in (out / "run" / "report.jsonl").read_text().splitlines()
    ]
    objectives = [r["objective"] for r in records]
    assert len(objectives) >= 2
    scale = max(abs(o) for o in objectives)
    for prev, nxt in zip(objectives, objectives[1:]):
        assert nxt <= prev + 1e-9 * scale


def test_criterion_07_merge_cap_property(demo_scene):
    """Post-merge (the classifier's starting classes): each class within a
    category holds at most 2N/5 pixels, and at most 5 classes per category;
    the cap binds at merge time only, refinement may regrow classes."""
    raster = gp.read_scene(demo_scene)
    result = gp.classify_raster(
        raster,
        gp.PipelineConfig(classifier=ClassifierConfig(max_iterations=0)),
    )
    populations = {}
    for ci in range(3):
        populations[ci] = int((result.categories == ci)[result.valid].sum())
    per_category = {0: [], 1: [], 2: []}
    for cluster in result.clusters:
        per_category[cluster.category].append(cluster.member_count)
    for ci, sizes in per_category.items():
        if not sizes:
            continue
        assert len(sizes) <= 5
        cap = 2.0 * populations[ci] / 5.0
        assert max(sizes) <= cap
        assert sum(sizes) == populations[ci]

    # after full refinement the class count stays within the budget
    refined = gp.classify_raster(raster, gp.PipelineConfig())
    counts = {0: 0, 1: 0, 2: 0}
    for cluster in refined.clusters:
        counts[cluster.category] += 1
    assert all(v <= 5 for v in counts.values())


def bruteforce_refinement(t, clusters, config):
    """Plain-python Wishart k-means with the same contract: lowest-id tie
    breaking, mean center updates, retirement of emptied clusters."""
    centers = {c.id: np.array(c.center) for c in clusters}
    labels = None
    n = len(t)
    for _ in range(config.max_iterations):
        ids = sorted(centers)
        stats = {}
        for cid in ids:
            v = centers[cid]
            v = v + config.center_regularization * (np.trace(v).real / 3.0) * np.eye(3)
            sign, logdet = np.linalg.slogdet(v)
            assert sign.real > 0
            stats[cid] = (logdet.real, np.linalg.inv(v))
        new_labels = np.empty(n, dtype=int)
        for p in range(n):
            best_id, best_d = None, None
            for cid in ids:
                logdet, vinv = stats[cid]
                d = logdet + np.trace(vinv @ t[p]).real
                if best_d is None or d < best_d:
                    best_id, best_d = cid, d
            new_labels[p] = best_id
        changed = n if labels is None else int((new_labels != labels).sum())
        labels = new_labels
        centers = {}
        for cid in ids:
            members = labels == cid
            if members.sum() == 0:
                continue
            center = t[members].mean(axis=0)
            if np.trace(center).real <= 0:
                continue
            centers[cid] = center
        if changed == 0:
            break
    return labels


def partition_of(labels):
    groups = {}
    for idx, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(idx)
    return {frozenset(v) for v in groups.values()}


def test_criterion_08_small_instance_oracle_equivalence():
    """100 seeded single-category instances of up to 64 pixels: the
    converged partition matches an independent brute-force implementation
    on at least 95 of them."""
    rng = np.random.default_rng(1008)
    config = ClassifierConfig(
        initial_clusters_per_category=6,
        final_classes_per_category=3,
        max_iterations=30,
        convergence_fraction=0.0,
    )
    matches = 0
    for _ in range(100):
        n = int(rng.integers(20, 65))
        looks = int(rng.integers(2, 6))
        t = random_psd_stack(rng, n, looks=looks)
        seeds, labels0 = initial_clusters(t, config.initial_clusters_per_category)
        merged = merge_clusters(seeds, config)
        relabel = {s: c.id for c in merged for s in c.source_ids}
        labels0 = np.array([relabel[l] for l in labels0])
        ours, _, _ = iterate_classification(
            t,
            np.zeros(n, int),
            np.zeros(n, bool),
            merged,
            config,
            initial_labels=labels0,
        )
        reference = bruteforce_refinement(t, merged, config)
        if partition_of(ours) == partition_of(reference):
            matches += 1
    assert matches >= 95


def test_criterion_09_deorientation_postconditions():
    """1e4 random PSD matrices: the rotated cross term is annihilated
    (1e-10 x trace), the trace moves by at most 1e-12 relative, and the
    rotated T33 is within 1e-6 of a 1e4-point angle sweep's minimum."""
    rng = np.random.default_rng(1009)
    n = 10_000
    t = random_psd_stack(rng, n)
    t /= np.trace(t, axis1=-2, axis2=-1).real[:, None, None]
    out = deorient_array(t)

    assert np.abs(out[:, 1, 2].real).max() <= 1e-10
    tr_out = np.trace(out, axis1=-2, axis2=-1).real
    assert np.abs(tr_out - 1.0).max() <= 1e-12

    angles = np.linspace(-np.pi / 4, np.pi / 4, 10_000, endpoint=False)
    c, s = np.cos(2 * angles), np.sin(2 * angles)
    t22 = t[:, 1, 1].real
    t33 = t[:, 2, 2].real
    re23 = t[:, 1, 2].real
    worst = -np.inf
    for lo in range(0, n, 1000):
        hi = lo + 1000
        swept = (
            t22[lo:hi, None] * s[None, :] ** 2
            + t33[lo:hi, None] * c[None, :] ** 2
            - 2.0 * re23[lo:hi, None] * c[None, :] * s[None, :]
        )
        gap = out[lo:hi, 2, 2].real - swept.min(axis=1)
        worst = max(worst, gap.max())
    assert worst <= 1e-6

    # the rotation angle of a deoriented matrix vanishes
    assert np.abs(orientation_angle(out)).max() <= 1e-12


def test_criterion_10_worker_count_determinism(demo_scene, tmp_path):
    """labels.bin is byte-identical for 1 and 4 workers."""
    payloads = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        gp.run_classify(
            demo_scene, out, gp.PipelineConfig(workers=workers)
        )
        payloads.append((out / "labels.bin").read_bytes())
    assert payloads[0] == payloads[1]
