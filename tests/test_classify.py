import dataclasses
import tracemalloc

import numpy as np
import pytest

from geopolsar.classify import (
    ClassifierConfig,
    Cluster,
    categorize,
    categorize_arrays,
    initial_clusters,
    iterate_classification,
    merge_clusters,
    wishart_center_distance,
    wishart_pixel_distance,
)
from geopolsar.geodesic import RANDOM_VOLUME, TRIHEDRAL, SimilarityTriple, similarity_triple
from geopolsar.matrices import (
    CoherencyMatrix,
    KennaughMatrix,
    PauliVector,
    SinclairMatrix,
    kennaugh_from_coherency_array,
    pack_coherency_array,
)

from conftest import (
    _regularize,
    initial_clusters_oracle,
    iterate_oracle,
    merge_loop_oracle,
    random_psd_stack,
    scalar_center_distance_oracle,
    wishart_center_oracle,
    wishart_pixel_oracle,
)

LN2 = np.log(2.0)


def cluster_from(center, cid=0, category=0, count=1):
    return Cluster(id=cid, category=category, center=center, member_count=count)


class TestDistances:
    def test_pixel_distance_anchors(self):
        eye = np.eye(3, dtype=complex)
        d211 = np.diag([2.0, 1.0, 1.0]).astype(complex)
        assert wishart_pixel_distance(eye, eye) == pytest.approx(3.0, abs=1e-14)
        assert wishart_pixel_distance(np.zeros((3, 3)), eye) == pytest.approx(0.0, abs=1e-14)
        assert wishart_pixel_distance(d211, eye) == pytest.approx(4.0, abs=1e-14)
        assert wishart_pixel_distance(eye, d211) == pytest.approx(LN2 + 2.5, abs=1e-12)

    def test_center_distance_anchor(self):
        d211 = np.diag([2.0, 1.0, 1.0]).astype(complex)
        eye = np.eye(3, dtype=complex)
        # (1/2) (ln 2 + 0 + 2.5 + 4) = 0.5 ln 2 + 3.25
        assert wishart_center_distance(d211, eye) == pytest.approx(
            0.5 * LN2 + 3.25, abs=1e-12
        )
        assert wishart_center_distance(d211, eye) == pytest.approx(
            3.5965735902799727, abs=1e-12
        )

    def test_matches_determinant_inverse_route(self):
        rng = np.random.default_rng(51)
        t = random_psd_stack(rng, 50)
        v = random_psd_stack(rng, 50, looks=8)
        for i in range(50):
            ours = wishart_pixel_distance(t[i], v[i])
            ref = wishart_pixel_oracle(t[i], v[i])
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)
        for i in range(0, 50, 5):
            ours = wishart_center_distance(v[i], v[(i + 7) % 50])
            ref = wishart_center_oracle(v[i], v[(i + 7) % 50])
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_pixel_distance_loads_pixel_and_center(self):
        # d(T', V') with X' = X + eps (tr X / 3) I on both sides, as refinement scores
        rng = np.random.default_rng(53)
        t = random_psd_stack(rng, 40)
        v = random_psd_stack(rng, 40, looks=8)
        v[::4] = 1e3 * np.diag([1.0, 1e-6, 1e-6])  # near-singular centers
        t[::3] *= 1e4  # a pixel far stronger than its center
        epsilon = 1e-6
        for ti, vi in zip(t, v):
            ref = wishart_pixel_oracle(_regularize(ti, epsilon), _regularize(vi, epsilon))
            assert wishart_pixel_distance(ti, vi, epsilon) == pytest.approx(ref, rel=1e-12)

    def test_center_distance_symmetric(self):
        rng = np.random.default_rng(52)
        v = random_psd_stack(rng, 20, looks=8)
        for i in range(0, 20, 4):
            a, b = v[i], v[(i + 3) % 20]
            assert wishart_center_distance(a, b) == wishart_center_distance(b, a)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-6])
    def test_center_distance_is_bitwise_symmetric(self, epsilon):
        # merging reads D(i, j) = (M[i, j] + M[j, i]) / 2 from one kernel
        rng = np.random.default_rng(72)
        v = random_psd_stack(rng, 400, looks=int(rng.integers(3, 9)))
        v[::4] += 1e3 * np.diag([1.0, 1e-6, 1e-6])  # near-singular centers
        for a, b in zip(v[::2], v[1::2]):
            assert wishart_center_distance(a, b, epsilon) == wishart_center_distance(
                b, a, epsilon
            )

    @pytest.mark.parametrize("epsilon", [0.0, 1e-6])
    def test_scalar_distances_take_either_layout(self, epsilon):
        # a 3x3 matrix and its packed row are one input to both scalar distances
        rng = np.random.default_rng(74)
        for a, b in zip(*np.split(random_psd_stack(rng, 20, looks=5), 2)):
            pa, pb = pack_coherency_array(a), pack_coherency_array(b)
            for distance in (wishart_pixel_distance, wishart_center_distance):
                expected = distance(a, b, epsilon)
                for x, y in ((pa, pb), (pa, b), (a, pb)):
                    assert distance(x, y, epsilon) == expected

    def test_singular_center_rejected(self):
        rank1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="singular cluster center"):
            wishart_pixel_distance(np.eye(3), rank1)
        # regularization restores usability
        d = wishart_pixel_distance(np.eye(3), rank1, epsilon=1e-6)
        assert np.isfinite(d)

    @pytest.mark.parametrize(
        "diagonal", [(-1.0, -1.0, 1.0), (-1.0, -1.0, -1.0)], ids=["det-positive", "negative-definite"]
    )
    @pytest.mark.parametrize("epsilon", [0.0, 1e-6])
    def test_indefinite_center_rejected(self, diagonal, epsilon):
        # neither a positive determinant nor positive pivots of V / tr V make V definite
        center = np.diag(diagonal).astype(complex)
        with pytest.raises(ValueError, match="singular cluster center"):
            wishart_pixel_distance(np.eye(3), center, epsilon)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-300])
    def test_pixel_distance_is_scale_free(self, scale):
        # d(sT, sV) = d(T, V) + 3 ln s, where a determinant of sV or a product
        # of its entries leaves the float range
        rng = np.random.default_rng(77)
        t, v = np.split(random_psd_stack(rng, 20, looks=5), 2)
        for a, b in zip(t, v):
            for x, y in ((a, b), (b, b)):
                expected = wishart_pixel_distance(x, y) + 3.0 * np.log(scale)
                got = wishart_pixel_distance(scale * x, scale * y)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * abs(3.0 * np.log(scale)))

    def test_every_input_form_scores_bitwise_alike(self):
        # a Cluster, a CoherencyMatrix, a 3x3 matrix and a packed row, in either argument
        rng = np.random.default_rng(78)
        a, b = random_psd_stack(rng, 2, looks=5)
        forms = (cluster_from, CoherencyMatrix.from_matrix, np.asarray, pack_coherency_array)
        expected = wishart_pixel_distance(a, b, 1e-6)
        for x in forms:
            for y in forms:
                assert wishart_pixel_distance(x(a), y(b), 1e-6).hex() == expected.hex()

    @pytest.mark.parametrize("value", [
        KennaughMatrix(np.eye(4)), SinclairMatrix(1, 0, 1), PauliVector(1, 0, 0)
    ], ids=["kennaugh", "sinclair", "pauli"])
    def test_other_value_types_rejected(self, value):
        for pair in ((value, np.eye(3)), (np.eye(3), value)):
            with pytest.raises(ValueError, match="expected pixels of shape"):
                wishart_pixel_distance(*pair)

    def test_accepts_value_objects_and_clusters(self):
        from geopolsar.matrices import CoherencyMatrix

        t = CoherencyMatrix(2.0, 1.0, 1.0)
        c = cluster_from(np.eye(3, dtype=complex))
        assert wishart_pixel_distance(t, c) == pytest.approx(4.0, abs=1e-14)


class TestCategorize:
    def test_odd_bounce_pixel_is_pure(self):
        pc = categorize(similarity_triple(TRIHEDRAL.kennaugh))
        assert pc.category == "trihedral"
        assert not pc.mixed  # winning share 0.62 is above one half

    def test_volume_pixel_is_pure_but_close(self):
        pc = categorize(similarity_triple(RANDOM_VOLUME.kennaugh))
        assert pc.category == "random_volume"
        assert not pc.mixed  # winning share 0.533

    def test_balanced_pixel_is_mixed(self):
        # equal odd/even-bounce mixture: f = (1/2, 1/2, 2/3), top share 0.4
        k = KennaughMatrix(
            kennaugh_from_coherency_array(np.diag([1.0, 1.0, 0.0]).astype(complex))
        )
        triple = similarity_triple(k)
        assert triple.f["random_volume"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        pc = categorize(triple)
        assert pc.category == "random_volume"
        assert pc.mixed

    def test_share_exactly_at_threshold_is_mixed(self):
        triple = SimilarityTriple(
            f={"x": 1.0, "y": 1.0},
            gamma={"x": 0.5, "y": 0.5},
            w={"x": 1.0, "y": 1.0},
        )
        assert categorize(triple).mixed
        assert not categorize(triple, threshold=0.499).mixed

    def test_zero_weights_rejected(self):
        triple = SimilarityTriple(
            f={"x": 0.0, "y": 0.0}, gamma={"x": 1.0, "y": 0.0}, w={"x": 0.0, "y": 0.0}
        )
        with pytest.raises(ValueError, match="weights sum to zero"):
            categorize(triple)

    def test_array_path_matches_scalar(self):
        rng = np.random.default_rng(53)
        t = random_psd_stack(rng, 100)
        k = kennaugh_from_coherency_array(t)
        names = ["trihedral", "dihedral", "random_volume"]
        w = np.empty((3, 100))
        expected = []
        for i in range(100):
            triple = similarity_triple(KennaughMatrix(k[i]))
            w[:, i] = [triple.w[n] for n in names]
            pc = categorize(triple)
            expected.append((names.index(pc.category), pc.mixed))
        category, mixed, valid = categorize_arrays(w)
        assert valid.all()
        assert [tuple(x) for x in zip(category, mixed)] == expected

    def test_array_path_invalid_pixels(self):
        w = np.array([[0.0, 1.0, np.nan], [0.0, 3.0, np.nan]])
        category, mixed, valid = categorize_arrays(w)
        assert list(valid) == [False, True, False]
        assert category[1] == 1


class TestInitialClusters:
    def test_power_ordered_equal_bins(self):
        spans = np.array([5.0, 0.0, 3.0, 1.0, 4.0, 2.0, 7.0, 6.0, 8.0, 9.0])
        pixels = np.zeros((10, 3, 3), complex)
        pixels[:, 0, 0] = spans
        clusters, labels = initial_clusters(pixels, 3, category=2)
        assert [c.id for c in clusters] == [6, 7, 8]  # seed b of category c is c * k + b
        assert all(c.category == 2 for c in clusters)
        # bins of 3, 3 and 4 in increasing power order
        assert [c.member_count for c in clusters] == [3, 3, 4]
        assert clusters[0].center[0, 0].real == pytest.approx(1.0)  # mean(0,1,2)
        assert clusters[2].center[0, 0].real == pytest.approx(7.5)  # mean(6..9)
        by_pixel = {s: l for s, l in zip(spans, labels)}
        assert [by_pixel[s] for s in sorted(by_pixel)] == [6] * 3 + [7] * 3 + [8] * 4

    def test_fewer_pixels_than_clusters(self):
        pixels = random_psd_stack(np.random.default_rng(54), 3)
        clusters, labels = initial_clusters(pixels, 10)
        assert len(clusters) == 3
        assert sorted(labels) == [0, 1, 2]
        assert all(c.member_count == 1 for c in clusters)

    def test_empty_input(self):
        for category in (0, 3, np.empty(0, dtype=np.uint8)):
            clusters, labels = initial_clusters(np.empty((0, 3, 3)), 5, category=category)
            assert clusters == [] and labels.dtype == np.int64 and labels.size == 0

    @pytest.mark.parametrize("category", [0, 2, 5])
    def test_scalar_category_seeds_as_one_per_pixel(self, category):
        # one rule for both forms: seed b of category c is c * k + b
        pixels = random_psd_stack(np.random.default_rng(57), 50)
        seeds, labels = initial_clusters(pixels, 7, category=category)
        each, each_labels = initial_clusters(pixels, 7, category=np.full(50, category))
        assert labels.dtype == each_labels.dtype and labels.tobytes() == each_labels.tobytes()
        assert [(c.id, c.category, c.member_count, c.center.tobytes()) for c in seeds] == [
            (c.id, c.category, c.member_count, c.center.tobytes()) for c in each
        ]
        assert [c.id for c in seeds] == list(range(7 * category, 7 * category + 7))

    @pytest.mark.parametrize("size", [49, 51])
    def test_category_of_another_length_rejected(self, size):
        pixels = random_psd_stack(np.random.default_rng(58), 50)
        with pytest.raises(ValueError):
            initial_clusters(pixels, 3, category=np.zeros(size, dtype=np.uint8))

    def test_bad_k_rejected(self):
        for pixels in (random_psd_stack(np.random.default_rng(55), 2), np.empty((0, 3, 3))):
            with pytest.raises(ValueError, match="k must be"):
                initial_clusters(pixels, 0)

    @pytest.mark.parametrize("shape", [(5, 4), (6, 12), (2, 3, 9), (4, 3, 4), (9,)])
    def test_other_pixel_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match=r"shape \(n, 9\) or \(n, 3, 3\)"):
            initial_clusters(np.ones(shape), 2)

    @pytest.mark.parametrize("packed", [False, True])
    def test_per_pixel_categories_seed_as_per_category_calls(self, packed):
        rng = np.random.default_rng(93)
        n, k = 160, 7
        t = random_psd_stack(rng, n)
        # category 1 is absent, category 3 has fewer than k pixels, and
        # category 0's 93 pixels do not divide into k bins
        cats = np.array([0] * 93 + [2] * 60 + [3] * 4 + [4] * 3, dtype=np.uint8)
        rng.shuffle(cats)
        # span ties: 30 copies of one pixel straddle category 0's bins, and
        # copies of another fall in three categories
        tied = np.flatnonzero(cats == 0)[::3][:30]
        t[tied] = t[tied[0]]
        across = [np.flatnonzero(cats == c)[0] for c in (2, 3, 4)]
        t[across] = t[across[0]]
        pixels = pack_coherency_array(t) if packed else t
        seeds, labels = initial_clusters(pixels, k, category=cats)

        expected, expected_labels = [], np.empty(n, dtype=np.int64)
        for c in range(5):
            sel = np.flatnonzero(cats == c)
            if sel.size:
                found, expected_labels[sel] = initial_clusters(pixels[sel], k, c)
                expected += found
        assert labels.dtype == expected_labels.dtype
        assert labels.tobytes() == expected_labels.tobytes()
        assert [(c.id, c.category, c.member_count, c.source_ids, c.center.tobytes()) for c in seeds] == [
            (c.id, c.category, c.member_count, c.source_ids, c.center.tobytes()) for c in expected
        ]
        assert sorted({c.category for c in seeds}) == [0, 2, 3, 4]
        assert [c.member_count for c in seeds if c.category == 0] == [13] * 6 + [15]
        assert [c.member_count for c in seeds if c.category == 3] == [1] * 4
        # tied pixels fill the bins in scan order
        assert np.all(np.diff(labels[tied]) >= 0) and labels[tied[0]] < labels[tied[-1]]

    def test_matches_the_lexsort_oracle_bitwise(self):
        # rank selection must cut the bins the former stable sort cut, where
        # tied or NaN spans straddle a bin edge too
        rng = np.random.default_rng(101)
        straddled = negative_zeros = 0
        for case in range(300):
            n, k = int(rng.integers(1, 120)), int(rng.integers(1, 12))
            pixels = np.zeros((n, 9))
            if case % 3 == 0:  # integer spans: heavy ties, and NaN, which sorts last
                pixels[:, :3] = rng.integers(0, 3, (n, 3))
                pixels[rng.random(n) < rng.choice([0.0, 0.2, 0.7]), 1] = np.nan
            elif case % 3 == 1:  # spans of +0.0 and -0.0, which tie, and of 1.0
                pixels[:, :3] = rng.choice([0.0, -0.0], (n, 1))
                pixels[:, 0] = np.where(rng.random(n) < 0.3, 1.0, pixels[:, 0])
            else:
                pixels[:, :3] = rng.random((n, 3))
            pixels[:, 3:] = rng.standard_normal((n, 6))
            if case % 2:  # absent categories, and some with fewer than k pixels
                category = rng.choice([0, 2, 3, 5], n, p=[0.6, 0.3, 0.07, 0.03]).astype(np.uint8)
            else:
                category = int(rng.integers(0, 4))
            seeds, labels = initial_clusters(pixels, k, category=category)
            ref_seeds, ref_labels = initial_clusters_oracle(pixels, k, category)
            assert labels.dtype == ref_labels.dtype and labels.tobytes() == ref_labels.tobytes()
            assert [(c.id, c.category, c.member_count, c.center.tobytes()) for c in seeds] == [
                (c.id, c.category, c.member_count, c.center.tobytes()) for c in ref_seeds
            ]
            span = (pixels[:, 0] + pixels[:, 1]) + pixels[:, 2]
            negative_zeros += np.count_nonzero((span == 0.0) & np.signbit(span))
            slots = np.broadcast_to(category, n)
            for c in np.unique(slots):  # does a run of equal spans cross a bin edge?
                s = np.sort(span[slots == c])
                m = len(s) // min(k, len(s))
                straddled += any(s[j - 1] == s[j] for j in range(m, m * min(k, len(s)), m))
        assert straddled > 50 and negative_zeros > 100

    def test_seeds_a_scene_within_14_traced_bytes_per_pixel(self):
        """Per-pixel categories of a 256² scene, its pixels in the pipeline's
        component-major layout: the peak counts the int64 labels returned (8
        bytes per pixel), the one-byte bins and member mask, and one category's
        span and rank scratch (11.4 measured). A full-size span and int64 bin
        array took it to 26.4."""
        rng = np.random.default_rng(29)
        n = 256 * 256
        planes = np.ascontiguousarray(pack_coherency_array(random_psd_stack(rng, n, looks=3)).T)
        cats = rng.integers(0, 3, n).astype(np.uint8)
        initial_clusters(planes[:, :64].T, 30, category=cats[:64])  # warm numpy's caches
        tracemalloc.start()
        try:
            seeds, labels = initial_clusters(planes.T, 30, category=cats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.dtype == np.int64 and len(seeds) == 90
        assert peak <= 14 * n


class TestCluster:
    def test_clusters_compare_by_identity(self):
        # the generated field-wise == would compare the center arrays and raise
        c, twin = (Cluster(0, 0, np.eye(3), 1) for _ in range(2))
        assert c == c and c != twin and len({c, twin}) == 2

    @pytest.mark.parametrize("build, match", [
        pytest.param(lambda: ClassifierConfig(final_classes_per_category=0),
                     "final_classes_per_category must be >= 1", id="final-classes"),
        pytest.param(lambda: Cluster(0, 0, np.eye(3), -1), "member_count must be >= 0",
                     id="member-count"),
    ])
    def test_rejected_inputs(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()


class TestMerge:
    def test_no_clusters_merge_to_none(self):
        assert merge_clusters([], ClassifierConfig()) == []

    def test_identical_pair_merges_first(self):
        a = np.diag([1.0, 1.0, 1.0]).astype(complex)
        far = np.diag([50.0, 1.0, 0.1]).astype(complex)
        clusters = [
            Cluster(id=0, category=0, center=a, member_count=4),
            Cluster(id=1, category=0, center=far, member_count=4),
            Cluster(id=2, category=0, center=a.copy(), member_count=2),
        ]
        out = merge_clusters(clusters, ClassifierConfig(final_classes_per_category=2))
        assert [c.id for c in out] == [0, 1]
        merged = out[0]
        assert merged.member_count == 6
        assert merged.source_ids == (0, 2)
        assert np.abs(merged.center - a).max() <= 1e-15

    def test_population_weighted_center(self):
        c1 = np.diag([2.0, 1.0, 1.0]).astype(complex)
        c2 = np.diag([4.0, 1.0, 1.0]).astype(complex)
        clusters = [
            Cluster(id=0, category=0, center=c1, member_count=1),
            Cluster(id=1, category=0, center=c2, member_count=3),
        ]
        out = merge_clusters(clusters, ClassifierConfig(final_classes_per_category=1))
        assert out[0].center[0, 0].real == pytest.approx(3.5)

    def test_size_cap_blocks_oversized_pairs(self):
        # the nearest pair (0, 1) sums to 10, above the cap 2 * 12 / 3 = 8,
        # so the small identical pair (2, 3) merges instead
        near = np.eye(3, dtype=complex)
        other = np.diag([9.0, 1.0, 0.5]).astype(complex)
        clusters = [
            Cluster(id=0, category=0, center=near, member_count=5),
            Cluster(id=1, category=0, center=near.copy(), member_count=5),
            Cluster(id=2, category=0, center=other, member_count=1),
            Cluster(id=3, category=0, center=other.copy(), member_count=1),
        ]
        out = merge_clusters(clusters, ClassifierConfig(final_classes_per_category=3))
        assert [c.id for c in out] == [0, 1, 2]
        assert sorted(c.member_count for c in out) == [2, 5, 5]
        assert out[2].source_ids == (2, 3)

    def test_thirty_seeds_reach_five_classes_under_cap(self):
        rng = np.random.default_rng(56)
        centers = random_psd_stack(rng, 30, looks=16)
        clusters = [
            Cluster(id=i, category=1, center=centers[i], member_count=10)
            for i in range(30)
        ]
        out = merge_clusters(clusters, ClassifierConfig())
        assert len(out) == 5
        assert sum(c.member_count for c in out) == 300
        assert all(c.member_count <= 2 * 300 / 5 for c in out)
        assert sorted(i for c in out for i in c.source_ids) == list(range(30))
        assert [c.id for c in out] == sorted(c.id for c in out)

    def test_every_category_reaches_the_final_count_under_the_cap(self):
        # of K > final clusters the two smallest hold at most 2N / K < n_max,
        # so the cap picks each merged pair but never stops the merging
        rng = np.random.default_rng(67)
        for _ in range(300):
            k = int(rng.integers(2, 41))
            final = int(rng.integers(1, k))
            counts = np.choose(rng.integers(0, 3, k), [
                rng.integers(1, 40, k),
                np.minimum(10 * rng.pareto(0.7, k), 10**7).astype(np.int64) + 1,  # heavy tail
                rng.integers(10**5, 10**6, k),
            ])
            # any number of clusters may be empty, all of them included
            counts[rng.random(k) < rng.choice([0.0, 0.1, 0.5, 1.0])] = 0
            centers = random_psd_stack(rng, k, looks=int(rng.integers(3, 9)))
            ids = rng.choice(10 * k, k, replace=False)
            clusters = [
                Cluster(id=int(i), category=0, center=c, member_count=int(n))
                for i, c, n in zip(ids, centers, counts)
            ]
            out = merge_clusters(clusters, ClassifierConfig(final_classes_per_category=final))
            assert len(out) == final
            assert sum(c.member_count for c in out) == counts.sum()
            n_max = 2.0 * counts.sum() / final
            assert all(c.member_count <= n_max for c in out if len(c.source_ids) > 1)
            assert sorted(i for c in out for i in c.source_ids) == sorted(ids)

    def test_mixed_categories_rejected(self):
        clusters = [
            Cluster(id=0, category=0, center=np.eye(3), member_count=1),
            Cluster(id=1, category=1, center=np.eye(3), member_count=1),
        ]
        with pytest.raises(ValueError, match="single category"):
            merge_clusters(clusters, ClassifierConfig())

    @pytest.mark.parametrize("epsilon", [0.0, 1e-6])
    def test_matches_the_pairwise_loop_oracle_bitwise(self, epsilon):
        rng = np.random.default_rng(64)
        ties = capped = at_most_final = 0
        for _ in range(60):
            k = int(rng.integers(1, 22))
            centers = random_psd_stack(rng, k, looks=int(rng.integers(3, 9)))
            # exact duplicate centers give exactly tied pair distances
            duplicates = np.flatnonzero(rng.random(k) < 0.3)
            centers[duplicates] = centers[rng.integers(0, k, duplicates.size)]
            counts = rng.integers(1, 40, k)
            counts[rng.random(k) < 0.3] = 200
            ids = np.sort(rng.choice(10 * k, k, replace=False))
            clusters = [
                Cluster(id=int(i), category=2, center=c, member_count=int(n))
                for i, c, n in zip(rng.permutation(ids), centers, counts)
            ]
            config = ClassifierConfig(
                final_classes_per_category=int(rng.integers(1, 12)),
                center_regularization=epsilon,
            )
            out = merge_clusters(clusters, config)
            ref = merge_loop_oracle(clusters, config)
            assert [c.id for c in out] == [c.id for c in ref]
            assert [c.source_ids for c in out] == [c.source_ids for c in ref]
            assert [c.member_count for c in out] == [c.member_count for c in ref]
            assert [c.center.tobytes() for c in out] == [c.center.tobytes() for c in ref]

            # first-round pair distances: the scalar must equal the oracle's
            work = sorted(clusters, key=lambda c: c.id)
            d = np.full((k, k), np.inf)
            for i, j in zip(*np.triu_indices(k, 1)):
                d[i, j] = scalar_center_distance_oracle(work[i], work[j], epsilon)
                assert wishart_center_distance(work[i], work[j], epsilon) == pytest.approx(
                    d[i, j], rel=1e-12, abs=0.0
                )
            if k <= config.final_classes_per_category:
                at_most_final += 1
                continue
            i, j = np.unravel_index(np.argmin(d), d.shape)
            n_max = 2.0 * counts.sum() / config.final_classes_per_category
            capped += work[i].member_count + work[j].member_count > n_max
            ties += np.count_nonzero(d == d.min()) > 1
        # the instances cover a cap that blocks the closest pair, a tie for
        # the closest pair, and categories already at or below final classes
        assert ties and capped and at_most_final


def two_blob_data(rng, n_per=30, separation=20.0):
    t1 = random_psd_stack(rng, n_per, looks=16)
    t2 = random_psd_stack(rng, n_per, looks=16) * separation
    t = np.concatenate([t1, t2])
    clusters = [
        Cluster(id=0, category=0, center=t1.mean(axis=0), member_count=n_per),
        Cluster(id=1, category=0, center=t2.mean(axis=0), member_count=n_per),
    ]
    labels = np.repeat([0, 1], n_per)
    return t, clusters, labels


class TestIterate:
    def test_separated_blobs_are_a_fixed_point(self):
        rng = np.random.default_rng(57)
        t, clusters, labels = two_blob_data(rng)
        cats = np.zeros(60, dtype=int)
        mixed = np.zeros(60, dtype=bool)
        out_labels, out_clusters, history = iterate_classification(
            t, cats, mixed, clusters, ClassifierConfig(), initial_labels=labels
        )
        assert np.array_equal(out_labels, labels)
        assert history[1]["changed"] == 0
        assert len(history) == 2  # pass 0 plus one converged pass

    def test_scrambled_labels_recover_blobs(self):
        rng = np.random.default_rng(58)
        t, clusters, labels = two_blob_data(rng)
        cats = np.zeros(60, dtype=int)
        mixed = np.zeros(60, dtype=bool)
        scrambled = labels[::-1].copy()
        out_labels, _, history = iterate_classification(
            t, cats, mixed, clusters, ClassifierConfig(), initial_labels=scrambled
        )
        assert np.array_equal(out_labels, labels)

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(59)
        t = random_psd_stack(rng, 200, looks=2)
        seeds, labels0 = initial_clusters(t, 12)
        merged = merge_clusters(seeds, ClassifierConfig(final_classes_per_category=4))
        relabel = {s: c.id for c in merged for s in c.source_ids}
        labels0 = np.array([relabel[l] for l in labels0])
        cats = np.zeros(200, dtype=int)
        mixed = np.zeros(200, dtype=bool)
        _, _, history = iterate_classification(
            t,
            cats,
            mixed,
            merged,
            ClassifierConfig(max_iterations=8, convergence_fraction=0.0),
            initial_labels=labels0,
        )
        objectives = [h["objective"] for h in history]
        scale = max(abs(o) for o in objectives)
        for prev, nxt in zip(objectives, objectives[1:]):
            assert nxt <= prev + 1e-9 * scale

    def test_non_mixed_pixels_never_change_category(self):
        rng = np.random.default_rng(60)
        t = random_psd_stack(rng, 80, looks=4)
        cats = np.repeat([0, 1], 40)
        mixed = np.zeros(80, dtype=bool)
        clusters = []
        labels0 = np.empty(80, dtype=int)
        for ci in (0, 1):
            sel = np.flatnonzero(cats == ci)
            seeds, lab = initial_clusters(t[sel], 4, category=ci)
            labels0[sel] = lab
            clusters.extend(seeds)
        out_labels, out_clusters, _ = iterate_classification(
            t, cats, mixed, clusters, ClassifierConfig(max_iterations=6),
            initial_labels=labels0,
        )
        cat_of = {c.id: c.category for c in out_clusters}
        for i in range(80):
            assert cat_of[out_labels[i]] == cats[i]

    def test_mixed_pixels_cross_categories(self):
        # a mixed pixel seeded into category 0 at high power must defect to
        # the matching category-1 cluster
        lo = np.eye(3, dtype=complex)
        hi = 30.0 * np.eye(3, dtype=complex)
        t = np.stack([lo, lo, hi, hi, hi * 1.01])
        cats = np.array([0, 0, 1, 1, 0])
        mixed = np.array([False, False, False, False, True])
        clusters = [
            Cluster(id=0, category=0, center=lo, member_count=3),
            Cluster(id=5, category=1, center=hi, member_count=2),
        ]
        labels0 = np.array([0, 0, 5, 5, 0])
        out_labels, out_clusters, _ = iterate_classification(
            t, cats, mixed, clusters, ClassifierConfig(), initial_labels=labels0
        )
        assert out_labels[4] == 5

    def test_emptied_cluster_is_retired(self):
        t = np.stack([np.eye(3, dtype=complex)] * 4)
        clusters = [
            Cluster(id=0, category=0, center=np.eye(3), member_count=2),
            Cluster(id=1, category=0, center=100 * np.eye(3), member_count=2),
        ]
        labels0 = np.array([0, 0, 1, 1])
        cats = np.zeros(4, dtype=int)
        mixed = np.zeros(4, dtype=bool)
        out_labels, out_clusters, history = iterate_classification(
            t, cats, mixed, clusters, ClassifierConfig(), initial_labels=labels0
        )
        assert np.array_equal(out_labels, [0, 0, 0, 0])
        assert [c.id for c in out_clusters] == [0]
        assert history[-1]["clusters"] == 1

    def test_zero_iterations_keep_input_assignment(self):
        rng = np.random.default_rng(61)
        t, clusters, labels = two_blob_data(rng, n_per=10)
        out_labels, out_clusters, history = iterate_classification(
            t,
            np.zeros(20, int),
            np.zeros(20, bool),
            clusters,
            ClassifierConfig(max_iterations=0),
            initial_labels=labels,
        )
        assert np.array_equal(out_labels, labels)
        assert len(history) == 1
        assert history[0]["iteration"] == 0

    @pytest.mark.parametrize("shape", [(20, 4), (20, 12), (20, 3, 4)])
    def test_other_pixel_shapes_rejected(self, shape):
        rng = np.random.default_rng(61)
        _, clusters, labels = two_blob_data(rng, n_per=10)
        with pytest.raises(ValueError, match=r"shape \(n, 9\) or \(n, 3, 3\)"):
            iterate_classification(
                np.ones(shape),
                np.zeros(20, int),
                np.zeros(20, bool),
                clusters,
                ClassifierConfig(),
                initial_labels=labels,
            )

    @pytest.mark.parametrize("size", [19, 21])
    @pytest.mark.parametrize("argument", ["categories", "mixed"])
    def test_categories_or_mixed_of_another_length_rejected(self, argument, size):
        t, clusters, labels = two_blob_data(np.random.default_rng(65), n_per=10)
        given = {"categories": np.zeros(20, int), "mixed": np.zeros(20, bool)}
        given[argument] = given[argument][:1].repeat(size)
        with pytest.raises(ValueError):
            iterate_classification(t, **given, clusters=clusters, config=ClassifierConfig(),
                                   initial_labels=labels)

    @pytest.mark.parametrize("fault", ["merged_away_id", "unknown_id", "negative_id", "too_short", "too_long"])
    def test_initial_labels_must_name_a_cluster_per_pixel(self, fault):
        # a merged-away id used to be booked to the next cluster; an unknown id
        # or a label array of the wrong length raised from inside numpy
        t, clusters, labels = two_blob_data(np.random.default_rng(64), n_per=10)
        clusters[1] = dataclasses.replace(clusters[1], id=2, source_ids=(2,))
        labels = np.where(labels == 1, 2, labels)
        labels = {
            "merged_away_id": np.where(np.arange(20) == 3, 1, labels),
            "unknown_id": np.where(np.arange(20) == 3, 999, labels),
            "negative_id": np.where(np.arange(20) == 3, -1, labels),
            "too_short": labels[:-1],
            "too_long": np.append(labels, 0),
        }[fault]
        with pytest.raises(ValueError, match="initial_labels must name a known cluster for each of 20 pixels"):
            iterate_classification(
                t, np.zeros(20, int), np.zeros(20, bool), clusters, ClassifierConfig(), initial_labels=labels
            )

    def test_narrow_initial_labels_stay_narrow(self):
        # the pipeline hands refinement one-byte labels, and gets them back
        rng = np.random.default_rng(30)
        t = random_psd_stack(rng, 400, looks=3)
        cats = rng.integers(0, 2, 400).astype(np.uint8)
        mixed = rng.random(400) < 0.2
        seeds, labels0 = initial_clusters(t, 6, category=cats)
        config = ClassifierConfig(max_iterations=3, convergence_fraction=0.0)
        wide, _, wide_history = iterate_classification(t, cats, mixed, seeds, config, labels0)
        narrow, _, history = iterate_classification(
            t, cats, mixed, seeds, config, labels0.astype(np.uint8)
        )
        assert wide.dtype == np.int64 and narrow.dtype == np.uint8
        assert (narrow != labels0).any() and np.array_equal(narrow, wide) and history == wide_history

    def test_narrow_initial_labels_widen_to_the_cluster_ids(self):
        # every pixel starts in cluster 5; the far blob moves to cluster 300,
        # which a uint8 label would wrap to 44
        t, clusters, labels = two_blob_data(np.random.default_rng(31))
        clusters[1] = dataclasses.replace(clusters[1], id=300, source_ids=(300,))
        clusters[0] = dataclasses.replace(clusters[0], id=5, source_ids=(5,))
        initial = np.full(60, 5, dtype=np.uint8)
        cats, mixed = np.zeros(60, int), np.zeros(60, bool)
        out, _, _ = iterate_classification(t, cats, mixed, clusters, ClassifierConfig(), initial)
        assert out.dtype == np.uint16
        assert np.array_equal(out, np.where(labels == 1, 300, 5))

    def test_worker_count_does_not_change_results(self):
        rng = np.random.default_rng(62)
        t = random_psd_stack(rng, 500, looks=3)
        seeds, labels0 = initial_clusters(t, 8)
        cats = np.zeros(500, int)
        mixed = np.zeros(500, bool)
        results = []
        for workers in (1, 3):
            labels, clusters, history = iterate_classification(
                t, cats, mixed, seeds, ClassifierConfig(), initial_labels=labels0.copy(),
                workers=workers,
            )
            results.append((labels.tobytes(), [c.id for c in clusters], history))
        assert results[0] == results[1]

    @pytest.mark.parametrize("block", [None, 256])
    def test_blocks_add_up_the_same_for_any_worker_count_and_layout(self, monkeypatch, block):
        import geopolsar.classify as classify

        # three blocks, the last one partial, with mixed pixels and a retirement;
        # 256-row blocks split the workers' runs of blocks mid-scene
        n = 5000
        monkeypatch.setattr(classify, "_DISTANCE_BLOCK", block or classify._DISTANCE_BLOCK)
        assert block or 2 * classify._DISTANCE_BLOCK < n < 3 * classify._DISTANCE_BLOCK
        rng = np.random.default_rng(24)
        pixels = pack_coherency_array(random_psd_stack(rng, n, looks=3))
        cats = rng.integers(0, 2, n).astype(np.uint8)
        mixed = rng.random(n) < 0.2
        seeds, labels0 = initial_clusters(pixels, 5, category=cats)
        seeds[2].center = seeds[2].center * 1e3  # loses every member
        config = ClassifierConfig(max_iterations=3, convergence_fraction=0.0)
        results = set()
        for layout in (np.ascontiguousarray, np.asfortranarray):
            for workers in (1, 2, 3):
                labels, out, history = iterate_classification(
                    layout(pixels), cats, mixed, seeds, config, labels0, workers=workers
                )
                state = [(c.id, c.category, c.member_count, c.center.tobytes()) for c in out]
                results.add((labels.tobytes(), repr(state), repr(history)))
        assert len(results) == 1
        assert len(out) < len(seeds) and seeds[2].id not in {c.id for c in out}
        cat_of = {c.id: c.category for c in out}
        assert any(cat_of[label] != cat for label, cat in zip(labels[mixed], cats[mixed]))

    @pytest.mark.parametrize("packed", [False, True])
    def test_inputs_are_left_alone(self, packed):
        # the benchmark reruns a recorded call on the same arrays
        rng = np.random.default_rng(95)
        t = random_psd_stack(rng, 600, looks=3)
        pixels = pack_coherency_array(t) if packed else t
        cats = rng.integers(0, 2, 600).astype(np.uint8)
        mixed = rng.random(600) < 0.2
        seeds, labels0 = initial_clusters(pixels, 6, category=cats)
        inputs = (pixels, cats, mixed, labels0)
        before = [a.copy() for a in inputs]
        state = [(c.id, c.category, c.center.copy(), c.member_count, c.source_ids) for c in seeds]
        config = ClassifierConfig(max_iterations=3, convergence_fraction=0.0)
        labels, _, history = iterate_classification(*inputs[:3], seeds, config, labels0, workers=2)
        assert (labels != labels0).any() and all(h["changed"] for h in history[1:])
        for a, b in zip(inputs, before):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for c, (cid, cat, center, count, sources) in zip(seeds, state):
            assert (c.id, c.category, c.member_count, c.source_ids) == (cid, cat, count, sources)
            assert c.center.tobytes() == center.tobytes()

    def test_one_distance_matrix_per_pass(self, monkeypatch):
        import geopolsar.classify as classify

        calls = []
        block_pass = classify._block_pass

        def counted(t, k, workers, assign):  # the passes that score pixels, not pass 0's check
            if assign.__name__ == "score":
                calls.append(k)
            return block_pass(t, k, workers, assign)

        monkeypatch.setattr(classify, "_block_pass", counted)
        rng = np.random.default_rng(62)
        t = random_psd_stack(rng, 500, looks=3)
        seeds, labels0 = initial_clusters(t, 8)
        config = ClassifierConfig(max_iterations=3, convergence_fraction=0.0)
        _, _, history = iterate_classification(
            t, np.zeros(500, int), np.zeros(500, bool), seeds, config,
            initial_labels=labels0,
        )
        assert [h["iteration"] for h in history] == [0, 1, 2, 3]
        assert all(h["changed"] for h in history[1:])
        # pass 0 totals the post-merge assignment from per-cluster counts and
        # sums, scoring no pixel; passes 1-3 score every pixel once each
        assert len(calls) == 3

        calls.clear()
        config = ClassifierConfig(max_iterations=0)
        _, _, history = iterate_classification(
            t, np.zeros(500, int), np.zeros(500, bool), seeds, config,
            initial_labels=labels0,
        )
        assert len(calls) == 0
        # the oracle scores every loaded pixel against its loaded center
        epsilon = config.center_regularization
        loaded = [
            Cluster(c.id, c.category, _regularize(c.center, epsilon), c.member_count)
            for c in seeds
        ]
        _, _, ref_history = iterate_oracle(
            _regularize(t, epsilon), np.zeros(500, int), np.zeros(500, bool), loaded,
            dataclasses.replace(config, center_regularization=0.0), labels0,
        )
        assert [h["objective"] for h in history] == pytest.approx(
            [h["objective"] for h in ref_history], rel=1e-12, abs=0.0
        )

        # a non-mixed pixel whose category has no cluster makes every pass
        # that picks total inf; pass 0 totals the given assignment
        cats = np.zeros(500, int)
        cats[0] = 1
        _, _, history = iterate_classification(
            t, cats, np.zeros(500, bool), seeds, ClassifierConfig(max_iterations=1),
            initial_labels=labels0,
        )
        assert len(calls) == 1
        assert np.isfinite(history[0]["objective"]) and history[1]["objective"] == np.inf

    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_the_full_matrix_oracle_bitwise(self, monkeypatch, workers):
        import geopolsar.classify as classify

        # 64-pixel blocks leave a ragged last block on most instances
        monkeypatch.setattr(classify, "_DISTANCE_BLOCK", 64)
        rng = np.random.default_rng(66)
        retired = crossed = 0
        for _ in range(40):
            n = int(rng.integers(1, 400))
            n_cat = int(rng.integers(2, 4))
            t = random_psd_stack(rng, n, looks=int(rng.integers(3, 8)))
            cats = rng.integers(0, n_cat, n)
            mixed = rng.random(n) < rng.choice([0.0, 0.2, 0.6])
            clusters = []
            labels0 = np.empty(n, dtype=np.int64)
            for ci in range(n_cat):
                sel = np.flatnonzero(cats == ci)
                # each category has its own k, so its ids are offset to 10 * ci + b
                seeds, lab = initial_clusters(t[sel], int(rng.integers(1, 9)))
                labels0[sel] = lab + 10 * ci
                clusters += [cluster_from(s.center, 10 * ci + s.id, ci, s.member_count) for s in seeds]
            # a far-off center loses its members when its category has others;
            # a copied center ties every pixel's distance to the pair
            far, twin, copied = (clusters[i] for i in rng.integers(len(clusters), size=3))
            far.center = far.center * 1e3
            twin.center = copied.center.copy()
            config = ClassifierConfig(
                max_iterations=int(rng.integers(0, 7)),
                convergence_fraction=float(rng.choice([0.0, 0.01])),
                center_regularization=float(rng.choice([0.0, 1e-6])),
            )
            labels, out, history = iterate_classification(
                t, cats, mixed, clusters, config, labels0, workers=workers
            )
            # the oracle refines the loaded pixels and centers without a load
            epsilon = config.center_regularization
            loaded = [
                Cluster(c.id, c.category, _regularize(c.center, epsilon), c.member_count)
                for c in clusters
            ]
            unloaded = dataclasses.replace(config, center_regularization=0.0)
            ref_labels, ref_out, ref_history = iterate_oracle(
                _regularize(t, epsilon), cats, mixed, loaded, unloaded, labels0,
                workers=workers,
            )
            assert labels.tobytes() == ref_labels.tobytes()
            assert [
                {**h, "objective": None} for h in history
            ] == [{**h, "objective": None} for h in ref_history]
            assert [h["objective"] for h in history] == pytest.approx(
                [h["objective"] for h in ref_history], rel=1e-12, abs=0.0
            )
            assert [
                (c.id, c.category, c.member_count, c.source_ids) for c in out
            ] == [(c.id, c.category, c.member_count, c.source_ids) for c in ref_out]
            for c, ref in zip(out, ref_out):
                assert _regularize(c.center, epsilon) == pytest.approx(
                    ref.center, rel=1e-12, abs=0.0
                )
            retired += len(out) < len(clusters)
            cat_of = {c.id: c.category for c in out}
            crossed += any(cat_of[label] != cat for label, cat in zip(labels, cats))
        # the instances cover retired clusters and mixed pixels that change category
        assert retired and crossed

    def test_packed_and_matrix_inputs_agree(self):
        rng = np.random.default_rng(73)
        t = random_psd_stack(rng, 900, looks=3)
        cats = rng.integers(0, 2, 900)
        mixed = rng.random(900) < 0.2
        config = ClassifierConfig(max_iterations=5, convergence_fraction=0.0)
        results = []
        for pixels in (t, pack_coherency_array(t), np.ascontiguousarray(pack_coherency_array(t))):
            seeds, labels0 = [], np.empty(900, dtype=np.int64)
            for ci in (0, 1):
                sel = np.flatnonzero(cats == ci)
                found, labels0[sel] = initial_clusters(pixels[sel], 6, ci)
                seeds += found
            labels, out, history = iterate_classification(
                pixels, cats, mixed, seeds, config, labels0
            )
            results.append(
                (
                    labels0.tobytes(),
                    [(c.id, c.member_count, c.center.tobytes()) for c in seeds],
                    labels.tobytes(),
                    [(c.id, c.category, c.member_count, c.center.tobytes()) for c in out],
                    history,
                )
            )
        assert results[0] == results[1] == results[2]

    def test_loaded_pixels_make_every_pass_a_descent(self):
        # Near-rank-one pixels: speckled rank-one scatterers over a 1e-6 floor,
        # so epsilon = 1e-6 is about their smallest eigenvalue. Scoring plain
        # pixels against loaded centers, then taking plain means, rose by up
        # to 6e-4 relative on these seeds (found by a sweep of seeds 0-39).
        for seed in (6, 31, 38):
            rng = np.random.default_rng(seed)
            n, looks = 3000, 4
            dirs = np.eye(3)[:2] + 0.05 * (
                rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            )
            which = rng.integers(0, 2, n)
            power = rng.gamma(2.0, 1.0, n)
            z = rng.standard_normal((n, looks)) + 1j * rng.standard_normal((n, looks))
            k = np.sqrt(power / 2)[:, None, None] * z[:, :, None] * dirs[which][:, None, :]
            t = np.einsum("nla,nlb->nab", k, k.conj()) / looks
            t += 1e-6 * power[:, None, None] * np.eye(3)
            config = ClassifierConfig(max_iterations=10, convergence_fraction=0.0)
            seeds, labels0 = initial_clusters(t, 30)
            merged = merge_clusters(seeds, config)
            relabel = {s: c.id for c in merged for s in c.source_ids}
            labels0 = np.array([relabel[l] for l in labels0])
            _, _, history = iterate_classification(
                t, np.zeros(n, int), np.zeros(n, bool), merged, config, labels0
            )
            objectives = [h["objective"] for h in history]
            assert len(objectives) == 11
            scale = max(abs(o) for o in objectives)
            for prev, nxt in zip(objectives, objectives[1:]):
                assert nxt <= prev + 1e-12 * scale

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClassifierConfig(initial_clusters_per_category=0)
        with pytest.raises(ValueError):
            ClassifierConfig(max_iterations=-1)
        with pytest.raises(ValueError):
            ClassifierConfig(mixed_threshold=0.0)
        with pytest.raises(ValueError):
            ClassifierConfig(convergence_fraction=1.5)

    @pytest.mark.parametrize("epsilon", [-1e-6, np.nan, np.inf])
    def test_center_regularization_must_be_finite_and_nonnegative(self, epsilon):
        with pytest.raises(ValueError, match="center_regularization must be finite and >= 0"):
            ClassifierConfig(center_regularization=epsilon)
