import numpy as np
import pytest

from geopolsar.geodesic import (
    DEFAULT_TARGETS,
    DIHEDRAL,
    RANDOM_VOLUME,
    TRIHEDRAL,
    CanonicalTarget,
    SimilarityTriple,
    dominant_target,
    geodesic_distance,
    geodesic_distance_array,
    similarity,
    similarity_arrays,
    similarity_triple,
)
from geopolsar.matrices import (
    KennaughMatrix,
    kennaugh_from_coherency_array,
    pack_coherency_array,
)

from geopolsar.scene import read_scene

from conftest import random_psd_stack

# closed forms of the pairwise distances between the canonical targets:
# cos(angle) = Tr(K1^T K2) / (|K1| |K2|) with |Ka| = |Kb| = 2, |Krv| = sqrt(1.5)
D_A_RV = (2.0 / np.pi) * np.arccos(2.0 / (2.0 * np.sqrt(1.5)))  # 0.39182655...
D_B_RV = (2.0 / np.pi) * np.arccos(1.0 / (2.0 * np.sqrt(1.5)))  # 0.73227952...


def random_kennaugh_stack(rng, n, looks=4):
    return kennaugh_from_coherency_array(random_psd_stack(rng, n, looks=looks))


class TestDistance:
    def test_target_anchor_values(self):
        assert geodesic_distance(TRIHEDRAL.kennaugh, DIHEDRAL.kennaugh) == 1.0
        assert geodesic_distance(TRIHEDRAL.kennaugh, RANDOM_VOLUME.kennaugh) == pytest.approx(
            0.3918265520306073, abs=1e-12
        )
        assert geodesic_distance(DIHEDRAL.kennaugh, RANDOM_VOLUME.kennaugh) == pytest.approx(
            0.7322795271987701, abs=1e-12
        )
        assert geodesic_distance(TRIHEDRAL.kennaugh, RANDOM_VOLUME.kennaugh) == pytest.approx(
            D_A_RV, abs=1e-15
        )
        assert geodesic_distance(DIHEDRAL.kennaugh, RANDOM_VOLUME.kennaugh) == pytest.approx(
            D_B_RV, abs=1e-15
        )

    def test_self_distance_exactly_zero(self):
        rng = np.random.default_rng(21)
        k = random_kennaugh_stack(rng, 200)
        assert np.all(geodesic_distance_array(k, k) == 0.0)
        assert geodesic_distance(TRIHEDRAL.kennaugh, TRIHEDRAL.kennaugh) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(22)
        k1 = random_kennaugh_stack(rng, 100)
        k2 = random_kennaugh_stack(rng, 100)
        assert np.array_equal(
            geodesic_distance_array(k1, k2), geodesic_distance_array(k2, k1)
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        k1 = random_kennaugh_stack(rng, 500)
        k2 = random_kennaugh_stack(rng, 500)
        base = geodesic_distance_array(k1, k2)
        for s1, s2 in ((1e-6, 1.0), (3.0, 7.0), (1e6, 1e-4)):
            scaled = geodesic_distance_array(s1 * k1, s2 * k2)
            assert np.abs(scaled - base).max() <= 1e-11

    def test_range_for_physical_inputs(self):
        rng = np.random.default_rng(24)
        k1 = random_kennaugh_stack(rng, 2000, looks=1)
        k2 = random_kennaugh_stack(rng, 2000, looks=8)
        d = geodesic_distance_array(k1, k2)
        assert d.min() >= 0.0
        assert d.max() <= 1.0

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            geodesic_distance(np.zeros((4, 4)), TRIHEDRAL.kennaugh.matrix)
        with pytest.raises(ValueError, match="degenerate"):
            CanonicalTarget("null", KennaughMatrix(np.zeros((4, 4))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # used to return NaN, with an "invalid value" warning for inf
        m = np.eye(4)
        m[0, 0] = bad
        target = TRIHEDRAL.kennaugh.matrix
        for pair in ((m, target), (target, m), (np.full((4, 4), bad), target)):
            for distance in (geodesic_distance, geodesic_distance_array):
                with pytest.raises(ValueError, match="Kennaugh matrix entries must be finite"):
                    distance(*pair)

    def test_antipodal_inputs_reach_two(self):
        # sign-flipped matrices are maximally distant; only reachable with
        # unphysical inputs but the kernel stays well defined
        k = TRIHEDRAL.kennaugh.matrix
        assert geodesic_distance(k, -k) == pytest.approx(2.0)


class TestSimilarityTriple:
    def test_trihedral_pixel_values(self):
        triple = similarity_triple(TRIHEDRAL.kennaugh)
        assert triple.f["trihedral"] == 1.0
        assert triple.f["dihedral"] == 0.0
        assert triple.f["random_volume"] == pytest.approx(1.0 - D_A_RV, abs=1e-15)
        assert triple.gamma["trihedral"] == pytest.approx(0.621823473868866, abs=1e-12)
        assert triple.gamma["dihedral"] == 0.0
        assert triple.gamma["random_volume"] == pytest.approx(
            0.3781765261311339, abs=1e-12
        )
        # k11 = 1, so w = 2 gamma and the weights sum to the span
        assert triple.w["trihedral"] == pytest.approx(1.243646947737732, abs=1e-12)
        assert sum(triple.w.values()) == pytest.approx(2.0, abs=1e-12)
        assert dominant_target(triple) == "trihedral"

    def test_volume_pixel_values(self):
        triple = similarity_triple(RANDOM_VOLUME.kennaugh)
        assert triple.gamma["trihedral"] == pytest.approx(0.3242046051940684, abs=1e-12)
        assert triple.gamma["dihedral"] == pytest.approx(0.14271621110177143, abs=1e-12)
        assert triple.gamma["random_volume"] == pytest.approx(
            0.5330791837041602, abs=1e-12
        )
        assert dominant_target(triple) == "random_volume"

    def test_power_scaling_moves_weights_not_shares(self):
        lam = 7.0
        scaled = KennaughMatrix(lam * RANDOM_VOLUME.kennaugh.matrix)
        base = similarity_triple(RANDOM_VOLUME.kennaugh)
        triple = similarity_triple(scaled)
        for name in triple.gamma:
            assert triple.gamma[name] == pytest.approx(base.gamma[name], abs=1e-12)
            assert triple.w[name] == pytest.approx(lam * base.w[name], rel=1e-12)

    def test_gamma_normalization_fuzz(self):
        rng = np.random.default_rng(25)
        k = random_kennaugh_stack(rng, 300)
        for i in range(k.shape[0]):
            triple = similarity_triple(KennaughMatrix(k[i]))
            assert sum(triple.gamma.values()) == pytest.approx(1.0, abs=1e-12)
            assert sum(triple.w.values()) == pytest.approx(
                2.0 * k[i, 0, 0], rel=1e-12
            )

    def test_no_targets_rejected(self):
        with pytest.raises(ValueError, match="no targets"):
            similarity_triple(TRIHEDRAL.kennaugh, targets=())

    def test_negative_power_rejected(self):
        k = KennaughMatrix(np.diag([-1.0, 0.5, 0.5, 0.0]))
        with pytest.raises(ValueError, match="negative span"):
            similarity_triple(k)

    def test_pixel_orthogonal_to_every_target_rejected(self):
        # a pure cross-pol pixel is orthogonal to both the odd- and the
        # even-bounce target, so with only those two the shares are undefined
        k = KennaughMatrix(
            kennaugh_from_coherency_array(np.diag([0.0, 0.0, 2.0]).astype(complex))
        )
        assert similarity(k, TRIHEDRAL) == pytest.approx(0.0, abs=1e-15)
        assert similarity(k, DIHEDRAL) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(ValueError, match="equidistant-degenerate"):
            similarity_triple(k, targets=(TRIHEDRAL, DIHEDRAL))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="degenerate Kennaugh matrix"):
            similarity_triple(KennaughMatrix(np.zeros((4, 4))))

    def test_strongly_negative_similarity_rejected(self):
        k = KennaughMatrix(np.diag([0.0, -1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="similarity out of range"):
            similarity_triple(k)

    def test_tie_resolves_to_registry_order(self):
        triple = SimilarityTriple(
            f={"x": 0.5, "y": 0.5},
            gamma={"x": 0.5, "y": 0.5},
            w={"x": 1.0, "y": 1.0},
        )
        assert dominant_target(triple) == "x"

    def test_triple_validation(self):
        with pytest.raises(ValueError, match="same target names"):
            SimilarityTriple(f={"x": 1.0}, gamma={"y": 1.0}, w={"x": 1.0})
        with pytest.raises(ValueError, match="nonnegative"):
            SimilarityTriple(f={"x": -0.1}, gamma={"x": 1.0}, w={"x": 1.0})
        with pytest.raises(ValueError, match="sum to 1"):
            SimilarityTriple(f={"x": 1.0}, gamma={"x": 0.5}, w={"x": 1.0})

    def test_non_finite_entries_rejected(self):
        for nan_at in ("f", "gamma", "w"):
            entries = {"f": {"x": 1.0}, "gamma": {"x": 1.0}, "w": {"x": 1.0}}
            entries[nan_at] = {"x": np.nan}
            with pytest.raises(ValueError, match="nonnegative"):
                SimilarityTriple(**entries)
        with pytest.raises(ValueError, match="sum to 1"):
            SimilarityTriple(f={"x": 1.0}, gamma={"x": np.inf}, w={"x": 1.0})


class TestSimilarityArrays:
    def test_matches_scalar_path(self):
        # f is 1 - GD per target, floored at 0; gamma = f / sum f; w = 2 k11 gamma
        rng = np.random.default_rng(26)
        k = random_kennaugh_stack(rng, 40).reshape(5, 8, 4, 4)
        mask = np.ones((5, 8), dtype=bool)
        f, gamma, w, valid = similarity_arrays(k, mask)
        assert valid.all()
        for ti, target in enumerate(DEFAULT_TARGETS):
            gd = geodesic_distance_array(k, target.kennaugh.matrix)
            assert np.abs(f[ti] - np.maximum(1.0 - gd, 0.0)).max() <= 1e-14
        assert np.abs(gamma - f / f.sum(axis=0)).max() <= 1e-14
        expected_w = 2.0 * k[..., 0, 0] * gamma
        assert (np.abs(w - expected_w) <= np.maximum(1e-12 * np.abs(expected_w), 1e-14)).all()

    def test_share_and_weight_conservation_on_packed_rows(self, demo_scene):
        rng = np.random.default_rng(30)
        fuzzed = pack_coherency_array(random_psd_stack(rng, 5000)).reshape(50, 100, 9)
        demo = read_scene(demo_scene)
        for p, mask in ((fuzzed, np.ones((50, 100), bool)), (demo.data, demo.mask)):
            f, gamma, w, valid = similarity_arrays(p, mask)
            assert valid.all()
            assert np.abs(gamma.sum(axis=0) - 1.0).max() <= 1e-12
            spans = (p[..., 0] + p[..., 1]) + p[..., 2]
            assert (np.abs(w.sum(axis=0) - spans) / spans).max() <= 1e-12

    def test_masked_and_degenerate_pixels(self):
        rng = np.random.default_rng(27)
        k = random_kennaugh_stack(rng, 6).reshape(2, 3, 4, 4)
        mask = np.ones((2, 3), dtype=bool)
        mask[0, 1] = False
        k[1, 2] = 0.0  # zero-power pixel
        f, gamma, w, valid = similarity_arrays(k, mask)
        assert not valid[0, 1] and np.isnan(f[:, 0, 1]).all()
        assert not valid[1, 2] and np.isnan(w[:, 1, 2]).all()
        assert valid.sum() == 4

    def test_unphysical_pixel_masked_not_raised(self):
        k = np.zeros((1, 2, 4, 4))
        k[0, 0] = np.diag([1.0, 1.0, 1.0, -1.0])
        k[0, 1] = np.diag([0.0, -1.0, -1.0, 1.0])  # similarity below -tolerance
        f, gamma, w, valid = similarity_arrays(k, np.ones((1, 2), bool))
        assert valid[0, 0]
        assert not valid[0, 1]

    def test_sums_where_valid(self):
        rng = np.random.default_rng(28)
        k = random_kennaugh_stack(rng, 60).reshape(6, 10, 4, 4)
        f, gamma, w, valid = similarity_arrays(k, np.ones((6, 10), bool))
        assert np.abs(gamma.sum(axis=0)[valid] - 1.0).max() <= 1e-12
        spans = 2.0 * k[..., 0, 0]
        assert (np.abs(w.sum(axis=0) - spans)[valid] / spans[valid]).max() <= 1e-12

    def test_packed_route_matches_the_kennaugh_route(self):
        # an extra target with off-diagonal Kennaugh entries exercises the
        # off-diagonal part of the pull-back; the default targets are diagonal
        model = np.diag([1.0, 0.6, 0.5]).astype(complex)
        model[0, 1], model[0, 2], model[1, 2] = 0.3 + 0.2j, 0.15 + 0.1j, 0.2 - 0.1j
        model += np.triu(model, 1).conj().T
        k = kennaugh_from_coherency_array(model)
        assert np.count_nonzero(k - np.diag(np.diag(k))) == 12
        skew = CanonicalTarget("skew", KennaughMatrix(k))
        targets = DEFAULT_TARGETS + (skew,)
        rng = np.random.default_rng(29)
        for looks in (1, 3, 25):
            for scale in (np.exp(-20.0), 1.0, np.exp(20.0)):
                t = random_psd_stack(rng, 600, looks, scale).reshape(20, 30, 3, 3)
                mask = rng.random((20, 30)) < 0.9
                packed = similarity_arrays(pack_coherency_array(t), mask, targets)
                reference = similarity_arrays(kennaugh_from_coherency_array(t), mask, targets)
                valid = reference[3]
                assert np.array_equal(packed[3], valid)
                spans = np.trace(t, axis1=-2, axis2=-1).real[valid]
                bounds = (1e-12, 1e-12, 1e-12 * spans)
                for got, expected, bound in zip(packed[:3], reference[:3], bounds):
                    assert np.isnan(got[:, ~valid]).all()
                    assert (np.abs(got[:, valid] - expected[:, valid]) <= bound).all()

    def test_rejects_other_pixel_shapes(self):
        with pytest.raises(ValueError, match="packed"):
            similarity_arrays(np.ones((2, 3, 3, 3)), np.ones((2, 3), bool))

    @pytest.mark.parametrize("mask_shape", [(3,), (1, 3), (2, 1), (3, 2), (2, 3, 1)])
    def test_mask_must_cover_the_pixel_grid(self, mask_shape):
        # a (cols,) mask used to broadcast over every row without an error
        t = random_psd_stack(np.random.default_rng(36), 6).reshape(2, 3, 3, 3)
        for pixels in (kennaugh_from_coherency_array(t), pack_coherency_array(t)):
            with pytest.raises(ValueError, match=r"mask shape .* does not match the pixel grid \(2, 3\)"):
                similarity_arrays(pixels, np.ones(mask_shape, bool))
