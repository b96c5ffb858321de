import numpy as np
import pytest

from geopolsar.preprocess import (
    PreprocessConfig,
    deorient,
    deorient_array,
    deorient_raster,
    multilook,
    orientation_angle,
    speckle_filter,
)
from geopolsar.matrices import (
    CoherencyMatrix,
    pack_coherency_array,
    pauli_from_sinclair_array,
    span,
    unpack_coherency_array,
)
from geopolsar.raster import KIND_COHERENCY, KIND_SINCLAIR, PolsarRaster
from geopolsar.scene import open_scene, read_scene, write_scene

from conftest import (
    deorient_longdouble,
    deorient_oracle,
    multilook_oracle,
    random_psd_stack,
    random_sinclair_stack,
    speckle_filter_longdouble,
    speckle_filter_oracle,
    ulps_of_span,
)


def rotation(theta):
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return np.array([[1, 0, 0], [0, c, s], [0, -s, c]], dtype=complex)


class TestDeorient:
    def test_matches_explicit_rotation(self):
        rng = np.random.default_rng(31)
        t = random_psd_stack(rng, 200)
        out = deorient_array(t)
        theta = orientation_angle(t)
        for i in range(t.shape[0]):
            r = rotation(theta[i])
            expected = r @ t[i] @ r.conj().T
            assert np.abs(out[i] - expected).max() <= 1e-13 * np.trace(t[i]).real

    def test_nulls_rotated_cross_term(self):
        rng = np.random.default_rng(32)
        t = random_psd_stack(rng, 300)
        out = deorient_array(t)
        traces = np.trace(t, axis1=-2, axis2=-1).real
        assert (np.abs(out[..., 1, 2].real) / traces).max() <= 1e-10

    def test_reaches_global_minimum_of_t33(self):
        """The rotated T33 must match a dense angle sweep."""
        rng = np.random.default_rng(33)
        t = random_psd_stack(rng, 100)
        t /= np.trace(t, axis1=-2, axis2=-1).real[:, None, None]
        out = deorient_array(t)
        angles = np.linspace(-np.pi / 4, np.pi / 4, 10000, endpoint=False)
        c, s = np.cos(2 * angles), np.sin(2 * angles)
        for i in range(t.shape[0]):
            t22, t33 = t[i, 1, 1].real, t[i, 2, 2].real
            re23 = t[i, 1, 2].real
            swept = s * s * t22 + c * c * t33 - 2 * c * s * re23
            assert out[i, 2, 2].real <= swept.min() + 1e-6
            assert out[i, 2, 2].real <= t33 + 1e-12

    def test_preserves_rotation_invariants(self):
        rng = np.random.default_rng(34)
        t = random_psd_stack(rng, 200)
        out = deorient_array(t)
        # the first row/column subspace is untouched
        assert np.array_equal(out[..., 0, 0], t[..., 0, 0])
        tr_in = np.trace(t, axis1=-2, axis2=-1).real
        tr_out = np.trace(out, axis1=-2, axis2=-1).real
        assert (np.abs(tr_in - tr_out) / tr_in).max() <= 1e-12
        p_in = np.abs(t[..., 0, 1]) ** 2 + np.abs(t[..., 0, 2]) ** 2
        p_out = np.abs(out[..., 0, 1]) ** 2 + np.abs(out[..., 0, 2]) ** 2
        assert (np.abs(p_in - p_out) / np.maximum(p_in, 1e-300)).max() <= 1e-10
        for i in range(0, t.shape[0], 20):
            ev_in = np.linalg.eigvalsh(t[i])
            ev_out = np.linalg.eigvalsh(out[i])
            assert np.abs(ev_in - ev_out).max() <= 1e-9 * tr_in[i]

    def test_idempotent(self):
        rng = np.random.default_rng(35)
        t = random_psd_stack(rng, 200)
        once = deorient_array(t)
        assert np.abs(orientation_angle(once)).max() <= 1e-12
        twice = deorient_array(once)
        traces = np.trace(t, axis1=-2, axis2=-1).real[:, None, None]
        assert (np.abs(twice - once) / traces).max() <= 1e-12

    def test_result_exactly_hermitian(self):
        rng = np.random.default_rng(36)
        t = random_psd_stack(rng, 100)
        out = deorient_array(t)
        assert np.array_equal(out, np.conj(np.swapaxes(out, -2, -1)))

    def test_diagonal_matrices(self):
        # already-diagonal input with t22 > t33 stays fixed; with the
        # diagonal reversed the rotation swaps the two entries
        keep = np.diag([3.0, 2.0, 1.0]).astype(complex)
        assert np.array_equal(deorient_array(keep), keep)
        swap = np.diag([3.0, 1.0, 2.0]).astype(complex)
        out = deorient_array(swap)
        assert out[1, 1].real == pytest.approx(2.0, abs=1e-15)
        assert out[2, 2].real == pytest.approx(1.0, abs=1e-15)

    def test_single_matrix_wrapper(self):
        t = CoherencyMatrix(2.0, 1.0, 0.8, t23=0.4 + 0.2j)
        out = deorient(t)
        assert abs(out.t23.real) <= 1e-12
        assert span(out) == pytest.approx(span(t), rel=1e-12)

    def test_packed_kernel_is_within_4_ulps_of_the_oracle_and_longdouble(self):
        rng = np.random.default_rng(44)
        stacks = [
            random_psd_stack(rng, 500, looks=looks, scale=scale)
            for looks, scale in ((1, 1e-3), (3, 1.0), (25, 1e4))
        ]
        # every sign of zero and of nonzero value in every packed component,
        # with T22 = T33 in the second grid and all magnitudes equal in the third
        tied = rng.random(9) + 0.5
        tied[2] = tied[1]
        for mags in (rng.random(9) + 0.5, tied, np.ones(9)):
            values = [np.array([0.0, -0.0, m, -m]) for m in mags]
            grid = np.stack(np.meshgrid(*values, indexing="ij"), axis=-1).reshape(-1, 9)
            stacks.append(unpack_coherency_array(grid))
        # theta = 0: Re T23 = 0 with T22 > T33, and T22 = T33 with any T23
        t = random_psd_stack(rng, 500)
        t[:250, 1, 2] = t[:250, 1, 2].imag * 1j
        t[:250, 2, 1] = t[:250, 1, 2].conj()
        t[250:, 2, 2] = t[250:, 1, 1]
        stacks.append(t)
        for t in stacks:
            p = pack_coherency_array(t)
            out = deorient_raster(PolsarRaster(KIND_COHERENCY, p[None], looks=4)).data[0]
            assert ulps_of_span(out, pack_coherency_array(deorient_oracle(t))).max() <= 4.0
            assert ulps_of_span(out, deorient_longdouble(p)).max() <= 4.0
            if len(t) == 500:  # the complex wrapper, on the random stacks only
                assert pack_coherency_array(deorient_array(t)).tobytes() == out.tobytes()
            mask = rng.random(len(t)) < 0.8
            raster = PolsarRaster(KIND_COHERENCY, p[None], mask[None], looks=4)
            out[~mask] = 0.0
            assert deorient_raster(raster).data.tobytes() == out[None].tobytes()

    @pytest.mark.parametrize("theta", [0.1, 0.3, 0.7, np.pi / 4 - 0.01])
    def test_rotated_demo_deorients_back(self, demo_scene, theta):
        # R(theta) T R(theta)^T rotates the (2, 3) Pauli block by 2 theta;
        # deorientation undoes it up to the pi/2 branch, which flips the
        # signs of T12 and T13
        raster = read_scene(demo_scene)
        expected = deorient_raster(raster).data
        flipped = expected * np.array([1, 1, 1, -1, -1, 1, -1, -1, 1])
        r = rotation(theta).real
        rotated = r @ unpack_coherency_array(raster.data) @ r.T
        out = deorient_raster(PolsarRaster(KIND_COHERENCY, rotated, raster.mask, raster.looks))
        spans = raster.data[..., :3].sum(axis=-1)
        error = np.minimum(np.abs(out.data - expected).max(axis=-1),
                           np.abs(out.data - flipped).max(axis=-1))
        assert (error / spans).max() <= 2e-15

    def test_raster_wrapper_masks_propagate(self):
        rng = np.random.default_rng(37)
        data = random_psd_stack(rng, 12).reshape(3, 4, 3, 3)
        mask = np.ones((3, 4), bool)
        mask[1, 1] = False
        raster = PolsarRaster(KIND_COHERENCY, data, mask, looks=4)
        out = deorient_raster(raster)
        assert out.mask[1, 1] == False  # noqa: E712
        assert np.all(out.data[1, 1] == 0.0)
        with pytest.raises(ValueError, match="coherency"):
            deorient_raster(PolsarRaster(KIND_SINCLAIR, np.zeros((2, 2, 2, 2))))

    def test_raster_bytes_do_not_depend_on_the_tile_size(self, monkeypatch):
        import geopolsar.preprocess as preprocess
        from geopolsar.pipeline import PipelineConfig, _prepare
        from geopolsar.raster import RowSource

        rng = np.random.default_rng(40)
        data = random_psd_stack(rng, 37 * 53).reshape(37, 53, 3, 3)
        data[..., 2, 2] = data[..., 1, 1]  # T22 = T33 takes arctan2's edge cases
        data[::5, :, 1, 2] = data[::5, :, 2, 1] = 0.0
        raster = PolsarRaster(KIND_COHERENCY, data, rng.random((37, 53)) < 0.8, looks=4)
        expected = deorient_raster(raster).data.tobytes()
        # a window of one leaves each tile as deoriented, with no halo rows
        config = PipelineConfig(preprocess=PreprocessConfig(filter_window=1))
        source = RowSource(raster.shape, raster.slice_rows)
        for tile_rows in (1, 7, 18, 37):
            monkeypatch.setattr(preprocess, "_FILTER_TILE_PIXELS", tile_rows * 53)
            tiles = [tile for _, _, tile, _ in _prepare(source, config, lambda stage: None)]
            assert len(tiles) == -(-37 // tile_rows)
            assert np.concatenate(tiles).tobytes() == expected


class TestSpeckleFilter:
    def test_window_one_is_identity(self):
        rng = np.random.default_rng(38)
        data = random_psd_stack(rng, 20).reshape(4, 5, 3, 3)
        raster = PolsarRaster(KIND_COHERENCY, data, looks=1)
        out = speckle_filter(raster, PreprocessConfig(filter_window=1))
        assert np.array_equal(out.data, raster.data)
        assert out.looks == raster.looks

    def test_constant_field_unchanged(self):
        t = CoherencyMatrix(2.0, 1.0, 0.5, t12=0.3 + 0.1j).matrix
        data = np.broadcast_to(t, (6, 7, 3, 3)).copy()
        raster = PolsarRaster(KIND_COHERENCY, data, looks=1)
        out = speckle_filter(raster, PreprocessConfig(filter_window=3))
        assert np.abs(unpack_coherency_array(out.data) - data).max() <= 1e-12

    def test_matches_bruteforce_neighborhood_means(self):
        rng = np.random.default_rng(39)
        rows, cols = 9, 7
        data = random_psd_stack(rng, rows * cols).reshape(rows, cols, 3, 3)
        mask = rng.random((rows, cols)) > 0.25
        raster = PolsarRaster(KIND_COHERENCY, data, mask, looks=1)
        for window in (3, 5):
            out = speckle_filter(raster, PreprocessConfig(filter_window=window))
            half = window // 2
            for r in range(rows):
                for c in range(cols):
                    if not mask[r, c]:
                        assert not out.mask[r, c]
                        assert np.all(out.data[r, c] == 0.0)
                        continue
                    acc = np.zeros((3, 3), complex)
                    count = 0
                    for rr in range(max(0, r - half), min(rows, r + half + 1)):
                        for cc in range(max(0, c - half), min(cols, c + half + 1)):
                            if mask[rr, cc]:
                                acc += data[rr, cc]
                                count += 1
                    assert out.mask[r, c]
                    assert np.abs(unpack_coherency_array(out.data[r, c]) - acc / count).max() <= 1e-12

    @pytest.mark.parametrize("windows", [range(3, 15, 2), (65, 131)], ids=["3-13", "65-131"])
    def test_is_within_4_ulps_of_the_oracle_and_longdouble(self, windows):
        rng = np.random.default_rng(41)
        for rows, cols in ((1, 40), (2, 2), (7, 300), (128, 128), (37, 53), (23, 1)):
            data = random_psd_stack(rng, rows * cols).reshape(rows, cols, 3, 3)
            data[rng.random((rows, cols)) < 0.1] = 0.0
            # -0.0 everywhere in T23, and -0.0 real parts beside negative
            # imaginary parts in T12
            data[..., 1, 2] = complex(-0.0, -0.0)
            data[..., 2, 1] = complex(-0.0, 0.0)
            flip = rng.random((rows, cols)) < 0.5
            data[flip, 0, 1] = -0.0 - 1j * np.abs(data[flip, 0, 1].imag)
            # unmasked infinite parts: Im T13 at the first pixel, Re T12 at
            # the last
            data[0, 0, 0, 2] = complex(1.0, np.inf)
            data[-1, -1, 0, 1] = complex(np.inf, 1.0)
            data[..., 1, 0] = data[..., 0, 1].conj()
            data[..., 2, 0] = data[..., 0, 2].conj()
            mask = rng.random((rows, cols)) > 0.2
            mask[0, 0] = mask[-1, -1] = True
            raster = PolsarRaster(KIND_COHERENCY, data, mask, looks=3)
            for window in windows:
                config = PreprocessConfig(filter_window=window)
                out = speckle_filter(raster, config)
                ref = speckle_filter_oracle(raster, config)
                assert np.array_equal(out.mask, ref.mask)
                assert out.looks == ref.looks
                assert ulps_of_span(out.data, ref.data).max() <= 4.0, (rows, cols, window)
                longdouble = speckle_filter_longdouble(raster, window)
                assert ulps_of_span(out.data, longdouble).max() <= 4.0, (rows, cols, window)
                # each infinity stays in its own plane, over the valid pixels
                # whose windows hold it
                half = window // 2
                r, c = np.ogrid[:rows, :cols]
                inf = np.zeros((rows, cols, 9), bool)
                inf[..., 7] = mask & (r <= half) & (c <= half)
                inf[..., 3] = mask & (r >= rows - 1 - half) & (c >= cols - 1 - half)
                assert np.array_equal(np.isposinf(out.data), inf), (rows, cols, window)
                assert np.isfinite(out.data[~inf]).all()

    def test_output_exactly_hermitian(self):
        rng = np.random.default_rng(40)
        data = random_psd_stack(rng, 30).reshape(5, 6, 3, 3)
        raster = PolsarRaster(KIND_COHERENCY, data, looks=1)
        out = speckle_filter(raster, PreprocessConfig(filter_window=3))
        out_t = unpack_coherency_array(out.data)
        assert np.array_equal(out_t, np.conj(np.swapaxes(out_t, -2, -1)))

    def test_looks_metadata_scales_with_window(self):
        data = np.zeros((4, 4, 3, 3), complex)
        data[..., 0, 0] = 1.0
        raster = PolsarRaster(KIND_COHERENCY, data, looks=2)
        out = speckle_filter(raster, PreprocessConfig(filter_window=5))
        assert out.looks == 50.0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="odd"):
            PreprocessConfig(filter_window=4)
        with pytest.raises(ValueError, match="odd"):
            PreprocessConfig(filter_window=0)
        with pytest.raises(ValueError, match="coherency"):
            speckle_filter(
                PolsarRaster(KIND_SINCLAIR, np.zeros((2, 2, 2, 2))),
                PreprocessConfig(),
            )


class TestMultilook:
    def test_block_means_of_pauli_outer_products(self):
        rng = np.random.default_rng(41)
        s = random_sinclair_stack(rng, 9 * 11).reshape(9, 11, 2, 2)
        raster = PolsarRaster(KIND_SINCLAIR, s, looks=1)
        out = multilook(raster, 3, 5)
        assert out.kind == KIND_COHERENCY
        assert out.shape == (3, 2)  # trailing column block dropped
        assert out.looks == 15.0
        pauli = pauli_from_sinclair_array(s)
        for r in range(3):
            for c in range(2):
                block = pauli[3 * r : 3 * r + 3, 5 * c : 5 * c + 5].reshape(15, 3)
                expected = np.einsum("la,lb->ab", block, block.conj()) / 15
                assert np.abs(unpack_coherency_array(out.data[r, c]) - expected).max() <= 1e-12

    def test_single_pixel_blocks_are_rank_one(self):
        rng = np.random.default_rng(42)
        s = random_sinclair_stack(rng, 4).reshape(2, 2, 2, 2)
        out = multilook(PolsarRaster(KIND_SINCLAIR, s), 1, 1)
        for r in range(2):
            for c in range(2):
                eigs = np.linalg.eigvalsh(unpack_coherency_array(out.data[r, c]))
                assert eigs[0] == pytest.approx(0.0, abs=1e-12 * eigs[2])

    def test_masked_pixels_shrink_the_average(self):
        rng = np.random.default_rng(43)
        s = random_sinclair_stack(rng, 8).reshape(2, 4, 2, 2)
        mask = np.ones((2, 4), bool)
        mask[0, 0] = False
        out = multilook(PolsarRaster(KIND_SINCLAIR, s, mask), 2, 2)
        pauli = pauli_from_sinclair_array(s)
        block = np.stack([pauli[1, 0], pauli[0, 1], pauli[1, 1]])
        expected = np.einsum("la,lb->ab", block, block.conj()) / 3
        assert np.abs(unpack_coherency_array(out.data[0, 0]) - expected).max() <= 1e-12
        # a fully masked block becomes a masked output pixel
        mask2 = mask.copy()
        mask2[:2, :2] = False
        out2 = multilook(PolsarRaster(KIND_SINCLAIR, s, mask2), 2, 2)
        assert not out2.mask[0, 0]
        assert np.all(out2.data[0, 0] == 0.0)
        assert out2.mask[0, 1]

    @pytest.mark.parametrize("tile_pixels", [None, 40])
    def test_matches_the_complex_oracle(self, monkeypatch, tile_pixels):
        import geopolsar.preprocess as preprocess

        if tile_pixels:  # several row tiles, the last one partial
            monkeypatch.setattr(preprocess, "_FILTER_TILE_PIXELS", tile_pixels)
        rng = np.random.default_rng(44)
        for rows, cols in ((1, 1), (7, 11), (16, 16), (23, 31), (40, 9)):
            s = random_sinclair_stack(rng, rows * cols, scale=3.0).reshape(rows, cols, 2, 2)
            s[..., 1, 0] += 0.5  # non-reciprocal: both sides read HV' = (HV + VH) / 2
            mask = rng.random((rows, cols)) > 0.2
            # masked payloads are non-zero or NaN; neither may leak into a mean
            s[~mask & (rng.random((rows, cols)) < 0.5), 1, 1] = complex(np.nan, 1.0)
            mask[:3, :5] = False  # a fully masked block at every factor below
            raster = PolsarRaster(KIND_SINCLAIR, s, mask, looks=2)
            for rf, af in ((1, 1), (2, 2), (3, 5), (1, 3), (3, 1)):
                if rows < rf or cols < af:
                    continue
                out, ref = multilook(raster, rf, af), multilook_oracle(raster, rf, af)
                assert out.shape == ref.shape == (rows // rf, cols // af)
                assert np.array_equal(out.mask, ref.mask) and not out.mask[0, 0]
                assert out.looks == ref.looks
                span = ref.data[..., :3].sum(axis=-1, keepdims=True)
                assert np.all(np.abs(out.data - ref.data) <= 1e-14 * span)

    @pytest.mark.parametrize("factors", [(1, 1), (2, 2)])
    def test_an_empty_row_range_reads_an_empty_raster(self, tmp_path, factors):
        rng = np.random.default_rng(45)
        s = random_sinclair_stack(rng, 8 * 6).reshape(8, 6, 2, 2)
        write_scene(PolsarRaster(KIND_SINCLAIR, s), tmp_path / "scene")
        source = open_scene(tmp_path / "scene", factors)
        for k in (0, 2, source.shape[0]):
            empty = source.rows(k, k)
            assert empty.kind == KIND_COHERENCY
            assert empty.data.shape == (0, 6 // factors[1], 9)
            assert empty.mask.shape == (0, 6 // factors[1])

    def test_validation(self):
        raster = PolsarRaster(KIND_SINCLAIR, np.zeros((2, 3, 2, 2), complex))
        with pytest.raises(ValueError, match="smaller than one"):
            multilook(raster, 5, 1)
        with pytest.raises(ValueError, match="positive"):
            multilook(raster, 0, 1)
        coh = PolsarRaster(KIND_COHERENCY, np.zeros((2, 2, 3, 3), complex))
        with pytest.raises(ValueError, match="Sinclair"):
            multilook(coh, 1, 1)
