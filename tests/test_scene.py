import shutil
import tracemalloc

import numpy as np
import pytest

from geopolsar.matrices import kennaugh_from_coherency_array, unpack_coherency_array
from geopolsar.preprocess import multilook
from geopolsar.raster import KIND_COHERENCY, KIND_SINCLAIR, PolsarRaster
from geopolsar.scene import (
    MODEL_COHERENCY,
    Region,
    SyntheticSceneSpec,
    generate_scene,
    parse_scene_spec,
    read_scene,
    write_scene,
)
from geopolsar.geodesic import DEFAULT_TARGETS, similarity_arrays
from geopolsar.pipeline import PipelineConfig, classify_raster, run_classify

from conftest import DEMO_SPEC, random_psd_stack, random_sinclair_stack


def coherency_raster(rng, rows, cols, looks=4.0):
    data = random_psd_stack(rng, rows * cols).reshape(rows, cols, 3, 3)
    return PolsarRaster(KIND_COHERENCY, data, looks=looks)


class TestStorage:
    def test_t3_float64_roundtrip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(71)
        raster = coherency_raster(rng, 5, 7, looks=9.0)
        write_scene(raster, tmp_path / "scene", dtype="float64")
        back = read_scene(tmp_path / "scene")
        assert back.kind == KIND_COHERENCY
        assert back.looks == 9.0
        assert np.array_equal(back.data, raster.data)
        assert back.mask.all()

    def test_t3_float32_roundtrip_is_stable(self, tmp_path):
        """float32 quantizes once; a second write/read cycle is exact."""
        rng = np.random.default_rng(72)
        raster = coherency_raster(rng, 4, 6)
        write_scene(raster, tmp_path / "a")
        first = read_scene(tmp_path / "a")
        write_scene(first, tmp_path / "b")
        second = read_scene(tmp_path / "b")
        assert np.array_equal(first.data, second.data)
        for name in ("T11", "T12", "T23"):
            a = (tmp_path / "a" / f"{name}.bin").read_bytes()
            b = (tmp_path / "b" / f"{name}.bin").read_bytes()
            assert a == b
        assert np.abs(first.data - raster.data).max() <= 1e-6 * np.abs(raster.data).max()

    def test_s2_roundtrip_and_cross_pol_averaging(self, tmp_path):
        rng = np.random.default_rng(73)
        s = random_sinclair_stack(rng, 12).reshape(3, 4, 2, 2)
        # break reciprocity on the stored channels to exercise the averaging
        s[..., 1, 0] = s[..., 0, 1] + 0.5
        raster = PolsarRaster(KIND_SINCLAIR, s, looks=1.0)
        write_scene(raster, tmp_path / "scene", dtype="float64")
        back = read_scene(tmp_path / "scene")
        averaged = s.copy()
        averaged[..., 0, 1] = averaged[..., 1, 0] = 0.5 * (s[..., 0, 1] + s[..., 1, 0])
        ref = multilook(PolsarRaster(KIND_SINCLAIR, averaged, looks=1.0), 1, 1)
        assert back.kind == KIND_COHERENCY and back.looks == 1.0
        assert back.data.tobytes() == ref.data.tobytes()
        assert back.mask.all()
        # without the averaging, the cross-pol power would differ
        unaveraged = multilook(raster, 1, 1)
        assert not np.array_equal(back.data[..., 2], unaveraged.data[..., 2])

    def test_t3_components_read_as_complex_values_into_planes(self, tmp_path):
        # each complex component lands in its packed planes as the value
        # re + 1j * im, signed zeros included
        values = np.array([0.0, -0.0, 1.5, -2.5])
        re, im = (v.ravel() for v in np.meshgrid(values, values))
        raster = coherency_raster(np.random.default_rng(78), 1, re.size)
        write_scene(raster, tmp_path / "scene", dtype="float64")
        for name in ("T12", "T13", "T23"):
            np.stack([re, im], axis=-1).tofile(tmp_path / "scene" / f"{name}.bin")
        back = read_scene(tmp_path / "scene")
        expected = re + 1j * im
        for plane in (3, 4, 5):
            assert back.data[0, :, plane].tobytes() == expected.real.tobytes()
            assert back.data[0, :, plane + 3].tobytes() == expected.imag.tobytes()
        assert back.mask.all()

    def test_masked_pixels_serialize_as_nan(self, tmp_path):
        rng = np.random.default_rng(74)
        raster = coherency_raster(rng, 4, 4)
        raster.mask[2, 3] = False
        write_scene(raster, tmp_path / "scene", dtype="float64")
        t11 = np.fromfile(tmp_path / "scene" / "T11.bin", dtype="<f8").reshape(4, 4)
        assert np.isnan(t11[2, 3])
        back = read_scene(tmp_path / "scene")
        assert not back.mask[2, 3]
        assert np.all(back.data[2, 3] == 0.0)
        assert back.valid_count() == 15

    def test_nan_in_any_component_masks_pixel(self, tmp_path):
        rng = np.random.default_rng(75)
        raster = coherency_raster(rng, 3, 3)
        write_scene(raster, tmp_path / "scene", dtype="float64")
        path = tmp_path / "scene" / "T23.bin"
        values = np.fromfile(path, dtype="<f8")
        values[2 * (1 * 3 + 1)] = np.nan  # real part of pixel (1, 1)
        values.tofile(path)
        back = read_scene(tmp_path / "scene")
        assert not back.mask[1, 1]
        assert back.valid_count() == 8

    def test_missing_component_file(self, tmp_path):
        rng = np.random.default_rng(76)
        write_scene(coherency_raster(rng, 2, 2), tmp_path / "scene")
        (tmp_path / "scene" / "T22.bin").unlink()
        with pytest.raises(ValueError, match="component T22.*not found"):
            read_scene(tmp_path / "scene")

    def test_truncated_component_file(self, tmp_path):
        rng = np.random.default_rng(77)
        write_scene(coherency_raster(rng, 2, 2), tmp_path / "scene")
        path = tmp_path / "scene" / "T22.bin"
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="component T22: expected 4 values, found 3"):
            read_scene(tmp_path / "scene")

    @pytest.mark.parametrize("stray", [1, 3])
    @pytest.mark.parametrize("kind, name, values", [("T3", "T22", 4), ("S2", "VH", 8)])
    def test_stray_trailing_bytes_fail(self, tmp_path, kind, name, values, stray):
        rng = np.random.default_rng(86)
        if kind == "T3":
            write_scene(coherency_raster(rng, 2, 2), tmp_path / "scene")
        else:
            sinclair_scene(tmp_path / "scene", rng, 2, 2)
        path = tmp_path / "scene" / f"{name}.bin"
        path.write_bytes(path.read_bytes() + bytes(stray))
        message = f"expected {values} values, found {values} and {stray} stray bytes"
        with pytest.raises(ValueError, match=f"component {name}: {message}"):
            read_scene(tmp_path / "scene")

    def test_header_errors_carry_location(self, tmp_path):
        scene = tmp_path / "scene"
        scene.mkdir()
        (scene / "header.txt").write_text("rows = 2\nnot a header line\n")
        with pytest.raises(ValueError, match=r"header\.txt:2: expected 'key = value'"):
            read_scene(scene)
        (scene / "header.txt").write_text("rows = 2\ncols = 2\nkind = T3\n")
        with pytest.raises(ValueError, match="missing header field 'looks'"):
            read_scene(scene)
        (scene / "header.txt").write_text(
            "rows = 2\ncols = 2\nlooks = 1\nkind = T9\n"
        )
        with pytest.raises(ValueError, match="unknown scene kind 'T9'"):
            read_scene(scene)
        (scene / "header.txt").write_text("rows = 12x8\ncols = 2\nlooks = 1\nkind = T3\n")
        with pytest.raises(ValueError, match=r"header\.txt: header field 'rows': '12x8' is not int"):
            read_scene(scene)
        (scene / "header.txt").write_text("rows = 2\ncols = 2\nlooks = many\nkind = T3\n")
        with pytest.raises(ValueError, match=r"header\.txt: header field 'looks': 'many' is not float"):
            read_scene(scene)

    def test_header_inline_comments_are_stripped(self, tmp_path):
        rng = np.random.default_rng(87)
        write_scene(coherency_raster(rng, 2, 3), tmp_path / "scene")
        expected = read_scene(tmp_path / "scene")
        header = tmp_path / "scene" / "header.txt"
        lines = [f"{line}  # note" for line in header.read_text().splitlines()]
        header.write_text("# hand-edited\n\n" + "\n".join(lines) + "\n")
        got = read_scene(tmp_path / "scene")
        assert got.shape == (2, 3) and got.looks == expected.looks
        assert np.array_equal(got.data, expected.data)
        assert np.array_equal(got.mask, expected.mask)

    def test_missing_components_in_header(self, tmp_path):
        scene = tmp_path / "scene"
        scene.mkdir()
        (scene / "header.txt").write_text(
            "rows = 1\ncols = 1\nlooks = 1\nkind = T3\ncomponent.T11 = a.bin\n"
        )
        with pytest.raises(ValueError, match="header missing components: T22"):
            read_scene(scene)

    def test_kennaugh_rasters_are_not_serializable(self):
        k = np.zeros((1, 1, 4, 4))
        with pytest.raises(ValueError, match="unknown raster kind 'kennaugh'"):
            PolsarRaster("kennaugh", k)


def sinclair_scene(path, rng, rows, cols, dtype="float32", mask=None):
    """An S2 scene with broken reciprocity (VH != HV) written to path."""
    s = random_sinclair_stack(rng, rows * cols).reshape(rows, cols, 2, 2)
    s[..., 1, 0] = s[..., 0, 1] + (0.5 - 0.25j)
    write_scene(PolsarRaster(KIND_SINCLAIR, s, mask), path, dtype=dtype)
    return path


class TestStreamedMultilook:
    """``read_scene(path, (rf, af))`` multilooks row tiles as it reads them,
    with the bytes of the in-memory route."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_the_in_memory_route_bytewise(self, tmp_path, monkeypatch, dtype):
        import geopolsar.preprocess as preprocess

        # 2 output rows per tile at (2, 3): 6 tiles, the last one partial
        monkeypatch.setattr(preprocess, "_FILTER_TILE_PIXELS", 100)
        rng = np.random.default_rng(79)
        mask = rng.random((23, 17)) > 0.1
        scene = sinclair_scene(tmp_path / "scene", rng, 23, 17, dtype, mask)
        pixels = rng.choice(23 * 17, size=12, replace=False)
        channels = {}
        for i, name in enumerate(("HH", "HV", "VH", "VV")):
            path = scene / f"{name}.bin"
            values = np.fromfile(path, dtype=np.dtype(dtype).newbyteorder("<"))
            for j, bad in enumerate((np.nan, np.inf, -np.inf)):
                values[2 * pixels[3 * i + j] + j % 2] = bad
            values.tofile(path)
            channel = np.empty((23, 17), dtype=np.complex128)
            channel.real.flat, channel.imag.flat = values[0::2], values[1::2]
            channels[name] = channel
        # the in-memory Sinclair raster of the file values: a pixel that is
        # non-finite in any channel is masked, and HV' = (HV + VH) / 2
        valid = np.all([np.isfinite(c) for c in channels.values()], axis=0)
        assert valid.sum() == mask.sum() - np.count_nonzero(mask.ravel()[pixels])
        s = np.zeros((23, 17, 2, 2), dtype=np.complex128)
        s[..., 0, 0], s[..., 1, 1] = channels["HH"], channels["VV"]
        with np.errstate(invalid="ignore"):
            s[..., 0, 1] = s[..., 1, 0] = 0.5 * (channels["HV"] + channels["VH"])
        s[~valid] = 0.0
        in_memory = PolsarRaster(KIND_SINCLAIR, s, valid, looks=1.0)
        for factors in (None, (1, 1), (2, 3), (5, 2), (23, 17)):
            ref = multilook(in_memory, *(factors or (1, 1)))
            out = read_scene(scene, factors)
            assert out.kind == KIND_COHERENCY and out.looks == ref.looks
            assert out.data.tobytes() == ref.data.tobytes(), factors
            assert out.mask.tobytes() == ref.mask.tobytes()

    def test_read_streams(self, tmp_path):
        scene = sinclair_scene(tmp_path / "scene", np.random.default_rng(80), 512, 512)
        tracemalloc.start()
        try:
            out = read_scene(scene, (2, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full-resolution complex raster alone would be 16 MiB
        assert peak <= out.data.nbytes + out.mask.nbytes + 4 * 2**20

    def test_read_without_factors_streams(self, tmp_path):
        scene = sinclair_scene(tmp_path / "scene", np.random.default_rng(84), 512, 512)
        tracemalloc.start()
        try:
            out = read_scene(scene)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.kind == KIND_COHERENCY and out.shape == (512, 512)
        # the full-resolution complex raster alone would be 16 MiB more
        assert peak <= out.data.nbytes + out.mask.nbytes + 4 * 2**20

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda p: p.write_bytes(p.read_bytes()[:-8]), "component VV: expected 24 values, found 22"),
            (lambda p: p.write_bytes(p.read_bytes() * 2), "component VV: expected 24 values, found 48"),
            (lambda p: p.unlink(), "component VV: file 'VV.bin' not found"),
        ],
    )
    def test_bad_component_files_fail_before_any_tile_is_read(
        self, tmp_path, monkeypatch, damage, message
    ):
        scene = sinclair_scene(tmp_path / "scene", np.random.default_rng(81), 3, 4)
        damage(scene / "VV.bin")
        monkeypatch.setattr(np, "fromfile", self.no_tile_reads)
        with pytest.raises(ValueError, match=message):
            read_scene(scene, (2, 2))

    def test_scene_smaller_than_one_block(self, tmp_path, monkeypatch):
        scene = sinclair_scene(tmp_path / "scene", np.random.default_rng(82), 3, 4)
        monkeypatch.setattr(np, "fromfile", self.no_tile_reads)
        with pytest.raises(ValueError, match="raster 3x4 is smaller than one 2x5 block"):
            read_scene(scene, (2, 5))

    @staticmethod
    def no_tile_reads(*args, **kwargs):
        raise AssertionError("a tile was read")

    def test_coherency_input_with_factors_fails(self, tmp_path):
        raster = coherency_raster(np.random.default_rng(83), 4, 4)
        write_scene(raster, tmp_path / "scene")
        with pytest.raises(ValueError, match="multilook applies to Sinclair scenes only, not coherency"):
            read_scene(tmp_path / "scene", (2, 2))
        with pytest.raises(ValueError, match="multilook applies to Sinclair scenes only, not coherency"):
            run_classify(tmp_path / "scene", tmp_path / "out", multilook=(2, 2))

    def test_pipeline_rejects_sinclair_rasters(self):
        s = random_sinclair_stack(np.random.default_rng(85), 16).reshape(4, 4, 2, 2)
        with pytest.raises(ValueError, match="multilook"):
            classify_raster(PolsarRaster(KIND_SINCLAIR, s), PipelineConfig())


class TestSpecParsing:
    def test_demo_spec(self):
        spec = parse_scene_spec(DEMO_SPEC)
        assert (spec.rows, spec.cols, spec.looks) == (128, 128, 25)
        assert len(spec.regions) == 3
        assert [r.model for r in spec.regions] == [
            "trihedral",
            "dihedral",
            "random_volume",
        ]
        assert spec.regions[1].span == 0.8

    def test_seed_is_required(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("rows = 2\ncols = 2\nlooks = 1\nregion = 0 0 2 2 trihedral 1.0\n")
        with pytest.raises(ValueError, match="explicit seed is required"):
            parse_scene_spec(path)

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("rows = 2\nregion = 0 0 2\n")
        with pytest.raises(ValueError, match=r"bad\.spec:2: region needs"):
            parse_scene_spec(path)
        path.write_text("rows = 2\nwat = 3\n")
        with pytest.raises(ValueError, match=r"bad\.spec:2: unknown key 'wat'"):
            parse_scene_spec(path)
        path.write_text("rows = 2\nregion = 0 0 2 2 cylinder 1.0\n")
        with pytest.raises(ValueError, match=r"bad\.spec:2: unknown region model"):
            parse_scene_spec(path)
        path.write_text("rows = 2\ncols = 2\nlooks = 2.5\nseed = 1\n")
        with pytest.raises(ValueError, match=r"bad\.spec: field 'looks': '2\.5' is not int"):
            parse_scene_spec(path)

    def test_tiling_validation(self, tmp_path):
        path = tmp_path / "bad.spec"
        base = "rows = 4\ncols = 4\nlooks = 1\nseed = 1\n"
        path.write_text(
            base
            + "region = 0 0 4 3 trihedral 1.0\nregion = 0 2 4 4 dihedral 1.0\n"
        )
        with pytest.raises(ValueError, match="regions overlap"):
            parse_scene_spec(path)
        path.write_text(base + "region = 0 0 4 3 trihedral 1.0\n")
        with pytest.raises(ValueError, match="do not cover"):
            parse_scene_spec(path)
        path.write_text(base + "region = 0 0 4 6 trihedral 1.0\n")
        with pytest.raises(ValueError, match="region 0 exceeds"):
            parse_scene_spec(path)

    def test_region_validation(self):
        with pytest.raises(ValueError, match="bad region bounds"):
            Region(2, 0, 1, 4, "trihedral", 1.0)
        with pytest.raises(ValueError, match="span must be positive"):
            Region(0, 0, 1, 1, "trihedral", 0.0)


class TestGeneration:
    def spec(self, seed=5, looks=25, model="random_volume", rows=8, cols=8, span=1.0):
        return SyntheticSceneSpec(
            rows=rows,
            cols=cols,
            looks=looks,
            seed=seed,
            regions=[Region(0, 0, rows, cols, model, span)],
        )

    def test_deterministic_for_a_seed(self):
        a = generate_scene(self.spec(seed=9))
        b = generate_scene(self.spec(seed=9))
        assert np.array_equal(a.data, b.data)
        c = generate_scene(self.spec(seed=10))
        assert not np.array_equal(a.data, c.data)

    def test_regions_use_isolated_substreams(self):
        # altering one region leaves the other region's samples untouched
        def two_region_spec(span1):
            return SyntheticSceneSpec(
                rows=4,
                cols=8,
                looks=4,
                seed=77,
                regions=[
                    Region(0, 0, 4, 4, "trihedral", 1.0),
                    Region(0, 4, 4, 8, "dihedral", span1),
                ],
            )

        a = generate_scene(two_region_spec(1.0))
        b = generate_scene(two_region_spec(2.0))
        assert np.array_equal(a.data[:, :4], b.data[:, :4])
        assert not np.array_equal(a.data[:, 4:], b.data[:, 4:])

    def test_pixels_are_valid_coherency_matrices(self):
        raster = generate_scene(self.spec(looks=3))
        assert raster.kind == KIND_COHERENCY
        assert raster.mask.all()
        data = unpack_coherency_array(raster.data)
        assert np.array_equal(data, np.conj(np.swapaxes(data, -2, -1)))
        eigs = np.linalg.eigvalsh(data.reshape(-1, 3, 3))
        assert eigs.min() >= -1e-12

    def test_looks_metadata_and_span_scaling(self):
        raster = generate_scene(self.spec(looks=50, span=4.0, model="trihedral"))
        assert raster.looks == 50.0
        spans = raster.span()
        assert abs(spans.mean() - 4.0) <= 0.25  # relative sample error ~ 1/sqrt(50*64)

    def test_many_looks_concentrate_on_the_model(self):
        spec = self.spec(looks=10000, model="trihedral", rows=4, cols=4, span=2.0)
        raster = generate_scene(spec)
        expected = 2.0 * MODEL_COHERENCY["trihedral"]
        err = np.abs(unpack_coherency_array(raster.data) - expected).max()
        assert err <= 0.15  # ~6 sigma at 10000 looks
        k = kennaugh_from_coherency_array(unpack_coherency_array(raster.data))
        target = np.diag([1.0, 1.0, 1.0, -1.0])
        assert np.abs(k - target).max() <= 0.15

    def test_volume_region_is_dominated_by_the_volume_target(self):
        spec = self.spec(looks=25, rows=40, cols=50)
        raster = generate_scene(spec)
        k = kennaugh_from_coherency_array(unpack_coherency_array(raster.data))
        f, gamma, w, valid = similarity_arrays(k, raster.mask)
        assert valid.all()
        rate = (np.argmax(w, axis=0) == 2).mean()
        assert rate >= 0.95

    def test_estimation_error_shrinks_with_looks(self):
        """Quadrupling the look count should roughly halve the Kennaugh
        estimation error (inverse square root convergence)."""
        target = kennaugh_from_coherency_array(MODEL_COHERENCY["random_volume"])
        errors = {}
        for looks in (16, 256):
            spec = self.spec(seed=123 + looks, looks=looks, rows=30, cols=30)
            raster = generate_scene(spec)
            k = kennaugh_from_coherency_array(unpack_coherency_array(raster.data))
            errors[looks] = np.linalg.norm(k - target, axis=(-2, -1)).mean()
        ratio = errors[16] / errors[256]
        assert 3.2 <= ratio <= 5.0  # 16x more looks: expect a factor ~4

    def test_model_registry_matches_target_names(self):
        assert set(MODEL_COHERENCY) == {t.name for t in DEFAULT_TARGETS}
        for model in MODEL_COHERENCY.values():
            assert np.trace(model).real == pytest.approx(1.0)


@pytest.mark.parametrize("component, value", [("T11", np.inf), ("T23", -np.inf)])
def test_infinite_component_masks_only_its_pixel(
    demo_scene, tmp_path, component, value
):
    """A non-finite entry is masked at read, so the boxcar filter cannot
    spread it into the neighbours of its pixel."""
    scene = tmp_path / "scene"
    shutil.copytree(demo_scene, scene)
    path = scene / f"{component}.bin"
    values = np.fromfile(path, dtype="<f4")
    per_pixel = values.size // (128 * 128)  # 2 for interleaved complex
    values[per_pixel * (60 * 128 + 70)] = value
    values.tofile(path)
    result = classify_raster(read_scene(scene), PipelineConfig())
    expected = np.ones((128, 128), dtype=bool)
    expected[60, 70] = False
    assert np.array_equal(result.valid, expected)
