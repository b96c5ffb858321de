import shutil
import tracemalloc

import numpy as np
import pytest

from geopolsar.matrices import (
    kennaugh_from_coherency_array,
    pack_coherency_array,
    unpack_coherency_array,
)
from geopolsar.preprocess import multilook
from geopolsar.raster import KIND_COHERENCY, KIND_SINCLAIR, PolsarRaster
from geopolsar.scene import (
    _CHUNK_ROWS,
    MODEL_COHERENCY,
    Region,
    SceneHeader,
    SyntheticSceneSpec,
    FileAppender,
    append_scene,
    generate_scene,
    open_scene,
    parse_scene_spec,
    read_scene,
    write_scene,
)
from geopolsar.geodesic import DEFAULT_TARGETS, similarity_arrays
from geopolsar.pipeline import PipelineConfig, classify_raster, run_classify, run_generate

from conftest import (
    DEMO_SPEC,
    append_scene_oracle,
    per_look_scene_oracle,
    random_psd_stack,
    random_sinclair_stack,
)


def coherency_raster(rng, rows, cols, looks=4.0):
    data = random_psd_stack(rng, rows * cols).reshape(rows, cols, 3, 3)
    return PolsarRaster(KIND_COHERENCY, data, looks=looks)


def test_row_slice_shares_the_raster_buffer():
    raster = coherency_raster(np.random.default_rng(70), 24, 5)
    band = raster.slice_rows(8, 16)
    assert np.shares_memory(band.data, raster.data)
    assert band.data.tobytes() == raster.data[8:16].tobytes()
    # pixel-major rows are copied once into contiguous planes
    pixel_major = PolsarRaster(KIND_COHERENCY, np.ascontiguousarray(raster.data))
    assert not np.shares_memory(pixel_major.data, raster.data)
    for c in range(9):
        assert band.data[..., c].flags.c_contiguous and pixel_major.data[..., c].flags.c_contiguous


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
        # the in-memory route averages the cross-pol channels as the reader does
        assert multilook(raster, 1, 1).data.tobytes() == back.data.tobytes()

    def test_t3_components_read_into_planes_as_written(self, tmp_path):
        # every part of every component lands in its packed plane exactly as
        # the file holds it, signed zeros included
        values = np.array([0.0, -0.0, 1.5, -2.5])
        re, im = (v.ravel() for v in np.meshgrid(values, values))
        raster = coherency_raster(np.random.default_rng(78), 1, re.size)
        write_scene(raster, tmp_path / "scene", dtype="float64")
        for name in ("T11", "T22", "T33"):
            re.tofile(tmp_path / "scene" / f"{name}.bin")
        for name in ("T12", "T13", "T23"):
            np.stack([re, im], axis=-1).tofile(tmp_path / "scene" / f"{name}.bin")
        back = read_scene(tmp_path / "scene")
        for plane in range(9):
            assert back.data[0, :, plane].tobytes() == (im if plane >= 6 else re).tobytes()
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
        # the real part of pixel (1, 1), and non-finite imaginary parts
        for part, value in ((0, np.nan), (1, np.nan), (1, np.inf), (1, -np.inf)):
            scene = tmp_path / f"scene{part}{value}"
            write_scene(raster, scene, dtype="float64")
            values = np.fromfile(scene / "T23.bin", dtype="<f8")
            values[2 * (1 * 3 + 1) + part] = value
            values.tofile(scene / "T23.bin")
            back = read_scene(scene)
            assert not back.mask[1, 1]
            assert np.all(back.data[1, 1] == 0.0)
            assert back.valid_count() == 8

    def test_values_beyond_the_file_dtype_raise(self, tmp_path):
        rng = np.random.default_rng(79)
        raster = coherency_raster(rng, 3, 4)
        raster.data[1, 2, 4] = 5e38  # Re T13, finite in float64 only
        with pytest.raises(ValueError, match="component T13: finite values beyond the float32"):
            write_scene(raster, tmp_path / "f32")
        write_scene(raster, tmp_path / "f64", dtype="float64")
        back = read_scene(tmp_path / "f64")
        assert back.mask.all() and np.array_equal(back.data, raster.data)
        s = random_sinclair_stack(rng, 12).reshape(3, 4, 2, 2)
        s[0, 1, 1, 0] = complex(1.0, -4e38)
        with pytest.raises(ValueError, match="component VH: finite values beyond the float32"):
            write_scene(PolsarRaster(KIND_SINCLAIR, s), tmp_path / "s2")

    def test_a_value_beyond_the_file_dtype_leaves_no_component_file(self, tmp_path):
        raster = coherency_raster(np.random.default_rng(80), 2, 2)
        raster.data[0, 1, 4] = 5e38  # Re T13, the fifth component in file order
        with pytest.raises(ValueError, match="component T13"):
            write_scene(raster, tmp_path / "scene")
        assert not list((tmp_path / "scene").glob("*.bin"))

    def test_generating_beyond_float32_fails(self, tmp_path):
        spec = tmp_path / "big.spec"
        spec.write_text("rows = 8\ncols = 8\nlooks = 4\nseed = 1\nregion = 0 0 8 8 trihedral 3e38\n")
        with pytest.raises(ValueError, match="component T11: finite values beyond the float32"):
            run_generate(spec, tmp_path / "scene")

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


UNIT_REGION = Region(0, 0, 1, 1, "trihedral", 1.0)


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: SceneHeader(0, 1, 1.0, "T3"), "scene dimensions must be positive",
                 id="header-rows"),
    pytest.param(lambda: SceneHeader(1, 1, 1.0, "T3", dtype="float16"),
                 "unknown scene dtype 'float16'", id="header-dtype"),
    pytest.param(lambda: SceneHeader(1, 1, 0.0, "T3"), "looks must be positive", id="header-looks"),
    pytest.param(lambda: append_scene(None, coherency_raster(np.random.default_rng(0), 1, 1), 1,
                                      dtype="int8"), "unknown scene dtype 'int8'", id="append-dtype"),
    pytest.param(lambda: Region(0, 0, 1, 1, "trihedral", 1.0, looks=0),
                 "region looks must be >= 1", id="region-looks"),
    pytest.param(lambda: SyntheticSceneSpec(1, 0, 1, 0, [UNIT_REGION]),
                 "scene dimensions must be positive", id="spec-cols"),
    pytest.param(lambda: SyntheticSceneSpec(1, 1, 0, 0, [UNIT_REGION]), "looks must be >= 1",
                 id="spec-looks"),
])
def test_rejected_inputs(build, match):
    with pytest.raises(ValueError, match=match):
        build()


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

    @pytest.mark.parametrize("factors", [None, (1, 1), (2, 3), (5, 2), (23, 17)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_reads_the_multilook_of_the_file_values(self, tmp_path, dtype, factors):
        # the reader and the in-memory route share one rule for the raw values:
        # HV' = (HV + VH) / 2, and a pixel non-finite in any channel is masked
        rng = np.random.default_rng(86)
        scene = sinclair_scene(tmp_path / "scene", rng, 23, 17, dtype)
        pixels = rng.choice(23 * 17, size=16, replace=False)
        values = np.empty((23, 17, 2, 2), dtype=np.complex128)
        for i, name in enumerate(("HH", "HV", "VH", "VV")):  # entries (0, 0) to (1, 1)
            raw = np.fromfile(scene / f"{name}.bin", dtype=np.dtype(dtype).newbyteorder("<"))
            for j, (bad, part) in enumerate(((np.nan, 0), (np.inf, 1), (-np.inf, 0), (np.nan, 1))):
                raw[2 * pixels[4 * i + j] + part] = bad
            raw.tofile(scene / f"{name}.bin")
            values[..., i // 2, i % 2] = raw.astype(np.float64).view(np.complex128).reshape(23, 17)
        ref = multilook(PolsarRaster(KIND_SINCLAIR, values), *(factors or (1, 1)))
        out = read_scene(scene, factors)
        assert out.looks == ref.looks
        assert out.data.tobytes() == ref.data.tobytes()
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


class TestRowSource:
    """``open_scene(p, m).rows(lo, hi)`` holds the bytes of rows lo:hi of
    ``read_scene(p, m)``, for every lo < hi."""

    @staticmethod
    def assert_every_band_matches(scene, factors=None):
        whole, source = read_scene(scene, factors), open_scene(scene, factors)
        assert source.shape == whole.shape
        for lo in range(whole.rows):
            for hi in range(lo + 1, whole.rows + 1):
                band = source.rows(lo, hi)
                assert band.data.tobytes() == whole.data[lo:hi].tobytes(), (lo, hi)
                assert band.mask.tobytes() == whole.mask[lo:hi].tobytes(), (lo, hi)
                assert band.looks == whole.looks

    @staticmethod
    def spoil(path, dtype, positions):
        """Write NaN, +inf and -inf in turn at the given value positions."""
        values = np.fromfile(path, dtype=np.dtype(dtype).newbyteorder("<"))
        for k, position in enumerate(positions):
            values[position] = (np.nan, np.inf, -np.inf)[k % 3]
        values.tofile(path)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_t3_bands(self, tmp_path, dtype):
        rows, cols = 9, 5
        write_scene(coherency_raster(np.random.default_rng(88), rows, cols), tmp_path / "s", dtype)
        # first and last pixel of rows 0, 4 and 8, through a real and a complex file
        pixels = [r * cols + c for r in (0, 4, rows - 1) for c in (0, cols - 1)]
        self.spoil(tmp_path / "s" / "T22.bin", dtype, pixels[::2])
        self.spoil(tmp_path / "s" / "T13.bin", dtype, [2 * p + 1 for p in pixels[1::2]])
        assert read_scene(tmp_path / "s").valid_count() == rows * cols - len(pixels)
        self.assert_every_band_matches(tmp_path / "s")

    @pytest.mark.parametrize("factors", [None, (2, 3), (5, 2)])
    def test_s2_bands(self, tmp_path, monkeypatch, factors):
        import geopolsar.preprocess as preprocess

        monkeypatch.setattr(preprocess, "_FILTER_TILE_PIXELS", 100)  # several reads a band
        rows, cols = 23, 17
        scene = sinclair_scene(tmp_path / "s", np.random.default_rng(89), rows, cols)
        # first and last pixel of rows on the edges of 2- and 5-row blocks
        pixels = [r * cols + c for r in (0, 1, 9, 10, 19, 20, rows - 1) for c in (0, cols - 1)]
        self.spoil(scene / "HV.bin", "float32", [2 * p for p in pixels[::2]])
        self.spoil(scene / "VV.bin", "float32", [2 * p + 1 for p in pixels[1::2]])
        self.assert_every_band_matches(scene, factors)


class TestAppendScene:
    def test_appended_tiles_write_the_whole_scene(self, tmp_path):
        raster = coherency_raster(np.random.default_rng(90), 7, 4, looks=3.0)
        raster.mask[2, 1] = raster.mask[6, 3] = False
        write_scene(raster, tmp_path / "whole")
        with FileAppender(tmp_path / "tiles") as files:
            for lo, hi in ((0, 3), (3, 3), (3, 6), (6, 7)):
                append_scene(files, raster.slice_rows(lo, hi), raster.rows)
        whole, tiles = (sorted((tmp_path / d).iterdir()) for d in ("whole", "tiles"))
        assert [p.name for p in whole] == [p.name for p in tiles]
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(whole, tiles))

    def test_a_failed_cast_appends_nothing_of_its_tile(self, tmp_path):
        raster = coherency_raster(np.random.default_rng(91), 4, 3)
        raster.data[3, 0, 4] = 5e38  # Re T13, beyond float32
        with FileAppender(tmp_path / "scene") as files:
            append_scene(files, raster.slice_rows(0, 2), raster.rows)
            with pytest.raises(ValueError, match="component T13"):
                append_scene(files, raster.slice_rows(2, 4), raster.rows)
        for name in ("T11", "T22", "T33"):
            assert (tmp_path / "scene" / f"{name}.bin").stat().st_size == 2 * 3 * 4
        with pytest.raises(ValueError, match="component T11: expected 12 values, found 6"):
            read_scene(tmp_path / "scene")


def awkward_raster(kind, rows=40, cols=5):
    """A raster whose unmasked parts hold NaN, +-inf, -0.0, values that round
    to the float32 extremes or underflow, and whose masked pixels hold values
    beyond float32."""
    rng = np.random.default_rng(93)
    if kind == KIND_COHERENCY:
        data = pack_coherency_array(random_psd_stack(rng, rows * cols)).reshape(rows, cols, 9)
        parts = data.reshape(-1)  # any packed part of any pixel
    else:
        data = random_sinclair_stack(rng, rows * cols).reshape(rows, cols, 2, 2)
        parts = data.view(np.float64).reshape(-1)  # real and imaginary parts
    top = float(np.finfo(np.float32).max)
    specials = [np.nan, np.inf, -np.inf, -0.0, top * (1 + 2.0**-26), -top, 1e-42, 1e-320]
    spots = rng.choice(parts.size, size=(len(specials), 6), replace=False)
    for value, at in zip(specials, spots):
        parts[at] = value
    mask = rng.random((rows, cols)) > 0.1
    beyond = np.flatnonzero(~mask)
    if kind == KIND_COHERENCY:
        data.reshape(-1, 9)[beyond, 4] = 5e38
    else:
        data.reshape(-1, 4)[beyond, 2] = complex(-0.0, 1e300)
    return PolsarRaster(kind, data, mask, looks=3.0)


class TestWriterOracle:
    """The writer casts each component once; its files are bitwise those of the
    former writer, which staged every component as a float64 stack."""

    @pytest.mark.parametrize("kind", [KIND_COHERENCY, KIND_SINCLAIR])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("tile", [1, 7, 37])
    @pytest.mark.parametrize("band", [None, 12])  # 12 pixels: the writer casts 2-row bands
    def test_tiles_match_the_staged_writer_bitwise(
        self, tmp_path, monkeypatch, kind, dtype, tile, band
    ):
        if band:
            monkeypatch.setattr("geopolsar.scene._CAST_PIXELS", band)
        raster = awkward_raster(kind)
        for name, append in (("new", append_scene), ("oracle", append_scene_oracle)):
            with FileAppender(tmp_path / name) as files:
                for lo in range(0, raster.rows, tile):
                    append(files, raster.slice_rows(lo, lo + tile), raster.rows, dtype)
        new, oracle = (sorted((tmp_path / d).iterdir()) for d in ("new", "oracle"))
        assert [p.name for p in new] == [p.name for p in oracle]
        for a, b in zip(new, oracle):
            assert a.read_bytes() == b.read_bytes(), a.name

    @pytest.mark.parametrize("kind", [KIND_COHERENCY, KIND_SINCLAIR])
    def test_an_empty_tile_writes_empty_components(self, tmp_path, kind):
        empty = awkward_raster(kind).slice_rows(0, 0)
        for name, append in (("new", append_scene), ("oracle", append_scene_oracle)):
            with FileAppender(tmp_path / name) as files:
                append(files, empty, 40)
        new, oracle = (sorted((tmp_path / d).iterdir()) for d in ("new", "oracle"))
        assert [(p.name, p.read_bytes()) for p in new] == [(p.name, p.read_bytes()) for p in oracle]
        assert len(new) == {KIND_COHERENCY: 7, KIND_SINCLAIR: 5}[kind]  # header and components

    @pytest.mark.parametrize("kind, name", [(KIND_COHERENCY, "T12"), (KIND_SINCLAIR, "HV")])
    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    def test_an_infinite_part_beside_one_beyond_float32_raises(
        self, tmp_path, monkeypatch, kind, name, inf
    ):
        monkeypatch.setattr("geopolsar.scene._CAST_PIXELS", 3)  # one-row bands; the second raises
        raster = awkward_raster(kind, rows=4, cols=3)
        raster.mask[1, 2] = True
        if kind == KIND_COHERENCY:
            raster.data[1, 2, [3, 6]] = inf, 1e39  # Re and Im T12
        else:
            raster.data[1, 2, 0, 1] = complex(1e39, inf)
        for write, scene in ((append_scene, "new"), (append_scene_oracle, "oracle")):
            with FileAppender(tmp_path / scene) as files:
                with pytest.raises(ValueError, match=f"component {name}: finite values beyond"):
                    write(files, raster, raster.rows)
            assert not (tmp_path / scene).exists()


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

    @pytest.mark.parametrize("span", ["inf", "nan", "-inf"])
    def test_span_must_be_finite(self, tmp_path, span):
        path = tmp_path / "bad.spec"
        path.write_text(f"rows = 2\ncols = 2\nlooks = 1\nseed = 1\nregion = 0 0 2 2 trihedral {span}\n")
        with pytest.raises(ValueError, match=r"bad\.spec:5: region span must be positive and finite"):
            parse_scene_spec(path)


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


#: A unit-trace model with every off-diagonal entry nonzero, so the packed
#: congruence mixes all nine planes.
TILTED = np.array(
    [
        [0.5, 0.1 + 0.15j, -0.05j],
        [0.1 - 0.15j, 0.3, 0.08 + 0.02j],
        [0.05j, 0.08 - 0.02j, 0.2],
    ]
)


def moment_statistics(raster, sigma):
    """Per-pixel statistics (pixels, 15) and their expectations under the
    complex Wishart law T ~ CW(L, sigma) / L, whose covariances are
    Cov(T_ij, T_kl) = sigma_il sigma_kj / L: the nine packed entries (mean
    p(sigma)), (T_ii - sigma_ii)^2 (mean sigma_ii^2 / L) and
    |T_ij - sigma_ij|^2 for i < j (mean sigma_ii sigma_jj / L)."""
    p = raster.data.reshape(-1, 9)
    mean = pack_coherency_array(sigma)
    dev = (p - mean) ** 2
    diagonal = mean[:3]
    stats = np.concatenate([p, dev[:, :3], dev[:, 3:6] + dev[:, 6:]], axis=1)
    cross = [diagonal[i] * diagonal[j] for i, j in ((0, 1), (0, 2), (1, 2))]
    expected = np.concatenate([mean, diagonal**2, cross]) / np.r_[np.ones(9), np.full(6, raster.looks)]
    return stats, expected


def standard_error(stats):
    return stats.std(axis=0, ddof=1) / np.sqrt(len(stats))


class TestBartlettSampler:
    """The direct Wishart sampler against the law it samples and against the
    former per-look draw. Sampling bounds are six standard errors, estimated
    from the samples themselves."""

    @pytest.fixture(autouse=True)
    def tilted_model(self, monkeypatch):
        monkeypatch.setitem(MODEL_COHERENCY, "tilted", TILTED)

    # the covariance of span 2 tilted regions, sampling floor included
    sigma = 2.0 * TILTED + 2e-6 * np.eye(3)

    def spec(self, looks, model="tilted", seed=61, size=128):
        return SyntheticSceneSpec(size, size, looks, seed, [Region(0, 0, size, size, model, 2.0)])

    @pytest.mark.parametrize("looks", [1, 2, 3, 25])
    def test_moments_follow_the_wishart_law(self, looks):
        stats, expected = moment_statistics(generate_scene(self.spec(looks)), self.sigma)
        assert (np.abs(stats.mean(axis=0) - expected) / standard_error(stats)).max() <= 6.0

    @pytest.mark.parametrize("looks", [1, 2, 3, 25])
    def test_moments_match_the_per_look_oracle(self, looks):
        stats, _ = moment_statistics(generate_scene(self.spec(looks)), self.sigma)
        oracle, _ = moment_statistics(per_look_scene_oracle(self.spec(looks, seed=62)), self.sigma)
        gap = np.abs(stats.mean(axis=0) - oracle.mean(axis=0))
        assert (gap / np.hypot(standard_error(stats), standard_error(oracle))).max() <= 6.0

    @pytest.mark.parametrize("model", ["tilted", "trihedral"])
    @pytest.mark.parametrize("looks", [1, 2])
    def test_pixels_below_three_looks_are_psd_with_rank_at_most_looks(self, looks, model):
        raster = generate_scene(self.spec(looks, model=model, size=64))
        eigs = np.linalg.eigvalsh(unpack_coherency_array(raster.data).reshape(-1, 3, 3))
        trace = raster.span().reshape(-1, 1)
        assert (eigs >= -1e-12 * trace).all()
        assert (np.abs(eigs[:, : 3 - looks]) <= 1e-12 * trace).all()

    def test_a_chunk_keeps_its_bytes_when_the_region_grows_taller(self):
        rows = _CHUNK_ROWS

        def spec(height):
            return SyntheticSceneSpec(
                height + 3, 10, 4, 31,
                [Region(0, 0, 3, 10, "dihedral", 1.0), Region(3, 0, height + 3, 10, "tilted", 1.0)],
            )

        short, tall = generate_scene(spec(rows + 5)), generate_scene(spec(3 * rows))
        # the region's first chunk is full in both; its second is not in the short one
        assert short.data[: rows + 3].tobytes() == tall.data[: rows + 3].tobytes()


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
