"""The pipeline's front end: one pass over row tiles from a row source, and
what it keeps."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

import geopolsar.pipeline as pipeline
import geopolsar.preprocess as preprocess
from geopolsar.geodesic import DEFAULT_TARGETS, TRIHEDRAL, CanonicalTarget, similarity_arrays
from geopolsar.pipeline import (
    DUMP_STAGES,
    PipelineConfig,
    _dump_hook,
    _prepare,
    classify_raster,
    run_classify,
    run_similarity,
)
from geopolsar.preprocess import PreprocessConfig, deorient_raster, speckle_filter
from geopolsar.raster import KIND_COHERENCY, KIND_SINCLAIR, PolsarRaster, RowSource
from geopolsar.scene import generate_scene, open_scene, parse_scene_spec, read_scene, write_scene

from conftest import DEMO_SPEC, random_psd_stack, random_sinclair_stack


def stage_files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def gather(source, config, dump):
    """The full-size filtered rows and (f, gamma, w, valid) of ``_prepare``."""
    (rows, cols), n_targets = source.shape, len(config.targets)
    data = np.empty((rows, cols, 9))
    scores = [np.empty((n_targets, rows, cols)) for _ in range(3)]
    scores.append(np.empty((rows, cols), dtype=bool))
    for r0, r1, tile, tile_scores in _prepare(source, config, dump):
        data[r0:r1] = tile
        for whole, part in zip(scores, tile_scores):
            whole[..., r0:r1, :] = part
    return data, scores


def tile_edge_raster():
    """A masked 37 x 53 raster with masked pixels on the edges of 7-row tiles."""
    rng = np.random.default_rng(83)
    rows, cols = 37, 53
    data = random_psd_stack(rng, rows * cols).reshape(rows, cols, 3, 3)
    data[..., 2, 2] = data[..., 1, 1]  # T22 = T33 takes arctan2's edge cases
    data[::5, :, 1, 2] = data[::5, :, 2, 1] = 0.0
    mask = rng.random((rows, cols)) > 0.15
    mask[6::7, ::3] = False  # the last row of each 7-row tile
    mask[7::7, 1::3] = False  # and the first row of the next
    return PolsarRaster(KIND_COHERENCY, data, mask, looks=4)


@pytest.mark.parametrize("deorient", [True, False])
@pytest.mark.parametrize("window", [1, 3, 5])
def test_front_end_does_not_depend_on_the_tile_grid(tmp_path, monkeypatch, deorient, window):
    in_memory = tile_edge_raster()
    cols = in_memory.cols
    write_scene(in_memory, tmp_path / "scene", dtype="float64")
    pre = PreprocessConfig(deorient=deorient, filter_window=window)
    config = PipelineConfig(preprocess=pre, dump_stages=DUMP_STAGES)

    # an in-memory source, and a file source whose masked pixels read as zeros
    for k, (raster, source) in enumerate([
        (in_memory, RowSource(in_memory.shape, in_memory.slice_rows)),
        (read_scene(tmp_path / "scene"), open_scene(tmp_path / "scene")),
    ]):
        # the whole-raster composition, each stage one pass
        whole = tmp_path / f"whole{k}"
        expected = raster
        if deorient:
            expected = deorient_raster(expected)
            write_scene(expected, whole / "stage_deorient", dtype="float64")
        if window > 1:
            expected = speckle_filter(expected, pre)
            write_scene(expected, whole / "stage_filter", dtype="float64")
        stack = similarity_arrays(expected.data, expected.mask, config.targets)

        for tile_rows in (1, 7, 37):
            monkeypatch.setattr(preprocess, "_FILTER_TILE_PIXELS", tile_rows * cols)
            out = tmp_path / f"source{k}_tiles{tile_rows}"
            with _dump_hook(out, DUMP_STAGES) as dump:
                filtered, got = gather(source, config, dump)
            assert filtered.tobytes() == expected.data.tobytes()
            for a, b in zip(got, stack):
                assert a.tobytes() == b.tobytes()
            for stage in ("deorient", "filter"):
                dumped = out / f"stage_{stage}"
                if (whole / f"stage_{stage}").exists():
                    assert stage_files(dumped) == stage_files(whole / f"stage_{stage}")
                else:
                    assert not dumped.exists()
            for i, target in enumerate(config.targets):
                for prefix, values in zip(("f", "gamma", "w"), stack):
                    path = out / "stage_similarity" / f"{prefix}_{target.name}.f64"
                    assert path.read_bytes() == values[i].astype("<f8").tobytes()


def test_classify_does_not_depend_on_the_tile_grid(tmp_path, monkeypatch):
    raster = tile_edge_raster()
    config = PipelineConfig(dump_stages=("category", "merge"))
    runs = []
    for tile_rows in (1, 7, 37):
        monkeypatch.setattr(preprocess, "_FILTER_TILE_PIXELS", tile_rows * raster.cols)
        out = tmp_path / f"tiles{tile_rows}"
        result = classify_raster(raster, config, out)
        images = (result.labels, result.categories, result.mixed, result.valid)
        dumps = [stage_files(out / f"stage_{stage}") for stage in config.dump_stages]
        runs.append(([(a.dtype, a.tobytes()) for a in images], dumps))
    assert runs[0] == runs[1] == runs[2]
    assert not result.valid.all() and result.mixed.any()
    assert set(runs[0][1][0]) == {"category.u8", "mixed.u8"}

    # requested stages without a dump directory: nothing is written
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert np.array_equal(classify_raster(raster, config).labels, result.labels)
    assert not any((tmp_path / "cwd").iterdir())


def test_a_masked_border_costs_no_memory(monkeypatch):
    """classify keeps the valid pixels only: with an 8-pixel masked border,
    the traced peak stays within 5% of the unmasked raster's."""
    rng = np.random.default_rng(91)
    data = random_psd_stack(rng, 256 * 256).reshape(256, 256, 3, 3)
    border = np.zeros((256, 256), dtype=bool)
    border[8:-8, 8:-8] = True
    monkeypatch.setattr(preprocess, "_FILTER_TILE_PIXELS", 4096)
    peaks = []
    for mask in (np.ones_like(border), border):
        raster = PolsarRaster(KIND_COHERENCY, data, mask, looks=4)
        tracemalloc.start()
        try:
            classify_raster(raster, PipelineConfig())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def test_classify_holds_at_most_120_bytes_per_pixel(monkeypatch):
    """With 4K-pixel tiles, classifying the demo strips at 256² peaks within
    105 traced bytes per pixel (101.3 measured, in the front end's last tile):
    the 72-byte planes, the one-byte category, mixed and valid arrays, and a
    tile's similarity temporaries. Seeding (86.9) adds one-byte bins and one
    category's span scratch, then its int64 seed labels; refinement (94.0)
    the one-byte caller's and refined labels and group codes, and a scoring
    block's temporaries. Int64 labels in refinement took it to 108, a
    full-size pick buffer to 114, and per-category plane gathers or
    full-size group lists past 140."""
    spec = parse_scene_spec(DEMO_SPEC)
    regions = [
        dataclasses.replace(r, row0=2 * r.row0, col0=2 * r.col0, row1=2 * r.row1, col1=2 * r.col1)
        for r in spec.regions
    ]
    raster = generate_scene(dataclasses.replace(spec, rows=256, cols=256, regions=regions))
    monkeypatch.setattr(preprocess, "_FILTER_TILE_PIXELS", 4096)
    classify_raster(raster.slice_rows(0, 16), PipelineConfig())  # lazy imports are not counted
    tracemalloc.start()
    try:
        classify_raster(raster, PipelineConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 105 * 256 * 256



def test_a_seed_no_merged_cluster_took_is_refused(demo_scene, monkeypatch):
    # the one-byte seed-to-merged table is filled with an id no seed has, so a
    # seed that merging lost reaches refinement as an unknown label
    merge = pipeline.merge_clusters

    def lose_a_seed(clusters, config):
        out = merge(clusters, config)
        lossy = next(i for i, c in enumerate(out) if len(c.source_ids) > 1)
        out[lossy] = dataclasses.replace(out[lossy], source_ids=out[lossy].source_ids[:-1])
        return out

    monkeypatch.setattr(pipeline, "merge_clusters", lose_a_seed)
    with pytest.raises(ValueError, match="initial_labels must name a known cluster"):
        classify_raster(read_scene(demo_scene), PipelineConfig())

def test_more_than_255_targets_are_rejected():
    # categories are one byte, and the category dump writes 0xFF for masked pixels
    targets = tuple(CanonicalTarget(f"t{i}", TRIHEDRAL.kennaugh) for i in range(256))
    PipelineConfig(targets=targets[:255])
    with pytest.raises(ValueError, match="256 targets exceed the 255 category codes"):
        PipelineConfig(targets=targets)


@pytest.mark.parametrize("fields, match", [
    pytest.param({"workers": 0}, "workers must be >= 1", id="workers"),
    # else the run would read the first tile before similarity_arrays raises
    pytest.param({"targets": ()}, "no targets", id="no-targets"),
    # the CLI's choices hide an unknown stage, but the library takes any name
    pytest.param({"dump_stages": ("merge", "render")}, "unknown dump stage 'render'", id="dump-stage"),
])
def test_rejected_inputs(fields, match):
    with pytest.raises(ValueError, match=match):
        PipelineConfig(**fields)


@pytest.mark.parametrize("run", [run_classify, run_similarity])
def test_a_missing_scene_creates_no_output_directory(tmp_path, run):
    # the output directory, and any stage dump's, is created by its first write
    config = PipelineConfig(dump_stages=DUMP_STAGES)
    with pytest.raises(OSError):
        run(tmp_path / "nope", tmp_path / "out", config)
    assert not (tmp_path / "out").exists()


def test_repeated_target_names_are_rejected():
    # each target's name names its output files, so a repeat would append to them twice
    with pytest.raises(ValueError, match="target name 'trihedral' repeats"):
        PipelineConfig(targets=DEFAULT_TARGETS + DEFAULT_TARGETS[:1])
    renamed = CanonicalTarget("trihedral_2", TRIHEDRAL.kennaugh)
    PipelineConfig(targets=DEFAULT_TARGETS + (renamed,))


def test_front_end_takes_a_raster_without_rows(tmp_path):
    raster = PolsarRaster(KIND_COHERENCY, np.zeros((0, 5, 9)), looks=0.3)
    config = PipelineConfig(preprocess=PreprocessConfig(filter_window=3))
    source = RowSource(raster.shape, raster.slice_rows)
    with _dump_hook(tmp_path, ("filter",)) as dump:
        tiles = list(_prepare(source, config, dump))
    assert len(tiles) == 1  # one empty tile
    r0, r1, data, (f, gamma, w, valid) = tiles[0]
    assert (r0, r1) == (0, 0) and data.shape == (0, 5, 9)
    assert valid.shape == (0, 5) and f.shape == gamma.shape == w.shape == (3, 0, 5)
    looks = speckle_filter(deorient_raster(raster), config.preprocess).looks
    assert f"looks = {looks!r}\n" in (tmp_path / "stage_filter" / "header.txt").read_text()


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_a_raster_without_rows_or_columns_has_no_classes(shape):
    raster = PolsarRaster(KIND_COHERENCY, np.zeros(shape + (9,)))
    result = classify_raster(raster, PipelineConfig())
    assert result.labels.shape == shape and result.classes == []


def test_no_front_end_tile_lives_through_refinement(demo_scene, tmp_path, monkeypatch):
    refs, checked = [], []

    def watch(stage):
        def run(*args, **kwargs):
            out = stage(*args, **kwargs)
            refs.append(weakref.ref(out.data.base))  # the array a tile's views keep alive
            return out

        return run

    def watch_scores(*args, **kwargs):
        scores = similarity(*args, **kwargs)
        refs.extend(weakref.ref(a) for a in scores[:3])  # f, gamma and w
        return scores

    def check_then_iterate(*args, **kwargs):
        checked.append([ref() is None for ref in refs])
        return iterate(*args, **kwargs)

    iterate, similarity = pipeline.iterate_classification, pipeline.similarity_arrays
    for name in ("deorient_raster", "speckle_filter"):
        monkeypatch.setattr(pipeline, name, watch(getattr(pipeline, name)))
    monkeypatch.setattr(pipeline, "similarity_arrays", watch_scores)
    monkeypatch.setattr(pipeline, "iterate_classification", check_then_iterate)
    run_classify(demo_scene, tmp_path / "out")
    assert checked == [[True] * 5]  # the demo is one tile


def test_run_similarity_holds_one_tile_generation(tmp_path, monkeypatch):
    """similarity drops each tile's filtered planes and f, gamma and w before
    the next tile is read, multilooked and deoriented: with 16-row output tiles
    of a 2x2 multilook, the traced peak stays within five tiles of 72-byte
    planes (4.3 measured; 6.7 while the previous tile lived through the next)."""
    rng = np.random.default_rng(87)
    s = random_sinclair_stack(rng, 256 * 256).reshape(256, 256, 2, 2)
    write_scene(PolsarRaster(KIND_SINCLAIR, s), tmp_path / "scene")
    del s
    monkeypatch.setattr(preprocess, "_FILTER_TILE_PIXELS", 16 * 128)
    run_similarity(tmp_path / "scene", tmp_path / "warm", multilook=(2, 2))  # lazy imports are not counted
    tracemalloc.start()
    try:
        assert run_similarity(tmp_path / "scene", tmp_path / "out", multilook=(2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 16 * 128 * 72


def test_run_similarity_keeps_no_full_size_raster(tmp_path, monkeypatch):
    """Only the row tiles are live: with 8-row tiles, 64 to the scene, the
    traced peak stays below a quarter of one full-size coherency raster."""
    rng = np.random.default_rng(86)
    s = random_sinclair_stack(rng, 512 * 512).reshape(512, 512, 2, 2)
    write_scene(PolsarRaster(KIND_SINCLAIR, s), tmp_path / "scene")
    del s
    monkeypatch.setattr(preprocess, "_FILTER_TILE_PIXELS", 8 * 512)
    tracemalloc.start()
    try:
        assert run_similarity(tmp_path / "scene", tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 512 * 72 / 4
