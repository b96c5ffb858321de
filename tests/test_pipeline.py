"""The pipeline's front end: one pass over row tiles, and what it frees."""

import weakref

import numpy as np
import pytest

import geopolsar.pipeline as pipeline
import geopolsar.preprocess as preprocess
from geopolsar.geodesic import similarity_arrays
from geopolsar.pipeline import DUMP_STAGES, PipelineConfig, _dump_hook, _prepare, run_classify
from geopolsar.preprocess import PreprocessConfig, deorient_raster, speckle_filter
from geopolsar.raster import KIND_COHERENCY, PolsarRaster
from geopolsar.scene import write_scene

from conftest import random_psd_stack


def stage_files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("deorient", [True, False])
@pytest.mark.parametrize("window", [1, 3, 5])
def test_front_end_does_not_depend_on_the_tile_grid(tmp_path, monkeypatch, deorient, window):
    rng = np.random.default_rng(83)
    rows, cols = 37, 53
    data = random_psd_stack(rng, rows * cols).reshape(rows, cols, 3, 3)
    data[..., 2, 2] = data[..., 1, 1]  # T22 = T33 takes arctan2's edge cases
    data[::5, :, 1, 2] = data[::5, :, 2, 1] = 0.0
    mask = rng.random((rows, cols)) > 0.15
    mask[6::7, ::3] = False  # the last row of each 7-row tile
    mask[7::7, 1::3] = False  # and the first row of the next
    raster = PolsarRaster(KIND_COHERENCY, data, mask, looks=4)
    pre = PreprocessConfig(deorient=deorient, filter_window=window)
    config = PipelineConfig(preprocess=pre, dump_stages=DUMP_STAGES)

    # the whole-raster composition, each stage one pass
    expected = raster
    if deorient:
        expected = deorient_raster(expected)
        write_scene(expected, tmp_path / "whole" / "stage_deorient", dtype="float64")
    if window > 1:
        expected = speckle_filter(expected, pre)
        write_scene(expected, tmp_path / "whole" / "stage_filter", dtype="float64")
    stack = similarity_arrays(expected.data, expected.mask, config.targets)

    for tile_rows in (1, 7, 37):
        monkeypatch.setattr(preprocess, "_FILTER_TILE_PIXELS", tile_rows * cols)
        out = tmp_path / f"tiles{tile_rows}"
        filtered, *got = _prepare(raster, config, _dump_hook(out, DUMP_STAGES), True)
        assert filtered.data.tobytes() == expected.data.tobytes()
        assert filtered.looks == expected.looks
        assert np.array_equal(filtered.mask, expected.mask)
        for a, b in zip(got, stack):
            assert a.tobytes() == b.tobytes()
        for stage in ("deorient", "filter"):
            dumped = out / f"stage_{stage}"
            if (tmp_path / "whole" / f"stage_{stage}").exists():
                assert stage_files(dumped) == stage_files(tmp_path / "whole" / f"stage_{stage}")
            else:
                assert not dumped.exists()


def test_front_end_takes_a_raster_without_rows():
    raster = PolsarRaster(KIND_COHERENCY, np.zeros((0, 5, 9)), looks=0.3)
    config = PipelineConfig(preprocess=PreprocessConfig(filter_window=3))
    filtered, f, gamma, w, valid = _prepare(raster, config, _dump_hook(None, ()), True)
    assert filtered.looks == speckle_filter(deorient_raster(raster), config.preprocess).looks
    assert filtered.shape == valid.shape == (0, 5) and w.shape == (3, 0, 5)
    assert f is None and gamma is None


def test_run_classify_frees_the_read_raster_before_refinement(demo_scene, tmp_path, monkeypatch):
    read, iterate = pipeline.read_scene, pipeline.iterate_classification
    refs, checked = [], []

    def read_and_watch(*args, **kwargs):
        raster = read(*args, **kwargs)
        refs.append(weakref.ref(raster))
        return raster

    def check_then_iterate(*args, **kwargs):
        checked.append(refs[0]() is None)
        return iterate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "read_scene", read_and_watch)
    monkeypatch.setattr(pipeline, "iterate_classification", check_then_iterate)
    run_classify(demo_scene, tmp_path / "out")
    assert checked == [True]
