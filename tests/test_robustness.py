"""Robustness probes: corrupt or rescaled pixels fed to the classifier.

Each probe runs the whole pipeline on an in-memory copy of the demo scene
(``classify_raster``), or on a single-look S2 scene through the multilooking
reader (``run_classify``). The expected results are those of ROADMAP item 1
(one validity gate at ingest and a scale-free geodesic): a bad pixel is
masked on its own and never spreads into its neighbours, and rescaling the
scene changes nothing.
The probes that still fail are strict xfails, so the suite turns red as soon
as one of them starts to pass and its mark has to go.
"""

import numpy as np
import pytest

import geopolsar as gp
from geopolsar.matrices import pack_coherency_array
from geopolsar.raster import KIND_COHERENCY, KIND_SINCLAIR, mask_non_finite
from geopolsar.render import MASKED_LABEL

from conftest import random_sinclair_stack, same_partition

ITEM_1 = "ROADMAP item 1"

# packed columns p(T) = [T11, T22, T33, Re T12, Re T13, Re T23, Im T12, ...]
T11, RE_T23, IM_T12 = 0, 5, 6
PIXEL = (60, 70)


@pytest.fixture(scope="module")
def demo(demo_scene):
    """The demo raster and its clean classification."""
    raster = gp.read_scene(demo_scene)
    return raster, gp.classify_raster(raster, gp.PipelineConfig())


def classify(raster, data):
    return gp.classify_raster(
        gp.PolsarRaster(KIND_COHERENCY, data, raster.mask, raster.looks), gp.PipelineConfig()
    )


def corrupted(raster, column, value):
    data = raster.data.copy()
    data[PIXEL + (column,)] = value
    return data


def only_pixel_masked(result):
    expected = np.zeros(result.valid.shape, bool)
    expected[PIXEL] = True
    return np.array_equal(~result.valid, expected)


def test_clean_demo_masks_nothing(demo):
    _, result = demo
    assert result.valid.all()
    assert (result.labels != MASKED_LABEL).all()


def test_zero_pixel_in_a_constant_scene_completes():
    data = np.tile(pack_coherency_array(np.diag([2.0, 1.0, 1.0]) / 4.0), (32, 32, 1))
    data[10, 12] = 0.0
    raster = gp.PolsarRaster(KIND_COHERENCY, data)
    result = gp.classify_raster(raster, gp.PipelineConfig())
    assert result.labels.shape == (32, 32)
    assert result.valid.sum() >= 32 * 32 - 1


@pytest.mark.xfail(strict=True, reason=ITEM_1)
def test_non_psd_pixel_is_masked_alone(demo):
    # T23 = 50 makes the pixel indefinite; it aborts with "singular cluster center"
    raster, _ = demo
    assert only_pixel_masked(classify(raster, corrupted(raster, RE_T23, 50.0)))


@pytest.mark.xfail(strict=True, reason=ITEM_1)
def test_negative_power_pixel_is_masked_alone(demo):
    # T11 = -1 spreads through the boxcar filter: 25 pixels are masked, not 1
    raster, _ = demo
    assert only_pixel_masked(classify(raster, corrupted(raster, T11, -1.0)))


def test_non_finite_pixel_is_masked_alone(demo):
    # NaN or +inf in T11 or Im T12 is masked before the boxcar, which would
    # spread it to 25 pixels
    raster, _ = demo
    results = [classify(raster, corrupted(raster, column, value))
               for column in (T11, IM_T12) for value in (np.nan, np.inf)]
    assert [int((~result.valid).sum()) for result in results] == [1] * 4
    assert all(only_pixel_masked(result) for result in results)


def test_overflowing_single_look_pixel_is_masked_alone(tmp_path):
    # HH = 1e200 overflows packed_outer inside the multilook, before any gate
    # on the multilooked tile could run, so the multilook masks the block; an
    # unmasked inf block would spread through the boxcar to 25 output pixels
    s = random_sinclair_stack(np.random.default_rng(6), 64 * 64).reshape(64, 64, 2, 2)
    s[2 * 10, 2 * 15, 0, 0] = 1e200
    gp.write_scene(gp.PolsarRaster(KIND_SINCLAIR, s), tmp_path / "s2", "float64")
    result = gp.run_classify(tmp_path / "s2", tmp_path / "out", multilook=(2, 2))
    expected = np.zeros((32, 32), bool)
    expected[10, 15] = True
    assert np.array_equal(~result.valid, expected)


def test_non_finite_single_look_pixel_is_masked_alone():
    # a NaN HH at a valid pixel of an in-memory Sinclair raster is masked as
    # that pixel alone: its 2 x 2 block is the mean of the other three
    s = random_sinclair_stack(np.random.default_rng(8), 64 * 64).reshape(64, 64, 2, 2)
    mask = np.ones((64, 64), bool)
    mask[2 * 10, 2 * 15] = False
    masked = gp.multilook(gp.PolsarRaster(KIND_SINCLAIR, s, mask), 2, 2)
    s[2 * 10, 2 * 15, 0, 0] = np.nan
    nan = gp.multilook(gp.PolsarRaster(KIND_SINCLAIR, s), 2, 2)
    expected, result = (gp.classify_raster(r, gp.PipelineConfig()) for r in (masked, nan))
    assert expected.valid.all()
    assert np.array_equal(result.valid, expected.valid)
    assert np.array_equal(result.labels, expected.labels)


def test_the_finiteness_gate_copies_only_a_tile_it_masks(demo):
    raster, _ = demo
    tile = raster.slice_rows(56, 64)
    assert mask_non_finite(tile) is tile
    data = corrupted(raster, IM_T12, np.inf)[56:64]
    bad = gp.PolsarRaster(KIND_COHERENCY, data, raster.mask[56:64], raster.looks)
    gated = mask_non_finite(bad)
    assert np.isinf(bad.data[4, 70, IM_T12]) and bad.mask[4, 70]  # the input is untouched
    assert not gated.mask[4, 70] and (gated.data[4, 70] == 0.0).all()
    assert gated.mask.sum() == bad.mask.sum() - 1
    assert np.array_equal(np.delete(gated.data.reshape(-1, 9), 4 * 128 + 70, axis=0),
                          np.delete(bad.data.reshape(-1, 9), 4 * 128 + 70, axis=0))


@pytest.mark.parametrize(
    "rank", [1, pytest.param(2, marks=pytest.mark.xfail(strict=True, reason=ITEM_1)), 3]
)
def test_unregularized_low_rank_scene_completes(rank):
    # rank-2 pixels raise "singular cluster center" without regularization
    rng = np.random.default_rng(5)
    z = rng.standard_normal((32 * 32, rank, 3)) + 1j * rng.standard_normal((32 * 32, rank, 3))
    data = np.einsum("nla,nlb->nab", z, z.conj()).reshape(32, 32, 3, 3) / rank
    config = gp.PipelineConfig(
        preprocess=gp.PreprocessConfig(filter_window=1),
        classifier=gp.ClassifierConfig(center_regularization=0.0),
    )
    result = gp.classify_raster(gp.PolsarRaster(KIND_COHERENCY, data), config)
    assert result.valid.all()


@pytest.mark.xfail(strict=True, reason=ITEM_1)
@pytest.mark.parametrize("scale", [1e200, 1e-300])
def test_rescaled_scene_keeps_its_partition(demo, scale):
    # the geodesic overflows or underflows and every pixel is masked
    raster, clean = demo
    result = classify(raster, raster.data * scale)
    assert result.valid.all()
    assert same_partition(result.labels, clean.labels)
