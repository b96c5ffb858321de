"""Robustness probes: corrupt or rescaled pixels fed to ``classify_raster``.

Each probe runs the whole pipeline on an in-memory copy of the demo scene.
The expected results are those of ROADMAP item 1 (one validity gate at
ingest and a scale-free geodesic): a bad pixel is masked on its own and
never spreads into its neighbours, and rescaling the scene changes nothing.
The probes that still fail are strict xfails, so the suite turns red as soon
as one of them starts to pass and its mark has to go.
"""

import numpy as np
import pytest

import geopolsar as gp
from geopolsar.matrices import pack_coherency_array
from geopolsar.raster import KIND_COHERENCY
from geopolsar.render import MASKED_LABEL

ITEM_1 = "ROADMAP item 1"

# packed columns p(T) = [T11, T22, T33, Re T12, Re T13, Re T23, Im T12, ...]
T11, RE_T23 = 0, 5
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


def same_partition(a, b):
    """True if the label images a and b group the pixels alike."""
    pairs = np.unique(np.stack([a.ravel(), b.ravel()]), axis=1)
    return pairs.shape[1] == len(np.unique(a)) == len(np.unique(b))


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


@pytest.mark.xfail(strict=True, reason=ITEM_1)
@pytest.mark.parametrize("scale", [1e200, 1e-300])
def test_rescaled_scene_keeps_its_partition(demo, scale):
    # the geodesic overflows or underflows and every pixel is masked
    raster, clean = demo
    result = classify(raster, raster.data * scale)
    assert result.valid.all()
    assert same_partition(result.labels, clean.labels)
