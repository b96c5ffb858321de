"""Metamorphic tests: transformations of the demo scene that must leave its
classification unchanged.

Each compares the label image, the class table (category, pixels) and the
valid pixels of the transformed run, mapped back, with those of the demo.
The runs use 4,096-pixel row tiles, so the tile grid differs between the
demo and its transpose.
"""

import numpy as np
import pytest

import geopolsar as gp
import geopolsar.preprocess as preprocess
from geopolsar.raster import KIND_COHERENCY

BORDER = 7


@pytest.fixture(scope="module")
def demo(demo_scene):
    """The demo raster and a function that classifies a transformed copy."""
    raster = gp.read_scene(demo_scene)

    def classify(data, mask):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(preprocess, "_FILTER_TILE_PIXELS", 4096)
            return gp.classify_raster(
                gp.PolsarRaster(KIND_COHERENCY, data, mask, raster.looks), gp.PipelineConfig()
            )

    return raster, classify, classify(raster.data, raster.mask)


def assert_same_classification(result, clean, back=lambda image: image):
    assert np.array_equal(back(result.labels), clean.labels)
    assert np.array_equal(back(result.valid), clean.valid)
    table = [(entry.category, entry.pixels) for entry in result.classes]
    assert table == [(entry.category, entry.pixels) for entry in clean.classes]


@pytest.mark.parametrize(
    "move",
    [
        lambda image: image[::-1],
        lambda image: image[:, ::-1],
        lambda image: np.swapaxes(image, 0, 1),
    ],
    ids=["flip-rows", "flip-columns", "transpose"],
)
def test_flipped_or_transposed_scene_maps_back(demo, move):
    # each move is its own inverse
    raster, classify, clean = demo
    result = classify(move(raster.data), move(raster.mask))
    assert_same_classification(result, clean, move)


@pytest.mark.parametrize("exponent", [-40, 40])
def test_power_of_two_scaling_keeps_the_labels(demo, exponent):
    raster, classify, clean = demo
    assert_same_classification(classify(raster.data * 2.0**exponent, raster.mask), clean)


def test_masked_junk_border_leaves_the_inner_labels(demo):
    raster, classify, clean = demo
    rows, cols = raster.shape
    rng = np.random.default_rng(91)
    data = rng.standard_normal((rows + 2 * BORDER, cols + 2 * BORDER, 9)) * 1e30
    data[::3, ::5] = np.nan
    data[1::4, ::7, 0] = -np.inf
    mask = np.zeros(data.shape[:2], bool)
    inner = (slice(BORDER, BORDER + rows), slice(BORDER, BORDER + cols))
    data[inner], mask[inner] = raster.data, raster.mask
    result = classify(data, mask)
    assert not result.valid[~mask].any()
    assert_same_classification(result, clean, lambda image: image[inner])
