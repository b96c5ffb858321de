"""Metamorphic tests: transformations of a scene that must leave its
classification unchanged.

Each compares the label image, the class table (category, pixels) and the
valid pixels of the transformed run, mapped back, with those of the scene.
The scenes are the demo and its three strips at 256x256 (seed 7). The runs
use 4,096-pixel row tiles, so the tile grid differs between a scene and its
transpose.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import geopolsar as gp
import geopolsar.preprocess as preprocess
from geopolsar.geodesic import DEFAULT_TARGETS, CanonicalTarget
from geopolsar.matrices import SinclairMatrix, kennaugh_from_sinclair
from geopolsar.raster import KIND_COHERENCY
from geopolsar.scene import Region, generate_scene, parse_scene_spec, write_scene

from conftest import DEMO_SPEC

BORDER = 7


def strips_256(path):
    """The demo's strips with every region edge doubled, at seed 7, written to
    path as a scene is."""
    spec = parse_scene_spec(DEMO_SPEC)
    regions = [
        Region(2 * r.row0, 2 * r.col0, 2 * r.row1, 2 * r.col1, r.model, r.span, r.looks)
        for r in spec.regions
    ]
    spec = dataclasses.replace(spec, rows=256, cols=256, seed=7, regions=regions)
    write_scene(generate_scene(spec), path)
    return path


@pytest.fixture(scope="module", params=["demo", "strips256"])
def scene(request, tmp_path_factory):
    """A scene's raster and a function that classifies a transformed copy."""
    if request.param == "demo":
        path = request.getfixturevalue("demo_scene")
    else:
        path = strips_256(tmp_path_factory.mktemp("strips") / "scene")
    raster = gp.read_scene(path)

    def classify(data, mask, **config):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(preprocess, "_FILTER_TILE_PIXELS", 4096)
            return gp.classify_raster(
                gp.PolsarRaster(KIND_COHERENCY, data, mask, raster.looks),
                gp.PipelineConfig(**config),
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
def test_flipped_or_transposed_scene_maps_back(scene, move):
    # each move is its own inverse
    raster, classify, clean = scene
    result = classify(move(raster.data), move(raster.mask))
    assert_same_classification(result, clean, move)


@pytest.mark.parametrize("exponent", [-40, 40])
def test_power_of_two_scaling_keeps_the_labels(scene, exponent):
    raster, classify, clean = scene
    assert_same_classification(classify(raster.data * 2.0**exponent, raster.mask), clean)


def test_masked_junk_border_leaves_the_inner_labels(scene):
    raster, classify, clean = scene
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


def test_target_order_keeps_the_partition(scene):
    # ties between targets go to the first, so only exact ties could differ
    raster, classify, clean = scene
    for order in itertools.permutations(range(len(DEFAULT_TARGETS))):
        targets = tuple(DEFAULT_TARGETS[i] for i in order)
        result = classify(raster.data, raster.mask, targets=targets)
        assert np.array_equal(result.valid, clean.valid)
        assert np.array_equal(result.mixed, clean.mixed)
        valid = clean.valid
        assert np.array_equal(np.asarray(order)[result.categories[valid]], clean.categories[valid])
        # the same partition: each class of one run is one class of the other
        pairs = np.unique(np.stack([result.labels[valid], clean.labels[valid]]), axis=1)
        assert pairs.shape[1] == len(np.unique(clean.labels[valid])) == len(result.classes)


def test_a_fourth_target_only_adds_mixed_pixels(scene):
    # gamma is normalized over the whole registry, so a target that no pixel
    # prefers still lowers each pixel's largest share of the sum
    raster, classify, clean = scene
    dipole = CanonicalTarget("dipole", kennaugh_from_sinclair(SinclairMatrix(1, 0, 0)))
    result = classify(raster.data, raster.mask, targets=DEFAULT_TARGETS + (dipole,))
    assert np.array_equal(result.valid, clean.valid)
    assert np.array_equal(result.categories, clean.categories)
    assert not (clean.mixed & ~result.mixed).any()
    assert np.count_nonzero(result.mixed) > np.count_nonzero(clean.mixed)
