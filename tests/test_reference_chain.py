"""The package classifies as the reference chain does, pixel for pixel.

``conftest.classify_oracle`` chains the independent oracles of every stage.
On the manifest's demo seeds and its multilooked single-look S2 scene, the
package's labels must give exactly the oracle's partition (labels equal up to
renaming) and its mask. A change that moves ``tests/golden.json`` keeps this
test green if the moved labels are still right; a moved pixel here is a
finding, not a rounding tolerance to widen.
"""

import numpy as np
import pytest

import golden
from geopolsar.cli import main
from geopolsar.pipeline import PipelineConfig, run_classify
from geopolsar.raster import KIND_SINCLAIR, PolsarRaster
from geopolsar.render import MASKED_LABEL
from geopolsar.scene import read_scene

from conftest import DEMO_SPEC, classify_oracle, multilook_oracle, same_partition


def demo_seed(tmp_path, seed):
    """The demo scene at seed, as ``golden.build`` generates it, and its raster."""
    scene = tmp_path / f"seed{seed}"
    assert main(["generate", str(DEMO_SPEC), "--out", str(scene), "--seed", str(seed)]) == 0
    return scene, None, read_scene(scene)


def s2_multilooked(tmp_path):
    """The manifest's single-look S2 scene, and its file values multilooked 2 x 2
    by the oracle."""
    scene, n = golden._s2_scene(tmp_path / "s2"), golden.S2_SIZE
    channels = [np.fromfile(scene / f"{name}.bin", "<f4").reshape(n, n, 2)
                for name in ("HH", "HV", "VH", "VV")]
    s = np.stack([c[..., 0] + 1j * c[..., 1] for c in channels], axis=-1).reshape(n, n, 2, 2)
    return scene, (2, 2), multilook_oracle(PolsarRaster(KIND_SINCLAIR, s), 2, 2)


@pytest.mark.parametrize(
    "make",
    [lambda tmp, seed=seed: demo_seed(tmp, seed) for seed in golden.DEMO_SEEDS] + [s2_multilooked],
    ids=[f"seed{seed}" for seed in golden.DEMO_SEEDS] + [f"s2-{golden.S2_SIZE}-multilook-2-2"],
)
def test_package_partition_is_the_oracle_chains(tmp_path, make):
    scene, multilook, raster = make(tmp_path)
    config = PipelineConfig()
    result = run_classify(scene, tmp_path / "out", config, multilook)
    labels, valid = classify_oracle(raster, config)
    assert valid.any() and np.array_equal(result.valid, valid)
    assert np.array_equal(result.labels == MASKED_LABEL, ~valid)
    assert same_partition(result.labels, labels)
