"""Synthesize a single-look Sinclair (S2) scene in the demo's strip layout.

Run as a script: ``python3 perfbench/synth_s2.py --size N --align M --seed S
--out DIR``. Each strip draws one circular complex Gaussian Pauli vector per
pixel with covariance span * MODEL_COHERENCY[model] + delta * I (delta =
1e-6 * span, as in ``generate_scene``), converts it to HH, HV = VH, VV and
writes the scene with ``write_scene``. Each strip has its own substream of
the seed, so the bytes depend only on the arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import scaled_regions  # noqa: E402

# keeps the substreams apart from those generate_scene draws for the same seed
_STREAM_TAG = 2


def synthesize(size: int, align: int, seed: int):
    from geopolsar.raster import KIND_SINCLAIR, PolsarRaster
    from geopolsar.scene import MODEL_COHERENCY

    data = np.empty((size, size, 2, 2), dtype=np.complex128)
    for idx, (r0, c0, r1, c1, model, span) in enumerate(scaled_regions(size, align)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAM_TAG, idx)))
        sigma = span * MODEL_COHERENCY[model]
        chol = np.linalg.cholesky(sigma + 1e-6 * np.trace(sigma).real * np.eye(3))
        shape = (r1 - r0, c1 - c0, 3)
        z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)
        k = z @ chol.T
        # inverse of the Pauli map k = [HH + VV, HH - VV, 2 HV] / sqrt(2)
        block = data[r0:r1, c0:c1]
        block[..., 0, 0] = (k[..., 0] + k[..., 1]) * np.sqrt(0.5)
        block[..., 1, 1] = (k[..., 0] - k[..., 1]) * np.sqrt(0.5)
        block[..., 0, 1] = block[..., 1, 0] = k[..., 2] * np.sqrt(0.5)
    return PolsarRaster(KIND_SINCLAIR, data, None, 1.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--align", type=int, default=1)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    from geopolsar.scene import write_scene

    write_scene(synthesize(args.size, args.align, args.seed), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
