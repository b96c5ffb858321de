"""Flat binary scene storage and synthetic scene generation.

A scene is a directory holding ``header.txt`` plus one flat little-endian
binary file per matrix component, row-major. The header carries ``key =
value`` lines: rows, cols, looks, kind, dtype, and one ``component.NAME =
filename`` line per component file.

kind T3 (coherency): T11, T22, T33 as real values; T12, T13, T23 as
interleaved real/imaginary pairs. kind S2 (Sinclair): HH, HV, VH, VV as
interleaved complex channels; ``_LAYOUT`` maps each component to its
matrix entry. Components default to float32; dtype float64 is accepted for
full-precision intermediate dumps. A non-finite value (NaN or +-inf) in any
component marks the pixel invalid; writers serialize masked pixels as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from .matrices import coherency_from_pauli_array
from .raster import KIND_COHERENCY, KIND_SINCLAIR, PolsarRaster

__all__ = [
    "SceneHeader",
    "read_scene",
    "write_scene",
    "Region",
    "SyntheticSceneSpec",
    "parse_scene_spec",
    "generate_scene",
    "MODEL_COHERENCY",
]

_RASTER_KINDS = {"T3": KIND_COHERENCY, "S2": KIND_SINCLAIR}

# Per scene kind, each component in file order with the (row, col) matrix
# entry it holds and whether it is complex. A T3 scene stores the upper
# triangle; read_scene mirrors it into the Hermitian lower one.
_LAYOUT = {
    "T3": {
        "T11": (0, 0, False),
        "T22": (1, 1, False),
        "T33": (2, 2, False),
        "T12": (0, 1, True),
        "T13": (0, 2, True),
        "T23": (1, 2, True),
    },
    "S2": {
        "HH": (0, 0, True),
        "HV": (0, 1, True),
        "VH": (1, 0, True),
        "VV": (1, 1, True),
    },
}
_DTYPES = {"float32": "<f4", "float64": "<f8"}

#: Canonical region models as unit-span coherency matrices, keyed by the
#: same names as the canonical target registry.
MODEL_COHERENCY = {
    "trihedral": np.diag([1.0, 0.0, 0.0]).astype(complex),
    "dihedral": np.diag([0.0, 1.0, 0.0]).astype(complex),
    "random_volume": (np.diag([2.0, 1.0, 1.0]) / 4.0).astype(complex),
}

#: Relative diagonal loading applied before Cholesky sampling so that
#: rank-deficient canonical models stay decomposable.
_SAMPLING_FLOOR = 1e-6


@dataclass
class SceneHeader:
    rows: int
    cols: int
    looks: float
    kind: str
    dtype: str = "float32"
    components: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("scene dimensions must be positive")
        if self.kind not in _LAYOUT:
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if self.dtype not in _DTYPES:
            raise ValueError(f"unknown scene dtype {self.dtype!r}")
        if not self.looks > 0:
            raise ValueError("looks must be positive")
        missing = [c for c in _LAYOUT[self.kind] if c not in self.components]
        if missing:
            raise ValueError(f"header missing components: {', '.join(missing)}")


def _parse_header(path: Path) -> SceneHeader:
    fields: Dict[str, str] = {}
    components: Dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("component."):
            components[key[len("component.") :]] = value
        else:
            fields[key] = value
    try:
        return SceneHeader(
            rows=int(fields["rows"]),
            cols=int(fields["cols"]),
            looks=float(fields["looks"]),
            kind=fields["kind"],
            dtype=fields.get("dtype", "float32"),
            components=components,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing header field {exc.args[0]!r}") from None


def _read_component(
    directory: Path, header: SceneHeader, name: str, complex_valued: bool
) -> np.ndarray:
    filename = header.components[name]
    path = directory / filename
    if not path.exists():
        raise ValueError(f"component {name}: file {filename!r} not found")
    expected = header.rows * header.cols * (2 if complex_valued else 1)
    raw = np.fromfile(path, dtype=_DTYPES[header.dtype])
    if raw.size != expected:
        raise ValueError(
            f"component {name}: expected {expected} values, found {raw.size}"
        )
    raw = raw.astype(np.float64)
    if complex_valued:
        flat = raw[0::2] + 1j * raw[1::2]
    else:
        flat = raw
    return flat.reshape(header.rows, header.cols)


def read_scene(path: Union[str, Path]) -> PolsarRaster:
    """Load a scene directory into a raster.

    Pixels with a non-finite value in any component are masked and their
    payload zeroed. S2 scenes average the two cross-pol channels to restore
    monostatic symmetry before constructing the raster.
    """
    directory = Path(path)
    header = _parse_header(directory / "header.txt")
    kind = _RASTER_KINDS[header.kind]
    side = 3 if kind == KIND_COHERENCY else 2
    data = np.empty((header.rows, header.cols, side, side), dtype=np.complex128)
    invalid = np.zeros((header.rows, header.cols), dtype=bool)
    for name, (row, col, complex_valued) in _LAYOUT[header.kind].items():
        values = _read_component(directory, header, name, complex_valued)
        invalid |= ~np.isfinite(values)
        data[..., row, col] = values
        if kind == KIND_COHERENCY:
            data[..., col, row] = values.conj()
    if kind == KIND_SINCLAIR:
        cross = 0.5 * (data[..., 0, 1] + data[..., 1, 0])
        data[..., 0, 1] = cross
        data[..., 1, 0] = cross
    data[invalid] = 0.0
    return PolsarRaster(kind, data, ~invalid, header.looks)


def _write_component(
    path: Path, values: np.ndarray, mask: np.ndarray, complex_valued: bool, dtype: str
):
    work = values.copy()
    work[~mask] = np.nan * (1 + 1j) if complex_valued else np.nan
    if complex_valued:
        flat = np.empty(work.size * 2, dtype=np.float64)
        flat[0::2] = work.real.ravel()
        flat[1::2] = work.imag.ravel()
    else:
        flat = work.real.ravel()
    flat.astype(_DTYPES[dtype]).tofile(path)


def write_scene(
    raster: PolsarRaster, path: Union[str, Path], dtype: str = "float32"
) -> None:
    """Write a coherency or Sinclair raster as a scene directory."""
    if dtype not in _DTYPES:
        raise ValueError(f"unknown scene dtype {dtype!r}")
    kinds = {raster_kind: kind for kind, raster_kind in _RASTER_KINDS.items()}
    if raster.kind not in kinds:
        raise ValueError(f"cannot serialize raster kind {raster.kind!r}")
    kind = kinds[raster.kind]
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        f"rows = {raster.rows}",
        f"cols = {raster.cols}",
        f"looks = {raster.looks!r}",
        f"kind = {kind}",
        f"dtype = {dtype}",
    ]
    for name, (row, col, complex_valued) in _LAYOUT[kind].items():
        filename = f"{name}.bin"
        values = raster.data[..., row, col]
        _write_component(
            directory / filename, values, raster.mask, complex_valued, dtype
        )
        lines.append(f"component.{name} = {filename}")
    (directory / "header.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------


@dataclass
class Region:
    """Axis-aligned block [row0, row1) x [col0, col1) with one model."""

    row0: int
    col0: int
    row1: int
    col1: int
    model: str
    span: float
    looks: Optional[int] = None

    def __post_init__(self):
        if self.model not in MODEL_COHERENCY:
            raise ValueError(
                f"unknown region model {self.model!r}; "
                f"expected one of {sorted(MODEL_COHERENCY)}"
            )
        if self.row0 < 0 or self.col0 < 0 or self.row1 <= self.row0 or self.col1 <= self.col0:
            raise ValueError(
                f"bad region bounds ({self.row0} {self.col0} {self.row1} {self.col1})"
            )
        if not self.span > 0:
            raise ValueError("region span must be positive")
        if self.looks is not None and self.looks < 1:
            raise ValueError("region looks must be >= 1")


@dataclass
class SyntheticSceneSpec:
    """Seeded multi-region scene description; regions must tile the raster."""

    rows: int
    cols: int
    looks: int
    seed: int
    regions: List[Region]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("scene dimensions must be positive")
        if self.looks < 1:
            raise ValueError("looks must be >= 1")
        if not self.regions:
            raise ValueError("at least one region is required")
        coverage = np.zeros((self.rows, self.cols), dtype=np.int16)
        for idx, region in enumerate(self.regions):
            if region.row1 > self.rows or region.col1 > self.cols:
                raise ValueError(
                    f"region {idx} exceeds the {self.rows}x{self.cols} raster"
                )
            coverage[region.row0 : region.row1, region.col0 : region.col1] += 1
        if (coverage > 1).any():
            raise ValueError("regions overlap")
        if (coverage == 0).any():
            raise ValueError("regions do not cover the raster")


def parse_scene_spec(path: Union[str, Path]) -> SyntheticSceneSpec:
    """Parse a scene spec file.

    Accepted lines: ``rows = N``, ``cols = N``, ``looks = N``, ``seed = N``
    and one ``region = row0 col0 row1 col1 model span [looks]`` per region.
    Blank lines and ``#`` comments are ignored.
    """
    path = Path(path)
    fields: Dict[str, str] = {}
    regions: List[Region] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key != "region":
            if key not in ("rows", "cols", "looks", "seed"):
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            fields[key] = value
            continue
        tokens = value.split()
        if len(tokens) not in (6, 7):
            raise ValueError(
                f"{path}:{lineno}: region needs "
                "'row0 col0 row1 col1 model span [looks]'"
            )
        try:
            region = Region(
                row0=int(tokens[0]),
                col0=int(tokens[1]),
                row1=int(tokens[2]),
                col1=int(tokens[3]),
                model=tokens[4],
                span=float(tokens[5]),
                looks=int(tokens[6]) if len(tokens) == 7 else None,
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        regions.append(region)
    if "seed" not in fields:
        raise ValueError(f"{path}: an explicit seed is required")
    try:
        return SyntheticSceneSpec(
            rows=int(fields["rows"]),
            cols=int(fields["cols"]),
            looks=int(fields["looks"]),
            seed=int(fields["seed"]),
            regions=regions,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None


def generate_scene(spec: SyntheticSceneSpec) -> PolsarRaster:
    """Sample a coherency raster from the region models.

    Every pixel draws L independent circular complex Gaussian Pauli vectors
    with covariance span * model + delta * I (delta = 1e-6 * span) via the
    Cholesky factor, and averages their outer products. Each region uses an
    independent substream spawned from the scene seed and the region index,
    so the output is reproducible regardless of generation order.
    """
    data = np.empty((spec.rows, spec.cols, 3, 3), dtype=np.complex128)
    for idx, region in enumerate(spec.regions):
        # hash-derived per-region substream: independent of generation order
        rng = np.random.default_rng(
            np.random.SeedSequence(spec.seed, spawn_key=(idx,))
        )
        looks = region.looks if region.looks is not None else spec.looks
        sigma = region.span * MODEL_COHERENCY[region.model]
        delta = _SAMPLING_FLOOR * np.trace(sigma).real
        chol = np.linalg.cholesky(sigma + delta * np.eye(3))
        shape = (region.row1 - region.row0, region.col1 - region.col0)
        z = rng.standard_normal(shape + (looks, 3)) + 1j * rng.standard_normal(
            shape + (looks, 3)
        )
        z *= np.sqrt(0.5)
        t = coherency_from_pauli_array(z @ chol.T)
        data[region.row0 : region.row1, region.col0 : region.col1] = t
    return PolsarRaster(KIND_COHERENCY, data, None, float(spec.looks))
