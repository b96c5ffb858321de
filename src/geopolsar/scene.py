"""Flat binary scene storage and synthetic scene generation.

A scene is a directory holding ``header.txt`` plus one flat little-endian
binary file per matrix component, row-major. The header carries ``key =
value`` lines: rows, cols, looks, kind, dtype, and one ``component.NAME =
filename`` line per component file; ``#`` starts a comment, so no
filename may contain one.

kind T3 (coherency): T11, T22, T33 as real values; T12, T13, T23 as
interleaved real/imaginary pairs. They are read into, and written from, the
packed planes of a coherency raster. kind S2 (Sinclair): HH, HV, VH, VV as
interleaved complex channels, written from a Sinclair raster and multilooked
into a coherency raster as they are read. ``_LAYOUT`` maps each component to
its planes or matrix entry. Components default to float32; dtype float64 is
accepted for full-precision intermediate dumps. A non-finite value (NaN or
+-inf) in any component marks the pixel invalid; writers serialize masked
pixels as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .matrices import coherency_from_pauli_array, pack_coherency_array, span_array
from .preprocess import multilook_rows
from .raster import KIND_COHERENCY, PolsarRaster

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

# Per scene kind, each component in file order. A T3 component names the
# packed planes (matrices.pack_coherency_array) of its real part and, if it is
# complex, of its imaginary part. An S2 component is complex and names its
# matrix entry.
_LAYOUT = {
    "T3": {"T11": (0,), "T22": (1,), "T33": (2,), "T12": (3, 6), "T13": (4, 7), "T23": (5, 8)},
    "S2": {"HH": (0, 0), "HV": (0, 1), "VH": (1, 0), "VV": (1, 1)},
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


def _key_values(path: Path):
    """(line number, key, value) of each ``key = value`` line of a header or
    spec file. Blank lines and ``#`` comments, whole-line or inline, are skipped."""
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


def _parse_header(path: Path) -> SceneHeader:
    fields: Dict[str, str] = {}
    components: Dict[str, str] = {}
    for _, key, value in _key_values(path):
        if key.startswith("component."):
            components[key[len("component.") :]] = value
        else:
            fields[key] = value
    typed = (("rows", int), ("cols", int), ("looks", float), ("kind", str))
    return SceneHeader(
        **{key: _field(path, fields, key, read, "header field") for key, read in typed},
        dtype=fields.get("dtype", "float32"),
        components=components,
    )


def _field(path: Path, fields: Dict[str, str], key: str, read, noun: str = "field"):
    """read(fields[key]); a missing or malformed value raises a ValueError
    that names the file and the field."""
    if key not in fields:
        raise ValueError(f"{path}: missing {noun} {key!r}")
    try:
        return read(fields[key])
    except ValueError:
        raise ValueError(f"{path}: {noun} {key!r}: {fields[key]!r} is not {read.__name__}") from None


def _component_file(directory: Path, header: SceneHeader, name: str, parts: int) -> Path:
    """Path of a real (1) or complex (2) component file of the right size."""
    filename = header.components[name]
    path = directory / filename
    if not path.exists():
        raise ValueError(f"component {name}: file {filename!r} not found")
    found, stray = divmod(path.stat().st_size, np.dtype(_DTYPES[header.dtype]).itemsize)
    expected = header.rows * header.cols * parts
    if (found, stray) != (expected, 0):
        extra = f" and {stray} stray bytes" if stray else ""
        raise ValueError(f"component {name}: expected {expected} values, found {found}{extra}")
    return path


def read_scene(
    path: Union[str, Path], multilook: Optional[Tuple[int, int]] = None
) -> PolsarRaster:
    """Load a scene directory into the packed planes of a coherency raster.

    Pixels with a non-finite value in any component are masked and their
    payload zeroed. An S2 scene is multilooked as it is read, by ``multilook
    = (rf, af)`` or else (1, 1) (a T3 scene with factors raises), and its
    cross-pol channels are averaged, HV' = (HV + VH) / 2. Once every
    component file is checked, row tiles go from the files to
    ``preprocess.multilook_rows``, which sums the packed Pauli products
    (Re T_xy = xr yr + xi yi, Im T_xy = xi yr - xr yi) over each block's rows,
    then its columns, and divides by the valid count: the bytes of
    ``preprocess.multilook`` on the Sinclair raster of the file values, which
    never exists.
    """
    directory = Path(path)
    header = _parse_header(directory / "header.txt")
    shape = (header.rows, header.cols)
    if header.kind == "T3" and multilook is not None:
        raise ValueError("multilook applies to Sinclair scenes only, not coherency")
    if header.kind == "T3":
        planes = np.empty((9,) + shape)
        for name, index in _LAYOUT["T3"].items():
            file = _component_file(directory, header, name, len(index))
            values = np.fromfile(file, _DTYPES[header.dtype]).reshape(shape + (len(index),))
            planes[list(index)] = np.moveaxis(values, -1, 0)
        # the signed zeros of the complex values re + 1j * im; the real planes
        # are non-finite wherever either part is
        with np.errstate(invalid="ignore"):
            planes[3:6] += planes[6:] * 0.0
        planes[6:] += 0.0
        invalid = ~np.isfinite(planes[:6]).all(axis=0)
        planes[:, invalid] = 0.0
        return PolsarRaster(KIND_COHERENCY, np.moveaxis(planes, 0, -1), ~invalid, header.looks)
    files = [_component_file(directory, header, name, 2) for name in _LAYOUT["S2"]]
    # the interleaved real and imaginary parts read as complex values
    dtype = np.result_type(_DTYPES[header.dtype], np.complex64).newbyteorder("<")

    def read_rows(r0, r1, c1):
        """HH, HV' and VV of rows r0:r1, columns :c1, and the pixels that are
        finite in every component."""
        count, offset = (r1 - r0) * header.cols, r0 * header.cols * dtype.itemsize
        hh, hv, vh, vv = (
            np.fromfile(file, dtype, count=count, offset=offset).reshape(r1 - r0, -1)[:, :c1]
            for file in files
        )
        valid = np.isfinite(hh) & np.isfinite(hv) & np.isfinite(vh) & np.isfinite(vv)
        with np.errstate(invalid="ignore", over="ignore"):
            return (hh, 0.5 * np.add(hv, vh, dtype=np.complex128), vv), valid

    return multilook_rows(shape, header.looks, *(multilook or (1, 1)), read_rows)


def write_scene(
    raster: PolsarRaster, path: Union[str, Path], dtype: str = "float32"
) -> None:
    """Write a coherency or Sinclair raster as a scene directory; masked
    pixels are written as NaN."""
    if dtype not in _DTYPES:
        raise ValueError(f"unknown scene dtype {dtype!r}")
    kind = "T3" if raster.kind == KIND_COHERENCY else "S2"
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        f"rows = {raster.rows}",
        f"cols = {raster.cols}",
        f"looks = {raster.looks!r}",
        f"kind = {kind}",
        f"dtype = {dtype}",
    ]
    for name, index in _LAYOUT[kind].items():
        # (rows, cols, parts): real and imaginary parts interleave in the file
        if kind == "T3":
            values = raster.data[..., list(index)]
        else:
            entry = raster.data[(..., *index)]
            values = np.stack([entry.real, entry.imag], axis=-1)
        values[~raster.mask] = np.nan
        np.ascontiguousarray(values, dtype=_DTYPES[dtype]).tofile(directory / f"{name}.bin")
        lines.append(f"component.{name} = {name}.bin")
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


_SPEC_FIELDS = ("rows", "cols", "looks", "seed")


def parse_scene_spec(path: Union[str, Path]) -> SyntheticSceneSpec:
    """Parse a scene spec file.

    Accepted lines: ``rows = N``, ``cols = N``, ``looks = N``, ``seed = N``
    and one ``region = row0 col0 row1 col1 model span [looks]`` per region.
    Blank lines and ``#`` comments are ignored.
    """
    path = Path(path)
    fields: Dict[str, str] = {}
    regions: List[Region] = []
    for lineno, key, value in _key_values(path):
        if key != "region":
            if key not in _SPEC_FIELDS:
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
    return SyntheticSceneSpec(
        **{key: _field(path, fields, key, int) for key in _SPEC_FIELDS}, regions=regions
    )


def generate_scene(spec: SyntheticSceneSpec) -> PolsarRaster:
    """Sample a coherency raster from the region models.

    Every pixel draws L independent circular complex Gaussian Pauli vectors
    with covariance span * model + delta * I (delta = 1e-6 * span) via the
    Cholesky factor, and averages their outer products. Each region uses an
    independent substream spawned from the scene seed and the region index,
    so the output is reproducible regardless of generation order.
    """
    planes = np.empty((9, spec.rows, spec.cols))
    for idx, region in enumerate(spec.regions):
        # hash-derived per-region substream: independent of generation order
        rng = np.random.default_rng(
            np.random.SeedSequence(spec.seed, spawn_key=(idx,))
        )
        looks = region.looks if region.looks is not None else spec.looks
        sigma = region.span * MODEL_COHERENCY[region.model]
        delta = _SAMPLING_FLOOR * span_array(sigma, "coherency")
        chol = np.linalg.cholesky(sigma + delta * np.eye(3))
        shape = (region.row1 - region.row0, region.col1 - region.col0)
        z = rng.standard_normal(shape + (looks, 3)) + 1j * rng.standard_normal(
            shape + (looks, 3)
        )
        z *= np.sqrt(0.5)
        t = pack_coherency_array(coherency_from_pauli_array(z @ chol.T))
        planes[:, region.row0 : region.row1, region.col0 : region.col1] = np.moveaxis(t, -1, 0)
    return PolsarRaster(KIND_COHERENCY, np.moveaxis(planes, 0, -1), None, float(spec.looks))
