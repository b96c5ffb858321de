"""Flat binary scene storage and synthetic scene generation.

A scene is a directory holding ``header.txt`` plus one flat little-endian
binary file per matrix component, row-major. The header carries ``key =
value`` lines: rows, cols, looks, kind, dtype, and one ``component.NAME =
filename`` line per component file; ``#`` starts a comment, so no
filename may contain one.

kind T3 (coherency): T11, T22, T33 as real values; T12, T13, T23 as
interleaved real/imaginary pairs, read into and written from the packed
planes of a coherency raster. kind S2 (Sinclair): HH, HV, VH, VV as
interleaved complex channels, written from a Sinclair raster and multilooked
into a coherency raster as they are read. ``_LAYOUT`` maps each component to
its planes or matrix entry. Components default to float32; float64 serves
full-precision stage dumps. A non-finite value (NaN or +-inf) in any
component marks the pixel invalid; writers serialize masked pixels as NaN.
Both ways go by row tiles: ``open_scene`` reads the rows asked of it, and
``append_scene`` appends a tile to a ``FileAppender``.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .matrices import pack_coherency_array, packed_outer, span_array, unpack_coherency_array
from .preprocess import multilook_rows
from .raster import KIND_COHERENCY, PolsarRaster, RowSource, mask_non_finite

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

#: Rows per generation chunk; each chunk of a region has its own substream.
_CHUNK_ROWS = 64

#: Pixels per band the writer casts, so a Sinclair band (512 KiB) stays in cache.
_CAST_PIXELS = 8192


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


def _header_text(fields: Dict[str, object]) -> str:
    """The ``key = value`` lines of fields, in order, that ``_key_values`` reads."""
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


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


def open_scene(
    path: Union[str, Path], multilook: Optional[Tuple[int, int]] = None
) -> RowSource:
    """Open a scene directory as a ``RowSource`` whose ``rows(lo, hi)`` reads
    only the rows it needs; the header and every component file are checked
    first. A T3 scene's planes hold the file values as written; a non-finite
    value in any of the nine planes masks the pixel and zeroes its payload
    (``raster.mask_non_finite``).
    An S2 scene is multilooked as it is read, by ``multilook = (rf, af)`` or
    else (1, 1) (a T3 scene with factors raises): input rows lo*rf:hi*rf go
    through ``preprocess.multilook_rows``, with the bytes of
    ``preprocess.multilook`` on the Sinclair raster of the file values, which
    never exists."""
    directory = Path(path)
    header = _parse_header(directory / "header.txt")
    if header.kind == "T3" and multilook is not None:
        raise ValueError("multilook applies to Sinclair scenes only, not coherency")
    shape, dtype = (header.rows, header.cols), np.dtype(_DTYPES[header.dtype])
    layout = _LAYOUT[header.kind].items()
    files = [(_component_file(directory, header, name, len(i)), len(i)) for name, i in layout]

    def read(r0: int, r1: int):
        """Each component's (r1 - r0, cols, parts) values in rows r0:r1."""
        return (np.fromfile(file, dtype, count=(r1 - r0) * header.cols * parts,
                            offset=r0 * header.cols * parts * dtype.itemsize)
                .reshape(r1 - r0, header.cols, parts) for file, parts in files)

    if header.kind == "S2":
        # the interleaved real and imaginary parts read as complex values
        complex_ = np.result_type(dtype, np.complex64).newbyteorder("<")

        def read_rows(r0, r1, c1):
            """HH, HV, VH and VV of rows r0:r1, columns :c1, and their mask."""
            hh, hv, vh, vv = (v.view(complex_)[:, :c1, 0] for v in read(r0, r1))
            return hh, hv, vh, vv, True

        return multilook_rows(shape, header.looks, *(multilook or (1, 1)), read_rows)

    def rows(lo: int, hi: int) -> PolsarRaster:
        planes = np.empty((9, hi - lo, header.cols))
        for values, (_, index) in zip(read(lo, hi), layout):
            planes[list(index)] = np.moveaxis(values, -1, 0)
        raster = PolsarRaster(KIND_COHERENCY, np.moveaxis(planes, 0, -1), None, header.looks)
        return mask_non_finite(raster)

    return RowSource(shape, rows)


def read_scene(
    path: Union[str, Path], multilook: Optional[Tuple[int, int]] = None
) -> PolsarRaster:
    """Every row of ``open_scene(path, multilook)``, as one coherency raster."""
    source = open_scene(path, multilook)
    return source.rows(0, source.shape[0])


class FileAppender(ExitStack):
    """Flat files in one directory, each created (with the directory) on its
    first append and grown by one row tile per append; all close on exit."""

    def __init__(self, directory: Union[str, Path]):
        super().__init__()
        self.directory, self.files = Path(directory), {}

    def append(self, name: str, data) -> None:
        if name not in self.files:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.files[name] = self.enter_context(open(self.directory / name, "wb"))
        self.files[name].write(data)  # bytes, or a C-contiguous array's bytes


def checked_cast(values, out: np.ndarray, name: str, invalid=None) -> np.ndarray:
    """Cast values, a list of real arrays or one complex array, once into out,
    their (..., parts) float array, NaN in every part where invalid; returns
    out. A finite value made infinite raises a ValueError naming it: only a
    float32 cast can overflow, and values are read again only at infinities."""
    with np.errstate(over="ignore"):
        if isinstance(values, list):
            np.stack(values, axis=-1, out=out, casting="same_kind")
        else:  # cast as complex values, whose parts interleave as out's do
            out.view(f"<c{2 * out.itemsize}")[..., 0] = values
            values = [values.real, values.imag]
    if invalid is not None:
        out[invalid] = np.nan
    inf = np.isinf(out) if out.itemsize == 4 else False
    if np.any(inf) and np.isfinite(np.stack(values, axis=-1)[inf]).any():
        raise ValueError(f"{name}: finite values beyond the float32 range")
    return out


def append_scene(
    files: FileAppender, raster: PolsarRaster, rows: int, dtype: str = "float32"
) -> None:
    """Append a row tile of a coherency or Sinclair raster to the component
    files of a scene of ``rows`` rows, masked pixels as NaN; the first tile
    also writes ``header.txt``. Each component, a T3 component's planes or a
    Sinclair entry, goes through ``checked_cast`` before any is written."""
    if dtype not in _DTYPES:
        raise ValueError(f"unknown scene dtype {dtype!r}")
    kind = "T3" if raster.kind == KIND_COHERENCY else "S2"
    casts = {name: np.empty(raster.shape + (2 if kind == "S2" else len(index),), _DTYPES[dtype])
             for name, index in _LAYOUT[kind].items()}
    step = max(1, _CAST_PIXELS // max(raster.cols, 1))  # rows of a band, cast component by component
    for lo in range(0, raster.rows, step):
        data, invalid = raster.data[lo : lo + step], ~raster.mask[lo : lo + step]
        for name, index in _LAYOUT[kind].items():
            values = [data[..., i] for i in index] if kind == "T3" else data[(..., *index)]
            checked_cast(values, casts[name][lo : lo + step], f"component {name}", invalid)
    if not files.files:
        head = dict(rows=rows, cols=raster.cols, looks=repr(raster.looks), kind=kind, dtype=dtype)
        head.update((f"component.{name}", f"{name}.bin") for name in casts)
        files.append("header.txt", _header_text(head).encode())
    for name, cast in casts.items():
        files.append(f"{name}.bin", cast)


def write_scene(
    raster: PolsarRaster, path: Union[str, Path], dtype: str = "float32"
) -> None:
    """Write a raster as a scene directory in one ``append_scene``, so a
    failed cast raises before any file is written."""
    with FileAppender(path) as files:
        append_scene(files, raster, raster.rows, dtype)


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
        if not 0 < self.span < np.inf:
            raise ValueError("region span must be positive and finite")
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


def _bartlett_planes(rng, looks: int, shape) -> list:
    """Packed planes of W = A A^H ~ CW(L, I): the ``packed_outer`` products of
    the first min(L, 3) columns of the lower-triangular Bartlett factor A
    (Goodman 1963), with |A_jj|^2 ~ Gamma(L - j, 1) and CN(0, 1) entries below
    the diagonal. For L < 3, W has rank L, as a mean of L outer products has."""
    zr, zi = np.sqrt(0.5) * rng.standard_normal((2, 3) + shape)  # A10, A20, A21
    m = min(looks, 3)
    d = [np.sqrt(rng.standard_gamma(looks - j, shape)) for j in range(m)] + [0.0] * (3 - m)
    columns = [((d[0], zr[0], zr[1]), (0.0, zi[0], zi[1])),
               ((0.0, d[1], zr[2]), (0.0, 0.0, zi[2])),
               ((0.0, 0.0, d[2]), (0.0, 0.0, 0.0))]
    products = [packed_outer(kr, ki) for kr, ki in columns[:m]]
    return [sum(terms[1:], terms[0]) for terms in zip(*products)]


def generate_scene(spec: SyntheticSceneSpec) -> PolsarRaster:
    """Sample a coherency raster from the region models.

    Every pixel is an L-look sample coherency matrix T of Sigma = span * model
    + 1e-6 * span * I, drawn from its complex Wishart law: L T = C W C^H with
    C = chol(Sigma) and W from `_bartlett_planes`, the congruence being one real
    9x9 matrix on packed rows. Each ``_CHUNK_ROWS``-row chunk of a region draws
    from the substream (seed, region index, chunk index), so the bytes depend
    on neither generation order nor memory.
    """
    planes = np.empty((9, spec.rows, spec.cols))
    for idx, region in enumerate(spec.regions):
        looks = region.looks if region.looks is not None else spec.looks
        sigma = region.span * MODEL_COHERENCY[region.model]
        delta = _SAMPLING_FLOOR * span_array(sigma)
        chol = np.linalg.cholesky(sigma + delta * np.eye(3))
        # column k maps the k-th packed basis matrix E_k to p(C E_k C^H) / L
        basis = unpack_coherency_array(np.eye(9))
        congruence = pack_coherency_array(chol @ basis @ chol.conj().T).T / looks
        cols = slice(region.col0, region.col1)
        for chunk, r0 in enumerate(range(region.row0, region.row1, _CHUNK_ROWS)):
            shape = (min(_CHUNK_ROWS, region.row1 - r0), region.col1 - region.col0)
            rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(idx, chunk)))
            w = np.stack(_bartlett_planes(rng, looks, shape)).reshape(9, -1)
            planes[:, r0 : r0 + shape[0], cols] = (congruence @ w).reshape((9,) + shape)
    return PolsarRaster(KIND_COHERENCY, np.moveaxis(planes, 0, -1), None, float(spec.looks))
