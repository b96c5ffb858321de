"""End-to-end classification pipeline and its on-disk artifacts.

Stage order: read, optional deorientation, speckle filter, per-target
similarity, categorization, span-ordered seeding, capped merging, iterative
Wishart refinement, rendering. Coherency pixels stay packed real rows p(T)
from read to refinement. The stages up to the similarity form one front
end, ``_prepare``, shared by the classify and similarity commands: one pass
over output row tiles, each taken from a ``RowSource`` (``scene.open_scene``
reads, and multilooks, only the rows a tile needs), deoriented and filtered
with halo rows, then scored. Only refinement needs the whole scene: classify
categorizes each tile as it comes and keeps only the valid pixels' filtered
planes, one-byte categories and mixed flags (no w), similarity writes each
tile as it comes.
Every stage dump goes through one hook, ``dump(stage)``, entered once per
run and written in full precision, so a pipeline restarted from a dumped
stage reproduces the final labels byte-for-byte."""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from itertools import groupby
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .classify import (
    ClassifierConfig,
    Cluster,
    categorize_arrays,
    initial_clusters,
    iterate_classification,
    merge_clusters,
)
from .geodesic import DEFAULT_TARGETS, CanonicalTarget, similarity_arrays
from .matrices import span_array
from . import preprocess
from .preprocess import PreprocessConfig, deorient_raster, speckle_filter
from .raster import KIND_COHERENCY, PolsarRaster, RowSource, mask_non_finite
from .render import MASKED_LABEL, ClassEntry, render_map
from .scene import (
    FileAppender,
    _header_text,
    append_scene,
    checked_cast,
    generate_scene,
    open_scene,
    parse_scene_spec,
    write_scene,
)

DUMP_STAGES = ("deorient", "filter", "similarity", "category", "merge")


@dataclass
class PipelineConfig:
    """Everything the classify and similarity commands can tune."""

    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    targets: Tuple[CanonicalTarget, ...] = DEFAULT_TARGETS
    workers: int = 1
    dump_stages: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if len(self.targets) > 0xFF:  # one-byte categories; the dump marks masked 0xFF
            raise ValueError(f"{len(self.targets)} targets exceed the 255 category codes")
        names = [t.name for t in self.targets]  # each names its own output files
        if len(set(names)) < len(names):
            raise ValueError(f"target name {next(n for n in names if names.count(n) > 1)!r} repeats")
        n_seeds = len(self.targets) * self.classifier.initial_clusters_per_category
        if n_seeds > MASKED_LABEL:
            raise ValueError(f"{n_seeds} seed clusters exceed {MASKED_LABEL} label ids")
        unknown = [s for s in self.dump_stages if s not in DUMP_STAGES]
        if unknown:
            raise ValueError(f"unknown dump stage {unknown[0]!r}")


@dataclass
class ClassifyResult:
    labels: np.ndarray
    classes: List[ClassEntry]
    clusters: List[Cluster]
    history: List[Dict]
    categories: np.ndarray
    mixed: np.ndarray
    valid: np.ndarray


@contextmanager
def _dump_hook(dump_dir: Optional[Path], stages: Tuple[str, ...]):
    """Entered once per run, it yields dump(stage): the ``FileAppender`` of
    directory dump_dir / stage_<stage> for a requested stage, else None. A
    directory is created on its first file, and every file closes on exit."""
    stages = stages if dump_dir else ()
    with ExitStack() as stack:
        yield {s: stack.enter_context(FileAppender(dump_dir / f"stage_{s}")) for s in stages}.get


def _append_similarity(files: FileAppender, targets, scores, dtype: str) -> None:
    """Append a tile's f, gamma and w to the raw per-target rasters f_<name>,
    gamma_<name> and w_<name>, whose file suffix names the dtype (f64 for
    stage dumps, f32 for similarity), each cast checked as a scene's are."""
    suffix = f"f{np.dtype(dtype).itemsize * 8}"
    for i, target in enumerate(targets):
        for prefix, stack in zip(("f", "gamma", "w"), scores):
            name, cast = f"{prefix}_{target.name}.{suffix}", np.empty(stack[i].shape + (1,), dtype)
            files.append(name, checked_cast([stack[i]], cast, name))


def _prepare(source: RowSource, config: PipelineConfig, dump: Callable):
    """Front end of classify and similarity: one pass over output row tiles of
    ``preprocess._FILTER_TILE_PIXELS``, each read from the source, deoriented
    and filtered with window // 2 halo rows, then its own rows scored. Yields
    (r0, r1, data, (f, gamma, w, valid)) per tile of rows r0:r1, data being
    their filtered packed rows, and appends each tile to the requested stage
    dumps. Stages are called through this module's globals, which wrappers
    can hook."""
    pre, (rows, cols) = config.preprocess, source.shape
    half = pre.filter_window // 2
    step = max(1, preprocess._FILTER_TILE_PIXELS // max(cols, 1))
    for r0 in range(0, rows or 1, step):  # one empty tile when there are no rows
        r1 = min(r0 + step, rows)
        lo, hi = max(r0 - half, 0), min(r1 + half, rows)
        deoriented = source.rows(lo, hi)  # the read tile is freed before the filter
        deoriented = deorient_raster(deoriented) if pre.deorient else deoriented
        tile = speckle_filter(deoriented, pre) if half else deoriented
        own = slice(r0 - lo, r1 - lo)
        for stage, t, on in (("deorient", deoriented, pre.deorient), ("filter", tile, half)):
            if on and dump(stage):
                append_scene(dump(stage), t.slice_rows(r0 - lo, r1 - lo), rows, "float64")
        del deoriented  # freed before the similarity's temporaries
        scores = similarity_arrays(tile.data[own], tile.mask[own], config.targets)
        if dump("similarity"):
            _append_similarity(dump("similarity"), config.targets, scores[:3], "<f8")
        yield r0, r1, tile.data[own], scores
        del t, tile, scores  # freed before the next tile is read


def classify_raster(
    raster: PolsarRaster,
    config: PipelineConfig,
    dump_dir: Optional[Path] = None,
) -> ClassifyResult:
    """Classify an in-memory coherency raster; see the module docstring for
    stages. Its pixels non-finite in any plane are masked as a scene read
    masks them."""
    if raster.kind != KIND_COHERENCY:
        raise ValueError(
            f"the pipeline takes coherency rasters; multilook a {raster.kind} raster first"
        )
    source = RowSource(raster.shape, lambda lo, hi: mask_non_finite(raster.slice_rows(lo, hi)))
    with _dump_hook(dump_dir, config.dump_stages) as dump:
        return _classify(source, config, dump)


def _classify(source: RowSource, config: PipelineConfig, dump: Callable) -> ClassifyResult:
    """Classify the rows of a source. Each tile is categorized as it comes,
    and only its valid pixels are kept, in scan order: their filtered packed
    rows, one-byte category and mixed flag (75 bytes per pixel with the
    validity; seeding briefly adds about 11, refinement 3; README gives peak RSS)."""
    (rows, cols), n_targets = source.shape, len(config.targets)
    # component-major, so each packed column of t_flat is contiguous
    planes = np.empty((9, rows * cols))
    cat_flat, mixed_flat = np.empty(rows * cols, dtype=np.uint8), np.empty(rows * cols, bool)
    valid, n = np.empty((rows, cols), dtype=bool), 0
    for r0, r1, data, scores in _prepare(source, config, dump):
        category, mixed, keep = categorize_arrays(  # similarity's masked pixels have NaN w
            scores[2].reshape(n_targets, -1), config.classifier.mixed_threshold
        )
        valid[r0:r1] = keep.reshape(r1 - r0, cols)
        if dump("category"):
            for name, values in (("category", category), ("mixed", mixed)):
                dump("category").append(
                    f"{name}.u8", np.where(keep, values, 0xFF).astype(np.uint8)
                )
        k, tile = n + np.count_nonzero(keep), np.moveaxis(data, -1, 0).reshape(9, -1)
        # a whole tile is one slice copy; numpy gathers 1-D planes faster than along axis 1
        planes[:, n:k] = tile if k - n == keep.size else [plane[keep] for plane in tile]
        cat_flat[n:k], mixed_flat[n:k], n = category[keep], mixed[keep], k
    del data, tile, scores, category, mixed, keep  # else the last tile lives through refinement
    t_flat, cat_flat, mixed_flat = planes[:, :n].T, cat_flat[:n], mixed_flat[:n]

    def image(values: np.ndarray, fill=MASKED_LABEL, dtype=np.uint16) -> np.ndarray:
        out = np.full((rows, cols), fill, dtype=dtype)
        out[valid] = values
        return out

    # seed every category in one call, merge each; ids stay globally unique and ordered
    k0 = config.classifier.initial_clusters_per_category
    seeds, labels0 = initial_clusters(t_flat, k0, category=cat_flat)
    by_category = groupby(seeds, key=lambda c: c.category)
    merged = [c for _, group in by_category for c in merge_clusters(list(group), config.classifier)]
    seed_to_merged = np.full(n_targets * k0, n_targets * k0, np.min_scalar_type(n_targets * k0))
    for cluster in merged:
        seed_to_merged[list(cluster.source_ids)] = cluster.id
    labels0 = seed_to_merged[labels0]
    if dump("merge"):
        dump("merge").append("labels_initial.bin", image(labels0).astype("<u2"))

    labels, clusters, history = iterate_classification(
        t_flat,
        cat_flat,
        mixed_flat,
        merged,
        config.classifier,
        initial_labels=labels0,
        workers=config.workers,
    )
    del planes, t_flat, labels0  # the result images need none of them

    # dense class ids ordered by category, then center power, then seed id
    power = {c.id: float(span_array(c.row)) for c in clusters}
    ordered = sorted(clusters, key=lambda c: (c.category, power[c.id], c.id))
    id_to_class = np.full(n_targets * k0, MASKED_LABEL, dtype=np.int64)
    classes: List[ClassEntry] = []
    for _, group in groupby(ordered, key=lambda c: c.category):
        for class_index, cluster in enumerate(group):
            id_to_class[cluster.id] = len(classes)  # the class id appended next
            classes.append(
                ClassEntry(
                    class_id=len(classes),
                    category_index=cluster.category,
                    category=config.targets[cluster.category].name,
                    class_index=class_index,
                    pixels=cluster.member_count,
                    center_trace=power[cluster.id],
                )
            )

    return ClassifyResult(
        labels=image(id_to_class[labels]),
        classes=classes,
        clusters=list(ordered),
        history=history,
        categories=image(cat_flat, -1, np.intp),
        mixed=image(mixed_flat, False, bool),
        valid=valid,
    )


def _write_labels(result: ClassifyResult, out_dir: Path) -> None:
    labels = result.labels
    labels.astype("<u2").tofile(out_dir / "labels.bin")
    head = dict(rows=labels.shape[0], cols=labels.shape[1], classes=len(result.classes),
                masked=MASKED_LABEL, dtype="uint16", byte_order="little")
    (out_dir / "labels.hdr").write_text(_header_text(head))


def _write_report(history: List[Dict], path: Path) -> None:
    with open(path, "w") as handle:
        for record in history:
            handle.write(json.dumps(record) + "\n")


def run_classify(
    scene_path,
    out_dir,
    config: Optional[PipelineConfig] = None,
    multilook: Optional[Tuple[int, int]] = None,
) -> ClassifyResult:
    """Classify a scene directory and write all artifacts into out_dir;
    ``multilook`` factors go to ``open_scene``.

    Artifacts: labels.bin / labels.hdr (u16 little-endian, row-major,
    0xFFFF = masked), report.jsonl (one record per pass), map.ppm and
    legend.csv, plus any requested stage dumps under stages/.
    """
    config = config or PipelineConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _dump_hook(out_dir / "stages", config.dump_stages) as dump:
        result = _classify(open_scene(scene_path, multilook), config, dump)
    _write_labels(result, out_dir)
    _write_report(result.history, out_dir / "report.jsonl")
    render_map(
        result.labels,
        result.classes,
        config.classifier.final_classes_per_category,
        out_dir / "map.ppm",
        out_dir / "legend.csv",
    )
    return result


def run_similarity(
    scene_path,
    out_dir,
    config: Optional[PipelineConfig] = None,
    multilook: Optional[Tuple[int, int]] = None,
) -> bool:
    """Write per-target similarity products for a scene, tile by tile;
    ``multilook`` factors go to ``open_scene``.

    For each target: a grayscale P5 map of f scaled [0, 1] -> [0, 255] and
    raw float32 rasters of f, gamma and w (NaN on masked pixels). Returns
    False when the scene has no valid pixels (maps are still written).
    """
    config = config or PipelineConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source, any_valid = open_scene(scene_path, multilook), False
    header = f"P5\n{source.shape[1]} {source.shape[0]}\n255\n".encode("ascii")
    with FileAppender(out_dir) as files:
        for target in config.targets:
            files.append(f"f_{target.name}.pgm", header)
        for _, _, _, (f, gamma, w, valid) in _prepare(source, config, lambda stage: None):
            for i, target in enumerate(config.targets):
                scaled = np.where(valid, np.round(np.clip(f[i], 0.0, 1.0) * 255.0), 0.0)
                files.append(f"f_{target.name}.pgm", scaled.astype(np.uint8))
            _append_similarity(files, config.targets, (f, gamma, w), "<f4")
            any_valid |= bool(valid.any())
            del _, f, gamma, w, valid, scaled  # with the filtered rows (_), freed before the next read
    return any_valid


def run_generate(spec_path, out_dir, seed: Optional[int] = None) -> PolsarRaster:
    """Generate a synthetic scene from a spec file and write it."""
    spec = parse_scene_spec(spec_path)
    if seed is not None:
        spec = replace(spec, seed=seed)
    raster = generate_scene(spec)
    write_scene(raster, out_dir)
    return raster
