"""End-to-end classification pipeline and its on-disk artifacts.

Stage order: read (``scene.read_scene`` multilooks a Sinclair scene as it
reads it), optional deorientation, speckle filter, per-target similarity,
categorization, span-ordered seeding, capped merging, iterative Wishart
refinement, rendering. The stages take coherency rasters only;
``preprocess.multilook`` makes one from an in-memory Sinclair raster.
Coherency pixels stay packed real rows p(T) from read to refinement. The
stages up to the similarity form one front end, ``_prepare``, shared by the
classify and similarity commands; it deorients, filters and scores one row
tile at a time. Every stage dump goes through one hook, ``dump(stage,
write)``. Stage dumps are written in full precision so a pipeline restarted
from a dumped stage reproduces the final labels byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
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
from .raster import KIND_COHERENCY, PolsarRaster
from .render import MASKED_LABEL, ClassEntry, render_map
from .scene import generate_scene, parse_scene_spec, read_scene, write_scene

__all__ = [
    "DUMP_STAGES",
    "PipelineConfig",
    "ClassifyResult",
    "classify_raster",
    "run_classify",
    "run_similarity",
    "run_generate",
]

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


def _dump_hook(dump_dir: Optional[Path], stages: Tuple[str, ...]) -> Callable:
    """dump(stage[, write]) writes dump_dir / stage_<stage> if requested; True if it is."""

    def dump(stage: str, write: Optional[Callable[[Path], None]] = None) -> bool:
        requested = dump_dir is not None and stage in stages
        if requested and write is not None:
            directory = dump_dir / f"stage_{stage}"
            directory.mkdir(parents=True, exist_ok=True)
            write(directory)
        return requested

    return dump


def _write_similarity(directory: Path, targets, f, gamma, w, dtype: str) -> None:
    """Raw per-target rasters f_<name>, gamma_<name>, w_<name>; the file
    suffix names the dtype (f64 for stage dumps, f32 for similarity)."""
    suffix = f"f{np.dtype(dtype).itemsize * 8}"
    for i, target in enumerate(targets):
        for prefix, stack in (("f", f), ("gamma", gamma), ("w", w)):
            path = directory / f"{prefix}_{target.name}.{suffix}"
            stack[i].astype(dtype).tofile(path)


def _prepare(raster: PolsarRaster, config: PipelineConfig, dump: Callable, classify: bool):
    """Front end of classify and similarity: one pass over output row tiles of
    ``preprocess._FILTER_TILE_PIXELS``, each deoriented and filtered with
    window // 2 halo rows, then its own rows scored. Returns the full-size
    (raster, f, gamma, w, valid); the deoriented, filtered raster only for
    classify and f and gamma only for similarity or their dump, else None.
    Stages are called through this module's globals, which wrappers can hook."""
    if raster.kind != KIND_COHERENCY:
        raise ValueError(
            f"the pipeline takes coherency rasters; multilook a {raster.kind} raster first"
        )
    pre, (rows, cols), n_targets = config.preprocess, raster.shape, len(config.targets)
    half = pre.filter_window // 2
    # full-size buffers are component-major, so PolsarRaster takes them uncopied
    deoriented = np.empty((9, rows, cols)) if pre.deorient and dump("deorient") else None
    keep = (pre.deorient or half) and (classify or dump("filter"))
    filtered = np.empty((9, rows, cols)) if keep else None
    keep = not classify or dump("similarity")
    f, gamma = (np.empty((n_targets, rows, cols)) if keep else None for _ in range(2))
    w, valid = np.empty((n_targets, rows, cols)), np.empty((rows, cols), dtype=bool)
    step = max(1, preprocess._FILTER_TILE_PIXELS // cols)
    for r0 in range(0, rows or 1, step):  # one empty tile when there are no rows
        r1 = min(r0 + step, rows)
        lo, hi = max(r0 - half, 0), min(r1 + half, rows)
        tile = PolsarRaster(KIND_COHERENCY, raster.data[lo:hi], raster.mask[lo:hi], raster.looks)
        deoriented_tile = deorient_raster(tile) if pre.deorient else tile
        tile = speckle_filter(deoriented_tile, pre) if half else deoriented_tile
        own = [t.data[r0 - lo : r1 - lo] for t in (deoriented_tile, tile)]
        scores = similarity_arrays(own[1], raster.mask[r0:r1], config.targets)
        parts = [np.moveaxis(x, -1, 0) for x in own] + list(scores)
        for buffer, part in zip((deoriented, filtered, f, gamma, w, valid), parts):
            if buffer is not None:
                buffer[..., r0:r1, :] = part
        del deoriented_tile, own, scores, parts  # freed before the next tile is read

    def whole(planes, looks):
        return PolsarRaster(KIND_COHERENCY, np.moveaxis(planes, 0, -1), raster.mask, looks)

    if pre.deorient:
        dump("deorient", lambda d: write_scene(whole(deoriented, raster.looks), d, "float64"))
    raster = raster if filtered is None else whole(filtered, tile.looks)
    if half:
        dump("filter", lambda d: write_scene(raster, d, dtype="float64"))
    dump("similarity", lambda d: _write_similarity(d, config.targets, f, gamma, w, "<f8"))
    return (raster if classify else None), f, gamma, w, valid


def classify_raster(
    raster: PolsarRaster,
    config: PipelineConfig,
    dump_dir: Optional[Path] = None,
) -> ClassifyResult:
    """Classify an in-memory coherency raster; see the module docstring for
    stages."""
    dump = _dump_hook(dump_dir, config.dump_stages)
    return _classify(_prepare(raster, config, dump, True), config, dump)


def _classify(prepared, config: PipelineConfig, dump: Callable) -> ClassifyResult:
    """Classify the output of ``_prepare``, taken whole so w can be freed."""
    raster, _, _, w, valid = prepared
    del prepared  # w and any f and gamma are freed after categorize
    rows, cols = raster.shape
    n_targets = len(config.targets)
    categories, mixed, cat_valid = categorize_arrays(
        w.reshape(n_targets, -1), config.classifier.mixed_threshold
    )
    del w
    valid = valid.reshape(-1) & cat_valid
    categories_img = np.where(valid, categories, -1).reshape(rows, cols)
    mixed_img = (mixed & valid).reshape(rows, cols)
    valid_img = valid.reshape(rows, cols)

    def write_category(directory: Path) -> None:
        for name, image in (("category", categories_img), ("mixed", mixed_img)):
            np.where(valid_img, image, 0xFF).astype(np.uint8).tofile(
                directory / f"{name}.u8"
            )

    dump("category", write_category)

    pixel_index = np.flatnonzero(valid)
    # packed rows of the valid pixels, each packed column contiguous (a view if all are)
    planes = np.moveaxis(raster.data, -1, 0).reshape(9, -1)
    t_flat = (planes if pixel_index.size == valid.size else np.take(planes, pixel_index, 1)).T
    cat_flat = categories[pixel_index]
    mixed_flat = mixed[pixel_index]

    def label_image(values: np.ndarray) -> np.ndarray:
        image = np.full(rows * cols, MASKED_LABEL, dtype=np.uint16)
        image[pixel_index] = values
        return image.reshape(rows, cols)

    # seed and merge per category; ids stay globally unique and ordered
    k0 = config.classifier.initial_clusters_per_category
    merged: List[Cluster] = []
    labels0 = np.full(len(pixel_index), -1, dtype=np.int64)
    seed_to_merged = np.full(n_targets * k0, -1, dtype=np.int64)
    for ci in range(n_targets):
        sel = np.flatnonzero(cat_flat == ci)
        if sel.size == 0:
            continue
        seeds, seed_labels = initial_clusters(
            t_flat[sel], k0, category=ci, start_id=ci * k0
        )
        labels0[sel] = seed_labels
        merged_ci = merge_clusters(seeds, config.classifier)
        for cluster in merged_ci:
            seed_to_merged[list(cluster.source_ids)] = cluster.id
        merged.extend(merged_ci)
    labels0 = seed_to_merged[labels0]
    dump(
        "merge",
        lambda d: label_image(labels0).astype("<u2").tofile(d / "labels_initial.bin"),
    )

    labels, clusters, history = iterate_classification(
        t_flat,
        cat_flat,
        mixed_flat,
        merged,
        config.classifier,
        initial_labels=labels0,
        workers=config.workers,
    )

    # dense class ids ordered by category, then center power, then seed id
    power = {c.id: float(span_array(c.center, "coherency")) for c in clusters}
    ordered = sorted(clusters, key=lambda c: (c.category, power[c.id], c.id))
    id_to_class = np.full(n_targets * k0, MASKED_LABEL, dtype=np.int64)
    classes: List[ClassEntry] = []
    within: Dict[int, int] = {}
    for rank, cluster in enumerate(ordered):
        id_to_class[cluster.id] = rank
        class_index = within.get(cluster.category, 0)
        within[cluster.category] = class_index + 1
        classes.append(
            ClassEntry(
                class_id=rank,
                category_index=cluster.category,
                category=config.targets[cluster.category].name,
                class_index=class_index,
                pixels=cluster.member_count,
                center_trace=power[cluster.id],
            )
        )

    return ClassifyResult(
        labels=label_image(id_to_class[labels]),
        classes=classes,
        clusters=list(ordered),
        history=history,
        categories=categories_img,
        mixed=mixed_img,
        valid=valid_img,
    )


def _write_labels(result: ClassifyResult, out_dir: Path) -> None:
    labels = result.labels
    labels.astype("<u2").tofile(out_dir / "labels.bin")
    (out_dir / "labels.hdr").write_text(
        "\n".join(
            [
                f"rows = {labels.shape[0]}",
                f"cols = {labels.shape[1]}",
                f"classes = {len(result.classes)}",
                f"masked = {MASKED_LABEL}",
                "dtype = uint16",
                "byte_order = little",
            ]
        )
        + "\n"
    )


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
    ``multilook`` factors go to ``read_scene``.

    Artifacts: labels.bin / labels.hdr (u16 little-endian, row-major,
    0xFFFF = masked), report.jsonl (one record per pass), map.ppm and
    legend.csv, plus any requested stage dumps under stages/.
    """
    config = config or PipelineConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # only _prepare holds the read raster, unless it comes back unfiltered
    dump = _dump_hook(out_dir / "stages", config.dump_stages)
    result = _classify(
        _prepare(read_scene(scene_path, multilook), config, dump, True), config, dump
    )
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
    """Write per-target similarity products for a scene; ``multilook``
    factors go to ``read_scene``.

    For each target: a grayscale P5 map of f scaled [0, 1] -> [0, 255] and
    raw float32 rasters of f, gamma and w (NaN on masked pixels). Returns
    False when the scene has no valid pixels (maps are still written).
    """
    config = config or PipelineConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, f, gamma, w, valid = _prepare(
        read_scene(scene_path, multilook), config, _dump_hook(None, ()), False
    )
    header = f"P5\n{valid.shape[1]} {valid.shape[0]}\n255\n".encode("ascii")
    for i, target in enumerate(config.targets):
        scaled = np.where(
            valid, np.round(np.clip(f[i], 0.0, 1.0) * 255.0), 0.0
        ).astype(np.uint8)
        (out_dir / f"f_{target.name}.pgm").write_bytes(header + scaled.tobytes())
    _write_similarity(out_dir, config.targets, f, gamma, w, "<f4")
    return bool(valid.any())


def run_generate(spec_path, out_dir, seed: Optional[int] = None) -> PolsarRaster:
    """Generate a synthetic scene from a spec file and write it."""
    spec = parse_scene_spec(spec_path)
    if seed is not None:
        spec = replace(spec, seed=seed)
    raster = generate_scene(spec)
    write_scene(raster, out_dir)
    return raster
