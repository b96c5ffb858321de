"""Unsupervised polarimetric SAR classification.

Core pieces: polarimetric matrix types and conversions (matrices),
normalized geodesic similarity to canonical targets (geodesic),
orientation compensation and speckle filtering (preprocess),
category-preserving Wishart clustering (classify), scene i/o and
synthesis (scene), map rendering (render), and the end-to-end
pipeline (pipeline, cli).
"""

from .classify import (
    ClassifierConfig,
    Cluster,
    PixelCategory,
    categorize,
    initial_clusters,
    iterate_classification,
    merge_clusters,
    wishart_center_distance,
    wishart_pixel_distance,
)
from .geodesic import (
    DEFAULT_TARGETS,
    DIHEDRAL,
    RANDOM_VOLUME,
    TRIHEDRAL,
    CanonicalTarget,
    SimilarityTriple,
    dominant_target,
    geodesic_distance,
    similarity,
    similarity_triple,
)
from .matrices import (
    CoherencyMatrix,
    KennaughMatrix,
    PauliVector,
    SinclairMatrix,
    coherency_from_pauli,
    kennaugh_from_coherency,
    kennaugh_from_sinclair,
    pauli_from_sinclair,
    span,
)
from .pipeline import (
    ClassifyResult,
    PipelineConfig,
    classify_raster,
    run_classify,
    run_generate,
    run_similarity,
)
from .preprocess import (
    PreprocessConfig,
    deorient,
    deorient_raster,
    multilook,
    orientation_angle,
    speckle_filter,
)
from .raster import PolsarRaster
from .render import ClassEntry, class_color, render_map
from .scene import (
    Region,
    SceneHeader,
    SyntheticSceneSpec,
    generate_scene,
    parse_scene_spec,
    read_scene,
    write_scene,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # matrices
    "SinclairMatrix",
    "PauliVector",
    "CoherencyMatrix",
    "KennaughMatrix",
    "pauli_from_sinclair",
    "coherency_from_pauli",
    "kennaugh_from_sinclair",
    "kennaugh_from_coherency",
    "span",
    # geodesic
    "CanonicalTarget",
    "TRIHEDRAL",
    "DIHEDRAL",
    "RANDOM_VOLUME",
    "DEFAULT_TARGETS",
    "SimilarityTriple",
    "geodesic_distance",
    "similarity",
    "similarity_triple",
    "dominant_target",
    # preprocess
    "PreprocessConfig",
    "orientation_angle",
    "deorient",
    "deorient_raster",
    "speckle_filter",
    "multilook",
    # classify
    "ClassifierConfig",
    "PixelCategory",
    "Cluster",
    "categorize",
    "initial_clusters",
    "merge_clusters",
    "iterate_classification",
    "wishart_pixel_distance",
    "wishart_center_distance",
    # raster / scene / render
    "PolsarRaster",
    "SceneHeader",
    "Region",
    "SyntheticSceneSpec",
    "read_scene",
    "write_scene",
    "parse_scene_spec",
    "generate_scene",
    "ClassEntry",
    "class_color",
    "render_map",
    # pipeline
    "PipelineConfig",
    "ClassifyResult",
    "classify_raster",
    "run_classify",
    "run_similarity",
    "run_generate",
]
