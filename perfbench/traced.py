"""Traced in-process run of one geopolsar CLI command.

Usage: ``python3 perfbench/traced.py SPANS_JSON -- <geopolsar cli args>``.

Times ``import geopolsar.cli``, then wraps the module attributes that
``geopolsar.pipeline`` (and ``geopolsar.cli``) call, runs ``cli.main`` once
and writes every span plus the per-layer metrics to SPANS_JSON. Spans stay
in memory until the end. Attributes that a version of the package lacks
are skipped and listed under ``unwrapped``; their time then shows as the
caller's self time.

Layers are the package's modules. ``raster`` includes the ``matrices``
kernels it calls; ``pipeline`` is the glue inside ``run_*`` and
``classify_raster`` not covered by a child span. For ``run_similarity``, the
tail after its last child span (PGM quantization and the 12 raster writes)
is the ``pipeline.write`` span.
"""

import time

T0 = time.perf_counter()

import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# (module, attribute, span name); the wrapper is installed on the module
WRAPPED = (
    ("cli", "run_classify", "pipeline.run_classify"),
    ("cli", "run_similarity", "pipeline.run_similarity"),
    ("pipeline", "read_scene", "scene.read_scene"),
    ("pipeline", "multilook", "preprocess.multilook"),
    ("pipeline", "deorient_raster", "preprocess.deorient"),
    ("pipeline", "speckle_filter", "preprocess.filter"),
    ("pipeline", "raster_to_kennaugh", "raster.kennaugh"),
    ("pipeline", "similarity_arrays", "geodesic.similarity"),
    ("pipeline", "classify_raster", "pipeline.classify_raster"),
    ("pipeline", "categorize_arrays", "classify.categorize"),
    ("pipeline", "initial_clusters", "classify.seed"),
    ("pipeline", "merge_clusters", "classify.merge"),
    ("pipeline", "iterate_classification", "classify.iterate"),
    ("pipeline", "render_map", "render.map"),
    ("pipeline", "_write_labels", "pipeline.write"),
    ("pipeline", "_write_report", "pipeline.write"),
)
# spans whose calls are kept for the counts: name -> keep the result too.
# Nothing else is kept, so the traced run frees memory as the untraced one does.
RECORDED = {"scene.read_scene": False, "classify.merge": True, "classify.iterate": True}
LAYERS = ("cli", "scene", "preprocess", "raster", "geodesic", "classify", "render", "pipeline")

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "cli.import_s": ("cli.import",),
    "scene.read_s": ("scene.read_scene",),
    "preprocess.multilook_s": ("preprocess.multilook",),
    "preprocess.deorient_s": ("preprocess.deorient",),
    "preprocess.filter_s": ("preprocess.filter",),
    "raster.kennaugh_s": ("raster.kennaugh",),
    "geodesic.similarity_s": ("geodesic.similarity",),
    "classify.categorize_s": ("classify.categorize",),
    "classify.seed_s": ("classify.seed",),
    "classify.merge_s": ("classify.merge",),
    "classify.iterate_s": ("classify.iterate",),
    "render.map_s": ("render.map",),
    "pipeline.self_s": (
        "pipeline.run_classify",
        "pipeline.run_similarity",
        "pipeline.classify_raster",
    ),
    "pipeline.write_s": ("pipeline.write",),
}


class Tracer:
    """Spans as [name, start, end, parent index], plus call records for counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = {}  # span name in RECORDED -> list of (fn, args, kwargs, result)
        self.counts = {"classify.merge_pair_evals": 0}

    def open(self, name, start=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if name in RECORDED:
                kept = result if RECORDED[name] else None
                self.calls.setdefault(name, []).append((fn, args, kwargs, kept))
            return result

        return wrapper

    def counter(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer):
    import geopolsar.classify
    import geopolsar.cli
    import geopolsar.pipeline

    modules = {"cli": geopolsar.cli, "pipeline": geopolsar.pipeline}
    unwrapped = []
    for module, attr, name in WRAPPED:
        fn = getattr(modules[module], attr, None)
        if fn is None:
            unwrapped.append(f"{module}.{attr}")
            continue
        setattr(modules[module], attr, tracer.wrap(name, fn))
    # merge_clusters looks this name up in its own module on every pair
    fn = getattr(geopolsar.classify, "wishart_center_distance", None)
    if fn is None:
        unwrapped.append("classify.wishart_center_distance")
    else:
        geopolsar.classify.wishart_center_distance = tracer.counter(
            "classify.merge_pair_evals", fn
        )
    return unwrapped


def add_similarity_write_spans(spans):
    """Synthesize pipeline.write as the tail of each run_similarity span."""
    for index, (name, start, end, _) in enumerate(list(spans)):
        if name != "pipeline.run_similarity":
            continue
        last_child_end = max((s[2] for s in spans if s[3] == index), default=start)
        spans.append(["pipeline.write", last_child_end, end, index])


def self_times(spans):
    """Self time per span name: duration minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for index, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[index]
    return out


def bound(call):
    """The recorded call's arguments by parameter name, defaults filled in."""
    fn, args, kwargs, _ = call
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba


def counts(tracer, out_dir):
    """Counts derived from the recorded calls and the written artifacts."""
    import numpy as np  # after the timed import, so it is not counted twice

    result = dict(tracer.counts)
    result["classify.merges"] = sum(
        len(bound(call).arguments["clusters"]) - len(call[3])
        for call in tracer.calls.get("classify.merge", [])
    )
    passes = evals = retired = mixed = pixels = 0
    for call in tracer.calls.get("classify.iterate", []):
        arguments = bound(call).arguments
        n = len(arguments["t"])
        _, clusters, history = call[3]
        passes += len(history) - 1
        # pass 0 and each refinement pass build one (pixels x centers) matrix
        if n and history[0]["clusters"]:
            evals += n * (history[0]["clusters"] + sum(h["clusters"] for h in history[:-1]))
        retired += len(arguments["clusters"]) - len(clusters)
        mixed += int(np.count_nonzero(arguments["mixed"]))
        pixels += n
    result.update(
        {
            "classify.passes": passes,
            "classify.distance_evals": evals,
            "classify.clusters_retired": retired,
            "classify.mixed_fraction": mixed / pixels if pixels else 0.0,
        }
    )
    read_bytes = 0
    for call in tracer.calls.get("scene.read_scene", []):
        scene = Path(bound(call).arguments["path"])
        for line in (scene / "header.txt").read_text().splitlines():
            if line.strip().startswith("component."):
                read_bytes += (scene / line.split("=", 1)[1].strip()).stat().st_size
    result["scene.read_mib"] = read_bytes / 2**20
    result["pipeline.bytes_written"] = sum(
        p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file()
    )
    return result


def iterate_single_thread(tracer):
    """Seconds for the recorded iterate calls, repeated at workers=1."""
    total = 0.0
    for call in tracer.calls.get("classify.iterate", []):
        ba = bound(call)
        ba.arguments["workers"] = 1
        start = time.perf_counter()
        call[0](*ba.args, **ba.kwargs)
        total += time.perf_counter() - start
    return total


def main(argv):
    spans_path = Path(argv[0])
    if argv[1:2] != ["--"]:
        raise SystemExit("usage: traced.py SPANS_JSON -- <geopolsar cli args>")
    cli_args = argv[2:]
    out_dir = cli_args[cli_args.index("--out") + 1]

    tracer = Tracer()
    tracer.open("cli.import", start=T0)
    import geopolsar.cli

    tracer.close()
    unwrapped = install(tracer)
    tracer.open("cli.main")
    try:
        code = geopolsar.cli.main(cli_args)
    finally:
        tracer.close()
    wall = time.perf_counter() - T0

    spans = tracer.spans
    add_similarity_write_spans(spans)
    selfs = self_times(spans)
    metrics = {
        metric: sum(selfs.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    metrics["classify.iterate_w1_s"] = iterate_single_thread(tracer)
    metrics.update(counts(tracer, out_dir))
    top_level = sum(end - start for _, start, end, parent in spans if parent < 0)
    report = {
        "exit_code": code,
        "wall_s": wall,
        "covered_fraction": top_level / wall,
        "self_s": selfs,
        "layer_self_s": {
            layer: sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
            for layer in LAYERS
        },
        "metrics": metrics,
        "unwrapped": unwrapped,
        "spans": [
            {"name": n, "start": s - T0, "end": e - T0, "parent": p} for n, s, e, p in spans
        ],
    }
    spans_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
