"""Command-line interface.

Three subcommands: generate (synthesize a scene from a spec file),
similarity (per-target similarity maps), classify (full unsupervised
classification). All artifact paths live under the directory given by
--out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .classify import ClassifierConfig
from .pipeline import (
    DUMP_STAGES,
    PipelineConfig,
    run_classify,
    run_generate,
    run_similarity,
)
from .preprocess import PreprocessConfig


def _add_preprocess_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-deorient",
        action="store_true",
        help="skip the orientation-angle compensation stage",
    )
    parser.add_argument(
        "--filter-window",
        type=int,
        default=PreprocessConfig().filter_window,
        metavar="N",
        help="odd boxcar window size; 1 disables filtering (default %(default)s)",
    )
    parser.add_argument(
        "--multilook",
        type=int,
        nargs=2,
        metavar=("RANGE", "AZIMUTH"),
        help="block factors that multilook a Sinclair scene as it is read "
        "(default 1 1; an error on coherency scenes)",
    )


# the classify flags that set a ClassifierConfig field: flag, field, metavar, help
_CLASSIFIER_FLAGS = (
    ("--initial-clusters", "initial_clusters_per_category", "N", "seed clusters per category"),
    ("--classes-per-category", "final_classes_per_category", "N", "final classes per category"),
    ("--max-iterations", "max_iterations", "N", "refinement passes"),
    ("--convergence-fraction", "convergence_fraction", "X",
     "stop once the changed-label fraction drops below X"),
    ("--mixed-threshold", "mixed_threshold", "X", "mixed pixel when max(w)/sum(w) <= X"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geopolsar",
        description="Unsupervised polarimetric SAR classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a scene from a spec file")
    gen.add_argument("spec", type=Path, help="scene spec file")
    gen.add_argument("--out", type=Path, required=True, help="output scene directory")
    gen.add_argument("--seed", type=int, help="override the seed in the spec")

    sim = sub.add_parser("similarity", help="write per-target similarity maps")
    sim.add_argument("scene", type=Path, help="scene directory")
    sim.add_argument("--out", type=Path, required=True, help="output directory")
    _add_preprocess_flags(sim)

    defaults = ClassifierConfig()
    cls = sub.add_parser("classify", help="classify a scene")
    cls.add_argument("scene", type=Path, help="scene directory")
    cls.add_argument("--out", type=Path, required=True, help="output directory")
    _add_preprocess_flags(cls)
    for flag, name, metavar, text in _CLASSIFIER_FLAGS:
        default = getattr(defaults, name)
        cls.add_argument(flag, type=type(default), default=default, dest=name, metavar=metavar,
                         help=f"{text} (default %(default)s)")
    cls.add_argument(
        "--workers",
        type=int,
        default=PipelineConfig.workers,
        metavar="N",
        help="worker threads for distance evaluation (default %(default)s)",
    )
    cls.add_argument(
        "--dump-stage",
        action="append",
        default=[],
        choices=list(DUMP_STAGES) + ["all"],
        metavar="STAGE",
        help=f"dump an intermediate stage (choices: {', '.join(DUMP_STAGES)}, all); repeatable",
    )
    return parser


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    fields = {}
    if args.command == "classify":
        stages = DUMP_STAGES if "all" in args.dump_stage else args.dump_stage
        fields = dict(
            classifier=ClassifierConfig(
                **{name: getattr(args, name) for _, name, _, _ in _CLASSIFIER_FLAGS}
            ),
            workers=args.workers,
            dump_stages=tuple(stages),
        )
    return PipelineConfig(
        preprocess=PreprocessConfig(
            deorient=not args.no_deorient,
            filter_window=args.filter_window,
        ),
        **fields,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            run_generate(args.spec, args.out, seed=args.seed)
        elif args.command == "similarity":
            any_valid = run_similarity(
                args.scene, args.out, _pipeline_config(args), args.multilook
            )
            if not any_valid:
                print(
                    "warning: scene has no valid pixels; maps are empty",
                    file=sys.stderr,
                )
        elif args.command == "classify":
            result = run_classify(
                args.scene, args.out, _pipeline_config(args), args.multilook
            )
            last = result.history[-1] if result.history else {}
            print(
                f"classified {int(result.valid.sum())} pixels into "
                f"{len(result.classes)} classes "
                f"({last.get('iteration', 0)} refinement passes)"
            )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
