"""End-to-end command line tests on small scenes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geopolsar.classify import ClassifierConfig
from geopolsar.cli import main
from geopolsar.pipeline import PipelineConfig, classify_raster
from geopolsar.preprocess import multilook
from geopolsar.raster import KIND_SINCLAIR, PolsarRaster
from geopolsar.render import MASKED_LABEL
from geopolsar.scene import read_scene, write_scene

from conftest import DEMO_SPEC, random_sinclair_stack


def single_look_scene(tmp_path, seed):
    """A 16x16 float64 S2 scene with four masked pixels, and its raster."""
    s = random_sinclair_stack(np.random.default_rng(seed), 16 * 16).reshape(16, 16, 2, 2)
    mask = np.ones((16, 16), dtype=bool)
    mask[5, 3:7] = False
    raster = PolsarRaster(KIND_SINCLAIR, s, mask)
    write_scene(raster, tmp_path / "slc", dtype="float64")
    return raster, tmp_path / "slc"


@pytest.fixture(scope="module")
def classified(demo_scene, tmp_path_factory):
    out = tmp_path_factory.mktemp("cls")
    assert main(["classify", str(demo_scene), "--out", str(out)]) == 0
    return out


def read_labels(path):
    header = dict(
        line.split(" = ") for line in (path / "labels.hdr").read_text().splitlines()
    )
    rows, cols = int(header["rows"]), int(header["cols"])
    labels = np.fromfile(path / "labels.bin", dtype="<u2").reshape(rows, cols)
    return labels, header


class TestGenerate:
    def test_writes_a_readable_scene(self, demo_scene):
        raster = read_scene(demo_scene)
        assert raster.shape == (128, 128)
        assert raster.looks == 25.0
        assert raster.mask.all()
        header = (demo_scene / "header.txt").read_text()
        assert "kind = T3" in header
        assert "dtype = float32" in header

    def test_seed_override_changes_the_scene(self, tmp_path):
        for seed, name in ((None, "a"), (123, "b")):
            args = ["generate", str(DEMO_SPEC), "--out", str(tmp_path / name)]
            if seed is not None:
                args += ["--seed", str(seed)]
            assert main(args) == 0
        a = (tmp_path / "a" / "T11.bin").read_bytes()
        b = (tmp_path / "b" / "T11.bin").read_bytes()
        assert a != b

    def test_rejects_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("rows = 4\ncols = 4\nlooks = 1\nseed = 1\n")
        code = main(["generate", str(spec), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestClassify:
    def test_artifacts_exist_and_are_consistent(self, classified):
        labels, header = read_labels(classified)
        assert labels.shape == (128, 128)
        assert header["masked"] == str(MASKED_LABEL)
        assert header["dtype"] == "uint16"

        legend_lines = (classified / "legend.csv").read_text().strip().splitlines()
        assert legend_lines[0] == "class_id,category,r,g,b,pixels,center_trace"
        class_ids = []
        pixel_counts = []
        for line in legend_lines[1:]:
            fields = line.split(",")
            class_ids.append(int(fields[0]))
            pixel_counts.append(int(fields[5]))
        assert class_ids == sorted(class_ids)
        assert int(header["classes"]) == len(class_ids)

        present = set(np.unique(labels)) - {MASKED_LABEL}
        assert present <= set(class_ids)
        assert sum(pixel_counts) == int((labels != MASKED_LABEL).sum())

        ppm = (classified / "map.ppm").read_bytes()
        assert ppm.startswith(b"P6\n128 128\n255\n")
        assert len(ppm) == len(b"P6\n128 128\n255\n") + 128 * 128 * 3

        records = [
            json.loads(line)
            for line in (classified / "report.jsonl").read_text().splitlines()
        ]
        assert records[0]["iteration"] == 0
        assert all("objective" in r and "clusters" in r for r in records)

    def test_rerun_is_byte_identical(self, demo_scene, classified, tmp_path):
        out = tmp_path / "again"
        assert main(["classify", str(demo_scene), "--out", str(out)]) == 0
        for name in ("labels.bin", "map.ppm", "legend.csv", "report.jsonl"):
            assert (out / name).read_bytes() == (classified / name).read_bytes()

    def test_worker_flag_does_not_change_labels(self, demo_scene, classified, tmp_path):
        out = tmp_path / "mt"
        assert main(
            ["classify", str(demo_scene), "--out", str(out), "--workers", "4"]
        ) == 0
        assert (out / "labels.bin").read_bytes() == (
            classified / "labels.bin"
        ).read_bytes()

    def test_every_artifact_is_identical_for_1_and_4_workers(self, demo_scene, tmp_path):
        from geopolsar.pipeline import DUMP_STAGES, PipelineConfig, run_classify

        trees = []
        for workers in (1, 4):
            out = tmp_path / f"w{workers}"
            config = PipelineConfig(workers=workers, dump_stages=DUMP_STAGES)
            run_classify(demo_scene, out, config)
            files = sorted(p for p in out.rglob("*") if p.is_file())
            trees.append({str(p.relative_to(out)): p.read_bytes() for p in files})
        assert "report.jsonl" in trees[0]
        assert "stages/stage_merge/labels_initial.bin" in trees[0]
        assert trees[0] == trees[1]

    def test_every_artifact_is_identical_across_blas_threads(self, demo_scene, tmp_path):
        # distances go through BLAS matrix products; neither its thread count
        # nor the worker count may change a byte
        src = str(Path(__file__).resolve().parents[1] / "src")
        trees = []
        for blas in ("1", "2"):
            for workers in ("1", "2"):
                out = tmp_path / f"blas{blas}_w{workers}"
                path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
                env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, PYTHONPATH=path)
                args = [sys.executable, "-m", "geopolsar.cli", "classify", str(demo_scene)]
                args += ["--out", str(out), "--dump-stage", "all", "--workers", workers]
                subprocess.run(args, env=env, check=True, timeout=300)
                files = sorted(p for p in out.rglob("*") if p.is_file())
                trees.append({str(p.relative_to(out)): p.read_bytes() for p in files})
        assert "stages/stage_merge/labels_initial.bin" in trees[0]
        assert all(tree == trees[0] for tree in trees[1:])

    def test_zero_iterations_match_the_merge_stage(self, demo_scene, tmp_path):
        out = tmp_path / "it0"
        assert main(
            [
                "classify",
                str(demo_scene),
                "--out",
                str(out),
                "--max-iterations",
                "0",
                "--dump-stage",
                "merge",
            ]
        ) == 0
        labels, _ = read_labels(out)
        merge = np.fromfile(
            out / "stages" / "stage_merge" / "labels_initial.bin", dtype="<u2"
        ).reshape(128, 128)
        # final ids are a pure relabeling of the merge-stage cluster ids
        assert ((labels == MASKED_LABEL) == (merge == MASKED_LABEL)).all()
        pairs = {(m, f) for m, f in zip(merge.ravel(), labels.ravel())}
        merge_to_final = {}
        for m, f in pairs:
            assert merge_to_final.setdefault(m, f) == f
        finals = list(merge_to_final.values())
        assert len(set(finals)) == len(finals)

    def test_filter_stage_dump_recomposes_the_labels(self, demo_scene, tmp_path):
        first = tmp_path / "first"
        assert main(
            [
                "classify",
                str(demo_scene),
                "--out",
                str(first),
                "--dump-stage",
                "filter",
            ]
        ) == 0
        second = tmp_path / "second"
        assert main(
            [
                "classify",
                str(first / "stages" / "stage_filter"),
                "--out",
                str(second),
                "--no-deorient",
                "--filter-window",
                "1",
            ]
        ) == 0
        assert (second / "labels.bin").read_bytes() == (
            first / "labels.bin"
        ).read_bytes()
        assert (second / "legend.csv").read_bytes() == (
            first / "legend.csv"
        ).read_bytes()

    def test_dump_all_writes_every_stage(self, demo_scene, tmp_path):
        out = tmp_path / "dumps"
        assert main(
            ["classify", str(demo_scene), "--out", str(out), "--dump-stage", "all"]
        ) == 0
        stages = out / "stages"
        assert (stages / "stage_deorient" / "header.txt").exists()
        assert (stages / "stage_filter" / "header.txt").exists()
        assert (stages / "stage_similarity" / "f_trihedral.f64").exists()
        assert (stages / "stage_category" / "category.u8").exists()
        assert (stages / "stage_merge" / "labels_initial.bin").exists()
        category = np.fromfile(stages / "stage_category" / "category.u8", np.uint8)
        assert set(np.unique(category)) <= {0, 1, 2, 0xFF}

    def test_multilook_classifies_single_look_scenes(self, tmp_path):
        rng = np.random.default_rng(91)
        s = random_sinclair_stack(rng, 64).reshape(8, 8, 2, 2)
        scene = tmp_path / "slc"
        write_scene(PolsarRaster(KIND_SINCLAIR, s), scene, dtype="float64")
        out = tmp_path / "out"
        code = main(
            [
                "classify",
                str(scene),
                "--out",
                str(out),
                "--multilook",
                "2",
                "2",
                "--filter-window",
                "1",
                "--initial-clusters",
                "4",
                "--classes-per-category",
                "2",
            ]
        )
        assert code == 0
        labels, header = read_labels(out)
        assert labels.shape == (4, 4)

    def test_single_look_scene_without_multilook(self, tmp_path):
        """Without --multilook an S2 scene is read as multilook(raster, 1, 1)."""
        raster, scene = single_look_scene(tmp_path, 93)
        classifier = ClassifierConfig(initial_clusters_per_category=4, final_classes_per_category=2)
        config = PipelineConfig(classifier=classifier, workers=2)
        expected = classify_raster(multilook(raster, 1, 1), config)
        out = tmp_path / "out"
        argv = ["classify", str(scene), "--out", str(out), "--workers", "2"]
        assert main(argv + ["--initial-clusters", "4", "--classes-per-category", "2"]) == 0
        assert (out / "labels.bin").read_bytes() == expected.labels.astype("<u2").tobytes()
        report = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        assert report == json.loads(json.dumps(expected.history))
        assert (expected.labels == MASKED_LABEL).sum() == 4

    @pytest.mark.parametrize("command", ["classify", "similarity"])
    def test_multilook_on_a_coherency_scene_fails_cleanly(
        self, demo_scene, tmp_path, capsys, command
    ):
        argv = [command, str(demo_scene), "--out", str(tmp_path / "o")]
        assert main(argv + ["--multilook", "4", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "multilook" in err

    def test_missing_scene_fails_cleanly(self, tmp_path, capsys):
        code = main(["classify", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_values_fail_cleanly(self, demo_scene, tmp_path, capsys):
        code = main(
            [
                "classify",
                str(demo_scene),
                "--out",
                str(tmp_path / "o"),
                "--filter-window",
                "4",
            ]
        )
        assert code == 1
        assert "odd" in capsys.readouterr().err

    def test_hostile_header_values_fail_cleanly_or_classify(self, demo_scene, tmp_path, capsys):
        # each of the demo header's 11 fields set to each hostile value: a run
        # either exits 1 with a one-line error or classifies
        hostile = ["0", "-1", "1e12", "nan", "inf", "-inf", "", "1.5", "abc", "T3 extra",
                   "float16", "S2", "0x10", "12345678901234567890", "1_0", " 128", "1e-320"]
        scene = tmp_path / "scene"
        shutil.copytree(demo_scene, scene)
        lines = (demo_scene / "header.txt").read_text().splitlines()
        assert len(lines) == 11
        accepted = set()
        for index, line in enumerate(lines):
            field = line.split(" = ")[0]
            for value in hostile:
                edited = lines[:index] + [f"{field} = {value}"] + lines[index + 1 :]
                (scene / "header.txt").write_text("\n".join(edited) + "\n")
                code = main(["classify", str(scene), "--out", str(tmp_path / "out")])
                out, err = capsys.readouterr()
                if code == 0:
                    assert out.startswith("classified") and not err
                    accepted.add((field, value))
                else:
                    assert code == 1 and err.startswith("error:") and err.count("\n") == 1
        # the values the reader parses as valid; looks = inf is intended among
        # them, because no stage reads looks to classify (a stage dump's
        # header only writes it back)
        looks = ["1e12", "inf", "1.5", "12345678901234567890", "1_0", " 128", "1e-320"]
        assert accepted == {("rows", " 128"), ("cols", " 128")} | {("looks", v) for v in looks}

    def test_seed_ids_must_fit_the_label_dtype(self, demo_scene, tmp_path, capsys):
        from geopolsar.classify import ClassifierConfig
        from geopolsar.pipeline import PipelineConfig

        # three targets: seed ids 0 .. 3k - 1 must stay below the masked id
        PipelineConfig(
            classifier=ClassifierConfig(initial_clusters_per_category=21845)
        )
        with pytest.raises(ValueError, match="label ids"):
            PipelineConfig(
                classifier=ClassifierConfig(initial_clusters_per_category=21846)
            )
        argv = ["classify", str(demo_scene), "--out", str(tmp_path / "o")]
        assert main(argv + ["--initial-clusters", "21846"]) == 1
        assert "label ids" in capsys.readouterr().err

    def test_unknown_stage_is_an_argparse_error(self, demo_scene, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "classify",
                    str(demo_scene),
                    "--out",
                    str(tmp_path / "o"),
                    "--dump-stage",
                    "sideways",
                ]
            )


class TestSimilarity:
    def test_maps_and_rasters(self, demo_scene, tmp_path):
        out = tmp_path / "sim"
        assert main(["similarity", str(demo_scene), "--out", str(out)]) == 0
        for name in ("trihedral", "dihedral", "random_volume"):
            pgm = (out / f"f_{name}.pgm").read_bytes()
            assert pgm.startswith(b"P5\n128 128\n255\n")
            assert len(pgm) == len(b"P5\n128 128\n255\n") + 128 * 128
            for prefix in ("f", "gamma", "w"):
                raw = np.fromfile(out / f"{prefix}_{name}.f32", dtype="<f4")
                assert raw.shape == (128 * 128,)

        f_tri = np.fromfile(out / "f_trihedral.f32", dtype="<f4").reshape(128, 128)
        f_rv = np.fromfile(out / "f_random_volume.f32", dtype="<f4").reshape(128, 128)
        interior = (slice(3, 125), slice(3, 40))  # inside the odd-bounce strip
        assert f_tri[interior].min() > 0.95
        assert 0.55 < f_rv[interior].mean() < 0.65
        assert f_rv[interior].min() > 0.55 and f_rv[interior].max() < 0.65

        pgm_pixels = np.frombuffer(
            (out / "f_trihedral.pgm").read_bytes()[len(b"P5\n128 128\n255\n") :],
            dtype=np.uint8,
        ).reshape(128, 128)
        assert pgm_pixels[interior].min() >= 243  # 0.95 * 255

    def test_all_masked_scene_warns_but_succeeds(self, tmp_path, capsys):
        scene = tmp_path / "masked"
        data = np.zeros((2, 3, 3, 3), complex)
        raster = PolsarRaster("coherency", data, np.zeros((2, 3), bool))
        write_scene(raster, scene)
        out = tmp_path / "sim"
        assert main(["similarity", str(scene), "--out", str(out)]) == 0
        assert "no valid pixels" in capsys.readouterr().err
        pgm = (out / "f_trihedral.pgm").read_bytes()
        assert pgm.endswith(bytes(6))  # all-black map
        raw = np.fromfile(out / "w_dihedral.f32", dtype="<f4")
        assert np.isnan(raw).all()

    def test_a_span_beyond_float32_fails_cleanly(self, demo_scene, tmp_path, capsys):
        # a float64 scene holds it, but w is the span and its raster is float32
        raster = read_scene(demo_scene)
        raster.data[60, 70, 0] = 1e40  # T11
        write_scene(raster, tmp_path / "big", dtype="float64")
        argv = ["similarity", str(tmp_path / "big"), "--out", str(tmp_path / "sim")]
        assert main(argv + ["--filter-window", "1"]) == 1
        assert "w_trihedral.f32: finite values beyond the float32 range" in capsys.readouterr().err


    def test_single_look_scene_without_multilook(self, tmp_path):
        """Without --multilook an S2 scene is read as multilook(raster, 1, 1)."""
        raster, scene = single_look_scene(tmp_path, 94)
        # a float64 T3 scene reads back as the in-memory raster, bit for bit
        write_scene(multilook(raster, 1, 1), tmp_path / "t3", dtype="float64")
        for name in ("slc", "t3"):
            argv = ["similarity", str(tmp_path / name), "--out", str(tmp_path / f"sim_{name}")]
            assert main(argv) == 0
        files = sorted(p.name for p in (tmp_path / "sim_t3").iterdir())
        assert len(files) == 12
        assert sorted(p.name for p in (tmp_path / "sim_slc").iterdir()) == files
        for name in files:
            expected = (tmp_path / "sim_t3" / name).read_bytes()
            assert (tmp_path / "sim_slc" / name).read_bytes() == expected, name


class TestClassifyAndSimilarityAgree:
    """The similarity command's float32 rasters are the classify run's
    full-precision similarity dump cast to float32."""

    def check(self, scene, tmp_path, *flags):
        cls, sim = tmp_path / "cls", tmp_path / "sim"
        args = [str(scene), *flags]
        dump = ["--dump-stage", "similarity"]
        assert main(["classify", *args, "--out", str(cls), *dump]) == 0
        assert main(["similarity", *args, "--out", str(sim)]) == 0
        dumped = cls / "stages" / "stage_similarity"
        for name in ("trihedral", "dihedral", "random_volume"):
            for prefix in ("f", "gamma", "w"):
                full = np.fromfile(dumped / f"{prefix}_{name}.f64", dtype="<f8")
                single = (sim / f"{prefix}_{name}.f32").read_bytes()
                assert full.size and full.astype("<f4").tobytes() == single

    def test_demo_scene(self, demo_scene, tmp_path):
        self.check(demo_scene, tmp_path)

    def test_multilooked_single_look_scene(self, tmp_path):
        rng = np.random.default_rng(92)
        s = random_sinclair_stack(rng, 32 * 32).reshape(32, 32, 2, 2)
        mask = np.ones((32, 32), dtype=bool)
        mask[4:6, 6:8] = False  # one whole 2x2 block: a masked output pixel
        scene = tmp_path / "slc"
        write_scene(PolsarRaster(KIND_SINCLAIR, s, mask), scene)
        self.check(scene, tmp_path, "--multilook", "2", "2")
        f = np.fromfile(tmp_path / "sim" / "f_dihedral.f32", dtype="<f4")
        assert np.isnan(f.reshape(16, 16)[2, 3])
