import numpy as np
import pytest

from geopolsar.render import MASKED_LABEL, ClassEntry, class_color, render_map


def entry(class_id, category_index, class_index, pixels=10):
    names = ["trihedral", "dihedral", "random_volume"]
    return ClassEntry(
        class_id=class_id,
        category_index=category_index,
        category=names[category_index % 3],
        class_index=class_index,
        pixels=pixels,
        center_trace=0.5 + class_id,
    )


class TestColors:
    def test_lightness_ramp(self):
        # five classes from 35% to full brightness on the category channel
        assert class_color(0, 0, 5) == (0, 0, 89)
        assert class_color(0, 4, 5) == (0, 0, 255)
        assert class_color(1, 4, 5) == (255, 0, 0)
        assert class_color(2, 0, 5) == (0, 89, 0)

    def test_single_class_is_full_brightness(self):
        assert class_color(0, 0, 1) == (0, 0, 255)

    def test_extra_categories_use_two_channel_colors(self):
        assert class_color(3, 0, 1) == (0, 255, 255)  # cyan
        assert class_color(4, 0, 1) == (255, 0, 255)  # magenta
        assert class_color(5, 0, 1) == (255, 255, 0)  # yellow
        assert class_color(6, 0, 1) == (0, 0, 255)  # wraps around

    def test_off_ramp_rejected(self):
        with pytest.raises(ValueError, match="outside ramp"):
            class_color(0, 5, 5)
        with pytest.raises(ValueError, match="outside ramp"):
            class_color(0, -1, 5)


class TestRenderMap:
    def test_ppm_bytes(self, tmp_path):
        labels = np.array([[0, 1, MASKED_LABEL]], dtype=np.uint16)
        classes = [entry(0, 0, 0), entry(1, 1, 4)]
        image = tmp_path / "map.ppm"
        render_map(labels, classes, 5, image)
        payload = image.read_bytes()
        assert payload.startswith(b"P6\n3 1\n255\n")
        pixels = payload[len(b"P6\n3 1\n255\n") :]
        assert pixels == bytes([0, 0, 89, 255, 0, 0, 0, 0, 0])

    def test_legend_contents(self, tmp_path):
        labels = np.array([[0, 1]], dtype=np.uint16)
        classes = [entry(0, 0, 0, pixels=1), entry(1, 2, 2, pixels=1)]
        legend = tmp_path / "legend.csv"
        render_map(labels, classes, 5, tmp_path / "map.ppm", legend)
        lines = legend.read_text().strip().splitlines()
        assert lines[0] == "class_id,category,r,g,b,pixels,center_trace"
        assert lines[1] == "0,trihedral,0,0,89,1,0.5"
        assert lines[2] == "1,random_volume,0,172,0,1,1.5"

    def test_unknown_label_rejected(self, tmp_path):
        labels = np.array([[0, 7]], dtype=np.uint16)
        with pytest.raises(ValueError, match="label 7 has no class entry"):
            render_map(labels, [entry(0, 0, 0)], 5, tmp_path / "map.ppm")
        # labels outside the u16 range neither wrap onto MASKED_LABEL nor index past the table
        for label in (-1, 70000):
            labels = np.array([[0, label]], dtype=np.int64)
            with pytest.raises(ValueError, match=f"label {label} has no class entry"):
                render_map(labels, [entry(0, 0, 0)], 5, tmp_path / "map.ppm")

    @pytest.mark.parametrize("class_id", [-1, MASKED_LABEL, 70000])
    def test_class_id_off_the_label_range_rejected(self, tmp_path, class_id):
        # -1 and MASKED_LABEL would colour the masked pixels, 70000 index past the table
        labels = np.array([[0, MASKED_LABEL]], dtype=np.uint16)
        with pytest.raises(ValueError, match=f"class id {class_id} outside"):
            render_map(labels, [entry(0, 0, 0), entry(class_id, 1, 4)], 5, tmp_path / "map.ppm")
        assert not (tmp_path / "map.ppm").exists()

    def test_masked_pixel_renders_black_beside_the_last_class_id(self, tmp_path):
        labels = np.array([[MASKED_LABEL - 1, MASKED_LABEL]], dtype=np.uint16)
        render_map(labels, [entry(MASKED_LABEL - 1, 1, 4)], 5, tmp_path / "map.ppm")
        assert (tmp_path / "map.ppm").read_bytes().endswith(bytes([255, 0, 0, 0, 0, 0]))

    def test_byte_identical_rerenders(self, tmp_path):
        rng = np.random.default_rng(81)
        labels = rng.integers(0, 3, size=(16, 9)).astype(np.uint16)
        classes = [entry(i, i % 3, i % 5) for i in range(3)]
        render_map(labels, classes, 5, tmp_path / "a.ppm", tmp_path / "a.csv")
        render_map(labels, classes, 5, tmp_path / "b.ppm", tmp_path / "b.csv")
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    def test_non_2d_labels_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2D"):
            render_map(np.zeros(4, dtype=np.uint16), [], 5, tmp_path / "x.ppm")
