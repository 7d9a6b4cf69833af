import pytest

from roomsense.cli import main
from roomsense.house_convert import (
    REGION_LETTER_LABELS,
    ROOM_LABEL_LIST,
    load_category_map,
    parse_house_file,
)
from roomsense.ingest import IngestConfig, ParseError, parse_scene_file, run_pipeline

HOUSE_TEXT = """\
ASCII 1.0
H testhouse - 0 0 0 0 0 4 3 3 0 1 0 0 0 0 0 0 0 0 10 10 3 0 0 0 0 0
L 0 3 - 0.0 0.0 0.0 0 0 0 10 10 3 0 0 0 0 0
R 0 0 0 0 a 2.0 2.0 1.5 0 0 0 4 4 3 3.0 0 0 0 0
R 1 0 0 0 k 6.0 6.0 1.5 4 0 0 10 10 3 3.0 0 0 0 0
R 2 0 0 0 x 22 22 1.5 20 20 0 25 25 3 3.0 0 0 0 0
C 0 10 toilet 18 toilet 0 0 0 0 0
C 1 11 kitchen#counter 26 counter 0 0 0 0 0
C 2 12 refridgerator 37 appliances 0 0 0 0 0
O 0 0 0 1.0 1.0 0.5 1 0 0 0 1 0 0.5 0.4 0.5 0 0 0 0 0 0 0 0
O 1 1 1 5.0 5.0 1.0 0.707107 0.707107 0 -0.707107 0.707107 0 1.0 0.5 1.0 0 0 0 0 0 0 0 0
O 2 1 2 8.0 8.0 1.0 1 0 0 0 1 0 0.5 0.5 1.0 0 0 0 0 0 0 0 0
O 3 -1 0 9 9 9 1 0 0 0 1 0 0.1 0.1 0.1 0 0 0 0 0 0 0 0
"""

CATEGORY_MAP = (
    "index\traw_category\tnyuClass\n"
    "10\ttoilet\ttoilet\n"
    "11\tkitchen counter\tcounter\n"
    "12\trefridgerator\trefridgerator\n"
)


@pytest.fixture
def house_path(tmp_path):
    path = tmp_path / "testhouse.house"
    path.write_text(HOUSE_TEXT)
    return path


class TestParseHouse:
    def test_rooms_and_letter_mapping(self, house_path):
        graph = parse_house_file(house_path)
        by_id = graph.room_by_id()
        assert by_id["testhouse/R0"].gt_label == "bathroom"
        assert by_id["testhouse/R1"].gt_label == "kitchen"
        assert by_id["testhouse/R2"].gt_label == "yard"
        assert by_id["testhouse/R0"].bbox.min_corner == (0.0, 0.0, 0.0)
        assert by_id["testhouse/R0"].bbox.max_corner == (4.0, 4.0, 3.0)

    def test_objects_carry_both_label_spaces(self, house_path):
        graph = parse_house_file(house_path)
        obj = graph.object_by_id()["testhouse/O0"]
        assert obj.assigned_room == "testhouse/R0"
        assert obj.label_per_space == {"mpcat40": "toilet", "rawcategory": "toilet"}

    def test_hash_means_space_in_names(self, house_path):
        graph = parse_house_file(house_path)
        obj = graph.object_by_id()["testhouse/O1"]
        assert obj.label_per_space["rawcategory"] == "kitchen counter"

    def test_unassigned_object_skipped(self, house_path):
        graph = parse_house_file(house_path)
        assert "testhouse/O3" not in graph.object_by_id()

    def test_oriented_box_becomes_axis_aligned_hull(self, house_path):
        graph = parse_house_file(house_path)
        bbox = graph.object_by_id()["testhouse/O1"].bbox
        half = 1.5 * 0.707107  # |a0|*r0 + |a1|*r1 projected on x (and y)
        assert bbox.min_corner[0] == pytest.approx(5.0 - half, abs=1e-6)
        assert bbox.max_corner[1] == pytest.approx(5.0 + half, abs=1e-6)
        assert bbox.min_corner[2] == pytest.approx(0.0, abs=1e-5)
        assert bbox.max_corner[2] == pytest.approx(2.0, abs=1e-5)
        # exact floats: scene files store corners by repr, so any change in
        # the order of the hull arithmetic would change their bytes
        assert bbox.min_corner == (3.9393395, 3.9393395, -6.188980001819999e-07)
        assert bbox.max_corner == (6.0606605, 6.0606605, 2.0000006188980004)

    def test_room_space_is_full_declared_list(self, house_path):
        graph = parse_house_file(house_path)
        assert graph.room_space.labels == ROOM_LABEL_LIST
        # 23 usable labels once outdoor/none are filtered
        assert len([l for l in ROOM_LABEL_LIST if l not in ("yard", "balcony", "porch", "none")]) == 23

    def test_category_map_renames_fine_space(self, house_path, tmp_path):
        map_path = tmp_path / "mapping.tsv"
        map_path.write_text(CATEGORY_MAP)
        graph = parse_house_file(house_path, category_map=load_category_map(map_path))
        obj = graph.object_by_id()["testhouse/O1"]
        assert obj.label_per_space["nyuclass"] == "counter"

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "broken.house"
        path.write_text("R 0 0 0 0 a 1.0\n")
        with pytest.raises(ParseError):
            parse_house_file(path)

    def test_every_letter_maps_to_declared_label(self):
        for label in REGION_LETTER_LABELS.values():
            assert label in ROOM_LABEL_LIST


class TestConvertEndToEnd:
    def test_convert_then_ingest(self, house_path, tmp_path):
        out = tmp_path / "scene.txt"
        assert main(["convert", "--house", str(house_path), "--out", str(out)]) == 0
        raw = parse_scene_file(out)
        assert len(raw.rooms) == 3
        graph = run_pipeline(raw, IngestConfig(), "rawcategory")
        # outdoor yard removed; misspelled fridge fixed by the default table
        assert {r.gt_label for r in graph.rooms} == {"bathroom", "kitchen"}
        labels = {o.label_per_space["rawcategory"] for o in graph.objects}
        assert "refrigerator" in labels
        assert "refridgerator" not in labels

    def test_category_map_flag(self, house_path, tmp_path):
        map_path = tmp_path / "mapping.tsv"
        map_path.write_text(CATEGORY_MAP)
        out = tmp_path / "scene.txt"
        assert main([
            "convert", "--house", str(house_path), "--out", str(out),
            "--category-map", str(map_path),
        ]) == 0
        reparsed = parse_scene_file(out)
        assert reparsed.object_space("nyuclass")
        assert [s.name for s in reparsed.object_spaces] == ["mpcat40", "nyuclass"]

    def test_missing_map_columns(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n1\t2\n")
        with pytest.raises(ParseError):
            load_category_map(path)
