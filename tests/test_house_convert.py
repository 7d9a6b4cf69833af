import logging

import pytest
from hypothesis import given, strategies as st

from roomsense.cli import main
from roomsense.house_convert import (
    REGION_LETTER_LABELS,
    ROOM_LABEL_LIST,
    _aabb_of_oriented_box,
    load_category_map,
    parse_house_file,
)
from roomsense.ingest import (
    DROPPED_ROOM_LABELS,
    IngestConfig,
    ParseError,
    parse_scene_file,
    run_pipeline,
)
from roomsense.scene_model import normalize_label

from conftest import object_by_id

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
        obj = object_by_id(graph)["testhouse/O0"]
        assert obj.assigned_room == "testhouse/R0"
        assert obj.label_per_space == {"mpcat40": "toilet", "rawcategory": "toilet"}

    def test_hash_means_space_in_names(self, house_path):
        graph = parse_house_file(house_path)
        obj = object_by_id(graph)["testhouse/O1"]
        assert obj.label_per_space["rawcategory"] == "kitchen counter"

    def test_unassigned_object_skipped(self, house_path):
        graph = parse_house_file(house_path)
        assert "testhouse/O3" not in object_by_id(graph)

    def test_oriented_box_becomes_axis_aligned_hull(self, house_path):
        graph = parse_house_file(house_path)
        bbox = object_by_id(graph)["testhouse/O1"].bbox
        half = 1.5 * 0.707107  # |a0|*r0 + |a1|*r1 projected on x (and y)
        assert bbox.min_corner[0] == pytest.approx(5.0 - half, abs=1e-6)
        assert bbox.max_corner[1] == pytest.approx(5.0 + half, abs=1e-6)
        assert bbox.min_corner[2] == pytest.approx(0.0, abs=1e-5)
        assert bbox.max_corner[2] == pytest.approx(2.0, abs=1e-5)
        # exact floats: scene files store corners by repr, so any change in
        # the order of the hull arithmetic would change their bytes
        assert bbox.min_corner == (3.9393395, 3.9393395, -6.188980001819999e-07)
        assert bbox.max_corner == (6.0606605, 6.0606605, 2.0000006188980004)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=12, max_size=12))
    def test_hull_matches_the_per_axis_loop(self, values):
        center, axis0, axis1, radii = (values[i:i + 3] for i in range(0, 12, 3))
        (x0, y0, z0), (x1, y1, z1) = axis0, axis1
        axis2 = (y0 * z1 - z0 * y1, z0 * x1 - x0 * z1, x0 * y1 - y0 * x1)
        r0, r1, r2 = (abs(r) for r in radii)
        half = [
            r0 * abs(u) + r1 * abs(v) + r2 * abs(w) for u, v, w in zip(axis0, axis1, axis2)
        ]
        bbox = _aabb_of_oriented_box(tuple(values))
        assert bbox.min_corner == tuple(c - h for c, h in zip(center, half))
        assert bbox.max_corner == tuple(c + h for c, h in zip(center, half))

    def test_room_space_is_full_declared_list(self, house_path):
        graph = parse_house_file(house_path)
        assert graph.room_space.labels == ROOM_LABEL_LIST
        # the region table's 23 kept labels, sorted, then the 4 that ingest drops
        kept = ROOM_LABEL_LIST[:-len(DROPPED_ROOM_LABELS)]
        assert len(kept) == 23 and list(kept) == sorted(kept)
        assert ROOM_LABEL_LIST[len(kept):] == DROPPED_ROOM_LABELS
        assert set(ROOM_LABEL_LIST) == set(REGION_LETTER_LABELS.values())

    def test_category_map_renames_fine_space(self, house_path, tmp_path):
        map_path = tmp_path / "mapping.tsv"
        map_path.write_text(CATEGORY_MAP)
        graph = parse_house_file(house_path, category_map=load_category_map(map_path))
        obj = object_by_id(graph)["testhouse/O1"]
        assert obj.label_per_space["nyuclass"] == "counter"

    def test_objects_of_one_category_share_one_label_map(self, tmp_path):
        path = tmp_path / "testhouse.house"
        path.write_text(HOUSE_TEXT + "".join(
            f"O {i} 0 {category} 1.5 1.5 0.5 1 0 0 0 1 0 0.2 0.2 0.2 0 0 0 0 0 0 0 0\n"
            for i, category in ((4, 0), (5, 9), (6, 9))
        ))
        by_id = object_by_id(parse_house_file(path))
        assert by_id["testhouse/O4"].label_per_space is by_id["testhouse/O0"].label_per_space
        unlabeled = by_id["testhouse/O5"].label_per_space
        assert unlabeled == {"mpcat40": "unlabeled", "rawcategory": "unlabeled"}
        assert by_id["testhouse/O6"].label_per_space is unlabeled

    def test_dash_and_empty_names_are_unlabeled_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "testhouse.house"
        path.write_text(
            HOUSE_TEXT + "\n   \n"
            "C 3 13 - 40 # 0 0 0 0 0\n"
            "O 4 0 3 1.5 1.5 0.5 1 0 0 0 1 0 0.2 0.2 0.2 0 0 0 0 0 0 0 0\n"
        )
        obj = object_by_id(parse_house_file(path))["testhouse/O4"]
        assert obj.label_per_space == {"mpcat40": "unlabeled", "rawcategory": "unlabeled"}

    @pytest.mark.parametrize("record, message", [
        ("R 3 0 0 0 a 1.0", "need 15+ tokens, got 7"),
        ("C 3 13 lamp 20", "need 6+ tokens, got 5"),
        ("O 4 0 0 1.5 1.5 0.5", "need 16+ tokens, got 7"),
    ], ids=["region", "category", "object"])
    def test_short_record_names_the_line(self, tmp_path, record, message):
        path = tmp_path / "short.house"
        path.write_text(HOUSE_TEXT + record + "\n")
        with pytest.raises(ParseError) as caught:
            parse_house_file(path)
        lineno = len(HOUSE_TEXT.splitlines()) + 1
        assert str(caught.value) == f"{path}:{lineno}: malformed {record[0]!r} record: {message}"

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "broken.house"
        path.write_text("R 0 0 0 0 a 1.0\n")
        with pytest.raises(ParseError):
            parse_house_file(path)

    def test_bad_number_in_object_record(self, tmp_path):
        path = tmp_path / "broken.house"
        lines = HOUSE_TEXT.splitlines()
        # O 1: the second axis's y component is not a number
        lines[10] = lines[10].replace(" -0.707107 0.707107 ", " -0.707107 0.7o7107 ")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as caught:
            parse_house_file(path)
        assert str(caught.value) == (
            f"{path}:11: malformed 'O' record: could not convert string to float: '0.7o7107'"
        )

    @pytest.mark.parametrize("lineno, record", [
        (6, "R 0 0 0 0 k 6.0 6.0 1.5 4 0 0 10 10 3 3.0 0 0 0 0"),
        (8, "C 0 10 bathtub 18 bathtub 0 0 0 0 0"),
        (13, "O 2 1 2 8.0 8.0 1.0 1 0 0 0 1 0 0.5 0.5 1.0 0 0 0 0 0 0 0 0"),
    ], ids=["region", "category", "object"])
    def test_repeated_index_names_the_line(self, tmp_path, lineno, record):
        path = tmp_path / "twice.house"
        lines = HOUSE_TEXT.splitlines()
        lines.insert(lineno - 1, record)
        path.write_text("\n".join(lines) + "\n")
        kind, index = record.split()[:2]
        name = {"R": "region", "C": "category", "O": "object"}[kind]
        with pytest.raises(ParseError) as caught:
            parse_house_file(path)
        assert str(caught.value) == (
            f"{path}:{lineno}: malformed {kind!r} record: duplicate {name} index {index}"
        )

    def test_unknown_region_code_warning_names_the_line(self, tmp_path, caplog):
        path = tmp_path / "odd.house"
        path.write_text(HOUSE_TEXT.replace("R 1 0 0 0 k ", "R 1 0 0 0 Q "))
        with caplog.at_level(logging.WARNING, logger="roomsense.house_convert"):
            graph = parse_house_file(path)
        assert graph.room_by_id()["testhouse/R1"].gt_label == "none"
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:5: unknown region code 'Q', using 'none'",
            "skipping testhouse/O3: no region assignment",
        ]

    def test_every_letter_maps_to_declared_label(self):
        for label in REGION_LETTER_LABELS.values():
            assert label in ROOM_LABEL_LIST
            # parse_house_file takes the table's labels as they are
            assert normalize_label(label) == label


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

    def test_house_line_after_the_regions(self, tmp_path):
        # rooms take the file stem current at their R lines; their objects
        # must name those rooms, not rooms of the later H name
        lines = HOUSE_TEXT.splitlines()
        house_line = lines.pop(1).replace("testhouse", "renamed", 1)
        last_region = max(i for i, line in enumerate(lines) if line.startswith("R "))
        lines.insert(last_region + 1, house_line)
        house = tmp_path / "late_h.house"
        house.write_text("\n".join(lines) + "\n")
        graph = parse_house_file(house)
        room_ids = {room.id for room in graph.rooms}
        assert room_ids == {"late_h/R0", "late_h/R1", "late_h/R2"}
        assert len(graph.objects) == 3
        assert all(obj.assigned_room in room_ids for obj in graph.objects)
        scene, clean = tmp_path / "scene.txt", tmp_path / "clean.txt"
        assert main(["convert", "--house", str(house), "--out", str(scene)]) == 0
        assert main(["ingest", "--scene", str(scene), "--out", str(clean)]) == 0

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

    def test_category_map_skips_blank_rows_and_rows_without_a_class(self, house_path, tmp_path):
        path = tmp_path / "mapping.tsv"
        lines = CATEGORY_MAP.replace("kitchen counter\tcounter", "kitchen counter\t").splitlines()
        lines.insert(1, "")
        path.write_text("\n".join(lines) + "\n\n")
        mapping = load_category_map(path)
        assert mapping == {10: "toilet", 12: "refridgerator"}
        graph = parse_house_file(house_path, category_map=mapping)
        # a category the map gives no class keeps its raw name
        assert object_by_id(graph)["testhouse/O1"].label_per_space["nyuclass"] == "kitchen counter"

    @pytest.mark.parametrize("text, where, message", [
        ("", "", "empty category mapping file"),
        (CATEGORY_MAP + "13\tlamp\n", ":5", "short row"),
    ], ids=["empty", "short-row"])
    def test_malformed_category_map_names_file_and_line(self, tmp_path, text, where, message):
        path = tmp_path / "mapping.tsv"
        path.write_text(text)
        with pytest.raises(ParseError) as caught:
            load_category_map(path)
        assert str(caught.value) == f"{path}{where}: {message}"

    def test_category_index_that_is_not_an_integer(self, tmp_path):
        path = tmp_path / "mapping.tsv"
        path.write_text(CATEGORY_MAP + "x\tlamp\tlamp\n")
        with pytest.raises(ParseError) as caught:
            load_category_map(path)
        assert str(caught.value) == f"{path}:5: category index 'x' is not an integer"

    def test_bad_category_map_is_data_error(self, house_path, tmp_path, capsys):
        map_path = tmp_path / "mapping.tsv"
        map_path.write_text("index\tnyuClass\nx\tlamp\n")
        out = tmp_path / "scene.txt"
        assert main([
            "convert", "--house", str(house_path), "--out", str(out),
            "--category-map", str(map_path),
        ]) == 2
        assert f"data error: {map_path}:2: category index 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_map_columns(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n1\t2\n")
        with pytest.raises(ParseError):
            load_category_map(path)
