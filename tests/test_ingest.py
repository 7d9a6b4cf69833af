import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from roomsense.ingest import (
    DEFAULT_REJECTED_OBJECT_LABELS,
    DROPPED_ROOM_LABELS,
    DataError,
    IngestConfig,
    ParseError,
    SchemaError,
    apply_spelling_fixes,
    filter_graph,
    load_spelling_fixes,
    merge_graphs,
    parse_scene_file,
    reassign_objects_by_bbox,
    resolve_label_space_conflicts,
    room_label_histogram,
    run_pipeline,
    write_scene_file,
)
from roomsense.scene_model import (
    BoundingBox,
    LabelSpace,
    ObjectNode,
    RoomNode,
    SceneGraph,
)

from conftest import object_by_id, scene_file_text, validate

ROOMS_HEADER = ("bathroom", "bedroom", "kitchen", "living room", "porch", "none")

# One fixture exercising every preprocessing rule: a toilet assigned to the
# living room but physically inside the bathroom, a misspelled refrigerator,
# a fine label mapped to two coarse labels (one rejected), wall/ceiling
# surfaces, a coarse-"object" node with a rich fine label, outdoor and
# unlabeled rooms, a room emptied by filtering, an object contained by no
# room, and an object inside two overlapping rooms.
FIXTURE_ROOMS = [
    ("r-living", "living room", (0, 0, 0), (10, 10, 3)),
    ("r-bath", "bathroom", (10, 0, 0), (14, 6, 3)),
    ("r-porch", "porch", (20, 0, 0), (24, 4, 3)),
    ("r-none", "none", (30, 0, 0), (34, 4, 3)),
    ("r-kitchen", "kitchen", (40, 0, 0), (50, 8, 3)),
    ("r-empty", "bedroom", (60, 0, 0), (64, 4, 3)),
    ("r-ovl-a", "bedroom", (70, 0, 0), (75, 5, 3)),
    ("r-ovl-b", "kitchen", (72, 0, 0), (78, 5, 3)),
]

FIXTURE_OBJECTS = [
    # (id, assigned room, (mpcat40, nyuclass), lo, hi)
    ("o-toilet", "r-living", ("toilet", "toilet"), (11, 1, 0), (12, 2, 1)),
    ("o-sofa", "r-living", ("sofa", "sofa"), (1, 1, 0), (3, 2, 1)),
    ("o-stairs1", "r-living", ("miscellaneous", "stairs"), (5, 5, 0), (6, 6, 1)),
    ("o-pingpong", "r-living", ("object", "ping-pong table"), (7, 7, 0), (8, 8, 1)),
    ("o-nowhere", "r-living", ("table", "table"), (100, 100, 0), (101, 101, 1)),
    ("o-ceiling", "r-bath", ("ceiling", "ceiling"), (11, 4, 2.4), (13, 5, 2.6)),
    ("o-fridge", "r-kitchen", ("appliances", "refridgerator"), (41, 1, 0), (42, 2, 2)),
    ("o-stairs2", "r-kitchen", ("stairs", "stairs"), (45, 5, 0), (46, 6, 1)),
    ("o-wall", "r-kitchen", ("wall", "wall"), (43, 3, 0), (44, 4, 2)),
    ("o-chair-p", "r-porch", ("chair", "chair"), (21, 1, 0), (22, 2, 1)),
    ("o-box-n", "r-none", ("table", "box"), (31, 1, 0), (32, 2, 1)),
    ("o-lamp-e", "r-empty", ("ceiling", "lamp"), (61, 1, 0), (62, 2, 1)),
    ("o-floating", "r-kitchen", ("chair", "chair"), (72.5, 0.5, 0), (73.5, 1.5, 1)),
    ("o-bed-b", "r-ovl-b", ("bed", "bed"), (76.5, 0.5, 0), (77.5, 1.5, 1)),
]


@pytest.fixture
def fixture_path(scene_path):
    return scene_path(FIXTURE_ROOMS, FIXTURE_OBJECTS, room_labels=ROOMS_HEADER)


@pytest.fixture
def raw_graph(fixture_path):
    return parse_scene_file(fixture_path)


def no_fix_config(**overrides):
    return IngestConfig(spelling_fixes={}, **overrides)


class TestParse:
    def test_counts_preserved(self, scene_path):
        rooms = FIXTURE_ROOMS[:3]
        objects = FIXTURE_OBJECTS[:7]
        graph = parse_scene_file(scene_path(rooms, objects, room_labels=ROOMS_HEADER))
        assert len(graph.rooms) == 3
        assert len(graph.objects) == 7

    def test_duplicate_object_id_names_it(self, scene_path):
        objects = [FIXTURE_OBJECTS[0], FIXTURE_OBJECTS[0]]
        path = scene_path(FIXTURE_ROOMS[:2], objects, room_labels=ROOMS_HEADER)
        with pytest.raises(ParseError, match="o-toilet"):
            parse_scene_file(path)

    def test_duplicate_room_id(self, scene_path):
        path = scene_path([FIXTURE_ROOMS[0], FIXTURE_ROOMS[0]], [], room_labels=ROOMS_HEADER)
        with pytest.raises(ParseError, match="r-living"):
            parse_scene_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        for text in ("", "# only a comment\n\n"):
            path.write_text(text)
            with pytest.raises(SchemaError) as caught:
                parse_scene_file(path)
            assert str(caught.value) == f"{path}: no 'scenegraph' header"

    def test_header_without_room_labels_names_line_one(self, tmp_path):
        path = tmp_path / "no-rooms.txt"
        path.write_text("scenegraph\tv1\tspaces=mpcat40\trooms= , \n")
        with pytest.raises(SchemaError) as caught:
            parse_scene_file(path)
        assert str(caught.value) == f"{path}:1: header declares no room labels"

    @pytest.mark.parametrize("rooms", ["bathroom", "Bathroom,bathroom"])
    def test_header_with_one_room_label_names_its_line(self, tmp_path, rooms):
        path = tmp_path / "one-room.txt"
        path.write_text(f"# a comment\nscenegraph\tv1\tspaces=mpcat40\trooms={rooms}\n")
        with pytest.raises(SchemaError) as caught:
            parse_scene_file(path)
        assert str(caught.value) == (
            f"{path}:2: header declares one room label, 'bathroom'; "
            "a room needs at least 2 to choose from"
        )

    @pytest.mark.parametrize("text, lineno, message", [
        ("scenegraph\tv2\tspaces=mpcat40\trooms=bathroom,kitchen", 1,
         "malformed header (need version + spaces + rooms)"),
        ("scenegraph\tv1\tspaces=mpcat40", 1,
         "malformed header (need version + spaces + rooms)"),
        ("scenegraph\tv1\trooms=bathroom,kitchen\tspaces=mpcat40", 1,
         "header needs 'spaces=' and 'rooms=' fields"),
        ("scenegraph\tv1\tspaces= ,\trooms=bathroom,kitchen", 1,
         "header declares no object label spaces"),
        ("scenegraph\tv1\tspaces=mpcat40,Room\trooms=bathroom,kitchen", 1,
         "'room' is reserved for the room space"),
        ("scenegraph\tv1\tspaces=mpcat40,MPCAT40\trooms=bathroom,kitchen", 1,
         "duplicate label-space name"),
        ("scenegraph\tv1\tspaces=mpcat40,nyuclass\trooms=bathroom,kitchen\n"
         "room\tr0\tbathroom\t0\t0\t0\t4\t4\t3\n"
         "object\to0\tr0\ttoilet\t1\t1\t0\t2\t2\t1", 3,
         "object record needs 11 fields, got 10"),
    ], ids=["version", "field-count", "field-order", "no-space", "reserved-space",
            "repeated-space", "object-field-count"])
    def test_malformed_header_or_record_names_its_line(self, tmp_path, text, lineno, message):
        path = tmp_path / "bad.txt"
        path.write_text(text + "\n")
        with pytest.raises(DataError) as caught:
            parse_scene_file(path)
        assert str(caught.value) == f"{path}:{lineno}: {message}"

    def test_equal_label_fields_share_one_map(self, raw_graph, tmp_path):
        maps = {}
        for obj in raw_graph.objects:
            key = tuple(obj.label_per_space.items())
            assert obj.label_per_space is maps.setdefault(key, obj.label_per_space)
        assert len(maps) < len(raw_graph.objects)
        unshared = dataclasses.replace(raw_graph, objects=tuple(
            obj._replace(label_per_space=dict(obj.label_per_space)) for obj in raw_graph.objects
        ))
        assert unshared == raw_graph
        path = tmp_path / "echo.txt"
        write_scene_file(unshared, path)
        assert parse_scene_file(path) == raw_graph

    def test_records_without_header(self, tmp_path):
        path = tmp_path / "headerless.txt"
        path.write_text("room\tr0\tbathroom\t0\t0\t0\t1\t1\t1\n")
        with pytest.raises(SchemaError):
            parse_scene_file(path)

    def test_malformed_record_names_line(self, tmp_path, fixture_path):
        text = fixture_path.read_text() + "room\tr-short\tbathroom\t0\t0\t0\n"
        path = tmp_path / "bad.txt"
        path.write_text(text)
        lineno = len(text.splitlines())
        with pytest.raises(ParseError, match=f":{lineno}"):
            parse_scene_file(path)

    def test_bad_number(self, scene_path):
        path = scene_path(
            [("r0", "bathroom", (0, 0, 0), (1, 1, "oops"))], [], room_labels=ROOMS_HEADER
        )
        with pytest.raises(ParseError, match="bad number"):
            parse_scene_file(path)

    @pytest.mark.parametrize("record, fields", [
        ("room\tr0\tbathroom\t0\t0\t0\t1\t1e\t1",
         "['0', '0', '0', '1', '1e', '1']"),
        ("object\to0\tr0\tsink\tsink\t0\t0\t0\t1\t1\tone",
         "['0', '0', '0', '1', '1', 'one']"),
    ], ids=["room", "object"])
    def test_bad_number_message(self, tmp_path, record, fields):
        path = tmp_path / "bad.txt"
        path.write_text(
            "scenegraph\tv1\tspaces=mpcat40,nyuclass\trooms=bathroom,kitchen\n"
            "# a comment and a blank line count as lines\n\n" + record + "\n"
        )
        with pytest.raises(ParseError) as caught:
            parse_scene_file(path)
        assert str(caught.value) == f"{path}:4: bad number in {fields}"

    @pytest.mark.parametrize("record, fields", [
        ("room\tr0\tbathroom\t0\t0\t0\t1\t-1\t1", "['0', '0', '0', '1', '-1', '1']"),
        ("room\tr0\tbathroom\t0\tnan\t0\t1\t1\t1", "['0', 'nan', '0', '1', '1', '1']"),
        ("object\to0\tr0\tsink\tsink\t0\t0\t2\t1\t1\t1", "['0', '0', '2', '1', '1', '1']"),
    ], ids=["room-inverted", "room-nan", "object-inverted"])
    def test_box_out_of_order_names_its_line(self, tmp_path, record, fields):
        path = tmp_path / "bad.txt"
        path.write_text(
            "scenegraph\tv1\tspaces=mpcat40,nyuclass\trooms=bathroom,kitchen\n" + record + "\n"
        )
        with pytest.raises(ParseError) as caught:
            parse_scene_file(path)
        assert str(caught.value) == f"{path}:2: bbox corners not ordered min <= max in {fields}"

    def test_undeclared_room_label(self, scene_path):
        path = scene_path(
            [("r0", "observatory", (0, 0, 0), (1, 1, 1))], [], room_labels=ROOMS_HEADER
        )
        with pytest.raises(SchemaError, match="observatory"):
            parse_scene_file(path)

    def test_unknown_record_kind(self, tmp_path, fixture_path):
        path = tmp_path / "bad.txt"
        path.write_text(fixture_path.read_text() + "portal\tp0\n")
        with pytest.raises(ParseError, match="portal"):
            parse_scene_file(path)

    def test_labels_normalized_and_spaces_observed(self, raw_graph):
        assert raw_graph.room_space.labels == ROOMS_HEADER
        nyu = raw_graph.object_space("nyuclass")
        assert "refridgerator" in nyu.labels
        assert list(nyu.labels) == sorted(nyu.labels)

    def test_comments_and_blank_lines_ignored(self, tmp_path, fixture_path):
        text = fixture_path.read_text()
        lines = text.splitlines()
        lines.insert(1, "# a comment")
        lines.insert(3, "")
        path = tmp_path / "commented.txt"
        path.write_text("\n".join(lines) + "\n")
        assert parse_scene_file(path) == parse_scene_file(fixture_path)


class TestReassignment:
    def test_toilet_moves_to_bathroom(self, raw_graph):
        graph = reassign_objects_by_bbox(raw_graph)
        toilet = object_by_id(graph)["o-toilet"]
        assert toilet.assigned_room == "r-bath"
        bath, living = (graph.room_by_id()[r] for r in ("r-bath", "r-living"))
        assert toilet in graph.objects_in_room(bath)
        assert toilet not in graph.objects_in_room(living)

    def test_contained_object_unchanged(self, raw_graph):
        graph = reassign_objects_by_bbox(raw_graph)
        assert object_by_id(graph)["o-sofa"].assigned_room == "r-living"

    def test_uncontained_object_keeps_assignment(self, raw_graph):
        graph = reassign_objects_by_bbox(raw_graph)
        assert object_by_id(graph)["o-nowhere"].assigned_room == "r-living"

    def test_overlap_resolved_by_room_id_order(self, raw_graph):
        graph = reassign_objects_by_bbox(raw_graph)
        floating = object_by_id(graph)["o-floating"]
        # brute-force containment over every room
        center = floating.bbox.center
        containers = sorted(
            r.id for r in raw_graph.rooms if r.bbox.contains_point(center)
        )
        assert containers == ["r-ovl-a", "r-ovl-b"]
        assert floating.assigned_room == containers[0]

    def test_idempotent(self, raw_graph):
        once = reassign_objects_by_bbox(raw_graph)
        assert reassign_objects_by_bbox(once) == once

    coordinate = st.floats(-50, 50, allow_nan=False, width=32)

    @given(st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=8),
           st.integers(1, 6))
    def test_contained_objects_end_up_in_containing_rooms(self, centers, n_rooms):
        from roomsense.scene_model import (
            BoundingBox, LabelSpace, ObjectNode, RoomNode, SceneGraph,
        )

        rooms = tuple(
            RoomNode(
                id=f"r{i}",
                gt_label="bathroom",
                bbox=BoundingBox((i * 20.0 - 60, -10.0, -5.0), (i * 20.0 - 40, 10.0, 5.0)),
            )
            for i in range(n_rooms)
        )
        objects = tuple(
            ObjectNode(
                id=f"o{j}",
                label_per_space={"things": "toilet"},
                bbox=BoundingBox(c, c),
                assigned_room="r0",
            )
            for j, c in enumerate(centers)
        )
        graph = SceneGraph(
            rooms=rooms,
            objects=objects,
            room_space=LabelSpace(name="room", labels=("bathroom", "kitchen")),
            object_space_names=("things",),
        )
        moved = reassign_objects_by_bbox(graph)
        rooms_by_id = moved.room_by_id()
        for before, after in zip(graph.objects, moved.objects):
            containers = sorted(
                r.id for r in rooms if r.bbox.contains_point(after.bbox.center)
            )
            if rooms_by_id[before.assigned_room].bbox.contains_point(before.bbox.center):
                assert after.assigned_room == before.assigned_room
            elif containers:
                assert after.assigned_room == containers[0]
            else:
                assert after.assigned_room == before.assigned_room


def _fix_every_object(graph, fixes):
    """The spelling-fix rule applied by rebuilding every object."""
    objects = tuple(
        ObjectNode(
            id=obj.id,
            label_per_space={
                space: fixes.get(label, label)
                for space, label in obj.label_per_space.items()
            },
            bbox=obj.bbox,
            assigned_room=obj.assigned_room,
        )
        for obj in graph.objects
    )
    return dataclasses.replace(graph, objects=objects)


class TestSpellingFixes:
    def test_known_misspelling_corrected(self, raw_graph):
        graph = apply_spelling_fixes(raw_graph, {"refridgerator": "refrigerator"})
        fridge = object_by_id(graph)["o-fridge"]
        assert fridge.label_per_space["nyuclass"] == "refrigerator"
        assert "refrigerator" in graph.object_space("nyuclass").labels
        assert "refridgerator" not in graph.object_space("nyuclass").labels

    def test_unmatched_labels_unchanged(self, raw_graph):
        graph = apply_spelling_fixes(raw_graph, {"refridgerator": "refrigerator"})
        assert object_by_id(graph)["o-sofa"].label_per_space["nyuclass"] == "sofa"

    def test_empty_map_is_identity(self, raw_graph):
        assert apply_spelling_fixes(raw_graph, {}) == raw_graph

    @pytest.mark.parametrize("fixes", [
        {"refridgerator": "refrigerator"},
        {"stairs": "staircase", "chair": "chair", "object": "thing", "absent": "x"},
        {"table": "desk", "box": "crate", "bed": "bunk", "toilet": "wc"},
    ])
    def test_same_graph_as_rebuilding_every_object(self, raw_graph, fixes):
        graph = apply_spelling_fixes(raw_graph, fixes)
        assert graph == _fix_every_object(raw_graph, fixes)
        for before, after in zip(raw_graph.objects, graph.objects):
            if not set(fixes) & set(before.label_per_space.values()):
                assert after is before

    def test_packaged_default_table(self):
        fixes = load_spelling_fixes()
        assert fixes["refridgerator"] == "refrigerator"

    def test_loader(self, tmp_path):
        path = tmp_path / "fixes.tsv"
        path.write_text("# comment\nTeh Chair\tthe chair\n")
        assert load_spelling_fixes(path) == {"teh chair": "the chair"}

    def test_exact_repeats_and_identity_rows_load(self, tmp_path):
        path = tmp_path / "fixes.tsv"
        path.write_text("frige\tfridge\nfridge\tfridge\nFrige\tFridge\n")
        assert load_spelling_fixes(path) == {"frige": "fridge", "fridge": "fridge"}

    def test_second_correction_names_its_line(self, tmp_path):
        path = tmp_path / "fixes.tsv"
        path.write_text("frige\tfridge\n# other\nfrige\trefrigerator\n")
        with pytest.raises(ParseError) as caught:
            load_spelling_fixes(path)
        assert str(caught.value) == f"{path}:3: 'frige' already corrected to 'fridge'"

    @pytest.mark.parametrize("rows", [
        "frige\tfridge\nfridge\trefrigerator\n",
        "fridge\trefrigerator\nfrige\tfridge\n",
    ], ids=["correction-first", "correction-second"])
    def test_chained_corrections_name_the_later_line(self, tmp_path, rows):
        path = tmp_path / "fixes.tsv"
        path.write_text("# header\n" + rows)
        with pytest.raises(ParseError) as caught:
            load_spelling_fixes(path)
        assert str(caught.value) == (
            f"{path}:3: chained correction 'frige' -> 'fridge' -> 'refrigerator'"
        )


class TestConflictResolution:
    def test_stairs_kept_over_miscellaneous(self, raw_graph):
        graph = resolve_label_space_conflicts(raw_graph, "mpcat40", "nyuclass")
        by_id = object_by_id(graph)
        assert by_id["o-stairs1"].label_per_space["mpcat40"] == "stairs"
        assert by_id["o-stairs2"].label_per_space["mpcat40"] == "stairs"

    def test_single_mapping_untouched(self, raw_graph):
        graph = resolve_label_space_conflicts(raw_graph, "mpcat40", "nyuclass")
        assert object_by_id(graph)["o-sofa"].label_per_space["mpcat40"] == "sofa"

    def test_only_relabelled_objects_are_rebuilt(self, raw_graph):
        graph = resolve_label_space_conflicts(raw_graph, "mpcat40", "nyuclass")
        rebuilt = [after.id for before, after in zip(raw_graph.objects, graph.objects)
                   if after is not before]
        assert rebuilt == ["o-stairs1"]

    def test_objects_relabelled_alike_share_one_map(self, scene_path):
        objects = [
            (f"o-{i}", "r-living", labels, (1, 1, 0), (2, 2, 1))
            for i, labels in enumerate([("stairs", "stairs"), ("miscellaneous", "stairs"),
                                        ("Miscellaneous", "stairs")])
        ]
        raw = parse_scene_file(scene_path(FIXTURE_ROOMS[:1], objects, room_labels=ROOMS_HEADER))
        assert raw.objects[1].label_per_space is not raw.objects[2].label_per_space
        graph = resolve_label_space_conflicts(raw, "mpcat40", "nyuclass")
        assert graph.objects[0] is raw.objects[0]
        assert graph.objects[1].label_per_space == {"mpcat40": "stairs", "nyuclass": "stairs"}
        assert graph.objects[2].label_per_space is graph.objects[1].label_per_space


class TestFiltering:
    def prepared(self, raw_graph):
        graph = reassign_objects_by_bbox(raw_graph)
        return resolve_label_space_conflicts(graph, "mpcat40", "nyuclass")

    def test_outdoor_and_none_rooms_removed(self, raw_graph):
        graph = filter_graph(self.prepared(raw_graph), no_fix_config(), "nyuclass")
        ids = {r.id for r in graph.rooms}
        assert "r-porch" not in ids and "r-none" not in ids

    def test_surface_labels_removed_in_both_spaces(self, raw_graph):
        for space in ("nyuclass", "mpcat40"):
            graph = filter_graph(self.prepared(raw_graph), no_fix_config(), space)
            ids = {o.id for o in graph.objects}
            assert "o-ceiling" not in ids and "o-wall" not in ids

    def test_object_category_retained_in_fine_space_only(self, raw_graph):
        fine = filter_graph(self.prepared(raw_graph), no_fix_config(), "nyuclass")
        assert "o-pingpong" in {o.id for o in fine.objects}
        assert "ping-pong table" in fine.object_space("nyuclass").labels
        coarse = filter_graph(self.prepared(raw_graph), no_fix_config(), "mpcat40")
        assert "o-pingpong" not in {o.id for o in coarse.objects}

    def test_retention_flag_off_drops_object_category(self, raw_graph):
        config = no_fix_config(keep_object_category_for_secondary_space=False)
        fine = filter_graph(self.prepared(raw_graph), config, "nyuclass")
        assert "o-pingpong" not in {o.id for o in fine.objects}

    def test_emptied_rooms_removed(self, raw_graph):
        graph = filter_graph(self.prepared(raw_graph), no_fix_config(), "nyuclass")
        assert "r-empty" not in {r.id for r in graph.rooms}

    def test_room_space_pruned(self, raw_graph):
        graph = filter_graph(self.prepared(raw_graph), no_fix_config(), "nyuclass")
        assert graph.room_space.labels == ("bathroom", "bedroom", "kitchen", "living room")

    def test_unknown_space_rejected(self, raw_graph):
        with pytest.raises(SchemaError):
            filter_graph(raw_graph, no_fix_config(), "imaginary")

    @pytest.mark.parametrize("header, left", [
        (("yard", "bedroom"), "bedroom"),
        (("porch", "none"), ""),
    ], ids=["one-left", "none-left"])
    def test_fewer_than_two_room_labels_left_names_them(self, scene_path, header, left):
        raw = parse_scene_file(scene_path(
            [("r0", header[1], (0, 0, 0), (4, 4, 3))],
            [("o0", "r0", ("bed", "bed"), (1, 1, 0), (2, 2, 1))],
            room_labels=header,
        ))
        with pytest.raises(SchemaError) as caught:
            filter_graph(raw, no_fix_config(), "nyuclass")
        assert str(caught.value) == (
            f"filtering leaves rooms={left}; a room needs at least 2 labels to choose from"
        )


class TestFullPipeline:
    def test_expected_post_state(self, raw_graph):
        graph = run_pipeline(raw_graph, IngestConfig(), "nyuclass")
        assert validate(graph) == []
        assert {r.id for r in graph.rooms} == {
            "r-bath", "r-living", "r-kitchen", "r-ovl-a", "r-ovl-b"
        }
        by_id = object_by_id(graph)
        assert set(by_id) == {
            "o-toilet", "o-sofa", "o-stairs1", "o-pingpong", "o-nowhere",
            "o-fridge", "o-stairs2", "o-floating", "o-bed-b",
        }
        assert by_id["o-toilet"].assigned_room == "r-bath"
        assert by_id["o-fridge"].label_per_space["nyuclass"] == "refrigerator"
        assert by_id["o-stairs1"].label_per_space["mpcat40"] == "stairs"
        assert graph.object_space("nyuclass").labels == (
            "bed", "chair", "ping-pong table", "refrigerator", "sofa",
            "stairs", "table", "toilet",
        )

    def test_counts_never_increase_along_stages(self, raw_graph):
        config = IngestConfig()
        stages = [raw_graph]
        stages.append(reassign_objects_by_bbox(stages[-1]))
        stages.append(apply_spelling_fixes(stages[-1], config.spelling_fixes))
        stages.append(resolve_label_space_conflicts(stages[-1], "mpcat40", "nyuclass"))
        stages.append(filter_graph(stages[-1], config, "nyuclass"))
        for before, after in zip(stages, stages[1:]):
            assert len(after.objects) <= len(before.objects)
            assert len(after.rooms) <= len(before.rooms)

    def test_pipeline_is_fixed_point(self, raw_graph, tmp_path):
        config = IngestConfig()
        once = run_pipeline(raw_graph, config, "nyuclass")
        out1 = tmp_path / "once.txt"
        write_scene_file(once, out1)
        reparsed = parse_scene_file(out1)
        twice = run_pipeline(reparsed, config, "nyuclass")
        out2 = tmp_path / "twice.txt"
        write_scene_file(twice, out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert twice.rooms == once.rooms
        assert twice.objects == once.objects

    @pytest.mark.parametrize("run", ["fine", "coarse"])
    def test_filtered_spaces_hold_no_rejected_label(self, raw_graph, run):
        object_space = {"fine": "nyuclass", "coarse": "mpcat40"}[run]
        graph = run_pipeline(raw_graph, IngestConfig(), object_space)
        active = set(graph.object_space(object_space).labels)
        assert not active & DEFAULT_REJECTED_OBJECT_LABELS
        coarse = set(graph.object_space("mpcat40").labels)
        allowed = {"object"} if run == "fine" else set()
        assert coarse & DEFAULT_REJECTED_OBJECT_LABELS == allowed

    def test_no_empty_or_outdoor_rooms_after_filter(self, raw_graph):
        graph = run_pipeline(raw_graph, IngestConfig(), "nyuclass")
        assert not set(graph.room_space.labels) & set(DROPPED_ROOM_LABELS)
        for room in graph.rooms:
            assert graph.objects_in_room(room)
            assert room.gt_label not in DROPPED_ROOM_LABELS


INDOOR_ROOM_LABELS = ("bathroom", "bedroom", "kitchen")
COARSE_LABELS = ("toilet", "bed", "appliances", "object", "wall", "ceiling")
FINE_LABELS = ("toilet", "bed", "stove", "ping-pong table", "floor", "miscellaneous")


@st.composite
def raw_buildings(draw):
    """A header that declares ``yard`` and ``none``, and two buildings' scene
    texts under it, ids prefixed ``a/`` and ``b/``. Objects carry rejected
    labels, coarse ``object`` and dangling room ids; boxes are well formed."""
    indoor = draw(st.lists(st.sampled_from(INDOOR_ROOM_LABELS), unique=True, max_size=3))
    header = ("yard", "none", *indoor)
    coordinate = st.floats(-5, 45, allow_nan=False, width=32)
    extent = st.floats(0, 6, width=32)
    texts = []
    for prefix in ("a/", "b/"):
        rooms = [
            (f"{prefix}r{i}", draw(st.sampled_from(header)), (10 * i, 0, 0), (10 * i + 9, 9, 3))
            for i in range(draw(st.integers(0, 4)))
        ]
        room_ids = [room[0] for room in rooms] + [f"{prefix}ghost"]
        objects = []
        for j in range(draw(st.integers(0, 8))):
            lo = draw(st.tuples(coordinate, coordinate, coordinate))
            hi = tuple(c + draw(extent) for c in lo)
            labels = (draw(st.sampled_from(COARSE_LABELS)), draw(st.sampled_from(FINE_LABELS)))
            objects.append((f"{prefix}o{j}", draw(st.sampled_from(room_ids)), labels, lo, hi))
        texts.append(scene_file_text(rooms, objects, room_labels=header))
    return indoor, texts


class TestPipelineMeetsTheInvariants:
    """The parser, ``filter_graph`` and ``merge_graphs`` enforce every
    invariant of a preprocessed graph, so no post-pass re-checks it."""

    @settings(max_examples=40, deadline=None)
    @given(raw_buildings())
    def test_oracle_finds_nothing_or_too_few_room_labels_are_refused(
        self, tmp_path_factory, buildings
    ):
        indoor, texts = buildings
        work = tmp_path_factory.mktemp("buildings")
        paths = []
        for name, text in zip("ab", texts):
            paths.append(work / f"{name}.txt")
            paths[-1].write_text(text)
        config = IngestConfig()
        for space in ("mpcat40", "nyuclass"):
            raws = [parse_scene_file(path) for path in paths]
            if len(indoor) < 2:
                with pytest.raises(SchemaError, match="a room needs at least 2 labels"):
                    run_pipeline(raws[0], config, space)
                continue
            merged = merge_graphs([run_pipeline(raw, config, space) for raw in raws])
            assert validate(merged) == []


class TestRoundTripAndMerge:
    def test_scene_file_round_trip(self, raw_graph, tmp_path):
        path = tmp_path / "echo.txt"
        write_scene_file(raw_graph, path)
        assert parse_scene_file(path) == raw_graph

    def test_header_only_round_trip(self, tmp_path):
        graph = SceneGraph(
            room_space=LabelSpace(name="room", labels=("bathroom", "kitchen")),
            object_space_names=("mpcat40", "nyuclass"),
        )
        path = tmp_path / "header-only.txt"
        write_scene_file(graph, path)
        parsed = parse_scene_file(path)
        assert parsed == graph
        assert parsed.rooms == () and parsed.objects == ()

    def test_merge_two_buildings(self, scene_path, tmp_path):
        graph_a = parse_scene_file(
            scene_path(FIXTURE_ROOMS[:2], FIXTURE_OBJECTS[:2], room_labels=ROOMS_HEADER)
        )
        other = scene_file_text(
            [("b2/r-1", "kitchen", (0, 0, 0), (5, 5, 3))],
            [("b2/o-1", "b2/r-1", ("stove", "stove"), (1, 1, 0), (2, 2, 1))],
            room_labels=ROOMS_HEADER,
        )
        path_b = tmp_path / "b.txt"
        path_b.write_text(other)
        graph_b = parse_scene_file(path_b)
        merged = merge_graphs([graph_a, graph_b])
        assert len(merged.rooms) == 3
        assert len(merged.objects) == 3
        assert "stove" in merged.object_space("nyuclass").labels

    def test_merge_rejects_duplicate_ids(self, raw_graph):
        with pytest.raises(Exception, match="duplicate"):
            merge_graphs([raw_graph, raw_graph])

    def test_merge_rejects_mismatched_spaces(self, raw_graph, scene_path):
        other = parse_scene_file(
            scene_path(FIXTURE_ROOMS[:1], [], spaces=("different",), room_labels=ROOMS_HEADER)
        )
        with pytest.raises(SchemaError):
            merge_graphs([raw_graph, other])

    def test_histogram(self, raw_graph):
        histogram = room_label_histogram(raw_graph)
        assert histogram["kitchen"] == 2
        assert histogram["bedroom"] == 2
        assert histogram["none"] == 1


class TestDerivedObjectSpaces:
    @pytest.mark.parametrize("stage", ["reassign", "spelling", "conflicts", "filter", "merge"])
    def test_each_space_is_the_label_set_of_the_objects(self, raw_graph, tmp_path, stage):
        config = IngestConfig()
        other = tmp_path / "b2.txt"
        other.write_text(scene_file_text(
            [("b2/r-1", "kitchen", (0, 0, 0), (5, 5, 3))],
            [("b2/o-1", "b2/r-1", ("appliances", "oven"), (1, 1, 0), (2, 2, 1))],
            room_labels=ROOMS_HEADER,
        ))
        run = {
            "reassign": lambda: reassign_objects_by_bbox(raw_graph),
            "spelling": lambda: apply_spelling_fixes(raw_graph, config.spelling_fixes),
            "conflicts": lambda: resolve_label_space_conflicts(raw_graph, "mpcat40", "nyuclass"),
            "filter": lambda: filter_graph(raw_graph, config, "nyuclass"),
            "merge": lambda: merge_graphs([raw_graph, parse_scene_file(other)]),
        }[stage]
        graph = run()
        assert graph.object_space_names == ("mpcat40", "nyuclass")
        for name in graph.object_space_names:
            labels = {obj.label_per_space[name] for obj in graph.objects}
            assert graph.object_space(name).labels == tuple(sorted(labels))

    def test_a_new_graph_derives_its_own_spaces(self, raw_graph):
        assert len(raw_graph.object_space("nyuclass").labels) > 1
        smaller = dataclasses.replace(raw_graph, objects=raw_graph.objects[:1])
        only = smaller.objects[0].label_per_space
        for name in smaller.object_space_names:
            assert smaller.object_space(name).labels == (only[name],)


def generated_graph(rooms: int = 500, objects_per_room: int = 20) -> SceneGraph:
    """A graph of ``rooms`` x ``objects_per_room`` objects with full-precision coordinates."""
    labels = ("chair", "table", "lamp", "bed", "sink", "toilet", "stove", "sofa")
    room_nodes, object_nodes = [], []
    for i in range(rooms):
        x = 10.0 * i + 1 / 3
        room = RoomNode(f"house{i // 25}/R{i}", "bedroom",
                        BoundingBox((x, 0.1, 0.0), (x + 9.7, 9.3, 3.1)))
        room_nodes.append(room)
        for j in range(objects_per_room):
            label = labels[(i + j) % len(labels)]
            lo = (x + 0.37 * j, 1.1 + 0.01 * j, 0.0)
            object_nodes.append(ObjectNode(
                f"house{i // 25}/O{i * objects_per_room + j}",
                {"mpcat40": label, "nyuclass": label},
                BoundingBox(lo, (lo[0] + 0.29, lo[1] + 0.53, 0.71)),
                room.id,
            ))
    return SceneGraph(
        rooms=tuple(room_nodes),
        objects=tuple(object_nodes),
        room_space=LabelSpace("room", ("bedroom", "kitchen")),
        object_space_names=("mpcat40", "nyuclass"),
    )


def traced(call):
    """``call()``'s result, and the memory it retained and peaked at, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


class TestMemoryBoundedByOneLine:
    """A scene file is written and parsed one line at a time, so neither
    step holds a copy of the file."""

    def test_writing_peaks_well_under_one_file_size(self, tmp_path):
        graph = generated_graph()
        path = tmp_path / "big.txt"
        _, _, peak = traced(lambda: write_scene_file(graph, path, manifest_id="m"))
        assert peak < path.stat().st_size / 10

    def test_parsing_peaks_close_to_what_it_retains(self, tmp_path):
        path = tmp_path / "big.txt"
        write_scene_file(generated_graph(), path)
        graph, retained, peak = traced(lambda: parse_scene_file(path))
        assert len(graph.objects) == 10_000
        assert peak - retained < path.stat().st_size / 2

    def test_objects_hold_their_room_id_string(self, raw_graph):
        rooms = raw_graph.room_by_id()
        homed = [obj for obj in raw_graph.objects if obj.assigned_room in rooms]
        assert homed
        assert all(obj.assigned_room is rooms[obj.assigned_room].id for obj in homed)
