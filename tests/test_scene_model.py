import math

import pytest
from hypothesis import example, given, strategies as st

from roomsense.cooccurrence import count_ground_truth
from roomsense.inference import RoomSelection, select_rooms
from roomsense.ingest import parse_scene_file
from roomsense.scene_model import (
    BoundingBox,
    LabelSpace,
    ObjectNode,
    RoomNode,
    SceneGraph,
    normalize_label,
)

from conftest import box, build_graph, label_space, objects_in_room, validate
from test_cooccurrence import make_table
from test_ingest import FIXTURE_OBJECTS, FIXTURE_ROOMS


class TestNormalization:
    def test_lowercase_and_trim(self):
        assert normalize_label("  Living Room ") == "living room"

    def test_collapses_internal_whitespace(self):
        assert normalize_label("living\t room") == "living room"

    def test_idempotent(self):
        once = normalize_label(" Washing  Machine ")
        assert normalize_label(once) == once

    @given(st.lists(st.text(alphabet=st.sampled_from(
        "aZ# -\t\n\r\x0b\x0c\x1c\x85\xa0\u1680\u2003\u2028\u3000\u0130\u00df"
    ), max_size=12), max_size=30))
    def test_memo_matches_the_rule(self, labels):
        # repeats come from the cache, first sightings from the rule itself
        for label in labels + labels:
            assert normalize_label(label) == normalize_label.__wrapped__(label)

    def test_memo_is_bounded(self):
        assert normalize_label.cache_info().maxsize is not None


class TestLabelSpace:
    def test_create_normalizes(self):
        space = label_space("Room", ["Bathroom", " Bed Room "])
        assert space.name == "room"
        assert space.labels == ("bathroom", "bed room")


def center_oracle(bbox: BoundingBox) -> tuple:
    """``BoundingBox.center`` in its generator form, before it unpacked by position."""
    return tuple((lo + hi) / 2.0 for lo, hi in zip(bbox.min_corner, bbox.max_corner))


def contains_point_oracle(bbox: BoundingBox, point) -> bool:
    """``BoundingBox.contains_point`` in its ``all(...)`` form."""
    return all(
        lo <= p <= hi
        for lo, p, hi in zip(bbox.min_corner, point, bbox.max_corner)
    )


# Any float, and often one of the values where rounding, signs and
# comparisons differ, so corners and points coincide often enough to test
# the inclusive bounds.
_edge_float = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
)
_triple = st.tuples(_edge_float, _edge_float, _edge_float)


class TestBoundingBox:
    def test_center(self):
        assert box((0, 0, 0), (2, 4, 6)).center == (1.0, 2.0, 3.0)

    def test_containment_is_inclusive(self):
        b = box((0, 0, 0), (1, 1, 1))
        assert b.contains_point((0.0, 0.5, 1.0))
        assert not b.contains_point((1.0001, 0.5, 0.5))

    @given(_triple, _triple, st.lists(_triple, max_size=4))
    # where halving each corner before the sum would differ: the sum
    # overflows, or half the smallest subnormal rounds to 0
    @example((1.7976931348623157e308,) * 3, (1.7976931348623157e308,) * 3, [])
    @example((5e-324,) * 3, (5e-324,) * 3, [])
    def test_center_and_containment_match_the_generator_forms(self, lo, hi, points):
        # by repr, so -0.0, subnormals, infinities and NaN must match too
        bbox = BoundingBox(lo, hi)
        assert repr(bbox.center) == repr(center_oracle(bbox))
        for point in [bbox.center, lo, hi, *points]:
            assert repr(bbox.contains_point(point)) == repr(contains_point_oracle(bbox, point))


class TestNodeRecords:
    """Boxes, rooms and objects are named tuples, as lm_scoring's records are."""

    BBOX = BoundingBox(min_corner=(0.0, 0.0, 0.0), max_corner=(1.0, 2.0, 3.0))

    @pytest.mark.parametrize("record, fields", [
        (BoundingBox, ("min_corner", "max_corner")),
        (ObjectNode, ("id", "label_per_space", "bbox", "assigned_room")),
        (RoomNode, ("id", "gt_label", "bbox")),
    ])
    def test_fields_in_declaration_order(self, record, fields):
        assert record._fields == fields

    def test_keyword_construction_equals_positional(self):
        bbox = self.BBOX
        assert bbox == BoundingBox((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        assert (bbox.min_corner, bbox.max_corner) == ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        room = RoomNode(id="r0", gt_label="bathroom", bbox=bbox)
        assert room == RoomNode("r0", "bathroom", bbox)
        assert (room.id, room.gt_label, room.bbox) == ("r0", "bathroom", bbox)
        obj = ObjectNode(id="o0", label_per_space={"things": "toilet"}, bbox=bbox,
                         assigned_room="r0")
        assert obj == ObjectNode("o0", {"things": "toilet"}, bbox, "r0")
        assert (obj.id, obj.label_per_space, obj.bbox, obj.assigned_room) == (
            "o0", {"things": "toilet"}, bbox, "r0")

    def test_replace_leaves_the_original_as_it_was(self):
        bbox = self.BBOX
        room = RoomNode("r0", "bathroom", bbox)
        obj = ObjectNode("o0", {"things": "toilet"}, bbox, "r0")
        relabelled = room._replace(gt_label="kitchen")
        moved = obj._replace(assigned_room="r1")
        grown = bbox._replace(max_corner=(2.0, 2.0, 3.0))
        assert room == RoomNode("r0", "bathroom", bbox)
        assert obj == ObjectNode("o0", {"things": "toilet"}, bbox, "r0")
        assert bbox == BoundingBox((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        assert relabelled == RoomNode("r0", "kitchen", bbox) and type(relabelled) is RoomNode
        assert moved == ObjectNode("o0", {"things": "toilet"}, bbox, "r1")
        assert type(moved) is ObjectNode
        assert grown.center == (1.0, 1.0, 1.5) and type(grown) is BoundingBox

    @pytest.mark.parametrize("record, field", [
        (BBOX, "min_corner"),
        (RoomNode("r0", "bathroom", BBOX), "gt_label"),
        (ObjectNode("o0", {"things": "toilet"}, BBOX, "r0"), "assigned_room"),
    ], ids=["bbox", "room", "object"])
    def test_attribute_assignment_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


class TestValidate:
    def test_well_formed_fixture_is_clean(self, two_room_graph):
        assert validate(two_room_graph) == []

    def test_missing_room_reference(self, two_room_graph):
        bad_obj = two_room_graph.objects[0]._replace(assigned_room="ghost")
        graph = two_room_graph._replace(objects=(bad_obj,) + two_room_graph.objects[1:])
        violations = validate(graph)
        assert any(bad_obj.id in v and "ghost" in v for v in violations)

    def test_empty_room(self):
        graph = build_graph({"r0": ("bathroom", ["toilet"])})
        empty = RoomNode(id="r1", gt_label="bedroom", bbox=box())
        graph = graph._replace(rooms=graph.rooms + (empty,))
        violations = validate(graph)
        assert any("r1" in v and "no objects" in v for v in violations)

    def test_one_entry_per_violation(self):
        graph = build_graph({"r0": ("bathroom", ["toilet"])})
        empty_a = RoomNode(id="rA", gt_label="bedroom", bbox=box())
        empty_b = RoomNode(id="rB", gt_label="bedroom", bbox=box())
        graph = graph._replace(rooms=graph.rooms + (empty_a, empty_b))
        violations = [v for v in validate(graph) if "no objects" in v]
        assert len(violations) == 2

    def test_inverted_bbox(self, two_room_graph):
        bad = two_room_graph.rooms[0]._replace(
            bbox=BoundingBox((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))
        )
        graph = two_room_graph._replace(rooms=(bad,) + two_room_graph.rooms[1:])
        assert any("min exceeds max" in v for v in validate(graph))

    def test_label_outside_space(self, two_room_graph):
        bad = two_room_graph.rooms[0]._replace(gt_label="observatory")
        graph = two_room_graph._replace(rooms=(bad,) + two_room_graph.rooms[1:])
        assert any("observatory" in v for v in validate(graph))

    def test_object_labelled_outside_the_declared_spaces(self, two_room_graph):
        stray = two_room_graph.objects[0]._replace(label_per_space={"other": "toilet"})
        graph = two_room_graph._replace(objects=(stray,) + two_room_graph.objects[1:])
        assert validate(graph) == [
            f"object {stray.id!r}: references undeclared label space 'other'",
            f"object {stray.id!r}: no label in space 'things'",
        ]

    def test_small_room_space_flagged(self):
        graph = build_graph({"r0": ("bathroom", ["toilet"])}, room_labels=("bathroom",))
        assert any(">= 2 labels" in v for v in validate(graph))

    def test_idempotent_and_read_only(self, two_room_graph):
        graph = two_room_graph
        before = tuple(graph)
        first = validate(graph)
        second = validate(graph)
        assert first == second
        assert tuple(graph) == before

    def test_select_rooms_reads_each_placed_object_once(self, two_room_graph, scene_path):
        ghost = ("o-ghost", "r-ghost", ("attic fan", "attic fan"), (0, 0, 0), (1, 1, 1))
        parsed = parse_scene_file(scene_path(FIXTURE_ROOMS, [*FIXTURE_OBJECTS, ghost]))
        one_empty = build_graph({"r-a": ("bathroom", ["toilet", "sink"]), "r-b": ("bedroom", [])})
        for graph in (two_room_graph, one_empty, parsed):
            space = graph.object_space_names[-1]
            labels = graph.object_space(space).labels
            table = make_table({l: i for i, l in enumerate(labels)})._replace(object_space=space)
            selections = select_rooms(graph, table, len(labels))
            assert len(selections) == len(graph.rooms)
            for room, selection in zip(sorted(graph.rooms), selections):
                assert selection.room_id == room.id
                assert selection.objects == tuple(sorted(
                    {obj.label_per_space[space] for obj in objects_in_room(graph, room)}
                ))
        assert "attic fan" in parsed.object_space("nyuclass").labels
        assert all("attic fan" not in s.objects for s in selections)


class TestSceneGraphAccessors:
    def test_room_space_lookup(self, two_room_graph):
        assert two_room_graph.room_space.name == "room"
        assert two_room_graph.object_spaces[0].name == "things"

    def test_unknown_object_space(self, two_room_graph):
        with pytest.raises(KeyError):
            two_room_graph.object_space("room")

    def test_select_rooms_reads_each_rooms_labels(self, two_room_graph):
        table = count_ground_truth(two_room_graph, "things", alpha=1.0)
        selections = {s.room_id: s.objects for s in select_rooms(two_room_graph, table, 3)}
        assert set(selections["r-bath"]) == {"toilet", "shower", "sink"}


class TestGraphHoldsOnlyItsFields:
    def test_a_read_graph_stays_as_declared(self):
        specs = {"r-bath": ("bathroom", ["toilet", "sink"]), "r-bed": ("bedroom", ["bed"])}
        used = build_graph(specs)
        select_rooms(used, count_ground_truth(used, "things", alpha=1.0), 2)
        assert used.object_space("things").labels == ("bed", "sink", "toilet")
        fresh = build_graph(specs)
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert SceneGraph._fields == ("rooms", "objects", "room_space", "object_space_names")
        assert not hasattr(used, "__dict__")

    def test_a_read_graph_hashes_as_a_fresh_one(self):
        # objects carry a label dict, so only an object-free graph hashes
        def graph():
            return SceneGraph(
                rooms=(RoomNode(id="r1", gt_label="bathroom", bbox=box()),),
                objects=(),
                room_space=LabelSpace(name="room", labels=("bathroom", "bedroom")),
                object_space_names=("things",),
            )

        used = graph()
        assert select_rooms(used, make_table({}), 3) == [RoomSelection("r1", "bathroom", ())]
        assert hash(used) == hash(graph())
