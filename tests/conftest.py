"""Shared fixtures: small hand-built graphs, scene-file builders, a
one-label query renderer, a one-result-per-sentence view of
``score_totals``, the scene-graph invariant oracle, a simulated clock
for the scoring layer and a scheduled endpoint."""

from __future__ import annotations

import pytest

from endpoint import Endpoint
from roomsense import lm_scoring
from roomsense.lm_scoring import OfflineScorer, TransportError, score_totals
from roomsense.querygen import render_room_queries
from roomsense.scene_model import (
    BoundingBox,
    LabelSpace,
    ObjectNode,
    RoomNode,
    SceneGraph,
    normalize_label,
)

ROOM_LABELS_3 = ("bathroom", "bedroom", "kitchen")
OBJECT_LABELS_12 = (
    "bed",
    "chair",
    "dresser",
    "lamp",
    "oven",
    "pillow",
    "refrigerator",
    "shower",
    "sink",
    "stove",
    "table",
    "toilet",
)


def render_room_query(objects, room_label: str, template=None) -> str:
    """The candidate sentence for one room label (see ``render_room_queries``)."""
    return render_room_queries(objects, [room_label], template)[0]


def score_each(scorer, sentences) -> list:
    """``score_totals`` with each sentence as its own group: one total, or
    one ``TransportError``, per sentence, in order."""
    results = score_totals(scorer, ([s] for s in sentences))
    return [r if isinstance(r, TransportError) else r[0] for r in results]


def validate(graph: SceneGraph) -> list[str]:
    """Check a graph's invariants; return one description per violation.

    The oracle for what the parser, ``filter_graph`` and ``merge_graphs``
    enforce where each rule can break. Read-only and idempotent. An empty
    result means the room space has at least two labels, every room's label
    is in it, boxes are ordered, every object is labelled in exactly the
    declared object spaces and assigned to an existing room, and every room
    is named by at least one object.
    """
    violations: list[str] = []

    room_space = graph.room_space
    if len(room_space.labels) < 2:
        violations.append(
            f"label space {room_space.name!r}: needs >= 2 labels, has {len(room_space.labels)}"
        )

    room_ids = set()
    occupied = {obj.assigned_room for obj in graph.objects}
    for room in graph.rooms:
        room_ids.add(room.id)
        if not all(lo <= hi for lo, hi in zip(*room.bbox)):
            violations.append(f"room {room.id!r}: bbox min exceeds max")
        if room.id not in occupied:
            violations.append(f"room {room.id!r}: contains no objects")
        if room.gt_label not in room_space.labels:
            violations.append(
                f"room {room.id!r}: label {room.gt_label!r} not in room label space"
            )

    declared = set(graph.object_space_names)
    for obj in graph.objects:
        if not all(lo <= hi for lo, hi in zip(*obj.bbox)):
            violations.append(f"object {obj.id!r}: bbox min exceeds max")
        if obj.assigned_room not in room_ids:
            violations.append(
                f"object {obj.id!r}: assigned room {obj.assigned_room!r} does not exist"
            )
        for space_name in obj.label_per_space:
            if space_name not in declared:
                violations.append(
                    f"object {obj.id!r}: references undeclared label space {space_name!r}"
                )
        for space_name in graph.object_space_names:
            if space_name not in obj.label_per_space:
                violations.append(f"object {obj.id!r}: no label in space {space_name!r}")

    return violations


def label_space(name: str, labels) -> LabelSpace:
    """A space with all strings normalized."""
    return LabelSpace(
        name=normalize_label(name), labels=tuple(normalize_label(l) for l in labels)
    )


def box(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)) -> BoundingBox:
    return BoundingBox(min_corner=tuple(map(float, lo)), max_corner=tuple(map(float, hi)))


def object_by_id(graph: SceneGraph) -> dict[str, ObjectNode]:
    return {o.id: o for o in graph.objects}


def build_graph(room_specs, space_name="things", room_labels=ROOM_LABELS_3) -> SceneGraph:
    """Construct a validated-shape graph from {room_id: (label, [object labels])}.

    Rooms are laid out along x so bounding boxes never overlap; objects sit
    inside their room's box.
    """
    rooms = []
    objects = []
    for i, (room_id, (label, obj_labels)) in enumerate(sorted(room_specs.items())):
        x0 = 10.0 * i
        for j, obj_label in enumerate(obj_labels):
            objects.append(
                ObjectNode(
                    id=f"{room_id}-o{j}",
                    label_per_space={space_name: obj_label},
                    bbox=box((x0 + 1 + 0.1 * j, 1, 0), (x0 + 1.5 + 0.1 * j, 1.5, 0.5)),
                    assigned_room=room_id,
                )
            )
        rooms.append(RoomNode(id=room_id, gt_label=label, bbox=box((x0, 0, 0), (x0 + 9, 9, 3))))
    return SceneGraph(
        rooms=tuple(rooms),
        objects=tuple(objects),
        room_space=LabelSpace(name="room", labels=tuple(room_labels)),
        object_space_names=(space_name,),
    )


@pytest.fixture
def two_room_graph() -> SceneGraph:
    return build_graph(
        {
            "r-bath": ("bathroom", ["toilet", "shower", "sink"]),
            "r-bed": ("bedroom", ["bed", "pillow", "chair"]),
        }
    )


def scene_file_text(rooms, objects, spaces=("mpcat40", "nyuclass"), room_labels=None) -> str:
    """Render scene-file lines from simple tuples.

    rooms: (id, label, lo, hi); objects: (id, room_id, labels tuple, lo, hi).
    """
    if room_labels is None:
        room_labels = ("bathroom", "bedroom", "kitchen", "living room", "porch", "none")
    lines = [
        "scenegraph\tv1\tspaces=" + ",".join(spaces) + "\trooms=" + ",".join(room_labels)
    ]
    for room_id, label, lo, hi in rooms:
        lines.append("\t".join(["room", room_id, label, *map(repr, [*lo, *hi])]))
    for obj_id, room_id, labels, lo, hi in objects:
        lines.append(
            "\t".join(["object", obj_id, room_id, *labels, *map(repr, [*lo, *hi])])
        )
    return "\n".join(lines) + "\n"


@pytest.fixture
def scene_path(tmp_path):
    """Write a (rooms, objects, ...) scene to disk and return the path."""

    def _write(rooms, objects, **kwargs):
        path = tmp_path / "scene.txt"
        path.write_text(scene_file_text(rooms, objects, **kwargs), encoding="utf-8")
        return path

    return _write


class SimulatedClock:
    """Stands in for ``lm_scoring._sleep``. Time passes only when the scoring
    layer sleeps or a test charges it, so no test waits in real time.
    ``now`` is exact at one scoring worker; with more, only ``sleeps`` is."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture
def clock(monkeypatch) -> SimulatedClock:
    """The scoring layer's sleeps, recorded on a simulated clock."""
    simulated = SimulatedClock()
    monkeypatch.setattr(lm_scoring, "_sleep", simulated.sleep)
    return simulated


@pytest.fixture
def mock_endpoint():
    """An :class:`Endpoint` for a per-POST schedule. HTTP/1.0, because the
    scorer resends a dropped answer on a reused connection: a POST the
    schedule does not expect."""
    with Endpoint(keep_alive=False).serving() as endpoint:
        yield endpoint


_ORACLE = OfflineScorer(seed=0)


def offline_oracle(payload):
    """Answers with the offline scorer's token logprobs, every one of them, so
    a remote total sums to the offline total exactly."""
    tokens = _ORACLE.score(payload["prompt"]).tokens
    return 200, {
        "model": "offline-oracle",
        "tokens": [t.token for t in tokens],
        "token_logprobs": [t.logprob for t in tokens],
    }
