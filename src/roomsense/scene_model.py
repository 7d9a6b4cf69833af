"""Core domain types for room/object scene graphs.

Everything downstream (ingestion, co-occurrence statistics, inference,
evaluation) operates on these types. They are plain frozen dataclasses with
no I/O; construction normalizes label strings so comparisons stay stable
across data sources that mix capitalization.

Room membership is stored once, on the object side: a room's objects are
the objects whose ``assigned_room`` names it, in graph object order. Rooms
carry no object list.

A :class:`SceneGraph` is immutable after construction and safe to share
across threads. Pipeline stages that "modify" a graph build a new one.
Lookup indexes (a graph's objects by room, a space's label set) are built
once per instance, on first use; they are not dataclass fields, so
equality, hashing, ``repr`` and ``asdict`` see only the declared data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

ROOM_SPACE_NAME = "room"


# Labels repeat heavily (a few thousand distinct ones over tens of thousands
# of objects), so each is normalized once; the bound caps the memory a file
# of unique junk labels can take.
@lru_cache(maxsize=1 << 14)
def normalize_label(label: str) -> str:
    """Lowercase and whitespace-normalize a category string.

    Collapses internal runs of whitespace so hand-edited files with stray
    double spaces compare equal to clean ones. Idempotent.
    """
    return " ".join(label.split()).lower()


@dataclass(frozen=True)
class LabelSpace:
    """A named, ordered set of category strings.

    ``labels`` keeps declaration order (it defines column order in
    co-occurrence tables). A space records only what is in it: the labels
    that preprocessing filters out are the ``DEFAULT_*`` sets in
    :mod:`roomsense.ingest`.
    """

    name: str
    labels: tuple[str, ...]

    @cached_property
    def _label_set(self) -> frozenset[str]:
        return frozenset(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._label_set


def observed_space(name: str, objects) -> LabelSpace:
    """The object space ``name`` with exactly the labels its objects carry, sorted."""
    labels = sorted({obj.label_per_space[name] for obj in objects})
    return LabelSpace(name=name, labels=tuple(labels))


def observed_spaces(label_spaces, objects) -> tuple[LabelSpace, ...]:
    """``label_spaces`` with the room space kept and each object space re-observed."""
    return tuple(
        space if space.name == ROOM_SPACE_NAME else observed_space(space.name, objects)
        for space in label_spaces
    )


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in meters, stored as min/max corners."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]

    @property
    def center(self) -> tuple[float, float, float]:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.min_corner, self.max_corner))

    def contains_point(self, point) -> bool:
        """Inclusive componentwise containment test."""
        return all(
            lo <= p <= hi
            for lo, p, hi in zip(self.min_corner, point, self.max_corner)
        )

    def is_well_formed(self) -> bool:
        return all(lo <= hi for lo, hi in zip(self.min_corner, self.max_corner))


@dataclass(frozen=True)
class ObjectNode:
    """An object instance with one label per declared label space."""

    id: str
    label_per_space: dict[str, str]
    bbox: BoundingBox
    assigned_room: str


@dataclass(frozen=True)
class RoomNode:
    """A room with its ground-truth label; its objects name it in ``assigned_room``."""

    id: str
    gt_label: str
    bbox: BoundingBox


@dataclass(frozen=True)
class SceneGraph:
    """Rooms and objects plus the label spaces they are annotated in.

    The room label space is the :class:`LabelSpace` named ``"room"``;
    every other space in ``label_spaces`` is an object space, listed in
    declaration order (coarse space first by convention).
    """

    rooms: tuple[RoomNode, ...] = ()
    objects: tuple[ObjectNode, ...] = ()
    label_spaces: tuple[LabelSpace, ...] = ()

    @property
    def room_space(self) -> LabelSpace | None:
        for space in self.label_spaces:
            if space.name == ROOM_SPACE_NAME:
                return space
        return None

    @property
    def object_spaces(self) -> tuple[LabelSpace, ...]:
        return tuple(s for s in self.label_spaces if s.name != ROOM_SPACE_NAME)

    def object_space(self, name: str) -> LabelSpace:
        for space in self.label_spaces:
            if space.name == name and name != ROOM_SPACE_NAME:
                return space
        raise KeyError(f"no object label space named {name!r}")

    def room_by_id(self) -> dict[str, RoomNode]:
        return {r.id: r for r in self.rooms}

    @cached_property
    def _room_members(self) -> dict[str, list[ObjectNode]]:
        members: dict[str, list[ObjectNode]] = {}
        for obj in self.objects:
            members.setdefault(obj.assigned_room, []).append(obj)
        return members

    def objects_in_room(self, room: RoomNode) -> list[ObjectNode]:
        """The objects whose ``assigned_room`` is ``room.id``, in object order."""
        return list(self._room_members.get(room.id, ()))


def validate(graph: SceneGraph) -> list[str]:
    """Check every structural invariant; return one description per violation.

    Read-only and idempotent. An empty result means the graph is
    well-formed: labels normalized and inside their spaces, ids unique,
    boxes ordered, every object assigned to an existing room, and every
    room named by at least one object. Violations are data, not exceptions.
    """
    violations: list[str] = []

    seen_space_names = set()
    for space in graph.label_spaces:
        if space.name in seen_space_names:
            violations.append(f"label space {space.name!r}: duplicate space name")
        seen_space_names.add(space.name)
        seen = set()
        for label in space.labels:
            if label != normalize_label(label):
                violations.append(
                    f"label space {space.name!r}: label {label!r} is not normalized"
                )
            if label in seen:
                violations.append(
                    f"label space {space.name!r}: duplicate label {label!r}"
                )
            seen.add(label)

    room_space = graph.room_space
    if room_space is not None and len(room_space.labels) < 2:
        violations.append(
            f"label space {room_space.name!r}: needs >= 2 labels, has {len(room_space.labels)}"
        )
    if room_space is None and graph.rooms:
        violations.append("graph: rooms present but no 'room' label space declared")

    rooms_by_id: dict[str, RoomNode] = {}
    for room in graph.rooms:
        if room.id in rooms_by_id:
            violations.append(f"room {room.id!r}: duplicate room id")
        rooms_by_id[room.id] = room
        if not room.bbox.is_well_formed():
            violations.append(f"room {room.id!r}: bbox min exceeds max")
        if room.id not in graph._room_members:
            violations.append(f"room {room.id!r}: contains no objects")
        if room_space is not None and room.gt_label not in room_space:
            violations.append(
                f"room {room.id!r}: label {room.gt_label!r} not in room label space"
            )

    object_spaces = {s.name: s for s in graph.object_spaces}
    object_ids: set[str] = set()
    for obj in graph.objects:
        if obj.id in object_ids:
            violations.append(f"object {obj.id!r}: duplicate object id")
        object_ids.add(obj.id)
        if not obj.bbox.is_well_formed():
            violations.append(f"object {obj.id!r}: bbox min exceeds max")
        if obj.assigned_room not in rooms_by_id:
            violations.append(
                f"object {obj.id!r}: assigned room {obj.assigned_room!r} does not exist"
            )
        for space_name, label in obj.label_per_space.items():
            space = object_spaces.get(space_name)
            if space is None:
                violations.append(
                    f"object {obj.id!r}: references undeclared label space {space_name!r}"
                )
            elif label not in space:
                violations.append(
                    f"object {obj.id!r}: label {label!r} not in space {space_name!r}"
                )

    return violations
