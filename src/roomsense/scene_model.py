"""Core domain types for room/object scene graphs.

Everything downstream (ingestion, co-occurrence statistics, inference,
evaluation) operates on these types, and none of them does I/O. The
records a parse builds once per box, room and object (:class:`BoundingBox`,
:class:`ObjectNode`, :class:`RoomNode`) are named tuples: immutable,
compared as the tuples of their fields, and cheap to build, so a
graph of tens of thousands of objects parses without a per-field attribute
store. The parsers build them positionally, boxes through the one
ordered-corner check and nodes with :data:`object_from_fields` and
:data:`room_from_fields`; a stage that changes a node still builds a new
one with ``_replace``.
:class:`LabelSpace` and :class:`SceneGraph` are frozen dataclasses, and
a graph caches derived data. The parsers normalize every label string
(:func:`normalize_label`), so comparisons stay stable across data sources
that mix capitalization.

Room membership is stored once, on the object side: a room's objects are
the objects whose ``assigned_room`` names it, in graph object order. Rooms
carry no object list.

Object label spaces are derived, not stored: a graph records only their
names, and an object space's labels are the labels its objects carry.

A :class:`SceneGraph` is immutable after construction and safe to share
across threads. Pipeline stages that "modify" a graph build a new one.
Derived data (a graph's objects by room and its object spaces) is built
once per instance, on first use; it is not a dataclass field, so
equality, hashing, ``repr`` and ``asdict`` see only the declared data, and
a graph built from another derives its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

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
    that preprocessing filters out are ``DROPPED_ROOM_LABELS`` and
    ``DEFAULT_REJECTED_OBJECT_LABELS`` in :mod:`roomsense.ingest`.
    """

    name: str
    labels: tuple[str, ...]


def observed_space(name: str, objects) -> LabelSpace:
    """The object space ``name`` with exactly the labels its objects carry, sorted."""
    labels = {obj.label_per_space[name] for obj in objects}
    return LabelSpace(name=name, labels=tuple(sorted(labels)))


class BoundingBox(NamedTuple):
    """Axis-aligned box in meters, stored as min/max corners."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]

    @property
    def center(self) -> tuple[float, float, float]:
        (x0, y0, z0), (x1, y1, z1) = self
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0, (z0 + z1) / 2.0)

    def contains_point(self, point) -> bool:
        """Inclusive componentwise containment test."""
        (x0, y0, z0), (x1, y1, z1) = self
        x, y, z = point
        return x0 <= x <= x1 and y0 <= y <= y1 and z0 <= z <= z1


class ObjectNode(NamedTuple):
    """An object instance with one label per declared label space.

    Label maps are shared and read-only: the parsers give one map to every
    object with the same labels, and a stage that relabels an object gives
    it a new map, never changing one in place.
    """

    id: str
    label_per_space: dict[str, str]
    bbox: BoundingBox
    assigned_room: str


class RoomNode(NamedTuple):
    """A room with its ground-truth label; its objects name it in ``assigned_room``."""

    id: str
    gt_label: str
    bbox: BoundingBox


# Each builds a record from one tuple of all its fields, in declaration
# order, without running any Python code: the keyword constructors and
# ``_make`` do. The parsers build every box and node with them.
_box_from_corners = partial(tuple.__new__, BoundingBox)
object_from_fields = partial(tuple.__new__, ObjectNode)
room_from_fields = partial(tuple.__new__, RoomNode)


def _ordered_box(x0, y0, z0, x1, y1, z1) -> BoundingBox:
    """The box with these corners; ``ValueError`` unless min <= max on every
    axis, which a NaN coordinate breaks. Both parsers enforce this rule."""
    if x0 <= x1 and y0 <= y1 and z0 <= z1:
        return _box_from_corners(((x0, y0, z0), (x1, y1, z1)))
    raise ValueError("bbox corners not ordered min <= max")


@dataclass(frozen=True, kw_only=True)
class SceneGraph:
    """Rooms and objects, the room label space and the object spaces' names.

    ``room_space`` is the :class:`LabelSpace` named ``"room"``, declared by
    the data source; every graph has one, so fields are keyword-only.
    ``object_space_names`` lists the object spaces in declaration order
    (coarse space first by convention); each object carries one label per
    name. Object-space labels are not stored: :attr:`object_spaces` derives
    them from the objects.
    """

    rooms: tuple[RoomNode, ...] = ()
    objects: tuple[ObjectNode, ...] = ()
    room_space: LabelSpace
    object_space_names: tuple[str, ...] = ()

    @cached_property
    def object_spaces(self) -> tuple[LabelSpace, ...]:
        """Each named object space, observed from the objects, in name order."""
        return tuple(observed_space(name, self.objects) for name in self.object_space_names)

    def object_space(self, name: str) -> LabelSpace:
        for space in self.object_spaces:
            if space.name == name:
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

