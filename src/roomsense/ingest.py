"""Scene file parsing and the dataset preprocessing pipeline.

The pipeline order is fixed:

    parse -> bbox reassignment -> spelling fixes -> label-space conflict
    resolution -> filtering

and re-running the full pipeline on its own output changes nothing.

Scene input files are UTF-8, line-delimited, tab-separated records
(documented bit-exactly in the README):

    scenegraph<TAB>v1<TAB>spaces=<s1>,<s2><TAB>rooms=<r1>,<r2>,...
    room<TAB><id><TAB><label><TAB>minx<TAB>miny<TAB>minz<TAB>maxx<TAB>maxy<TAB>maxz
    object<TAB><id><TAB><room id><TAB><label per space...><TAB>minx<TAB>...<TAB>maxz

The header declares the object label spaces (coarse space first by
convention) and the full room-label list; a file without a header, or
whose header lists no object space or fewer than two room labels, is
refused. Blank lines and lines starting with '#' are ignored. The room
space is fixed by the header; an object space's labels are those its
objects carry (:class:`SceneGraph`).
"""

from __future__ import annotations

from dataclasses import replace
from importlib import resources
from pathlib import Path

from .atomic import atomic_write, read_lines
from .scene_model import (
    ROOM_SPACE_NAME,
    BoundingBox,
    LabelSpace,
    ObjectNode,
    RoomNode,
    SceneGraph,
    _ordered_box,
    normalize_label,
    object_from_fields,
    room_from_fields,
)

# Room labels preprocessing drops: the outdoor ones, then "none".
DROPPED_ROOM_LABELS = ("yard", "balcony", "porch", "none")
DEFAULT_REJECTED_OBJECT_LABELS = frozenset(
    {"ceiling", "wall", "floor", "miscellaneous", "object", "unlabeled"}
)

RETAINED_COARSE_LABEL = "object"

_MAGIC = "scenegraph"
_VERSION = "v1"


def load_spelling_fixes(path=None) -> dict[str, str]:
    """Read a two-column text map of old label -> new label.

    With no path, reads the table shipped with the package. Each label has
    one correction and no correction is corrected again, so a re-run changes
    nothing: a label listed again with another correction, or a chain such
    as ``a -> b``, ``b -> c``, is a :class:`ValueError` naming the later
    row's ``path:line``. Exact repeats and identity rows are allowed.
    """
    if path is None:
        path = resources.files("roomsense").joinpath("data/spelling_fixes.txt")
    else:
        path = Path(path)
    fixes: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 tab-separated fields")
        old, new = map(normalize_label, fields)
        if fixes.setdefault(old, new) != new:
            raise ValueError(f"{path}:{lineno}: {old!r} already corrected to {fixes[old]!r}")
        first_line.setdefault(old, lineno)
    for old, new in fixes.items():
        if fixes.get(new, new) != new:
            raise ValueError(
                f"{path}:{max(first_line[old], first_line[new])}: chained correction "
                f"{old!r} -> {new!r} -> {fixes[new]!r}"
            )
    return fixes


def _bbox(fields: list[str]) -> BoundingBox:
    try:
        x0, y0, z0, x1, y1, z1 = map(float, fields)
    except ValueError as err:
        raise ValueError(f"bad number in {fields!r}") from err
    try:
        return _ordered_box(x0, y0, z0, x1, y1, z1)
    except ValueError as err:
        raise ValueError(f"{err} in {fields!r}") from None


def parse_scene_file(path) -> SceneGraph:
    """Parse a scene file into a raw, unfiltered graph.

    Labels are normalized but nothing is removed or reassigned. The header
    comes first and declares at least one object space and two room labels,
    and every room's label must be declared in it; otherwise a
    :class:`ValueError` names the ``path`` (no header) or ``path:line``.
    Malformed records, boxes whose min corner is not at most their max
    corner on every axis (a NaN coordinate included) and duplicate ids
    raise one too, whose message starts with the record's ``path:line``.
    An object's ``assigned_room`` is its room's ``id`` string itself once
    that room has been read, so a room id is held once however many
    objects name it; in the same way, objects whose label fields are the
    same share one label map.
    """
    space_names: list[str] = []
    room_labels: tuple[str, ...] = ()
    header_seen = False
    rooms: dict[str, RoomNode] = {}
    objects: dict[str, ObjectNode] = {}
    label_maps: dict[tuple[str, ...], dict[str, str]] = {}

    # read_lines names its own undecodable line, so it stays outside the try
    for lineno, line in enumerate(read_lines(path), 1):
        if line.lstrip()[:1] in ("", "#"):
            continue
        fields = line.split("\t")
        kind = fields[0]
        try:
            if not header_seen:
                if kind != _MAGIC:
                    raise ValueError(f"expected '{_MAGIC}' header before records")
                if len(fields) != 4 or fields[1] != _VERSION:
                    raise ValueError("malformed header (need version + spaces + rooms)")
                if not fields[2].startswith("spaces=") or not fields[3].startswith("rooms="):
                    raise ValueError("header needs 'spaces=' and 'rooms=' fields")
                space_names = [
                    normalize_label(s)
                    for s in fields[2][len("spaces="):].split(",")
                    if s.strip()
                ]
                if not space_names:
                    raise ValueError("header declares no object label spaces")
                if ROOM_SPACE_NAME in space_names:
                    raise ValueError(f"'{ROOM_SPACE_NAME}' is reserved for the room space")
                if len(set(space_names)) != len(space_names):
                    raise ValueError("duplicate label-space name")
                room_labels = tuple(
                    dict.fromkeys(
                        normalize_label(r)
                        for r in fields[3][len("rooms="):].split(",")
                        if r.strip()
                    )
                )
                if not room_labels:
                    raise ValueError("header declares no room labels")
                if len(room_labels) < 2:
                    raise ValueError(
                        f"header declares one room label, {room_labels[0]!r}; "
                        "a room needs at least 2 to choose from"
                    )
                label_end = 3 + len(space_names)
                header_seen = True
            elif kind == "room":
                if len(fields) != 9:
                    raise ValueError(f"room record needs 9 fields, got {len(fields)}")
                room_id = fields[1]
                if room_id in rooms:
                    raise ValueError(f"duplicate room id {room_id!r}")
                label = normalize_label(fields[2])
                if label not in room_labels:
                    raise ValueError(f"room label {label!r} not declared in header")
                rooms[room_id] = room_from_fields((room_id, label, _bbox(fields[3:9])))
            elif kind == "object":
                if len(fields) != label_end + 6:
                    raise ValueError(
                        f"object record needs {label_end + 6} fields, got {len(fields)}"
                    )
                obj_id = fields[1]
                if obj_id in objects:
                    raise ValueError(f"duplicate object id {obj_id!r}")
                room = rooms.get(fields[2])
                label_fields = tuple(fields[3:label_end])
                labels = label_maps.get(label_fields)
                if labels is None:
                    labels = label_maps[label_fields] = dict(
                        zip(space_names, map(normalize_label, label_fields))
                    )
                bbox = _bbox(fields[label_end:])
                objects[obj_id] = object_from_fields(
                    (obj_id, labels, bbox, fields[2] if room is None else room.id)
                )
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from err

    if not header_seen:
        raise ValueError(f"{path}: no '{_MAGIC}' header")

    return SceneGraph(
        rooms=tuple(rooms.values()),
        objects=tuple(objects.values()),
        room_space=LabelSpace(name=ROOM_SPACE_NAME, labels=room_labels),
        object_space_names=tuple(space_names),
    )


def write_scene_file(graph: SceneGraph, path, manifest_id: str | None = None) -> None:
    """Serialize a graph back to the scene file format (lossless floats).

    Each line is written as it is built.
    """
    names = graph.object_space_names
    with atomic_write(path) as handle:
        write = handle.write
        if manifest_id:
            write(f"# manifest: {manifest_id}\n")
        spaces = ",".join(names)
        rooms = ",".join(graph.room_space.labels)
        write(f"{_MAGIC}\t{_VERSION}\tspaces={spaces}\trooms={rooms}\n")
        for room_id, label, (lo, hi) in graph.rooms:
            write("\t".join(["room", room_id, label, *map(repr, lo), *map(repr, hi)]) + "\n")
        for obj_id, label_map, (lo, hi), room_id in graph.objects:
            labels = map(label_map.__getitem__, names)
            write(
                "\t".join(["object", obj_id, room_id, *labels, *map(repr, lo), *map(repr, hi)])
                + "\n"
            )


def reassign_objects_by_bbox(graph: SceneGraph) -> SceneGraph:
    """Move mislabeled objects into the room whose bbox contains them.

    An object whose bbox center lies outside its assigned room's bbox is
    reassigned to a room whose bbox does contain the center; ties between
    overlapping rooms go to the lexicographically smallest room id. Objects
    contained by no room keep their original assignment (reassignment never
    deletes).
    """
    rooms_by_id = graph.room_by_id()
    moved: list[ObjectNode] = []
    for obj in graph.objects:
        center = obj.bbox.center
        home = rooms_by_id.get(obj.assigned_room)
        if home is not None and home.bbox.contains_point(center):
            moved.append(obj)
            continue
        containers = sorted(
            (room.id for room in graph.rooms if room.bbox.contains_point(center))
        )
        moved.append(obj._replace(assigned_room=containers[0]) if containers else obj)
    return replace(graph, objects=tuple(moved))


def _relabel(graph: SceneGraph, relabel) -> SceneGraph:
    """``graph`` with each object's label map passed through ``relabel``.

    ``relabel`` returns a new map, or ``None`` to keep the one it is given;
    it runs once per distinct map. An object whose map is kept is kept as
    it is, and objects whose maps change alike share one new map.
    """
    new_maps: dict[tuple, dict[str, str] | None] = {}
    objects = []
    for obj in graph.objects:
        key = tuple(obj.label_per_space.items())
        if key not in new_maps:
            new_maps[key] = relabel(obj.label_per_space)
        labels = new_maps[key]
        objects.append(obj if labels is None else obj._replace(label_per_space=labels))
    return replace(graph, objects=tuple(objects))


def apply_spelling_fixes(graph: SceneGraph, fixes: dict[str, str]) -> SceneGraph:
    """Replace misspelled object labels.

    An object none of whose labels a fix changes is kept as it is.
    """
    if not fixes:
        return graph

    def relabel(labels: dict[str, str]) -> dict[str, str] | None:
        fixed = {space: fixes.get(label, label) for space, label in labels.items()}
        return None if fixed == labels else fixed

    return _relabel(graph, relabel)


def resolve_label_space_conflicts(
    graph: SceneGraph,
    primary_space: str,
    secondary_space: str,
) -> SceneGraph:
    """Repair fine-grained labels mapped to multiple coarse labels.

    For each secondary-space label seen with more than one primary-space
    label, every carrier is rewritten to the first non-rejected primary
    label in encounter order (all-rejected mappings keep the first seen).
    An object whose primary label does not change is kept as it is.
    """
    mapping: dict[str, list[str]] = {}
    for obj in graph.objects:
        sec = obj.label_per_space[secondary_space]
        pri = obj.label_per_space[primary_space]
        seen = mapping.setdefault(sec, [])
        if pri not in seen:
            seen.append(pri)

    chosen: dict[str, str] = {}
    for sec, primaries in mapping.items():
        if len(primaries) < 2:
            continue
        usable = [p for p in primaries if p not in DEFAULT_REJECTED_OBJECT_LABELS]
        chosen[sec] = usable[0] if usable else primaries[0]

    if not chosen:
        return graph

    def relabel(labels: dict[str, str]) -> dict[str, str] | None:
        primary = chosen.get(labels[secondary_space])
        if primary is None or labels[primary_space] == primary:
            return None
        return {**labels, primary_space: primary}

    return _relabel(graph, relabel)


def filter_graph(
    graph: SceneGraph, object_space: str, keep_object_category: bool = True
) -> SceneGraph:
    """Drop outdoor/none rooms, rejected objects, and newly empty rooms.

    The filtered labels are fixed. A room goes when its label is one of
    :data:`DROPPED_ROOM_LABELS`. An object is rejected when its label in the
    graph's first (coarse) object space or in ``object_space`` is in
    :data:`DEFAULT_REJECTED_OBJECT_LABELS`; with ``keep_object_category``,
    runs over a finer space retain the coarse category "object", since the
    fine space keeps semantically rich labels under it. Other object spaces
    are carried unfiltered. The dropped room labels leave the room space;
    if fewer than two are left, a :class:`ValueError` names them.
    """
    if object_space not in graph.object_space_names:
        raise ValueError(f"object space {object_space!r} not declared in graph")
    primary_space = graph.object_space_names[0]

    room_labels = tuple(l for l in graph.room_space.labels if l not in DROPPED_ROOM_LABELS)
    if len(room_labels) < 2:
        raise ValueError(
            f"filtering leaves rooms={','.join(room_labels)}; "
            "a room needs at least 2 labels to choose from"
        )
    kept_rooms = tuple(
        room for room in graph.rooms if room.gt_label not in DROPPED_ROOM_LABELS
    )
    kept_room_ids = {room.id for room in kept_rooms}

    keep_exception = keep_object_category and object_space != primary_space

    def keep(obj: ObjectNode) -> bool:
        if obj.assigned_room not in kept_room_ids:
            return False
        coarse = obj.label_per_space[primary_space]
        if coarse in DEFAULT_REJECTED_OBJECT_LABELS and not (
            keep_exception and coarse == RETAINED_COARSE_LABEL
        ):
            return False
        return obj.label_per_space[object_space] not in DEFAULT_REJECTED_OBJECT_LABELS

    # a kept object's room is kept; a kept room that no kept object names is
    # dropped as empty
    kept_objects = tuple(obj for obj in graph.objects if keep(obj))
    occupied = {obj.assigned_room for obj in kept_objects}
    rooms = tuple(room for room in kept_rooms if room.id in occupied)
    room_space = LabelSpace(name=graph.room_space.name, labels=room_labels)
    return replace(graph, rooms=rooms, objects=kept_objects, room_space=room_space)


def run_pipeline(
    graph: SceneGraph,
    object_space: str,
    spelling_fixes: dict[str, str],
    keep_object_category: bool = True,
) -> SceneGraph:
    """Apply the full preprocessing pipeline in its fixed order.

    ``spelling_fixes`` is as :func:`load_spelling_fixes` returns it; the last
    step, :func:`filter_graph`, drops the fixed labels its docstring names.
    """
    graph = reassign_objects_by_bbox(graph)
    graph = apply_spelling_fixes(graph, spelling_fixes)
    names = graph.object_space_names
    for secondary in names[1:]:
        graph = resolve_label_space_conflicts(graph, names[0], secondary)
    return filter_graph(graph, object_space, keep_object_category)


def merge_graphs(graphs: list[SceneGraph], names=None) -> SceneGraph:
    """Concatenate per-building graphs sharing the same label spaces.

    Needs at least one graph. Each graph joins in turn: its object-space
    names and room space must equal the first graph's exactly, and none of
    its node ids may repeat one already joined (the converter prefixes ids
    with the building name). The first graph that cannot join is a
    :class:`ValueError`; given ``names``, one per graph, its message starts
    with that graph's name.
    """
    first = graphs[0]
    rooms: list[RoomNode] = []
    objects: list[ObjectNode] = []
    seen_rooms: set[str] = set()
    seen_objects: set[str] = set()
    for i, g in enumerate(graphs):
        where = f"{names[i]}: " if names else ""
        if g.object_space_names != first.object_space_names:
            raise ValueError(f"{where}cannot merge graphs with different label spaces")
        if g.room_space != first.room_space:
            raise ValueError(f"{where}cannot merge graphs with different room label lists")
        for room in g.rooms:
            if room.id in seen_rooms:
                raise ValueError(f"{where}duplicate room id {room.id!r} across merged graphs")
            seen_rooms.add(room.id)
            rooms.append(room)
        for obj in g.objects:
            if obj.id in seen_objects:
                raise ValueError(f"{where}duplicate object id {obj.id!r} across merged graphs")
            seen_objects.add(obj.id)
            objects.append(obj)

    return replace(first, rooms=tuple(rooms), objects=tuple(objects))


def room_label_histogram(graph: SceneGraph) -> dict[str, int]:
    """Room count per ground-truth label, in room-space label order."""
    counts = dict.fromkeys(graph.room_space.labels, 0)
    for room in graph.rooms:
        counts[room.gt_label] += 1
    return counts
