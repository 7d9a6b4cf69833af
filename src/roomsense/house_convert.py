"""Convert a Matterport-style ``.house`` segmentation file to a scene file.

The ``.house`` format is whitespace-tokenized ASCII: ``R`` lines carry
regions (rooms) with one-letter type codes and axis-aligned bounds, ``C``
lines the category table (raw name plus coarse mpcat40 name, with ``#``
standing in for spaces), and ``O`` lines oriented object boxes (center,
two axes, radii). Oriented boxes are widened to their axis-aligned hull.

Region letter codes are mapped to full room labels with the table below.
Two codes have no exact counterpart in the room label list and are folded
into the nearest one (toilet rooms into bathroom, dining booths into
dining room); outdoor codes map to labels the ingest filter removes, and
unknown or junk codes map to "none".

Object fine labels default to the raw category names; pass the official
category mapping TSV to emit nyuClass labels instead.
"""

from __future__ import annotations

import logging
from contextlib import closing
from pathlib import Path

from .atomic import read_lines
from .ingest import DROPPED_ROOM_LABELS
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

logger = logging.getLogger(__name__)

COARSE_SPACE = "mpcat40"
FINE_SPACE_RAW = "rawcategory"
FINE_SPACE_MAPPED = "nyuclass"

REGION_LETTER_LABELS = {
    "a": "bathroom",
    "b": "bedroom",
    "c": "closet",
    "d": "dining room",
    "e": "lobby",
    "f": "family room",
    "g": "garage",
    "h": "hallway",
    "i": "library",
    "j": "laundry room",
    "k": "kitchen",
    "l": "living room",
    "m": "conference auditorium",
    "n": "lounge",
    "o": "office",
    "p": "porch",
    "r": "game room",
    "s": "staircase",
    "t": "bathroom",  # toilet rooms; no separate label in the room space
    "u": "utility room",
    "v": "television room",
    "w": "gym",
    "x": "yard",
    "y": "balcony",
    "z": "none",  # "other room"
    "B": "bar",
    "C": "classroom",
    "D": "dining room",  # dining booth
    "S": "spa",
    "Z": "none",  # junk
    "-": "none",
}

# The room space of every converted scene: the region table's labels that
# preprocessing keeps, sorted, then the ones it drops.
ROOM_LABEL_LIST = (
    *sorted(set(REGION_LETTER_LABELS.values()).difference(DROPPED_ROOM_LABELS)),
    *DROPPED_ROOM_LABELS,
)


def _clean_name(token: str) -> str:
    """Undo the '#'-for-space substitution used in .house name tokens."""
    name = token.replace("#", " ").strip()
    if not name or name == "-":
        return "unlabeled"
    return normalize_label(name)


def load_category_map(path) -> dict[int, str]:
    """Read the official category mapping TSV: category index -> nyuClass label.

    A short row or a non-integer index is a :class:`ValueError` naming its
    ``path:line``.
    """
    with closing(read_lines(path)) as lines:
        header = next(lines, None)
        if header is None:
            raise ValueError(f"{path}: empty category mapping file")
        header = header.split("\t")
        try:
            index_col = header.index("index")
            label_col = header.index("nyuClass")
        except ValueError as err:
            raise ValueError(f"{path}: need 'index' and 'nyuClass' columns") from err
        mapping: dict[int, str] = {}
        for lineno, line in enumerate(lines, 2):
            if not line.strip():
                continue
            cells = line.split("\t")
            if len(cells) <= max(index_col, label_col):
                raise ValueError(f"{path}:{lineno}: short row")
            label = cells[label_col].strip()
            if label:
                try:
                    index = int(cells[index_col])
                except ValueError as err:
                    raise ValueError(
                        f"{path}:{lineno}: category index {cells[index_col]!r} is not an integer"
                    ) from err
                mapping[index] = normalize_label(label)
    return mapping


def _aabb_of_oriented_box(box: tuple[float, ...]) -> BoundingBox:
    """The axis-aligned hull of an ``O`` record's box (center, two axes,
    radii); ``ValueError`` if a corner is NaN."""
    cx, cy, cz, x0, y0, z0, x1, y1, z1, r0, r1, r2 = box
    x2, y2, z2 = y0 * z1 - z0 * y1, z0 * x1 - x0 * z1, x0 * y1 - y0 * x1
    r0, r1, r2 = abs(r0), abs(r1), abs(r2)
    # Keep this operation order: scene files store the corners by repr, so a
    # reordered sum would change their bytes.
    hx = r0 * abs(x0) + r1 * abs(x1) + r2 * abs(x2)
    hy = r0 * abs(y0) + r1 * abs(y1) + r2 * abs(y2)
    hz = r0 * abs(z0) + r1 * abs(z1) + r2 * abs(z2)
    return _ordered_box(cx - hx, cy - hy, cz - hz, cx + hx, cy + hy, cz + hz)


def parse_house_file(path, category_map: dict[int, str] | None = None) -> SceneGraph:
    """Parse one ``.house`` file into a raw (pre-filter) scene graph.

    A malformed record, or a repeated ``R``, ``C`` or ``O`` index, is a
    :class:`ValueError` naming its ``path:line``, and so are the boxes the
    scene parser refuses: a region box not ordered min <= max on every axis
    and an object hull with a NaN corner. Ids take the house name current
    at their record: the file stem until an ``H`` line names one.
    An object is built at its ``O`` line: it takes the id its region was
    given at the region's ``R`` line and the one label map its category was
    given at the category's ``C`` line. A negative region, or one not read
    by then, skips the object with a warning; a category not read is ``unlabeled``.
    """
    house_name = Path(path).stem
    fine_space = FINE_SPACE_MAPPED if category_map is not None else FINE_SPACE_RAW

    categories: dict[int, dict[str, str]] = {}  # index -> label per space
    unlabeled = {COARSE_SPACE: "unlabeled", fine_space: "unlabeled"}
    rooms: list[RoomNode] = []
    objects: list[ObjectNode] = []
    room_ids: dict[int, str] = {}  # region index -> room id
    object_ids: set[int] = set()

    for lineno, raw in enumerate(read_lines(path), 1):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        try:
            if kind == "H":
                if len(tokens) > 1 and tokens[1] not in ("", "-"):
                    house_name = tokens[1]
            elif kind == "R":
                if len(tokens) < 15:
                    raise ValueError(f"need 15+ tokens, got {len(tokens)}")
                index = int(tokens[1])
                if index in room_ids:
                    raise ValueError(f"duplicate region index {index}")
                letter = tokens[5]
                label = REGION_LETTER_LABELS.get(letter)
                if label is None:
                    logger.warning(
                        "%s:%d: unknown region code %r, using 'none'", path, lineno, letter
                    )
                    label = "none"
                bbox = _ordered_box(*map(float, tokens[9:15]))
                room_ids[index] = f"{house_name}/R{index}"
                rooms.append(room_from_fields((room_ids[index], label, bbox)))
            elif kind == "C":
                if len(tokens) < 6:
                    raise ValueError(f"need 6+ tokens, got {len(tokens)}")
                index = int(tokens[1])
                if index in categories:
                    raise ValueError(f"duplicate category index {index}")
                mapping_index = int(tokens[2])
                fine = _clean_name(tokens[3])
                coarse = _clean_name(tokens[5])
                if category_map is not None:
                    fine = category_map.get(mapping_index, fine)
                categories[index] = {COARSE_SPACE: coarse, fine_space: fine}
            elif kind == "O":
                if len(tokens) < 16:
                    raise ValueError(f"need 16+ tokens, got {len(tokens)}")
                obj_index = int(tokens[1])
                if obj_index in object_ids:
                    raise ValueError(f"duplicate object index {obj_index}")
                object_ids.add(obj_index)
                obj_id = f"{house_name}/O{obj_index}"
                region_index = int(tokens[2])
                labels = categories.get(int(tokens[3]), unlabeled)
                bbox = _aabb_of_oriented_box(tuple(map(float, tokens[4:16])))
                if region_index < 0 or region_index not in room_ids:
                    logger.warning("skipping %s: no region assignment", obj_id)
                    continue
                objects.append(object_from_fields((obj_id, labels, bbox, room_ids[region_index])))
        except (IndexError, ValueError) as err:
            raise ValueError(f"{path}:{lineno}: malformed {kind!r} record: {err}") from err

    return SceneGraph(
        rooms=tuple(rooms),
        objects=tuple(objects),
        room_space=LabelSpace(name=ROOM_SPACE_NAME, labels=ROOM_LABEL_LIST),
        object_space_names=(COARSE_SPACE, fine_space),
    )
