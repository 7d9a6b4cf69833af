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
unknown or junk codes map to "none". Override the table via
``region_labels`` if your dataset revision differs.

Object fine labels default to the raw category names; pass the official
category mapping TSV to emit nyuClass labels instead.
"""

from __future__ import annotations

import logging
from pathlib import Path

from .ingest import ParseError
from .scene_model import (
    ROOM_SPACE_NAME,
    BoundingBox,
    LabelSpace,
    ObjectNode,
    RoomNode,
    SceneGraph,
    normalize_label,
    observed_space,
    rooms_with_members,
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

ROOM_LABEL_LIST = (
    "bar",
    "bathroom",
    "bedroom",
    "classroom",
    "closet",
    "conference auditorium",
    "dining room",
    "family room",
    "game room",
    "garage",
    "gym",
    "hallway",
    "kitchen",
    "laundry room",
    "library",
    "living room",
    "lobby",
    "lounge",
    "office",
    "spa",
    "staircase",
    "television room",
    "utility room",
    # pre-filter labels; the ingest pipeline removes these rooms
    "yard",
    "balcony",
    "porch",
    "none",
)


def _clean_name(token: str) -> str:
    """Undo the '#'-for-space substitution used in .house name tokens."""
    name = token.replace("#", " ").strip()
    if not name or name == "-":
        return "unlabeled"
    return normalize_label(name)


def load_category_map(path, column: str = "nyuClass") -> dict[int, str]:
    """Read the official category mapping TSV: category index -> fine label."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError(f"{path}: empty category mapping file")
    header = lines[0].split("\t")
    try:
        index_col = header.index("index")
        label_col = header.index(column)
    except ValueError as err:
        raise ParseError(f"{path}: need 'index' and {column!r} columns") from err
    mapping: dict[int, str] = {}
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) <= max(index_col, label_col):
            raise ParseError(f"{path}:{lineno}: short row")
        label = cells[label_col].strip()
        if label:
            mapping[int(cells[index_col])] = normalize_label(label)
    return mapping


def _aabb_of_oriented_box(center, axis0, axis1, radii) -> BoundingBox:
    (x0, y0, z0), (x1, y1, z1) = axis0, axis1
    axis2 = (y0 * z1 - z0 * y1, z0 * x1 - x0 * z1, x0 * y1 - y0 * x1)
    r0, r1, r2 = (abs(r) for r in radii)
    # Keep this operation order: scene files store the corners by repr, so a
    # reordered sum would change their bytes.
    half = [
        r0 * abs(u) + r1 * abs(v) + r2 * abs(w) for u, v, w in zip(axis0, axis1, axis2)
    ]
    return BoundingBox(
        min_corner=tuple(c - h for c, h in zip(center, half)),
        max_corner=tuple(c + h for c, h in zip(center, half)),
    )


def parse_house_file(
    path,
    category_map: dict[int, str] | None = None,
    region_labels: dict[str, str] | None = None,
) -> SceneGraph:
    """Parse one ``.house`` file into a raw (pre-filter) scene graph."""
    letters = region_labels or REGION_LETTER_LABELS
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    house_name = Path(path).stem

    categories: dict[int, tuple[str, str]] = {}  # index -> (fine, coarse)
    rooms: list[RoomNode] = []
    raw_objects: list[tuple[str, int, int, BoundingBox]] = []
    region_ids: set[int] = set()

    for lineno, raw in enumerate(lines, 1):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        where = f"{path}:{lineno}"
        try:
            if kind == "H":
                if len(tokens) > 1 and tokens[1] not in ("", "-"):
                    house_name = tokens[1]
            elif kind == "R":
                if len(tokens) < 15:
                    raise ValueError(f"need 15+ tokens, got {len(tokens)}")
                index = int(tokens[1])
                letter = tokens[5]
                label = letters.get(letter)
                if label is None:
                    logger.warning("%s: unknown region code %r, using 'none'", where, letter)
                    label = "none"
                lo = tuple(float(x) for x in tokens[9:12])
                hi = tuple(float(x) for x in tokens[12:15])
                rooms.append(
                    RoomNode(
                        id=f"{house_name}/R{index}",
                        gt_label=normalize_label(label),
                        bbox=BoundingBox(min_corner=lo, max_corner=hi),
                    )
                )
                region_ids.add(index)
            elif kind == "C":
                if len(tokens) < 6:
                    raise ValueError(f"need 6+ tokens, got {len(tokens)}")
                index = int(tokens[1])
                mapping_index = int(tokens[2])
                fine = _clean_name(tokens[3])
                coarse = _clean_name(tokens[5])
                if category_map is not None:
                    fine = category_map.get(mapping_index, fine)
                categories[index] = (fine, coarse)
            elif kind == "O":
                if len(tokens) < 16:
                    raise ValueError(f"need 16+ tokens, got {len(tokens)}")
                obj_index = int(tokens[1])
                region_index = int(tokens[2])
                category_index = int(tokens[3])
                center = [float(x) for x in tokens[4:7]]
                axis0 = [float(x) for x in tokens[7:10]]
                axis1 = [float(x) for x in tokens[10:13]]
                radii = [float(x) for x in tokens[13:16]]
                raw_objects.append(
                    (
                        f"{house_name}/O{obj_index}",
                        region_index,
                        category_index,
                        _aabb_of_oriented_box(center, axis0, axis1, radii),
                    )
                )
        except (IndexError, ValueError) as err:
            raise ParseError(f"{where}: malformed {kind!r} record: {err}") from err

    fine_space = FINE_SPACE_MAPPED if category_map is not None else FINE_SPACE_RAW
    objects: list[ObjectNode] = []
    for obj_id, region_index, category_index, bbox in raw_objects:
        if region_index < 0 or region_index not in region_ids:
            logger.warning("skipping %s: no region assignment", obj_id)
            continue
        fine, coarse = categories.get(category_index, ("unlabeled", "unlabeled"))
        objects.append(
            ObjectNode(
                id=obj_id,
                label_per_space={COARSE_SPACE: coarse, fine_space: fine},
                bbox=bbox,
                assigned_room=f"{house_name}/R{region_index}",
            )
        )

    spaces = (
        LabelSpace(name=ROOM_SPACE_NAME, labels=ROOM_LABEL_LIST),
        observed_space(COARSE_SPACE, objects),
        observed_space(fine_space, objects),
    )
    return SceneGraph(
        rooms=rooms_with_members(rooms, objects), objects=tuple(objects), label_spaces=spaces
    )
