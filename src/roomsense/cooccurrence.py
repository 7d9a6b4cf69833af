"""Object-to-room conditional distributions and entropy-based selection.

For every object label o the table holds p(room = r | o) over the room
label space, built one of two ways:

* ground truth: count how often each object label appears in each room
  label and normalize over rooms, with Laplace smoothing so every entry
  stays strictly positive;
* proxy: softmax over the sentence log probabilities of "A room containing
  o is called a(n) r." for every room label, queried from a scorer. Proxy
  rows need no task-specific data and can be precomputed for the whole
  label-space cross product and cached to disk.

Low-entropy rows mark semantically informative object labels; a room's
query objects are the k lowest-entropy distinct labels present in it.
Entropies are in nats. Built tables are immutable.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import closing
from typing import NamedTuple

from .atomic import atomic_write, read_lines
from .lm_scoring import SentenceScorer, TransportError, score_totals
from .querygen import QueryTemplate, render_room_queries
from .scene_model import ROOM_SPACE_NAME, LabelSpace, RoomNode, SceneGraph

GROUND_TRUTH = "ground_truth"
PROXY = "proxy"

# how far a row sum may stray from 1, and a stored entropy from its row's
_TOLERANCE = 1e-9


def entropy(p) -> float:
    """Shannon entropy in nats, with 0*log(0) taken as 0.

    The input must be a probability vector: entries >= 0 summing to 1
    within 1e-9, otherwise ValueError.
    """
    values = [float(x) for x in p]
    if any(x < 0 for x in values):
        raise ValueError("probability entries must be non-negative")
    total = math.fsum(values)
    if abs(total - 1.0) > _TOLERANCE:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return -math.fsum(x * math.log(x) for x in values if x > 0.0)


def softmax_from_logs(log_values) -> tuple[float, ...]:
    """Softmax of log-space scores with max-shift stabilization."""
    logs = [float(x) for x in log_values]
    peak = max(logs)
    exps = [math.exp(x - peak) for x in logs]
    norm = math.fsum(exps)
    return tuple(x / norm for x in exps)


class CooccurrenceTable(NamedTuple):
    """Per-object-label conditional distribution over room labels.

    ``rows[o]`` is a probability vector aligned with ``room_labels``;
    ``entropy[o]`` its Shannon entropy in nats. ``provenance`` is either
    ``"ground_truth"`` (with ``smoothing_alpha`` set) or ``"proxy"`` (with
    ``scorer_identity`` and ``template_version`` set).
    """

    object_space: str
    room_space: str
    room_labels: tuple[str, ...]
    rows: dict[str, tuple[float, ...]]
    entropy: dict[str, float]
    provenance: str
    smoothing_alpha: float | None = None
    scorer_identity: str = ""
    template_version: str = ""


def count_ground_truth(
    graph: SceneGraph,
    object_space: str,
    alpha: float = 1.0,
    presence: bool = False,
) -> CooccurrenceTable:
    """Build the table from ground-truth co-occurrence counts.

    Counting tallies one per object instance by default; with
    ``presence=True`` a label counts at most once per room. Laplace
    smoothing adds ``alpha`` to every (object label, room label) cell, so
    rows stay strictly positive for alpha > 0. Only objects that sit in a
    room of the graph are counted, and the table has one row per counted
    label, in sorted order.
    """
    if alpha < 0:
        raise ValueError("smoothing alpha must be >= 0")
    room_space = graph.room_space
    room_labels = room_space.labels

    # every room's label is declared, so it has a column
    room_column = {room.id: room_labels.index(room.gt_label) for room in graph.rooms}
    counts: dict[str, list[int]] = defaultdict(lambda: [0] * len(room_labels))
    seen_in_room: set[tuple[str, str]] = set()
    for obj in graph.objects:
        column = room_column.get(obj.assigned_room)
        if column is None:
            continue
        label = obj.label_per_space[object_space]
        if presence:
            key = (label, obj.assigned_room)
            if key in seen_in_room:
                continue
            seen_in_room.add(key)
        counts[label][column] += 1

    rows: dict[str, tuple[float, ...]] = {}
    entropies: dict[str, float] = {}
    denominator_extra = alpha * len(room_labels)
    for label in sorted(counts):
        cell = counts[label]
        total = sum(cell)  # at least 1: the label was counted
        row = tuple((count + alpha) / (total + denominator_extra) for count in cell)
        rows[label] = row
        entropies[label] = entropy(row)

    return CooccurrenceTable(
        object_space=object_space,
        room_space=room_space.name,
        room_labels=room_labels,
        rows=rows,
        entropy=entropies,
        provenance=GROUND_TRUTH,
        smoothing_alpha=alpha,
    )


def build_proxy_table(
    scorer: SentenceScorer,
    object_space: LabelSpace,
    room_space: LabelSpace,
    template: QueryTemplate | None = None,
    max_workers: int = 1,  # unused; kept because bench/workloads.py passes it
) -> CooccurrenceTable:
    """Proxy table over the full object-space x room-space cross product.

    Every row's sentences, one per room label, are rendered first and
    scored as one group through :func:`score_totals`; rows are then
    assembled in object label order. A scorer failure raises the first
    :class:`TransportError` in (object label, room label) order.
    """
    template = template or QueryTemplate()
    room_labels = tuple(room_space.labels)
    groups = [render_room_queries([label], room_labels, template) for label in object_space.labels]
    rows = {}
    for label, totals in zip(object_space.labels, score_totals(scorer, groups)):
        if isinstance(totals, TransportError):
            raise totals
        rows[label] = softmax_from_logs(totals)
    return CooccurrenceTable(
        object_space=object_space.name,
        room_space=room_space.name,
        room_labels=room_labels,
        rows=rows,
        entropy={label: entropy(row) for label, row in rows.items()},
        provenance=PROXY,
        scorer_identity=scorer.identity,
        template_version=template.version,
    )


def select_informative(
    room: RoomNode,
    labels: set[str],
    table: CooccurrenceTable,
    k: int,
) -> list[str]:
    """The k lowest-entropy of ``labels``, the distinct labels of ``room``'s objects.

    The labels are in ``table.object_space``. Ordered by ascending entropy,
    ties broken by the lexicographically smaller label; a room with fewer
    than k labels contributes all of them. ``k <= 0`` and a label the table
    has no row for, named with its room, are a ``ValueError``.
    """
    if k <= 0:
        raise ValueError("k must be a positive integer")
    for label in labels:
        if label not in table.rows:
            raise ValueError(
                f"object label {label!r} in room {room.id!r} missing from table"
            )
    ranked = sorted(labels, key=lambda label: (table.entropy[label], label))
    return ranked[:k]


# ---------------------------------------------------------------------------
# Cache file format: a metadata block of '#'-prefixed lines, then a header
# row of room labels, then one row per object label with |L_R| probabilities
# and the entropy. Floats are written with repr() so they round-trip
# losslessly (shortest form, at most 17 significant digits).
# ---------------------------------------------------------------------------

_MAGIC = "# roomsense-cooccurrence v1"


def write_table(table: CooccurrenceTable, path, manifest_id: str | None = None) -> None:
    """Write ``table`` in the cache file format, each line as it is built."""
    alpha = "-" if table.smoothing_alpha is None else repr(table.smoothing_alpha)
    with atomic_write(path) as handle:
        write = handle.write
        write(f"{_MAGIC}\n")
        write(f"# provenance: {table.provenance}\n")
        write(f"# object_space: {table.object_space}\n")
        write(f"# room_space: {table.room_space}\n")
        write(f"# alpha: {alpha}\n")
        write(f"# scorer: {table.scorer_identity or '-'}\n")
        write(f"# template: {table.template_version or '-'}\n")
        if manifest_id:
            write(f"# manifest: {manifest_id}\n")
        write("\t".join(["label", *table.room_labels, "entropy"]) + "\n")
        for label, row in table.rows.items():
            cells = [label]
            cells.extend(map(repr, row))
            cells.append(repr(table.entropy[label]))
            write("\t".join(cells) + "\n")


def _read_alpha(text: str, where: str) -> float | None:
    """The ``# alpha:`` value: ``-`` (no smoothing) or a finite number >= 0."""
    if text == "-":
        return None
    try:
        alpha = float(text)
    except ValueError:
        alpha = math.nan
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"{where}: alpha {text!r} is not '-' or a finite number of at least 0")
    return alpha


def read_table(path) -> CooccurrenceTable:
    """Read a table written by :func:`write_table`.

    The ``# alpha:`` line must hold ``-`` or a finite number of at least 0,
    a ``# provenance:`` line must hold ``ground_truth`` or ``proxy``, an
    ``# object_space:`` line must be present, and a header row naming each
    room label once, none empty, must follow the metadata. Every row must
    hold finite numbers, a label that is not blank and no other row holds,
    probabilities summing to 1 within 1e-9 and the entropy of those
    probabilities within 1e-9; any other input raises ``ValueError``
    naming ``path:line``.
    """
    with closing(read_lines(path)) as stream:
        lines = enumerate(stream, 1)
        if next(lines, (1, None))[1] != _MAGIC:
            raise ValueError(f"{path}:1: not a roomsense co-occurrence file")

        meta: dict[str, str] = {}
        alpha = None
        lineno = 1
        for lineno, line in lines:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].partition(":")
            key, value = key.strip(), value.strip()
            meta[key] = value
            if key == "alpha":
                alpha = _read_alpha(value, f"{path}:{lineno}")
            elif key == "provenance" and value not in (GROUND_TRUTH, PROXY):
                raise ValueError(
                    f"{path}:{lineno}: provenance {value!r} is not {GROUND_TRUTH!r} or {PROXY!r}"
                )
        else:
            raise ValueError(f"{path}:{lineno + 1}: no table header after the metadata")
        for key in ("provenance", "object_space"):
            if key not in meta:
                raise ValueError(f"{path}:{lineno}: no {key} line in the metadata")
        header = line.split("\t")
        if header[0] != "label" or header[-1] != "entropy":
            raise ValueError(f"{path}:{lineno}: malformed table header")
        room_labels = tuple(header[1:-1])
        if "" in room_labels or len(set(room_labels)) != len(room_labels):
            raise ValueError(
                f"{path}:{lineno}: header repeats a room label or holds an empty one"
            )

        rows: dict[str, tuple[float, ...]] = {}
        entropies: dict[str, float] = {}
        for lineno, line in lines:
            if not line:
                continue
            cells = line.split("\t")
            label = cells[0]
            where = f"{path}:{lineno}: row {label!r}"
            if not label.strip():
                raise ValueError(f"{where} has an empty label")
            if len(cells) != len(room_labels) + 2:
                raise ValueError(f"{where} has wrong column count")
            if label in rows:
                raise ValueError(f"{where} repeats an earlier row's label")
            try:
                values = [float(x) for x in cells[1:]]
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{where} holds a non-finite number")
            row, stored = tuple(values[:-1]), values[-1]
            try:
                recomputed = entropy(row)
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            if abs(recomputed - stored) > _TOLERANCE:
                raise ValueError(
                    f"{where} stores entropy {stored!r}; its probabilities give {recomputed!r}"
                )
            rows[label] = row
            entropies[label] = stored

    return CooccurrenceTable(
        object_space=meta["object_space"],
        room_space=meta.get("room_space", ROOM_SPACE_NAME),
        room_labels=room_labels,
        rows=rows,
        entropy=entropies,
        provenance=meta["provenance"],
        smoothing_alpha=alpha,
        scorer_identity="" if meta.get("scorer", "-") == "-" else meta["scorer"],
        template_version="" if meta.get("template", "-") == "-" else meta["template"],
    )
