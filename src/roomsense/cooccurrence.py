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
from dataclasses import dataclass

from .atomic import atomic_write
from .lm_scoring import SentenceScorer, TransportError, score_totals
from .querygen import QueryTemplate, render_proxy_query
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
    if not logs:
        raise ValueError("cannot normalize an empty score list")
    peak = max(logs)
    exps = [math.exp(x - peak) for x in logs]
    norm = math.fsum(exps)
    return tuple(x / norm for x in exps)


@dataclass(frozen=True)
class CooccurrenceTable:
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

    def row(self, object_label: str) -> tuple[float, ...]:
        return self.rows[object_label]


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
    rows stay strictly positive for alpha > 0 and a never-observed label
    gets the uniform row.
    """
    if alpha < 0:
        raise ValueError("smoothing alpha must be >= 0")
    space = graph.object_space(object_space)
    room_space = graph.room_space
    if room_space is None:
        raise KeyError(f"no label space named {ROOM_SPACE_NAME!r} in graph")
    room_labels = tuple(room_space.labels)

    counts: dict[str, dict[str, int]] = {label: {} for label in space.labels}
    rooms_by_id = graph.room_by_id()
    seen_in_room: set[tuple[str, str]] = set()
    for obj in graph.objects:
        label = obj.label_per_space.get(object_space)
        if label is None or label not in counts:
            continue
        room = rooms_by_id.get(obj.assigned_room)
        if room is None:
            continue
        if presence:
            key = (label, room.id)
            if key in seen_in_room:
                continue
            seen_in_room.add(key)
        cell = counts[label]
        cell[room.gt_label] = cell.get(room.gt_label, 0) + 1

    rows: dict[str, tuple[float, ...]] = {}
    entropies: dict[str, float] = {}
    denominator_extra = alpha * len(room_labels)
    for label in space.labels:
        cell = counts[label]
        total = sum(cell.values())
        if total + denominator_extra == 0:
            raise ValueError(
                f"object label {label!r} has no observations and alpha is 0"
            )
        row = tuple(
            (cell.get(room_label, 0) + alpha) / (total + denominator_extra)
            for room_label in room_labels
        )
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


def _proxy_row(totals) -> tuple[float, ...]:
    """Softmax over one row's totals; raises the row's first failure."""
    logs: list[float] = []
    for total in totals:
        if isinstance(total, TransportError):
            raise total
        logs.append(total)
    return softmax_from_logs(logs)


def proxy_conditional(
    scorer: SentenceScorer,
    object_label: str,
    room_labels,
    template: QueryTemplate | None = None,
) -> tuple[float, ...]:
    """One proxy row: softmax over single-object query sentence scores.

    Scorer failures propagate as :class:`TransportError` with the failing
    sentence attached.
    """
    labels = list(room_labels.labels) if isinstance(room_labels, LabelSpace) else list(room_labels)
    sentences = [render_proxy_query(object_label, r, template) for r in labels]
    return _proxy_row(score_totals(scorer, sentences))


def build_proxy_table(
    scorer: SentenceScorer,
    object_space: LabelSpace,
    room_space: LabelSpace,
    template: QueryTemplate | None = None,
    max_workers: int = 1,  # unused; kept because bench/workloads.py passes it
) -> CooccurrenceTable:
    """Proxy table over the full object-space x room-space cross product.

    Every sentence of the table is rendered first and scored through
    :func:`score_totals`, ``scorer.max_inflight`` at a time; rows are then
    assembled in object label order. A scorer failure raises the first
    :class:`TransportError` in (object label, room label) order.
    """
    template = template or QueryTemplate()
    room_labels = tuple(room_space.labels)
    sentences = [
        render_proxy_query(label, r, template)
        for label in object_space.labels
        for r in room_labels
    ]
    totals = score_totals(scorer, sentences)
    width = len(room_labels)
    rows = {
        label: _proxy_row(totals[i * width:(i + 1) * width])
        for i, label in enumerate(object_space.labels)
    }
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
    graph: SceneGraph,
    table: CooccurrenceTable,
    k: int,
) -> list[str]:
    """The k distinct lowest-entropy object labels present in the room.

    Ordered by ascending entropy, ties broken by the lexicographically
    smaller label. Duplicate instances of a label count once; a room with
    fewer than k distinct labels contributes all of them. Invariant under
    permutation and duplication of the room's object list.
    """
    if k <= 0:
        raise ValueError("k must be a positive integer")
    present: set[str] = set()
    for obj in graph.objects_in_room(room):
        label = obj.label_per_space.get(table.object_space)
        if label is not None:
            present.add(label)
    for label in present:
        if label not in table.rows:
            raise KeyError(
                f"object label {label!r} in room {room.id!r} missing from table"
            )
    ranked = sorted(present, key=lambda label: (table.entropy[label], label))
    return ranked[:k]


# ---------------------------------------------------------------------------
# Cache file format: a metadata block of '#'-prefixed lines, then a header
# row of room labels, then one row per object label with |L_R| probabilities
# and the entropy. Floats are written with repr() so they round-trip
# losslessly (shortest form, at most 17 significant digits).
# ---------------------------------------------------------------------------

_MAGIC = "# roomsense-cooccurrence v1"


def write_table(table: CooccurrenceTable, path, manifest_id: str | None = None) -> None:
    lines = [_MAGIC]
    lines.append(f"# provenance: {table.provenance}")
    lines.append(f"# object_space: {table.object_space}")
    lines.append(f"# room_space: {table.room_space}")
    alpha = "-" if table.smoothing_alpha is None else repr(table.smoothing_alpha)
    lines.append(f"# alpha: {alpha}")
    lines.append(f"# scorer: {table.scorer_identity or '-'}")
    lines.append(f"# template: {table.template_version or '-'}")
    if manifest_id:
        lines.append(f"# manifest: {manifest_id}")
    lines.append("\t".join(["label", *table.room_labels, "entropy"]))
    for label in table.rows:
        cells = [label]
        cells.extend(repr(x) for x in table.rows[label])
        cells.append(repr(table.entropy[label]))
        lines.append("\t".join(cells))
    with atomic_write(path) as handle:
        handle.write("\n".join(lines) + "\n")


def read_table(path) -> CooccurrenceTable:
    """Read a table written by :func:`write_table`.

    Every row must hold finite numbers, a label no other row holds,
    probabilities summing to 1 within 1e-9 and the entropy of those
    probabilities within 1e-9; any other input raises ``ValueError`` naming
    ``path:line``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}:1: not a roomsense co-occurrence file")

    meta: dict[str, str] = {}
    body_start = 0
    for i, line in enumerate(lines[1:], 1):
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        else:
            body_start = i
            break
    header = lines[body_start].split("\t")
    if header[0] != "label" or header[-1] != "entropy":
        raise ValueError(f"{path}:{body_start + 1}: malformed table header")
    room_labels = tuple(header[1:-1])

    rows: dict[str, tuple[float, ...]] = {}
    entropies: dict[str, float] = {}
    for lineno, line in enumerate(lines[body_start + 1:], body_start + 2):
        if not line:
            continue
        cells = line.split("\t")
        label = cells[0]
        where = f"{path}:{lineno}: row {label!r}"
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

    alpha_text = meta.get("alpha", "-")
    return CooccurrenceTable(
        object_space=meta.get("object_space", ""),
        room_space=meta.get("room_space", ROOM_SPACE_NAME),
        room_labels=room_labels,
        rows=rows,
        entropy=entropies,
        provenance=meta.get("provenance", GROUND_TRUTH),
        smoothing_alpha=None if alpha_text == "-" else float(alpha_text),
        scorer_identity="" if meta.get("scorer", "-") == "-" else meta["scorer"],
        template_version="" if meta.get("template", "-") == "-" else meta["template"],
    )
