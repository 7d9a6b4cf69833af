"""End-to-end room labeling: select objects, render queries, score, argmax.

For one room: take the k lowest-entropy object labels present, render one
candidate sentence per room label, score them all, and predict the room
label whose sentence scored highest (ties go to the lexicographically
smaller label; real backends never tie, coarse mock scorers can).
:class:`RoomPrediction` derives that label from its candidates.

Rooms are independent: each prediction depends only on its own room, the
immutable table, and the scorer, so results do not depend on execution
order. :func:`classify_graph` runs in two steps: :func:`select_rooms`
reads the graph into one selection per room, and :func:`classify_selections`
decides each room's outcome from that list, so a caller can let the graph
go in between. Each distinct sentence is scored once per classification,
so rooms that render the same sentence share its total, or its failure. A
room with no usable object label, or whose scorer calls fail (after the
backend's own retries), is marked failed and reported, never silently
skipped: silent exclusion would inflate accuracy invisibly.

Every record here is a named tuple, compared as the tuple of its fields;
a :class:`Candidate`, cheap to build once per room label of every
classified or read-back room, hashes as its ``(room label, sentence,
total)`` triple.
"""

from __future__ import annotations

import json
from functools import partial
from typing import NamedTuple

from .atomic import atomic_write, read_lines
from .cooccurrence import CooccurrenceTable, select_informative
from .lm_scoring import SentenceScorer, TransportError, _is_finite_number, score_totals
from .querygen import QueryTemplate, render_room_queries
from .scene_model import SceneGraph

_FORMAT = "roomsense-predictions/v1"


class TrialCondition(NamedTuple):
    """Everything that pins down one run of the pipeline."""

    object_space: str
    provenance: str
    k: int
    template_version: str
    backend: str


class Candidate(NamedTuple):
    """One room label's candidate sentence and its total log probability."""

    room_label: str
    sentence: str
    total_logprob: float


# Builds a Candidate from a (room label, sentence, total) triple without
# running any Python code, unlike the keyword constructor and ``_make``.
_candidate_from_triple = partial(tuple.__new__, Candidate)


class RoomPrediction(NamedTuple):
    room_id: str
    selected_objects: tuple[str, ...]
    candidates: tuple[Candidate, ...]
    gt_label: str

    @property
    def predicted_label(self) -> str:
        """The best candidate's room label: :func:`argmax_label` of them."""
        return argmax_label(self.candidates)


class RoomFailure(NamedTuple):
    room_id: str
    reason: str


class GraphClassification(NamedTuple):
    predictions: tuple[RoomPrediction, ...]
    failures: tuple[RoomFailure, ...]
    condition: TrialCondition


def argmax_label(candidates) -> str:
    """Highest-scoring room label; exact ties break lexicographically."""
    best = min(candidates, key=lambda c: (-c.total_logprob, c.room_label))
    return best.room_label


class RoomSelection(NamedTuple):
    """A room to classify: its id, ground-truth label and query objects."""

    room_id: str
    gt_label: str
    objects: tuple[str, ...]


def select_rooms(graph: SceneGraph, table: CooccurrenceTable, k: int) -> list[RoomSelection]:
    """One selection per room, ordered by room id: its :func:`select_informative` objects.

    A room with no usable object label is selected with no objects. The
    result holds nothing of the graph but strings, so the graph can go
    before any room is scored.
    """
    return [
        RoomSelection(room.id, room.gt_label, tuple(select_informative(room, graph, table, k)))
        for room in sorted(graph.rooms, key=lambda r: r.id)
    ]


def classify_selections(
    selections: list[RoomSelection],
    room_labels: tuple[str, ...],
    table: CooccurrenceTable,
    scorer: SentenceScorer,
    k: int,
    template: QueryTemplate | None = None,
) -> GraphClassification:
    """Render, score and decide the outcome of each room :func:`select_rooms` selected.

    Every room's sentences, one per room label, are rendered first and
    scored as one group through :func:`score_totals`. Then each room, in
    the order given, is a prediction or a failure. A room with no objects
    renders no sentence and fails: ingest drops such a room, but a graph
    that skipped ingest can hold one. A room also fails with the first of
    its sentences, in room-label order, that failed to score.
    """
    template = template or QueryTemplate()
    rendered = [
        render_room_queries(room.objects, room_labels, template) if room.objects else []
        for room in selections
    ]

    predictions, failures = [], []
    for room, sentences, totals in zip(selections, rendered, score_totals(scorer, rendered)):
        if not sentences:
            reason = f"room {room.room_id!r} has no usable object labels"
        elif isinstance(totals, TransportError):
            reason = f"scoring failed for room {room.room_id!r}: {totals}"
        else:
            candidates = tuple(map(_candidate_from_triple, zip(room_labels, sentences, totals)))
            predictions.append(RoomPrediction(room.room_id, room.objects, candidates, room.gt_label))
            continue
        failures.append(RoomFailure(room.room_id, reason))
    return GraphClassification(
        predictions=tuple(predictions),
        failures=tuple(failures),
        condition=TrialCondition(
            table.object_space, table.provenance, k, template.version, scorer.identity
        ),
    )


def classify_graph(
    graph: SceneGraph,
    table: CooccurrenceTable,
    scorer: SentenceScorer,
    k: int = 3,
    template: QueryTemplate | None = None,
) -> GraphClassification:
    """Classify every room; output ordered by room id.

    :func:`select_rooms`, then :func:`classify_selections`. Per-room
    failures are collected, not raised, so one flaky room cannot take down
    a long run.
    """
    return classify_selections(
        select_rooms(graph, table, k), graph.room_space.labels, table, scorer, k, template
    )


# ---------------------------------------------------------------------------
# Prediction files: JSON lines, one header record then one record per room
# (every candidate sentence and score included, so downstream analysis never
# needs to re-query the LM). Keys are sorted to keep output byte-stable.
# ---------------------------------------------------------------------------


def write_predictions(
    result: GraphClassification, path, manifest_id: str | None = None
) -> None:
    header = {
        "kind": "header",
        "format": _FORMAT,
        **result.condition._asdict(),
        "manifest": manifest_id,
    }
    with atomic_write(path) as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for p in result.predictions:
            record = {
                "kind": "prediction",
                "room_id": p.room_id,
                "selected_objects": list(p.selected_objects),
                "candidates": [
                    [c.room_label, c.sentence, c.total_logprob] for c in p.candidates
                ],
                "predicted_label": p.predicted_label,
                "gt_label": p.gt_label,
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        for f in result.failures:
            record = {"kind": "failure", "room_id": f.room_id, "reason": f.reason}
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _json_object(line: str) -> dict:
    try:
        record = json.loads(line)
    except ValueError as err:
        raise ValueError(f"not valid JSON: {err}") from err
    if type(record) is not dict:
        raise ValueError("record is not a JSON object")
    return record


def _field(record: dict, key: str, kind: type):
    """``record[key]``, whose JSON type must be ``kind``."""
    if key not in record:
        raise ValueError(f"missing key {key!r}")
    value = record[key]
    # an exact type: a JSON boolean must not pass as an int
    if type(value) is not kind:
        raise ValueError(f"key {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _prediction(record: dict, room_labels: list[str] | None) -> RoomPrediction:
    """The prediction ``record`` holds; its candidates must name ``room_labels``
    in order, when given, and then share those strings."""
    selected = _field(record, "selected_objects", list)
    if any(type(label) is not str for label in selected):
        raise ValueError("key 'selected_objects' must list strings")
    triples = _field(record, "candidates", list)
    for c in triples:
        if not (type(c) is list and len(c) == 3 and type(c[0]) is str
                and type(c[1]) is str):
            raise ValueError(
                "key 'candidates' must list [room label, sentence, total logprob] triples"
            )
        if not _is_finite_number(c[2]):
            raise ValueError(f"candidate total {c[2]!r} is not a finite number")
    if not triples:
        raise ValueError("key 'candidates' lists no candidate")
    if len(triples) < 2:
        raise ValueError(
            f"key 'candidates' lists one candidate, {triples[0][0]!r}; "
            "a room needs at least 2 to choose from"
        )
    if room_labels is not None:
        labels = [c[0] for c in triples]
        if labels != room_labels:
            raise ValueError(
                f"candidate room labels {labels} differ from the first "
                f"prediction's {room_labels}"
            )
        for c, label in zip(triples, room_labels):
            c[0] = label
    candidates = tuple(map(_candidate_from_triple, triples))
    predicted = _field(record, "predicted_label", str)
    best = argmax_label(candidates)
    if predicted != best:
        raise ValueError(f"predicted label {predicted!r} is not the best candidate {best!r}")
    return RoomPrediction(
        room_id=_field(record, "room_id", str),
        selected_objects=tuple(selected),
        candidates=candidates,
        gt_label=_field(record, "gt_label", str),
    )


def read_predictions(path) -> GraphClassification:
    """Read a predictions file back into the result it was written from.

    A line that is not a JSON object, a record with a missing or mistyped
    key, a candidate total that is not a finite number, a prediction with
    fewer than two candidates or whose predicted label is not
    :func:`argmax_label` of its candidates, a room id that an earlier record
    holds, or a prediction whose candidate room labels differ from the first
    prediction's is a ``ValueError`` naming its ``path:line``. Every prediction's candidates
    share the first prediction's room label strings.
    """
    predictions: list[RoomPrediction] = []
    room_labels: list[str] | None = None
    failures: list[RoomFailure] = []
    room_ids: set[str] = set()
    condition = None
    for lineno, line in enumerate(read_lines(path), 1):
        if condition is not None and not line.strip():
            continue
        try:
            record = _json_object(line)
            if condition is None:
                if record.get("kind") != "header" or record.get("format") != _FORMAT:
                    raise ValueError(f"not a {_FORMAT} file")
                condition = TrialCondition(
                    object_space=_field(record, "object_space", str),
                    provenance=_field(record, "provenance", str),
                    k=_field(record, "k", int),
                    template_version=_field(record, "template_version", str),
                    backend=_field(record, "backend", str),
                )
                continue
            kind = _field(record, "kind", str)
            if kind == "prediction":
                entry = _prediction(record, room_labels)
                if room_labels is None:
                    room_labels = [c.room_label for c in entry.candidates]
                predictions.append(entry)
            elif kind == "failure":
                entry = RoomFailure(
                    room_id=_field(record, "room_id", str),
                    reason=_field(record, "reason", str),
                )
                failures.append(entry)
            else:
                raise ValueError(f"unknown record kind {kind!r}")
            if entry.room_id in room_ids:
                raise ValueError(f"room id {entry.room_id!r} repeats an earlier record's")
            room_ids.add(entry.room_id)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from err
    if condition is None:
        raise ValueError(f"{path}: empty predictions file")
    return GraphClassification(
        predictions=tuple(predictions), failures=tuple(failures), condition=condition
    )
