"""End-to-end room labeling: select objects, render queries, score, argmax.

For one room: take the k lowest-entropy object labels present, render one
candidate sentence per room label, score them all, and predict the room
label whose sentence scored highest (ties go to the lexicographically
smaller label; real backends never tie, coarse mock scorers can).

Rooms are independent: each prediction depends only on its own room, the
immutable table, and the scorer, so results do not depend on execution
order. A room whose scorer calls fail (after the backend's own retries) is
marked failed and reported, never silently skipped: silent exclusion would
inflate accuracy invisibly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .cooccurrence import CooccurrenceTable, select_informative
from .lm_scoring import SentenceScorer, TransportError, score_totals
from .querygen import QueryTemplate, render_room_query
from .scene_model import RoomNode, SceneGraph

_FORMAT = "roomsense-predictions/v1"


class RoomClassificationError(Exception):
    """A single room could not be classified; carries the room id."""

    def __init__(self, message: str, room_id: str):
        super().__init__(message)
        self.room_id = room_id


@dataclass(frozen=True)
class TrialCondition:
    """Everything that pins down one run of the pipeline."""

    object_space: str
    provenance: str
    k: int
    template_version: str
    backend: str


@dataclass(frozen=True)
class Candidate:
    room_label: str
    sentence: str
    total_logprob: float


@dataclass(frozen=True)
class RoomPrediction:
    room_id: str
    selected_objects: tuple[str, ...]
    candidates: tuple[Candidate, ...]
    predicted_label: str
    gt_label: str
    condition: TrialCondition


@dataclass(frozen=True)
class RoomFailure:
    room_id: str
    reason: str


@dataclass(frozen=True)
class GraphClassification:
    predictions: tuple[RoomPrediction, ...]
    failures: tuple[RoomFailure, ...]
    condition: TrialCondition


def _condition(
    table: CooccurrenceTable, scorer: SentenceScorer, k: int, template: QueryTemplate
) -> TrialCondition:
    return TrialCondition(
        object_space=table.object_space,
        provenance=table.provenance,
        k=k,
        template_version=template.version,
        backend=scorer.identity,
    )


def argmax_label(candidates) -> str:
    """Highest-scoring room label; exact ties break lexicographically."""
    best = min(candidates, key=lambda c: (-c.total_logprob, c.room_label))
    return best.room_label


def classify_room(
    room: RoomNode,
    graph: SceneGraph,
    table: CooccurrenceTable,
    scorer: SentenceScorer,
    k: int = 3,
    template: QueryTemplate | None = None,
) -> RoomPrediction:
    """Predict one room's label from its most informative objects."""
    result = _classify([room], graph, table, scorer, k, template or QueryTemplate())
    if result.failures:
        raise RoomClassificationError(result.failures[0].reason, room.id)
    return result.predictions[0]


def classify_graph(
    graph: SceneGraph,
    table: CooccurrenceTable,
    scorer: SentenceScorer,
    k: int = 3,
    template: QueryTemplate | None = None,
) -> GraphClassification:
    """Classify every room; output ordered by room id.

    Per-room failures are collected, not raised, so one flaky room cannot
    take down a long run.
    """
    rooms = sorted(graph.rooms, key=lambda r: r.id)
    return _classify(rooms, graph, table, scorer, k, template or QueryTemplate())


def _classify(rooms, graph, table, scorer, k, template) -> GraphClassification:
    """Plan, score and assemble the predictions of the given rooms.

    Every room's sentences are rendered first and scored through
    :func:`score_totals`; predictions are then assembled room by room. A
    room fails with the first of its sentences, in room-label order, that
    failed to score.
    """
    condition = _condition(table, scorer, k, template)
    room_labels = graph.room_space.labels if graph.room_space is not None else ()
    plans = []
    reasons: dict[str, str] = {}
    for room in rooms:
        selected = select_informative(room, graph, table, k)
        if not selected:
            # Ingest filtering removes label-less rooms; defend anyway.
            reasons[room.id] = f"room {room.id!r} has no usable object labels"
        elif not room_labels:
            reasons[room.id] = "graph declares no room label space"
        else:
            sentences = [render_room_query(selected, r, template) for r in room_labels]
            plans.append((room, selected, sentences))
    totals = iter(score_totals(scorer, (s for *_, sentences in plans for s in sentences)))

    predictions = []
    for room, selected, sentences in plans:
        room_totals = [next(totals) for _ in sentences]
        failed = [t for t in room_totals if isinstance(t, TransportError)]
        if failed:
            reasons[room.id] = f"scoring failed for room {room.id!r}: {failed[0]}"
            continue
        candidates = list(map(Candidate, room_labels, sentences, room_totals))
        predictions.append(
            RoomPrediction(
                room_id=room.id,
                selected_objects=tuple(selected),
                candidates=tuple(candidates),
                predicted_label=argmax_label(candidates),
                gt_label=room.gt_label,
                condition=condition,
            )
        )
    return GraphClassification(
        predictions=tuple(predictions),
        failures=tuple(RoomFailure(room_id=i, reason=r) for i, r in sorted(reasons.items())),
        condition=condition,
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
        **asdict(result.condition),
        "manifest": manifest_id,
    }
    with open(path, "w", encoding="utf-8") as handle:
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


def read_predictions(path) -> GraphClassification:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty predictions file")
    header = json.loads(lines[0])
    if header.get("kind") != "header" or header.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a {_FORMAT} file")
    condition = TrialCondition(**{f.name: header[f.name] for f in fields(TrialCondition)})
    predictions: list[RoomPrediction] = []
    failures: list[RoomFailure] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        record = json.loads(line)
        if record["kind"] == "prediction":
            predictions.append(
                RoomPrediction(
                    room_id=record["room_id"],
                    selected_objects=tuple(record["selected_objects"]),
                    candidates=tuple(
                        Candidate(room_label=c[0], sentence=c[1], total_logprob=c[2])
                        for c in record["candidates"]
                    ),
                    predicted_label=record["predicted_label"],
                    gt_label=record["gt_label"],
                    condition=condition,
                )
            )
        elif record["kind"] == "failure":
            failures.append(RoomFailure(room_id=record["room_id"], reason=record["reason"]))
        else:
            raise ValueError(f"{path}: unknown record kind {record['kind']!r}")
    return GraphClassification(
        predictions=tuple(predictions), failures=tuple(failures), condition=condition
    )
