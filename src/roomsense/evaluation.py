"""Accuracy reports, baselines, and confusion matrices over predictions.

``evaluate`` is a pure function of a run: shuffling its predictions
changes nothing. Failed rooms are excluded from every denominator but
carried in the report so they stay visible. A label with zero
evaluated rooms gets no accuracy value at all (reported as undefined,
never 0 or 1, which would mislead for rare labels). Baselines are
recomputed from the evaluated subset rather than hardcoded, so subset and
synthetic runs stay meaningful: random is uniform over the room space,
majority is the most frequent ground-truth label's share. A
:class:`ConditionTable` stores only accuracies, and derives its grid's axes.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .atomic import atomic_write
from .inference import GraphClassification, TrialCondition


class LabelStats(NamedTuple):
    correct: int
    total: int

    @property
    def accuracy(self) -> float | None:
        if self.total == 0:
            return None
        return self.correct / self.total


class EvalReport(NamedTuple):
    condition: TrialCondition
    room_labels: tuple[str, ...]
    overall_accuracy: float
    per_label: dict[str, LabelStats]
    confusion: tuple[tuple[int, ...], ...]  # rows = ground truth, cols = predicted
    baselines: dict[str, float]
    failed_rooms: tuple[str, ...]
    evaluated: int


def evaluate(run: GraphClassification) -> EvalReport:
    """Score a run's predictions against their ground-truth labels.

    The room labels are the first prediction's candidate labels, in order.
    """
    if not run.predictions:
        raise ValueError("no successful predictions to evaluate")
    labels = tuple(c.room_label for c in run.predictions[0].candidates)
    index = {label: i for i, label in enumerate(labels)}

    matrix = [[0] * len(labels) for _ in labels]
    for p in run.predictions:
        if p.gt_label not in index:
            raise ValueError(f"ground-truth label {p.gt_label!r} not in room space")
        matrix[index[p.gt_label]][index[p.predicted_label]] += 1

    correct = [row[i] for i, row in enumerate(matrix)]
    total = [sum(row) for row in matrix]
    evaluated = sum(total)
    return EvalReport(
        condition=run.condition,
        room_labels=labels,
        overall_accuracy=sum(correct) / evaluated,
        per_label={label: LabelStats(c, t) for label, c, t in zip(labels, correct, total)},
        confusion=tuple(map(tuple, matrix)),
        baselines={
            "random": 1.0 / len(labels),
            "majority": max(total) / evaluated,
        },
        failed_rooms=tuple(f.room_id for f in run.failures),
        evaluated=evaluated,
    )


class ConditionTable(NamedTuple):
    """Accuracy per (row label, object space) cell; rows and columns derive from its keys."""

    accuracy: dict[tuple[str, str], float]  # (row label, object_space) -> value

    @property
    def provenances(self) -> tuple[str, ...]:  # row labels, in first-seen order
        return tuple(dict.fromkeys(p for p, _ in self.accuracy))

    @property
    def object_spaces(self) -> tuple[str, ...]:  # columns, in first-seen order
        return tuple(dict.fromkeys(s for _, s in self.accuracy))


def compare_conditions(reports, names=None) -> ConditionTable:
    """Arrange per-condition accuracies into a provenance x space grid.

    A row is labelled by its provenance and by every other field of the
    condition that varies across the reports, as ``format_report`` names
    it: runs at k=1 and k=3 make the rows ``ground_truth k=1`` and
    ``ground_truth k=3``. Two reports of one condition are a
    :class:`ValueError`; given ``names``, one per report, its message
    names both reports.
    """
    reports = list(reports)
    varying = [
        (tag, name)
        for tag, name in (("k", "k"), ("template", "template_version"), ("backend", "backend"))
        if len({getattr(r.condition, name) for r in reports}) > 1
    ]
    accuracy: dict[tuple[str, str], float] = {}
    for i, report in enumerate(reports):
        c = report.condition
        row = " ".join([c.provenance, *(f"{tag}={getattr(c, name)}" for tag, name in varying)])
        key = (row, c.object_space)
        if key in accuracy:
            # the keys before this report are distinct, so a key's position
            # in accuracy is the index of the report that holds it
            where = f": {names[list(accuracy).index(key)]} and {names[i]}" if names else ""
            raise ValueError(f"duplicate condition {key!r}{where}")
        accuracy[key] = report.overall_accuracy
    return ConditionTable(accuracy)


def format_condition_table(table: ConditionTable) -> str:
    width = max(
        [len("co-occurrence")]
        + [len(s) for s in table.object_spaces]
        + [len(p) for p in table.provenances]
    ) + 2
    lines = ["".join(["co-occurrence".ljust(width)] + [s.rjust(width) for s in table.object_spaces])]
    for provenance in table.provenances:
        cells = [provenance.ljust(width)]
        for space in table.object_spaces:
            value = table.accuracy.get((provenance, space))
            cells.append(("-" if value is None else f"{value * 100:.2f}%").rjust(width))
        lines.append("".join(cells))
    return "\n".join(lines)


def breakdown_rows(report: EvalReport) -> list[tuple[str, int, int, float | None]]:
    """Per-label (label, correct, total, accuracy) rows, room-space order."""
    return [
        (label, stats.correct, stats.total, stats.accuracy)
        for label, stats in report.per_label.items()
    ]


def emit_label_breakdown(report: EvalReport, path, manifest_id: str | None = None) -> None:
    """Write the per-label breakdown as a comma-separated file.

    One row per room label with accuracy and support; zero-support labels
    keep their row with an empty accuracy field. A single '#' comment line
    carries the manifest reference (strip or skip comments when loading).
    """
    lines = []
    if manifest_id:
        lines.append(f"# manifest: {manifest_id}")
    lines.append("room_label,correct,total,accuracy")
    for label, correct, total, accuracy in breakdown_rows(report):
        acc = "" if accuracy is None else repr(accuracy)
        lines.append(f"{label},{correct},{total},{acc}")
    with atomic_write(path) as handle:
        handle.write("\n".join(lines) + "\n")


def format_report(report: EvalReport) -> str:
    """Human-readable accuracy table."""
    c = report.condition
    lines = [
        f"condition: space={c.object_space} cooc={c.provenance} "
        f"k={c.k} template={c.template_version} backend={c.backend}",
        f"rooms evaluated: {report.evaluated}",
    ]
    if report.failed_rooms:
        lines.append(f"rooms failed: {len(report.failed_rooms)} {list(report.failed_rooms)}")
    lines.append(f"overall accuracy: {report.overall_accuracy * 100:.2f}%")
    lines.append(
        f"baselines: random {report.baselines['random'] * 100:.2f}%, "
        f"majority {report.baselines['majority'] * 100:.2f}%"
    )
    lines.append("")
    name_width = max(len(l) for l in report.room_labels) + 2
    lines.append(f"{'room label'.ljust(name_width)}{'correct':>9}{'total':>7}  accuracy")
    for label, correct, total, accuracy in breakdown_rows(report):
        acc = "-" if accuracy is None else f"{accuracy * 100:.2f}%"
        lines.append(f"{label.ljust(name_width)}{correct:>9}{total:>7}  {acc}")
    return "\n".join(lines)


def write_report(report: EvalReport, path, manifest_id: str | None = None) -> None:
    """Structured (JSON) form of the report."""
    payload = {
        "manifest": manifest_id,
        "condition": report.condition._asdict(),
        "room_labels": list(report.room_labels),
        "overall_accuracy": report.overall_accuracy,
        "per_label": {
            label: {"correct": stats.correct, "total": stats.total, "accuracy": stats.accuracy}
            for label, stats in report.per_label.items()
        },
        "confusion": [list(row) for row in report.confusion],
        "baselines": report.baselines,
        "failed_rooms": list(report.failed_rooms),
        "evaluated": report.evaluated,
    }
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
