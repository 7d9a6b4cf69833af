import csv
import json
import random

import pytest

from roomsense.evaluation import (
    EvaluationError,
    breakdown_rows,
    compare_conditions,
    emit_label_breakdown,
    evaluate,
    format_condition_table,
    format_report,
    write_report,
)
from roomsense.inference import (
    Candidate,
    GraphClassification,
    RoomFailure,
    RoomPrediction,
    TrialCondition,
)

CONDITION = TrialCondition("nyuclass", "ground_truth", 3, "v1-grammatical", "offline:x")


def prediction(room_id, gt, predicted, labels):
    candidates = tuple(
        Candidate(label, f"sentence about {label}", 0.0 if label == predicted else -1.0)
        for label in labels
    )
    return RoomPrediction(
        room_id=room_id,
        selected_objects=("thing",),
        candidates=candidates,
        gt_label=gt,
    )


def run_of(predictions, failed=(), condition=CONDITION):
    """A run of ``predictions`` whose rooms ``failed`` failed to score."""
    return GraphClassification(
        predictions=tuple(predictions),
        failures=tuple(RoomFailure(room_id, "backend down") for room_id in failed),
        condition=condition,
    )


LABELS_ABC = ("attic", "basement", "cellar")


def hand_built_predictions():
    # attic: 1/2 correct; basement: 2/2; cellar: 0/1 -> overall 3/5
    rows = [
        ("p1", "attic", "attic"),
        ("p2", "attic", "basement"),
        ("p3", "basement", "basement"),
        ("p4", "basement", "basement"),
        ("p5", "cellar", "attic"),
    ]
    return [prediction(r, gt, pred, LABELS_ABC) for r, gt, pred in rows]


class TestEvaluate:
    def test_perfect_predictions(self):
        preds = [
            prediction(f"r{i}", label, label, LABELS_ABC)
            for i, label in enumerate(LABELS_ABC)
        ]
        report = evaluate(run_of(preds))
        assert report.overall_accuracy == 1.0
        for i, row in enumerate(report.confusion):
            assert row[i] == 1 and sum(row) == 1

    def test_hand_arithmetic(self):
        report = evaluate(run_of(hand_built_predictions()))
        assert report.overall_accuracy == pytest.approx(3 / 5)
        assert report.per_label["attic"].correct == 1
        assert report.per_label["attic"].total == 2
        assert report.per_label["attic"].accuracy == pytest.approx(0.5)
        assert report.per_label["basement"].accuracy == pytest.approx(1.0)
        assert report.per_label["cellar"].accuracy == 0.0
        assert report.confusion == (
            (1, 1, 0),
            (0, 2, 0),
            (1, 0, 0),
        )
        assert report.baselines["random"] == pytest.approx(1 / 3)
        assert report.baselines["majority"] == pytest.approx(2 / 5)

    def test_random_baseline_23_labels(self):
        labels = tuple(f"label{i:02d}" for i in range(23))
        preds = [prediction("r0", labels[0], labels[0], labels)]
        report = evaluate(run_of(preds))
        assert report.baselines["random"] == pytest.approx(1 / 23, abs=1e-12)
        assert report.baselines["random"] == pytest.approx(0.0435, abs=5e-5)

    def test_majority_baseline_full_distribution(self):
        # ground-truth room frequencies of the real pre-processed dataset
        frequencies = {
            "bar": 3, "bathroom": 365, "bedroom": 251, "classroom": 2,
            "closet": 99, "conference auditorium": 16, "dining room": 74,
            "family room": 61, "game room": 17, "garage": 14, "gym": 16,
            "hallway": 326, "kitchen": 78, "laundry room": 35, "library": 1,
            "living room": 71, "lobby": 62, "lounge": 64, "office": 98,
            "spa": 44, "staircase": 152, "television room": 13,
            "utility room": 16,
        }
        assert sum(frequencies.values()) == 1878
        labels = tuple(sorted(frequencies))
        preds = []
        i = 0
        for label, count in frequencies.items():
            for _ in range(count):
                preds.append(prediction(f"r{i}", label, labels[0], labels))
                i += 1
        report = evaluate(run_of(preds))
        assert report.baselines["majority"] == pytest.approx(365 / 1878, abs=1e-12)
        # printed as 19.43% (Table-style truncation); exact value 19.4356%
        assert report.baselines["majority"] == pytest.approx(0.1943, abs=1e-4)

    def test_weighted_label_mean_equals_overall(self):
        rng = random.Random(5)
        labels = ("a", "b", "c", "d")
        preds = [
            prediction(f"r{i}", rng.choice(labels), rng.choice(labels), labels)
            for i in range(200)
        ]
        report = evaluate(run_of(preds))
        weighted = sum(
            stats.accuracy * stats.total
            for stats in report.per_label.values()
            if stats.total
        )
        assert weighted / report.evaluated == pytest.approx(
            report.overall_accuracy, abs=1e-12
        )

    def test_confusion_row_sums_and_trace(self):
        report = evaluate(run_of(hand_built_predictions()))
        for label, row in zip(report.room_labels, report.confusion):
            assert sum(row) == report.per_label[label].total
        trace = sum(report.confusion[i][i] for i in range(len(LABELS_ABC)))
        assert trace / report.evaluated == pytest.approx(report.overall_accuracy)
        assert sum(map(sum, report.confusion)) == report.evaluated

    def test_shuffle_invariance(self):
        preds = hand_built_predictions()
        base = evaluate(run_of(preds))
        rng = random.Random(0)
        for _ in range(5):
            rng.shuffle(preds)
            assert evaluate(run_of(preds)) == base

    def test_zero_support_label_undefined(self):
        preds = [prediction("r0", "attic", "attic", LABELS_ABC)]
        report = evaluate(run_of(preds))
        assert report.per_label["cellar"].accuracy is None

    def test_failed_rooms_listed_but_not_counted(self):
        report = evaluate(run_of(hand_built_predictions(), failed=["p9"]))
        assert report.failed_rooms == ("p9",)
        assert report.evaluated == 5

    def test_all_failed_is_error(self):
        with pytest.raises(EvaluationError):
            evaluate(run_of([], failed=["p1"]))

    def test_unknown_gt_label_is_error(self):
        preds = [prediction("r0", "observatory", "attic", LABELS_ABC)]
        with pytest.raises(EvaluationError):
            evaluate(run_of(preds))


class TestCompareConditions:
    def report_for(self, space, provenance, accuracy, k=3, backend="offline:x"):
        condition = TrialCondition(space, provenance, k, "v1-grammatical", backend)
        n = max(int(round(accuracy * 100)), 1)
        preds = [
            prediction(f"r{i}", "attic", "attic" if i < n else "basement",
                       LABELS_ABC)
            for i in range(100)
        ]
        return evaluate(run_of(preds, condition=condition))

    def test_four_reports_make_two_by_two(self):
        reports = [
            self.report_for("nyuclass", "ground_truth", 0.52),
            self.report_for("mpcat40", "ground_truth", 0.49),
            self.report_for("nyuclass", "proxy", 0.28),
            self.report_for("mpcat40", "proxy", 0.27),
        ]
        table = compare_conditions(reports)
        assert table.provenances == ("ground_truth", "proxy")
        assert table.object_spaces == ("nyuclass", "mpcat40")
        assert table.accuracy[("ground_truth", "nyuclass")] == pytest.approx(0.52)
        assert table.accuracy[("proxy", "mpcat40")] == pytest.approx(0.27)
        text = format_condition_table(table)
        assert "nyuclass" in text and "ground_truth" in text

    def test_fields_that_vary_join_the_row_label(self):
        reports = [
            self.report_for("nyuclass", "ground_truth", 0.5, k=1),
            self.report_for("nyuclass", "ground_truth", 0.6, k=3),
            self.report_for("nyuclass", "proxy", 0.4, k=1, backend="remote:gpt-j"),
        ]
        table = compare_conditions(reports)
        assert table.provenances == (
            "ground_truth k=1 backend=offline:x",
            "ground_truth k=3 backend=offline:x",
            "proxy k=1 backend=remote:gpt-j",
        )
        assert table.object_spaces == ("nyuclass",)
        assert "ground_truth k=3 backend=offline:x" in format_condition_table(table)

    def test_single_report(self):
        table = compare_conditions([self.report_for("nyuclass", "ground_truth", 0.5)])
        assert len(table.accuracy) == 1

    def test_duplicate_condition_rejected(self):
        a = self.report_for("nyuclass", "ground_truth", 0.5)
        b = self.report_for("nyuclass", "ground_truth", 0.6)
        with pytest.raises(EvaluationError):
            compare_conditions([a, b])

    def test_duplicate_condition_names_both_reports(self):
        a = self.report_for("nyuclass", "ground_truth", 0.5)
        b = self.report_for("mpcat40", "proxy", 0.4)
        c = self.report_for("nyuclass", "ground_truth", 0.6)
        with pytest.raises(EvaluationError, match=r"'nyuclass'\): a\.jsonl and c\.jsonl$"):
            compare_conditions([a, b, c], names=["a.jsonl", "b.jsonl", "c.jsonl"])


class TestBreakdown:
    def test_row_per_label(self):
        labels = tuple(f"label{i:02d}" for i in range(23))
        preds = [prediction("r0", labels[0], labels[0], labels)]
        report = evaluate(run_of(preds))
        assert len(breakdown_rows(report)) == 23

    def test_file_output_and_undefined_accuracy(self, tmp_path):
        report = evaluate(run_of([prediction("r0", "attic", "attic", LABELS_ABC)]))
        path = tmp_path / "breakdown.csv"
        emit_label_breakdown(report, path, manifest_id="m7")
        lines = path.read_text().splitlines()
        assert lines[0] == "# manifest: m7"
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 3
        by_label = {r["room_label"]: r for r in rows}
        assert by_label["attic"]["accuracy"] == "1.0"
        assert by_label["cellar"]["total"] == "0"
        assert by_label["cellar"]["accuracy"] == ""

    def test_hand_built_rows(self):
        report = evaluate(run_of(hand_built_predictions()))
        rows = {r[0]: r for r in breakdown_rows(report)}
        assert rows["attic"] == ("attic", 1, 2, 0.5)
        assert rows["basement"] == ("basement", 2, 2, 1.0)
        assert rows["cellar"] == ("cellar", 0, 1, 0.0)


class TestReportOutput:
    def test_json_report(self, tmp_path):
        report = evaluate(run_of(hand_built_predictions(), failed=["px"]))
        path = tmp_path / "report.json"
        write_report(report, path, manifest_id="m1")
        payload = json.loads(path.read_text())
        assert payload["manifest"] == "m1"
        assert payload["overall_accuracy"] == pytest.approx(0.6)
        assert payload["per_label"]["cellar"]["accuracy"] == 0.0
        assert payload["failed_rooms"] == ["px"]
        assert payload["condition"]["object_space"] == "nyuclass"

    def test_text_report_lists_failed_rooms(self):
        report = evaluate(run_of(hand_built_predictions(), failed=["px", "py"]))
        assert "rooms failed: 2 ['px', 'py']" in format_report(report).splitlines()

    def test_text_report_mentions_everything(self):
        report = evaluate(run_of(hand_built_predictions()))
        text = format_report(report)
        assert "overall accuracy: 60.00%" in text
        assert "attic" in text and "basement" in text
        assert "majority" in text
