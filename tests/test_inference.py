import dataclasses
import functools
import math
import random
import re

import pytest

from roomsense.cooccurrence import count_ground_truth
from roomsense.inference import (
    Candidate,
    GraphClassification,
    RoomFailure,
    RoomPrediction,
    RoomSelection,
    TrialCondition,
    argmax_label,
    classify_graph,
    classify_selections,
    read_predictions,
    select_rooms,
    write_predictions,
)
from roomsense.lm_scoring import OfflineScorer
from roomsense.querygen import QueryTemplate
from roomsense.scene_model import LabelSpace, RoomNode, SceneGraph

from conftest import ROOM_LABELS_3, build_graph, box, render_room_query
from test_cooccurrence import ShiftedScorer, TotalScorer

BATH_BONUSES = {
    ("toilet", "bathroom"): 25.0,
    ("shower", "bathroom"): 20.0,
    ("sink", "bathroom"): 15.0,
    ("bed", "bedroom"): 25.0,
    ("pillow", "bedroom"): 15.0,
    ("stove", "kitchen"): 25.0,
    ("refrigerator", "kitchen"): 20.0,
}


class RoomClassificationError(Exception):
    """A single room could not be classified; carries the room id."""

    def __init__(self, message: str, room_id: str):
        super().__init__(message)
        self.room_id = room_id


def classify_room(room, graph, table, scorer, k=3, template=None):
    """Predict one room's label: :func:`classify_graph` on a graph holding
    only that room, with its failure raised as :class:`RoomClassificationError`."""
    result = classify_graph(dataclasses.replace(graph, rooms=(room,)), table, scorer, k, template)
    if result.failures:
        raise RoomClassificationError(result.failures[0].reason, room.id)
    return result.predictions[0]


@pytest.fixture
def bath_graph():
    return build_graph(
        {
            "r-bath": ("bathroom", ["toilet", "shower", "sink", "chair"]),
            "r-bed": ("bedroom", ["bed", "pillow", "chair"]),
            "r-kitchen": ("kitchen", ["stove", "refrigerator", "chair"]),
        }
    )


@pytest.fixture
def bath_table(bath_graph):
    return count_ground_truth(bath_graph, "things", alpha=1.0)


class TestClassifyRoom:
    def test_bathroom_against_straight_line_oracle(self, bath_graph, bath_table):
        scorer = OfflineScorer(seed=13, bonus_table=BATH_BONUSES)
        room = bath_graph.room_by_id()["r-bath"]
        prediction = classify_room(room, bath_graph, bath_table, scorer, k=3)
        assert prediction.predicted_label == "bathroom"

        # independent re-run: selection, templating, scoring, argmax by hand
        labels = {o.label_per_space["things"] for o in bath_graph.objects_in_room(room)}
        expected_selection = sorted(labels, key=lambda l: (bath_table.entropy[l], l))[:3]
        assert list(prediction.selected_objects) == expected_selection
        best, best_label = -math.inf, None
        for room_label in ROOM_LABELS_3:
            sentence = render_room_query(expected_selection, room_label)
            total = scorer.score(sentence).total_logprob
            if total > best:
                best, best_label = total, room_label
        assert prediction.predicted_label == best_label

    def test_single_label_space_is_vacuous_argmax(self):
        graph = build_graph({"r0": ("bathroom", ["toilet"])})
        solo = dataclasses.replace(
            graph, room_space=LabelSpace(name="room", labels=("bathroom",))
        )
        table = count_ground_truth(solo, "things", alpha=1.0)
        prediction = classify_room(
            solo.rooms[0], solo, table, OfflineScorer(seed=1), k=3
        )
        assert prediction.predicted_label == "bathroom"
        assert len(prediction.candidates) == 1

    def test_exact_tie_breaks_lexicographically(self, bath_graph, bath_table):
        room = bath_graph.room_by_id()["r-bed"]
        selection = ["bed", "pillow", "chair"]
        selection = sorted(
            set(selection), key=lambda l: (bath_table.entropy[l], l)
        )[:3]
        totals = {
            render_room_query(selection, label): -5.0 for label in ROOM_LABELS_3
        }
        prediction = classify_room(room, bath_graph, bath_table, TotalScorer(totals), k=3)
        assert prediction.predicted_label == "bathroom"  # smallest of the three

    def test_argmax_helper_tie_rule(self):
        candidates = [
            Candidate("kitchen", "s", -2.0),
            Candidate("bedroom", "s", -2.0),
            Candidate("bathroom", "s", -3.0),
        ]
        assert argmax_label(candidates) == "bedroom"

    def test_candidates_cover_room_space_in_order(self, bath_graph, bath_table):
        room = bath_graph.rooms[0]
        prediction = classify_room(room, bath_graph, bath_table, OfflineScorer(), k=2)
        assert tuple(c.room_label for c in prediction.candidates) == ROOM_LABELS_3

    def test_selected_count_is_min_k_distinct(self, bath_graph, bath_table):
        room = bath_graph.room_by_id()["r-bed"]  # 3 distinct labels
        for k in (1, 2, 3, 9):
            prediction = classify_room(room, bath_graph, bath_table, OfflineScorer(), k=k)
            assert len(prediction.selected_objects) == min(k, 3)

    def test_k_equal_distinct_gives_full_entropy_sort(self, bath_graph, bath_table):
        room = bath_graph.room_by_id()["r-kitchen"]
        prediction = classify_room(room, bath_graph, bath_table, OfflineScorer(), k=3)
        labels = {o.label_per_space["things"] for o in bath_graph.objects_in_room(room)}
        assert list(prediction.selected_objects) == sorted(
            labels, key=lambda l: (bath_table.entropy[l], l)
        )

    def test_empty_room_defended(self, bath_graph, bath_table):
        ghost = RoomNode(id="r-ghost", gt_label="bathroom", bbox=box())
        with pytest.raises(RoomClassificationError):
            classify_room(ghost, bath_graph, bath_table, OfflineScorer(), k=3)

    def test_transport_failure_carries_room_id(self, bath_graph, bath_table):
        from roomsense.lm_scoring import SentenceScorer, TransportError

        class Down(SentenceScorer):
            @property
            def identity(self):
                return "down"

            def score(self, sentence):
                raise TransportError("unreachable", sentence)

        room = bath_graph.room_by_id()["r-bath"]
        with pytest.raises(RoomClassificationError) as excinfo:
            classify_room(room, bath_graph, bath_table, Down(), k=1)
        assert excinfo.value.room_id == "r-bath"

    def test_shift_invariance_of_argmax(self, bath_graph, bath_table):
        scorer = OfflineScorer(seed=21, bonus_table=BATH_BONUSES)
        for room in bath_graph.rooms:
            base = classify_room(room, bath_graph, bath_table, scorer, k=3)
            shifted = classify_room(
                room, bath_graph, bath_table, ShiftedScorer(scorer, 500.0), k=3
            )
            assert shifted.predicted_label == base.predicted_label

    def test_permutation_invariance(self, bath_graph, bath_table):
        scorer = OfflineScorer(seed=2)
        room = bath_graph.room_by_id()["r-bath"]
        base = classify_room(room, bath_graph, bath_table, scorer, k=3)
        graph = dataclasses.replace(bath_graph, objects=bath_graph.objects[::-1])
        again = classify_room(room, graph, bath_table, scorer, k=3)
        assert again == base


class TestClassifyGraph:
    def test_two_room_fixture_order(self, two_room_graph):
        table = count_ground_truth(two_room_graph, "things", alpha=1.0)
        result = classify_graph(two_room_graph, table, OfflineScorer(), k=3)
        assert [p.room_id for p in result.predictions] == ["r-bath", "r-bed"]
        assert result.failures == ()

    def test_empty_graph(self):
        graph = SceneGraph(
            room_space=LabelSpace(name="room", labels=ROOM_LABELS_3),
            object_space_names=("things",),
        )
        table = count_ground_truth(graph, "things", alpha=1.0)
        result = classify_graph(graph, table, OfflineScorer(), k=3)
        assert result.predictions == () and result.failures == ()

    def test_failures_collected_not_raised(self, bath_graph, bath_table):
        # fail only sentences that mention the bed-room selection
        scorer = OfflineScorer(seed=3)
        bed_room = bath_graph.room_by_id()["r-bed"]
        bed_labels = sorted(
            {o.label_per_space["things"] for o in bath_graph.objects_in_room(bed_room)},
            key=lambda l: (bath_table.entropy[l], l),
        )[:3]
        poisoned = {render_room_query(bed_labels, r) for r in ROOM_LABELS_3}
        totals = {}
        for room in bath_graph.rooms:
            labels = sorted(
                {o.label_per_space["things"] for o in bath_graph.objects_in_room(room)},
                key=lambda l: (bath_table.entropy[l], l),
            )[:3]
            for r in ROOM_LABELS_3:
                sentence = render_room_query(labels, r)
                totals[sentence] = scorer.score(sentence).total_logprob
        flaky = TotalScorer(totals, fail_on=poisoned)
        result = classify_graph(bath_graph, bath_table, flaky, k=3)
        assert [f.room_id for f in result.failures] == ["r-bed"]
        assert [p.room_id for p in result.predictions] == ["r-bath", "r-kitchen"]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_room_fails_with_its_first_failed_sentence(self, bath_table, workers):
        sentences = [render_room_query(["toilet"], r) for r in ROOM_LABELS_3]
        scorer = TotalScorer(dict.fromkeys(sentences, -1.0), fail_on=sentences[1:])
        scorer.max_inflight = workers
        result = classify_selections(
            [RoomSelection("r0", "bathroom", ("toilet",))], ROOM_LABELS_3, bath_table, scorer, 1
        )
        assert result.predictions == ()
        assert result.failures == (
            RoomFailure("r0", f"scoring failed for room 'r0': scripted failure: {sentences[1]}"),
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_failed_sentence_shared_by_two_rooms_fails_both(self, bath_table, workers):
        sentences = [render_room_query([o], r) for o in ("bed", "toilet") for r in ROOM_LABELS_3]
        shared = render_room_query(["toilet"], "kitchen")
        scorer = TotalScorer(dict.fromkeys(sentences, -1.0), fail_on={shared})
        scorer.max_inflight = workers
        selections = [
            RoomSelection("r0", "bathroom", ("toilet",)),
            RoomSelection("r1", "bedroom", ("bed",)),
            RoomSelection("r2", "kitchen", ("toilet",)),
        ]
        result = classify_selections(selections, ROOM_LABELS_3, bath_table, scorer, 1)
        assert [p.room_id for p in result.predictions] == ["r1"]
        assert result.failures == tuple(
            RoomFailure(room, f"scoring failed for room {room!r}: scripted failure: {shared}")
            for room in ("r0", "r2")
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_empty_and_failed_rooms_fail_in_room_id_order(self, workers):
        # rooms with no object (r-a, r-c, r-f) interleave by id with rooms
        # whose scoring fails (r-b, r-e); the graph lists them in reverse
        graph = build_graph({
            "r-a": ("kitchen", []),
            "r-b": ("bedroom", ["bed"]),
            "r-c": ("bathroom", []),
            "r-d": ("bathroom", ["toilet"]),
            "r-e": ("kitchen", ["stove"]),
            "r-f": ("bedroom", []),
        })
        graph = dataclasses.replace(graph, rooms=graph.rooms[::-1])
        table = count_ground_truth(graph, "things", alpha=1.0)
        objects = ("bed", "toilet", "stove")
        totals = {render_room_query([o], r): -1.0 for o in objects for r in ROOM_LABELS_3}
        scorer = TotalScorer(totals, fail_on={s for s in totals if "toilet" not in s})
        scorer.max_inflight = workers
        result = classify_graph(graph, table, scorer, k=1)
        assert [p.room_id for p in result.predictions] == ["r-d"]

        def failed(room, obj):
            sentence = render_room_query([obj], ROOM_LABELS_3[0])
            reason = f"scoring failed for room {room!r}: scripted failure: {sentence}"
            return RoomFailure(room, reason)

        assert result.failures == (
            RoomFailure("r-a", "room 'r-a' has no usable object labels"),
            failed("r-b", "bed"),
            RoomFailure("r-c", "room 'r-c' has no usable object labels"),
            failed("r-e", "stove"),
            RoomFailure("r-f", "room 'r-f' has no usable object labels"),
        )

    def test_object_index_built_once_per_graph(self, monkeypatch):
        graph = build_graph(
            {
                "r-bath": ("bathroom", ["toilet", "shower", "sink"]),
                "r-bed": ("bedroom", ["bed", "pillow"]),
                "r-kitchen": ("kitchen", ["stove", "refrigerator"]),
            }
        )
        table = count_ground_truth(graph, "things", alpha=1.0)
        calls = []
        index = SceneGraph._room_members.func

        def counted(self):
            calls.append(self)
            return index(self)

        counted_index = functools.cached_property(counted)
        counted_index.__set_name__(SceneGraph, "_room_members")
        monkeypatch.setattr(SceneGraph, "_room_members", counted_index)
        result = classify_graph(graph, table, OfflineScorer(seed=13), k=3)
        assert len(result.predictions) == 3
        assert len(calls) == 1

    def test_selection_then_scoring_is_classify_graph(self, bath_graph, bath_table):
        empty = RoomNode(id="r-empty", gt_label="kitchen", bbox=box())
        graph = dataclasses.replace(bath_graph, rooms=bath_graph.rooms + (empty,))
        selections = select_rooms(graph, bath_table, 2)
        assert selections == [
            RoomSelection("r-bath", "bathroom", ("shower", "sink")),
            RoomSelection("r-bed", "bedroom", ("bed", "pillow")),
            RoomSelection("r-empty", "kitchen", ()),
            RoomSelection("r-kitchen", "kitchen", ("refrigerator", "stove")),
        ]
        scorer = OfflineScorer(seed=5, bonus_table=BATH_BONUSES)
        result = classify_selections(selections, graph.room_space.labels, bath_table, scorer, 2)
        assert result == classify_graph(graph, bath_table, scorer, k=2)
        assert result.failures == (
            RoomFailure("r-empty", "room 'r-empty' has no usable object labels"),
        )

    def test_condition_recorded(self, bath_graph, bath_table):
        scorer = OfflineScorer(seed=7)
        result = classify_graph(bath_graph, bath_table, scorer, k=2)
        assert result.condition == TrialCondition(
            object_space="things",
            provenance="ground_truth",
            k=2,
            template_version=QueryTemplate().version,
            backend=scorer.identity,
        )


def synthetic_graph(n_rooms=50, seed=0):
    rng = random.Random(seed)
    homes = {
        "bathroom": ["toilet", "shower", "sink", "chair"],
        "bedroom": ["bed", "pillow", "dresser", "lamp", "chair"],
        "kitchen": ["stove", "refrigerator", "oven", "table", "chair"],
    }
    specs = {}
    for i in range(n_rooms):
        label = rng.choice(ROOM_LABELS_3)
        pool = homes[label]
        members = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        specs[f"room{i:03d}"] = (label, members)
    return build_graph(specs)


class TestCandidate:
    def test_fields_by_name_and_position(self):
        candidate = Candidate(room_label="bathroom", sentence="s", total_logprob=-1.5)
        assert (candidate.room_label, candidate.sentence, candidate.total_logprob) == (
            "bathroom", "s", -1.5
        )
        assert tuple(candidate) == ("bathroom", "s", -1.5)
        assert Candidate._fields == ("room_label", "sentence", "total_logprob")

    def test_immutable(self):
        candidate = Candidate("bathroom", "s", -1.5)
        with pytest.raises(AttributeError):
            candidate.total_logprob = 0.0
        with pytest.raises(AttributeError):
            candidate.extra = 1

    def test_equality_and_hash(self):
        a = Candidate("bathroom", "s", -1.5)
        b = Candidate(room_label="bathroom", sentence="s", total_logprob=-1.5)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Candidate("kitchen", "s", -1.5)
        assert a != Candidate("bathroom", "s", -2.5)

    def test_classified_and_read_back_candidates_equal_keyword_built_ones(
        self, bath_graph, bath_table, tmp_path
    ):
        result = classify_graph(bath_graph, bath_table, OfflineScorer(seed=4), k=3)
        path = tmp_path / "p.jsonl"
        write_predictions(result, path)
        for source in (result, read_predictions(path)):
            for prediction in source.predictions:
                assert all(type(c) is Candidate for c in prediction.candidates)
                assert prediction.candidates == tuple(
                    Candidate(room_label=c.room_label, sentence=c.sentence,
                              total_logprob=c.total_logprob)
                    for c in prediction.candidates
                )


class TestPredictionFiles:
    def test_round_trip(self, bath_graph, bath_table, tmp_path):
        scorer = OfflineScorer(seed=4, bonus_table=BATH_BONUSES)
        result = classify_graph(bath_graph, bath_table, scorer, k=3)
        path = tmp_path / "predictions.jsonl"
        write_predictions(result, path, manifest_id="m1")
        loaded = read_predictions(path)
        assert loaded == result

    def test_read_back_candidates_share_room_label_strings(
        self, bath_graph, bath_table, tmp_path
    ):
        path = tmp_path / "predictions.jsonl"
        write_predictions(classify_graph(bath_graph, bath_table, OfflineScorer(), k=3), path)
        first, *rest = read_predictions(path).predictions
        assert rest
        for prediction in rest:
            assert all(a.room_label is b.room_label
                       for a, b in zip(prediction.candidates, first.candidates))

    def test_round_trip_with_failures(self, tmp_path):
        condition = TrialCondition("things", "proxy", 3, "v1-grammatical", "offline:x")
        result = GraphClassification(
            predictions=(
                RoomPrediction(
                    room_id="a",
                    selected_objects=("toilet",),
                    candidates=(
                        Candidate("bathroom", "s", -1.5), Candidate("kitchen", "t", -2.5),
                    ),
                    gt_label="bathroom",
                ),
            ),
            failures=(RoomFailure(room_id="b", reason="backend down"),),
            condition=condition,
        )
        path = tmp_path / "p.jsonl"
        write_predictions(result, path)
        assert read_predictions(path) == result

    def test_interrupted_write_keeps_previous_file(self, bath_graph, bath_table, tmp_path):
        scorer = OfflineScorer(seed=4, bonus_table=BATH_BONUSES)
        result = classify_graph(bath_graph, bath_table, scorer, k=3)
        path = tmp_path / "predictions.jsonl"
        write_predictions(result, path, manifest_id="m1")
        before = path.read_bytes()
        # the second room's record cannot be serialized, so the write
        # stops after the header and the first room
        broken = result.predictions[1]._replace(gt_label=object())
        rerun = result._replace(
            predictions=(result.predictions[0], broken, *result.predictions[2:])
        )
        with pytest.raises(TypeError):
            write_predictions(rerun, path, manifest_id="m2")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["predictions.jsonl"]

    def test_byte_identical_across_five_runs(self, tmp_path):
        graph = synthetic_graph()
        table = count_ground_truth(graph, "things", alpha=1.0)
        scorer = OfflineScorer(seed=17, bonus_table=BATH_BONUSES)
        blobs = set()
        for i in range(5):
            path = tmp_path / f"run{i}.jsonl"
            write_predictions(
                classify_graph(graph, table, scorer, k=3), path, manifest_id="fixed"
            )
            blobs.add(path.read_bytes())
        assert len(blobs) == 1

    def test_blank_lines_after_the_header_are_skipped(self, bath_graph, bath_table, tmp_path):
        result = classify_graph(bath_graph, bath_table, OfflineScorer(seed=4), k=3)
        path = tmp_path / "predictions.jsonl"
        write_predictions(result, path)
        lines = path.read_text().splitlines()
        lines[1:1] = ["", "  "]
        path.write_text("\n".join(lines) + "\n\n")
        assert read_predictions(path) == result

    def test_empty_file_names_it(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError) as caught:
            read_predictions(path)
        assert str(caught.value) == f"{path}: empty predictions file"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"kind": "header", "format": "other"}\n')
        with pytest.raises(ValueError):
            read_predictions(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line[:40], "not valid JSON: Unterminated string starting at"),
        (lambda line: "[1, 2]", "record is not a JSON object"),
        (lambda line: line.replace('"room_id"', '"room"'), "missing key 'room_id'"),
        (lambda line: line.replace('"kind": "prediction", ', ""), "missing key 'kind'"),
        (lambda line: line.replace('"gt_label": "', '"gt_label": 5, "x": "'),
         "key 'gt_label' must be str, got int"),
        (lambda line: line.replace('"selected_objects": [', '"selected_objects": [7, '),
         "key 'selected_objects' must list strings"),
        (lambda line: line.replace('"candidates": [[', '"candidates": [[true, '),
         "key 'candidates' must list [room label, sentence, total logprob] triples"),
        (lambda line: line.replace('"kind": "prediction"', '"kind": "guess"'),
         "unknown record kind 'guess'"),
        (lambda line: re.sub(r'(\[\["[^"]*", "[^"]*", )[^\]]*', r"\1NaN", line),
         "candidate total nan is not a finite number"),
        (lambda line: re.sub(r'(\[\["[^"]*", "[^"]*", )[^\]]*', r"\1Infinity", line),
         "candidate total inf is not a finite number"),
        (lambda line: re.sub(r'(\[\["[^"]*", "[^"]*", )[^\]]*', r"\g<1>1" + "0" * 400, line),
         f"candidate total 1{'0' * 400} is not a finite number"),
        (lambda line: line.replace('"room_id": "r-bed"', '"room_id": "r-bath"'),
         "room id 'r-bath' repeats an earlier record's"),
        (lambda line: '{"kind": "failure", "reason": "backend down", "room_id": "r-bath"}',
         "room id 'r-bath' repeats an earlier record's"),
        (lambda line: line.replace('[["bathroom", ', '[["garage", '),
         "candidate room labels ['garage', 'bedroom', 'kitchen'] differ from the first "
         "prediction's ['bathroom', 'bedroom', 'kitchen']"),
        (lambda line: line.replace('"predicted_label": "bedroom"', '"predicted_label": "kitchen"'),
         "predicted label 'kitchen' is not the best candidate 'bedroom'"),
        (lambda line: line.replace('"predicted_label": "bedroom"', '"predicted_label": "bar"'),
         "predicted label 'bar' is not the best candidate 'bedroom'"),
        (lambda line: re.sub(r'"candidates": \[.*?\]\]', '"candidates": []', line),
         "key 'candidates' lists no candidate"),
        (lambda line: re.sub(r'("candidates": \[\[.*?\]).*?\]\]', r"\1]", line),
         "key 'candidates' lists one candidate, 'bathroom'; "
         "a room needs at least 2 to choose from"),
    ], ids=["torn", "array", "no-room-id", "no-kind", "gt-label", "selected", "candidates",
            "kind", "nan-total", "infinite-total", "huge-int-total", "repeated-prediction",
            "failure-repeats-prediction", "room-labels", "stored-label-not-best",
            "stored-label-not-a-candidate", "no-candidates", "one-candidate"])
    def test_bad_record_names_its_line(self, bath_graph, bath_table, tmp_path, edit, message):
        scorer = OfflineScorer(seed=4, bonus_table=BATH_BONUSES)
        path = tmp_path / "predictions.jsonl"
        write_predictions(classify_graph(bath_graph, bath_table, scorer, k=3), path)
        lines = path.read_text().splitlines()
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as caught:
            read_predictions(path)
        assert str(caught.value).startswith(f"{path}:3: {message}")

    @pytest.mark.parametrize("value, message", [
        ('7', "key 'room_id' must be str, got int"),
        ('null', "key 'room_id' must be str, got NoneType"),
    ])
    def test_mistyped_failure_record(self, tmp_path, value, message):
        condition = TrialCondition("things", "gt", 3, "v1-grammatical", "offline:x")
        result = GraphClassification(
            predictions=(),
            failures=(RoomFailure(room_id="b", reason="backend down"),),
            condition=condition,
        )
        path = tmp_path / "p.jsonl"
        write_predictions(result, path)
        path.write_text(path.read_text().replace('"room_id": "b"', f'"room_id": {value}'))
        with pytest.raises(ValueError) as caught:
            read_predictions(path)
        assert str(caught.value) == f"{path}:2: {message}"

    def test_repeated_failure_names_its_line(self, tmp_path):
        result = GraphClassification(
            predictions=(),
            failures=(RoomFailure("b", "backend down"), RoomFailure("b", "timeout")),
            condition=TrialCondition("things", "gt", 3, "v1-grammatical", "offline:x"),
        )
        path = tmp_path / "p.jsonl"
        write_predictions(result, path)
        with pytest.raises(ValueError) as caught:
            read_predictions(path)
        assert str(caught.value) == f"{path}:3: room id 'b' repeats an earlier record's"

    def test_mistyped_header_key(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_predictions(
            GraphClassification(
                predictions=(), failures=(),
                condition=TrialCondition("things", "gt", 3, "v1-grammatical", "offline:x"),
            ),
            path,
        )
        path.write_text(path.read_text().replace('"k": 3', '"k": true'))
        with pytest.raises(ValueError) as caught:
            read_predictions(path)
        assert str(caught.value) == f"{path}:1: key 'k' must be int, got bool"

    def test_score_cache_is_transparent(self, bath_graph, bath_table, tmp_path):
        from roomsense.lm_scoring import CachingScorer

        plain = OfflineScorer(seed=6, bonus_table=BATH_BONUSES)
        baseline = classify_graph(bath_graph, bath_table, plain, k=3)
        cache_path = tmp_path / "scores.jsonl"
        cold = CachingScorer(OfflineScorer(seed=6, bonus_table=BATH_BONUSES), cache_path)
        assert classify_graph(bath_graph, bath_table, cold, k=3) == baseline
        warm = CachingScorer(OfflineScorer(seed=6, bonus_table=BATH_BONUSES), cache_path)
        assert classify_graph(bath_graph, bath_table, warm, k=3) == baseline
