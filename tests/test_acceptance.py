"""Acceptance suite: one test per release criterion, each printing a
PASS line on success (run with ``pytest tests/test_acceptance.py -v -s``).

The full-scale reproduction (real dataset + live logprob endpoint) is not
desk-size; it runs only when the environment described in the README's
runbook section is configured, and is reported as skipped otherwise.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from roomsense.cooccurrence import (
    build_proxy_table,
    count_ground_truth,
    entropy,
    select_informative,
)
from roomsense.evaluation import evaluate
from roomsense.inference import classify_graph, write_predictions
from roomsense.ingest import (
    load_spelling_fixes,
    parse_scene_file,
    run_pipeline,
    write_scene_file,
)
from roomsense.lm_scoring import OfflineScorer
from roomsense.querygen import QueryTemplate

from conftest import (
    OBJECT_LABELS_12,
    ROOM_LABELS_3,
    build_graph,
    object_by_id,
    render_room_query,
    scene_file_text,
    validate,
)
from test_cooccurrence import ShiftedScorer, TotalScorer, make_table, proxy_conditional, room_with
from test_evaluation import hand_built_predictions, prediction, run_of
from test_inference import BATH_BONUSES, classify_room, synthetic_graph
from test_ingest import FIXTURE_OBJECTS, FIXTURE_ROOMS, ROOMS_HEADER


def _pass(name):
    print(f"\nACCEPTANCE {name}: PASS")


AN_EXCEPTIONS = {"utility room", "utility closet"}


def oracle_predictions(graph, space_name, alpha, k, scorer):
    """Straight-line reimplementation of the whole pipeline.

    Sequential, no caching, no batching; shares only the scorer backend
    and the Python standard library with the code under test.
    """
    room_labels = list(graph.room_space.labels)
    rooms_by_id = {r.id: r for r in graph.rooms}

    counts = {}
    totals = {}
    for obj in graph.objects:
        label = obj.label_per_space[space_name]
        room_label = rooms_by_id[obj.assigned_room].gt_label
        counts.setdefault(label, {}).setdefault(room_label, 0)
        counts[label][room_label] += 1
        totals[label] = totals.get(label, 0) + 1

    entropies = {}
    for label in graph.object_space(space_name).labels:
        cell = counts.get(label, {})
        total = totals.get(label, 0)
        terms = []
        for room_label in room_labels:
            p = (cell.get(room_label, 0) + alpha) / (total + alpha * len(room_labels))
            terms.append(-p * math.log(p))
        entropies[label] = math.fsum(terms)

    records = []
    for room in sorted(graph.rooms, key=lambda r: r.id):
        present = {
            obj.label_per_space[space_name]
            for obj in graph.objects
            if obj.assigned_room == room.id
        }
        chosen = sorted(present, key=lambda l: (entropies[l], l))[:k]

        candidates = []
        for room_label in room_labels:
            if len(chosen) == 1:
                listing = chosen[0]
            else:
                listing = ", ".join(chosen[:-1]) + " and " + chosen[-1]
            if room_label in AN_EXCEPTIONS:
                article = "a"
            elif room_label[0] in "aeiou":
                article = "an"
            else:
                article = "a"
            sentence = f"A room containing {listing} is called {article} {room_label}."
            total = scorer.score(sentence).total_logprob
            candidates.append([room_label, sentence, total])

        best_label, best_total = None, None
        for room_label, _, total in candidates:
            if best_total is None or total > best_total or (
                total == best_total and room_label < best_label
            ):
                best_label, best_total = room_label, total
        records.append(
            {
                "kind": "prediction",
                "room_id": room.id,
                "selected_objects": chosen,
                "candidates": candidates,
                "predicted_label": best_label,
                "gt_label": room.gt_label,
            }
        )
    return records


class TestOracleEquivalence:
    def test_full_pipeline_matches_brute_force(self, tmp_path):
        started = time.monotonic()
        graph = synthetic_graph(n_rooms=50, seed=424242)
        assert len(graph.rooms) == 50
        assert graph.room_space.labels == ROOM_LABELS_3
        assert graph.object_space("things").labels == OBJECT_LABELS_12

        scorer = OfflineScorer(seed=99, bonus_table=BATH_BONUSES)
        alpha, k = 1.0, 3
        table = count_ground_truth(graph, "things", alpha=alpha)
        result = classify_graph(graph, table, scorer, k=k)
        path = tmp_path / "predictions.jsonl"
        write_predictions(result, path)

        pipeline_lines = [
            line
            for line in path.read_text().splitlines()
            if json.loads(line)["kind"] == "prediction"
        ]
        oracle_lines = [
            json.dumps(record, sort_keys=True)
            for record in oracle_predictions(graph, "things", alpha, k, scorer)
        ]
        assert pipeline_lines == oracle_lines  # byte-identical records

        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"pipeline + oracle took {elapsed:.2f}s"
        _pass("oracle-equivalence (50 rooms, exact bytes, <5s)")


class TestEntropySelection:
    def test_thousand_randomized_rooms(self):
        rng = random.Random(20240202)
        vocabulary = [f"object{i:03d}" for i in range(60)]
        for _ in range(1000):
            n_rooms = rng.randint(2, 26)
            room_labels = tuple(f"room{i:02d}" for i in range(n_rooms))
            entropies = {}
            rows = {}
            for label in vocabulary:
                weights = [rng.random() + 1e-6 for _ in room_labels]
                total = sum(weights)
                row = tuple(w / total for w in weights)
                rows[label] = row
                entropies[label] = entropy(row)
            if rng.random() < 0.5:  # force exact entropy ties
                tied = rng.sample(vocabulary, 4)
                for label in tied:
                    rows[label] = rows[tied[0]]
                    entropies[label] = entropies[tied[0]]
            table = make_table(entropies, room_labels=room_labels)
            members = [rng.choice(vocabulary) for _ in range(rng.randint(1, 10))]
            k = rng.randint(1, 6)
            room, graph = room_with(members)
            expected = sorted(set(members), key=lambda l: (entropies[l], l))[:k]
            assert select_informative(room, graph, table, k) == expected
        _pass("entropy/selection (1000 randomized rooms, exact)")


class TestDistributions:
    def test_laplace_and_proxy_rows(self):
        rng = random.Random(7)
        ln = math.log
        # Laplace-smoothed rows over randomized graphs
        for trial in range(20):
            specs = {}
            for i in range(rng.randint(2, 15)):
                label = rng.choice(ROOM_LABELS_3)
                members = [rng.choice(OBJECT_LABELS_12) for _ in range(rng.randint(1, 8))]
                specs[f"r{trial:02d}{i:02d}"] = (label, members)
            graph = build_graph(specs)
            alpha = rng.choice([0.1, 0.5, 1.0, 2.0])
            table = count_ground_truth(graph, "things", alpha=alpha)
            for label, row in table.rows.items():
                assert abs(math.fsum(row) - 1.0) <= 1e-9
                assert all(x > 0 for x in row)
                assert -1e-12 <= table.entropy[label] <= ln(len(row)) + 1e-9

        # proxy-softmax rows over a 23-label room space
        room_labels = tuple(f"room {chr(ord('a') + i)}" for i in range(23))
        scorer = OfflineScorer(seed=31)
        for object_label in OBJECT_LABELS_12[:6]:
            row = proxy_conditional(scorer, object_label, room_labels)
            assert abs(math.fsum(row) - 1.0) <= 1e-9
            assert all(x > 0 for x in row)
            assert -1e-12 <= entropy(row) <= ln(23) + 1e-9

        # uniform row over the 23-label space
        uniform = tuple(1 / 23 for _ in range(23))
        assert abs(entropy(uniform) - ln(23)) <= 1e-9
        assert abs(entropy(uniform) - 3.1355) <= 1e-4
        _pass("distributions (row sums, positivity, entropy bounds, ln 23)")


class TestTemplates:
    GOLDEN = {
        ("grammatical", 1): "A room containing toilet is called a bathroom.",
        ("grammatical", 2): "A room containing toilet and shower is called a bathroom.",
        ("grammatical", 3): "A room containing toilet, shower and sink is called a bathroom.",
        ("grammatical", 5): (
            "A room containing toilet, shower, sink, mirror and towel "
            "is called a bathroom."
        ),
        ("literal", 1): "A room containing toilet is called a(n) bathroom.",
        ("literal", 2): "A room containing toilet and shower is called a(n) bathroom.",
        ("literal", 3): "A room containing toilet, shower and sink is called a(n) bathroom.",
        ("literal", 5): (
            "A room containing toilet, shower, sink, mirror and towel "
            "is called a(n) bathroom."
        ),
    }
    OBJECTS = ["toilet", "shower", "sink", "mirror", "towel"]

    def test_golden_sentences_and_determinism(self):
        for (mode, n), expected in self.GOLDEN.items():
            template = QueryTemplate(article_mode=mode)
            rendered = render_room_query(self.OBJECTS[:n], "bathroom", template)
            assert rendered == expected
            # structure: n-2 separators, one conjunction for n >= 2
            assert rendered.count(", ") == max(n - 2, 0)
            assert rendered.count(" and ") == (1 if n >= 2 else 0)
            assert all(
                render_room_query(self.OBJECTS[:n], "bathroom", template) == expected
                for _ in range(100)
            )
        # vowel-initial room label and its exception list
        assert render_room_query(["desk"], "office").endswith("an office.")
        assert render_room_query(["mop"], "utility room").endswith("a utility room.")
        _pass("templates (golden bytes, structure, 100x determinism)")


class TestScoring:
    def test_summation_shift_and_argmax_invariance(self):
        # totals are the hand-summed per-token conditional log probabilities
        from test_lm_scoring import FixtureScorer

        hand_fixtures = [
            [-1.0, -2.0, -0.5],
            [-0.25, -0.25, -0.25, -0.25],
            [-3.5],
            [None, -0.125, -7.75, -2.0, -0.001, -1.5],  # no empty-prefix term
        ]
        for values in hand_fixtures:
            sentence = " ".join(f"tok{i}" for i in range(len(values)))
            script = {sentence: [(f"tok{i}", v) for i, v in enumerate(values)]}
            hand_total = 0.0
            for v in values:
                if v is not None:
                    hand_total += v
            score = FixtureScorer(script).score(sentence)
            assert abs(score.total_logprob - hand_total) <= 1e-6
            assert score.token_count == sum(v is not None for v in values)
        offline = OfflineScorer(seed=8)
        for sentence in ("alpha beta gamma", "one two three four five"):
            score = offline.score(sentence)
            hand_total = 0.0
            for token in score.tokens:
                hand_total += token.logprob
            assert abs(score.total_logprob - hand_total) <= 1e-6

        # softmax rows are invariant to a constant shift of all logs
        rooms = ("bathroom", "bedroom", "kitchen")
        sentences = {
            r: f"A room containing lamp is called a {r}." for r in rooms
        }
        base_totals = {sentences[r]: offline.score(sentences[r]).total_logprob for r in rooms}
        base_row = proxy_conditional(TotalScorer(base_totals), "lamp", rooms)
        for shift in (-250.0, -1.0, 17.5, 1000.0):
            shifted = {s: t + shift for s, t in base_totals.items()}
            row = proxy_conditional(TotalScorer(shifted), "lamp", rooms)
            assert all(abs(a - b) <= 1e-9 for a, b in zip(row, base_row))

        # argmax is exactly invariant to a constant shift of all candidates
        graph = build_graph(
            {
                "r-bath": ("bathroom", ["toilet", "shower", "sink"]),
                "r-kitchen": ("kitchen", ["stove", "oven"]),
            }
        )
        table = count_ground_truth(graph, "things", alpha=1.0)
        scorer = OfflineScorer(seed=3, bonus_table=BATH_BONUSES)
        for room in graph.rooms:
            base = classify_room(room, graph, table, scorer, k=3)
            for shift in (-1e6, 42.0, 1e6):
                moved = classify_room(
                    room, graph, table, ShiftedScorer(scorer, shift), k=3
                )
                assert moved.predicted_label == base.predicted_label
        _pass("scoring (hand-summed totals 1e-6, softmax 1e-9, argmax exact)")


class TestIngestion:
    def test_every_preprocessing_rule(self, tmp_path):
        scene = tmp_path / "fixture.txt"
        scene.write_text(
            scene_file_text(FIXTURE_ROOMS, FIXTURE_OBJECTS, room_labels=ROOMS_HEADER)
        )
        raw = parse_scene_file(scene)
        fixes = load_spelling_fixes()
        graph = run_pipeline(raw, "nyuclass", fixes)
        assert validate(graph) == []
        by_id = object_by_id(graph)

        # bbox reassignment: the toilet filed under the living room
        assert by_id["o-toilet"].assigned_room == "r-bath"
        # spelling fix
        assert by_id["o-fridge"].label_per_space["nyuclass"] == "refrigerator"
        # multi-mapping resolution keeps the non-rejected coarse label
        assert by_id["o-stairs1"].label_per_space["mpcat40"] == "stairs"
        # outdoor/none/emptied rooms removed
        assert {r.id for r in graph.rooms} == {
            "r-bath", "r-living", "r-kitchen", "r-ovl-a", "r-ovl-b"
        }
        # surfaces gone in both spaces; coarse-"object" retained in fine run
        assert "o-wall" not in by_id and "o-ceiling" not in by_id
        assert "o-pingpong" in by_id
        coarse = run_pipeline(raw, "mpcat40", fixes)
        assert "o-pingpong" not in object_by_id(coarse)

        # full pipeline is a fixed point on its own output
        first = tmp_path / "clean1.txt"
        write_scene_file(graph, first)
        again = run_pipeline(parse_scene_file(first), "nyuclass", fixes)
        second = tmp_path / "clean2.txt"
        write_scene_file(again, second)
        assert first.read_bytes() == second.read_bytes()
        _pass("ingestion (reassign, respell, resolve, filter, fixed point)")


class TestEvaluationCriteria:
    def test_hand_arithmetic_and_baselines(self):
        report = evaluate(run_of(hand_built_predictions()))
        assert report.overall_accuracy == 3 / 5
        assert report.per_label["attic"].accuracy == 0.5
        assert report.per_label["basement"].accuracy == 1.0
        assert report.per_label["cellar"].accuracy == 0.0
        assert report.confusion == ((1, 1, 0), (0, 2, 0), (1, 0, 0))
        assert report.baselines["random"] == 1 / 3
        assert report.baselines["majority"] == 2 / 5

        weighted = sum(
            stats.accuracy * stats.total
            for stats in report.per_label.values()
            if stats.total
        )
        assert abs(weighted / report.evaluated - report.overall_accuracy) <= 1e-12

        # baselines at the scale of the real pre-processed dataset
        frequencies = {
            "bar": 3, "bathroom": 365, "bedroom": 251, "classroom": 2,
            "closet": 99, "conference auditorium": 16, "dining room": 74,
            "family room": 61, "game room": 17, "garage": 14, "gym": 16,
            "hallway": 326, "kitchen": 78, "laundry room": 35, "library": 1,
            "living room": 71, "lobby": 62, "lounge": 64, "office": 98,
            "spa": 44, "staircase": 152, "television room": 13,
            "utility room": 16,
        }
        assert sum(frequencies.values()) == 1878 and len(frequencies) == 23
        labels = tuple(sorted(frequencies))
        preds = []
        for label, count in frequencies.items():
            preds.extend(
                prediction(f"{label}-{i}", label, labels[0], labels)
                for i in range(count)
            )
        big = evaluate(run_of(preds))
        assert abs(big.baselines["majority"] - 365 / 1878) <= 1e-12
        assert abs(big.baselines["random"] - 1 / 23) <= 1e-12
        _pass("evaluation (hand arithmetic exact, weighted mean 1e-12, baselines)")


REPRO_SCENES_ENV = "ROOMSENSE_MP3D_SCENES"
REPRO_ENDPOINT_ENV = "ROOMSENSE_LM_ENDPOINT"

TARGET_ACCURACY = {  # percent, tolerance +/- 3 points
    ("ground_truth", "nyuclass"): 52.41,
    ("ground_truth", "mpcat40"): 49.36,
    ("proxy", "nyuclass"): 28.14,
    ("proxy", "mpcat40"): 27.00,
}


@pytest.mark.skipif(
    not (os.environ.get(REPRO_SCENES_ENV) and os.environ.get(REPRO_ENDPOINT_ENV)),
    reason="full-scale reproduction needs converted scenes and a logprob "
    "endpoint; see the README runbook (hours of runtime, not CI)",
)
class TestFullReproductionRunbook:
    def test_dataset_scale_and_four_conditions(self, tmp_path):
        from roomsense.ingest import merge_graphs
        from roomsense.lm_scoring import CachingScorer, RemoteScorer

        scene_dir = Path(os.environ[REPRO_SCENES_ENV])
        scenes = sorted(scene_dir.glob("*.scene.txt"))
        assert scenes, f"no *.scene.txt under {scene_dir}"
        scorer = CachingScorer(
            RemoteScorer(max_inflight=8), tmp_path / "scores.jsonl"
        )

        fixes = load_spelling_fixes()
        results = {}
        for space_choice in ("nyuclass", "mpcat40"):
            graphs = [
                run_pipeline(parse_scene_file(p), space_choice, fixes) for p in scenes
            ]
            graph = merge_graphs(graphs)
            assert len(graph.rooms) == 1878
            gt_table = count_ground_truth(graph, space_choice, alpha=1.0)
            proxy_table = build_proxy_table(
                scorer, graph.object_space(space_choice), graph.room_space
            )
            for table in (gt_table, proxy_table):
                run = classify_graph(graph, table, scorer, k=3)
                report = evaluate(run)
                results[(table.provenance, space_choice)] = report.overall_accuracy * 100

        for key, target in TARGET_ACCURACY.items():
            assert abs(results[key] - target) <= 3.0, (key, results[key], target)
        _pass("full reproduction (1878 rooms, four conditions within 3 points)")
