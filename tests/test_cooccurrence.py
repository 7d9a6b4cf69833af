import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from roomsense.cli import main
from roomsense.cooccurrence import (
    GROUND_TRUTH,
    CooccurrenceTable,
    build_proxy_table,
    count_ground_truth,
    entropy,
    read_table,
    softmax_from_logs,
    write_table,
)
from roomsense.inference import select_rooms
from roomsense.ingest import write_scene_file
from roomsense.lm_scoring import OfflineScorer, TransportError
from roomsense.querygen import render_proxy_query
from roomsense.scene_model import LabelSpace

from conftest import (
    OBJECT_LABELS_12,
    ROOM_LABELS_3,
    TotalScorer,
    build_graph,
    box,
    label_space,
)


def proxy_conditional(scorer, object_label, room_labels):
    """One proxy row: the only row of a proxy table over one object label."""
    table = build_proxy_table(
        scorer,
        LabelSpace(name="things", labels=(object_label,)),
        LabelSpace(name="room", labels=tuple(room_labels)),
    )
    return table.rows[object_label]


class TestEntropy:
    def test_uniform_23_labels(self):
        assert entropy([1 / 23] * 23) == pytest.approx(math.log(23), abs=1e-9)

    def test_delta_distribution(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_two_point_symmetric(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            entropy([1.2, -0.2])

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=30))
    def test_bounds(self, weights):
        total = sum(weights)
        p = [w / total for w in weights]
        h = entropy(p)
        assert -1e-12 <= h <= math.log(len(p)) + 1e-9


class TestCountGroundTruth:
    def test_formula_direct(self):
        # one object label seen 10x in bathroom, nowhere else, 3 room labels
        graph = build_graph(
            {
                "r-bath": ("bathroom", ["toilet"] * 10),
                "r-bed": ("bedroom", ["bed"]),
            }
        )
        table = count_ground_truth(graph, "things", alpha=1.0)
        assert table.rows["toilet"] == pytest.approx((11 / 13, 1 / 13, 1 / 13))

    def test_row_order_follows_room_space(self):
        graph = build_graph({"r0": ("kitchen", ["stove"])})
        table = count_ground_truth(graph, "things", alpha=1.0)
        assert table.room_labels == ROOM_LABELS_3
        # kitchen is the third room label
        assert table.rows["stove"] == pytest.approx((1 / 4, 1 / 4, 2 / 4))

    def test_negative_alpha_rejected(self, two_room_graph):
        with pytest.raises(ValueError):
            count_ground_truth(two_room_graph, "things", alpha=-0.5)

    def test_matches_brute_force_tally(self):
        rng = random.Random(20240101)
        labels = list(OBJECT_LABELS_12)
        specs = {}
        for i in range(12):
            room_label = rng.choice(ROOM_LABELS_3)
            members = [rng.choice(labels) for _ in range(rng.randint(1, 9))]
            specs[f"r{i:02d}"] = (room_label, members)
        graph = build_graph(specs)
        alpha = 0.7
        table = count_ground_truth(graph, "things", alpha=alpha)

        # independent tally over all (object, room) pairs
        rooms = {r.id: r.gt_label for r in graph.rooms}
        for label in graph.object_space("things").labels:
            per_room = {r: 0 for r in ROOM_LABELS_3}
            anywhere = 0
            for obj in graph.objects:
                if obj.label_per_space["things"] == label:
                    per_room[rooms[obj.assigned_room]] += 1
                    anywhere += 1
            expected = [
                (per_room[r] + alpha) / (anywhere + alpha * 3) for r in ROOM_LABELS_3
            ]
            assert table.rows[label] == pytest.approx(expected, abs=1e-12)
            assert table.entropy[label] == pytest.approx(entropy(expected), abs=1e-9)

    def test_presence_counting_dedupes_per_room(self):
        graph = build_graph(
            {
                "r0": ("bathroom", ["toilet", "toilet", "toilet"]),
                "r1": ("bedroom", ["toilet"]),
            }
        )
        instances = count_ground_truth(graph, "things", alpha=0.0)
        presence = count_ground_truth(graph, "things", alpha=0.0, presence=True)
        assert instances.rows["toilet"] == pytest.approx((3 / 4, 1 / 4, 0.0))
        assert presence.rows["toilet"] == pytest.approx((1 / 2, 1 / 2, 0.0))

    def test_alpha_to_zero_converges_to_frequency_ratio(self):
        graph = build_graph(
            {
                "r0": ("bathroom", ["sink", "sink", "sink"]),
                "r1": ("kitchen", ["sink"]),
            }
        )
        table = count_ground_truth(graph, "things", alpha=1e-9)
        assert table.rows["sink"] == pytest.approx((0.75, 0.0, 0.25), abs=1e-6)

    def test_rows_cover_every_space_label(self, two_room_graph):
        table = count_ground_truth(two_room_graph, "things", alpha=1.0)
        assert set(table.rows) == set(two_room_graph.object_space("things").labels)
        assert table.provenance == GROUND_TRUTH
        assert table.smoothing_alpha == 1.0


class TestProxyConditional:
    def test_equal_scores_give_uniform(self):
        rooms = ("bathroom", "bedroom", "kitchen")
        totals = {render_proxy_query("toilet", r): -5.0 for r in rooms}
        row = proxy_conditional(TotalScorer(totals), "toilet", rooms)
        assert row == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_log_ratio_two_to_one(self):
        rooms = ("attic", "basement")
        totals = {
            render_proxy_query("box", "attic"): math.log(2),
            render_proxy_query("box", "basement"): 0.0,
        }
        row = proxy_conditional(TotalScorer(totals), "box", rooms)
        assert row == pytest.approx((2 / 3, 1 / 3), abs=1e-12)

    def test_matches_hand_softmax_of_offline_scores(self):
        scorer = OfflineScorer(seed=11)
        rooms = ("bathroom", "bedroom", "kitchen")
        row = proxy_conditional(scorer, "shower", rooms)
        logs = [scorer.score(render_proxy_query("shower", r)).total_logprob for r in rooms]
        exps = [math.exp(v) for v in logs]
        hand = [e / sum(exps) for e in exps]
        assert row == pytest.approx(hand, abs=1e-12)

    def test_shift_invariance(self):
        scorer = OfflineScorer(seed=4)
        rooms = ("bathroom", "bedroom", "kitchen")
        base = proxy_conditional(scorer, "lamp", rooms)
        sentences = [render_proxy_query("lamp", r) for r in rooms]
        shifted_totals = {
            s: scorer.score(s).total_logprob + 123.456 for s in sentences
        }
        shifted = proxy_conditional(TotalScorer(shifted_totals), "lamp", rooms)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_transport_error_propagates_with_sentence(self):
        rooms = ("bathroom", "bedroom")
        bad = render_proxy_query("toilet", "bedroom")
        totals = {render_proxy_query("toilet", "bathroom"): -1.0}
        with pytest.raises(TransportError) as excinfo:
            proxy_conditional(TotalScorer(totals, fail_on={bad}), "toilet", rooms)
        assert excinfo.value.sentence == bad

    def test_extreme_logs_are_stable(self):
        row = softmax_from_logs([-1000.0, -1001.0, -999.0])
        assert sum(row) == pytest.approx(1.0, abs=1e-12)
        assert all(x > 0 for x in row)


def _threaded(scorer, workers):
    """The scorer, set to be scored by ``workers`` threads at once."""
    scorer.max_inflight = workers
    return scorer


class TestBuildProxyTable:
    def test_full_cross_product_and_metadata(self):
        scorer = OfflineScorer(seed=1)
        object_space = label_space("things", ["toilet", "bed", "stove"])
        room_space = label_space("room", ROOM_LABELS_3)
        table = build_proxy_table(scorer, object_space, room_space)
        assert set(table.rows) == {"toilet", "bed", "stove"}
        assert table.provenance == "proxy"
        assert table.scorer_identity == scorer.identity
        assert table.template_version
        for label in table.rows:
            assert sum(table.rows[label]) == pytest.approx(1.0, abs=1e-9)

    def test_concurrent_build_matches_sequential(self):
        object_space = label_space("things", list(OBJECT_LABELS_12))
        room_space = label_space("room", ROOM_LABELS_3)
        sequential = build_proxy_table(OfflineScorer(seed=1), object_space, room_space)
        threaded = _threaded(OfflineScorer(seed=1), 6)
        concurrent = build_proxy_table(threaded, object_space, room_space)
        assert sequential == concurrent

    def test_concurrent_build_through_shared_cache(self, tmp_path):
        from roomsense.lm_scoring import CachingScorer

        object_space = label_space("things", list(OBJECT_LABELS_12))
        room_space = label_space("room", ROOM_LABELS_3)
        plain = build_proxy_table(OfflineScorer(seed=2), object_space, room_space)
        cache_path = tmp_path / "scores.jsonl"
        cached = CachingScorer(_threaded(OfflineScorer(seed=2), 8), cache_path)
        assert cached.max_inflight == 8
        assert build_proxy_table(cached, object_space, room_space) == plain
        # every record written under concurrency is intact
        records = [
            json.loads(line) for line in cache_path.read_text().splitlines()
        ]
        assert len(records) == len(OBJECT_LABELS_12) * len(ROOM_LABELS_3)
        # warm rebuild hits the cache only and still agrees
        warm = CachingScorer(_threaded(OfflineScorer(seed=2), 8), cache_path)
        assert build_proxy_table(warm, object_space, room_space) == plain

    @pytest.mark.parametrize("workers", [1, 4])
    def test_first_failed_row_raises_its_first_failure_in_room_label_order(self, workers):
        objects = ("bed", "toilet")
        totals = {render_proxy_query(o, r): -1.0 for o in objects for r in ROOM_LABELS_3}
        failing = [
            render_proxy_query("bed", "bedroom"),
            render_proxy_query("bed", "kitchen"),
            render_proxy_query("toilet", "bathroom"),
        ]
        scorer = _threaded(TotalScorer(totals, fail_on=failing), workers)
        with pytest.raises(TransportError) as excinfo:
            build_proxy_table(
                scorer, label_space("things", objects), label_space("room", ROOM_LABELS_3)
            )
        assert excinfo.value.sentence == failing[0]
        assert str(excinfo.value) == f"scripted failure: {failing[0]}"


def make_table(entropies, room_labels=ROOM_LABELS_3):
    """Table with prescribed entropies (rows are placeholders)."""
    uniform = tuple(1 / len(room_labels) for _ in room_labels)
    return CooccurrenceTable(
        object_space="things",
        room_space="room",
        room_labels=tuple(room_labels),
        rows={label: uniform for label in entropies},
        entropy=dict(entropies),
        provenance=GROUND_TRUTH,
        smoothing_alpha=1.0,
    )


def selected_in(labels, table, k) -> list[str]:
    """What ``select_rooms`` selects in a one-room graph of objects labelled ``labels``."""
    (selection,) = select_rooms(build_graph({"r0": ("bathroom", list(labels))}), table, k)
    return list(selection.objects)


class TestSelectInformative:
    def test_lowest_entropy_first(self):
        table = make_table({"toilet": 0.1, "chair": 3.0, "shower": 0.2})
        assert selected_in(["toilet", "chair", "shower"], table, 2) == ["toilet", "shower"]

    def test_fewer_distinct_labels_than_k(self):
        table = make_table({"bed": 0.5, "lamp": 0.4})
        assert selected_in(["bed", "lamp"], table, 3) == ["lamp", "bed"]

    def test_equal_entropy_breaks_lexicographically(self):
        table = make_table({"sink": 1.0, "oven": 1.0})
        assert selected_in(["sink", "oven"], table, 1) == ["oven"]

    def test_duplicates_count_once(self):
        table = make_table({"toilet": 0.1, "chair": 3.0})
        assert selected_in(["toilet", "toilet", "chair"], table, 2) == ["toilet", "chair"]

    def test_invalid_k(self):
        table = make_table({"bed": 0.5})
        with pytest.raises(ValueError):
            selected_in(["bed"], table, 0)

    def test_missing_label_is_contract_error(self):
        table = make_table({"chair": 0.5})
        with pytest.raises(ValueError, match="object label 'bed' in room 'r0' missing from table"):
            selected_in(["bed"], table, 1)

    def test_permutation_and_duplication_invariance(self):
        rng = random.Random(7)
        labels = ["toilet", "chair", "shower", "bed", "lamp"]
        table = make_table({l: rng.random() * 3 for l in labels})
        baseline = selected_in(labels, table, 3)
        for _ in range(10):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            duplicated = shuffled + [rng.choice(shuffled)]
            assert selected_in(duplicated, table, 3) == baseline

    def test_adding_high_entropy_object_never_changes_selection(self):
        table = make_table(
            {"toilet": 0.1, "shower": 0.2, "sink": 0.3, "chair": 2.9}
        )
        before = selected_in(["toilet", "shower", "sink"], table, 3)
        assert selected_in(["toilet", "shower", "sink", "chair"], table, 3) == before

    def test_brute_force_equivalence_randomized(self):
        rng = random.Random(99)
        vocabulary = [f"obj{i:02d}" for i in range(30)]
        for _ in range(200):
            entropies = {l: rng.uniform(0, 3) for l in vocabulary}
            # force some exact ties
            for l in rng.sample(vocabulary, 6):
                entropies[l] = 1.5
            table = make_table(entropies)
            members = [rng.choice(vocabulary) for _ in range(rng.randint(1, 12))]
            k = rng.randint(1, 5)
            expected = sorted(set(members), key=lambda l: (entropies[l], l))[:k]
            assert selected_in(members, table, k) == expected


class TestTableInvariantsAndRoundTrip:
    def test_entropy_field_matches_recomputation(self, two_room_graph):
        table = count_ground_truth(two_room_graph, "things", alpha=2.0)
        for label, row in table.rows.items():
            assert table.entropy[label] == pytest.approx(entropy(row), abs=1e-9)

    def test_rows_sum_to_one_and_positive(self, two_room_graph):
        table = count_ground_truth(two_room_graph, "things", alpha=0.5)
        for row in table.rows.values():
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-9)
            assert all(0 < x <= 1 for x in row)

    def test_round_trip_is_lossless(self, tmp_path, two_room_graph):
        table = count_ground_truth(two_room_graph, "things", alpha=1 / 3)
        path = tmp_path / "cooc.tsv"
        write_table(table, path, manifest_id="abc123")
        loaded = read_table(path)
        assert loaded == table
        assert "# manifest: abc123" in path.read_text()

    def test_proxy_round_trip(self, tmp_path):
        scorer = OfflineScorer(seed=5)
        table = build_proxy_table(
            scorer,
            label_space("things", ["toilet", "bed"]),
            label_space("room", ROOM_LABELS_3),
        )
        path = tmp_path / "cooc.tsv"
        write_table(table, path)
        assert read_table(path) == table

    def test_rejects_non_table_file(self, tmp_path):
        path = tmp_path / "junk.tsv"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            read_table(path)


def _scaled(cells, factor):
    return [cells[0], *(repr(float(x) * factor) for x in cells[1:-1]), cells[-1]]


def _entropy_off_by(cells, delta):
    return [*cells[:-1], repr(float(cells[-1]) + delta)]


# name -> (edit of a line's cells, the line: the "header", the first "row",
# or a copy of the first row that is "appended")
_CORRUPTIONS = {
    "nan-cell": (lambda cells: [cells[0], "nan", *cells[2:]], "row"),
    "non-numeric-cell": (lambda cells: [cells[0], "0.5x", *cells[2:]], "row"),
    "duplicate-label": (lambda cells: cells, "appended"),
    "empty-label": (lambda cells: ["", *cells[1:]], "row"),
    "blank-label": (lambda cells: [" ", *cells[1:]], "row"),
    "row-sums-to-0.95": (lambda cells: _scaled(cells, 0.95), "row"),
    "entropy-mismatch": (lambda cells: _entropy_off_by(cells, 1e-6), "row"),
    "header-repeated-room": (lambda cells: [*cells[:2], cells[1], *cells[3:]], "header"),
    "header-empty-room": (lambda cells: [cells[0], "", *cells[2:]], "header"),
    "header-without-entropy": (lambda cells: cells[:-1], "header"),
    "row-missing-a-column": (lambda cells: cells[:-1], "row"),
}


class TestReadTableRejectsCorruptRows:
    @staticmethod
    def _corrupt(path, two_room_graph, name):
        write_table(count_ground_truth(two_room_graph, "things"), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("label\t"))
        edit, where = _CORRUPTIONS[name]
        index = header if where == "header" else header + 1
        edited = "\t".join(edit(lines[index].split("\t")))
        if where == "appended":
            lines.append(edited)
        else:
            lines[index] = edited
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return len(lines) if where == "appended" else index + 1

    @pytest.mark.parametrize("name", sorted(_CORRUPTIONS))
    def test_error_names_file_and_line(self, tmp_path, two_room_graph, name):
        path = tmp_path / "cooc.tsv"
        lineno = self._corrupt(path, two_room_graph, name)
        with pytest.raises(ValueError) as caught:
            read_table(path)
        assert str(caught.value).startswith(f"{path}:{lineno}: ")

    def test_blank_rows_are_skipped(self, tmp_path, two_room_graph):
        table = count_ground_truth(two_room_graph, "things")
        path = tmp_path / "cooc.tsv"
        write_table(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("label\t"))
        lines[header + 2:header + 2] = ["", ""]
        path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        assert read_table(path) == table

    def test_entropy_within_tolerance_is_accepted(self, tmp_path, two_room_graph):
        table = count_ground_truth(two_room_graph, "things")
        path = tmp_path / "cooc.tsv"
        write_table(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = "\t".join(_entropy_off_by(lines[-1].split("\t"), 1e-12))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_table(path).rows == table.rows

    def test_cli_exits_with_a_data_error(self, tmp_path, two_room_graph, capsys):
        graph = tmp_path / "graph.txt"
        write_scene_file(two_room_graph, graph)
        path = tmp_path / "cooc.tsv"
        lineno = self._corrupt(path, two_room_graph, "nan-cell")
        code = main(["infer", "--graph", str(graph), "--cooc", str(path),
                     "--out", str(tmp_path / "preds.jsonl")])
        assert code == 2
        assert f"data error: {path}:{lineno}: " in capsys.readouterr().err


class TestReadTableMetadata:
    @staticmethod
    def _with_alpha(path, two_room_graph, alpha):
        """A written table whose ``# alpha:`` line holds ``alpha``; returns its line number."""
        write_table(count_ground_truth(two_room_graph, "things"), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith("# alpha:"))
        lines[index] = f"# alpha: {alpha}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return index + 1

    @pytest.mark.parametrize("alpha, value", [("-", None), ("0", 0.0), ("0.0", 0.0), ("2.5", 2.5)])
    def test_accepted_alpha(self, tmp_path, two_room_graph, alpha, value):
        path = tmp_path / "cooc.tsv"
        self._with_alpha(path, two_room_graph, alpha)
        assert read_table(path).smoothing_alpha == value

    @pytest.mark.parametrize("alpha", ["abc", "", "nan", "inf", "-inf", "-2", "1e999"])
    def test_bad_alpha_names_file_and_line(self, tmp_path, two_room_graph, alpha):
        path = tmp_path / "cooc.tsv"
        lineno = self._with_alpha(path, two_room_graph, alpha)
        with pytest.raises(ValueError) as caught:
            read_table(path)
        assert str(caught.value) == (
            f"{path}:{lineno}: alpha {alpha!r} is not '-' or a finite number of at least 0"
        )

    @staticmethod
    def _with_provenance(path, two_room_graph, provenance):
        """A written table whose ``# provenance:`` line holds ``provenance``,
        or that has none if it is None; returns that line's number, or the
        header's."""
        write_table(count_ground_truth(two_room_graph, "things"), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith("# provenance:"))
        if provenance is None:
            del lines[index]
            index = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        else:
            lines[index] = f"# provenance: {provenance}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return index + 1

    @pytest.mark.parametrize("provenance", ["proxie", "", "Proxy", "gt"])
    def test_unknown_provenance_names_file_and_line(self, tmp_path, two_room_graph, provenance):
        path = tmp_path / "cooc.tsv"
        lineno = self._with_provenance(path, two_room_graph, provenance)
        with pytest.raises(ValueError) as caught:
            read_table(path)
        assert str(caught.value) == (
            f"{path}:{lineno}: provenance {provenance!r} is not 'ground_truth' or 'proxy'"
        )

    def test_missing_provenance_names_the_header_line(self, tmp_path, two_room_graph):
        path = tmp_path / "cooc.tsv"
        lineno = self._with_provenance(path, two_room_graph, None)
        with pytest.raises(ValueError) as caught:
            read_table(path)
        assert str(caught.value) == f"{path}:{lineno}: no provenance line in the metadata"

    def test_cli_missing_provenance_is_a_data_error(self, tmp_path, two_room_graph, capsys):
        graph = tmp_path / "graph.txt"
        write_scene_file(two_room_graph, graph)
        path = tmp_path / "cooc.tsv"
        lineno = self._with_provenance(path, two_room_graph, None)
        out = tmp_path / "preds.jsonl"
        code = main(["infer", "--graph", str(graph), "--cooc", str(path), "--out", str(out)])
        assert code == 2
        assert f"data error: {path}:{lineno}: no provenance line" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_missing_object_space_is_a_data_error(self, tmp_path, two_room_graph, capsys):
        graph = tmp_path / "graph.txt"
        write_scene_file(two_room_graph, graph)
        path = tmp_path / "cooc.tsv"
        write_table(count_ground_truth(two_room_graph, "things"), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [line for line in lines if not line.startswith("# object_space:")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        lineno = next(i for i, line in enumerate(lines, 1) if not line.startswith("#"))
        out = tmp_path / "preds.jsonl"
        code = main(["infer", "--graph", str(graph), "--cooc", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"roomsense: data error: {path}:{lineno}: no object_space line in the metadata"
        ]
        assert not out.exists()

    def test_missing_header_names_the_line_after_the_metadata(self, tmp_path, two_room_graph):
        path = tmp_path / "cooc.tsv"
        write_table(count_ground_truth(two_room_graph, "things"), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        meta = [line for line in lines if line.startswith("#")]
        path.write_text("\n".join(meta) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            read_table(path)
        assert str(caught.value) == (
            f"{path}:{len(meta) + 1}: no table header after the metadata"
        )

    def test_cli_bad_alpha_is_a_data_error(self, tmp_path, two_room_graph, capsys):
        graph = tmp_path / "graph.txt"
        write_scene_file(two_room_graph, graph)
        path = tmp_path / "cooc.tsv"
        lineno = self._with_alpha(path, two_room_graph, "abc")
        out = tmp_path / "preds.jsonl"
        code = main(["infer", "--graph", str(graph), "--cooc", str(path), "--out", str(out)])
        assert code == 2
        assert f"data error: {path}:{lineno}: alpha 'abc'" in capsys.readouterr().err
        assert not out.exists()
