import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roomsense
from roomsense.cli import main
from roomsense.lm_scoring import OfflineScorer, TransportError

from conftest import scene_file_text
from test_house_convert import HOUSE_TEXT
from test_ingest import FIXTURE_OBJECTS, FIXTURE_ROOMS, ROOMS_HEADER


@pytest.fixture
def scene(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text(
        scene_file_text(FIXTURE_ROOMS, FIXTURE_OBJECTS, room_labels=ROOMS_HEADER)
    )
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestPipelineComposition:
    def test_ingest_cooc_infer_eval(self, tmp_path, scene, capsys):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        preds = tmp_path / "preds.jsonl"
        reports = tmp_path / "reports"

        assert run("ingest", "--scene", scene, "--out", graph) == 0
        out = capsys.readouterr().out
        assert "rooms: 5" in out and "objects: 9" in out
        assert "bathroom: 1" in out

        assert run("cooc", "--graph", graph, "--out", cooc, "--mode", "gt") == 0
        assert run(
            "infer", "--graph", graph, "--cooc", cooc, "--out", preds, "--k", "3"
        ) == 0
        assert run("eval", preds, "--out-dir", reports) == 0

        assert (reports / "preds.report.json").exists()
        assert (reports / "preds.report.txt").exists()
        assert (reports / "preds.breakdown.csv").exists()
        payload = json.loads((reports / "preds.report.json").read_text())
        assert payload["evaluated"] == 5

    def test_outputs_reference_manifest(self, tmp_path, scene):
        graph = tmp_path / "clean.txt"
        run("ingest", "--scene", scene, "--out", graph)
        sidecar = json.loads((tmp_path / "clean.txt.manifest.json").read_text())
        assert f"# manifest: {sidecar['manifest_id']}" in graph.read_text()
        assert str(scene) in sidecar["inputs"]

    def test_every_eval_output_references_its_manifest(self, tmp_path, scene):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        preds = tmp_path / "preds.jsonl"
        reports = tmp_path / "reports"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        run("infer", "--graph", graph, "--cooc", cooc, "--out", preds)
        run("eval", preds, "--out-dir", reports)
        sidecar = json.loads((reports / "preds.report.json.manifest.json").read_text())
        manifest_id = sidecar["manifest_id"]
        assert json.loads((reports / "preds.report.json").read_text())["manifest"] == manifest_id
        assert f"manifest: {manifest_id}" in (reports / "preds.report.txt").read_text()
        assert f"# manifest: {manifest_id}" in (reports / "preds.breakdown.csv").read_text()

    def test_rerun_is_byte_identical(self, tmp_path, scene):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        preds = tmp_path / "preds.jsonl"

        blobs = []
        for _ in range(2):
            run("ingest", "--scene", scene, "--out", graph)
            run("cooc", "--graph", graph, "--out", cooc, "--mode", "proxy",
                "--backend", "offline", "--seed", "7")
            run("infer", "--graph", graph, "--cooc", cooc, "--out", preds,
                "--backend", "offline", "--seed", "7")
            blobs.append((graph.read_bytes(), cooc.read_bytes(), preds.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_multi_scene_merge(self, tmp_path, scene):
        second = tmp_path / "scene2.txt"
        second.write_text(
            scene_file_text(
                [("b2/r-k", "kitchen", (0, 0, 0), (5, 5, 3))],
                [("b2/o-s", "b2/r-k", ("stove", "stove"), (1, 1, 0), (2, 2, 1))],
                room_labels=ROOMS_HEADER,
            )
        )
        graph = tmp_path / "merged.txt"
        assert run("ingest", "--scene", scene, "--scene", second, "--out", graph) == 0
        assert "b2/r-k" in graph.read_text()

    def test_flags_reach_the_pipeline(self, tmp_path, scene):
        graph = tmp_path / "clean.txt"
        run("ingest", "--scene", scene, "--out", graph)

        cooc_a = tmp_path / "a.tsv"
        cooc_b = tmp_path / "b.tsv"
        run("cooc", "--graph", graph, "--out", cooc_a, "--alpha", "1.0")
        run("cooc", "--graph", graph, "--out", cooc_b, "--alpha", "2.5")
        from roomsense.cooccurrence import read_table

        assert read_table(cooc_a).smoothing_alpha == 1.0
        assert read_table(cooc_b).smoothing_alpha == 2.5
        assert read_table(cooc_a).rows != read_table(cooc_b).rows

        # presence counting only differs when a room repeats a label
        dup_scene = tmp_path / "dup.txt"
        dup_scene.write_text(
            scene_file_text(
                [("d/r1", "bathroom", (0, 0, 0), (9, 9, 3)),
                 ("d/r2", "kitchen", (10, 0, 0), (19, 9, 3))],
                [("d/o1", "d/r1", ("toilet", "toilet"), (1, 1, 0), (2, 2, 1)),
                 ("d/o2", "d/r1", ("toilet", "toilet"), (3, 3, 0), (4, 4, 1)),
                 ("d/o3", "d/r2", ("toilet", "toilet"), (11, 1, 0), (12, 2, 1))],
                room_labels=ROOMS_HEADER,
            )
        )
        dup_graph = tmp_path / "dup-clean.txt"
        run("ingest", "--scene", dup_scene, "--out", dup_graph)
        inst = tmp_path / "inst.tsv"
        pres = tmp_path / "pres.tsv"
        run("cooc", "--graph", dup_graph, "--out", inst)
        run("cooc", "--graph", dup_graph, "--out", pres, "--presence")
        assert read_table(inst).rows != read_table(pres).rows

        preds = tmp_path / "p.jsonl"
        run("infer", "--graph", graph, "--cooc", cooc_a, "--out", preds,
            "--article", "literal", "--k", "2")
        header = json.loads(preds.read_text().splitlines()[0])
        assert header["k"] == 2
        assert "literal" in header["template_version"]
        first = json.loads(preds.read_text().splitlines()[1])
        assert "a(n)" in first["candidates"][0][1]

    def test_default_condition_is_fine_gt_k3(self, tmp_path, scene):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        preds = tmp_path / "preds.jsonl"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        run("infer", "--graph", graph, "--cooc", cooc, "--out", preds)
        header = json.loads(preds.read_text().splitlines()[0])
        assert header["object_space"] == "nyuclass"
        assert header["provenance"] == "ground_truth"
        assert header["k"] == 3
        assert header["backend"].startswith("offline:")

    def test_convert_subcommand(self, tmp_path):
        house = tmp_path / "testhouse.house"
        house.write_text(HOUSE_TEXT)
        out = tmp_path / "converted.txt"
        assert run("convert", "--house", house, "--out", out) == 0
        assert out.exists()
        clean = tmp_path / "clean.txt"
        assert run(
            "ingest", "--scene", out, "--out", clean, "--object-space", "coarse"
        ) == 0

    def test_convert_writes_the_scene_file_once(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("testhouse.house").write_text(HOUSE_TEXT)
        replaced = []
        real_replace = os.replace

        def counting_replace(src, dst):
            replaced.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        assert run("convert", "--house", "testhouse.house", "--out", "scene.txt") == 0
        assert replaced.count("scene.txt") == 1
        digest = hashlib.sha256(Path("scene.txt").read_bytes()).hexdigest()
        assert digest == "7f9daa72810ceaa1e34e7f756e11d3dcd873c4591e2c4342fca74c1fd92538e2"

    def test_two_converted_buildings_through_whole_chain(self, tmp_path):
        scenes = []
        for name in ("houseone", "housetwo"):
            house = tmp_path / f"{name}.house"
            house.write_text(HOUSE_TEXT.replace("testhouse", name))
            scene = tmp_path / f"{name}.scene.txt"
            assert run("convert", "--house", house, "--out", scene) == 0
            scenes.append(scene)
        graph = tmp_path / "all.txt"
        assert run("ingest", "--scene", scenes[0], "--scene", scenes[1], "--out", graph) == 0
        cooc = tmp_path / "cooc.tsv"
        preds = tmp_path / "preds.jsonl"
        assert run("cooc", "--graph", graph, "--out", cooc, "--object-space", "coarse") == 0
        assert run("infer", "--graph", graph, "--cooc", cooc, "--out", preds) == 0
        assert run("eval", preds, "--out-dir", tmp_path / "reports") == 0
        rows = [json.loads(l) for l in preds.read_text().splitlines()][1:]
        ids = {r["room_id"] for r in rows if r["kind"] == "prediction"}
        assert any(i.startswith("houseone/") for i in ids)
        assert any(i.startswith("housetwo/") for i in ids)

    def test_all_rooms_failed_predictions_file(self, tmp_path):
        from roomsense.inference import (
            GraphClassification, RoomFailure, TrialCondition, write_predictions,
        )

        condition = TrialCondition("nyuclass", "ground_truth", 3, "v1", "offline:x")
        dead = GraphClassification(
            predictions=(),
            failures=(RoomFailure("r1", "backend down"),),
            condition=condition,
        )
        path = tmp_path / "dead.jsonl"
        write_predictions(dead, path)
        assert run("eval", path, "--out-dir", tmp_path / "reports") == 2


class TestObjectSpaceConditions:
    def test_fine_and_coarse_reports_compare(self, tmp_path, scene, capsys):
        reports = tmp_path / "reports"
        pred_paths = []
        for space in ("fine", "coarse"):
            graph = tmp_path / f"clean-{space}.txt"
            cooc = tmp_path / f"cooc-{space}.tsv"
            preds = tmp_path / f"preds-{space}.jsonl"
            run("ingest", "--scene", scene, "--out", graph, "--object-space", space)
            run("cooc", "--graph", graph, "--out", cooc, "--object-space", space)
            run("infer", "--graph", graph, "--cooc", cooc, "--out", preds)
            pred_paths.append(preds)
        assert run("eval", *pred_paths, "--out-dir", reports) == 0
        table = (reports / "conditions.txt").read_text()
        assert "nyuclass" in table and "mpcat40" in table
        assert "ground_truth" in table

    def test_duplicate_conditions_rejected(self, tmp_path, scene):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        preds1 = tmp_path / "p1.jsonl"
        preds2 = tmp_path / "p2.jsonl"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        run("infer", "--graph", graph, "--cooc", cooc, "--out", preds1)
        run("infer", "--graph", graph, "--cooc", cooc, "--out", preds2)
        assert run("eval", preds1, preds2, "--out-dir", tmp_path / "r") == 2


def _run_into_closed_pipe(argv, unbuffered):
    """Run the CLI in a child whose stdout is a pipe nobody reads."""
    env = dict(os.environ)
    src = str(Path(roomsense.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "roomsense", *map(str, argv)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestClosedStdout:
    def test_ingest_writes_its_files(self, tmp_path, scene, unbuffered):
        graph = tmp_path / "clean.txt"
        assert run("ingest", "--scene", scene, "--out", graph) == 0
        expected = graph.read_bytes()
        for path in tmp_path.glob("clean.txt*"):
            path.unlink()
        done = _run_into_closed_pipe(["ingest", "--scene", scene, "--out", graph], unbuffered)
        assert (done.returncode, done.stderr) == (0, b"")
        assert graph.read_bytes() == expected
        assert (tmp_path / "clean.txt.manifest.json").exists()

    def test_eval_writes_every_report(self, tmp_path, scene, unbuffered):
        pred_paths = []
        for space in ("fine", "coarse"):
            graph = tmp_path / f"clean-{space}.txt"
            cooc = tmp_path / f"cooc-{space}.tsv"
            preds = tmp_path / f"preds-{space}.jsonl"
            run("ingest", "--scene", scene, "--out", graph, "--object-space", space)
            run("cooc", "--graph", graph, "--out", cooc, "--object-space", space)
            run("infer", "--graph", graph, "--cooc", cooc, "--out", preds)
            pred_paths.append(preds)
        reports = tmp_path / "reports"
        done = _run_into_closed_pipe(["eval", *pred_paths, "--out-dir", reports], unbuffered)
        assert (done.returncode, done.stderr) == (0, b"")
        written = sorted(p.name for p in reports.iterdir())
        assert "conditions.txt" in written and "conditions.txt.manifest.json" in written
        for stem in ("preds-fine", "preds-coarse"):
            for suffix in ("report.json", "report.txt", "breakdown.csv",
                           "report.json.manifest.json"):
                assert f"{stem}.{suffix}" in written

    def test_help_text(self, unbuffered):
        done = _run_into_closed_pipe(["--help"], unbuffered)
        assert (done.returncode, done.stderr) == (0, b"")

    def test_backend_failure_keeps_its_exit_code(self, tmp_path, scene, unbuffered):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        done = _run_into_closed_pipe(
            ["infer", "--graph", graph, "--cooc", cooc, "--out", tmp_path / "p.jsonl",
             "--backend", "remote", "--endpoint", "http://127.0.0.1:9/v1/completions",
             "--max-attempts", "1"],
            unbuffered,
        )
        assert done.returncode == 3
        assert b"every room failed" in done.stderr


class TestExitCodes:
    def test_missing_file_is_usage_error(self, tmp_path):
        assert run("ingest", "--scene", tmp_path / "nope.txt",
                   "--out", tmp_path / "out.txt") == 1

    def test_unknown_flag_is_usage_error(self):
        assert run("ingest", "--frobnicate") == 1

    def test_malformed_scene_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("room\tr0\tbathroom\t0\t0\t0\t1\t1\t1\n")
        assert run("ingest", "--scene", bad, "--out", tmp_path / "out.txt") == 2

    def test_table_space_must_match_graph(self, tmp_path, scene):
        fine_graph = tmp_path / "fine.txt"
        run("ingest", "--scene", scene, "--out", fine_graph)
        cooc = tmp_path / "cooc.tsv"
        run("cooc", "--graph", fine_graph, "--out", cooc)
        lone = tmp_path / "lone.txt"
        lone.write_text(
            scene_file_text(
                [("x/r", "bathroom", (0, 0, 0), (5, 5, 3))],
                [("x/o", "x/r", ("toilet",), (1, 1, 0), (2, 2, 1))],
                spaces=("somethingelse",),
                room_labels=ROOMS_HEADER,
            )
        )
        assert run("infer", "--graph", lone, "--cooc", cooc,
                   "--out", tmp_path / "p.jsonl") == 2

    def test_unreachable_backend_is_backend_failure(self, tmp_path, scene):
        graph = tmp_path / "clean.txt"
        run("ingest", "--scene", scene, "--out", graph)
        rc = run(
            "cooc", "--graph", graph, "--out", tmp_path / "cooc.tsv",
            "--mode", "proxy", "--backend", "remote",
            "--endpoint", "http://127.0.0.1:9/none", "--max-attempts", "1",
        )
        assert rc == 3


class TestProxyCacheResume:
    def test_interrupted_build_resumes_to_identical_file(
        self, tmp_path, scene, monkeypatch
    ):
        graph = tmp_path / "clean.txt"
        run("ingest", "--scene", scene, "--out", graph)
        cooc = tmp_path / "cooc.tsv"
        cache = tmp_path / "cache"
        argv = [
            "cooc", "--graph", graph, "--out", cooc, "--mode", "proxy",
            "--backend", "offline", "--seed", "3", "--cache-dir", cache,
        ]

        # first run dies mid-build, after some scores landed in the cache
        original = OfflineScorer.score
        calls = {"n": 0}

        def flaky(self, sentence):
            calls["n"] += 1
            if calls["n"] > 10:
                raise TransportError("interrupted", sentence)
            return original(self, sentence)

        monkeypatch.setattr(OfflineScorer, "score", flaky)
        assert run(*argv) == 3
        assert not cooc.exists()
        cached_lines = (cache / "scores.jsonl").read_text().splitlines()
        assert 0 < len(cached_lines) <= 10

        # resume with a healthy backend: remaining sentences only
        monkeypatch.setattr(OfflineScorer, "score", original)
        assert run(*argv) == 0
        resumed = cooc.read_bytes()

        # clean run from an empty cache, identical flags
        cooc.unlink()
        (cache / "scores.jsonl").unlink()
        assert run(*argv) == 0
        assert cooc.read_bytes() == resumed
