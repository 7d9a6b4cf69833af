import hashlib
import importlib
import io
import itertools
import json
import os
import pkgutil
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import roomsense
from roomsense import ingest, lm_scoring
from roomsense.cli import main
from roomsense.cooccurrence import read_table
from roomsense.inference import read_predictions
from roomsense.ingest import parse_scene_file
from roomsense.lm_scoring import OfflineScorer, TransportError, make_scorer
from roomsense.querygen import render_proxy_query
from roomsense.scene_model import SceneGraph

from conftest import offline_oracle, scene_file_text
from endpoint import Endpoint
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


# The three-region building of CI's packaging-smoke job: a bathroom with a
# toilet, a kitchen with a misspelled refrigerator, and a yard with no object.
H0_HOUSE = "\n".join([
    "ASCII 1.0",
    "H h0 - 0 0 0 0 0 4 3 3 0 1 0 0 0 0 0 0 0 0 10 10 3 0 0 0 0 0",
    "R 0 0 0 0 a 2.0 2.0 1.5 0 0 0 4 4 3 3.0 0 0 0 0",
    "R 1 0 0 0 k 6.0 6.0 1.5 4 0 0 10 10 3 3.0 0 0 0 0",
    "R 2 0 0 0 x 22 22 1.5 20 20 0 25 25 3 3.0 0 0 0 0",
    "C 0 10 toilet 18 toilet 0 0 0 0 0",
    "C 1 11 refridgerator 37 appliances 0 0 0 0 0",
    "O 0 0 0 1.0 1.0 0.5 1 0 0 0 1 0 0.5 0.4 0.5 0 0 0 0 0 0 0 0",
    "O 1 1 1 8.0 8.0 1.0 1 0 0 0 1 0 0.5 0.5 1.0 0 0 0 0 0 0 0 0",
]) + "\n"


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

    # One fixed run of each command that writes data, by relative paths: each
    # data file and the manifest id it is stamped with. The id hashes every
    # flag of the command, defaults included (cli._manifested), so adding,
    # removing or renaming a flag changes every data file.
    MANIFEST_IDS = {
        "h0.scene.txt": "57b6e15ea1c32c0f",
        "clean.txt": "acd4d20de0eb0194",
        "gt.tsv": "7e3478c964c54895",
        "proxy.tsv": "8c641d588fec3ff0",
        "preds.jsonl": "9d6386b20b90093d",
        "reports/preds.report.json": "bcb91a319d46e03d",
    }

    def test_manifest_ids_are_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("h0.house").write_text(HOUSE_TEXT)
        Path("scene.txt").write_text(
            scene_file_text(FIXTURE_ROOMS, FIXTURE_OBJECTS, room_labels=ROOMS_HEADER)
        )
        for argv in [
            ("convert", "--house", "h0.house", "--out", "h0.scene.txt"),
            ("ingest", "--scene", "scene.txt", "--out", "clean.txt"),
            ("cooc", "--graph", "clean.txt", "--out", "gt.tsv"),
            ("cooc", "--graph", "clean.txt", "--out", "proxy.tsv", "--mode", "proxy"),
            ("infer", "--graph", "clean.txt", "--cooc", "gt.tsv", "--out", "preds.jsonl"),
            ("eval", "preds.jsonl", "--out-dir", "reports"),
        ]:
            assert run(*argv) == 0
        ids = {
            out: json.loads(Path(f"{out}.manifest.json").read_text())["manifest_id"]
            for out in self.MANIFEST_IDS
        }
        assert ids == self.MANIFEST_IDS, (
            "a manifest id moved, so every data file's bytes move with it: a change "
            "that means to do so re-records bench/digests.json and "
            "scripts/paper_scale_chain.sha256, and then these ids"
        )

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

    def test_graph_that_skipped_ingest_reports_its_empty_room(self, tmp_path, capsys):
        # unfiltered, the converted yard h0/R2 holds no object: infer reports
        # it as failed and predicts the other two rooms
        house = tmp_path / "h0.house"
        house.write_text(H0_HOUSE)
        scene, cooc, preds = tmp_path / "h0.scene.txt", tmp_path / "gt.tsv", tmp_path / "p.jsonl"
        assert run("convert", "--house", house, "--out", scene) == 0
        assert run("cooc", "--graph", scene, "--out", cooc) == 0
        capsys.readouterr()
        assert run("infer", "--graph", scene, "--cooc", cooc, "--out", preds) == 0
        assert capsys.readouterr().out == "predicted 2 rooms, 1 failed\n"
        records = [json.loads(line) for line in preds.read_text().splitlines()]
        assert [r for r in records if r["kind"] == "failure"] == [{
            "kind": "failure",
            "room_id": "h0/R2",
            "reason": "room 'h0/R2' has no usable object labels",
        }]
        assert {r["room_id"] for r in records if r["kind"] == "prediction"} == {"h0/R0", "h0/R1"}

    def test_all_rooms_failed_predictions_file(self, tmp_path, capsys):
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
        assert f"data error: {path}: no successful predictions" in capsys.readouterr().err


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

    def test_coarse_run_keeps_object_with_rejected_fine_label(self, tmp_path, capsys):
        # the fine label "object" is a rejected string, but a coarse run
        # filters by the coarse label, which here is the kept "objects"
        scene = tmp_path / "scene.txt"
        scene.write_text(scene_file_text(
            [("h/r0", "bathroom", (0, 0, 0), (9, 9, 3))],
            [("h/o0", "h/r0", ("toilet", "toilet"), (1, 1, 0), (2, 2, 1)),
             ("h/o1", "h/r0", ("objects", "object"), (3, 3, 0), (4, 4, 1))],
            spaces=("mpcat40", "rawcategory"),
            room_labels=ROOMS_HEADER,
        ))
        graph = tmp_path / "clean.txt"
        assert run("ingest", "--scene", scene, "--out", graph,
                   "--object-space", "coarse") == 0
        assert "objects: 2" in capsys.readouterr().out
        assert "\th/o1\th/r0\tobjects\tobject\t" in graph.read_text()

    @pytest.mark.parametrize("flag, kept", [
        ((), True),
        (("--no-keep-object-category",), False),
    ], ids=["default", "no-keep"])
    def test_keep_object_category_flag_reaches_ingest(self, tmp_path, scene, flag, kept):
        # o-pingpong's coarse label is "object" and its fine one is rich
        graph = tmp_path / "clean.txt"
        assert run("ingest", "--scene", scene, "--out", graph, "--object-space", "fine",
                   *flag) == 0
        ids = {obj.id for obj in parse_scene_file(graph).objects}
        assert ("o-pingpong" in ids) is kept
        assert "o-sofa" in ids

    def test_spelling_fixes_file_replaces_the_packaged_table(self, tmp_path, scene):
        fixes = tmp_path / "t.txt"
        graph = tmp_path / "clean.txt"
        ids = []
        for correction in ("couch", "settee"):
            fixes.write_text(f"sofa\t{correction}\n")
            assert run("ingest", "--scene", scene, "--out", graph, "--spelling-fixes", fixes) == 0
            labels = {obj.id: obj.label_per_space for obj in parse_scene_file(graph).objects}
            # the file's own correction is applied, in every space
            assert labels["o-sofa"] == {"mpcat40": correction, "nyuclass": correction}
            # the packaged table's correction is not
            assert labels["o-fridge"]["nyuclass"] == "refridgerator"
            ids.append(json.loads(Path(f"{graph}.manifest.json").read_text())["manifest_id"])
        # the file's content is an input: the same command with an edited file gets another id
        assert ids[0] != ids[1]

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

    def test_inputs_whose_reports_would_collide_rejected(self, tmp_path, scene, capsys):
        graph = tmp_path / "clean.txt"
        run("ingest", "--scene", scene, "--out", graph)
        preds = []
        for run_dir, space in (("a", "fine"), ("b", "coarse")):
            (tmp_path / run_dir).mkdir()
            cooc = tmp_path / run_dir / "cooc.tsv"
            run("cooc", "--graph", graph, "--out", cooc, "--object-space", space)
            preds.append(tmp_path / run_dir / "p.jsonl")
            run("infer", "--graph", graph, "--cooc", cooc, "--out", preds[-1])
        reports = tmp_path / "reports"
        capsys.readouterr()
        assert run("eval", *preds, "--out-dir", reports) == 1
        assert "share the stem 'p'" in capsys.readouterr().err
        assert not reports.exists()


def _child_env() -> dict:
    """This process's environment, with the tested package on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(roomsense.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_into_closed_pipe(argv, unbuffered):
    """Run the CLI in a child whose stdout is a pipe nobody reads."""
    env = _child_env()
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

    def test_ingest_in_process_points_stdout_at_the_null_device(
        self, tmp_path, scene, unbuffered, monkeypatch
    ):
        # the branch the child runs above, where a line tracer sees it; only
        # the pipe's descriptor is redirected, never this process's own stdout
        graph = tmp_path / "clean.txt"
        assert run("ingest", "--scene", scene, "--out", graph) == 0
        expected = graph.read_bytes()
        graph.unlink()
        read_end, write_end = os.pipe()
        os.close(read_end)
        devnull = os.stat(os.devnull)
        pointed = []
        real_dup2 = os.dup2

        def dup2(fd, fd2):
            assert fd2 == write_end
            pointed.append(os.path.samestat(os.fstat(fd), devnull))
            real_dup2(fd, fd2)

        # as the interpreter opens stdout, with or without PYTHONUNBUFFERED
        binary = open(write_end, "wb", buffering=0 if unbuffered else -1)
        with io.TextIOWrapper(binary, write_through=unbuffered) as stdout, \
                monkeypatch.context() as patch:
            patch.setattr(os, "dup2", dup2)
            patch.setattr(sys, "stdout", stdout)
            assert run("ingest", "--scene", scene, "--out", graph) == 0
            assert os.path.samestat(os.fstat(write_end), devnull)
        assert pointed == [True]
        assert graph.read_bytes() == expected

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


def _run_on_bad_graph(tmp_path, scene, capsys, argv, bad_graph) -> list[str]:
    """Run ``argv`` with ``--graph bad_graph`` (and a good ``--cooc`` table for
    ``infer``); assert exit 2 and no output, and return the lines of stderr."""
    table = tmp_path / "cooc.tsv"
    run("ingest", "--scene", scene, "--out", tmp_path / "clean.txt")
    run("cooc", "--graph", tmp_path / "clean.txt", "--out", table)
    capsys.readouterr()
    command, *flags = argv
    inputs = ["--graph", bad_graph] + (["--cooc", table] if command == "infer" else [])
    out = tmp_path / "out"
    assert run(command, *inputs, "--out", out, *flags) == 2
    assert not out.exists()
    return capsys.readouterr().err.splitlines()


class TestExitCodes:
    def test_bad_input_has_one_exception_type(self):
        # every refusal of bad input is a ValueError, which exits 2: the
        # package defines no exception type but the backend's two
        defined = set()
        for module in pkgutil.iter_modules(roomsense.__path__, "roomsense."):
            if module.name == "roomsense.__main__":  # runs the command
                continue
            namespace = vars(importlib.import_module(module.name))
            defined.update(
                name for name, value in namespace.items()
                if isinstance(value, type) and issubclass(value, BaseException)
                and value.__module__ == module.name
            )
        assert defined == {"TransportError", "_RetriedStatus"}

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run("ingest", "--scene", tmp_path / "nope.txt",
                   "--out", tmp_path / "out.txt") == 1

    def test_unknown_flag_is_usage_error(self):
        assert run("ingest", "--frobnicate") == 1

    @pytest.mark.parametrize("argv", [
        ["infer", "--k", "0"],
        ["infer", "--k", "-2"],
        ["infer", "--k", "three"],
        ["infer", "--max-inflight", "0"],
        ["infer", "--backend", "remote", "--endpoint", "http://127.0.0.1:9/",
         "--max-attempts", "0"],
        ["cooc", "--alpha", "-1"],
        ["cooc", "--alpha", "nan"],
        ["cooc", "--alpha", "one"],
    ], ids=["k-zero", "k-negative", "k-text", "max-inflight", "max-attempts", "alpha",
            "alpha-nan", "alpha-text"])
    def test_bad_numeric_flag_is_usage_error(self, tmp_path, scene, capsys, argv):
        command, *flags = argv
        inputs = {"infer": ["--graph", scene, "--cooc", scene],
                  "cooc": ["--graph", scene]}[command]
        out = tmp_path / "out"
        assert run(command, *inputs, "--out", out, *flags) == 1
        assert f"argument {flags[-2]}: " in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_scene_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("room\tr0\tbathroom\t0\t0\t0\t1\t1\t1\n")
        assert run("ingest", "--scene", bad, "--out", tmp_path / "out.txt") == 2

    def test_empty_scene_file_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "out.txt"
        assert run("ingest", "--scene", empty, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"roomsense: data error: {empty}: no 'scenegraph' header"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cooc", "--mode", "gt"],
        ["cooc", "--mode", "proxy"],
        ["infer"],
    ], ids=["cooc-gt", "cooc-proxy", "infer"])
    def test_header_without_room_labels_is_data_error(self, tmp_path, scene, capsys, argv):
        bad = tmp_path / "no-rooms.txt"
        bad.write_text("scenegraph\tv1\tspaces=mpcat40,nyuclass\trooms=\n")
        assert _run_on_bad_graph(tmp_path, scene, capsys, argv, bad) == [
            f"roomsense: data error: {bad}:1: header declares no room labels"
        ]

    @pytest.mark.parametrize("argv", [
        ["cooc", "--mode", "gt"],
        ["cooc", "--mode", "proxy"],
        ["infer"],
    ], ids=["cooc-gt", "cooc-proxy", "infer"])
    def test_header_with_one_room_label_is_data_error(self, tmp_path, scene, capsys, argv):
        bad = tmp_path / "one-room.txt"
        bad.write_text(scene_file_text(
            [("r0", "bathroom", (0, 0, 0), (4, 4, 3))],
            [("o0", "r0", ("toilet", "toilet"), (1, 1, 0), (2, 2, 1))],
            room_labels=("bathroom",),
        ))
        assert _run_on_bad_graph(tmp_path, scene, capsys, argv, bad) == [
            f"roomsense: data error: {bad}:1: header declares one room label, 'bathroom'; "
            "a room needs at least 2 to choose from"
        ]

    @pytest.mark.parametrize("command", ["ingest", "cooc"])
    def test_inverted_box_is_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "inverted.txt"
        bad.write_text(scene_file_text(
            [("r0", "bathroom", (0, 0, 0), (4, -4, 3))],
            [("o0", "r0", ("toilet", "toilet"), (1, 1, 0), (2, 2, 1))],
        ))
        out = tmp_path / "out"
        flag = {"ingest": "--scene", "cooc": "--graph"}[command]
        assert run(command, flag, bad, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"roomsense: data error: {bad}:2: bbox corners not ordered min <= max in "
            "['0', '0', '0', '4', '-4', '3']"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["ingest"],
        ["cooc", "--mode", "gt"],
        ["cooc", "--mode", "proxy"],
        ["infer"],
    ], ids=["ingest", "cooc-gt", "cooc-proxy", "infer"])
    def test_blank_object_label_is_data_error(self, tmp_path, scene, capsys, argv):
        # no stage may count, write or score a label that normalizes to ""
        bad = tmp_path / "blank.txt"
        bad.write_text(scene_file_text(
            [("r0", "bathroom", (0, 0, 0), (4, 4, 3))],
            [("o0", "r0", ("toilet", " "), (1, 1, 0), (2, 2, 1))],
        ))
        if argv == ["ingest"]:
            out = tmp_path / "out"
            assert run("ingest", "--scene", bad, "--out", out) == 2
            assert not out.exists()
            err = capsys.readouterr().err.splitlines()
        else:
            err = _run_on_bad_graph(tmp_path, scene, capsys, argv, bad)
        assert err == [f"roomsense: data error: {bad}:3: empty object label in space 'nyuclass'"]

    @pytest.mark.parametrize("label", ["", "  "], ids=["empty", "spaces"])
    def test_table_row_with_a_blank_label_is_data_error(self, tmp_path, scene, capsys, label):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        lines = cooc.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("label\t")) + 1
        lines[row] = label + lines[row][lines[row].index("\t"):]
        cooc.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "p.jsonl"
        assert run("infer", "--graph", graph, "--cooc", cooc, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"roomsense: data error: {cooc}:{row + 1}: row {label!r} has an empty label"
        ]
        assert not out.exists()

    def test_one_room_label_left_after_filtering_is_data_error(self, tmp_path, scene, capsys):
        bad = tmp_path / "yard.txt"
        bad.write_text(scene_file_text(
            [("r0", "bedroom", (0, 0, 0), (4, 4, 3))],
            [("o0", "r0", ("bed", "bed"), (1, 1, 0), (2, 2, 1))],
            room_labels=("yard", "bedroom"),
        ))
        out = tmp_path / "out.txt"
        assert run("ingest", "--scene", scene, "--scene", bad, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"roomsense: data error: {bad}: filtering leaves rooms=bedroom; "
            "a room needs at least 2 labels to choose from"
        ]
        assert not out.exists()

    def test_ingest_that_leaves_no_room_is_data_error(self, tmp_path, capsys):
        walls = tmp_path / "walls.txt"
        walls.write_text(scene_file_text(
            [("r0", "bathroom", (0, 0, 0), (4, 4, 3))],
            [("o0", "r0", ("wall", "wall"), (1, 1, 0), (2, 2, 1))],
        ))
        out = tmp_path / "out.txt"
        assert run("ingest", "--scene", walls, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            "roomsense: data error: preprocessing leaves no room: "
            "every room is filtered out or empty"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("rooms", [[], [("r0", "bathroom", (0, 0, 0), (4, 4, 3))]],
                             ids=["header-only", "rooms-only"])
    @pytest.mark.parametrize("argv", [["cooc", "--mode", "gt"], ["cooc", "--mode", "proxy"]],
                             ids=["cooc-gt", "cooc-proxy"])
    def test_cooc_on_a_graph_without_objects_is_data_error(
        self, tmp_path, scene, capsys, argv, rooms
    ):
        bad = tmp_path / "no-objects.txt"
        bad.write_text(scene_file_text(rooms, []))
        assert _run_on_bad_graph(tmp_path, scene, capsys, argv, bad) == [
            f"roomsense: data error: --graph {bad}: the graph holds no object to count"
        ]

    def test_infer_that_selects_no_room_is_data_error(self, tmp_path, scene, capsys):
        bad = tmp_path / "no-objects.txt"
        bad.write_text(scene_file_text([("r0", "bathroom", (0, 0, 0), (4, 4, 3))], []))
        assert _run_on_bad_graph(tmp_path, scene, capsys, ["infer"], bad) == [
            f"roomsense: data error: --graph {bad}: no room holds an object to query"
        ]

    def test_torn_predictions_file_is_data_error(self, tmp_path, scene, capsys):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        preds = tmp_path / "preds.jsonl"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        run("infer", "--graph", graph, "--cooc", cooc, "--out", preds)
        text = preds.read_text()
        preds.write_text(text[:text.index("\n", text.index("\n") + 1) + 30])
        capsys.readouterr()
        assert run("eval", preds, "--out-dir", tmp_path / "reports") == 2
        assert f"data error: {preds}:3: not valid JSON" in capsys.readouterr().err

    def test_evaluation_error_names_its_input(self, tmp_path, scene, capsys):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        good = tmp_path / "good.jsonl"
        bad = tmp_path / "bad.jsonl"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        run("infer", "--graph", graph, "--cooc", cooc, "--out", good)
        bad.write_text(good.read_text().replace('"gt_label": "bathroom"', '"gt_label": "garage"'))
        capsys.readouterr()
        assert run("eval", good, bad, "--out-dir", tmp_path / "reports") == 2
        assert (f"data error: {bad}: ground-truth label 'garage' not in room space"
                in capsys.readouterr().err)

    def test_evaluation_error_leaves_the_output_directory_as_it_was(self, tmp_path, scene):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        good = tmp_path / "good.jsonl"
        bad = tmp_path / "bad.jsonl"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        run("infer", "--graph", graph, "--cooc", cooc, "--out", good)
        bad.write_text(good.read_text().replace('"gt_label": "bathroom"', '"gt_label": "garage"'))
        assert run("eval", good, bad, "--out-dir", tmp_path / "reports") == 2
        assert not (tmp_path / "reports").exists()

    def test_duplicate_condition_names_both_inputs_and_writes_nothing(
        self, tmp_path, scene, capsys
    ):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        first = tmp_path / "first.jsonl"
        again = tmp_path / "again.jsonl"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        run("infer", "--graph", graph, "--cooc", cooc, "--out", first, "--k", "3")
        run("infer", "--graph", graph, "--cooc", cooc, "--out", again, "--k", "3")
        capsys.readouterr()
        assert run("eval", first, again, "--out-dir", tmp_path / "reports") == 2
        err = capsys.readouterr().err
        assert "data error: duplicate condition ('ground_truth', " in err
        assert f"{first} and {again}" in err
        assert not (tmp_path / "reports").exists()

    def test_runs_that_differ_in_k_make_one_row_each(self, tmp_path, scene, capsys):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        k1 = tmp_path / "k1.jsonl"
        k3 = tmp_path / "k3.jsonl"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        run("infer", "--graph", graph, "--cooc", cooc, "--out", k1, "--k", "1")
        run("infer", "--graph", graph, "--cooc", cooc, "--out", k3, "--k", "3")
        assert run("eval", k1, k3, "--out-dir", tmp_path / "reports") == 0
        grid = (tmp_path / "reports" / "conditions.txt").read_text().splitlines()
        assert [row.split()[:2] for row in grid[1:3]] == [
            ["ground_truth", "k=1"], ["ground_truth", "k=3"],
        ]

    @pytest.mark.parametrize("case", ["out-is-a-directory", "cache-dir-is-a-file"])
    def test_os_error_on_a_path_is_one_line_and_exit_1(self, tmp_path, scene, capsys, case):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        capsys.readouterr()
        if case == "out-is-a-directory":
            named = tmp_path / "taken"
            named.mkdir()
            argv = ["cooc", "--graph", graph, "--out", named]
        else:
            named = tmp_path / "cache"
            named.write_text("not a directory\n")
            argv = ["infer", "--graph", graph, "--cooc", cooc,
                    "--out", tmp_path / "p.jsonl", "--cache-dir", named]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("roomsense: ")
        assert str(named) in err
        assert "Traceback" not in err

    def test_table_space_must_match_graph(self, tmp_path, scene, capsys):
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
        capsys.readouterr()
        out = tmp_path / "p.jsonl"
        assert run("infer", "--graph", lone, "--cooc", cooc, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"roomsense: data error: --cooc {cooc}: table object space 'nyuclass' "
            f"not in --graph {lone} spaces ['somethingelse']"
        ]
        assert not out.exists()

    def test_graph_label_missing_from_the_table_names_the_table(self, tmp_path, scene, capsys):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "cooc.tsv"
        run("ingest", "--scene", scene, "--out", graph)
        run("cooc", "--graph", graph, "--out", cooc)
        lines = cooc.read_text().splitlines(keepends=True)
        cooc.write_text("".join(line for line in lines if not line.startswith("toilet\t")))
        capsys.readouterr()
        out = tmp_path / "p.jsonl"
        assert run("infer", "--graph", graph, "--cooc", cooc, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"roomsense: data error: --cooc {cooc}: "
            "object label 'toilet' in room 'r-bath' missing from table"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("case", ["room-lists", "object-id"])
    def test_merge_refusal_names_the_scene_that_cannot_join(self, tmp_path, scene, capsys, case):
        other = tmp_path / "other.txt"
        room = [("b/r0", "kitchen", (0, 0, 0), (4, 4, 3))]
        if case == "room-lists":
            other.write_text(scene_file_text(
                room, [("b/o0", "b/r0", ("stove", "stove"), (1, 1, 0), (2, 2, 1))],
                room_labels=("bathroom", "kitchen"),
            ))
            message = "cannot merge graphs with different room label lists"
        else:
            other.write_text(scene_file_text(
                room, [("o-sofa", "b/r0", ("stove", "stove"), (1, 1, 0), (2, 2, 1))],
                room_labels=ROOMS_HEADER,
            ))
            message = "duplicate object id 'o-sofa' across merged graphs"
        out = tmp_path / "out.txt"
        assert run("ingest", "--scene", scene, "--scene", scene, "--scene", other,
                   "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"roomsense: data error: {scene}: duplicate room id 'r-living' across merged graphs"
        ]
        # three files: the second repeats the first's room ids, so it is named
        # even where the third holds a fault of another kind
        copy = tmp_path / "copy.txt"
        copy.write_text(scene.read_text())
        assert run("ingest", "--scene", scene, "--scene", copy, "--scene", other,
                   "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"roomsense: data error: {copy}: duplicate room id 'r-living' across merged graphs"
        ]
        assert run("ingest", "--scene", scene, "--scene", other, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"roomsense: data error: {other}: {message}"
        ]
        assert not out.exists()

    # an object that names no room in its file: ingest would drop it
    ROOMLESS = scene_file_text(
        [("r0", "bathroom", (0, 0, 0), (4, 4, 3))],
        [("o0", "r0", ("toilet", "toilet"), (1, 1, 0), (2, 2, 1)),
         ("o1", "r-gone", ("lamp", "lamp"), (1, 1, 0), (2, 2, 1))],
    )

    def test_cooc_gt_counts_no_object_that_names_no_room(self, tmp_path):
        graph = tmp_path / "roomless.txt"
        graph.write_text(self.ROOMLESS)
        out = tmp_path / "gt.tsv"
        assert run("cooc", "--graph", graph, "--out", out) == 0
        table = read_table(out)
        assert "lamp" not in table.rows
        assert table.rows["toilet"][0] == 2 / 7

    def test_label_with_no_count_at_alpha_zero_is_left_out(self, tmp_path):
        graph = tmp_path / "roomless.txt"
        graph.write_text(self.ROOMLESS)
        out = tmp_path / "gt.tsv"
        assert run("cooc", "--graph", graph, "--out", out, "--alpha", "0") == 0
        table = read_table(out)
        assert list(table.rows) == ["toilet"]
        assert table.rows["toilet"] == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_graph_with_no_object_in_a_room_names_the_graph(self, tmp_path, scene, capsys):
        bad = tmp_path / "roomless.txt"
        bad.write_text(scene_file_text(
            [("r0", "bathroom", (0, 0, 0), (4, 4, 3))],
            [("o1", "r-gone", ("lamp", "lamp"), (1, 1, 0), (2, 2, 1))],
        ))
        assert _run_on_bad_graph(tmp_path, scene, capsys, ["cooc", "--mode", "gt"], bad) == [
            f"roomsense: data error: --graph {bad}: no object sits in a room of the graph"
        ]

    def test_unreachable_backend_is_backend_failure(self, tmp_path, scene):
        graph = tmp_path / "clean.txt"
        run("ingest", "--scene", scene, "--out", graph)
        rc = run(
            "cooc", "--graph", graph, "--out", tmp_path / "cooc.tsv",
            "--mode", "proxy", "--backend", "remote",
            "--endpoint", "http://127.0.0.1:9/none", "--max-attempts", "1",
        )
        assert rc == 3


class TestRetiredFlags:
    """``--offline-bonus-file`` and ``cooc``'s ``--cooc`` spelling of
    ``--mode`` are gone; the retired flag's last default stays in the
    manifest's flags, so no manifest id moves."""

    # the command, its flags, and the ones refused; a prefix of a retired
    # flag was once its abbreviation, and no other flag starts with it
    @pytest.mark.parametrize("argv, refused", [
        (["cooc", "--cooc", "gt"], "--cooc gt"),
        (["cooc", "--offline-bonus-file", "x"], "--offline-bonus-file x"),
        (["infer", "--cooc", "t.tsv", "--offline-bonus-file", "x"], "--offline-bonus-file x"),
        (["cooc", "--cooc=proxy"], "--cooc=proxy"),
        (["cooc", "--co", "gt"], "--co gt"),
        (["cooc", "--offline-bonus-file=x"], "--offline-bonus-file=x"),
        (["infer", "--cooc", "t.tsv", "--offline", "x"], "--offline x"),
    ], ids=["cooc-cooc", "cooc-bonus-file", "infer-bonus-file", "cooc-cooc-equals",
            "cooc-cooc-prefix", "cooc-bonus-file-equals", "infer-bonus-file-prefix"])
    def test_retired_flag_is_usage_error(self, tmp_path, scene, capsys, argv, refused):
        command, *flags = argv
        out = tmp_path / "out"
        assert run(command, "--graph", scene, "--out", out, *flags) == 1
        assert f"unrecognized arguments: {refused}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["gt", "proxy"])
    def test_sidecars_keep_the_retired_flag_at_its_last_default(self, tmp_path, scene, mode):
        graph = tmp_path / "clean.txt"
        cooc = tmp_path / "t.tsv"
        preds = tmp_path / "preds.jsonl"
        run("ingest", "--scene", scene, "--out", graph)
        assert run("cooc", "--graph", graph, "--out", cooc, "--mode", mode) == 0
        assert run("infer", "--graph", graph, "--cooc", cooc, "--out", preds) == 0
        flags = [json.loads(Path(f"{out}.manifest.json").read_text())["flags"]
                 for out in (cooc, preds)]
        for flag in flags:
            assert "offline_bonus_file" in flag and flag["offline_bonus_file"] is None
        assert flags[0]["mode"] == mode and "cooc" not in flags[0]
        assert flags[1]["cooc"] == str(cooc)


class TestInterruptedEval:
    """README: a report set is complete when every file's ``manifest:`` id
    equals its sidecar's. An ``eval`` stopped at any of its renames, over the
    reports of an earlier run, must leave a set that this rule calls
    incomplete, and a rerun writes the uninterrupted bytes."""

    @staticmethod
    def complete(out_dir: Path, stems) -> bool:
        """README's completeness rule over ``eval``'s files for ``stems``."""
        owners = {f"{stem}{suffix}": f"{stem}.report.json" for stem in stems
                  for suffix in (".report.json", ".report.txt", ".breakdown.csv")}
        owners["conditions.txt"] = "conditions.txt"
        for name, owner in owners.items():
            side = out_dir / f"{owner}.manifest.json"
            if not (out_dir / name).exists() or not side.exists():
                return False
            stamped = re.search(r'manifest"?: "?([0-9a-f]{16})', (out_dir / name).read_text())
            if stamped[1] != json.loads(side.read_text())["manifest_id"]:
                return False
        return True

    @staticmethod
    def files(out_dir: Path) -> dict[str, str]:
        """Every file's text by name; a sidecar by its id, for its timestamp moves."""
        return {
            f.name: json.loads(f.read_text())["manifest_id"]
            if f.name.endswith(".manifest.json") else f.read_text()
            for f in sorted(out_dir.iterdir())
        }

    def test_a_stopped_eval_leaves_an_incomplete_set(self, tmp_path, scene, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run("ingest", "--scene", scene, "--out", "clean.txt")
        run("cooc", "--graph", "clean.txt", "--out", "cooc.tsv")

        def predict(seed):
            for stem, k in (("a", "1"), ("b", "3")):
                run("infer", "--graph", "clean.txt", "--cooc", "cooc.tsv",
                    "--out", f"{stem}.jsonl", "--k", k, "--seed", seed)

        evaluate = ("eval", "a.jsonl", "b.jsonl", "--out-dir", "r")
        out_dir = tmp_path / "r"
        predict("0")
        assert run(*evaluate) == 0
        earlier = {f.name: f.read_bytes() for f in out_dir.iterdir()}
        earlier_files = self.files(out_dir)
        assert self.complete(out_dir, "ab")

        predict("1")
        real_replace = os.replace
        renames = []

        def counting_replace(src, dst):
            renames.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        assert run(*evaluate) == 0
        assert self.complete(out_dir, "ab")
        expected = self.files(out_dir)
        # every file, sidecars too, tells the two runs apart
        assert expected.keys() == earlier_files.keys()
        assert all(expected[name] != earlier_files[name] for name in expected)

        for stop_at in range(1, len(renames) + 1):
            shutil.rmtree(out_dir)
            out_dir.mkdir()
            for name, data in earlier.items():
                (out_dir / name).write_bytes(data)
            calls = itertools.count(1)

            def failing_replace(src, dst):
                if next(calls) == stop_at:
                    raise OSError(f"stopped at rename {stop_at}")
                real_replace(src, dst)

            monkeypatch.setattr(os, "replace", failing_replace)
            assert run(*evaluate) == 1
            assert not self.complete(out_dir, "ab"), stop_at
            monkeypatch.setattr(os, "replace", real_replace)
            assert run(*evaluate) == 0
            assert self.files(out_dir) == expected, stop_at

    def test_a_one_input_eval_writes_no_conditions_table(self, tmp_path, scene, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run("ingest", "--scene", scene, "--out", "clean.txt")
        run("cooc", "--graph", "clean.txt", "--out", "cooc.tsv")
        run("infer", "--graph", "clean.txt", "--cooc", "cooc.tsv", "--out", "a.jsonl")
        assert run("eval", "a.jsonl", "--out-dir", "r") == 0
        assert sorted(self.files(tmp_path / "r")) == [
            "a.breakdown.csv", "a.report.json", "a.report.json.manifest.json", "a.report.txt",
        ]

    def test_a_one_input_eval_unpins_an_earlier_conditions_table(
        self, tmp_path, scene, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        run("ingest", "--scene", scene, "--out", "clean.txt")
        run("cooc", "--graph", "clean.txt", "--out", "cooc.tsv")
        for stem, k in (("a", "1"), ("b", "3")):
            run("infer", "--graph", "clean.txt", "--cooc", "cooc.tsv",
                "--out", f"{stem}.jsonl", "--k", k)
        out_dir = tmp_path / "r"
        assert run("eval", "a.jsonl", "b.jsonl", "--out-dir", "r") == 0
        assert self.complete(out_dir, "ab")
        earlier = (out_dir / "conditions.txt").read_text()

        run("infer", "--graph", "clean.txt", "--cooc", "cooc.tsv",
            "--out", "a.jsonl", "--k", "1", "--seed", "5")
        assert run("eval", "a.jsonl", "--out-dir", "r") == 0
        # the table still reads the first a.jsonl, and nothing vouches for it
        assert (out_dir / "conditions.txt").read_text() == earlier
        assert not (out_dir / "conditions.txt.manifest.json").exists()
        assert not self.complete(out_dir, "ab")


class TestGraphReleasedBeforeScoring:
    """``cooc --mode proxy`` and ``infer`` drop the parsed graph before they
    score, so a stage holds the graph or its sentences, not both."""

    @pytest.mark.parametrize("argv", [
        ["cooc", "--mode", "proxy"],
        ["infer", "--cooc", "cooc.tsv"],
    ], ids=["cooc-proxy", "infer"])
    def test_no_graph_is_alive_while_scoring(self, tmp_path, scene, monkeypatch, argv):
        clean = tmp_path / "clean.txt"
        run("ingest", "--scene", scene, "--out", clean)
        run("cooc", "--graph", clean, "--out", tmp_path / "cooc.tsv")
        monkeypatch.chdir(tmp_path)
        parsed, freed = [], []

        class WatchedGraph(SceneGraph):
            # a named tuple takes no weak reference, so the graph says when it goes
            __slots__ = ()

            def __del__(self):
                freed.append(True)

        parse = ingest.parse_scene_file

        def parse_and_watch(path):
            parsed.append(True)
            return WatchedGraph(*parse(path))

        alive_while_scoring = []
        score = OfflineScorer.score

        def watched_score(self, sentence):
            alive_while_scoring.append(len(freed) < len(parsed))
            return score(self, sentence)

        monkeypatch.setattr(ingest, "parse_scene_file", parse_and_watch)
        monkeypatch.setattr(OfflineScorer, "score", watched_score)
        command, *flags = argv
        assert run(command, "--graph", clean, "--out", tmp_path / "out", *flags) == 0
        assert len(parsed) == 1
        assert alive_while_scoring and not any(alive_while_scoring)


class TestFailingEndpointCost:
    """What an endpoint that answers every POST with 503 costs a stage today:
    each distinct sentence is sent ``--max-attempts`` times before the stage
    exits 3."""

    REMOTE = ("--backend", "remote", "--max-attempts", "2")

    @pytest.fixture
    def graph(self, tmp_path, scene, clock, mock_endpoint):
        mock_endpoint.behaviors = [lambda payload: (503, {"error": "unavailable"})]
        graph = tmp_path / "clean.txt"
        run("ingest", "--scene", scene, "--out", graph)
        return graph

    def test_proxy_cooc(self, tmp_path, graph, mock_endpoint):
        scene_graph = parse_scene_file(graph)
        space = scene_graph.object_space(scene_graph.object_space_names[-1])
        sentences = {
            render_proxy_query(obj, room)
            for obj in space.labels
            for room in scene_graph.room_space.labels
        }
        assert run("cooc", "--graph", graph, "--out", tmp_path / "proxy.tsv", "--mode", "proxy",
                   *self.REMOTE, "--endpoint", mock_endpoint.url) == 3
        assert mock_endpoint.posts == len(sentences) * 2

    def test_infer(self, tmp_path, graph, mock_endpoint):
        cooc = tmp_path / "cooc.tsv"
        offline = tmp_path / "offline.jsonl"
        run("cooc", "--graph", graph, "--out", cooc)
        run("infer", "--graph", graph, "--cooc", cooc, "--out", offline)
        sentences = {
            c.sentence for p in read_predictions(offline).predictions for c in p.candidates
        }
        assert run("infer", "--graph", graph, "--cooc", cooc, "--out", tmp_path / "p.jsonl",
                   *self.REMOTE, "--endpoint", mock_endpoint.url) == 3
        assert mock_endpoint.posts == len(sentences) * 2


def _table_lines(path) -> list[str]:
    """A table's lines but for the two that name its scorer and manifest."""
    return [line for line in Path(path).read_text().splitlines()
            if not line.startswith(("# scorer:", "# manifest:"))]


class TestRemoteMatchesOffline:
    """Against an endpoint that answers with the offline scorer's logprobs, a
    remote ``cooc --mode proxy`` and ``infer`` write the offline run's lines:
    only the lines that name the scorer or the manifest differ."""

    @pytest.mark.parametrize("flags", [
        pytest.param(["--model", "m", "--cache-dir", "cache"], id="model-cached"),
        pytest.param([], id="no-model-uncached"),
    ])
    def test_remote_writes_the_offline_lines(
        self, tmp_path, scene, mock_endpoint, monkeypatch, flags
    ):
        monkeypatch.delenv(lm_scoring.MODEL_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        mock_endpoint.behaviors = [offline_oracle]
        run("ingest", "--scene", scene, "--out", "clean.txt")
        run("cooc", "--graph", "clean.txt", "--out", "gt.tsv")
        remote = ["--backend", "remote", "--endpoint", mock_endpoint.url, *flags]
        for name, backend in (("offline", []), ("remote", remote)):
            assert run("cooc", "--graph", "clean.txt", "--out", f"{name}.tsv",
                       "--mode", "proxy", *backend) == 0
            assert run("infer", "--graph", "clean.txt", "--cooc", "gt.tsv",
                       "--out", f"{name}.jsonl", *backend) == 0
        assert mock_endpoint.posts > 0
        assert _table_lines("remote.tsv") == _table_lines("offline.tsv")
        remote_lines = Path("remote.jsonl").read_text().splitlines()
        offline_lines = Path("offline.jsonl").read_text().splitlines()
        assert len(remote_lines) > 1 and remote_lines[1:] == offline_lines[1:]


class TestApiKey:
    """``ROOMSENSE_LM_API_KEY`` reaches the endpoint as a bearer token on every
    POST, and no file or message of the run holds it."""

    KEY = "sk-test-0123456789abcdef"

    def _proxy_cooc(self, tmp_path, scene, endpoint) -> int:
        run("ingest", "--scene", scene, "--out", tmp_path / "clean.txt")
        return run("cooc", "--graph", tmp_path / "clean.txt", "--out", tmp_path / "proxy.tsv",
                   "--mode", "proxy", "--backend", "remote", "--endpoint", endpoint,
                   "--cache-dir", tmp_path / "cache", "--max-attempts", "1")

    @pytest.mark.parametrize("status", [200, 401])
    def test_key_is_sent_on_every_post_and_written_nowhere(
        self, tmp_path, scene, mock_endpoint, monkeypatch, capsys, caplog, status
    ):
        monkeypatch.setenv(lm_scoring.API_KEY_ENV, self.KEY)
        mock_endpoint.behaviors = [
            offline_oracle if status == 200 else lambda p: (401, {"error": "unauthorised"})
        ]
        assert self._proxy_cooc(tmp_path, scene, mock_endpoint.url) == (0 if status == 200 else 3)
        assert mock_endpoint.posts > 0
        assert mock_endpoint.authorizations == [f"Bearer {self.KEY}"] * mock_endpoint.posts
        written = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert (tmp_path / "proxy.tsv.manifest.json" in written) == (status == 200)
        assert not any(self.KEY in path.read_text() for path in written)
        out, err = capsys.readouterr()
        assert self.KEY not in out + err + caplog.text

    def test_no_key_sends_no_authorization_header(
        self, tmp_path, scene, mock_endpoint, monkeypatch
    ):
        monkeypatch.delenv(lm_scoring.API_KEY_ENV, raising=False)
        mock_endpoint.behaviors = [offline_oracle]
        assert self._proxy_cooc(tmp_path, scene, mock_endpoint.url) == 0
        assert mock_endpoint.posts > 0
        assert mock_endpoint.authorizations == [None] * mock_endpoint.posts


# One endpoint answer per outcome of a POST, and the text that a failure
# record gives for it.
_OUTCOMES = {
    "ok": (offline_oracle, None),
    "429": (lambda p: (429, {"error": "slow down"}), "HTTP 429"),
    "429 Retry-After": (lambda p: (429, {"error": "slow down"}, {"Retry-After": "7"}),
                        "HTTP 429"),
    "503": (lambda p: (503, {"error": "unavailable"}), "HTTP 503"),
    "408": (lambda p: (408, {"error": "request timeout"}), "HTTP 408"),
    "hang up": (lambda p: (None, None), "RemoteDisconnected"),
    # declares more bytes than it sends, then closes the connection
    "cut short": (lambda p: (200, {}, {"Content-Length": "1000000"}), "IncompleteRead"),
    "text logprob": (lambda p: (200, {"tokens": ["a"], "token_logprobs": ["-1.5"]}),
                     "malformed response"),
    "401": (lambda p: (401, {"error": "unauthorised"}), "HTTP 401"),
}


class TestFaultSchedules:
    """Whatever each POST meets, remote ``cooc --mode proxy`` and ``infer``
    end in a defined outcome, and a rerun on a healthy endpoint completes
    the offline run's lines from the cache, posting only what it lacks.

    Hypothesis draws one outcome per POST index of each stage. Past the
    drawn ones the endpoint either recovers or keeps giving the last drawn
    outcome."""

    @pytest.mark.parametrize("model_flags", [
        pytest.param(["--model", "m"], id="model"),
        pytest.param([], id="no-model",
                     marks=pytest.mark.xfail(strict=True, reason="ROADMAP bug (a)")),
    ])
    def test_every_schedule_ends_in_a_defined_outcome(
        self, tmp_path, scene, mock_endpoint, clock, monkeypatch, model_flags
    ):
        monkeypatch.delenv(lm_scoring.MODEL_ENV, raising=False)
        clean, gt = tmp_path / "clean.txt", tmp_path / "gt.tsv"
        run("ingest", "--scene", scene, "--out", clean)
        run("cooc", "--graph", clean, "--out", gt)
        run("cooc", "--graph", clean, "--out", tmp_path / "offline.tsv", "--mode", "proxy")
        run("infer", "--graph", clean, "--cooc", gt, "--out", tmp_path / "offline.jsonl")
        offline_table = _table_lines(tmp_path / "offline.tsv")
        offline_rooms = {
            json.loads(line)["room_id"]: line
            for line in (tmp_path / "offline.jsonl").read_text().splitlines()[1:]
        }
        remote = ["--backend", "remote", "--endpoint", mock_endpoint.url, "--max-inflight", "1",
                  *model_flags, "--cache-dir", "cache"]
        runs = itertools.count()

        def stages():
            """Remote ``cooc --mode proxy`` and ``infer`` in a fresh directory,
            each from the first POST of the schedule; their exit codes."""
            work = tmp_path / f"run-{next(runs)}"
            work.mkdir()
            monkeypatch.chdir(work)
            mock_endpoint.posts = 0
            cooc_rc = run("cooc", "--graph", clean, "--out", "proxy.tsv", "--mode", "proxy",
                          *remote)
            mock_endpoint.posts = 0
            return cooc_rc, run("infer", "--graph", clean, "--cooc", gt, "--out", "p.jsonl",
                                *remote)

        # the sentences the two stages need
        mock_endpoint.behaviors = [offline_oracle]
        assert stages() == (0, 0)
        needed = set(mock_endpoint.prompts)

        @settings(max_examples=19, deadline=None, derandomize=True)
        @example(["ok"], True)
        @given(st.lists(st.sampled_from(list(_OUTCOMES)), min_size=1, max_size=60),
               st.booleans())
        def schedule(outcomes, recovers):
            mock_endpoint.behaviors = [_OUTCOMES[name][0] for name in outcomes]
            if recovers:
                mock_endpoint.behaviors.append(offline_oracle)
            faults = {_OUTCOMES[name][1] for name in outcomes} - {None}
            cooc_rc, infer_rc = stages()

            assert cooc_rc in (0, 3)
            if cooc_rc == 0:
                assert _table_lines("proxy.tsv") == offline_table
            else:
                assert not Path("proxy.tsv").exists()

            # one line per room: the offline one, or a failure naming a fault
            lines = Path("p.jsonl").read_text().splitlines()[1:]
            records = [json.loads(line) for line in lines]
            assert sorted(r["room_id"] for r in records) == sorted(offline_rooms)
            predicted = 0
            for line, record in zip(lines, records):
                if record["kind"] == "prediction":
                    assert line == offline_rooms[record["room_id"]]
                    predicted += 1
                else:
                    assert any(fault in record["reason"] for fault in faults), record
            assert infer_rc == (0 if predicted else 3)

            cache = Path("cache", "scores.jsonl")
            cached = {
                json.loads(line)["sentence"]
                for line in (cache.read_text().splitlines() if cache.exists() else ())
            }
            mock_endpoint.behaviors = [offline_oracle]
            mock_endpoint.prompts.clear()
            assert run("cooc", "--graph", clean, "--out", "proxy.tsv", "--mode", "proxy",
                       *remote) == 0
            assert run("infer", "--graph", clean, "--cooc", gt, "--out", "p.jsonl",
                       *remote) == 0
            assert _table_lines("proxy.tsv") == offline_table
            assert Path("p.jsonl").read_text().splitlines()[1:] == list(offline_rooms.values())
            assert sorted(mock_endpoint.prompts) == sorted(needed - cached)

        schedule()


# Runs one CLI command in a fresh interpreter that SIGKILLs itself on its
# N-th call of os.replace (N = argv[1], 0 for never): inside atomic_write,
# once the new file is written and forced to disk but before it is renamed.
# The last line it prints is how many calls it made.
_KILLED_AT_REPLACE = """
import os
import signal
import sys

from roomsense.cli import main

calls = 0
replace = os.replace


def killing_replace(src, dst):
    global calls
    calls += 1
    if calls == int(sys.argv[1]):
        os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)


os.replace = killing_replace
status = main(sys.argv[2:])
print(calls)
sys.exit(status)
"""


class TestKillAnywhereResume:
    """A chain whose stage is killed with SIGKILL resumes on a rerun: the
    outputs are an uninterrupted run's bytes, and no file is left behind.

    In the remote chain, ``cooc --mode proxy`` then ``infer``, the endpoint
    kills the stage once it has answered the chain's N-th POST, wherever the
    child is then: waiting on a POST, in a cache append or in a file write.
    Only what the killed run did not cache is sent again. In the local
    chain, ``convert`` to ``eval``, the stage kills itself at the chain's
    N-th file rename, so each kill lands inside ``atomic_write``."""

    MAX_INFLIGHT = 2
    OUTS = ("proxy.tsv", "p.jsonl")

    @pytest.mark.parametrize("model_flags", [
        pytest.param(["--model", "m"], id="model"),
        pytest.param([], id="no-model",
                     marks=pytest.mark.xfail(strict=True, reason="ROADMAP bug (a)")),
    ])
    def test_a_killed_chain_resumes_to_the_same_bytes(
        self, tmp_path, scene, monkeypatch, caplog, model_flags
    ):
        monkeypatch.delenv(lm_scoring.MODEL_ENV, raising=False)
        run("ingest", "--scene", scene, "--out", tmp_path / "clean.txt")
        env = _child_env()
        runs = itertools.count()
        with Endpoint(offline_oracle).serving() as endpoint:
            remote = ["--backend", "remote", "--endpoint", endpoint.url, *model_flags,
                      "--max-inflight", str(self.MAX_INFLIGHT), "--cache-dir", "cache"]
            # relative paths, so every run's manifest ids are the same
            stages = [
                ["cooc", "--graph", "../clean.txt", "--out", "proxy.tsv", "--mode", "proxy",
                 *remote],
                ["infer", "--graph", "../clean.txt", "--cooc", "proxy.tsv", "--out", "p.jsonl",
                 *remote],
            ]

            def chain(work, kill_after=None) -> None:
                """Run the stages in ``work``; a stage that is killed ends the chain."""
                with endpoint.lock:
                    endpoint.kill_after = kill_after and endpoint.posts + kill_after
                for argv in stages:
                    child = subprocess.Popen(
                        [sys.executable, "-m", "roomsense", *argv], cwd=work, env=env,
                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                    )
                    endpoint.victim = child
                    _, err = child.communicate(timeout=120)
                    if child.returncode == -signal.SIGKILL:
                        return
                    assert child.returncode == 0, err

            def fresh() -> Path:
                work = tmp_path / f"run-{next(runs)}"
                work.mkdir()
                return work

            uninterrupted = fresh()
            chain(uninterrupted)
            # a chain from an empty cache sends each distinct sentence once
            distinct = endpoint.posts
            expected = {name: (uninterrupted / name).read_bytes() for name in self.OUTS}

            def killed_after(n):
                first = endpoint.posts
                work = fresh()
                chain(work, kill_after=n)
                for name in self.OUTS:
                    out = work / name
                    assert not out.exists() or out.read_bytes() == expected[name], name
                # the killed run's cache loads, skipping at most a torn last record
                caplog.clear()
                make_scorer("remote", cache_path=work / "cache" / "scores.jsonl",
                            endpoint=endpoint.url, model=model_flags[-1] if model_flags else None)
                assert len([r for r in caplog.records if "malformed" in r.getMessage()]) <= 1
                chain(work)
                for name in self.OUTS:
                    assert (work / name).read_bytes() == expected[name], name
                assert not list(work.glob(".*.tmp"))  # nor what a killed write left
                assert endpoint.posts - first <= distinct + self.MAX_INFLIGHT

            if not model_flags:
                killed_after(distinct // 2)
                return

            @settings(max_examples=4, deadline=None, derandomize=True)
            @example(distinct)  # after the last answer: an append or a file write
            @given(st.integers(1, distinct))
            def any_kill(n):
                killed_after(n)

            any_kill()

    LOCAL_STAGES = [
        ["convert", "--house", "../h0.house", "--out", "h0.scene.txt"],
        ["ingest", "--scene", "h0.scene.txt", "--out", "clean.txt"],
        ["cooc", "--graph", "clean.txt", "--out", "gt.tsv", "--mode", "gt"],
        ["infer", "--graph", "clean.txt", "--cooc", "gt.tsv", "--out", "p.jsonl"],
        ["eval", "p.jsonl", "--out-dir", "reports"],
    ]

    def test_a_stage_killed_inside_a_file_write_resumes_to_the_same_bytes(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "h0.house").write_text(H0_HOUSE)
        env = _child_env()
        runs = itertools.count()

        def chain(kill_at=0) -> tuple[Path, list[int]]:
            """Run the stages in a fresh directory, killing the one that makes
            the chain's ``kill_at``-th rename; a killed stage ends the chain.
            Returns the directory and each finished stage's rename count."""
            work = tmp_path / f"run-{next(runs)}"
            work.mkdir()
            counts = []
            for argv in self.LOCAL_STAGES:
                child = subprocess.run(
                    [sys.executable, "-c", _KILLED_AT_REPLACE,
                     str(max(kill_at - sum(counts), 0)), *argv],
                    cwd=work, env=env, capture_output=True, text=True, timeout=120,
                )
                if child.returncode == -signal.SIGKILL:
                    break
                assert child.returncode == 0, child.stderr
                counts.append(int(child.stdout.splitlines()[-1]))
            return work, counts

        def files(work: Path) -> dict[str, bytes | None]:
            """Every file's bytes, by name; a sidecar's bytes hold a timestamp."""
            return {
                str(f.relative_to(work)): None if f.name.endswith(".manifest.json")
                else f.read_bytes()
                for f in sorted(work.rglob("*")) if f.is_file()
            }

        uninterrupted, counts = chain()
        expected = files(uninterrupted)
        assert not [name for name in expected if name.endswith(".tmp")]

        @settings(max_examples=3, deadline=None, derandomize=True)
        @example(1)  # convert's scene file
        @example(sum(counts))  # eval's last sidecar
        @given(st.integers(1, sum(counts)))
        def killed_at(n):
            work, _ = chain(kill_at=n)
            left = files(work)
            # the killed write's new file is there, complete but not renamed
            tmps = [name for name in left if name.endswith(".tmp")]
            assert len(tmps) == 1, tmps
            assert {k: v for k, v in left.items() if k not in tmps}.items() <= expected.items()
            # the rerun runs in this process, which is alive, unlike the killed one
            monkeypatch.chdir(work)
            for argv in self.LOCAL_STAGES:
                assert run(*argv) == 0
            assert files(work) == expected

        killed_at()


# Runs in a fresh interpreter, because pytest has already imported http.client
# and every roomsense module.
_IMPORT_BOUNDARY = """
import sys
from pathlib import Path

import roomsense

assert not [m for m in sys.modules if m.startswith("roomsense.")], "import roomsense"

from roomsense.cli import main
from roomsense.lm_scoring import RemoteScorer

d = Path(sys.argv[1])
commands = [
    ["convert", "--house", d / "one.house", "--out", d / "scene.txt"],
    ["ingest", "--scene", d / "scene.txt", "--out", d / "clean.txt"],
    ["cooc", "--graph", d / "clean.txt", "--out", d / "gt.tsv", "--mode", "gt"],
    ["cooc", "--graph", d / "clean.txt", "--out", d / "proxy.tsv", "--mode", "proxy"],
    ["infer", "--graph", d / "clean.txt", "--cooc", d / "gt.tsv", "--out", d / "p.jsonl"],
    ["eval", d / "p.jsonl", "--out-dir", d / "reports"],
]
http_clients = {"requests", "http.client"}
assert not http_clients & set(sys.modules), "import roomsense"
for argv in commands:
    assert main([str(a) for a in argv]) == 0, argv[0]
    assert not http_clients & set(sys.modules), argv[0]
RemoteScorer(endpoint="http://127.0.0.1:9/")
assert "http.client" in sys.modules, "RemoteScorer"
assert "requests" not in sys.modules, "RemoteScorer"
"""


_LOADED = "import sys; print(*sys.modules)"


class TestImportBoundary:
    def test_the_cli_loads_no_dataclasses_or_inspect(self):
        def loaded(*imports) -> set[str]:
            done = subprocess.run(
                [sys.executable, "-c", "; ".join([*imports, _LOADED])],
                capture_output=True, text=True, env=_child_env(), timeout=120, check=True,
            )
            return set(done.stdout.split())

        added = loaded("import roomsense.cli") - loaded()
        assert "roomsense.scene_model" in added
        assert not {"dataclasses", "inspect"} & added

    def test_only_a_remote_scorer_loads_the_http_client(self, tmp_path):
        (tmp_path / "one.house").write_text(HOUSE_TEXT)
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_BOUNDARY, str(tmp_path)],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "reports" / "p.report.json").exists()


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
