"""The benchmark's workloads: untimed preparation, set-up and timed passes.

A workload prepares its inputs once per run (untimed), then repeats
``setup`` and ``run_pass``. Each pass starts from the same files in the
same directory, so data files embed the same manifest ids and every pass
writes byte-identical outputs. A pass returns what it measured, the
digests of its data files and the results of its output checks.
Times are taken with a :class:`hostspeed.Clock` and corrected to the
reference host stage by stage.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import fake_endpoint
import fixture
from hostspeed import Clock, Interval

OFFLINE_BUILDINGS = 20
REMOTE_BUILDINGS = 10
LATENCY_S = 0.010
MAX_INFLIGHT = 8
K = 3
SETUP_REPEATS = 5
STAGES = ("convert", "ingest", "cooc_gt", "cooc_proxy", "infer", "eval")
SCORING_STAGES = ("cooc_proxy", "infer")


@dataclass
class Pass:
    total: Interval = Interval()
    stages: dict[str, Interval] = field(default_factory=dict)
    rooms: int = 0
    failed_rooms: int = 0
    sentences: int = 0
    backend_calls: int = 0
    cache_bytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    session: object = None

    @property
    def speed(self) -> float:
        """Host speed factor over the pass."""
        return self.total.factor()

    @property
    def wall_s(self) -> float:
        """Time from the first stage to the last, at the reference host:
        the sum of the stages, each corrected with its own speed factor."""
        return sum(self.stage_s(name) for name in self.stages)

    @property
    def cpu_s(self) -> float:
        """CPU seconds of the stages at the reference speed."""
        return sum(i.reference_cpu(self.speed) for i in self.stages.values())

    def stage_s(self, name: str) -> float:
        return self.stages.get(name, Interval()).reference(self.speed)

    @property
    def scoring_s(self) -> float:
        return sum(self.stage_s(s) for s in SCORING_STAGES)

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


@contextlib.contextmanager
def _chdir(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


@contextlib.contextmanager
def _stage(clock: Clock, result: Pass, name: str, tracer):
    span = tracer.span(f"stage.{name}") if tracer else contextlib.nullcontext()
    start = clock.now()
    with span:
        yield
    measured = clock.since(start, clock.now())
    result.stages[name] = result.stages.get(name, Interval()) + measured


def _traced(tracer):
    return tracer.installed() if tracer else contextlib.nullcontext()


@contextlib.contextmanager
def _count_calls(cls, attr: str, counter: list[int]):
    """Count calls of ``cls.attr`` for the duration of the block."""
    original = cls.__dict__[attr]

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    setattr(cls, attr, counted)
    try:
        yield
    finally:
        setattr(cls, attr, original)


def _digests(root: Path) -> dict[str, str]:
    """sha256 of every data file under ``root`` (manifest sidecars carry a
    timestamp and are not data files)."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and not path.name.endswith(".manifest.json")
    }


def _clear(directory: Path, keep=()) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for child in directory.iterdir():
        if child.name in keep:
            continue
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()


def _quiet_cli(rs, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return rs.cli.main(argv)


def _check_predictions(result: Pass, rs, path: Path, graph_rooms: int, label: str,
                       expected_total=None) -> int:
    """Checks on a predictions file; returns the number of sentences scored."""
    run = rs.inference.read_predictions(path)
    result.check(f"{label}: every room predicted or failed",
                 len(run.predictions) + len(run.failures) == graph_rooms)
    argmax_ok = all(
        p.predicted_label == rs.inference.argmax_label(p.candidates) for p in run.predictions
    )
    result.check(f"{label}: predicted label is the best candidate", argmax_ok)
    sentences = sum(len(p.candidates) for p in run.predictions)
    if expected_total is not None:
        totals_ok = all(
            c.total_logprob == expected_total(c.sentence)
            for p in run.predictions
            for c in p.candidates
        )
        result.check(f"{label}: candidate totals match the endpoint", totals_ok)
    result.rooms += len(run.predictions)
    result.failed_rooms += len(run.failures)
    return sentences


def _check_table(result: Pass, rs, path: Path, label: str, expected_total=None) -> int:
    """Row checks on a table file; returns the number of cells (sentences
    a proxy build scores)."""
    table = rs.cooccurrence.read_table(path)
    sums_ok = all(abs(math.fsum(row) - 1.0) <= 1e-9 for row in table.rows.values())
    result.check(f"{label}: rows are probability vectors", sums_ok)
    if expected_total is not None:
        template = rs.querygen.QueryTemplate()
        worst = 0.0
        for obj, row in table.rows.items():
            logs = [
                expected_total(rs.querygen.render_proxy_query(obj, room, template))
                for room in table.room_labels
            ]
            peak = max(logs)
            exps = [math.exp(x - peak) for x in logs]
            norm = math.fsum(exps)
            worst = max(worst, max(abs(a - e / norm) for a, e in zip(row, exps)))
        result.check(f"{label}: rows are the softmax of endpoint totals", worst <= 1e-12)
    return len(table.rows) * len(table.room_labels)


class OfflinePipeline:
    """The full CLI chain in-process with the offline scorer and no cache."""

    session = None

    def __init__(self, rs, work: Path, seed: int, clock: Clock):
        self.rs = rs
        self.dir = work / "pass"
        self.seed = seed
        self.clock = clock

    def prepare(self) -> None:
        _clear(self.dir)
        self.houses = fixture.write_buildings(self.seed, self.dir / "houses", OFFLINE_BUILDINGS)

    def setup(self, repeats: int, tracer=None) -> list[Interval]:
        times = []
        with _traced(tracer):
            for _ in range(repeats):
                start = self.clock.now()
                self.rs.lm_scoring.make_scorer(backend="offline")
                times.append(self.clock.since(start, self.clock.now()))
        return times

    def run_pass(self, tracer=None) -> Pass:
        rs = self.rs
        result = Pass()
        _clear(self.dir, keep=("houses",))
        (self.dir / "scenes").mkdir()
        stems = [p.stem for p in self.houses]
        calls = [0]
        codes = {}
        with _chdir(self.dir), _traced(tracer), \
                _count_calls(rs.lm_scoring.OfflineScorer, "score", calls):
            start = self.clock.now()
            with _stage(self.clock, result, "convert", tracer):
                codes["convert"] = max(
                    _quiet_cli(rs, ["convert", "--house", f"houses/{s}.house",
                                    "--out", f"scenes/{s}.scene.txt"])
                    for s in stems
                )
            with _stage(self.clock, result, "ingest", tracer):
                scenes = [a for s in stems for a in ("--scene", f"scenes/{s}.scene.txt")]
                codes["ingest"] = _quiet_cli(rs, ["ingest", *scenes, "--out", "clean.txt"])
            with _stage(self.clock, result, "cooc_gt", tracer):
                codes["cooc_gt"] = _quiet_cli(
                    rs, ["cooc", "--graph", "clean.txt", "--out", "gt.tsv", "--mode", "gt"])
            with _stage(self.clock, result, "cooc_proxy", tracer):
                codes["cooc_proxy"] = _quiet_cli(
                    rs, ["cooc", "--graph", "clean.txt", "--out", "proxy.tsv", "--mode", "proxy"])
            with _stage(self.clock, result, "infer", tracer):
                codes["infer"] = max(
                    _quiet_cli(rs, ["infer", "--graph", "clean.txt", "--cooc", f"{t}.tsv",
                                    "--out", f"{t}.jsonl"])
                    for t in ("gt", "proxy")
                )
            with _stage(self.clock, result, "eval", tracer):
                codes["eval"] = _quiet_cli(
                    rs, ["eval", "gt.jsonl", "proxy.jsonl", "--out-dir", "reports"])
            result.total = self.clock.since(start, self.clock.now())
        result.backend_calls = calls[0]

        for stage, code in codes.items():
            result.check(f"{stage}: exit code 0", code == 0)
        graph = rs.ingest.parse_scene_file(self.dir / "clean.txt")
        result.sentences = _check_table(result, rs, self.dir / "proxy.tsv", "proxy table")
        _check_table(result, rs, self.dir / "gt.tsv", "gt table")
        for t in ("gt", "proxy"):
            result.sentences += _check_predictions(
                result, rs, self.dir / f"{t}.jsonl", len(graph.rooms), f"{t} predictions")
        result.check("conditions.txt written", (self.dir / "reports" / "conditions.txt").exists())
        result.digests = {
            k: v for k, v in _digests(self.dir).items() if not k.startswith("houses/")
        }
        return result


class RemoteScoring:
    """Proxy table and room classification through a caching remote scorer
    on the fake endpoint; ``warm`` starts each pass from a filled cache."""

    def __init__(self, rs, work: Path, seed: int, clock: Clock, warm: bool):
        self.rs = rs
        self.work = work
        self.seed = seed
        self.clock = clock
        self.warm = warm
        self.dir = work / "pass"
        self.cache = self.dir / "cache" / "scores.jsonl"

    def prepare(self) -> None:
        rs = self.rs
        prep = self.work / "prep"
        _clear(prep)
        houses = fixture.write_buildings(self.seed, prep / "houses", REMOTE_BUILDINGS)
        (prep / "scenes").mkdir()
        with _chdir(prep):
            for h in houses:
                _quiet_cli(rs, ["convert", "--house", f"houses/{h.name}",
                                "--out", f"scenes/{h.stem}.scene.txt"])
            scenes = [a for h in houses for a in ("--scene", f"scenes/{h.stem}.scene.txt")]
            if _quiet_cli(rs, ["ingest", *scenes, "--out", "clean.txt"]) != 0:
                raise RuntimeError("ingest failed while preparing the remote workload")
            if _quiet_cli(rs, ["cooc", "--graph", "clean.txt", "--out", "gt.tsv"]) != 0:
                raise RuntimeError("cooc failed while preparing the remote workload")
        self.graph = rs.ingest.parse_scene_file(prep / "clean.txt")
        self.gt_table = rs.cooccurrence.read_table(prep / "gt.tsv")
        self.coarse = self.graph.object_spaces[0]
        if self.warm:
            # an untimed cold pass without latency leaves the cache behind
            self.reference = prep / "cold"
            _clear(self.reference)
            scorer = self._scorer(0.0, self.reference / "cache" / "scores.jsonl")
            self._chain(scorer, self.reference, Pass(), None)

    def _scorer(self, latency_s: float, cache_path: Path):
        lm = self.rs.lm_scoring
        session = fake_endpoint.FakeSession(latency_s)
        remote = lm.RemoteScorer(
            endpoint=fake_endpoint.ENDPOINT, api_key="", model="",
            max_inflight=MAX_INFLIGHT, session=session,
        )
        return lm.CachingScorer(remote, cache_path)

    def setup(self, repeats: int, tracer=None) -> list[Interval]:
        _clear(self.dir)
        if self.warm:
            self.cache.parent.mkdir(parents=True)
            shutil.copyfile(self.reference / "cache" / "scores.jsonl", self.cache)
        times = []
        with _traced(tracer):
            for _ in range(repeats):
                start = self.clock.now()
                self.scorer = self._scorer(LATENCY_S, self.cache)
                times.append(self.clock.since(start, self.clock.now()))
        self.session = self.scorer.inner._session
        return times

    def _chain(self, scorer, out: Path, result: Pass, tracer) -> None:
        rs = self.rs
        template = rs.querygen.QueryTemplate()
        with _stage(self.clock, result, "cooc_proxy", tracer):
            table = rs.cooccurrence.build_proxy_table(
                scorer, self.coarse, self.graph.room_space,
                template=template, max_workers=MAX_INFLIGHT,
            )
            rs.cooccurrence.write_table(table, out / "proxy.tsv")
        with _stage(self.clock, result, "infer", tracer):
            classified = rs.inference.classify_graph(
                self.graph, self.gt_table, scorer, k=K, template=template)
            rs.inference.write_predictions(classified, out / "preds.jsonl")

    def run_pass(self, tracer=None) -> Pass:
        rs = self.rs
        result = Pass()
        scorer = self.scorer
        size0 = self.cache.stat().st_size if self.cache.exists() else 0
        with _traced(tracer):
            start = self.clock.now()
            self._chain(scorer, self.dir, result, tracer)
            result.total = self.clock.since(start, self.clock.now())
        result.session = self.session
        result.backend_calls = result.session.posts
        result.cache_bytes = self.cache.stat().st_size - size0 if self.cache.exists() else 0

        total = fake_endpoint.expected_total
        result.sentences = _check_table(
            result, rs, self.dir / "proxy.tsv", "proxy table", expected_total=total)
        result.sentences += _check_predictions(
            result, rs, self.dir / "preds.jsonl", len(self.graph.rooms), "predictions",
            expected_total=total)
        if self.warm:
            for name in ("proxy.tsv", "preds.jsonl"):
                same = (self.dir / name).read_bytes() == (self.reference / name).read_bytes()
                result.check(f"warm {name} equals the cold pass", same)
        result.digests = {
            k: v for k, v in _digests(self.dir).items() if not k.startswith("cache/")
        }
        return result


def make(name: str, rs, work: Path, seed: int, clock: Clock):
    if name == "offline-pipeline":
        return OfflinePipeline(rs, work, seed, clock)
    if name in ("remote-cold", "remote-warm"):
        return RemoteScoring(rs, work, seed, clock, warm=name == "remote-warm")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("offline-pipeline", "remote-cold", "remote-warm")


def load_digests(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
