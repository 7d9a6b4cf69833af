"""The traced run and the per-layer metrics computed from its spans.

A traced run makes one untraced pass and then one traced pass on the same
inputs. The untraced pass gives the reference for the data files and the
wall time from which tracing overhead is taken; the traced pass gives the
spans. A layer's busy time is the length of the union of its spans'
intervals, so nested calls count once and calls running in parallel
threads count as the wall time they cover.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import tracing
import workloads

SCORER_ENTRIES = frozenset(
    f"lm_scoring.{cls}.{meth}"
    for cls in ("SentenceScorer", "OfflineScorer", "RemoteScorer", "CachingScorer")
    for meth in ("score", "score_batch")
)
RENDERS = frozenset({"querygen.render_room_query", "querygen.render_proxy_query"})

# per-layer time metric -> the spans whose union is its busy time
BUSY = {
    "cli.manifest_s": ("cli.build_manifest",),
    "convert.parse_s": ("house_convert.parse_house_file",),
    "ingest.parse_s": ("ingest.parse_scene_file",),
    "ingest.rules_s": (
        "ingest.run_pipeline", "ingest.reassign_objects_by_bbox",
        "ingest.apply_spelling_fixes", "ingest.resolve_label_space_conflicts",
        "ingest.filter_graph",
    ),
    "ingest.merge_s": ("ingest.merge_graphs",),
    "ingest.write_s": ("ingest.write_scene_file",),
    "validate.s": ("scene_model.validate", "scene_model.LabelSpace.__contains__"),
    "cooc.select_s": ("cooccurrence.select_informative",),
    "cooc.count_s": ("cooccurrence.count_ground_truth",),
    "cooc.proxy_s": ("cooccurrence.build_proxy_table", "cooccurrence.proxy_conditional"),
    "cooc.table_io_s": ("cooccurrence.read_table", "cooccurrence.write_table"),
    "querygen.render_s": tuple(sorted(RENDERS)),
    "scoring.s": tuple(sorted(SCORER_ENTRIES)),
    "offline.score_s": ("lm_scoring.OfflineScorer.score",),
    "cache.load_s": ("lm_scoring.CachingScorer._load",),
    "cache.append_s": ("lm_scoring.CachingScorer._append",),
    "infer.classify_s": ("inference.classify_graph", "inference.classify_room"),
    "infer.write_s": ("inference.write_predictions",),
}


class _Counts:
    """Work counted at layer boundaries while the traced pass runs.

    Hooks run in the program's worker threads too, so updates take a lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.objects = 0
        self.reassigned = 0
        self.rendered: list[str] = []
        self.sentences = 0
        self.failures = 0
        self.hits = 0
        self.misses = 0

    def hooks(self) -> dict:
        def parsed(args, graph, parent):
            self.objects += len(graph.objects)

        def reassigned(args, graph, parent):
            self.reassigned += sum(
                a.assigned_room != b.assigned_room for a, b in zip(args[0].objects, graph.objects)
            )

        def rendered(args, sentence, parent):
            if parent not in RENDERS:
                with self._lock:
                    self.rendered.append(sentence)

        def scored(args, outcome, parent):
            if parent in SCORER_ENTRIES:
                return
            batch = outcome if isinstance(outcome, list) else [outcome]
            with self._lock:
                self.sentences += len(batch)
                self.failures += sum(isinstance(o, Exception) for o in batch)

        def looked_up(args, hit, parent):
            with self._lock:
                if hit is None:
                    self.misses += 1
                else:
                    self.hits += 1

        hooks = {name: rendered for name in RENDERS}
        hooks.update({name: scored for name in SCORER_ENTRIES})
        hooks["house_convert.parse_house_file"] = parsed
        hooks["ingest.reassign_objects_by_bbox"] = reassigned
        hooks["lm_scoring.CachingScorer._hit"] = looked_up
        return hooks


@dataclass
class TracedRun:
    plain: workloads.Pass
    traced: workloads.Pass
    tracer: tracing.Tracer
    counts: _Counts


def traced_run(workload, work) -> tuple[list, TracedRun]:
    """One untraced and one traced pass; returns (passes, traced run)."""
    workload.setup(1)
    plain = workload.run_pass()
    counts = _Counts()
    tracer = tracing.Tracer(counts.hooks())
    workload.setup(1, tracer)
    if workload.session is not None:
        workload.session.tag = tracer.current_span
    traced = workload.run_pass(tracer)
    for name in sorted(set(plain.digests) | set(traced.digests)):
        traced.check(f"traced {name} equals the untraced pass",
                     plain.digests.get(name) == traced.digests.get(name))
    tracer.write(work / "spans.tsv")
    return [plain, traced], TracedRun(plain, traced, tracer, counts)


def _percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def per_layer(run: TracedRun) -> dict:
    tracer, counts, traced = run.tracer, run.counts, run.traced
    spans = tracer.by_name()
    all_spans = tracer.spans

    def busy(names) -> float:
        return tracing.union_length(
            [(s[1], s[2]) for name in names for s in spans.get(name, ())]
        )

    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for stage in workloads.STAGES:
        put(f"stage.{stage}_s", traced.stage_s(stage), "s")
    for name, span_names in BUSY.items():
        put(name, busy(span_names), "s")

    put("convert.objects", counts.objects, "count")
    put("ingest.objects_reassigned", counts.reassigned, "count")
    put("cooc.select_calls", len(spans.get("cooccurrence.select_informative", ())), "count")
    rendered = len(counts.rendered)
    put("querygen.sentences", rendered, "count")
    put("querygen.unique_ratio", len(set(counts.rendered)) / rendered if rendered else 0.0,
        "ratio")

    scoring_s = metrics["scoring.s"]["value"]
    put("scoring.sentences", counts.sentences, "count")
    put("scoring.failures", counts.failures, "count")
    put("scoring.retries",
        len(spans.get("lm_scoring.RemoteScorer._post_once", ()))
        - len(spans.get("lm_scoring.RemoteScorer.score", ())), "count")
    session = traced.session
    posts = session.post_times if session is not None else []
    durations = [end - start for start, end, _ in posts]
    put("scoring.posts", len(posts), "count")
    put("scoring.queue_wait_s", _queue_wait(tracer, all_spans, posts), "s")
    put("scoring.inflight_mean", sum(durations) / scoring_s if scoring_s else 0.0, "count")
    put("scoring.inflight_max", session.inflight_max if session is not None else 0, "count")
    put("scoring.post_p50_ms", _percentile(durations, 50) * 1e3, "ms")
    put("scoring.post_p99_ms", _percentile(durations, 99) * 1e3, "ms")
    ideal = workloads.MAX_INFLIGHT / workloads.LATENCY_S
    put("scoring.ideal_fraction",
        len(posts) / scoring_s / ideal if posts and scoring_s else 0.0, "ratio")
    plain = [run.plain.stages[s] for s in workloads.SCORING_STAGES if s in run.plain.stages]
    plain_wall = sum(i.wall for i in plain)
    put("scoring.cpu_share", sum(i.cpu for i in plain) / plain_wall if plain_wall else 0.0,
        "ratio")
    put("process.cpu_s", run.plain.total.cpu, "s")

    lookups = counts.hits + counts.misses
    put("cache.hits", counts.hits, "count")
    put("cache.misses", counts.misses, "count")
    put("cache.hit_ratio", counts.hits / lookups if lookups else 0.0, "ratio")
    put("cache.bytes_written", traced.cache_bytes, "bytes")

    rooms_ms = [(s[2] - s[1]) * 1e3 for s in spans.get("inference.classify_room", ())]
    put("infer.room_p50_ms", _percentile(rooms_ms, 50), "ms")
    put("infer.room_p99_ms", _percentile(rooms_ms, 99), "ms")
    put("infer.rooms", traced.rooms, "count")
    put("infer.failed_rooms", traced.failed_rooms, "count")
    put("eval.s", busy([n for n in spans if n.startswith("evaluation.")]), "s")

    put("trace.wall_s", traced.wall_s, "s")
    put("trace.untraced_wall_s", run.plain.wall_s, "s")
    put("trace.overhead_s", traced.wall_s - run.plain.wall_s, "s")
    put("trace.spans", len(all_spans), "count")
    put("host.measured_wall_s", run.plain.total.wall, "s")
    put("host.steal_s", run.plain.total.steal, "s")
    put("host.speed_factor", run.plain.speed, "ratio")
    return metrics


def _queue_wait(tracer, spans, posts) -> float:
    """Sum over POSTs of the time from the start of the remote batch that
    issued the POST to the moment the POST went out."""
    info = {sid: (idx, start, parent) for sid, idx, start, _, parent, _ in spans}
    batch = tracer.names.index("lm_scoring.RemoteScorer.score_batch") \
        if "lm_scoring.RemoteScorer.score_batch" in tracer.names else -1
    total = 0.0
    for start, _, sid in posts:
        while sid >= 0 and info[sid][0] != batch:
            sid = info[sid][2]
        if sid >= 0:
            total += start - info[sid][1]
    return total
