"""Command-line entrypoint: convert, ingest, cooc, infer, eval.

The four pipeline commands compose: ``ingest`` produces a preprocessed
graph file, ``cooc`` a co-occurrence table, ``infer`` a predictions file,
``eval`` the reports. Defaults reproduce the strongest trial condition
(fine-grained object space, ground-truth co-occurrence, k=3) with the
deterministic offline backend. Identical inputs and flags give
byte-identical data outputs; the run manifest sidecar (which carries a
timestamp) is the one exception, and every data file references its
manifest by the timestamp-free digest.

Exit codes: 0 success, 1 usage error or an OS error on a path, 2 data
error, 3 backend failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from contextlib import closing, contextmanager
from datetime import datetime, timezone
from pathlib import Path

from . import evaluation, house_convert, inference, ingest
from .atomic import atomic_write
from .cooccurrence import (
    build_proxy_table,
    count_ground_truth,
    read_table,
    write_table,
)
from .lm_scoring import TransportError, make_scorer
from .querygen import QueryTemplate

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type: a finite number of at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite non-negative number")
    return value


def _say(*lines: str) -> None:
    """Print ``lines`` to stdout and flush them.

    A reader that stops early (``roomsense ingest ... | head -1``) is not an
    error: stdout is pointed at the null device and the command goes on, so
    it still writes every output file and keeps its exit code.
    """
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_text(path, text: str) -> None:
    with atomic_write(path) as handle:
        handle.write(text)


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(command: str, flags: dict, inputs, outputs, backend: str | None,
                   template_version: str | None) -> tuple[dict, str]:
    """Run manifest plus its id (digest over everything but the timestamp)."""
    stable = {
        "command": command,
        "flags": {k: v for k, v in sorted(flags.items())},
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "backend": backend,
        "template_version": template_version,
    }
    manifest_id = hashlib.sha256(
        json.dumps(stable, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:16]
    manifest = dict(stable)
    manifest["manifest_id"] = manifest_id
    manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    return manifest, manifest_id


@contextmanager
def _manifested(args: argparse.Namespace, out: Path, inputs, backend: str | None = None,
                template_version: str | None = None):
    """Yield the manifest id for the data file ``out``; then write its sidecar.

    The body writes ``out`` (and any file that goes with it) stamped with the
    id; the sidecar ``<out>.manifest.json`` is written only if the body
    succeeds. The manifest records ``args.command`` and every flag but the
    input paths ``eval`` takes as positionals, which it records as inputs.
    """
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command", "predictions")}
    manifest, manifest_id = build_manifest(
        args.command, flags, inputs, [out], backend, template_version
    )
    yield manifest_id
    side = Path(str(out) + ".manifest.json")
    _write_text(side, json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")


@contextmanager
def _naming(where):
    """Prefix ``where`` to a ValueError raised in the body, whose callee names no file."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from err


def _resolve_object_space(graph, choice: str) -> str:
    """Map fine/coarse onto the graph's declared spaces (coarse first)."""
    names = graph.object_space_names
    return names[0] if choice == "coarse" else names[-1]


def _add_scorer_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("scorer")
    group.add_argument("--backend", choices=["offline", "remote"], default="offline")
    group.add_argument("--seed", type=int, default=0, help="offline scorer seed")
    group.add_argument("--offline-bonus-file", type=Path, default=None)
    group.add_argument("--endpoint", default=None, help="remote endpoint URL")
    group.add_argument("--model", default=None, help="remote model identity")
    group.add_argument("--max-inflight", type=_positive_int, default=4)
    group.add_argument("--max-attempts", type=_positive_int, default=5,
                       help="remote POSTs per sentence, at most")
    group.add_argument("--cache-dir", type=Path, default=None)


def _make_scorer(args: argparse.Namespace):
    cache_path = None
    if args.cache_dir is not None:
        args.cache_dir.mkdir(parents=True, exist_ok=True)
        cache_path = args.cache_dir / "scores.jsonl"
    return make_scorer(
        backend=args.backend,
        seed=args.seed,
        bonus_file=args.offline_bonus_file,
        cache_path=cache_path,
        max_inflight=args.max_inflight,
        endpoint=args.endpoint,
        model=args.model,
        max_attempts=args.max_attempts,
    )


def cmd_convert(args) -> int:
    category_map = (
        house_convert.load_category_map(args.category_map) if args.category_map else None
    )
    graph = house_convert.parse_house_file(args.house, category_map=category_map)
    inputs = [args.house] + ([args.category_map] if args.category_map else [])
    with _manifested(args, args.out, inputs) as manifest_id:
        ingest.write_scene_file(graph, args.out, manifest_id=manifest_id)
    _say(f"converted {args.house}: {len(graph.rooms)} rooms, {len(graph.objects)} objects")
    return EXIT_OK


def cmd_ingest(args) -> int:
    fixes = ingest.load_spelling_fixes(args.spelling_fixes)
    processed = []
    for scene in args.scene:
        raw = ingest.parse_scene_file(scene)
        space = _resolve_object_space(raw, args.object_space)
        with _naming(scene):
            processed.append(ingest.run_pipeline(raw, space, fixes, args.keep_object_category))
    graph = ingest.merge_graphs(processed, names=args.scene)
    if not graph.rooms:
        raise ValueError("preprocessing leaves no room: every room is filtered out or empty")

    inputs = args.scene + ([args.spelling_fixes] if args.spelling_fixes else [])
    with _manifested(args, args.out, inputs) as manifest_id:
        ingest.write_scene_file(graph, args.out, manifest_id=manifest_id)

    total = len(graph.rooms)
    _say(
        f"rooms: {len(graph.rooms)}",
        f"objects: {len(graph.objects)}",
        *(
            f"  {label}: {count} ({count / total * 100:.2f}%)"
            for label, count in ingest.room_label_histogram(graph).items()
        ),
    )
    return EXIT_OK


def cmd_cooc(args) -> int:
    graph = ingest.parse_scene_file(args.graph)
    if not graph.objects:
        raise ValueError(f"--graph {args.graph}: the graph holds no object to count")
    space_name = _resolve_object_space(graph, args.object_space)
    template = QueryTemplate(article_mode=args.article)
    if args.mode == "gt":
        with _naming(f"--graph {args.graph}"):
            table = count_ground_truth(
                graph, space_name, alpha=args.alpha, presence=args.presence
            )
            if not table.rows:
                raise ValueError("no object sits in a room of the graph")
        backend = None
    else:
        spaces = graph.object_space(space_name), graph.room_space
        del graph  # a proxy table reads only the two spaces: score without the graph
        with closing(_make_scorer(args)) as scorer:
            table = build_proxy_table(scorer, *spaces, template=template)
        backend = scorer.identity
    with _manifested(args, args.out, [args.graph], backend, template.version) as manifest_id:
        write_table(table, args.out, manifest_id=manifest_id)
    _say(f"wrote {len(table.rows)} rows over {len(table.room_labels)} room labels")
    return EXIT_OK


def _select_rooms(args):
    """The ``--cooc`` table, ``--graph``'s room labels and its room selections.

    The graph is parsed, checked against the table and dropped here, so it
    is gone before any sentence is rendered or scored.
    """
    graph = ingest.parse_scene_file(args.graph)
    table = read_table(args.cooc)
    names = graph.object_space_names
    with _naming(f"--cooc {args.cooc}"):
        if table.object_space not in names:
            raise ValueError(
                f"table object space {table.object_space!r} "
                f"not in --graph {args.graph} spaces {list(names)}"
            )
        selections = inference.select_rooms(graph, table, args.k)
    return table, graph.room_space.labels, selections


def cmd_infer(args) -> int:
    table, room_labels, selections = _select_rooms(args)
    if not any(room.objects for room in selections):
        raise ValueError(f"--graph {args.graph}: no room holds an object to query")
    template = QueryTemplate(article_mode=args.article)
    with closing(_make_scorer(args)) as scorer:
        result = inference.classify_selections(
            selections, room_labels, table, scorer, args.k, template
        )
    with _manifested(
        args, args.out, [args.graph, args.cooc], scorer.identity, template.version
    ) as manifest_id:
        inference.write_predictions(result, args.out, manifest_id=manifest_id)
    _say(f"predicted {len(result.predictions)} rooms, {len(result.failures)} failed")
    if result.failures and not result.predictions:
        raise TransportError("every room failed to score")
    return EXIT_OK


def cmd_eval(args) -> int:
    stems = [path.stem for path in args.predictions]
    for stem in stems:
        if stems.count(stem) > 1:
            print(f"roomsense: two inputs share the stem {stem!r}, so one report "
                  "would overwrite the other", file=sys.stderr)
            return EXIT_USAGE
    # every input is read and evaluated before any report is written
    reports = []
    for path in args.predictions:
        run = inference.read_predictions(path)
        with _naming(path):
            reports.append(evaluation.evaluate(run))
    table = (
        evaluation.compare_conditions(reports, names=args.predictions)
        if len(reports) > 1 else None
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for path, stem, report in zip(args.predictions, stems, reports):
        report_path = args.out_dir / f"{stem}.report.json"
        with _manifested(args, report_path, [path]) as manifest_id:
            evaluation.write_report(report, report_path, manifest_id)
            _write_text(
                args.out_dir / f"{stem}.report.txt",
                evaluation.format_report(report) + f"\nmanifest: {manifest_id}\n",
            )
            evaluation.emit_label_breakdown(
                report, args.out_dir / f"{stem}.breakdown.csv", manifest_id
            )
        lines.append(f"{path}: overall accuracy {report.overall_accuracy * 100:.2f}%")
    if table is not None:
        text = evaluation.format_condition_table(table)
        conditions_path = args.out_dir / "conditions.txt"
        with _manifested(args, conditions_path, args.predictions) as manifest_id:
            _write_text(conditions_path, text + f"\nmanifest: {manifest_id}\n")
        lines.append(text)
    _say(*lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="roomsense", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("convert", help="convert a .house file to a scene file")
    p.add_argument("--house", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--category-map", type=Path, default=None,
                   help="official category mapping TSV for nyuClass labels")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("ingest", help="preprocess scene files into a clean graph")
    p.add_argument("--scene", type=Path, action="append", required=True,
                   help="scene file; repeat to merge several buildings")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--object-space", choices=["fine", "coarse"], default="fine")
    p.add_argument("--spelling-fixes", type=Path, default=None,
                   help="override the packaged spelling-fix table")
    p.add_argument("--keep-object-category", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="retain coarse-'object' nodes in fine-grained runs")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cooc", help="build a co-occurrence table")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--mode", "--cooc", dest="mode", choices=["gt", "proxy"], default="gt")
    p.add_argument("--alpha", type=_non_negative_float, default=1.0,
                   help="Laplace smoothing constant")
    p.add_argument("--presence", action="store_true",
                   help="count labels once per room instead of per instance")
    p.add_argument("--object-space", choices=["fine", "coarse"], default="fine")
    p.add_argument("--article", choices=["grammatical", "literal"], default="grammatical")
    _add_scorer_flags(p)
    p.set_defaults(func=cmd_cooc)

    p = sub.add_parser("infer", help="classify every room in a graph")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--cooc", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--k", type=_positive_int, default=3, help="objects per query sentence")
    p.add_argument("--article", choices=["grammatical", "literal"], default="grammatical")
    _add_scorer_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score prediction files and emit reports")
    p.add_argument("predictions", nargs="+", type=Path)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        _say()  # --help text: a closed stdout is no error here either
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except OSError as err:  # a missing input, a directory given as --out, ...
        print(f"roomsense: {err}", file=sys.stderr)
        return EXIT_USAGE
    except TransportError as err:
        print(f"roomsense: backend failure: {err}", file=sys.stderr)
        return EXIT_BACKEND
    except ValueError as err:
        print(f"roomsense: data error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
