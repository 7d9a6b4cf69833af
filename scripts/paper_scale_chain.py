"""Run the CLI chain at paper scale in one process and report its peak memory.

Usage, from the root of a source checkout:

    python3 scripts/paper_scale_chain.py

Writes the first 90 buildings of the bench fixture (``bench/fixture.py``,
seed 5) to a temporary directory, about the size of Matterport3D, then
runs ``convert``, ``ingest``, ``cooc`` (ground truth and proxy), ``infer``
(on both tables) and ``eval`` in this process with the offline backend.
Prints one JSON line: the peak resident set size (``ru_maxrss``), the CPU
seconds in all and per stage (``stage_cpu_s``: convert, ingest, cooc,
infer, eval, each summed over its runs), the peak after each stage's last
run (``stage_peak_rss_mb``, so the stage that sets the peak is the first
to reach it), and one SHA-256 over every data file the chain wrote, so
runs of two checkouts can be compared. Exits 1 if a stage does not exit 0.
``paper_scale_chain.sha256`` next to this script records the digest of
the current data files; CI fails when a run prints another.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import fixture  # noqa: E402
from roomsense import cli  # noqa: E402

BUILDINGS = 90
SEED = 5


def _peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _stage(stage_cpu: dict[str, float], stage_peak: dict[str, float], *argv: str) -> None:
    """Run one CLI stage quietly, add its CPU seconds to ``stage_cpu[argv[0]]``
    and set ``stage_peak[argv[0]]`` to the peak RSS after it."""
    start = time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    stage_cpu[argv[0]] = stage_cpu.get(argv[0], 0.0) + time.process_time() - start
    stage_peak[argv[0]] = _peak_rss_mb()
    if code != 0:
        raise SystemExit(f"paper_scale_chain: {argv[0]} exited {code}")


def _data_digest(root: Path) -> str:
    """One SHA-256 over the names and bytes of the data files under ``root``;
    manifest sidecars carry a timestamp and are left out."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and not path.name.endswith(".manifest.json"):
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        stems = [p.stem for p in fixture.write_buildings(SEED, "houses", BUILDINGS)]
        os.mkdir("out")
        os.chdir("out")
        stage_cpu: dict[str, float] = {}
        stage_peak: dict[str, float] = {}
        stage = partial(_stage, stage_cpu, stage_peak)
        cpu = time.process_time()
        for stem in stems:
            stage("convert", "--house", f"../houses/{stem}.house", "--out", f"{stem}.scene.txt")
        stage("ingest", *(a for s in stems for a in ("--scene", f"{s}.scene.txt")),
              "--out", "clean.txt")
        for mode in ("gt", "proxy"):
            stage("cooc", "--graph", "clean.txt", "--out", f"{mode}.tsv", "--mode", mode)
            stage("infer", "--graph", "clean.txt", "--cooc", f"{mode}.tsv",
                  "--out", f"{mode}.jsonl")
        stage("eval", "gt.jsonl", "proxy.jsonl", "--out-dir", "reports")
        cpu = time.process_time() - cpu
        digest = _data_digest(Path.cwd())
        os.chdir(ROOT)
    print(json.dumps({
        "buildings": BUILDINGS,
        "peak_rss_mb": _peak_rss_mb(),
        "cpu_s": round(cpu, 2),
        "stage_cpu_s": {name: round(s, 2) for name, s in stage_cpu.items()},
        "stage_peak_rss_mb": stage_peak,
        "data_sha256": digest,
    }))


if __name__ == "__main__":
    main()
