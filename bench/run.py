"""roomsense benchmark: one workload per process, one JSON result line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload offline-pipeline --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout. The workload's
inputs are generated from ``--seed`` under ``.bench_work/``; passes repeat
until ``--seconds`` are used up and medians over passes are reported.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
one untraced and one traced pass run, and the per-layer metrics and the
tracing overhead are printed. Every pass checks its outputs. The last line
of standard output is the JSON result; progress goes to standard error.
The process runs on one CPU, and its times are corrected for host steal
and host speed (``hostspeed.py``). See ``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _log(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)


def import_program(clock: hostspeed.Clock):
    """Import roomsense from the checkout; returns (modules, measured interval)."""
    if not (SRC / "roomsense" / "__init__.py").is_file():
        raise SystemExit(f"bench: no roomsense sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = clock.now()
    import roomsense  # noqa: F401
    from roomsense import (cli, cooccurrence, evaluation, house_convert, inference, ingest,
                           lm_scoring, querygen, scene_model)
    interval = clock.since(start, clock.now())
    modules = argparse.Namespace(
        cli=cli, cooccurrence=cooccurrence, evaluation=evaluation,
        house_convert=house_convert, inference=inference, ingest=ingest,
        lm_scoring=lm_scoring, querygen=querygen, scene_model=scene_model,
    )
    return modules, interval


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _digest_checks(result, recorded: dict | None, label: str) -> None:
    if recorded is None:
        return
    for name in sorted(set(recorded) | set(result.digests)):
        result.check(f"{label}: {name} matches the recorded digest",
                     recorded.get(name) == result.digests.get(name))


def _timed_passes(workload, seconds: float, recorded):
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        setups.extend(workload.setup(workloads.SETUP_REPEATS))
        result = workload.run_pass()
        _digest_checks(result, recorded, f"pass {len(passes) + 1}")
        if passes:
            result.check(f"pass {len(passes) + 1}: same data files as pass 1",
                         result.digests == passes[0].digests)
        passes.append(result)
        elapsed = time.perf_counter() - start
        mean = elapsed / len(passes)
        _log(f"pass {len(passes)}: {result.wall_s:.3f}s at the reference host "
             f"(measured {result.total.wall:.3f}s, steal {result.total.steal:.2f}s, "
             f"speed factor {result.speed:.3f})")
        if elapsed + mean / 2 >= seconds:
            return setups, passes


def _end_to_end(imported, setups, passes, speed: float) -> dict:
    med = statistics.median
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s = imported.reference(speed) + med(s.reference(speed) for s in setups)
    return {
        "wall_s": _metric(med(p.wall_s for p in passes), "s"),
        "setup_s": _metric(setup_s, "s"),
        "rooms_per_s": _metric(med(p.rooms / p.wall_s for p in passes), "1/s"),
        "sentences_per_s": _metric(med(p.sentences / p.scoring_s for p in passes), "1/s"),
        "cpu_s": _metric(med(p.cpu_s for p in passes), "s"),
        "backend_calls": _metric(med(p.backend_calls for p in passes), "count"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }


def _summary(passes) -> tuple[int, int]:
    attempted = sum(p.rooms + p.failed_rooms + len(p.checks) for p in passes)
    failed = sum(p.failed_rooms + sum(not ok for _, ok in p.checks) for p in passes)
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    cpu = hostspeed.pin_to_one_cpu()
    probe = hostspeed.SpeedProbe()
    clock = hostspeed.Clock(cpu, probe)
    probe.start()
    try:
        return _run(args, clock, probe)
    finally:
        probe.stop()


def _run(args, clock: hostspeed.Clock, probe: hostspeed.SpeedProbe) -> int:
    rs, imported = import_program(clock)
    work = ROOT / ".bench_work" / args.workload
    recorded = workloads.load_digests(BENCH / "digests.json")
    recorded = recorded.get(args.workload, {}).get(str(args.seed))
    if recorded is None:
        _log(f"no recorded digests for seed {args.seed}; checking passes against each other")

    workload = workloads.make(args.workload, rs, work, args.seed, clock)
    workload.prepare()
    if args.trace:
        passes, traced = layers.traced_run(workload, work)
        for result in passes:
            _digest_checks(result, recorded, "trace run")
        metrics = layers.per_layer(traced)
    else:
        setups, passes = _timed_passes(workload, args.seconds, recorded)
        metrics = None

    attempted, failed = _summary(passes)
    for result in passes:
        for name, ok in result.checks:
            if not ok:
                _log(f"check failed: {name}")
    if metrics is None:
        metrics = _end_to_end(imported, setups, passes, probe.factor())
        metrics["ok_fraction"] = _metric(1.0 - failed / attempted, "ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
