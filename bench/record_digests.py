"""Record the digests of every workload's data files for a range of seeds.

    python3 bench/record_digests.py --seeds 0-24

Runs one untimed pass per workload and seed, with the fake endpoint's
latency set to zero (outputs do not depend on it), and writes
``bench/digests.json``. ``run.py`` then checks each pass against the
recorded digests of its workload and seed. Re-record only when a change
is meant to alter the data files.
"""

from __future__ import annotations

import argparse
import json
import sys

import hostspeed
import run
import workloads


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="range such as 0-24")
    args = parser.parse_args(argv)
    rs, _ = run.import_program(hostspeed.Clock(None))
    workloads.LATENCY_S = 0.0
    path = run.BENCH / "digests.json"
    recorded = workloads.load_digests(path)
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            workload = workloads.make(name, rs, run.ROOT / ".bench_work" / name, seed,
                                      hostspeed.Clock(None))
            workload.prepare()
            workload.setup(1)
            result = workload.run_pass()
            failed = [check for check, ok in result.checks if not ok]
            if failed or result.failed_rooms:
                print(f"{name} seed {seed}: not recorded, failed {failed}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = result.digests
            print(f"{name} seed {seed}: {len(result.digests)} files", file=sys.stderr)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
