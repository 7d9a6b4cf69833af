"""Seeded synthetic Matterport-style ``.house`` buildings.

The fixture has the shape of the paper's dataset: 90 buildings of 25
regions with about 25 objects each, and about 1,600 raw object categories
mapped onto a 40-name coarse space. Everything is drawn from one
``random.Random(seed)``, so a seed always gives byte-identical files.

Properties the pipeline's behaviour depends on:

* region types are skewed (bedrooms and bathrooms are common, spas rare),
  and one region per building is outdoor or "none" so the room filter
  runs;
* object categories are skewed per region type: each type draws mostly
  from its own Zipf-ranked head of categories, the rest uniformly, so
  co-occurrence rows differ in entropy and every category is observed;
* the coarse space holds the labels the ingest rules reject or retain
  (wall, floor, ceiling, miscellaneous, unlabeled, object);
* a few raw names are listed under two coarse names, so label-space
  conflict resolution runs, and one carries the misspelling that the
  packaged spelling-fix table corrects;
* 5% of objects are centred in a neighbouring region while listing their
  home region, so bounding-box reassignment moves them.

Region object counts vary, but in pairs that sum to twice the mean, and
every building has exactly one filtered region, so the pipeline's work
hardly changes from seed to seed while the inputs do.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

BUILDINGS = 90
REGIONS_PER_BUILDING = 25
OBJECTS_PER_REGION = 25  # mean; single regions hold 15 to 35
FINE_CATEGORIES = 1600
MISPLACED_SHARE = 0.05
HEAD_SHARE = 0.7  # share of draws from a region type's own head
HEAD_SIZE = 60
CONFLICTING_NAMES = 12

COARSE = (
    "chair", "door", "table", "picture", "cabinet", "cushion", "window",
    "sofa", "bed", "curtain", "chest_of_drawers", "plant", "sink", "stairs",
    "toilet", "stool", "towel", "mirror", "tv_monitor", "shower", "column",
    "bathtub", "counter", "fireplace", "lighting", "beam", "railing",
    "shelving", "blinds", "gym_equipment", "seating", "board_panel",
    "furniture", "appliances", "clothes", "object", "wall", "floor",
    "ceiling", "miscellaneous", "unlabeled",
)

# Region letter codes (see roomsense.house_convert) with draw weights.
REGION_WEIGHTS = {
    "b": 16, "a": 14, "h": 10, "c": 7, "k": 6, "l": 6, "d": 5, "o": 5,
    "f": 4, "t": 3, "u": 3, "j": 3, "s": 3, "e": 2, "g": 2, "n": 2,
    "v": 2, "i": 1, "r": 1, "w": 1, "B": 1, "C": 1, "S": 1, "D": 1,
}
# Outdoor and "none" codes, which the ingest filter removes.
FILTERED_WEIGHTS = {"p": 2, "x": 1, "y": 1, "z": 2, "-": 1}

_SYLLABLES = (
    "ba", "ke", "lo", "mi", "nu", "ra", "so", "ti", "ve", "zo", "pa", "de",
    "gu", "fi", "ho", "ja", "wy", "qu", "el", "or", "an", "is", "ut", "em",
)


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))


def _categories(rng: random.Random) -> list[tuple[str, str]]:
    """(raw name, coarse name) pairs; names use spaces, not '#'."""
    names: set[str] = set()
    pairs: list[tuple[str, str]] = []
    while len(pairs) < FINE_CATEGORIES:
        words = [_word(rng) for _ in range(rng.choice((1, 1, 2)))]
        name = " ".join(words)
        if name in names:
            continue
        names.add(name)
        pairs.append((name, rng.choice(COARSE)))
    # raw names seen under two coarse names exercise conflict resolution
    for name, coarse in rng.sample(pairs, CONFLICTING_NAMES):
        pairs.append((name, rng.choice([c for c in COARSE if c != coarse])))
    # a packaged spelling fix applies to one category
    pairs.append(("refridgerator", "appliances"))
    return pairs


def _zipf_weights(n: int) -> list[float]:
    return [1.0 / (rank + 1) for rank in range(n)]


def _building(rng: random.Random, index: int, categories, heads) -> str:
    name = f"b{index:03d}"
    lines = [f"H {name} synthetic 0 0 0 0 0 0 0 0 0 0 0 0 0"]
    for ci, (raw, coarse) in enumerate(categories):
        raw_token = raw.replace(" ", "#")
        coarse_index = COARSE.index(coarse)
        lines.append(f"C {ci} {ci} {raw_token} {coarse_index} {coarse} 0 0 0 0 0")

    side = math.isqrt(REGIONS_PER_BUILDING)
    region_letters = rng.choices(
        list(REGION_WEIGHTS), list(REGION_WEIGHTS.values()), k=REGIONS_PER_BUILDING - 1
    )
    region_letters.insert(
        rng.randrange(REGIONS_PER_BUILDING),
        rng.choices(list(FILTERED_WEIGHTS), list(FILTERED_WEIGHTS.values()))[0],
    )
    counts = []
    for _ in range(REGIONS_PER_BUILDING // 2):
        spread = rng.randint(-10, 10)
        counts += [OBJECTS_PER_REGION + spread, OBJECTS_PER_REGION - spread]
    counts += [OBJECTS_PER_REGION] * (REGIONS_PER_BUILDING % 2)
    rng.shuffle(counts)
    boxes = []
    for r, letter in enumerate(region_letters):
        gx, gy = r % side, r // side
        lo = (gx * 6.0, gy * 6.0, 0.0)
        hi = (lo[0] + 5.0, lo[1] + 5.0, 3.0)
        boxes.append((lo, hi))
        lines.append(
            f"R {r} 0 0 0 {letter} {lo[0] + 2.5:.1f} {lo[1] + 2.5:.1f} 1.5 "
            f"{lo[0]:.1f} {lo[1]:.1f} {lo[2]:.1f} {hi[0]:.1f} {hi[1]:.1f} {hi[2]:.1f} "
            "3.0 0 0 0 0"
        )

    head_weights = _zipf_weights(HEAD_SIZE)
    obj = 0
    for r, letter in enumerate(region_letters):
        for _ in range(counts[r]):
            if rng.random() < HEAD_SHARE:
                category = rng.choices(heads[letter], head_weights)[0]
            else:
                category = rng.randrange(len(categories))
            home = r
            centre_region = r
            if rng.random() < MISPLACED_SHARE:
                gx, gy = r % side, r // side
                neighbours = [
                    (gx + dx) + (gy + dy) * side
                    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                    if 0 <= gx + dx < side and 0 <= gy + dy < side
                ]
                centre_region = rng.choice(neighbours)
            lo, hi = boxes[centre_region]
            cx = rng.uniform(lo[0] + 1.0, hi[0] - 1.0)
            cy = rng.uniform(lo[1] + 1.0, hi[1] - 1.0)
            cz = rng.uniform(0.2, 2.0)
            angle = rng.uniform(0.0, math.pi)
            a0 = (math.cos(angle), math.sin(angle), 0.0)
            a1 = (-math.sin(angle), math.cos(angle), 0.0)
            radii = (rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.2))
            lines.append(
                f"O {obj} {home} {category} {cx:.4f} {cy:.4f} {cz:.4f} "
                f"{a0[0]:.6f} {a0[1]:.6f} {a0[2]:.1f} {a1[0]:.6f} {a1[1]:.6f} {a1[2]:.1f} "
                f"{radii[0]:.4f} {radii[1]:.4f} {radii[2]:.4f} 0 0 0 0 0 0 0 0"
            )
            obj += 1
    return "\n".join(lines) + "\n"


def write_buildings(seed: int, out_dir, count: int = BUILDINGS) -> list[Path]:
    """Write the first ``count`` buildings of the fixture for ``seed``.

    The first n buildings are the same whatever ``count`` is, so a subset
    workload sees a prefix of the full fixture.
    """
    rng = random.Random(seed)
    categories = _categories(rng)
    heads = {
        letter: rng.sample(range(len(categories)), HEAD_SIZE)
        for letter in (*REGION_WEIGHTS, *FILTERED_WEIGHTS)
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(count):
        path = out_dir / f"b{index:03d}.house"
        path.write_text(_building(rng, index, categories, heads), encoding="utf-8")
        paths.append(path)
    return paths
