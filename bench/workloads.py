"""Seeded inputs and job lists of the levelpers benchmark.

Every workload is a fixed ladder of inputs: shapes, sizes, which values
tie and the random structure inside each shape are drawn once from a
fixed stream.  The seed renames vertices, reorders simplices and moves
the values by a random strictly increasing map.  The cost of the band
route swings by two times between two random value orders of one circle,
so letting the seed redraw the structure made seeds measure different
loads; renaming keeps the work the same from seed to seed.

Inputs are written as canonical JSON (fixed key order, no whitespace
choices left to chance), so one seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("level-small", "sublevel-large", "check-small")

# Calibration kernel of each workload (see speed.py): the one whose work
# is most like the workload's.
KERNEL = {"level-small": "interp", "sublevel-large": "reduce", "check-small": "interp"}


@dataclass(frozen=True)
class Job:
    """One program invocation: ``kind`` is analyze, check or sublevel."""

    name: str
    kind: str
    doc: dict

    def input_text(self) -> str:
        """Canonical JSON: fixed key order and separators."""
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":")) + "\n"


def _vertex_map(values: list, maximal: list) -> dict:
    return {
        "vertices": [{"id": i, "value": v} for i, v in enumerate(values)],
        "maximal_simplices": [sorted(s) for s in maximal],
    }


def _values(rng: random.Random, n: int, tied: bool, levels: int = 4) -> list[int]:
    """Distinct values are a permutation of 0..n-1; tied values are a
    shuffle of ``levels`` heights repeated about equally often."""
    values = [i % levels for i in range(n)] if tied else list(range(n))
    rng.shuffle(values)
    return values


def circle(rng: random.Random, n: int, tied: bool) -> dict:
    return _vertex_map(_values(rng, n, tied), [[i, (i + 1) % n] for i in range(n)])


def grid_triangles(k: int) -> list[list[int]]:
    """Triangles of a k x k vertex grid, each square cut along its diagonal."""
    tris = []
    for r in range(k - 1):
        for c in range(k - 1):
            a, b, d, e = r * k + c, r * k + c + 1, (r + 1) * k + c, (r + 1) * k + c + 1
            tris.append([a, b, e])
            tris.append([a, d, e])
    return tris


def grid(rng: random.Random, k: int, tied: bool, levels: int = 4) -> dict:
    return _vertex_map(_values(rng, k * k, tied, levels), grid_triangles(k))


def _random_simplices(rng: random.Random, n: int, sizes) -> list[list[int]]:
    return [rng.sample(range(n), size) for size in sizes]


def random_complex(rng: random.Random) -> dict:
    """A small complex of dimension <= 2 in the style of the test suite's
    random maps: 7 vertices, maximal simplices of 3, 3, 2, 2 and 1
    vertices at random, values from 4 heights so that most of them tie."""
    return _vertex_map(_values(rng, 7, True), _random_simplices(rng, 7, (3, 3, 2, 2, 1)))


def filtration(rng: random.Random, maximal: list[list[int]], stages: int) -> dict:
    """Stages of a filtration: each maximal simplex enters at a random
    stage, vertex 0 at stage 0; stage i is everything entered by i."""
    entry = [rng.randrange(stages) for _ in maximal]
    out = [[[0]] + [sorted(s) for s, e in zip(maximal, entry) if e <= i] for i in range(stages)]
    return {"filtration": {"times": list(range(stages)), "stages": out}}


def small_filtration(rng: random.Random, stages: int) -> dict:
    return filtration(rng, _random_simplices(rng, 6, (3, 3, 2, 2, 2)), stages)


def grid_filtration(rng: random.Random, k: int, stages: int) -> dict:
    return filtration(rng, grid_triangles(k), stages)


def relabel(rng: random.Random, doc: dict) -> dict:
    """The same combinatorial input under new names and values.

    Vertex ids are permuted, maximal simplices listed in a new order, and
    the distinct values (or filtration times) sent to new ones by a
    strictly increasing map with random gaps.  Every count the program
    works with stays the same, so the cost of the input hardly moves,
    while ids, values, tie-breaking orders and the output all change.
    """
    def new_values(old):
        distinct = sorted(set(old))
        value, mapped = rng.randint(-20, 20) / 2, {}
        for x in distinct:
            mapped[x] = value
            value += rng.choice((0.5, 1, 1.5, 2, 3))
        return [mapped[x] for x in old]

    def simplices(maximal, ids):
        out = [sorted(ids[v] for v in s) for s in maximal]
        rng.shuffle(out)
        return out

    if "filtration" in doc:
        stages = doc["filtration"]["stages"]
        vertices = sorted({v for stage in stages for s in stage for v in s})
        ids = dict(zip(vertices, rng.sample(range(len(vertices)), len(vertices))))
        return {"filtration": {"times": new_values(doc["filtration"]["times"]),
                               "stages": [simplices(stage, ids) for stage in stages]}}
    n = len(doc["vertices"])
    ids = dict(zip(range(n), rng.sample(range(n), n)))
    values = new_values([v["value"] for v in doc["vertices"]])
    by_id = sorted((ids[v["id"]], x) for v, x in zip(doc["vertices"], values))
    return {"vertices": [{"id": i, "value": x} for i, x in by_id],
            "maximal_simplices": simplices(doc["maximal_simplices"], ids)}


def _circle(n: int, tied: bool):
    return lambda rng: circle(rng, n, tied)


def _grid(k: int, tied: bool, levels: int = 4):
    return lambda rng: grid(rng, k, tied, levels)


def _telescope(stages: int):
    return lambda rng: small_filtration(rng, stages)


def _grid_telescope(k: int, stages: int):
    return lambda rng: grid_filtration(rng, k, stages)


# The largest job of level-small and check-small comes as TOP_COPIES
# relabeled copies of one input.  With three or more passes over the
# list the tail (10 jobs beyond it) then falls among runs of that one
# input, instead of jumping between inputs as the number of passes that
# fit in a run changes with the machine's speed.
TOP_COPIES = 4

# workload -> (job kind, [(name, builder(rng) -> doc, copies)]); the job
# counts are odd, so that the median job is one job.  The seed never
# changes a ladder.
LADDERS = {
    "level-small": ("analyze", [
        ("circle-6-distinct", _circle(6, False), 1),
        ("circle-8-distinct", _circle(8, False), 1),
        ("circle-10-distinct", _circle(10, False), 1),
        ("circle-12-distinct", _circle(12, False), TOP_COPIES),
        *[(f"circle-{n}-tied", _circle(n, True), 1) for n in (6, 8, 10, 12, 14)],
        ("grid-3-distinct", _grid(3, False), 1),
        ("grid-3-tied", _grid(3, True), 1),
        ("grid-4-tied", _grid(4, True, levels=3), 1),
        *[(f"random-{i}-tied", random_complex, 1) for i in range(8)],
        *[(f"telescope-{s}-stages-{i}", _telescope(s), 1) for i, s in enumerate((3, 4, 5, 4))],
    ]),
    # Runs of sublevel-large fit only two or three passes, so the tail
    # falls inside a block of six relabeled copies of one input there.
    "sublevel-large": ("sublevel", [
        ("grid-25-distinct", _grid(25, False), 1),
        ("grid-28-tied", _grid(28, True, levels=8), 1),
        ("grid-30-tied", _grid(30, True, levels=8), 1),
        ("grid-35-distinct", _grid(35, False), 6),
        ("grid-40-tied", _grid(40, True, levels=8), 1),
        *[(f"telescope-grid-{k}-4-stages", _grid_telescope(k, 4), 1) for k in (11, 12, 13)],
    ]),
    "check-small": ("check", [
        ("circle-6-distinct", _circle(6, False), 1),
        ("circle-8-distinct", _circle(8, False), TOP_COPIES),
        *[(f"circle-{n}-tied", _circle(n, True), 1) for n in (6, 10, 14)],
        ("grid-3-tied", _grid(3, True), 1),
        ("grid-4-tied", _grid(4, True, levels=3), 1),
        *[(f"random-{i}-tied", random_complex, 1) for i in range(5)],
        *[(f"telescope-{s}-stages", _telescope(s), 1) for s in (3, 4)],
    ]),
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for one seed; same seed, same jobs.

    The ladder's combinatorial inputs are drawn once, from a fixed
    stream; the seed then relabels each of them (see relabel).
    """
    if workload not in LADDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    kind, ladder = LADDERS[workload]
    shapes = random.Random(f"{workload}:shapes")
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for name, build, copies in ladder:
        doc = build(shapes)
        for c in range(copies):
            jobs.append(Job(f"{name}-{c}" if copies > 1 else name, kind, relabel(rng, doc)))
    return jobs


def write_inputs(jobs: list[Job], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = directory / f"{job.name}.json"
        path.write_text(job.input_text(), encoding="utf-8")
        paths.append(path)
    return paths


def input_faces(doc: dict) -> set[tuple[int, ...]]:
    """All faces of the input complex, closed by the benchmark itself.

    A filtration is a telescope of its stages; the telescope deformation
    retracts onto the last stage, so the last stage stands for it.
    """
    if "filtration" in doc:
        return _closure(doc["filtration"]["stages"][-1])
    return _closure(doc["maximal_simplices"] + [[v["id"]] for v in doc["vertices"]])


def _closure(maximal) -> set[tuple[int, ...]]:
    faces: set[tuple[int, ...]] = set()
    for simplex in maximal:
        s = tuple(sorted(simplex))
        for mask in range(1, 1 << len(s)):
            faces.add(tuple(v for i, v in enumerate(s) if mask >> i & 1))
    return faces


def euler_characteristic(doc: dict) -> int:
    return sum((-1) ** (len(face) - 1) for face in input_faces(doc))


def criticals(doc: dict) -> int:
    if "filtration" in doc:
        return len(doc["filtration"]["times"])
    return len({v["value"] for v in doc["vertices"]})
