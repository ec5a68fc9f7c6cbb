import ast
import math
from pathlib import Path

import numpy as np
import pytest

from levelpers import (
    CriticalGrid,
    Filtration,
    LevelBar,
    LevelBarcode,
    barcode_from_kernels,
    barcode_from_overlaps,
    build_complex,
    compute_relevant_numbers,
    critical_values,
    level_barcode,
    numbers_from_barcode,
    sublevel_barcode,
    sublevel_from_level,
    telescope,
    VertexValuedMap,
)
from levelpers.report import parse_input
from levelpers.sublevel import INF
from conftest import (FIXTURE_MAKERS, NUMBER_FAMILIES, bumped, grid_values, outside, random_vertex_map,
                      seeded_telescopes)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bars_of(bc):
    return {(b.degree, b.left, b.right, b.left_closed, b.right_closed): m
            for b, m in bc.counts.items()}


def test_levelbar_validation():
    with pytest.raises(ValueError, match="closed"):
        LevelBar(0, 1.0, 1.0, True, False)
    with pytest.raises(ValueError, match="reversed"):
        LevelBar(0, 2.0, 1.0, True, True)
    LevelBar(0, 0.0, 2.0, False, True)


def test_direct_numbers_circle(square_circle):
    nums = compute_relevant_numbers(square_circle)
    assert nums.image_overlap(0, 0.5, 1.5) == 2
    assert nums.image_overlap(0, 0.0, 2.0) == 1
    assert nums.level_rank(0, 0.5) == 2
    assert nums.up_kernel(0, 0.5, 2.0) == 1
    assert nums.down_kernel(0, 0.5, 0.0) == 1
    assert nums.kernel_overlap(0, 0.5, 2.0, 0.0) == 1


def test_direct_numbers_interval_edge(edge_map):
    nums = compute_relevant_numbers(edge_map)
    grid = nums.grid
    pts = grid_values(grid)
    for i, x in enumerate(pts):
        for y in pts[i:]:
            assert nums.image_overlap(0, x, y) == 1
            assert nums.up_kernel(0, x, y) == 0
            assert nums.down_kernel(0, y, x) == 0
            for d in pts[: i + 1]:
                assert nums.kernel_overlap(0, x, y, d) == 0


def test_conventions_out_of_range_and_orientation(square_circle):
    nums = compute_relevant_numbers(square_circle)
    grid = nums.grid
    below, above = outside(grid)
    assert nums.image_overlap(0, below, 2.0) == 0
    assert nums.image_overlap(0, 0.0, above) == 0
    assert nums.level_rank(0, below) == 0
    assert nums.up_kernel(0, 0.5, above) == 0
    # kernel overlap vanishes when the probe is outside the reach
    assert nums.kernel_overlap(0, 0.5, 2.0, 1.0) == 0   # down end above the probe
    assert nums.kernel_overlap(0, 1.5, 1.0, 0.0) == 0   # up end below the probe


@pytest.mark.parametrize("name", sorted(FIXTURE_MAKERS))
def test_zero_outside_the_stored_domain(name):
    # sentinels, degrees out of range and reversed reaches read 0 in both
    # constructions
    direct = compute_relevant_numbers(FIXTURE_MAKERS[name]())
    derived = numbers_from_barcode(barcode_from_overlaps(direct))
    for nums in (direct, derived):
        grid, top = nums.grid, nums.max_degree
        below, above = outside(grid)
        pts = grid_values(grid)
        for r in range(-1, top + 2):
            for s in (below, above):
                assert nums.level_rank(r, s) == 0
                for t in pts:
                    assert nums.image_overlap(r, s, t) == nums.image_overlap(r, t, s) == 0
                    assert nums.up_kernel(r, t, s) == nums.down_kernel(r, t, s) == 0
                    assert nums.kernel_overlap(r, t, above, s) == nums.kernel_overlap(r, t, s, below) == 0
            for t in pts:
                for u in pts:
                    for d in pts:
                        if u < t or d > t:
                            assert nums.kernel_overlap(r, t, u, d) == 0
                    if u < t:
                        assert nums.up_kernel(r, t, u) == 0
                    if u > t:
                        assert nums.down_kernel(r, t, u) == 0
            if r in (-1, top + 1):
                for i, t in enumerate(pts):
                    assert nums.level_rank(r, t) == 0
                    for u in pts[i:]:
                        assert nums.image_overlap(r, t, u) == nums.up_kernel(r, t, u) == 0
                        assert nums.down_kernel(r, u, t) == 0
                        assert all(nums.kernel_overlap(r, t, u, d) == 0 for d in pts[: i + 1])


def test_off_grid_value_reads_as_its_gap(square_circle):
    nums = numbers_from_barcode(level_barcode(square_circle))
    assert nums.level_rank(0, 0.3) == nums.level_rank(0, 0.5) == nums.level_rank(0, 0.7) == 2
    assert nums.level_rank(0, -5.0) == nums.level_rank(0, 2.5) == nums.image_overlap(0, 1.7, 0.3) == 0
    rng = np.random.default_rng(23)
    for _ in range(40):
        f = random_vertex_map(rng)
        grid = critical_values(f)
        nums = numbers_from_barcode(level_barcode(f))
        pts = grid_values(grid)
        T = grid.criticals
        for k in range(len(T) - 1):
            regular = grid.regular_above(k)
            for inside in (T[k] + (T[k + 1] - T[k]) / 4, T[k + 1] - (T[k + 1] - T[k]) / 4):
                for r in range(-1, nums.max_degree + 2):
                    assert nums.level_rank(r, inside) == nums.level_rank(r, regular)
                    for t in pts:
                        for name in ("image_overlap", "up_kernel", "down_kernel"):
                            read = getattr(nums, name)
                            assert read(r, inside, t) == read(r, regular, t)
                            assert read(r, t, inside) == read(r, t, regular)
                        for u in pts:
                            assert nums.kernel_overlap(r, inside, t, u) == nums.kernel_overlap(r, regular, t, u)
                            assert nums.kernel_overlap(r, t, inside, u) == nums.kernel_overlap(r, t, regular, u)
                            assert nums.kernel_overlap(r, t, u, inside) == nums.kernel_overlap(r, t, u, regular)


def test_zero_entries_are_not_stored():
    # kernel_overlap, the one sparse family, keeps only its nonzero counts
    # in both constructions, so the two compare equal entry for entry
    rng = np.random.default_rng(46)
    for f in [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(8)]:
        direct = compute_relevant_numbers(f)
        derived = numbers_from_barcode(level_barcode(f))
        for nums in (direct, derived):
            assert all(slot and all(slot.values()) for by_point in nums._both for slot in by_point.values())
            assert all(e[-1] for name in NUMBER_FAMILIES for e in nums.entries(name))
        assert direct == derived


def test_barcode_from_overlaps_fixtures(square_circle, octahedron, lambda_map):
    bc = barcode_from_overlaps(compute_relevant_numbers(square_circle))
    assert bars_of(bc) == {(0, 0.0, 2.0, True, True): 1, (0, 0.0, 2.0, False, False): 1}
    bc = barcode_from_overlaps(compute_relevant_numbers(octahedron))
    assert bars_of(bc) == {(0, -1.0, 1.0, True, True): 1, (1, -1.0, 1.0, False, False): 1}
    bc = barcode_from_overlaps(compute_relevant_numbers(lambda_map))
    assert bars_of(bc) == {(0, 0.0, 2.0, True, True): 1, (0, 1.0, 2.0, True, False): 1}


def test_barcode_from_kernels_fixtures(square_circle, v_map, edge_map):
    for f in (square_circle, v_map, edge_map):
        nums = compute_relevant_numbers(f)
        assert barcode_from_kernels(nums) == barcode_from_overlaps(nums)
    bc = barcode_from_kernels(compute_relevant_numbers(v_map))
    assert bars_of(bc) == {(0, 0.0, 2.0, True, True): 1, (0, 0.0, 1.0, False, True): 1}
    bc = barcode_from_kernels(compute_relevant_numbers(edge_map))
    assert bars_of(bc) == {(0, 0.0, 1.0, True, True): 1}


def test_numbers_from_barcode_circle(square_circle):
    nums = compute_relevant_numbers(square_circle)
    bc = barcode_from_overlaps(nums)
    derived = numbers_from_barcode(bc)
    assert derived.image_overlap(0, 0.0, 2.0) == 1
    assert derived.image_overlap(0, 0.5, 1.5) == 2
    assert derived.up_kernel(0, 0.5, 2.0) == 1
    assert derived.kernel_overlap(0, 1.0, 2.0, 0.0) == 1
    assert derived == nums


def test_numbers_from_empty_barcode():
    grid = CriticalGrid((0.0, 1.0))
    nums = numbers_from_barcode(LevelBarcode(grid, {}))
    pts = grid_values(grid)
    assert all(nums.level_rank(r, x) == 0 for r in (0, 1) for x in pts)


def test_numbers_from_singleton_bar():
    grid = CriticalGrid((5.0,))
    bc = LevelBarcode(grid, {LevelBar(0, 5.0, 5.0, True, True): 1})
    nums = numbers_from_barcode(bc)
    assert nums.level_rank(0, 5.0) == 1
    assert nums.image_overlap(0, 5.0, 5.0) == 1
    assert nums.up_kernel(0, 5.0, 5.0) == 0
    assert nums.kernel_overlap(0, 5.0, 5.0, 5.0) == 0


def test_sublevel_from_level_fixtures(square_circle, lambda_map, octahedron):
    for f, expected in [
        (square_circle, {(0, 0.0, INF): 1, (1, 2.0, INF): 1}),
        (lambda_map, {(0, 0.0, INF): 1, (0, 1.0, 2.0): 1}),
        (octahedron, {(0, -1.0, INF): 1, (2, 1.0, INF): 1}),
    ]:
        bc = barcode_from_overlaps(compute_relevant_numbers(f))
        assert sublevel_from_level(bc).bars == expected


def test_three_way_agreement_and_round_trip_random():
    rng = np.random.default_rng(41)
    for _ in range(20):
        f = random_vertex_map(rng)
        nums = compute_relevant_numbers(f)
        bc = barcode_from_overlaps(nums)
        assert bc == barcode_from_kernels(nums)
        assert numbers_from_barcode(bc) == nums


def test_bridge_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        f = random_vertex_map(rng)
        nums = compute_relevant_numbers(f)
        bc = barcode_from_overlaps(nums)
        assert sublevel_from_level(bc) == sublevel_barcode(f)


def random_level_barcode(rng, max_degree=2):
    criticals = sorted(float(x) for x in rng.choice(10, size=int(rng.integers(1, 5)), replace=False))
    grid = CriticalGrid(criticals)
    counts = {}
    for _ in range(int(rng.integers(0, 7))):
        r = int(rng.integers(0, max_degree + 1))
        i = int(rng.integers(0, len(criticals)))
        j = int(rng.integers(i, len(criticals)))
        if i == j:
            bar = LevelBar(r, criticals[i], criticals[j], True, True)
        else:
            bar = LevelBar(r, criticals[i], criticals[j],
                           bool(rng.integers(0, 2)), bool(rng.integers(0, 2)))
        counts[bar] = counts.get(bar, 0) + int(rng.integers(1, 4))
    return LevelBarcode(grid, counts)


def test_synthetic_barcode_round_trip():
    # bars -> numbers -> bars is the identity for any nonnegative barcode,
    # along both conversion routes
    rng = np.random.default_rng(43)
    for _ in range(60):
        bc = random_level_barcode(rng)
        nums = numbers_from_barcode(bc)
        assert barcode_from_overlaps(nums) == bc
        assert barcode_from_kernels(nums) == bc


def test_count_conservation_at_regular_values():
    # the four kinds of bars through a regular value together carry the
    # whole level homology there
    rng = np.random.default_rng(44)
    for _ in range(12):
        f = random_vertex_map(rng)
        nums = compute_relevant_numbers(f)
        bc = barcode_from_overlaps(nums)
        grid = nums.grid
        for r in range(nums.max_degree + 1):
            for k in range(len(grid.criticals) - 1):
                s = grid.regular_above(k)
                # s is a regular value, so it is never a bar end
                through = sum(m for b, m in bc.counts.items() if b.degree == r and b.left < s < b.right)
                assert through == nums.level_rank(r, s)


def test_redundant_critical_leaves_barcode_alone():
    rng = np.random.default_rng(45)
    for _ in range(10):
        f = random_vertex_map(rng)
        nums = compute_relevant_numbers(f)
        bc = barcode_from_overlaps(nums)
        grid = nums.grid
        k = int(rng.integers(0, max(len(grid.criticals) - 1, 1)))
        if len(grid.criticals) < 2:
            continue
        extra = grid.regular_above(k)
        wide = CriticalGrid((*grid.criticals, extra))
        nums2 = compute_relevant_numbers(f, grid=wide)
        bc2 = barcode_from_overlaps(nums2)
        assert bc2.counts == bc.counts
        assert sublevel_from_level(bc2).bars == sublevel_barcode(f).bars


def test_unrealizable_numbers_are_rejected():
    f = VertexValuedMap(build_complex([[0, 1]]), {0: 0.0, 1: 1.0})
    nums = compute_relevant_numbers(f)
    # corrupt one overlap so the inclusion-exclusion goes negative
    nums = bumped(nums, "image_overlap", (0, 0.0, 1.0), 5)
    with pytest.raises(ValueError, match="not realizable"):
        barcode_from_overlaps(nums)


def test_overlap_route_names_the_negative_bar(square_circle):
    # one inflated overlap makes the count of exactly one bar negative
    nums = compute_relevant_numbers(square_circle)
    nums = bumped(nums, "image_overlap", (0, 0.5, 1.5), 1)
    message = "count of H0 (0.0, 1.0] is negative: input numbers are not realizable by a tame map"
    with pytest.raises(ValueError) as exc:
        barcode_from_overlaps(nums)
    assert str(exc.value) == message


@pytest.mark.parametrize("table, key, delta, message", [
    ("_both", (0, 0.5, 2.0, 0.0), -1, "closed-closed count at [1.0, 1.0] in degree 0"),
    ("_both", (0, 0.5, 2.0, 0.0), 1, "open-closed count at (0.0, 1.0] in degree 0"),
    ("_down", (0, 1.0, 0.0), 1, "auxiliary left-closed count at [1.0, 1.0) in degree 0"),
    ("_down", (0, 2.0, 0.0), 1, "open-closed count at (0.0, 1.0] in degree 0"),
])
def test_kernel_route_messages(square_circle, table, key, delta, message):
    # the case ids keep their short table tags: _both is kernel_overlap, _down is down_kernel
    name = {"_both": "kernel_overlap", "_down": "down_kernel"}[table]
    nums = bumped(compute_relevant_numbers(square_circle), name, key, delta)
    with pytest.raises(ValueError) as exc:
        barcode_from_kernels(nums)
    assert str(exc.value) == message + " is negative: input numbers are not realizable by a tame map"


def test_barcode_rejects_non_critical_endpoint():
    grid = CriticalGrid((0.0, 1.0))
    with pytest.raises(ValueError, match="non-critical"):
        LevelBarcode(grid, {LevelBar(0, 0.5, 1.0, True, True): 1})


@pytest.mark.parametrize("bar, text", [
    (LevelBar(0, 0.5, 1.0, True, True), "H0 [0.5, 1.0]"),       # left end at a regular value
    (LevelBar(0, 0.0, 0.5, True, False), "H0 [0.0, 0.5)"),      # right end at a regular value
    (LevelBar(1, 0.0, 3.0, False, False), "H1 (0.0, 3.0)"),     # right end off the grid
])
def test_non_critical_endpoint_message(bar, text):
    grid = CriticalGrid((0.0, 1.0))
    with pytest.raises(ValueError) as exc:
        LevelBarcode(grid, {LevelBar(0, 0.0, 1.0, True, True): 1, bar: 2})
    assert str(exc.value) == f"bar {text} has a non-critical endpoint"


def mirrored(bc):
    """The bars of bc reflected through 0, each end keeping its flag: [a, b) becomes (-b, -a]."""
    return {LevelBar(b.degree, 0.0 - b.right, 0.0 - b.left, b.right_closed, b.left_closed): m
            for b, m in bc.counts.items()}


def test_negation_mirrors_the_level_bars(monkeypatch):
    # the cone's upper half is the lower-star boundary of -f, so the bars
    # of f and of -f pin both halves; no end at zero reads -0.0
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    rng = np.random.default_rng(2023)
    maps = [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(260)]
    maps += seeded_telescopes(20, 2024)
    parsed = [parse_input(job.input_text()) for job in workloads.make_jobs("level-small", 0)]
    maps += [telescope(p) if isinstance(p, Filtration) else p for p in parsed]  # only a map can be negated
    for f in maps:
        bc = level_barcode(f)
        neg = level_barcode(VertexValuedMap(f.complex, {v: -x for v, x in f.values.items()}))
        assert neg.counts == mirrored(bc)
        ends = [x for b in [*bc.counts, *neg.counts] for x in (b.left, b.right)]
        assert all(math.copysign(1.0, x) == 1.0 for x in ends if x == 0.0)


def test_readme_library_example_runs_as_printed():
    # the block under "## Library" in README.md, run as printed: bars has
    # the bars its comment names and each bare expression the value its
    # comment starts with
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    assert repr(namespace["bars"]) == "LevelBarcode(H0 (0.0, 2.0)x1; H0 [0.0, 2.0]x1)"
    lines = block.splitlines()
    stated = {ast.get_source_segment(block, node): lines[node.end_lineno - 1].split("#", 1)[1].split(":")[0].strip()
              for node in ast.parse(block).body if isinstance(node, ast.Expr)}
    assert stated == {"nums.image_overlap(0, 0.5, 1.5)": "2",
                      "barcode_from_overlaps(compute_relevant_numbers(f)) == bars": "True",
                      "numbers_from_barcode(bars) == compute_relevant_numbers(f)": "True",
                      "sublevel_from_level(bars) == sublevel_barcode(f)": "True"}
    for expression, value in stated.items():
        assert repr(eval(expression, namespace)) == value, expression
