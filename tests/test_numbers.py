"""The rank-array number tables against a per-bar counting reference, the
conversions against scalar passes over the accessors, and the JSON
emitter against json.dumps."""

import dataclasses
import json
import math
from bisect import bisect_left, bisect_right
from collections import Counter

import numpy as np
import pytest

import levelpers.report as report
from levelpers import (
    CriticalGrid,
    LevelBar,
    LevelBarcode,
    RelevantNumbers,
    VertexValuedMap,
    build_complex,
    barcode_from_kernels,
    barcode_from_overlaps,
    compute_relevant_numbers,
    critical_values,
    level_barcode,
    numbers_from_barcode,
)
from levelpers.cli import main
from levelpers.level import first_difference
from conftest import (FIXTURE_MAKERS, NUMBER_FAMILIES, bumped, grid_values, outside, random_vertex_map,
                      seeded_telescopes)


def counted_entries(bc, grid, top):
    """Sorted nonzero (r, i, ..., count) entries of each family, counted bar
    by bar: a bar adds its multiplicity at every in-range grid position it
    contains, at every pair of them, and over the reaches past its open
    ends.  The positions come from bisecting the grid's floats."""
    pts = grid_values(grid)
    level, overlap, up, down, both = Counter(), Counter(), Counter(), Counter(), Counter()
    for b, m in bc.counts.items():
        r = b.degree
        if not 0 <= r <= top:
            continue
        inside = range(bisect_left(pts, b.left) if b.left_closed else bisect_right(pts, b.left),
                       bisect_right(pts, b.right) if b.right_closed else bisect_left(pts, b.right))
        reach_up = [] if b.right_closed else range(bisect_left(pts, b.right), len(pts))
        reach_down = [] if b.left_closed else range(bisect_right(pts, b.left))
        for t in inside:
            level[(r, t)] += m
            for u in range(t, inside.stop):
                overlap[(r, t, u)] += m
            for d in reach_down:
                down[(r, t, d)] += m
            for u in reach_up:
                up[(r, t, u)] += m
                for d in reach_down:
                    both[(r, t, u, d)] += m
    return {name: sorted((*k, c) for k, c in table.items() if c)
            for name, table in zip(NUMBER_FAMILIES, (level, overlap, up, down, both))}


def circle(n, seed):
    values = np.random.default_rng(seed).permutation(n)
    return VertexValuedMap(build_complex([[i, (i + 1) % n] for i in range(n)]),
                           {i: float(values[i]) for i in range(n)})


def grid_map(k, seed):
    tris = []
    for r in range(k - 1):
        for c in range(k - 1):
            a, b, d, e = r * k + c, r * k + c + 1, (r + 1) * k + c, (r + 1) * k + c + 1
            tris += [[a, b, e], [a, d, e]]
    cx = build_complex(tris)
    values = np.random.default_rng(seed).permutation(len(cx.vertices))
    return VertexValuedMap(cx, {v: float(values[i]) for i, v in enumerate(cx.vertices)})


def grid_graph(k, seed):
    """The k x k grid graph, edges only, with distinct vertex values: each
    of its (k - 1)^2 independent cycles is a level bar open at both ends."""
    edges = [[r * k + c, r * k + c + 1] for r in range(k) for c in range(k - 1)]
    edges += [[r * k + c, (r + 1) * k + c] for r in range(k - 1) for c in range(k)]
    values = np.random.default_rng(seed).permutation(k * k)
    return VertexValuedMap(build_complex(edges), {v: float(values[v]) for v in range(k * k)})


def sample_maps():
    rng = np.random.default_rng(808)
    maps = [(name, maker()) for name, maker in FIXTURE_MAKERS.items()]
    maps += [(f"random {i}", random_vertex_map(rng)) for i in range(60)]
    return maps + [("circle 20", circle(20, 1)), ("circle 48", circle(48, 2)), ("grid 4x4", grid_map(4, 3)),
                   ("grid graph 5x5", grid_graph(5, 4))]


def test_tables_match_the_per_bar_count():
    for name, f in sample_maps():
        grid = critical_values(f)
        bc = level_barcode(f)
        for top in (0, f.complex.dim, 3):
            nums = numbers_from_barcode(report._up_to(bc, top))
            expected = counted_entries(bc, grid, top)
            for family in NUMBER_FAMILIES:
                assert nums.entries(family) == expected[family], (name, top, family)


def test_critical_entries_are_the_entries_at_critical_values(square_circle):
    nums = numbers_from_barcode(level_barcode(square_circle))
    for family in NUMBER_FAMILIES:
        expected = [(e[0], *(i // 2 for i in e[1:-1]), e[-1]) for e in nums.entries(family)
                    if all(i % 2 == 0 for i in e[1:-1])]
        assert expected and nums.critical_entries(family) == expected
    with pytest.raises(KeyError):
        nums.entries("betti")


def test_no_float_is_computed_inside_a_gap(monkeypatch):
    # only the band route slices a gap at a float; the cone, the tables,
    # both conversions, entries and every output read positions only
    def refuse(grid, k):
        raise AssertionError(f"a float inside the gap above {grid.criticals[k]} was computed")

    monkeypatch.setattr(CriticalGrid, "regular_above", refuse)
    maps = [VertexValuedMap(build_complex([[0, 1]]), {0: 1.0, 1: math.nextafter(1.0, 2.0)})]
    maps += [maker() for maker in FIXTURE_MAKERS.values()] + [circle(40, 7)]
    for f in maps:
        doc = report.analyze(f)
        assert all((doc.to_json(), report.result_to_csv(doc), report.numbers_to_csv(doc), report.svg_text(doc)))
        grid = critical_values(f)
        bc = level_barcode(f)
        nums = numbers_from_barcode(bc)
        assert barcode_from_overlaps(nums) == barcode_from_kernels(nums) == bc
        T = grid.criticals
        for name in NUMBER_FAMILIES:
            assert all(entry[-1] for entry in nums.entries(name))
            for r, *ks, count in nums.critical_entries(name):
                assert getattr(nums, name)(r, *(T[k] for k in ks)) == count


# --- one stored form per table ----------------------------------------------------

def test_counted_table_equals_the_band_route_table():
    # a table keeps no trailing degree without a number, so the two routes
    # give equal tables, not only equal accessors
    rng = np.random.default_rng(25)
    maps = [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(60)]
    for k, f in enumerate(maps + seeded_telescopes(10, 26)):
        assert numbers_from_barcode(level_barcode(f)) == compute_relevant_numbers(f), k


def test_max_degree_is_the_last_degree_that_holds_a_number(square_circle):
    # the square circle is 1-dimensional, but no level holds a cycle
    assert numbers_from_barcode(level_barcode(square_circle)).max_degree == 0
    assert compute_relevant_numbers(square_circle).max_degree == 0
    grid = CriticalGrid((0.0, 1.0))
    nums = numbers_from_barcode(LevelBarcode(grid, {}))
    assert nums.max_degree == -1
    assert all(nums.entries(name) == [] for name in NUMBER_FAMILIES)
    pts = grid_values(grid)
    for r in (-1, 0, 1):
        for t in pts:
            assert nums.level_rank(r, t) == 0
            for u in pts:
                assert nums.image_overlap(r, t, u) == nums.up_kernel(r, t, u) == nums.down_kernel(r, u, t) == 0
                assert all(nums.kernel_overlap(r, t, u, d) == 0 for d in pts)


def test_an_all_zero_degree_leaves_the_table_unchanged(octahedron):
    nums = numbers_from_barcode(level_barcode(octahedron))
    n = 2 * len(nums.grid.criticals) - 1
    padded = RelevantNumbers(nums.grid, nums._overlap + [[[0] * (n - i) for i in range(n)]],
                             nums._up + [[[0] * (n - i) for i in range(n)]],
                             nums._down + [[[0] * (i + 1) for i in range(n)]], nums._both + [{}])
    assert nums.max_degree == padded.max_degree == 1
    assert padded == nums and first_difference(padded, nums) == ""


def test_an_empty_degree_between_two_with_bars_is_converted():
    grid = CriticalGrid((0.0, 1.0, 2.0))
    bc = LevelBarcode(grid, {LevelBar(0, 0.0, 2.0, True, True): 1, LevelBar(2, 0.0, 1.0, False, False): 2,
                             LevelBar(2, 1.0, 2.0, True, False): 1})
    nums = numbers_from_barcode(bc)
    assert nums.max_degree == 2 and not any(map(any, nums._overlap[1]))
    assert barcode_from_overlaps(nums) == barcode_from_kernels(nums) == bc


def test_first_difference_names_a_number_above_the_lower_top():
    grid = CriticalGrid((0.0, 1.0, 2.0))
    low = LevelBarcode(grid, {LevelBar(0, 0.0, 2.0, True, True): 1})
    high = LevelBarcode(grid, {**low.counts, LevelBar(1, 1.0, 2.0, False, True): 1})
    a, b = numbers_from_barcode(low), numbers_from_barcode(high)
    assert (a.max_degree, b.max_degree) == (0, 1)
    assert first_difference(a, b) == "down_kernel(1, (1.0, 2.0), 0.0) with count 0 vs 1"


def test_a_bar_of_negative_degree_is_refused():
    with pytest.raises(ValueError, match="negative"):
        LevelBar(-1, 0.0, 1.0, True, True)


# --- conversions against scalar passes over the accessors ----------------------

def _nonneg(value, what, *args):
    if value < 0:
        raise ValueError(f"{what % args} is negative: input numbers are not realizable by a tame map")
    return value


KINDS = ((True, True), (False, False), (False, True), (True, False))


def scalar_overlap_route(nums):
    """Bar counts from image_overlap, one accessor call per term."""
    grid, T = nums.grid, nums.grid.criticals
    below, above = outside(grid)
    pts = [below, *grid_values(grid), above]  # T[k] at 2k + 1, with a regular value on each side
    counts = {}
    for r in range(nums.max_degree + 1):
        ov = lambda x, y: nums.image_overlap(r, x, y)
        for k, tk in enumerate(T):
            for j in range(k, len(T)):
                for lc, rc in KINDS if j > k else KINDS[:1]:
                    x, x_out = (tk, pts[2 * k]) if lc else (pts[2 * k + 2], tk)
                    y, y_out = (T[j], pts[2 * j + 2]) if rc else (pts[2 * j], T[j])
                    m = ov(x, y) - ov(x_out, y) - ov(x, y_out) + ov(x_out, y_out)
                    if m:
                        bar = LevelBar(r, tk, T[j], lc, rc)
                        counts[bar] = _nonneg(m, "count of %s", bar)
    return LevelBarcode(grid, counts)


def scalar_kernel_route(nums):
    """Bar counts from the kernel tables, one accessor call per term, every
    auxiliary count checked where it is used."""
    grid, T = nums.grid, nums.grid.criticals
    n = len(T)
    counts = {}
    for r in range(nums.max_degree + 1):
        oo = {}
        for k in range(n - 1):
            probe = grid.regular_above(k)
            for j in range(k + 1, n):
                e = lambda upper, lower: nums.kernel_overlap(r, probe, upper, lower)
                oo[(k, j)] = _nonneg(e(T[j], T[k]) - e(T[j], T[k + 1]) - e(T[j - 1], T[k]) + e(T[j - 1], T[k + 1]),
                                     "open-open count at (%s, %s) in degree %s", T[k], T[j], r)

        def span(i, j):
            return 0 if i < 0 or j >= n or i > j else nums.image_overlap(r, T[i], T[j])

        def right_open(i, j):
            if i < 0 or j >= n or i >= j:
                return 0
            return _nonneg(nums.up_kernel(r, T[i], T[j]) - nums.up_kernel(r, T[i], T[j - 1]),
                           "auxiliary right-open count at (%s, %s) in degree %s", T[i], T[j], r)

        def left_open(i, j):
            if i < 0 or j >= n or i >= j:
                return 0
            return _nonneg(nums.down_kernel(r, T[j], T[i]) - nums.down_kernel(r, T[j], T[i + 1]),
                           "auxiliary left-open count at (%s, %s) in degree %s", T[i], T[j], r)

        def left_closed(i, j):
            if i < 0 or j >= n or i > j:
                return 0
            return _nonneg(span(i, j) - span(i - 1, j) - left_open(i - 1, j),
                           "auxiliary left-closed count at [%s, %s) in degree %s", T[i], T[j], r)

        oc, co, cc = {}, {}, {}
        for k in range(n):
            for j in range(n - 1, k, -1):
                oc[(k, j)] = _nonneg(left_open(k, j) - left_open(k, j + 1) - oo.get((k, j + 1), 0),
                                     "open-closed count at (%s, %s] in degree %s", T[k], T[j], r)
        for j in range(n):
            for k in range(j):
                co[(k, j)] = _nonneg(right_open(k, j) - right_open(k - 1, j) - oo.get((k - 1, j), 0),
                                     "closed-open count at [%s, %s) in degree %s", T[k], T[j], r)
        for k in range(n):
            for j in range(n - 1, k - 1, -1):
                cc[(k, j)] = _nonneg(left_closed(k, j) - left_closed(k, j + 1) - co.get((k, j + 1), 0),
                                     "closed-closed count at [%s, %s] in degree %s", T[k], T[j], r)
        for (lc, rc), table in zip(KINDS, (cc, oo, oc, co)):
            for (k, j), m in table.items():
                if m:
                    counts[LevelBar(r, T[k], T[j], lc, rc)] = m
    return LevelBarcode(grid, counts)


def outcome(route, nums):
    try:
        return route(nums)
    except ValueError as exc:
        return str(exc)


def corrupted(rng, nums):
    """nums with one to three entries of one family moved, at critical
    arguments half the time, so that one pass meets several negatives."""
    pts, P = grid_values(nums.grid), len(nums.grid.criticals)
    name = NUMBER_FAMILIES[int(rng.integers(0, 5))]
    probe = 2 * int(rng.integers(0, P - 1)) + 1 if P > 1 else 0  # one probe of the kernel route
    for _ in range(int(rng.integers(1, 4))):
        r = int(rng.integers(0, nums.max_degree + 1))
        critical = rng.random() < 0.5
        at = [int(i) for i in (2 * rng.integers(0, P, size=3) if critical else rng.integers(0, len(pts), size=3))]
        d, t, u = sorted(at)
        if critical and name == "kernel_overlap" and P > 1:  # the terms of one open-open row
            d, t, u = probe - 1, probe, max(u, probe + 1)
        key = {"level_rank": (r, pts[d]), "image_overlap": (r, pts[d], pts[u]), "up_kernel": (r, pts[d], pts[u]),
               "down_kernel": (r, pts[u], pts[d]), "kernel_overlap": (r, pts[t], pts[u], pts[d])}[name]
        nums = bumped(nums, name, key, int(rng.choice([-2, -1, 1, 2])))
    return nums


def test_conversions_match_scalar_passes_on_corrupted_tables():
    # the first negative count named must be the scalar pass's
    rng = np.random.default_rng(17)
    maps = [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(12)]
    maps.append(circle(9, 6))
    raised = 0
    for f in maps:
        nums = numbers_from_barcode(level_barcode(f))
        for fast, scalar in ((barcode_from_overlaps, scalar_overlap_route),
                             (barcode_from_kernels, scalar_kernel_route)):
            assert outcome(fast, nums) == outcome(scalar, nums)
            for _ in range(40):
                bad = corrupted(rng, nums)
                expected = outcome(scalar, bad)
                assert outcome(fast, bad) == expected
                raised += isinstance(expected, str)
    assert raised > 400


def test_each_conversion_reads_only_its_tables():
    # barcode_from_kernels reads image_overlap only at pairs of critical
    # values; barcode_from_overlaps reads no kernel table
    for name, f in sample_maps():
        grid = critical_values(f)
        for top in (0, f.complex.dim):
            nums = numbers_from_barcode(report._up_to(level_barcode(f), top))
            at_criticals = [[[m if i % 2 == o % 2 == 0 else 0 for o, m in enumerate(row)]
                             for i, row in enumerate(rows)] for rows in nums._overlap]
            up, down = ([[[0] * len(row) for row in rows] for rows in table] for table in (nums._up, nums._down))
            kernels = RelevantNumbers(grid, at_criticals, nums._up, nums._down, nums._both)
            overlaps = RelevantNumbers(grid, nums._overlap, up, down, [{} for _ in nums._both])
            assert barcode_from_kernels(kernels) == barcode_from_kernels(nums), (name, top)
            assert barcode_from_overlaps(overlaps) == barcode_from_overlaps(nums), (name, top)


# --- the JSON emitter --------------------------------------------------------

def cli_documents(doc):
    """The documents the CLI writes for analyze, level, sublevel and numbers."""
    return [vars(doc),
            {"criticals": doc.criticals, "level_bars": doc.level_bars},
            {"criticals": doc.criticals, "sublevel_bars": doc.sublevel_bars},
            {"criticals": doc.criticals, "numbers": doc.numbers}]


def test_emitter_equals_json_dumps():
    docs = []
    for f in [maker() for maker in FIXTURE_MAKERS.values()] + [circle(20, 4), grid_map(4, 5)]:
        docs += cli_documents(report.analyze(f))

    def with_checks(f):
        return dataclasses.replace(report.analyze(f), checks=[dataclasses.asdict(c) for c in report.run_checks(f)])

    docs += cli_documents(with_checks(FIXTURE_MAKERS["circle"]()))
    docs += cli_documents(with_checks(report.parse_input('{"vertices": [], "maximal_simplices": []}')))
    failing = with_checks(FIXTURE_MAKERS["edge"]())
    failing.checks[0] = {"name": "bridge_identity", "passed": False,
                         "detail": 'bars differ at "H0 [0.0, 1.0]" \\ naïve – 数'}
    docs += cli_documents(failing)
    for doc in docs:
        assert report.json_text(doc) == json.dumps(doc, indent=2)
    assert failing.to_json() == json.dumps(vars(failing), indent=2)


@pytest.mark.parametrize("obj", [
    {}, [], "x", 0, None, True, 1.5, {"a": []}, {"a": {}},
    [{"a": 1}, {"b": 2}, {"a": 1}],          # two key sequences in one list
    [{"a": [1, 2]}, {"a": {"b": None}}],      # rows with nested values
    [{1: "x"}], {"n": float("nan")},          # a non-str key, a float
    [{"%s": "%d"}], [{"a%%b": 1, "5%": 2}],   # percent signs in keys
    [[1, [2]], [{}]],                         # nested lists
])
def test_emitter_equals_json_dumps_on_odd_values(obj):
    assert report.json_text(obj) == json.dumps(obj, indent=2)


def test_cli_documents_equal_json_dumps(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({
        "vertices": [{"id": i, "value": v} for i, v in enumerate([0, 1, 2, 1])],
        "maximal_simplices": [[0, 1], [0, 3], [1, 2], [2, 3]],
    }))
    doc = report.analyze(report.parse_input(path.read_text()))
    for command, expected in zip(("analyze", "level", "sublevel", "numbers"), cli_documents(doc)):
        out = tmp_path / f"{command}.json"
        assert main([command, "--input", str(path), "--output", str(out)]) == 0
        assert out.read_text() == json.dumps(expected, indent=2)
