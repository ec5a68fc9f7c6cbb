"""The cone reduction (level_barcode) against the band route, and on
inputs the band route cannot reach in reasonable time."""

import json
import logging
import tracemalloc

import numpy as np
import pytest

import levelpers.report as report
from levelpers import (
    BitMatrix,
    Filtration,
    LevelBar,
    LevelBarcode,
    SlabBuilder,
    SublevelBarcode,
    VertexValuedMap,
    barcode_from_kernels,
    barcode_from_overlaps,
    betti_numbers,
    build_complex,
    column_reduce,
    compute_relevant_numbers,
    critical_values,
    level_barcode,
    lower_star_filtration,
    numbers_from_barcode,
    sublevel_barcode,
    sublevel_from_level,
    telescope,
)
from levelpers.level import first_difference
from levelpers.sublevel import INF
from conftest import FIXTURE_MAKERS, random_vertex_map


def band_barcode(f, max_degree=None):
    return barcode_from_overlaps(compute_relevant_numbers(f, max_degree))


def grid_triangles(k):
    """Triangles of a k x k vertex grid, each square cut along a diagonal."""
    tris = []
    for r in range(k - 1):
        for c in range(k - 1):
            a, b, d, e = r * k + c, r * k + c + 1, (r + 1) * k + c, (r + 1) * k + c + 1
            tris += [[a, b, e], [a, d, e]]
    return tris


def random_filtration(rng, maximal, stages):
    """Each maximal simplex enters at a random stage; vertex 0 at stage 0."""
    entry = rng.integers(0, stages, size=len(maximal))
    complexes = [build_complex([[0]] + [s for s, e in zip(maximal, entry) if e <= i])
                 for i in range(stages)]
    return Filtration(complexes, [float(t) for t in range(stages)])


# --- agreement with the band route ---------------------------------------------

@pytest.mark.parametrize("name", sorted(FIXTURE_MAKERS))
def test_fixtures_match_band_route(name):
    f = FIXTURE_MAKERS[name]()
    assert level_barcode(f) == band_barcode(f)


def test_random_maps_match_band_route():
    rng = np.random.default_rng(2014)
    for k in range(200):
        f = random_vertex_map(rng)
        cone, band = level_barcode(f), band_barcode(f)
        assert cone == band, f"map {k}: {first_difference(cone, band)}"


@pytest.mark.parametrize("above_dim", [False, True])
def test_degree_cutoff_matches_band_route(above_dim):
    rng = np.random.default_rng(99)
    for _ in range(30):
        f = random_vertex_map(rng)
        top = f.complex.dim + 2 if above_dim else 0
        cone, band = level_barcode(f, max_degree=top), band_barcode(f, top)
        assert cone == band, first_difference(cone, band)
        assert cone.max_degree() <= top


def test_telescopes_match_band_route():
    rng = np.random.default_rng(5)
    for _ in range(12):
        maximal = [sorted(int(v) for v in rng.choice(6, size=size, replace=False))
                   for size in (3, 3, 2, 2, 2)]
        f = telescope(random_filtration(rng, maximal, int(rng.integers(2, 5))))
        cone, band = level_barcode(f), band_barcode(f)
        assert cone == band, first_difference(cone, band)


def band_route_document(f):
    """The analyze document assembled from the band route instead."""
    grid = critical_values(f)
    top = f.complex.dim
    nums = compute_relevant_numbers(f, top, grid=grid)
    return report.ResultDocument(
        criticals=[report.fmt_value(t) for t in grid.criticals],
        max_degree=top,
        sublevel_bars=report._sublevel_rows(sublevel_barcode(f, grid)),
        level_bars=report._level_rows(barcode_from_overlaps(nums)),
        numbers=report._number_rows(nums, grid),
    )


def test_analyze_document_equals_band_route_document():
    rng = np.random.default_rng(11)
    maps = [maker() for maker in FIXTURE_MAKERS.values()]
    maps += [random_vertex_map(rng) for _ in range(15)]
    for f in maps:
        assert report.analyze(f).to_json() == band_route_document(f).to_json()


# --- inputs beyond the band route --------------------------------------------

def large_circle():
    rng = np.random.default_rng(200)
    cx = build_complex([[i, (i + 1) % 200] for i in range(200)])
    return VertexValuedMap(cx, {i: float(rng.integers(0, 8)) for i in range(200)})


def large_grid():
    rng = np.random.default_rng(30)
    cx = build_complex(grid_triangles(30))
    return VertexValuedMap(cx, {v: float(rng.integers(0, 6)) for v in cx.vertices})


def large_telescope():
    rng = np.random.default_rng(4)
    return telescope(random_filtration(rng, grid_triangles(8), 4))


def test_sublevel_memory_grows_with_the_columns_not_their_square():
    # 9,283 simplices: a rows x cols array of bytes would take 86 MB alone
    rng = np.random.default_rng(40)
    cx = build_complex(grid_triangles(40))
    values = rng.permutation(len(cx.vertices))
    f = VertexValuedMap(cx, {v: float(values[i]) for i, v in enumerate(cx.vertices)})
    tracemalloc.start()
    try:
        sublevel_barcode(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("maker", [large_circle, large_grid, large_telescope])
def test_large_inputs_are_consistent(maker):
    f = maker()
    grid = critical_values(f)
    top = f.complex.dim
    bc = level_barcode(f, grid)
    assert bc.counts
    nums = numbers_from_barcode(bc, grid, top)
    assert barcode_from_overlaps(nums) == bc
    assert barcode_from_kernels(nums) == bc
    assert sublevel_from_level(bc, top) == sublevel_barcode(f, grid)
    builder = SlabBuilder(f)
    for x in grid.regulars:
        betti = betti_numbers(builder.level(x), top)
        assert [nums.level_rank(r, x) for r in range(top + 1)] == list(betti), x


# --- the reduction core ----------------------------------------------------------

def test_bit_column_core_matches_dense_wrapper():
    rng = np.random.default_rng(8)
    for _ in range(20):
        order = lower_star_filtration(random_vertex_map(rng))
        index = {s: i for i, (s, _) in enumerate(order)}
        columns = []
        dense = np.zeros((len(order), len(order)), dtype=np.uint8)
        for j, (s, _) in enumerate(order):
            bits = 0
            for i in range(len(s) if len(s) > 1 else 0):
                bits |= 1 << index[s[:i] + s[i + 1:]]
                dense[index[s[:i] + s[i + 1:]], j] = 1
            columns.append(bits)
        bit_columns = BitMatrix.from_bits(columns, len(order))
        assert column_reduce(bit_columns) == column_reduce(BitMatrix(dense))


def test_bit_column_core_rejects_bad_order():
    with pytest.raises(ValueError, match="column 1 violates the filtration order"):
        column_reduce(BitMatrix.from_bits([0, 0b10], 2))


# --- first difference and cross-validation -----------------------------------

def test_first_difference_names_one_bar(square_circle):
    bc = level_barcode(square_circle)
    assert first_difference(bc, bc) == ""
    counts = dict(bc.counts)
    counts[LevelBar(0, 0.0, 2.0, False, False)] += 1
    other = LevelBarcode(bc.grid, counts)
    assert first_difference(bc, other) == "H0 (0.0, 2.0) with multiplicity 1 vs 2"
    sb = sublevel_barcode(square_circle)
    fewer = SublevelBarcode(sb.grid, {k: m for k, m in sb.bars.items() if k[2] != INF})
    assert first_difference(sb, fewer) == "H0 [0.0, inf) with multiplicity 1 vs 0"


def test_analyze_raises_when_a_conversion_disagrees(monkeypatch, square_circle):
    def broken(nums):
        bc = barcode_from_kernels(nums)
        return LevelBarcode(bc.grid, {bar: m + 1 for bar, m in bc.counts.items()})

    monkeypatch.setattr(report, "barcode_from_kernels", broken)
    expected = r"broken does not reproduce .*: H0 \(0.0, 2.0\) with multiplicity 1 vs 2"
    with pytest.raises(RuntimeError, match=expected):
        report.analyze(square_circle)


def test_check_compares_band_route_with_cone(monkeypatch, square_circle):
    results = {c.name: c for c in report.run_checks(square_circle)}
    assert results["conversion_agreement"].passed
    assert results["conversion_agreement"].detail == ""

    def shifted(f, grid, top):
        bc = level_barcode(f, grid, top)
        return LevelBarcode(bc.grid, {LevelBar(1, 0.0, 2.0, True, True): 1, **bc.counts})

    monkeypatch.setattr(report, "level_barcode", shifted)
    results = {c.name: c for c in report.run_checks(square_circle)}
    assert not results["conversion_agreement"].passed
    assert "H1 [0.0, 2.0] with multiplicity 0 vs 1" in results["conversion_agreement"].detail


# --- observability ---------------------------------------------------------------

def test_stage_records_carry_sizes(caplog, octahedron):
    assert logging.getLogger("levelpers").handlers == []
    quiet = report.analyze(octahedron).to_json()
    with caplog.at_level(logging.DEBUG, logger="levelpers"):
        loud = report.analyze(octahedron).to_json()
    assert loud == quiet
    messages = [r.getMessage() for r in caplog.records if r.name == "levelpers"]
    stages = [m.split(":", 1)[0] for m in messages]
    assert stages == ["grid", "cone reduction", "level route", "numbers", "conversions", "sub-level"]
    assert messages[0].startswith(f"grid: {len(octahedron.complex.simplices)} simplices, 3 critical values")
    n = len(octahedron.complex.simplices)
    assert f"{n} simplices, {2 * n + 1} cone columns" in messages[1]
    assert json.loads(loud)["level_bars"]
