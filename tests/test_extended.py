"""The cone reduction (level_barcode) against the band route, and on
inputs the band route cannot reach in reasonable time."""

import json
import logging
import tracemalloc

import numpy as np
import pytest

import levelpers.report as report
from levelpers import (
    CellComplex,
    GradedBoundary,
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
    homology_of,
    level_barcode,
    lower_star_filtration,
    numbers_from_barcode,
    sublevel_barcode,
    sublevel_from_level,
    telescope,
)
from levelpers.level import first_difference
from levelpers.sublevel import INF, boundary_columns, filtration_order
from global_reduction import graded_reference, left_to_right_reduce
from conftest import (FIXTURE_MAKERS, bumped, from_dense, grid_triangles, grid_values, outside,
                      random_filtration, random_vertex_map, seeded_telescopes)


def band_barcode(f, max_degree=None):
    return barcode_from_overlaps(compute_relevant_numbers(f, max_degree))


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
        full = level_barcode(f)
        cone = LevelBarcode(full.grid, {bar: m for bar, m in full.counts.items() if bar.degree <= top})
        band = band_barcode(f, top)
        assert cone == band, first_difference(cone, band)
        assert full.max_degree() <= f.complex.dim


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
        sublevel_bars=report._sublevel_rows(sublevel_barcode(f)),
        level_bars=report._level_rows(barcode_from_overlaps(nums)),
        numbers=report._number_rows(nums, grid),
    )


def probed_number_rows(nums, grid):
    """The document's number tables probed through the accessors over
    critical tuples in (degree, t, u, d) order."""
    T = grid.criticals
    out = {name: [] for name in ("level_rank", "image_overlap", "up_kernel", "down_kernel", "kernel_overlap")}

    def row(name, count, **args):
        if count:
            out[name].append({"degree": r, **{k: report.fmt_value(x) for k, x in args.items()}, "count": count})

    for r in range(nums.max_degree + 1):
        for i, t in enumerate(T):
            row("level_rank", nums.level_rank(r, t), t=t)
            for u in T[i:]:
                row("image_overlap", nums.image_overlap(r, t, u), t=t, u=u)
                row("up_kernel", nums.up_kernel(r, t, u), t=t, u=u)
            for d in T[: i + 1]:
                row("down_kernel", nums.down_kernel(r, t, d), t=t, d=d)
            for u in T[i:]:
                for d in T[: i + 1]:
                    row("kernel_overlap", nums.kernel_overlap(r, t, u, d), t=t, u=u, d=d)
    return out


def test_number_rows_match_probed_tables():
    # the JSON text pins row order and key order, which dict equality ignores
    rng = np.random.default_rng(12)
    maps = [maker() for maker in FIXTURE_MAKERS.values()]
    maps += [random_vertex_map(rng) for _ in range(40)]
    for k, f in enumerate(maps):
        grid = critical_values(f)
        bc = level_barcode(f)
        tables = [numbers_from_barcode(report._up_to(bc, top)) for top in (0, f.complex.dim, 3)]
        if k < len(FIXTURE_MAKERS):
            tables.append(compute_relevant_numbers(f, grid=grid))
        for nums in tables:
            assert json.dumps(report._number_rows(nums, grid)) == json.dumps(probed_number_rows(nums, grid))


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
    bc = level_barcode(f)
    assert bc.counts
    nums = numbers_from_barcode(bc)
    assert barcode_from_overlaps(nums) == bc
    assert barcode_from_kernels(nums) == bc
    assert sublevel_from_level(bc) == sublevel_barcode(f)
    builder = SlabBuilder(f)
    for x in (*outside(grid), *grid_values(grid)[1::2]):
        betti = betti_numbers(builder.level(x), top)
        assert [nums.level_rank(r, x) for r in range(top + 1)] == list(betti), x


# --- one reduction per analyze ---------------------------------------------------

def hollow_tetrahedron():
    cx = build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    return VertexValuedMap(cx, {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0})


def seeded_grids(count, seed):
    """3 x 3 triangulated grids with distinct values in a seeded order."""
    rng = np.random.default_rng(seed)
    cx = build_complex(grid_triangles(3))
    maps = []
    for _ in range(count):
        values = rng.permutation(len(cx.vertices))
        maps.append(VertexValuedMap(cx, {v: float(values[i]) for i, v in enumerate(cx.vertices)}))
    return maps


def test_analyze_reads_sublevel_bars_off_the_cone():
    rng = np.random.default_rng(47)
    maps = [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(40)]
    maps += seeded_grids(6, 48) + [hollow_tetrahedron()]
    for f in maps:
        expected = report._sublevel_rows(sublevel_barcode(f))
        for m in (None, 0, 1):
            assert report.analyze(f, max_degree=m).sublevel_bars == expected, (f, m)
    # sub-level H2 comes from level H2, which the document cuts at max_degree 0
    top_bar = {"degree": 2, "birth": "3.0", "death": None, "multiplicity": 1}
    assert top_bar in report.analyze(hollow_tetrahedron(), max_degree=0).sublevel_bars


def test_analyze_runs_one_column_reduction(monkeypatch, octahedron):
    calls = []

    def counting(reduce):
        def wrapper(matrix):
            calls.append(matrix.cols)
            return reduce(matrix)
        return wrapper

    for module in ("levelpers.level", "levelpers.sublevel"):
        monkeypatch.setattr(f"{module}.column_reduce", counting(column_reduce))
    report.analyze(octahedron)
    assert calls == [2 * len(octahedron.complex.simplices) + 1]


def test_bridge_check_passes_below_the_dimension():
    # the bridge needs level bars one degree above max_degree
    for f in seeded_grids(4, 49) + [hollow_tetrahedron()]:
        results = {c.name: c for c in report.run_checks(f, max_degree=0)}
        assert all(c.passed for c in results.values()), results
        assert results["bridge_identity"].detail == "sub-level degrees 0..1"
        full = {c.name: c for c in report.run_checks(f, max_degree=1)}["bridge_identity"]
        assert full.passed and full.detail == ""


# --- one builder per check ----------------------------------------------------------

def count_constructions(monkeypatch):
    """Record every SlabBuilder and the slice values of every CellComplex built."""
    builders = []
    complexes = []
    builder_init = SlabBuilder.__init__
    complex_init = CellComplex.__init__

    def counting_builder(self, f):
        builders.append(f)
        builder_init(self, f)

    def counting_complex(self, chunks, slice_values):
        complexes.append(tuple(slice_values))
        complex_init(self, chunks, slice_values)

    monkeypatch.setattr(SlabBuilder, "__init__", counting_builder)
    monkeypatch.setattr(CellComplex, "__init__", counting_complex)
    return builders, complexes


@pytest.mark.parametrize("max_degree", [None, 0])
def test_run_checks_builds_each_complex_once(monkeypatch, max_degree):
    # max_degree 0 on a 2-dimensional grid also runs the bridge's own band-route call
    maps = seeded_grids(2, 50) + [FIXTURE_MAKERS["octahedron"]()]
    builders, complexes = count_constructions(monkeypatch)
    for f in maps:
        builders.clear()
        complexes.clear()
        results = report.run_checks(f, max_degree=max_degree)
        assert all(c.passed for c in results), results
        assert len(builders) == 1
        assert complexes and len(set(complexes)) == len(complexes)


def test_shared_builder_gives_the_same_numbers(monkeypatch):
    rng = np.random.default_rng(51)
    for f in [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(10)]:
        builder = SlabBuilder(f)
        first = compute_relevant_numbers(f, builder=builder)
        assert first == compute_relevant_numbers(f)
        _, complexes = count_constructions(monkeypatch)
        assert compute_relevant_numbers(f, builder=builder) == first
        assert complexes == []
        monkeypatch.undo()


def test_widened_grid_reduces_only_the_pairs_at_its_new_values(monkeypatch):
    # redundant_critical_invariance reruns the band route with one more critical value
    import levelpers.level as level

    kernel_in_band = level._kernel_in_band
    widened = []  # per widened call: (grid, builder, the pairs read before it, its per-level reductions)
    current = []  # the reductions of the widened call under way

    def readings(builder):
        return {(x, y, r) for (x, y), known in builder._pairs.items() for r in known}

    def numbers(f, max_degree=None, *, grid=None, builder=None):
        if grid is None:
            return compute_relevant_numbers(f, max_degree, builder=builder)
        widened.append((grid, builder, readings(builder), []))
        current.append(widened[-1][3])
        try:
            return compute_relevant_numbers(f, max_degree, grid=grid, builder=builder)
        finally:
            current.pop()

    def counting(table, reps):
        if current:
            current[-1].append(reps)
        return kernel_in_band(table, reps)

    monkeypatch.setattr(report, "compute_relevant_numbers", numbers)
    monkeypatch.setattr(level, "_kernel_in_band", counting)
    rng = np.random.default_rng(52)
    maps = [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(20)]
    reduced = 0
    for f in maps + seeded_grids(3, 53):
        widened.clear()
        results = {c.name: c for c in report.run_checks(f)}
        assert results["redundant_critical_invariance"].passed
        if not results["redundant_critical_invariance"].detail.startswith("probe at"):
            assert widened == []
            continue
        ((wide, builder, before, reductions),) = widened
        old = set(grid_values(critical_values(f)))
        pts = grid_values(wide)
        expected = 0
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                if x in old and y in old:
                    continue
                ends = builder.level(x), builder.level(y)
                expected += 2 * sum(1 for r in range(f.complex.dim + 1)
                                    if any(homology_of(c, r).betti for c in ends))
        assert len(reductions) == expected
        read = readings(builder) - before
        assert len(reductions) == 2 * len(read)  # the levels at both ends of each pair read
        for x, y, _ in read:
            assert not {x, y} <= old  # every reduced pair holds a new value
        reduced += len(reductions)
    assert reduced > 100


def test_builder_of_another_map_is_refused(square_circle, v_map):
    with pytest.raises(ValueError, match="another map"):
        compute_relevant_numbers(square_circle, builder=SlabBuilder(v_map))
    twin = VertexValuedMap(square_circle.complex, dict(square_circle.values))
    with pytest.raises(ValueError, match="another map"):
        compute_relevant_numbers(square_circle, builder=SlabBuilder(twin))


# --- the reduction core ----------------------------------------------------------

def test_bit_column_core_matches_dense_wrapper():
    rng = np.random.default_rng(8)
    for _ in range(20):
        order = lower_star_filtration(random_vertex_map(rng))
        index, columns = boundary_columns(order)
        dense = []
        for d, rows in enumerate(order):
            m = np.zeros((len(order[d - 1]) if d else 0, len(rows)), dtype=np.uint8)
            for j, (s, _) in enumerate(rows):
                for i in range(len(s) if d else 0):
                    m[index[s[:i] + s[i + 1:]], j] = 1
            dense.append(list(from_dense(m).columns))
        entries = [[x for _, x in rows] for rows in order]
        assert column_reduce(GradedBoundary(columns, entries)) == column_reduce(GradedBoundary(dense, entries))


def test_bit_column_core_rejects_bad_order():
    with pytest.raises(ValueError, match="column 0 of dimension 1 enters at 1.0, before its face at row 1"):
        column_reduce(GradedBoundary([[0, 0], [0b11]], [[0.0, 2.0], [1.0]]))


def lower_star_boundary(f):
    order = filtration_order(f)
    return GradedBoundary(boundary_columns(order)[1], [[x for _, x in rows] for rows in order])


def test_clearing_matches_left_to_right_on_lower_star_boundaries():
    # the graded reduction against the global one on the merged order,
    # with clearing and without
    rng = np.random.default_rng(2011)
    maps = [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(260)]
    for f in maps + seeded_telescopes(40, 2014):
        boundary = lower_star_boundary(f)
        reduced = column_reduce(boundary)
        assert reduced == graded_reference(boundary) == graded_reference(boundary, left_to_right_reduce)


def test_clearing_matches_left_to_right_on_the_cone(monkeypatch):
    cones = []

    def recording(boundary):
        cones.append(boundary)
        return column_reduce(boundary)

    monkeypatch.setattr("levelpers.level.column_reduce", recording)
    rng = np.random.default_rng(2012)
    maps = [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(60)]
    for f in maps + seeded_telescopes(20, 2013) + seeded_grids(3, 2015):
        level_barcode(f)
    assert len(cones) == len(FIXTURE_MAKERS) + 83
    for boundary in cones:
        reduced = column_reduce(boundary)
        assert reduced == graded_reference(boundary) == graded_reference(boundary, left_to_right_reduce)


def test_clearing_refuses_a_matrix_that_is_not_graded():
    # three vertices and two edges; the triangle's boundary has an entry
    # at row 2 of dimension 1, which holds two edges
    with pytest.raises(ValueError) as exc:
        column_reduce(GradedBoundary([[0, 0, 0], [0b011, 0b110], [0b101]], [[0.0] * 3, [0.0] * 2, [0.0]]))
    assert str(exc.value) == "column 0 of dimension 2 has an entry at row 2, past the 2 cells of dimension 1"


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

    def shifted(f):
        bc = level_barcode(f)
        return LevelBarcode(bc.grid, {LevelBar(1, 0.0, 2.0, True, True): 1, **bc.counts})

    monkeypatch.setattr(report, "level_barcode", shifted)
    results = {c.name: c for c in report.run_checks(square_circle)}
    assert not results["conversion_agreement"].passed
    assert "H1 [0.0, 2.0] with multiplicity 0 vs 1" in results["conversion_agreement"].detail


def test_numbers_round_trip_names_the_first_differing_entry(monkeypatch, square_circle):
    real = report.numbers_from_barcode
    monkeypatch.setattr(report, "numbers_from_barcode", lambda bc: bumped(
        real(bc), "image_overlap", (0, 0.5, 1.5), 1))
    results = {c.name: c for c in report.run_checks(square_circle)}
    assert not results["numbers_round_trip"].passed
    assert results["numbers_round_trip"].detail == ("numbers -> bars -> numbers is not the identity at "
                                                    "image_overlap(0, (0.0, 1.0), (1.0, 2.0)) with count 3 vs 2")


def test_betti_round_trip_names_the_first_differing_bar(monkeypatch, square_circle):
    real = report.bars_from_betti

    def dropping(table):
        sb = real(table)
        return SublevelBarcode(sb.grid, {key: m for key, m in sb.bars.items() if key != min(sb.bars)})

    monkeypatch.setattr(report, "bars_from_betti", dropping)
    results = {c.name: c for c in report.run_checks(square_circle)}
    assert not results["betti_multiplicity_round_trip"].passed
    assert results["betti_multiplicity_round_trip"].detail == \
        "bars -> Betti -> bars is not the identity at H0 [0.0, inf) with multiplicity 0 vs 1"


# --- observability ---------------------------------------------------------------

def test_stage_records_carry_sizes(caplog, octahedron):
    assert logging.getLogger("levelpers").handlers == []
    quiet = report.analyze(octahedron).to_json()
    with caplog.at_level(logging.DEBUG, logger="levelpers"):
        loud = report.analyze(octahedron).to_json()
    assert loud == quiet
    messages = [r.getMessage() for r in caplog.records if r.name == "levelpers"]
    stages = [m.split(":", 1)[0] for m in messages]
    assert stages == ["cone reduction", "level route", "numbers", "conversions", "sub-level"]
    n = len(octahedron.complex.simplices)
    assert messages[0].startswith(f"cone reduction: {n} simplices, {2 * n + 1} cone columns")
    assert messages[1].startswith("level route: 2 bars over 3 critical values")
    assert messages[2].startswith("numbers: degrees 0..1 over 3 critical values")  # H0 and H1 of a 2-complex
    assert json.loads(loud)["level_bars"]
