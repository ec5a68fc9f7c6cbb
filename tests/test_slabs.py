import numpy as np
import pytest

from levelpers import (
    Cell,
    SlabBuilder,
    betti_numbers,
    build_complex,
    homology_of,
    include_level,
    induced_map,
    rank,
    validate,
    VertexValuedMap,
    critical_values,
)
from levelpers.complexes import facets
from conftest import FIXTURE_MAKERS, grid_values, random_vertex_map, seeded_telescopes


def test_circle_level_regular(square_circle):
    lv = SlabBuilder(square_circle).level(0.5)
    assert len(lv) == 2
    assert betti_numbers(lv, 1) == (2, 0)


def test_circle_level_critical_degenerates_to_vertices(square_circle):
    lv = SlabBuilder(square_circle).level(1.0)
    assert set(lv.cells) == {Cell((1,), 1.0, 1.0), Cell((3,), 1.0, 1.0)}


def test_octahedron_level_zero_is_equator(octahedron):
    lv = SlabBuilder(octahedron).level(0.0)
    assert len(lv.cells_of_dim(0)) == 4
    assert len(lv.cells_of_dim(1)) == 4
    assert betti_numbers(lv, 1) == (1, 1)


def test_octahedron_level_half_is_circle(octahedron):
    lv = SlabBuilder(octahedron).level(0.5)
    assert len(lv.cells_of_dim(0)) == 4  # edge crossings
    assert len(lv.cells_of_dim(1)) == 4  # triangle slices
    assert betti_numbers(lv, 1) == (1, 1)


def test_level_outside_range_is_empty(square_circle):
    assert len(SlabBuilder(square_circle).level(-3.0)) == 0
    assert betti_numbers(SlabBuilder(square_circle).level(9.0), 0) == (0,)


def test_interlevel_two_arcs(square_circle):
    band = SlabBuilder(square_circle).interlevel(0.5, 1.5)
    assert betti_numbers(band, 1) == (2, 0)
    assert band.euler_characteristic() == 2


def test_interlevel_whole_circle(square_circle):
    band = SlabBuilder(square_circle).interlevel(0.0, 2.0)
    assert betti_numbers(band, 1) == (1, 1)


def test_interlevel_lower_hemisphere(octahedron):
    band = SlabBuilder(octahedron).interlevel(-1.0, 0.0)
    assert betti_numbers(band, 1) == (1, 0)


def test_interlevel_rejects_reversed():
    f = VertexValuedMap(build_complex([[0, 1]]), {0: 0.0, 1: 1.0})
    with pytest.raises(ValueError):
        SlabBuilder(f).interlevel(1.0, 0.0)


def test_interlevel_at_a_point_equals_level(square_circle):
    for t in (0.0, 0.5, 1.0, 2.0):
        band = SlabBuilder(square_circle).interlevel(t, t)
        lv = SlabBuilder(square_circle).level(t)
        assert set(band.cells) == set(lv.cells)
        assert band.boundary == lv.boundary


def test_include_identity(square_circle):
    inc = include_level(SlabBuilder(square_circle).level(1.0), SlabBuilder(square_circle).interlevel(1.0, 1.0))
    assert set(inc.src.cells) == set(inc.dst.cells)


def test_include_rejects_interior_value(square_circle):
    builder = SlabBuilder(square_circle)
    with pytest.raises(ValueError, match="level value must be an endpoint of the interval"):
        include_level(builder.level(1.0), builder.interlevel(0.0, 2.0))


def test_include_circle_bottom_wedge(square_circle):
    builder = SlabBuilder(square_circle)
    inc = include_level(builder.level(0.5), builder.interlevel(0.0, 0.5))
    m = induced_map(homology_of(inc.src, 0), homology_of(inc.dst, 0), inc.chain_matrix(0))
    assert rank(m) == 1  # the bottom wedge is connected


def test_include_circle_two_arcs_iso(square_circle):
    builder = SlabBuilder(square_circle)
    inc = include_level(builder.level(0.5), builder.interlevel(0.5, 1.5))
    m = induced_map(homology_of(inc.src, 0), homology_of(inc.dst, 0), inc.chain_matrix(0))
    assert m.rows == 2 and m.cols == 2
    assert rank(m) == 2


def test_homology_of_empty():
    f = VertexValuedMap(build_complex([[0]]), {0: 0.0})
    lv = SlabBuilder(f).level(5.0)
    assert all(homology_of(lv, r).betti == 0 for r in range(3))


def test_validate_reports_corrupted_cell(octahedron):
    band = SlabBuilder(octahedron).interlevel(-1.0, 0.0)
    victim = next(c for c in band.cells if band.dims[c] == 2)
    dropped = set(band.boundary[victim])
    dropped.pop()
    band.boundary[victim] = frozenset(dropped)
    with pytest.raises(ValueError, match="boundary of boundary"):
        validate(band)


def test_boundary_of_slab_triangle(octahedron):
    band = SlabBuilder(octahedron).interlevel(-1.0, 0.0)
    slab = Cell((0, 2, 3), -1.0, 0.0)
    assert band.dims[slab] == 2
    assert band.boundary[slab] == {
        Cell((2, 3), 0.0, 0.0),      # equator edge at the top
        Cell((0, 2), -1.0, 0.0),     # two slab edges down to the pole
        Cell((0, 3), -1.0, 0.0),
    }


def test_random_suite_structural_invariants():
    rng = np.random.default_rng(21)
    for _ in range(25):
        f = random_vertex_map(rng)
        values = sorted(set(f.values.values()))
        lo, hi = values[0], values[-1]
        builder = SlabBuilder(f)
        a = float(rng.uniform(lo, hi))
        b = float(rng.uniform(a, hi))
        for c in (builder.level(a), builder.interlevel(a, b)):
            validate(c)
            betti = betti_numbers(c)
            assert sum((-1) ** r * x for r, x in enumerate(betti)) == c.euler_characteristic()
        point_band = SlabBuilder(f).interlevel(a, a)
        assert set(point_band.cells) == set(builder.level(a).cells)


def test_same_gap_levels_have_equal_betti():
    rng = np.random.default_rng(22)
    for _ in range(12):
        f = random_vertex_map(rng)
        values = sorted(set(f.values.values()))
        builder = SlabBuilder(f)
        for lo, hi in zip(values, values[1:]):
            p1 = lo + (hi - lo) * 0.25
            p2 = lo + (hi - lo) * 0.75
            assert betti_numbers(builder.level(p1), f.complex.dim) == \
                betti_numbers(builder.level(p2), f.complex.dim)


def test_refinement_independence():
    rng = np.random.default_rng(23)
    for _ in range(12):
        f = random_vertex_map(rng)
        values = sorted(set(f.values.values()))
        if len(values) < 2:
            continue
        lo, hi = values[0], values[-1]
        extra = float(rng.uniform(lo, hi))
        while extra in values or extra in (lo, hi):
            extra = float(rng.uniform(lo, hi))
        builder = SlabBuilder(f)
        plain = builder.interlevel(lo, hi)
        refined = builder.interlevel(lo, extra, hi)
        top = f.complex.dim
        assert betti_numbers(plain, top) == betti_numbers(refined, top)
        for t in (lo, hi):
            src = builder.level(t)
            for r in range(top + 1):
                ranks = []
                for band in (plain, refined):
                    inc = include_level(src, band)
                    m = induced_map(homology_of(src, r), homology_of(band, r), inc.chain_matrix(r))
                    ranks.append(rank(m))
                assert ranks[0] == ranks[1]


def test_one_constructor_for_levels_bands_and_refined_bands(square_circle):
    builder = SlabBuilder(square_circle)
    assert builder.level(0.5) is builder.interlevel(0.5) is builder.interlevel(0.5, 0.5)
    band = builder.interlevel(0.0, 2.0)
    assert band.slice_values == (0.0, 1.0, 2.0)  # sliced at every vertex value in between
    assert builder.interlevel(0, 0.0, 2.0, 2.0) is band  # equal values count once
    refined = builder.interlevel(0.0, 0.5, 2.0)
    assert refined.slice_values == (0.0, 0.5, 1.0, 2.0)
    assert builder.interlevel(0.0, 0.5, 0.5, 2.0) is refined and refined is not band
    assert builder.interlevel(0.0, 1.0, 2.0).slice_values == band.slice_values
    chain = builder.chunks(0, 0.0, 2.0)  # the chunks every complex on [0, 2] is assembled from
    assert [(c.lo, c.hi) for c in chain] == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 2.0), (2.0, 2.0)]
    assert [c.dims for c in chain[::2]] == [builder.level(t).dims for t in band.slice_values]
    for make in (builder.interlevel, builder.chunks):
        for values in ((2.0, 0.0), (0.0, 2.0, 1.0), (1.0, 0.0, 1.0)):  # the order is checked before merging
            with pytest.raises(ValueError, match="interval endpoints are reversed"):
                make(*values)
        with pytest.raises(ValueError, match="no values to slice at"):
            make()


def assembled(f, rng):
    """A builder of f after it has built every level at a grid value, every
    band between two of them and one refined band per start."""
    builder = SlabBuilder(f)
    pts = grid_values(critical_values(f))
    for i, a in enumerate(pts):
        builder.level(a)
        for b in pts[i + 1:]:
            builder.interlevel(a, b)
        if i + 1 < len(pts):
            builder.interlevel(a, float(rng.uniform(a, pts[i + 1])), pts[-1])
    return builder


def test_assembled_complexes_keep_the_sorted_order():
    # chunks concatenated in (lo, hi) order give the old sort by (dim, lo, hi, carrier)
    rng = np.random.default_rng(24)
    maps = [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(60)]
    built = 0
    for f in maps + seeded_telescopes(10, 2424):
        builder = assembled(f, rng)
        for c in builder._complexes.values():
            order = sorted(c.dims, key=lambda cell: (c.dims[cell], cell.lo, cell.hi, cell.carrier))
            assert c.cells == order
            for d in range(-1, f.complex.dim + 2):
                group = [cell for cell in order if c.dims[cell] == d]
                assert c.cells_of_dim(d) == group
                assert [c.index_in_dim(cell) for cell in group] == list(range(len(group)))
            validate(c)
            built += 1
    assert built > 3000


def test_each_chunk_is_checked_once_and_no_complex_is(monkeypatch):
    import levelpers.slabs as slabs

    checked = []
    check = slabs._check

    def counting(cells, dims, boundary, slice_values):
        checked.append(tuple(slice_values))
        check(cells, dims, boundary, slice_values)

    def refuse(c):
        raise AssertionError("a complex was validated as a whole")

    monkeypatch.setattr(slabs, "_check", counting)
    monkeypatch.setattr(slabs, "validate", refuse)
    rng = np.random.default_rng(25)
    for f in [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(10)]:
        checked.clear()
        builder = assembled(f, rng)
        assert sorted(checked) == sorted(builder._chunks)  # each chunk once, keyed by (lo, hi)
        for c in list(builder._complexes.values()):  # a new complex where c was sliced inside, from old chunks
            builder.interlevel(*c.slice_values)
        assert sorted(checked) == sorted(builder._chunks)


def test_a_slab_cell_missing_a_face_is_refused_where_it_is_first_used(octahedron, monkeypatch):
    import levelpers.slabs as slabs

    # the triangle (0, 2, 3) spans [-1, 0] and meets neither end slice in a cell of its own;
    # its slab cell loses the slab edge (0, 2), which no end slice puts back
    def lose_a_face(simplex):
        faces = facets(simplex)
        return [t for t in faces if t != (0, 2)] if simplex == (0, 2, 3) else faces

    monkeypatch.setattr(slabs, "facets", lose_a_face)
    builder = SlabBuilder(octahedron)
    assert betti_numbers(builder.level(-1.0)) == (1,) and betti_numbers(builder.level(0.0)) == (1, 1)
    for _ in range(2):  # a refused chunk is not kept
        with pytest.raises(ValueError, match=r"boundary of boundary is nonzero for Cell\(0,2,3@\[-1.0,0.0\]\)"):
            builder.interlevel(-1.0, 0.0)
    assert (-1.0, 0.0) not in builder._chunks
    monkeypatch.undo()
    assert betti_numbers(SlabBuilder(octahedron).interlevel(-1.0, 0.0)) == (1, 0, 0)


def test_cell_interface():
    cell = Cell((0, 2), 0.5, 1.5)
    assert (cell.carrier, cell.lo, cell.hi) == ((0, 2), 0.5, 1.5)
    assert not cell.is_slice and Cell((1,), 1.0, 1.0).is_slice
    assert repr(cell) == "Cell(0,2@[0.5,1.5])"
    assert repr(Cell((1,), 1.0, 1.0)) == "Cell(1@1.0)"
    twin = Cell((0, 2), 0.5, 1.5)
    assert twin == cell and hash(twin) == hash(cell) and len({cell, twin}) == 1
    assert cell != Cell((0, 2), 0.5, 2.5)
    # a Cell is a named tuple, so it also equals the plain tuple of its fields
    assert cell == ((0, 2), 0.5, 1.5)
    for name in ("carrier", "lo", "hi"):
        with pytest.raises(AttributeError):
            setattr(cell, name, None)


# --- the per-case cell rules SlabBuilder replaced with one rule, kept as a reference ---

def ref_min(f, simplex):
    return min(f.values[v] for v in simplex)


def ref_max(f, simplex):
    return max(f.values[v] for v in simplex)


def ref_slice_cell(f, simplex, s):
    below = False
    above = False
    for v in simplex:
        x = f.values[v]
        if x < s:
            below = True
        elif x > s:
            above = True
    if below and above:
        return Cell(simplex, s, s)
    touching = tuple(v for v in simplex if f.values[v] == s)
    if touching:
        return Cell(touching, s, s)
    return None


def ref_slab_facet(f, simplex, lo, hi):
    mn = ref_min(f, simplex)
    mx = ref_max(f, simplex)
    if mn <= lo and mx >= hi:
        return Cell(simplex, lo, hi)
    if mx <= lo:
        return ref_slice_cell(f, simplex, lo)
    if mn >= hi:
        return ref_slice_cell(f, simplex, hi)
    return None


def ref_slice_cell_dim(f, cell):
    if ref_min(f, cell.carrier) == ref_max(f, cell.carrier):
        return len(cell.carrier) - 1
    return len(cell.carrier) - 2


def ref_slice_chunk(f, s):
    dims = {}
    for simplex in f.complex.simplices:
        mn = ref_min(f, simplex)
        mx = ref_max(f, simplex)
        if mn < s < mx:
            dims[Cell(simplex, s, s)] = len(simplex) - 2
        elif mn == s and mx == s:
            dims[Cell(simplex, s, s)] = len(simplex) - 1
    boundary = {}
    for cell, d in dims.items():
        cands = {ref_slice_cell(f, t, s) for t in facets(cell.carrier)}
        cands.discard(None)
        boundary[cell] = frozenset(t for t in cands if dims[t] == d - 1)
    return dims, boundary


def ref_slab_chunk(f, lo, hi):
    dims = {}
    for simplex in f.complex.simplices:
        if ref_min(f, simplex) <= lo and ref_max(f, simplex) >= hi:
            dims[Cell(simplex, lo, hi)] = len(simplex) - 1
    boundary = {}
    for cell, d in dims.items():
        cands = {ref_slice_cell(f, cell.carrier, lo), ref_slice_cell(f, cell.carrier, hi)}
        for t in facets(cell.carrier):
            cands.add(ref_slab_facet(f, t, lo, hi))
        cands.discard(None)
        kept = set()
        for t in cands:
            td = len(t.carrier) - 1 if not t.is_slice else ref_slice_cell_dim(f, t)
            if td == d - 1:
                kept.add(t)
        boundary[cell] = frozenset(kept)
    return dims, boundary


def ref_complex(f, slices, memo):
    """dims and boundary of the complex on the sorted slice values, with a
    slab over each gap between consecutive ones; memo keeps the chunks of f."""
    dims, boundary = {}, {}
    for lo, hi in [(s, s) for s in slices] + list(zip(slices, slices[1:])):
        if (lo, hi) not in memo:
            memo[lo, hi] = ref_slice_chunk(f, lo) if lo == hi else ref_slab_chunk(f, lo, hi)
        d, bd = memo[lo, hi]
        dims.update(d)
        boundary.update(bd)
    return dims, boundary


def test_one_cell_rule_matches_the_per_case_rules():
    rng = np.random.default_rng(16)
    maps = [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(260)]
    built = 0
    for f in maps + seeded_telescopes(20, 1616):
        builder, memo = SlabBuilder(f), {}
        values = sorted(set(f.values.values()))
        pts = grid_values(critical_values(f))
        for t in pts:
            assert (builder.level(t).dims, builder.level(t).boundary) == ref_complex(f, [t], memo), (f, t)
        built += len(pts)
        for i, a in enumerate(pts):
            for j, b in enumerate(pts[i + 1:i + 3] + pts[-1:]):
                if b <= a:
                    continue
                inside = [x for x in values if a < x < b]
                refined = ((float(rng.uniform(a, b)),),) if j == 0 else ()  # one refinement per start
                for extras in ((), *refined):
                    band = builder.interlevel(a, *extras, b)
                    slices = sorted({a, b, *inside, *extras})
                    assert (band.dims, band.boundary) == ref_complex(f, slices, memo), (f, a, b, extras)
                    built += 1
    assert built > 9000  # levels, bands and refined bands compared
