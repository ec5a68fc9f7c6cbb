"""The band route's row sweep against the per-band construction it
replaced, and the two checks the sweep makes of its chain of chunks."""

import re

import numpy as np
import pytest

from levelpers import (
    CriticalGrid,
    RelevantNumbers,
    SlabBuilder,
    compute_relevant_numbers,
    critical_values,
    homology_of,
    image_basis,
    include_level,
    induced_map,
    intersection_dim,
    kernel_basis,
)
from levelpers.complexes import facets
from conftest import FIXTURE_MAKERS, random_vertex_map, seeded_telescopes


def per_band_numbers(f, max_degree=None, *, grid=None, builder=None):
    """The five families the way the band route computed them before the
    sweep: every band built as a complex, its homology presented, and both
    levels mapped into it through induced-map matrices."""
    builder = builder or SlabBuilder(f)
    grid = grid or critical_values(f)
    top = max(f.complex.dim if max_degree is None else max_degree, 0)
    n = 2 * len(grid.criticals) - 1
    degrees = range(top + 1)
    pts = [grid.value(i) for i in range(n)]
    levels = [builder.level(x) for x in pts]
    presentations = [[homology_of(c, r) for r in degrees] for c in levels]
    level = [[presentations[i][r].betti for i in range(n)] for r in degrees]
    overlap = [[[row[i]] + [0] * (n - 1 - i) for i in range(n)] for row in level]
    up = [[[0] * (n - i) for i in range(n)] for _ in degrees]
    down = [[[0] * (i + 1) for i in range(n)] for _ in degrees]
    both = [{} for _ in degrees]
    kernels = {}
    for i, x in enumerate(pts):
        for j in range(i + 1, n):
            needed = [r for r in degrees if level[r][i] or level[r][j]]
            if not needed:
                continue
            band = builder.interlevel(x, pts[j])
            inc_x, inc_y = include_level(levels[i], band), include_level(levels[j], band)
            for r in needed:
                target = homology_of(band, r)
                from_low = induced_map(presentations[i][r], target, inc_x.chain_matrix(r))
                from_high = induced_map(presentations[j][r], target, inc_y.chain_matrix(r))
                overlap[r][i][j - i] = intersection_dim(image_basis(from_low), image_basis(from_high))
                ker_low, ker_high = kernel_basis(from_low), kernel_basis(from_high)
                up[r][i][j - i], down[r][j][i] = ker_low.dim, ker_high.dim
                if ker_low.dim:
                    kernels[(r, i, j)] = ker_low
                if ker_high.dim:
                    kernels[(r, j, i)] = ker_high
    for i in range(n):
        for r in degrees:
            for u in range(i + 1, n):
                for d in range(i):
                    if (r, i, u) in kernels and (r, i, d) in kernels:
                        m = intersection_dim(kernels[(r, i, u)], kernels[(r, i, d)])
                        if m:
                            both[r].setdefault(i, {})[(u, d)] = m
    return RelevantNumbers(grid, overlap, up, down, both)


def seeded_maps():
    rng = np.random.default_rng(29)
    return ([maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(60)]
            + seeded_telescopes(10, 2929))


def test_sweep_equals_the_per_band_route():
    compared = 0
    for f in seeded_maps():
        reference = SlabBuilder(f)  # shared by the degrees: it caches complexes and homology, not numbers
        for max_degree in (None, 0, 1, 3):
            sweep = compute_relevant_numbers(f, max_degree)
            assert sweep == per_band_numbers(f, max_degree, builder=reference), (f, max_degree)
            compared += sweep.max_degree >= 0
    assert compared > 250


def test_sweep_equals_the_per_band_route_on_other_grids():
    rng = np.random.default_rng(30)
    skipped = widened = 0
    for f in seeded_maps():
        T = critical_values(f).criticals
        if len(T) < 3:
            continue
        # every other critical value: the bands between grid values hold vertex values
        sparse = CriticalGrid(T[::2] if len(T) % 2 else (*T[::2], T[-1]))
        assert compute_relevant_numbers(f, grid=sparse) == per_band_numbers(f, grid=sparse), f
        skipped += 1
        # one regular value more, on a builder that has read the default grid
        k = int(rng.integers(0, len(T) - 1))
        wide = CriticalGrid((*T, critical_values(f).regular_above(k)))
        builder = SlabBuilder(f)
        compute_relevant_numbers(f, builder=builder)
        assert compute_relevant_numbers(f, grid=wide, builder=builder) == per_band_numbers(f, grid=wide), f
        widened += 1
    assert skipped > 40 and widened > 40


# --- the sweep checks its chain itself -------------------------------------------

def test_a_chunk_that_does_not_square_to_zero_is_refused(octahedron, monkeypatch):
    import levelpers.slabs as slabs

    # the triangle (0, 2, 3) spans [-1, 0]; its cell in the first slab loses the slab edge (0, 2)
    def lose_a_face(simplex):
        faces = facets(simplex)
        return [t for t in faces if t != (0, 2)] if simplex == (0, 2, 3) else faces

    monkeypatch.setattr(slabs, "_check", lambda *args: None)  # the builder checks no chunk
    monkeypatch.setattr(slabs, "facets", lose_a_face)
    with pytest.raises(ValueError, match=re.escape("boundary of boundary is nonzero for Cell(0,2,3@[-1.0,-0.5])")):
        compute_relevant_numbers(octahedron)


def empty_boundary(lv):
    cell = lv.cells_of_dim(1)[0]
    lv.boundary[cell] = frozenset()
    return f"boundary mismatch for level cell {cell}"


def reversed_cells(lv):
    lv.cells_of_dim(1).reverse()
    return f"level cell {lv.cells_of_dim(1)[0]} is out of place"


@pytest.mark.parametrize("corrupt", [empty_boundary, reversed_cells])
def test_a_level_that_differs_from_its_slice_is_refused(octahedron, monkeypatch, corrupt):
    import levelpers.slabs as slabs

    monkeypatch.setattr(slabs, "_check", lambda *args: None)  # the builder checks no chunk
    builder = SlabBuilder(octahedron)
    message = corrupt(builder.level(0.5))  # a circle of four edges
    with pytest.raises(ValueError, match=re.escape(message)):
        compute_relevant_numbers(octahedron, builder=builder)
