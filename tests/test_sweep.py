"""The band route's row sweep against the per-band construction it
replaced, and the chain of chunks it sweeps."""

import re

import numpy as np
import pytest

from levelpers import (
    BitMatrix,
    CriticalGrid,
    RelevantNumbers,
    SlabBuilder,
    Subspace,
    VertexValuedMap,
    build_complex,
    compute_relevant_numbers,
    critical_values,
    homology_of,
    image_basis,
    include_level,
    induced_map,
    intersection_dim,
    kernel_basis,
    level_barcode,
    numbers_from_barcode,
    rank,
)
from levelpers.complexes import facets
from levelpers.level import _flag_overlaps
from conftest import FIXTURE_MAKERS, grid_triangles, grid_values, random_vertex_map, seeded_telescopes


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


# --- kernel overlaps from two flags ---------------------------------------------

def triple_loop_overlaps(ups, downs, beta):
    """{(u, d): dim(U_u & D_d)} the way the band route computed kernel
    overlaps before flag pairing: one intersection per pair of a nonzero
    up-kernel and a nonzero down-kernel of one level, by u, then d."""
    out = {}
    for u, up_basis in ups:
        for d, down_basis in sorted(downs):
            m = intersection_dim(Subspace(beta, BitMatrix.from_bits(up_basis, beta)),
                                 Subspace(beta, BitMatrix.from_bits(down_basis, beta)))
            if m:
                out[(u, d)] = m
    return out


def independent(rng, vectors, k):
    """k random independent combinations of vectors (which must span at least k dimensions)."""
    while True:
        picked = [0] * k
        for j in range(k):
            for v in vectors:
                if rng.random() < 0.5:
                    picked[j] ^= v
        if rank(BitMatrix.from_bits(picked, max(vectors).bit_length())) == k:
            return picked


def random_flag(rng, beta, positions):
    """(position, basis) of a flag of nonzero subspaces of {0,1}^beta that
    grows along positions, each given by a fresh random basis of its own;
    no flag for beta 0."""
    if not beta:
        return []
    whole = independent(rng, [1 << q for q in range(beta)], beta)
    dims = sorted(int(k) for k in rng.integers(1, beta + 1, size=len(positions)))
    return [(p, independent(rng, whole[:k], k)) for p, k in zip(positions, dims)]


def test_flag_pairing_equals_the_triple_loop():
    rng = np.random.default_rng(35)
    empty = repeated = whole = 0
    for beta in range(7):
        for _ in range(60):
            n = int(rng.integers(3, 16))
            i = int(rng.integers(1, n - 1))
            # as in the band route, a kernel is listed from its first nonzero position on, up to n - 1 or down to 0
            above = range(int(rng.integers(i + 1, n + 1)), n)
            below = range(int(rng.integers(-1, i)), -1, -1)  # D grows as d falls
            ups, downs = random_flag(rng, beta, above), random_flag(rng, beta, below)
            assert _flag_overlaps(ups, downs, beta, n) == triple_loop_overlaps(ups, downs, beta), (beta, ups, downs)
            flags = (ups, downs)
            empty += not (ups and downs)
            repeated += any(len(a[1]) == len(b[1]) for flag in flags for a, b in zip(flag, flag[1:]))
            whole += any(len(basis) == beta for flag in flags for _, basis in flag)
    assert empty > 150 and repeated > 150 and whole > 150  # of 420 pairs of flags; 60 with beta 0


def seeded_circle(n, seed):
    rng = np.random.default_rng(seed)
    cx = build_complex([[k, (k + 1) % n] for k in range(n)])
    values = rng.permutation(n)
    return VertexValuedMap(cx, {v: float(values[v]) for v in cx.vertices})


def seeded_tied_grid(k, seed, holes=()):
    """A k x k triangulated grid with values in 0..5, less both triangles of
    each square (row, column) in holes."""
    rng = np.random.default_rng(seed)
    cut = {(r * k + c, (r + 1) * k + c + 1) for r, c in holes}  # a square's diagonal: its triangles go
    cx = build_complex([t for t in grid_triangles(k) if (t[0], t[2]) not in cut])
    return VertexValuedMap(cx, {v: float(rng.integers(0, 6)) for v in cx.vertices})


@pytest.mark.parametrize("f, steps", [(seeded_circle(32, 35), 8), (seeded_tied_grid(6, 38), 3),
                                      (seeded_tied_grid(6, 38, [(1, 1), (1, 3), (3, 1), (3, 3)]), 3)],
                         ids=["circle32", "tied_grid6", "tied_grid6_holes"])
def test_band_route_equals_the_counted_table_on_long_flags(f, steps):
    # a flag-ordering fault shows on kernels that grow in several steps along a row, which
    # the small seeded maps seldom have: here some level's up- and down-kernels each take
    # `steps` distinct nonzero dimensions.  The holes add bars open at both ends with
    # several left ends, where the order of the down-kernels shows in kernel_overlap.
    nums = compute_relevant_numbers(f)
    assert nums == numbers_from_barcode(level_barcode(f))
    for rows in (nums._up, nums._down):
        assert max(len(set(row) - {0}) for by_degree in rows for row in by_degree) >= steps


# --- the chain the sweep reads ----------------------------------------------------

def test_every_level_is_its_stretch_of_the_chain():
    # the sweep numbers a level's homology representatives as its slice in
    # the chain by a shift, which needs the level's cells in the chain's order
    stretches = 0
    for f in seeded_maps():
        builder = SlabBuilder(f)
        pts = grid_values(critical_values(f))
        chain = builder.interlevel(*pts)
        for x in pts:
            level = builder.level(x)
            for d in range(chain.max_dim + 1):
                cells = chain.cells_of_dim(d)
                stretch = [k for k, c in enumerate(cells) if c.lo == c.hi == x]
                first = stretch[0] if stretch else 0
                assert stretch == list(range(first, first + len(stretch))), (f, x, d)
                assert [cells[k] for k in stretch] == level.cells_of_dim(d), (f, x, d)
                assert all(level.boundary[cells[k]] == chain.boundary[cells[k]] for k in stretch), (f, x, d)
                stretches += bool(stretch)
    assert stretches > 1000


def test_a_chunk_that_does_not_square_to_zero_is_refused(octahedron, monkeypatch):
    import levelpers.slabs as slabs

    # the triangle (0, 2, 3) spans [-1, 0]; its cell in the first slab loses the slab edge (0, 2)
    def lose_a_face(simplex):
        faces = facets(simplex)
        return [t for t in faces if t != (0, 2)] if simplex == (0, 2, 3) else faces

    monkeypatch.setattr(slabs, "facets", lose_a_face)
    with pytest.raises(ValueError, match=re.escape("boundary of boundary is nonzero for Cell(0,2,3@[-1.0,-0.5])")):
        compute_relevant_numbers(octahedron)
