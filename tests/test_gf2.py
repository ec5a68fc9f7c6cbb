import itertools
from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levelpers import (
    BitMatrix,
    GradedBoundary,
    Subspace,
    column_reduce,
    homology_presentation,
    image_basis,
    induced_map,
    intersection_dim,
    kernel_basis,
    rank,
)
from levelpers.sublevel import boundary_columns
from conftest import dense, from_dense, random_vertex_map, simplicial_boundary_matrix


bit_matrices = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    elements=st.integers(0, 1),
)


def span_vectors(subspace: Subspace):
    """Every vector of the subspace, by enumerating basis combinations."""
    vecs = set()
    basis = dense(subspace.basis)
    for picks in itertools.product([0, 1], repeat=basis.shape[1]):
        v = np.zeros(subspace.ambient_dim, dtype=np.uint8)
        for j, take in enumerate(picks):
            if take:
                v ^= basis[:, j]
        vecs.add(tuple(int(x) for x in v))
    return vecs


# --- matrices ------------------------------------------------------------------

def test_bit_matrix_rejects_malformed_input():
    with pytest.raises(ValueError, match="does not fit in 2 rows"):
        BitMatrix.from_bits([0b100], 2)
    assert BitMatrix.from_bits([0b01, 0b11], 2) == from_dense([[1, 1], [0, 1]])


# --- rank / kernel / image ---------------------------------------------------

def test_rank_identity():
    assert rank(BitMatrix.identity(2)) == 2


def test_rank_equal_rows():
    assert rank(from_dense([[1, 1], [1, 1]])) == 1


def test_rank_three_cycle_matrix():
    m = from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    # oracle: of all 8 column combinations only the all-ones one vanishes
    zero_combos = []
    for picks in itertools.product([0, 1], repeat=3):
        v = np.zeros(3, dtype=np.uint8)
        for j, take in enumerate(picks):
            if take:
                v ^= dense(m)[:, j]
        if not v.any():
            zero_combos.append(picks)
    assert zero_combos == [(0, 0, 0), (1, 1, 1)]
    assert rank(m) == 2


def test_kernel_identity_and_zero():
    assert kernel_basis(BitMatrix.identity(2)).dim == 0
    assert kernel_basis(BitMatrix.zeros(2, 2)).dim == 2


def test_kernel_single_row():
    ker = kernel_basis(from_dense([[1, 1]]))
    assert ker.dim == 1
    assert span_vectors(ker) == {(0, 0), (1, 1)}


def test_image_cases():
    assert image_basis(BitMatrix.identity(3)).dim == 3
    assert image_basis(BitMatrix.zeros(3, 2)).dim == 0
    img = image_basis(from_dense([[1, 0], [1, 0]]))
    assert img.dim == 1
    assert span_vectors(img) == {(0, 0), (1, 1)}


@settings(max_examples=150)
@given(bit_matrices)
def test_rank_equals_rank_of_transpose(data):
    m = from_dense(data)
    assert rank(m) == rank(from_dense(dense(m).T))


@settings(max_examples=150)
@given(bit_matrices)
def test_kernel_dim_plus_rank_is_cols(data):
    m = from_dense(data)
    ker = kernel_basis(m)
    assert ker.dim + rank(m) == m.cols
    if ker.dim and m.rows:
        assert not ((dense(m).astype(int) @ dense(ker.basis).astype(int)) % 2).any()


# --- subspace intersections --------------------------------------------------

def test_intersection_trivial_cases():
    a = Subspace(2, from_dense([[1], [0]]))
    b = Subspace(2, from_dense([[0], [1]]))
    assert intersection_dim(a, b) == 0
    diag = Subspace(2, from_dense([[1], [1]]))
    assert intersection_dim(diag, diag) == 1
    assert intersection_dim(Subspace(2, BitMatrix.identity(2)), diag) == 1


def test_intersection_ambient_mismatch():
    with pytest.raises(ValueError):
        intersection_dim(Subspace(2, BitMatrix.identity(2)), Subspace(3, BitMatrix.identity(3)))


@settings(max_examples=100)
@given(
    hnp.arrays(np.uint8, st.tuples(st.integers(1, 10), st.integers(0, 6)), elements=st.integers(0, 1)),
    hnp.arrays(np.uint8, st.tuples(st.integers(1, 10), st.integers(0, 6)), elements=st.integers(0, 1)),
)
def test_intersection_dim_matches_enumeration(left, right):
    n = max(left.shape[0], right.shape[0])
    left = np.vstack([left, np.zeros((n - left.shape[0], left.shape[1]), dtype=np.uint8)])
    right = np.vstack([right, np.zeros((n - right.shape[0], right.shape[1]), dtype=np.uint8)])
    a = image_basis(from_dense(left))
    b = image_basis(from_dense(right))
    common = span_vectors(a) & span_vectors(b)
    assert 2 ** intersection_dim(a, b) == len(common)


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Subspace(2, from_dense([[1, 1], [1, 1]]))


# --- homology presentations --------------------------------------------------

def test_homology_isolated_vertex():
    pres = homology_presentation(BitMatrix.zeros(1, 0), BitMatrix.zeros(0, 1))
    assert pres.betti == 1


def test_homology_square_circle_degree_one():
    # 4 vertices 0..3, edges (0,1),(1,2),(2,3),(0,3): one loop, no 2-cells
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    m = np.zeros((4, 4), dtype=np.uint8)
    for j, (u, v) in enumerate(edges):
        m[u, j] = 1
        m[v, j] = 1
    pres = homology_presentation(BitMatrix.zeros(4, 0), from_dense(m))
    assert pres.betti == 1
    # oracle: dim ker of the edge boundary is 1 (4 columns, rank 3)
    assert rank(from_dense(m)) == 3


def test_homology_filled_triangle_degree_one():
    edges = [(0, 1), (0, 2), (1, 2)]
    d1 = np.zeros((3, 3), dtype=np.uint8)
    for j, (u, v) in enumerate(edges):
        d1[u, j] = 1
        d1[v, j] = 1
    d2 = np.ones((3, 1), dtype=np.uint8)  # triangle hits all three edges
    pres = homology_presentation(from_dense(d2), from_dense(d1))
    assert pres.betti == 0


def test_homology_rejects_bad_composition():
    with pytest.raises(ValueError):
        homology_presentation(from_dense([[1], [0]]), from_dense([[1, 0]]))


def test_coordinatizer_reconstructs_cycles():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    m = np.zeros((4, 4), dtype=np.uint8)
    for j, (u, v) in enumerate(edges):
        m[u, j] = 1
        m[v, j] = 1
    pres = homology_presentation(BitMatrix.zeros(4, 0), from_dense(m))
    # the identity chain map sends the loop to itself, coordinate 1
    assert induced_map(pres, pres, BitMatrix.identity(4)) == BitMatrix.identity(1)
    # sending every edge but the first to zero maps the loop to a single edge, not a cycle
    with pytest.raises(ValueError, match="does not send cycles to cycles"):
        induced_map(pres, pres, BitMatrix.from_bits([0b0001, 0, 0, 0], 4))


@st.composite
def chain_complexes(draw):
    """(boundary_in, boundary_out) with boundary_in made of sums of
    kernel vectors of boundary_out, so that their composition vanishes."""
    out = from_dense(draw(bit_matrices))
    kernel = kernel_basis(out).basis.columns
    picks = draw(st.lists(st.integers(0, 2 ** len(kernel) - 1), max_size=8))
    columns = [reduce(xor, (z for k, z in enumerate(kernel) if pick >> k & 1), 0) for pick in picks]
    return BitMatrix.from_bits(columns, out.cols), out


@settings(max_examples=150)
@given(chain_complexes())
def test_homology_presentation_counts_cycles_mod_boundaries(complex_):
    boundary_in, boundary_out = complex_
    pres = homology_presentation(boundary_in, boundary_out)
    assert pres.betti == (boundary_out.cols - rank(boundary_out)) - rank(boundary_in)
    n = boundary_out.cols
    together = BitMatrix.from_bits(pres.boundaries + pres.homology_reps, n)
    assert rank(together) == together.cols
    assert (boundary_out @ BitMatrix.from_bits(pres.homology_reps, n)).is_zero()
    # every representative reads back as its own class
    assert induced_map(pres, pres, BitMatrix.identity(n)) == BitMatrix.identity(pres.betti)


@settings(max_examples=150)
@given(bit_matrices)
def test_kernel_and_image_bases_have_distinct_lowest_entries(data):
    m = from_dense(data)
    for basis in (kernel_basis(m).basis, image_basis(m).basis):
        lows = [c.bit_length() - 1 for c in basis.columns]
        assert all(basis.columns) and len(set(lows)) == len(lows)


# --- induced maps -------------------------------------------------------------

def test_induced_identity():
    pres = homology_presentation(BitMatrix.zeros(2, 0), BitMatrix.zeros(0, 2))
    m = induced_map(pres, pres, BitMatrix.identity(2))
    assert m == BitMatrix.identity(2)


def test_induced_two_points_into_arc():
    pts = homology_presentation(BitMatrix.zeros(2, 0), BitMatrix.zeros(0, 2))
    arc = homology_presentation(from_dense([[1], [1]]), BitMatrix.zeros(0, 2))
    m = induced_map(pts, arc, BitMatrix.identity(2))
    assert m.rows == 1 and m.cols == 2
    assert rank(m) == 1
    assert kernel_basis(m).dim == 1


def test_induced_rejects_non_chain_map():
    # destination has no 1-cycles except boundaries; send a cycle somewhere bad
    src = homology_presentation(BitMatrix.zeros(1, 0), BitMatrix.zeros(0, 1))
    dst = homology_presentation(BitMatrix.zeros(2, 0), from_dense([[1, 1]]))
    with pytest.raises(ValueError):
        induced_map(src, dst, from_dense([[1], [0]]))  # image is not a cycle


def test_induced_respects_composition_on_random_inclusions():
    rng = np.random.default_rng(11)
    for _ in range(25):
        big = random_vertex_map(rng).complex
        mid_simplices = [s for s in big.simplices if rng.random() < 0.7]
        small_simplices = [s for s in mid_simplices if rng.random() < 0.7]
        from levelpers import build_complex
        mid = build_complex(mid_simplices) if mid_simplices else build_complex([list(big.simplices)[0]])
        small = build_complex(small_simplices) if small_simplices else mid
        for r in range(big.dim + 1):
            pres = {}
            for name, cx in [("small", small), ("mid", mid), ("big", big)]:
                pres[name] = homology_presentation(
                    simplicial_boundary_matrix(cx, r + 1), simplicial_boundary_matrix(cx, r))

            def inclusion(sub, sup):
                rows = sup.simplices_of_dim(r)
                cols = sub.simplices_of_dim(r)
                index = {s: i for i, s in enumerate(rows)}
                m = np.zeros((len(rows), len(cols)), dtype=np.uint8)
                for j, s in enumerate(cols):
                    m[index[s], j] = 1
                return from_dense(m)

            lo = induced_map(pres["small"], pres["mid"], inclusion(small, mid))
            hi = induced_map(pres["mid"], pres["big"], inclusion(mid, big))
            direct = induced_map(pres["small"], pres["big"], inclusion(small, big))
            assert direct == hi @ lo


# --- column reduction ----------------------------------------------------------

def test_column_reduce_single_merge():
    # filtration: v1, v2, edge(v1,v2)
    pairs, essential = column_reduce(GradedBoundary([[0, 0], [0b11]], [[0.0, 0.0], [0.0]]))
    assert pairs == [(1, 1, 0)]
    assert essential == [(0, 0)]


def test_column_reduce_square_circle():
    # vertices a, b, d, c and edges ab, ad, bc, dc over the square circle values
    vertices, edges = ["a", "b", "d", "c"], ["ab", "ad", "bc", "dc"]
    at = {name: i for i, name in enumerate(vertices)}
    columns = [[0] * 4, [1 << at[e[0]] | 1 << at[e[1]] for e in edges]]
    pairs, essential = column_reduce(GradedBoundary(columns, [[0.0, 1.0, 1.0, 2.0], [1.0, 1.0, 2.0, 2.0]]))
    assert essential == [(1, edges.index("dc")), (0, at["a"])]  # one edge (H1), one vertex (H0)
    assert len(pairs) == 3


def test_column_reduce_empty():
    pairs, essential = column_reduce(GradedBoundary([], []))
    assert pairs == [] and essential == []


def test_column_reduce_rejects_bad_order():
    # the edge enters at 0.5, before its vertex 1 at 1.0
    with pytest.raises(ValueError):
        column_reduce(GradedBoundary([[0, 0], [0b11]], [[0.0, 1.0], [0.5]]))


def test_column_reduce_indices_appear_once():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = random_vertex_map(rng)
        from levelpers import lower_star_filtration
        order = lower_star_filtration(f)
        index = {s: i for rows in order for i, (s, _) in enumerate(rows)}
        columns = []
        for d, rows in enumerate(order):
            m = np.zeros((len(order[d - 1]) if d else 0, len(rows)), dtype=np.uint8)
            for j, (s, _) in enumerate(rows):
                for i in range(len(s) if d else 0):
                    m[index[s[:i] + s[i + 1:]], j] = 1
            columns.append(list(from_dense(m).columns))
        pairs, essential = column_reduce(GradedBoundary(columns, [[x for _, x in rows] for rows in order]))
        used = [(d - 1, i) for d, i, _ in pairs] + [(d, j) for d, _, j in pairs] + list(essential)
        assert len(used) == len(set(used))


def test_column_reduce_refuses_a_face_that_enters_after_its_coface():
    # the edge (0, 1) is listed at 1.0, but its vertex 1 enters at 2.0
    order = [[((0,), 0.0), ((1,), 2.0)], [((0, 1), 1.0)]]
    boundary = GradedBoundary(boundary_columns(order)[1], [[x for _, x in rows] for rows in order])
    with pytest.raises(ValueError) as exc:
        column_reduce(boundary)
    assert str(exc.value) == "column 0 of dimension 1 enters at 1.0, before its face at row 1, which enters at 2.0"


def test_column_reduce_refuses_a_dimension_out_of_entry_order():
    # the second edge is listed after the first but enters before it
    with pytest.raises(ValueError) as exc:
        column_reduce(GradedBoundary([[0, 0, 0], [0b011, 0b110]], [[0.0, 0.0, 0.0], [2.0, 1.0]]))
    assert str(exc.value) == "column 1 of dimension 1 enters at 1.0, before column 0, which enters at 2.0"


@pytest.mark.parametrize("columns, message", [
    # a vertex column with an entry: dimension 0 has no cells below it
    ([[0, 0b1], []], "column 1 of dimension 0 has an entry at row 0, past the 0 cells of dimension -1"),
    # a triangle whose boundary reaches row 3 of a dimension with three edges
    ([[0, 0, 0], [0b011, 0b110, 0b101], [0b1011]],
     "column 0 of dimension 2 has an entry at row 3, past the 3 cells of dimension 1"),
])
def test_column_reduce_refuses_a_row_past_the_dimension_below(columns, message):
    with pytest.raises(ValueError) as exc:
        column_reduce(GradedBoundary(columns, [[0.0] * len(c) for c in columns]))
    assert str(exc.value) == message


def test_graded_boundary_counts_every_cell():
    m = GradedBoundary([[0, 0, 0], [0b011, 0b110]], [[0.0] * 3, [1.0] * 2])
    assert (m.rows, m.cols) == (5, 5)
    with pytest.raises(ValueError, match="differ in shape"):
        GradedBoundary([[0, 0]], [[0.0]])


def test_intersection_with_a_zero_side():
    full = Subspace(3, BitMatrix.identity(3))
    zero = lambda n: Subspace(n, BitMatrix.zeros(n, 0))
    assert intersection_dim(zero(3), full) == intersection_dim(full, zero(3)) == 0
    # the ambient dimensions are compared before a zero side short-cuts the elimination
    for a, b in [(zero(2), full), (full, zero(2)), (zero(2), zero(3))]:
        with pytest.raises(ValueError, match="different ambient dimensions"):
            intersection_dim(a, b)
