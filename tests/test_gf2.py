import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levelpers import (
    BitMatrix,
    Subspace,
    column_reduce,
    homology_presentation,
    image_basis,
    induced_map,
    intersection_dim,
    kernel_basis,
    rank,
)
from conftest import dense, random_vertex_map, simplicial_boundary_matrix


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
    with pytest.raises(ValueError, match="two-dimensional"):
        BitMatrix([1, 0])
    with pytest.raises(ValueError, match="does not fit in 2 rows"):
        BitMatrix.from_bits([0b100], 2)
    assert BitMatrix.from_bits([0b01, 0b11], 2) == BitMatrix([[1, 1], [0, 1]])


# --- rank / kernel / image ---------------------------------------------------

def test_rank_identity():
    assert rank(BitMatrix.identity(2)) == 2


def test_rank_equal_rows():
    assert rank(BitMatrix([[1, 1], [1, 1]])) == 1


def test_rank_three_cycle_matrix():
    m = BitMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
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
    ker = kernel_basis(BitMatrix([[1, 1]]))
    assert ker.dim == 1
    assert span_vectors(ker) == {(0, 0), (1, 1)}


def test_image_cases():
    assert image_basis(BitMatrix.identity(3)).dim == 3
    assert image_basis(BitMatrix.zeros(3, 2)).dim == 0
    img = image_basis(BitMatrix([[1, 0], [1, 0]]))
    assert img.dim == 1
    assert span_vectors(img) == {(0, 0), (1, 1)}


@settings(max_examples=150)
@given(bit_matrices)
def test_rank_equals_rank_of_transpose(data):
    m = BitMatrix(data)
    assert rank(m) == rank(m.transpose())


@settings(max_examples=150)
@given(bit_matrices)
def test_kernel_dim_plus_rank_is_cols(data):
    m = BitMatrix(data)
    ker = kernel_basis(m)
    assert ker.dim + rank(m) == m.cols
    if ker.dim and m.rows:
        assert not ((dense(m).astype(int) @ dense(ker.basis).astype(int)) % 2).any()


# --- subspace intersections --------------------------------------------------

def test_intersection_trivial_cases():
    a = Subspace(2, BitMatrix([[1], [0]]))
    b = Subspace(2, BitMatrix([[0], [1]]))
    assert intersection_dim(a, b) == 0
    diag = Subspace(2, BitMatrix([[1], [1]]))
    assert intersection_dim(diag, diag) == 1
    assert intersection_dim(Subspace.full(2), diag) == 1


def test_intersection_ambient_mismatch():
    with pytest.raises(ValueError):
        intersection_dim(Subspace.full(2), Subspace.full(3))


@settings(max_examples=100)
@given(
    hnp.arrays(np.uint8, st.tuples(st.integers(1, 10), st.integers(0, 6)), elements=st.integers(0, 1)),
    hnp.arrays(np.uint8, st.tuples(st.integers(1, 10), st.integers(0, 6)), elements=st.integers(0, 1)),
)
def test_intersection_dim_matches_enumeration(left, right):
    n = max(left.shape[0], right.shape[0])
    left = np.vstack([left, np.zeros((n - left.shape[0], left.shape[1]), dtype=np.uint8)])
    right = np.vstack([right, np.zeros((n - right.shape[0], right.shape[1]), dtype=np.uint8)])
    a = image_basis(BitMatrix(left))
    b = image_basis(BitMatrix(right))
    common = span_vectors(a) & span_vectors(b)
    assert 2 ** intersection_dim(a, b) == len(common)


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Subspace(2, BitMatrix([[1, 1], [1, 1]]))


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
    pres = homology_presentation(BitMatrix.zeros(4, 0), BitMatrix(m))
    assert pres.betti == 1
    # oracle: dim ker of the edge boundary is 1 (4 columns, rank 3)
    assert rank(BitMatrix(m)) == 3


def test_homology_filled_triangle_degree_one():
    edges = [(0, 1), (0, 2), (1, 2)]
    d1 = np.zeros((3, 3), dtype=np.uint8)
    for j, (u, v) in enumerate(edges):
        d1[u, j] = 1
        d1[v, j] = 1
    d2 = np.ones((3, 1), dtype=np.uint8)  # triangle hits all three edges
    pres = homology_presentation(BitMatrix(d2), BitMatrix(d1))
    assert pres.betti == 0


def test_homology_rejects_bad_composition():
    with pytest.raises(ValueError):
        homology_presentation(BitMatrix([[1], [0]]), BitMatrix([[1, 0]]))


def test_coordinatizer_reconstructs_cycles():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    m = np.zeros((4, 4), dtype=np.uint8)
    for j, (u, v) in enumerate(edges):
        m[u, j] = 1
        m[v, j] = 1
    pres = homology_presentation(BitMatrix.zeros(4, 0), BitMatrix(m))
    loop = np.ones(4, dtype=np.uint8)
    coords = pres.coordinates(loop)
    assert coords.shape == (1,) and coords[0] == 1
    with pytest.raises(ValueError):
        pres.coordinates([1, 0, 0, 0])  # a single edge is not a cycle


# --- induced maps -------------------------------------------------------------

def test_induced_identity():
    pres = homology_presentation(BitMatrix.zeros(2, 0), BitMatrix.zeros(0, 2))
    m = induced_map(pres, pres, BitMatrix.identity(2))
    assert m == BitMatrix.identity(2)


def test_induced_two_points_into_arc():
    pts = homology_presentation(BitMatrix.zeros(2, 0), BitMatrix.zeros(0, 2))
    arc = homology_presentation(BitMatrix([[1], [1]]), BitMatrix.zeros(0, 2))
    m = induced_map(pts, arc, BitMatrix.identity(2))
    assert m.rows == 1 and m.cols == 2
    assert rank(m) == 1
    assert kernel_basis(m).dim == 1


def test_induced_rejects_non_chain_map():
    # destination has no 1-cycles except boundaries; send a cycle somewhere bad
    src = homology_presentation(BitMatrix.zeros(1, 0), BitMatrix.zeros(0, 1))
    dst = homology_presentation(BitMatrix.zeros(2, 0), BitMatrix([[1, 1]]))
    with pytest.raises(ValueError):
        induced_map(src, dst, BitMatrix([[1], [0]]))  # image is not a cycle


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
                return BitMatrix(m)

            lo = induced_map(pres["small"], pres["mid"], inclusion(small, mid))
            hi = induced_map(pres["mid"], pres["big"], inclusion(mid, big))
            direct = induced_map(pres["small"], pres["big"], inclusion(small, big))
            assert direct == hi @ lo


# --- column reduction ----------------------------------------------------------

def test_column_reduce_single_merge():
    # filtration: v1, v2, edge(v1,v2)
    m = np.zeros((3, 3), dtype=np.uint8)
    m[0, 2] = 1
    m[1, 2] = 1
    pairs, essential = column_reduce(BitMatrix(m))
    assert pairs == [(1, 2)]
    assert essential == [0]


def test_column_reduce_square_circle():
    # order a, b, d, ab, ad, c, bc, dc over the square circle values
    order = ["a", "b", "d", "ab", "ad", "c", "bc", "dc"]
    faces = {"ab": ("a", "b"), "ad": ("a", "d"), "bc": ("b", "c"), "dc": ("d", "c")}
    index = {name: i for i, name in enumerate(order)}
    m = np.zeros((8, 8), dtype=np.uint8)
    for name, (u, v) in faces.items():
        m[index[u], index[name]] = 1
        m[index[v], index[name]] = 1
    pairs, essential = column_reduce(BitMatrix(m))
    assert essential == [index["a"], index["dc"]]  # one vertex (H0), one edge (H1)
    assert len(pairs) == 3


def test_column_reduce_empty():
    pairs, essential = column_reduce(BitMatrix.zeros(0, 0))
    assert pairs == [] and essential == []


def test_column_reduce_rejects_bad_order():
    m = np.zeros((2, 2), dtype=np.uint8)
    m[1, 0] = 1  # entry at the diagonal-or-below
    with pytest.raises(ValueError):
        column_reduce(BitMatrix(m))


def test_column_reduce_indices_appear_once():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = random_vertex_map(rng)
        from levelpers import lower_star_filtration
        order = lower_star_filtration(f)
        index = {s: i for i, (s, _) in enumerate(order)}
        m = np.zeros((len(order), len(order)), dtype=np.uint8)
        for j, (s, _) in enumerate(order):
            if len(s) > 1:
                for i in range(len(s)):
                    m[index[s[:i] + s[i + 1:]], j] = 1
        pairs, essential = column_reduce(BitMatrix(m))
        used = [i for p in pairs for i in p] + list(essential)
        assert len(used) == len(set(used))
