import copy

import numpy as np
import pytest

from levelpers import (
    BitMatrix,
    Filtration,
    RelevantNumbers,
    SimplicialComplex,
    VertexValuedMap,
    build_complex,
    homology_presentation,
    telescope,
)


def make_edge_map() -> VertexValuedMap:
    return VertexValuedMap(build_complex([[0, 1]]), {0: 0.0, 1: 1.0})


def make_square_circle() -> VertexValuedMap:
    # a=0 (value 0), b=1 (1), c=2 (2), d=3 (1); edges ab, ad, bc, dc
    cx = build_complex([[0, 1], [0, 3], [1, 2], [2, 3]])
    return VertexValuedMap(cx, {0: 0.0, 1: 1.0, 2: 2.0, 3: 1.0})


def make_lambda_map() -> VertexValuedMap:
    # edges a0-b2 and c1-b2: a branch that merges at the top
    return VertexValuedMap(build_complex([[0, 1], [1, 2]]), {0: 0.0, 1: 2.0, 2: 1.0})


def make_v_map() -> VertexValuedMap:
    # mirror of the lambda: edges a2-b0 and c1-b0
    return VertexValuedMap(build_complex([[0, 1], [1, 2]]), {0: 2.0, 1: 0.0, 2: 1.0})


def make_octahedron() -> VertexValuedMap:
    # south pole 0 at height -1, north pole 1 at height 1, equator 2..5 at 0
    ring = [2, 3, 4, 5]
    tris = []
    for i in range(4):
        a, b = ring[i], ring[(i + 1) % 4]
        tris.append([1, a, b])
        tris.append([0, a, b])
    cx = build_complex(tris)
    return VertexValuedMap(cx, {0: -1.0, 1: 1.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 0.0})


def make_telescope_u() -> VertexValuedMap:
    filt = Filtration([build_complex([[0], [1]]), build_complex([[0, 1]])], [0.0, 1.0])
    return telescope(filt)


FIXTURE_MAKERS = {
    "edge": make_edge_map,
    "circle": make_square_circle,
    "lambda": make_lambda_map,
    "vee": make_v_map,
    "octahedron": make_octahedron,
    "telescope_u": make_telescope_u,
}


@pytest.fixture
def edge_map():
    return make_edge_map()


@pytest.fixture
def square_circle():
    return make_square_circle()


@pytest.fixture
def lambda_map():
    return make_lambda_map()


@pytest.fixture
def v_map():
    return make_v_map()


@pytest.fixture
def octahedron():
    return make_octahedron()


@pytest.fixture
def telescope_u():
    return make_telescope_u()


@pytest.fixture
def fixture_maps():
    return {name: maker() for name, maker in FIXTURE_MAKERS.items()}


def random_vertex_map(rng: np.random.Generator) -> VertexValuedMap:
    """A small random complex (<= 12 vertices, maximal dim <= 3) with
    either distinct or deliberately repeated vertex values."""
    n = int(rng.integers(4, 13))
    maximal = []
    for _ in range(int(rng.integers(3, 7))):
        size = int(rng.integers(1, 5))
        maximal.append(sorted(int(v) for v in rng.choice(n, size=size, replace=False)))
    cx = build_complex(maximal)
    if rng.random() < 0.35:
        pool = rng.choice(20, size=len(cx.vertices), replace=False)
        values = {v: float(pool[i]) for i, v in enumerate(cx.vertices)}
    else:
        values = {v: float(rng.choice([0.0, 1.0, 2.0, 3.0, 4.0])) for v in cx.vertices}
    return VertexValuedMap(cx, values)


def random_filtration(rng, maximal, stages):
    """Each maximal simplex enters at a random stage; vertex 0 at stage 0."""
    entry = rng.integers(0, stages, size=len(maximal))
    complexes = [build_complex([[0]] + [s for s, e in zip(maximal, entry) if e <= i])
                 for i in range(stages)]
    return Filtration(complexes, [float(t) for t in range(stages)])


def seeded_telescopes(count, seed):
    """Telescopes of seeded filtrations of 2-5 stages on 7 vertices."""
    rng = np.random.default_rng(seed)
    tels = []
    for _ in range(count):
        maximal = [sorted(int(v) for v in rng.choice(7, size=size, replace=False))
                   for size in (4, 3, 3, 2, 2)]
        tels.append(telescope(random_filtration(rng, maximal, int(rng.integers(2, 6)))))
    return tels


def grid_values(grid) -> list[float]:
    """The float at every grid position: the critical values and, between
    them, the float at which the band route slices each gap."""
    return [grid.value(i) for i in range(2 * len(grid.criticals) - 1)]


def outside(grid) -> tuple[float, float]:
    """A value below the grid and one above it, where every number reads 0."""
    return grid.criticals[0] - 1.0, grid.criticals[-1] + 1.0


NUMBER_FAMILIES = ("level_rank", "image_overlap", "up_kernel", "down_kernel", "kernel_overlap")


def bumped(nums: RelevantNumbers, name: str, key: tuple, delta: int) -> RelevantNumbers:
    """A deep copy of nums with one entry of family name moved by delta;
    key is the entry's accessor arguments (r, t, ...), each a grid value."""
    out = copy.deepcopy(nums)
    r, (i, *rest) = key[0], [nums.grid.position(x) for x in key[1:]]
    if name == "level_rank":
        out._overlap[r][i][0] += delta
    elif name in ("image_overlap", "up_kernel"):
        (out._overlap if name == "image_overlap" else out._up)[r][i][rest[0] - i] += delta
    elif name == "down_kernel":
        out._down[r][i][rest[0]] += delta
    else:  # the sparse family keeps only its nonzero entries
        slot, at = out._both[r].setdefault(i, {}), tuple(rest)
        slot[at] = slot.get(at, 0) + delta
        if not slot[at]:
            del slot[at]
        if not slot:
            del out._both[r][i]
    return out


def from_dense(data) -> BitMatrix:
    """The bit-column matrix of a two-dimensional array, entries read mod 2."""
    odd = np.mod(np.asarray(data), 2).astype(bool)
    rows, cols = odd.shape
    return BitMatrix.from_bits([sum(1 << int(i) for i in np.flatnonzero(odd[:, j])) for j in range(cols)], rows)


def dense(m: BitMatrix) -> np.ndarray:
    """The rows x cols uint8 array of a bit-column matrix."""
    out = np.zeros((m.rows, m.cols), dtype=np.uint8)
    for j, c in enumerate(m.columns):
        for i in range(m.rows):
            out[i, j] = c >> i & 1
    return out


def simplicial_boundary_matrix(cx: SimplicialComplex, r: int) -> BitMatrix:
    """Boundary matrix from r-simplices to (r-1)-simplices of a complex."""
    rows = cx.simplices_of_dim(r - 1)
    cols = cx.simplices_of_dim(r)
    index = {s: i for i, s in enumerate(rows)}
    m = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    for j, s in enumerate(cols):
        for i in range(len(s)):
            facet = s[:i] + s[i + 1:]
            if facet:
                m[index[facet], j] = 1
    return from_dense(m)


def simplicial_betti(cx: SimplicialComplex, r: int) -> int:
    """Betti number of a plain simplicial complex, straight from the
    simplicial chain complex (independent of the cell model)."""
    return homology_presentation(
        simplicial_boundary_matrix(cx, r + 1), simplicial_boundary_matrix(cx, r)
    ).betti
