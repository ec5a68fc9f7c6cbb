"""Linear algebra over the two-element field.

Matrices carry entries in {0, 1} with all arithmetic mod 2, stored as
numpy uint8 arrays; elimination uses vectorized XOR row updates.  On top
of the basic rank/kernel/image operations the module builds homology
presentations (cycles mod boundaries, with coordinates for arbitrary
cycles).  The classical persistence pairing by left-to-right column
reduction runs on Python-int bit columns (reduce_bit_columns);
column_reduce is its entry point for a dense filtered boundary matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BitMatrix",
    "Subspace",
    "HomologyPresentation",
    "rank",
    "kernel_basis",
    "image_basis",
    "intersection_dim",
    "homology_presentation",
    "induced_map",
    "column_reduce",
    "reduce_bit_columns",
]


def _mod2(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise ValueError("matrix data must be two-dimensional")
    return np.mod(arr, 2).astype(np.uint8)


def _matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((a.astype(np.int64) @ b.astype(np.int64)) & 1).astype(np.uint8)


class BitMatrix:
    """An immutable rows x cols matrix with entries in {0, 1}."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = _mod2(data)
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def from_columns(cls, columns, rows: int) -> "BitMatrix":
        """Stack 1-D vectors as the columns of a rows x len(columns) matrix."""
        cols = list(columns)
        if not cols:
            return cls.zeros(rows, 0)
        return cls(np.stack([np.asarray(c, dtype=np.uint8) for c in cols], axis=1))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.data[:, j].copy()

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.data.T)

    def is_zero(self) -> bool:
        return not self.data.any()

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not compose")
        return BitMatrix(_matmul2(self.data, other.data))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _echelon(arr: np.ndarray, *, reduced: bool = False, pivot_limit: int | None = None):
    """Gaussian elimination with XOR row updates.

    Args:
        arr: uint8 matrix; not modified.
        reduced: clear entries above pivots as well (Gauss-Jordan).
        pivot_limit: only search for pivots in the first *pivot_limit*
            columns; row updates still span the full width.

    Returns:
        (R, pivot_cols) where R is the (reduced) echelon form and
        pivot_cols lists the pivot column indices in order.
    """
    R = arr.astype(np.uint8).copy()
    m, n = R.shape
    limit = n if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    row = 0
    for col in range(limit):
        if row == m:
            break
        hits = np.flatnonzero(R[row:, col])
        if hits.size == 0:
            continue
        p = row + int(hits[0])
        if p != row:
            R[[row, p]] = R[[p, row]]
        if reduced:
            others = np.flatnonzero(R[:, col])
            others = others[others != row]
        else:
            others = row + 1 + np.flatnonzero(R[row + 1:, col])
        if others.size:
            R[others] ^= R[row]
        pivots.append(col)
        row += 1
    return R, pivots


def rank(m: BitMatrix) -> int:
    """Rank of the matrix over the two-element field."""
    return len(_echelon(m.data)[1])


class Subspace:
    """A subspace of {0,1}^n spanned by an independent column basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: BitMatrix) -> None:
        if basis.rows != ambient_dim:
            raise ValueError("basis rows do not match the ambient dimension")
        if rank(basis) != basis.cols:
            raise ValueError("basis columns are linearly dependent")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, BitMatrix.zeros(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, BitMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, vector) -> bool:
        v = np.asarray(vector, dtype=np.uint8).reshape(self.ambient_dim, 1)
        stacked = np.concatenate([self.basis.data, v], axis=1)
        return len(_echelon(stacked)[1]) == self.dim

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def kernel_basis(m: BitMatrix) -> Subspace:
    """Basis of the null space; its dimension is cols - rank."""
    R, pivots = _echelon(m.data, reduced=True)
    n = m.cols
    pivot_set = set(pivots)
    vectors = []
    for c in range(n):
        if c in pivot_set:
            continue
        v = np.zeros(n, dtype=np.uint8)
        v[c] = 1
        for k, p in enumerate(pivots):
            v[p] = R[k, c]
        vectors.append(v)
    return Subspace(n, BitMatrix.from_columns(vectors, n))


def image_basis(m: BitMatrix) -> Subspace:
    """Basis of the column span: the pivot columns of the matrix."""
    _, pivots = _echelon(m.data)
    return Subspace(m.rows, BitMatrix(m.data[:, pivots]))


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """Dimension of the intersection: dim a + dim b - rank([a | b])."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    stacked = np.concatenate([a.basis.data, b.basis.data], axis=1)
    return a.dim + b.dim - len(_echelon(stacked)[1])


class _GaussSolver:
    """Solves M x = v for a fixed M with independent columns.

    Precomputes an invertible row transform T with T @ M = [I_k; 0], so a
    whole matrix of right-hand sides is handled by one multiplication.
    """

    __slots__ = ("_transform", "_k", "_n")

    def __init__(self, m: np.ndarray) -> None:
        n, k = m.shape
        aug = np.concatenate([m, np.eye(n, dtype=np.uint8)], axis=1)
        R, pivots = _echelon(aug, reduced=True, pivot_limit=k)
        if len(pivots) != k:
            raise ValueError("solver requires independent columns")
        self._transform = R[:, k:]
        self._k = k
        self._n = n

    def solve_many(self, rhs: np.ndarray):
        """Return (coeffs, ok): columnwise solutions and solvability flags."""
        if rhs.shape[0] != self._n:
            raise ValueError("right-hand side has the wrong length")
        w = _matmul2(self._transform, rhs)
        coeffs = w[: self._k]
        if self._n > self._k:
            ok = ~w[self._k:].any(axis=0)
        else:
            ok = np.ones(rhs.shape[1], dtype=bool)
        return coeffs, ok


class HomologyPresentation:
    """One homology degree of a Z2 chain complex: cycles mod boundaries.

    Stores a cycle basis, a boundary basis, chosen representative cycles
    spanning the quotient, and a coordinatizer expressing any cycle as a
    boundary combination plus homology coordinates.
    """

    __slots__ = ("ambient_dim", "cycle_basis", "boundary_basis", "homology_reps", "_solver")

    def __init__(self, ambient_dim: int, cycle_basis: Subspace,
                 boundary_basis: Subspace, homology_reps: BitMatrix) -> None:
        if homology_reps.cols != cycle_basis.dim - boundary_basis.dim:
            raise ValueError("representative count must equal cycles minus boundaries")
        self.ambient_dim = ambient_dim
        self.cycle_basis = cycle_basis
        self.boundary_basis = boundary_basis
        self.homology_reps = homology_reps
        stacked = np.concatenate([boundary_basis.basis.data, homology_reps.data], axis=1)
        self._solver = _GaussSolver(stacked)

    @property
    def betti(self) -> int:
        return self.homology_reps.cols

    def decompose_many(self, vectors: np.ndarray):
        """Split cycle columns into (boundary coeffs, homology coords, ok).

        A column is a cycle iff its ok flag is set; it is a boundary iff
        additionally its homology coordinates vanish.
        """
        coeffs, ok = self._solver.solve_many(vectors)
        nb = self.boundary_basis.dim
        return coeffs[:nb], coeffs[nb:], ok

    def coordinates(self, cycle) -> np.ndarray:
        """Homology coordinates of one cycle vector; raises if not a cycle."""
        v = np.asarray(cycle, dtype=np.uint8).reshape(self.ambient_dim, 1)
        _, hom, ok = self.decompose_many(v)
        if not ok[0]:
            raise ValueError("vector is not a cycle")
        return hom[:, 0].copy()

    def __repr__(self) -> str:
        return f"HomologyPresentation(betti {self.betti}, ambient {self.ambient_dim})"


def homology_presentation(boundary_in: BitMatrix, boundary_out: BitMatrix) -> HomologyPresentation:
    """Present ker(boundary_out) / img(boundary_in).

    boundary_in maps the next degree into this one, boundary_out maps this
    degree into the previous one; their composition must vanish.
    """
    n = boundary_out.cols
    if boundary_in.rows != n:
        raise ValueError("boundary matrices do not share the middle chain group")
    if n and boundary_in.cols and not (boundary_out @ boundary_in).is_zero():
        raise ValueError("boundary composition is nonzero: malformed chain complex")
    cycles = kernel_basis(boundary_out)
    boundaries = image_basis(boundary_in)
    stacked = np.concatenate([boundaries.basis.data, cycles.basis.data], axis=1)
    _, pivots = _echelon(stacked)
    nb = boundaries.dim
    rep_cols = [p - nb for p in pivots if p >= nb]
    reps = BitMatrix(cycles.basis.data[:, rep_cols])
    return HomologyPresentation(n, cycles, boundaries, reps)


def induced_map(src: HomologyPresentation, dst: HomologyPresentation,
                chain_map: BitMatrix) -> BitMatrix:
    """Matrix of the map induced on homology by a chain-level map.

    The chain map must send cycles to cycles and boundaries to
    boundaries; both are asserted through the destination coordinatizer.
    """
    if chain_map.rows != dst.ambient_dim or chain_map.cols != src.ambient_dim:
        raise ValueError("chain map shape does not match the presentations")
    if src.boundary_basis.dim:
        images = _matmul2(chain_map.data, src.boundary_basis.basis.data)
        _, hom, ok = dst.decompose_many(images)
        if not ok.all() or hom.any():
            raise ValueError("chain map does not send boundaries to boundaries")
    if src.betti == 0:
        return BitMatrix.zeros(dst.betti, 0)
    images = _matmul2(chain_map.data, src.homology_reps.data)
    _, hom, ok = dst.decompose_many(images)
    if not ok.all():
        raise ValueError("chain map does not send cycles to cycles")
    return BitMatrix(hom)


def reduce_bit_columns(columns: list[int]):
    """Classical left-to-right column reduction over Python-int bit columns.

    Bit i of columns[j] is the entry in row i of column j, so no dense
    matrix is built: a column costs one bit per row up to its highest
    entry.  Columns must be ordered by a filtration: every nonzero row
    index of column j has to precede j.  Returns (pairs, essential) where
    pairs is a list of (birth_index, death_index) and essential lists the
    unpaired positive column indices.
    """
    n = len(columns)
    reduced: list[int] = [0] * n
    low_owner: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    positive: list[int] = []
    for j in range(n):
        b = columns[j]
        if b >> j:
            raise ValueError(f"column {j} violates the filtration order (entry at row {b.bit_length() - 1})")
        while b:
            low = b.bit_length() - 1
            owner = low_owner.get(low)
            if owner is None:
                break
            b ^= reduced[owner]
        reduced[j] = b
        if b:
            low = b.bit_length() - 1
            low_owner[low] = j
            pairs.append((low, j))
        else:
            positive.append(j)

    births = {i for i, _ in pairs}
    essential = [j for j in positive if j not in births]
    return pairs, essential


def column_reduce(ordered_boundary: BitMatrix):
    """Column reduction of a dense filtered boundary matrix.

    Converts the square matrix to bit columns and runs
    reduce_bit_columns on them; the filtration-order requirement and
    the (pairs, essential) result are the same.
    """
    if ordered_boundary.rows != ordered_boundary.cols:
        raise ValueError("filtered boundary matrix must be square")
    cols: list[int] = []
    for j in range(ordered_boundary.cols):
        bits = 0
        for r in np.flatnonzero(ordered_boundary.data[:, j]):
            bits |= 1 << int(r)
        cols.append(bits)
    return reduce_bit_columns(cols)
