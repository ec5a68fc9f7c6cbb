"""Linear algebra over the two-element field.

A matrix is stored as bit columns: bit i of a column, a Python int, is
the entry in row i, so a column costs one bit per row up to its highest
entry and no rows x cols array is ever built.  Every operation runs on
one elimination primitive: columns are reduced left to right against a
pivot table keyed by the lowest entry (highest row index) of each
reduced column, optionally tracking which input columns were combined.
Rank, kernel, image, subspace intersections, homology presentations
(cycles mod boundaries, with coordinates for arbitrary cycles), induced
maps and the classical persistence pairing (column_reduce) are all read
off that one reduction.
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
]


def _combine(columns, selection: int) -> int:
    """Sum of the columns picked by the set bits of selection."""
    out = 0
    while selection:
        low = selection & -selection
        out ^= columns[low.bit_length() - 1]
        selection ^= low
    return out


class BitMatrix:
    """An immutable rows x cols matrix with entries in {0, 1}, as bit columns."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, data) -> None:
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        odd = np.mod(arr, 2).astype(bool)
        self.rows, self.cols = arr.shape
        self.columns = tuple(sum(1 << int(i) for i in np.flatnonzero(odd[:, j]))
                             for j in range(self.cols))

    @classmethod
    def from_bits(cls, columns, rows: int) -> "BitMatrix":
        """Matrix whose column j has bit i set iff its entry in row i is 1."""
        m = cls.__new__(cls)
        m.rows = rows
        m.columns = tuple(columns)
        m.cols = len(m.columns)
        for j, c in enumerate(m.columns):
            if c < 0 or c >> rows:
                raise ValueError(f"bit column {j} does not fit in {rows} rows")
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls.from_bits((0,) * cols, rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_bits([1 << i for i in range(n)], n)

    def transpose(self) -> "BitMatrix":
        out = [0] * self.rows
        for j, c in enumerate(self.columns):
            for i in range(c.bit_length()):
                if c >> i & 1:
                    out[i] |= 1 << j
        return BitMatrix.from_bits(out, self.cols)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not compose")
        return BitMatrix.from_bits([_combine(self.columns, c) for c in other.columns], self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.columns) == (other.rows, other.cols, other.columns)

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _reduce(column: int, pivots: dict, combo: int = 0) -> tuple[int, int]:
    """Reduce a column against a pivot table; the only elimination loop.

    pivots maps the lowest entry of each stored column to that column and
    the input combination it stands for.  Returns the residual, which is
    zero iff the column lies in the span of the table, and combo plus the
    combinations of every stored column added on the way.
    """
    while column:
        hit = pivots.get(column.bit_length() - 1)
        if hit is None:
            break
        column ^= hit[0]
        combo ^= hit[1]
    return column, combo


def _eliminate(columns, track: bool = False):
    """Reduce columns left to right, each against the ones before it.

    Returns (pivots, reduced): the final pivot table and, per column, its
    (residual, combination).  With track set, bit k of a combination is
    input column k, so a zero residual gives a kernel vector.
    """
    pivots: dict[int, tuple[int, int]] = {}
    reduced = []
    for j, column in enumerate(columns):
        column, combo = _reduce(column, pivots, 1 << j if track else 0)
        if column:
            pivots[column.bit_length() - 1] = (column, combo)
        reduced.append((column, combo))
    return pivots, reduced


def rank(m: BitMatrix) -> int:
    """Rank of the matrix over the two-element field."""
    return len(_eliminate(m.columns)[0])


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

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def kernel_basis(m: BitMatrix) -> Subspace:
    """Basis of the null space; its dimension is cols - rank."""
    _, reduced = _eliminate(m.columns, track=True)
    return Subspace(m.cols, BitMatrix.from_bits([combo for c, combo in reduced if not c], m.cols))


def _independent(columns) -> list[int]:
    """Indices of the columns not in the span of the columns before them."""
    return [j for j, (c, _) in enumerate(_eliminate(columns)[1]) if c]


def image_basis(m: BitMatrix) -> Subspace:
    """Basis of the column span: the pivot columns of the matrix."""
    return Subspace(m.rows, BitMatrix.from_bits([m.columns[j] for j in _independent(m.columns)], m.rows))


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """Dimension of the intersection: dim a + dim b - rank([a | b])."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return a.dim + b.dim - len(_eliminate(a.basis.columns + b.basis.columns)[0])


class HomologyPresentation:
    """One homology degree of a Z2 chain complex: cycles mod boundaries.

    Stores a cycle basis, a boundary basis, chosen representative cycles
    spanning the quotient, and a pivot table of boundaries followed by
    representatives that expresses any cycle as a boundary combination
    plus homology coordinates.
    """

    __slots__ = ("ambient_dim", "cycle_basis", "boundary_basis", "homology_reps", "_pivots")

    def __init__(self, ambient_dim: int, cycle_basis: Subspace,
                 boundary_basis: Subspace, homology_reps: BitMatrix) -> None:
        if homology_reps.cols != cycle_basis.dim - boundary_basis.dim:
            raise ValueError("representative count must equal cycles minus boundaries")
        self.ambient_dim = ambient_dim
        self.cycle_basis = cycle_basis
        self.boundary_basis = boundary_basis
        self.homology_reps = homology_reps
        self._pivots, reduced = _eliminate(boundary_basis.basis.columns + homology_reps.columns, track=True)
        if not all(c for c, _ in reduced):
            raise ValueError("boundaries and representatives are linearly dependent")

    @property
    def betti(self) -> int:
        return self.homology_reps.cols

    def _decompose(self, vector: int) -> tuple[bool, int]:
        """(is a cycle, homology coordinates as bits) of one chain column.

        A cycle is a boundary iff its homology coordinates vanish.
        """
        residual, combo = _reduce(vector, self._pivots)
        return not residual, combo >> self.boundary_basis.dim

    def coordinates(self, cycle) -> np.ndarray:
        """Homology coordinates of one cycle vector; raises if not a cycle."""
        v = BitMatrix(np.asarray(cycle).reshape(self.ambient_dim, 1)).columns[0]
        ok, hom = self._decompose(v)
        if not ok:
            raise ValueError("vector is not a cycle")
        return np.array([hom >> k & 1 for k in range(self.betti)], dtype=np.uint8)

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
    nb = boundaries.dim
    picked = _independent(boundaries.basis.columns + cycles.basis.columns)
    reps = BitMatrix.from_bits([cycles.basis.columns[p - nb] for p in picked if p >= nb], n)
    return HomologyPresentation(n, cycles, boundaries, reps)


def induced_map(src: HomologyPresentation, dst: HomologyPresentation,
                chain_map: BitMatrix) -> BitMatrix:
    """Matrix of the map induced on homology by a chain-level map.

    The chain map must send cycles to cycles and boundaries to
    boundaries; both are asserted through the destination coordinatizer.
    """
    if chain_map.rows != dst.ambient_dim or chain_map.cols != src.ambient_dim:
        raise ValueError("chain map shape does not match the presentations")
    for b in src.boundary_basis.basis.columns:
        ok, hom = dst._decompose(_combine(chain_map.columns, b))
        if not ok or hom:
            raise ValueError("chain map does not send boundaries to boundaries")
    columns = []
    for z in src.homology_reps.columns:
        ok, hom = dst._decompose(_combine(chain_map.columns, z))
        if not ok:
            raise ValueError("chain map does not send cycles to cycles")
        columns.append(hom)
    return BitMatrix.from_bits(columns, dst.betti)


def column_reduce(ordered_boundary: BitMatrix):
    """Classical left-to-right column reduction of a filtered boundary matrix.

    Columns must be ordered by a filtration: every nonzero row index of
    column j has to precede j.  Returns (pairs, essential) where pairs is
    a list of (birth_index, death_index) and essential lists the unpaired
    positive column indices.
    """
    if ordered_boundary.rows != ordered_boundary.cols:
        raise ValueError("filtered boundary matrix must be square")
    columns = ordered_boundary.columns
    for j, b in enumerate(columns):
        if b >> j:
            raise ValueError(f"column {j} violates the filtration order (entry at row {b.bit_length() - 1})")
    pairs: list[tuple[int, int]] = []
    positive: list[int] = []
    for j, (b, _) in enumerate(_eliminate(columns)[1]):
        if b:
            pairs.append((b.bit_length() - 1, j))
        else:
            positive.append(j)
    births = {i for i, _ in pairs}
    essential = [j for j in positive if j not in births]
    return pairs, essential
