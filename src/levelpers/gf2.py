"""Linear algebra over the two-element field.

A matrix is stored as bit columns: bit i of a column, a Python int, is
the entry in row i, so a column costs one bit per row up to its highest
entry and no rows x cols array is ever built.  Every operation runs on
one elimination primitive: a column is reduced against a pivot table
keyed by the lowest entry (highest row index) of each reduced column,
optionally tracking which input columns were combined.  An elimination
(_eliminate) can continue from a given pivot table, so a table grows
column by column across calls: the band route keeps one per degree for
a growing band and reduces the homology representatives of its end
levels against a copy of it (level.compute_relevant_numbers).  Rank,
kernel, image, subspace intersections, homology presentations (cycles
mod boundaries, from one elimination of the outgoing boundary and one
pass over boundaries then cycles), induced maps and the persistence
pairing (column_reduce) are all read off that one reduction.  column_reduce visits the columns of a graded filtered
boundary matrix by decreasing dimension and skips every column that a
reduced column one dimension up already pairs (clearing), so the
columns that would only be reduced to zero cost no additions.
"""

from __future__ import annotations

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


def _eliminate(columns, track: bool = False, pivots: dict | None = None):
    """Reduce columns left to right, each against the pivot table and the
    columns before it.

    pivots (default: a new empty table) is extended in place with every
    column that stays nonzero, so a later call continues where this one
    stopped.  Returns (pivots, reduced): the final pivot table and, per
    column, its (residual, combination).  With track set, bit k of a
    combination is input column k, so a zero residual gives a kernel
    vector; the combinations already in the table add their own bits.
    """
    if pivots is None:
        pivots = {}
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
    """A subspace of {0,1}^n spanned by an independent column basis; the
    check costs one pivot-table miss per column on distinct lowest entries."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: BitMatrix) -> None:
        if basis.rows != ambient_dim:
            raise ValueError("basis rows do not match the ambient dimension")
        if rank(basis) != basis.cols:
            raise ValueError("basis columns are linearly dependent")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def kernel_basis(m: BitMatrix) -> Subspace:
    """Basis of the null space; its dimension is cols - rank.  The
    combination that clears column j has its lowest entry at j."""
    _, reduced = _eliminate(m.columns, track=True)
    return Subspace(m.cols, BitMatrix.from_bits([combo for c, combo in reduced if not c], m.cols))


def image_basis(m: BitMatrix) -> Subspace:
    """Basis of the column span: the reduced pivot columns, whose lowest
    entries are distinct."""
    pivots, _ = _eliminate(m.columns)
    return Subspace(m.rows, BitMatrix.from_bits([c for c, _ in pivots.values()], m.rows))


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """Dimension of the intersection: dim a + dim b - rank([a | b])."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    if not (a.dim and b.dim):
        return 0
    return a.dim + b.dim - len(_eliminate(a.basis.columns + b.basis.columns)[0])


class HomologyPresentation:
    """One homology degree of a Z2 chain complex: cycles mod boundaries.

    boundaries are independent boundary columns and homology_reps are
    cycle columns whose classes form a basis of the quotient.  The pivot
    table holds the reduced boundaries, with combination 0, then the
    reduced representatives, representative q with bit q set, so
    reducing a cycle against it leaves its homology coordinates.
    """

    __slots__ = ("ambient_dim", "boundaries", "homology_reps", "_pivots")

    def __init__(self, ambient_dim: int, boundaries: list[int], homology_reps: list[int], pivots: dict) -> None:
        self.ambient_dim = ambient_dim
        self.boundaries = boundaries
        self.homology_reps = homology_reps
        self._pivots = pivots

    @property
    def betti(self) -> int:
        return len(self.homology_reps)

    def _decompose(self, vector: int) -> tuple[bool, int]:
        """(is a cycle, homology coordinates as bits) of one chain column.

        A cycle is a boundary iff its homology coordinates vanish.
        """
        residual, combo = _reduce(vector, self._pivots)
        return not residual, combo

    def __repr__(self) -> str:
        return f"HomologyPresentation(betti {self.betti}, ambient {self.ambient_dim})"


def homology_presentation(boundary_in: BitMatrix, boundary_out: BitMatrix) -> HomologyPresentation:
    """Present ker(boundary_out) / img(boundary_in).

    boundary_in maps the next degree into this one, boundary_out maps this
    degree into the previous one; their composition must vanish.  One
    tracked elimination of boundary_out gives the cycles; one pass over
    the boundary columns and then the cycles keeps each column that is
    independent of those before it, the cycles so kept as representatives.
    """
    n = boundary_out.cols
    if boundary_in.rows != n:
        raise ValueError("boundary matrices do not share the middle chain group")
    if n and boundary_in.cols and not (boundary_out @ boundary_in).is_zero():
        raise ValueError("boundary composition is nonzero: malformed chain complex")
    pivots, reduced = _eliminate(boundary_in.columns)
    boundaries = [b for b, (residual, _) in zip(boundary_in.columns, reduced) if residual]
    reps: list[int] = []
    for residual, z in _eliminate(boundary_out.columns, track=True)[1]:
        if not residual:  # z is a cycle
            residual, combo = _reduce(z, pivots, 1 << len(reps))
            if residual:
                pivots[residual.bit_length() - 1] = (residual, combo)
                reps.append(z)
    return HomologyPresentation(n, boundaries, reps, pivots)


def induced_map(src: HomologyPresentation, dst: HomologyPresentation,
                chain_map: BitMatrix) -> BitMatrix:
    """Matrix of the map induced on homology by a chain-level map.

    The chain map must send cycles to cycles and boundaries to
    boundaries; both are asserted through the destination coordinatizer.
    """
    if chain_map.rows != dst.ambient_dim or chain_map.cols != src.ambient_dim:
        raise ValueError("chain map shape does not match the presentations")
    for b in src.boundaries:
        ok, hom = dst._decompose(_combine(chain_map.columns, b))
        if not ok or hom:
            raise ValueError("chain map does not send boundaries to boundaries")
    columns = []
    for z in src.homology_reps:
        ok, hom = dst._decompose(_combine(chain_map.columns, z))
        if not ok:
            raise ValueError("chain map does not send cycles to cycles")
        columns.append(hom)
    return BitMatrix.from_bits(columns, dst.betti)


def column_reduce(ordered_boundary: BitMatrix):
    """Persistence pairing of a filtered boundary matrix, with clearing.

    Columns must be ordered by a filtration: every nonzero row index of
    column j has to precede j.  The matrix must be graded: a column's
    dimension is 0 if it is empty and otherwise one more than that of
    its lowest entry, and all its entries share one dimension.  Columns
    are reduced by decreasing dimension, each against the pivot table
    of its own dimension; a column that is the lowest entry of a
    reduced column one dimension up is skipped, since it reduces to
    zero (clearing; Chen and Kerber 2011, Bauer, Kerber and Reininghaus
    2014).  The pairing is the one of the left-to-right reduction.
    Returns (pairs, essential) where pairs is a list of (birth_index,
    death_index) ordered by death index and essential lists the
    unpaired positive column indices in ascending order.
    """
    if ordered_boundary.rows != ordered_boundary.cols:
        raise ValueError("filtered boundary matrix must be square")
    columns = ordered_boundary.columns
    dims: list[int] = []
    by_dim: list[list[int]] = []  # column indices of each dimension, ascending
    for j, b in enumerate(columns):
        low = b.bit_length() - 1
        if low >= j:
            raise ValueError(f"column {j} violates the filtration order (entry at row {low})")
        d = dims[low] + 1 if b else 0
        dims.append(d)
        if d == len(by_dim):
            by_dim.append([])
        by_dim[d].append(j)
    pairs: list[tuple[int, int]] = []
    essential: list[int] = []
    above: dict = {}  # pivot table one dimension up: its keys are the cleared columns
    for d in range(len(by_dim) - 1, 0, -1):
        digits = bytearray(b"0") * len(columns)  # the rows of dimension d - 1, as binary digits
        for i in by_dim[d - 1]:
            digits[i] = 49  # "1"
        mask = int(digits[::-1], 2)
        pivots: dict[int, tuple[int, int]] = {}
        for j in by_dim[d]:
            b = columns[j]
            if b & mask != b:
                row = (b & ~mask).bit_length() - 1
                raise ValueError(f"column {j} is not graded: entry at row {row} has dimension "
                                 f"{dims[row]}, its lowest entry has dimension {d - 1}")
            if j in above:
                continue
            b, _ = _reduce(b, pivots)
            if b:
                low = b.bit_length() - 1
                pivots[low] = (b, 0)
                pairs.append((low, j))
            else:
                essential.append(j)
        above = pivots
    if by_dim:
        essential += [j for j in by_dim[0] if j not in above]
    pairs.sort(key=lambda p: p[1])
    essential.sort()
    return pairs, essential
