"""The column reduction on one global filtered boundary matrix, kept as
the reference for the graded reduction (gf2.column_reduce).

Every cell has one column as wide as the whole order; the dimensions
are read off the lowest entries, each column is checked against a mask
of the rows one dimension down, and the dimensions are reduced from the
top down with clearing.  graded_reference merges a GradedBoundary into
that global form by (entry, dimension, position), reduces it here, and
maps the pairs back, so a test compares the two reductions pair for
pair.
"""

from __future__ import annotations

from levelpers import BitMatrix, GradedBoundary
from levelpers.gf2 import _reduce


def global_column_reduce(ordered_boundary: BitMatrix):
    """Persistence pairing of a global filtered boundary matrix, with
    clearing: (pairs, essential), pairs as (birth, death) ordered by
    death, essential ascending."""
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


def left_to_right_reduce(matrix: BitMatrix):
    """The plain reduction without clearing: every column in order,
    against every reduced column before it."""
    owner: dict[int, int] = {}
    pairs, positive = [], []
    for j, column in enumerate(matrix.columns):
        while column and column.bit_length() - 1 in owner:
            column ^= owner[column.bit_length() - 1]
        if column:
            owner[column.bit_length() - 1] = column
            pairs.append((column.bit_length() - 1, j))
        else:
            positive.append(j)
    births = {i for i, _ in pairs}
    return pairs, [j for j in positive if j not in births]


def merged(boundary: GradedBoundary) -> tuple[list[tuple[int, int]], BitMatrix]:
    """(cells, matrix): the cells (d, j) of a graded boundary in the global
    order by (entry, dimension, position), and its global boundary matrix."""
    cells = sorted(((d, j) for d, column in enumerate(boundary.columns) for j in range(len(column))),
                   key=lambda c: (boundary.entries[c[0]][c[1]], c[0], c[1]))
    at = {cell: k for k, cell in enumerate(cells)}
    columns = []
    for d, j in cells:
        bits, out = boundary.columns[d][j], 0
        while bits:
            low = bits & -bits
            out |= 1 << at[d - 1, low.bit_length() - 1]
            bits ^= low
        columns.append(out)
    return cells, BitMatrix.from_bits(columns, len(cells))


def graded_reference(boundary: GradedBoundary, reduce=global_column_reduce):
    """The pairs and essential columns of a graded boundary, from a global
    reduction (default: with clearing) of its merged order, in the form
    and order of gf2.column_reduce."""
    cells, matrix = merged(boundary)
    pairs, essential = reduce(matrix)
    pairs = [(cells[j][0], cells[i][1], cells[j][1]) for i, j in pairs]
    essential = [cells[j] for j in essential]
    key = lambda p: (-p[0], p[-1])  # by decreasing dimension, then by column
    return sorted(pairs, key=key), sorted(essential, key=key)


def global_lower_star_order(f):
    """The lower-star order of a map on one list: every simplex by (max
    vertex value, dimension, lexicographic)."""
    return sorted(((s, max(f.values[v] for v in s)) for s in f.complex.simplices),
                  key=lambda p: (p[1], len(p[0]), p[0]))
