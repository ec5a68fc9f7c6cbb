"""Level persistence: level bars, relevant numbers, and conversions.

The level barcode of a PL vertex map is its extended persistence
(Cohen-Steiner, Edelsbrunner and Harer 2009; Carlsson, de Silva and
Morozov 2009): level_barcode reads all four bar kinds off one column
reduction of the cone over the complex, one dimension at a time: the
cells of each dimension are the simplices of the lower-star filtration
of f followed by the cones over the upper-star filtration.  The
upper-star order of f is the lower-star order of -f, so both halves are
boundary_columns of lower-star orders, of f and of -f.  A filtration
needs no cone: every interlevel set of its telescope retracts onto its
top level, so level_barcode reads its level bars off its own sub-level
bars.  The bar routes take only their input: level_barcode(f)
returns every degree over the grid critical_values(f), and
sublevel_from_level(bc) maps every bar of bc over bc.grid; a caller that
wants fewer degrees cuts the bars.

The level bars also determine five families of numbers per homology
degree, indexed over the grid of critical and regular values:

* level_rank(t): dimension of the level homology at t;
* up_kernel(t, u): rank killed by including the level into the band
  [t, u] above it;
* down_kernel(t, d): rank killed by including into the band [d, t];
* kernel_overlap(t, u, d): rank killed in both directions at once;
* image_overlap(t, u): overlap, inside the band [t, u], of the classes
  arriving from its two ends.

These determine, and are determined by, the counts of the four kinds of
level bars (closed/open at each end); both conversion directions are
implemented, together with the export of level bars to sub-level bars.
Two routes turn numbers into bars: barcode_from_overlaps reads the
image_overlap table alone; barcode_from_kernels reads the three kernel
tables and image_overlap at pairs of critical values.
Each number counts bars: a bar adds its multiplicity to every entry
whose condition it meets, so each table is a count of bars whose ends
lie in a range, the rank function read as a count of diagram points
(Cohen-Steiner, Edelsbrunner and Harer 2007).  RelevantNumbers stores
four tables as dense arrays per degree over the grid positions (2k for
the k-th critical value, 2k + 1 for the gap above it): level_rank(t) is
image_overlap(t, t), the diagonal of the overlap table.  Its one
constructor takes the arrays per degree and keeps the degrees up to the
last one that holds a number, so each table has one stored form and two
tables are equal exactly when their accessors agree.  Both routes write
the arrays by position: numbers_from_barcode fills them with running
sums of bar-end counts, in the degrees of its bars;
compute_relevant_numbers computes them directly from the cells of the
levels and the bands between them, independent of the cone reduction,
and serves as its oracle in the checks and tests.  It sweeps each row
of the table once: the band from one level grows a slab and a slice at
a time, its boundary reduction is extended rather than redone, and
each pair is read off by reducing the two levels' homology
representatives against it.  It is the only code here that needs a
float inside a gap, at which it slices the level.  Both conversions,
the document rows and entries read the arrays by position.  Only
kernel_overlap, filled from the bars open at both ends in one sweep per
grid position, is sparse.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import sub

from .complexes import CriticalGrid, Filtration, VertexValuedMap, critical_values, telescope
from .gf2 import BitMatrix, GradedBoundary, Subspace, _eliminate, column_reduce, intersection_dim
# image_basis, induced_map, kernel_basis and include_level are not called
# here; they stay bound in this module because bench/tracing.py wraps
# them here by name
from .gf2 import image_basis, induced_map, kernel_basis  # noqa: F401
from .slabs import SlabBuilder, homology_of, include_level  # noqa: F401
from .sublevel import INF, SublevelBarcode, boundary_columns, filtration_order, sublevel_barcode

_log = logging.getLogger("levelpers")

__all__ = [
    "LevelBar",
    "LevelBarcode",
    "RelevantNumbers",
    "level_barcode",
    "first_difference",
    "compute_relevant_numbers",
    "numbers_from_barcode",
    "barcode_from_overlaps",
    "barcode_from_kernels",
    "sublevel_from_level",
]


@dataclass(frozen=True, order=True)
class LevelBar:
    """An interval with critical endpoints and an open/closed flag per end,
    in a homology degree that is never negative.

    An open end records that the classes die when pushed past it; a
    closed end records that they stop being detectable beyond it.
    """

    degree: int
    left: float
    right: float
    left_closed: bool
    right_closed: bool

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"bar degree {self.degree} is negative")
        if self.left > self.right:
            raise ValueError("bar endpoints are reversed")
        if self.left == self.right and not (self.left_closed and self.right_closed):
            raise ValueError("a singleton bar must be closed at both ends")

    def __str__(self) -> str:
        lb = "[" if self.left_closed else "("
        rb = "]" if self.right_closed else ")"
        return f"H{self.degree} {lb}{self.left}, {self.right}{rb}"


class LevelBarcode:
    """Multiset of level bars over a critical grid; zero counts are dropped."""

    def __init__(self, grid: CriticalGrid, counts) -> None:
        self.grid = grid
        cleaned: dict[LevelBar, int] = {}
        criticals = set(grid.criticals)
        for bar, mult in dict(counts).items():
            if mult < 0:
                raise ValueError(f"negative multiplicity for bar {bar}")
            if mult == 0:
                continue
            if bar.left not in criticals or bar.right not in criticals:
                raise ValueError(f"bar {bar} has a non-critical endpoint")
            cleaned[bar] = int(mult)
        self.counts = cleaned

    def max_degree(self) -> int:
        return max((b.degree for b in self.counts), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LevelBarcode):
            return NotImplemented
        return self.grid.criticals == other.grid.criticals and self.counts == other.counts

    def __repr__(self) -> str:
        parts = [f"{b}x{m}" for b, m in sorted(self.counts.items())]
        return f"LevelBarcode({'; '.join(parts)})"


def first_difference(a, b) -> str:
    """Name the first bar or number whose count differs between a and b.

    Works for two level barcodes, two sub-level barcodes or two
    RelevantNumbers; bars, and numbers by (family, degree, positions),
    are visited in sorted order.  A number is named like its accessor
    call, with a gap written as the open interval it spans; a table
    stores no degree above its last number, so two tables with different
    degree ranges differ at a number, named like any other.  Returns ""
    when a and b are equal.
    """
    if a.grid.criticals != b.grid.criticals:
        return f"critical values {list(a.grid.criticals)} vs {list(b.grid.criticals)}"
    what = "multiplicity"
    if isinstance(a, LevelBarcode):
        ca, cb, name = a.counts, b.counts, str
    elif isinstance(a, RelevantNumbers):
        T = a.grid.criticals
        ca, cb = ({(family, *e[:-1]): e[-1] for family in _FAMILIES for e in nums.entries(family)} for nums in (a, b))
        point = lambda i: f"({T[i // 2]}, {T[i // 2 + 1]})" if i % 2 else f"{T[i // 2]}"
        name = lambda k: f"{k[0]}({k[1]}, {', '.join(map(point, k[2:]))})"
        what = "count"
    else:
        ca, cb = a.bars, b.bars
        name = lambda k: f"H{k[0]} [{k[1]}, {'inf' if k[2] == INF else k[2]})"
    for key in sorted(ca.keys() | cb.keys()):
        if ca.get(key, 0) != cb.get(key, 0):
            return f"{name(key)} with {what} {ca.get(key, 0)} vs {cb.get(key, 0)}"
    return ""


def level_barcode(f: VertexValuedMap | Filtration) -> LevelBarcode:
    """Level bars, in every degree, over critical_values(f): for a map,
    from one extended-persistence reduction of the cone; for a
    filtration, read off its sub-level bars.

    The cone is graded like every filtered boundary here (see
    GradedBoundary): the cells of dimension e are the cone point w (for
    e = 0), then the e-simplices of K in lower-star order, then the
    cones w*s over the (e - 1)-simplices in descending upper-star order,
    by (-min value, lexicographic): that is the lower-star order of -f,
    so both halves come from boundary_columns, of f and of -f.  The
    boundary of w*s is s + w*(boundary of s), where w*(boundary of s) is
    the boundary column of s under -f shifted below the (e - 1)-simplices
    of K, and that of w*v is v + w.  A pair born at value a and killed at
    value b reads as:

    * both in K (ordinary): [a, b) in the birth degree r, if a != b;
    * born in K, killed in the cone (extended): [a, b] in degree r if
      a <= b, else (b, a) in degree r - 1;
    * both in the cone (relative), birth of cone dimension r + 1:
      (b, a] in degree r, if a != b.

    The cone point is essential and pairs with nothing.  A pair's degree
    is that of a simplex of K, or one less, so no bar lies above the
    complex dimension: a caller that wants fewer degrees cuts the bars.

    A filtration stands for its telescope, every interlevel set of which
    retracts onto its top level: so a level bar never has an open left
    end, a finite sub-level bar [b, d) is the closed-open level bar
    [b, d), and an infinite one from b is the closed-closed bar
    [b, t_last] to the last time.  No telescope and no cone is built.
    """
    if isinstance(f, Filtration):
        sb = sublevel_barcode(f)
        last = f.times[-1]
        return LevelBarcode(sb.grid, {LevelBar(r, b, last if d == INF else d, True, d == INF): m
                                      for (r, b, d), m in sb.bars.items()})
    grid = critical_values(f)  # refuses the empty complex, which has no cone point to add
    lower = filtration_order(f)
    upper = filtration_order(VertexValuedMap(f.complex, {v: -x for v, x in f.values.items()}))
    index, columns = boundary_columns(lower)
    _, cones = boundary_columns(upper)
    # entries: (-1, 0.0) for w, (0, f) in K, (1, -f) in the cone, so each dimension is in entry order
    entries = [[(0, x) for _, x in rows] for rows in lower] + [[]]
    entries[0].insert(0, (-1, 0.0))
    columns[0].insert(0, 0)
    columns.append([])
    columns[1] = [bits << 1 for bits in columns[1]]  # the rows of dimension 0 start with w
    for e in range(1, len(columns)):
        w = e == 1
        below = w + len(lower[e - 1])  # the first cone row of dimension e - 1
        cone = cones[e - 1]  # in place, so that each column is freed as its shifted copy is made
        for k, (s, _) in enumerate(upper[e - 1]):  # w*s: w*(facets of s), s, and w for a vertex
            cone[k] = cone[k] << below | 1 << w + index[s] | w
        columns[e] += cone
        entries[e] += [(1, y) for _, y in upper[e - 1]]
    pairs, _ = column_reduce(GradedBoundary(columns, entries))

    # a cone value is min f, read back as 0.0 - y so 0.0 stays 0.0
    counts: dict[LevelBar, int] = {}
    for d, i, j in pairs:
        (p, a), (q, b) = entries[d - 1][i], entries[d][j]
        if p < 0:  # w
            continue
        if q == 0:
            bar = LevelBar(d - 1, a, b, True, False) if a != b else None
        elif p == 0:
            b = 0.0 - b
            bar = LevelBar(d - 1, a, b, True, True) if a <= b else LevelBar(d - 2, b, a, False, False)
        else:
            a, b = 0.0 - a, 0.0 - b
            bar = LevelBar(d - 2, b, a, False, True) if a != b else None
        if bar is not None:
            counts[bar] = counts.get(bar, 0) + 1
    n = len(f.complex)
    _log.debug("cone reduction: %d simplices, %d cone columns, %d pairs", n, 2 * n + 1, len(pairs))
    return LevelBarcode(grid, counts)


# the five families, by accessor name
_FAMILIES = ("level_rank", "image_overlap", "up_kernel", "down_kernel", "kernel_overlap")


class RelevantNumbers:
    """The five number families over a critical grid, as four rank arrays.

    The arrays are indexed by grid position, 0..2P-2 for P critical
    values: 2k is the k-th critical value and 2k + 1 the gap above it
    (CriticalGrid.position).  The constructor takes one list per degree
    and drops every trailing degree in which all four are 0, so
    max_degree is the last degree that holds a number (-1 if none does)
    and two tables are equal exactly when their accessors agree; per
    degree r:

    * overlap[r][i][j - i] is image_overlap(i, j), for j >= i; its
      diagonal overlap[r][i][0], the overlap of a level with itself, is
      level_rank at position i;
    * up[r][i][u - i] is up_kernel(i, u), for u >= i;
    * down[r][i][d] is down_kernel(i, d), for d <= i;
    * both[r] maps i to {(u, d): count}, the nonzero kernel_overlap
      entries with u >= i >= d (the only sparse family).

    The accessors take values and read any value inside a gap as that
    gap (on the square circle level_rank(0, 0.3) is 2, as at 0.5); a
    value out of range, a degree out of range or a reversed argument
    reads 0.  entries and critical_entries list positions, so no gap is
    ever named by a float.
    """

    def __init__(self, grid: CriticalGrid, overlap, up, down, both) -> None:
        top = len(overlap)
        while top and not (both[top - 1] or any(map(any, overlap[top - 1]))
                           or any(map(any, up[top - 1])) or any(map(any, down[top - 1]))):
            top -= 1  # a trailing degree whose four families are all 0
        self.grid, self.max_degree = grid, top - 1
        self._overlap, self._up, self._down, self._both = overlap[:top], up[:top], down[:top], both[:top]

    def level_rank(self, r: int, t: float) -> int:
        i = self.grid.position(t)
        return self._overlap[r][i][0] if i is not None and 0 <= r <= self.max_degree else 0

    def image_overlap(self, r: int, t: float, u: float) -> int:
        i, j = self.grid.position(t), self.grid.position(u)
        if i is None or j is None or j < i or not 0 <= r <= self.max_degree:
            return 0
        return self._overlap[r][i][j - i]

    def up_kernel(self, r: int, t: float, u: float) -> int:
        i, j = self.grid.position(t), self.grid.position(u)
        if i is None or j is None or j < i or not 0 <= r <= self.max_degree:
            return 0
        return self._up[r][i][j - i]

    def down_kernel(self, r: int, t: float, d: float) -> int:
        i, j = self.grid.position(t), self.grid.position(d)
        if i is None or j is None or j > i or not 0 <= r <= self.max_degree:
            return 0
        return self._down[r][i][j]

    def kernel_overlap(self, r: int, t: float, u: float, d: float) -> int:
        if not 0 <= r <= self.max_degree:
            return 0
        at = self.grid.position
        return self._both[r].get(at(t), {}).get((at(u), at(d)), 0)

    def _scan(self, name: str, step: int) -> list[tuple]:
        """(r, ..., count) of the nonzero entries of one family whose
        arguments all sit at multiples of step, each index divided by
        step, in sorted order."""
        out = []
        if name == "level_rank":  # the diagonal of image_overlap
            for r, rows in enumerate(self._overlap):
                out += [(r, i, row[0]) for i, row in enumerate(rows[::step]) if row[0]]
        elif name == "kernel_overlap":
            for r, by_point in enumerate(self._both):
                for i in sorted(by_point):
                    if i % step == 0:
                        out += [(r, i // step, u // step, d // step, m) for (u, d), m in sorted(by_point[i].items())
                                if u % step == d % step == 0]
        else:  # a KeyError for any other name
            tables = {"image_overlap": self._overlap, "up_kernel": self._up, "down_kernel": self._down}[name]
            for r, rows in enumerate(tables):
                for i, row in enumerate(rows[::step]):
                    if any(row):  # row[o] is at i + o, or at o for down_kernel
                        out += [(r, i, j, m) for j, m in enumerate(row[::step], 0 if name == "down_kernel" else i) if m]
        return out

    def entries(self, name: str) -> list[tuple]:
        """The nonzero entries of one family as sorted (r, i, ..., count)
        tuples: name is the accessor's name, and its arguments are grid
        positions, (i), (i, u), (i, d) or (i, u, d)."""
        return self._scan(name, 1)

    def critical_entries(self, name: str) -> list[tuple]:
        """The nonzero entries of one family whose arguments are all
        critical values, as (r, k, ..., count) tuples in the order of
        entries(name): an argument k stands for grid.criticals[k]."""
        return self._scan(name, 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelevantNumbers):
            return NotImplemented
        return (self.grid.criticals == other.grid.criticals
                and self._overlap == other._overlap
                and self._up == other._up
                and self._down == other._down
                and self._both == other._both)

    def __repr__(self) -> str:
        pairs = sum(len(row) - row.count(0) for rows in self._overlap for row in rows)
        degrees = f"degrees 0..{self.max_degree}" if self.max_degree >= 0 else "no degrees"
        return f"RelevantNumbers({degrees}, {pairs} pairs)"


def compute_relevant_numbers(f: VertexValuedMap | Filtration, max_degree: int | None = None, *,
                             grid: CriticalGrid | None = None,
                             builder: SlabBuilder | None = None) -> RelevantNumbers:
    """Compute the five number families directly from the cells of the
    levels and of the bands between them.

    The band between the first and the last grid value is one complex,
    the chain builder.interlevel(*values), whose cells are numbered per
    dimension in chain order; the band between two grid values is a
    stretch of it.  So is each level, cell for cell and boundary for
    boundary, since both are assembled from the same memoized chunks.
    One sweep per row i grows the band from the level at i: a pivot
    table per degree r holds the reduced boundary columns of the band's
    (r + 1)-cells, and each step to the next grid value j reduces only
    the columns of the chunks it adds.  The pair (i, j) is read off that
    table: the homology representatives of the levels at i and at j,
    numbered as their slices in the chain, are reduced against a copy of
    it with tracking, so a representative combination that reduces to
    zero is a class that dies in the band.  The two kernels give
    up_kernel and down_kernel, and image_overlap is rank_i + rank_j -
    rank(both), in degrees 0..max_degree (default: the complex
    dimension), of which the table keeps those up to the last that holds
    a number.  Degrees where both levels have no homology are skipped.
    No other band is built, and nothing is checked here: the builder
    checks each chunk once, when it makes it.  Position i is sliced at
    grid.value(i), so a gap that holds no float is a ValueError naming
    it.  A filtration is read as its telescope, as run_checks reads it.

    builder (default: a new one) must be a SlabBuilder of f, or of the
    telescope of a filtration f; passing the same builder to several
    calls on one map, as run_checks does, builds each chunk and level
    complex and its homology once, and reads each pair once: the builder
    keeps, per pair of values and per degree, the overlap and the two
    kernels, so a later call on a wider grid or more degrees reduces
    only the pairs and degrees it has not seen, and sweeps only the rows
    that hold one.
    """
    if isinstance(f, Filtration):
        f = telescope(f)
        if builder is not None and builder.f == f:  # made for an equal telescope
            f = builder.f
    if builder is None:
        builder = SlabBuilder(f)
    elif builder.f is not f:
        raise ValueError("builder was made for another map")
    if grid is None:
        grid = critical_values(f)
    top = f.complex.dim if max_degree is None else max_degree
    top = max(top, 0)
    n = 2 * len(grid.criticals) - 1
    degrees = range(top + 1)
    pts = [grid.value(i) for i in range(n)]
    levels = [builder.level(x) for x in pts]
    chain = builder.interlevel(*pts)
    columns = [chain.boundary_matrix(r + 1).columns for r in degrees]  # per degree r: the (r + 1)-cells' boundaries
    starts, ends, count = [], [], [0] * (top + 2)  # per level and dimension: its first and past-last cell in the chain
    for chunk in builder.chunks(*pts):
        at_level = chunk.lo == chunk.hi == pts[len(starts)]
        if at_level:
            starts.append(count)
        count = [k + len(chunk.by_dim.get(d, ())) for d, k in enumerate(count)]
        if at_level:
            ends.append(count)
    presentations = [[homology_of(c, r) for r in degrees] for c in levels]
    level = [[presentations[i][r].betti for i in range(n)] for r in degrees]
    overlap = [[[row[i]] + [0] * (n - 1 - i) for i in range(n)] for row in level]  # level_rank on the diagonal
    up = [[[0] * (n - i) for i in range(n)] for _ in degrees]
    down = [[[0] * (i + 1) for i in range(n)] for _ in degrees]
    both: list[dict] = [{} for _ in degrees]
    kernels = {}  # (r, i, j): the nonzero kernel from the level at i into the band between i and j
    # reps[k][r]: the homology representatives of the level at k, numbered as its slice in the chain
    reps = [[[z << starts[k][r] for z in p.homology_reps] for r, p in enumerate(row)]
            for k, row in enumerate(presentations)]

    for i, x in enumerate(pts):
        pairs, todo = [], {}  # (j, needed degrees, known readings); j -> the degrees to read
        for j in range(i + 1, n):
            needed = [r for r in degrees if level[r][i] or level[r][j]]
            if needed:
                known = builder._pairs.setdefault((x, pts[j]), {})
                pairs.append((j, needed, known))
                missing = [r for r in needed if r not in known]
                if missing:
                    todo[j] = missing
        if todo:  # sweep the row up to its last pair to read
            tables = {r: {} for missing in todo.values() for r in missing}  # r -> the band's reduced (r + 1)-boundaries
            for j in range(i, max(todo) + 1):
                added = starts[i] if j == i else ends[j - 1]  # per dimension, the first cell this step adds
                for r, table in tables.items():
                    _eliminate(columns[r][added[r + 1]:ends[j][r + 1]], pivots=table)
                for r in todo.get(j, ()):
                    builder._pairs[(x, pts[j])][r] = _read_pair(tables[r], reps[i][r], reps[j][r])
        for j, needed, known in pairs:
            for r in needed:
                overlap[r][i][j - i], ker_low, ker_high = known[r]
                up[r][i][j - i] = ker_low.dim
                down[r][j][i] = ker_high.dim
                if ker_low.dim:
                    kernels[(r, i, j)] = ker_low
                if ker_high.dim:
                    kernels[(r, j, i)] = ker_high

    for i in range(n):
        for r in degrees:
            downs = [(d, kernels[(r, i, d)]) for d in range(i) if (r, i, d) in kernels]
            for u in range(i + 1, n):
                if (r, i, u) in kernels:
                    for d, ker_down in downs:
                        m = intersection_dim(kernels[(r, i, u)], ker_down)
                        if m:
                            both[r].setdefault(i, {})[(u, d)] = m

    return RelevantNumbers(grid, overlap, up, down, both)


def _kernel_in_band(table: dict, reps: list[int]) -> tuple[Subspace, dict]:
    """The kernel of the map from a level's homology into a band, and the
    band's table extended by the level's classes.

    table is the pivot table of the band's reduced boundary columns and
    reps are the level's homology representatives, numbered as in the
    band; a combination of them that reduces to zero against a copy of
    the table is a class that is a boundary in the band.  The table
    itself is left as it is, and returned as it is for no
    representatives.
    """
    if not reps:
        return Subspace(0, BitMatrix.zeros(0, 0)), table
    pivots = dict(table)
    _, reduced = _eliminate(reps, track=True, pivots=pivots)
    return Subspace(len(reps), BitMatrix.from_bits([c for residual, c in reduced if not residual], len(reps))), pivots


def _read_pair(table: dict, low: list[int], high: list[int]) -> tuple[int, Subspace, Subspace]:
    """(image overlap, kernel from the low level, kernel from the high
    level) of the maps from two levels into the band between them.

    The overlap of the two images is rank_low + rank_high - rank(both):
    what the high classes add beyond the band's boundaries and the low
    classes, taken from rank_high.
    """
    ker_low, with_low = _kernel_in_band(table, low)
    ker_high, _ = _kernel_in_band(table, high)
    overlap = 0
    if ker_low.dim < len(low) and ker_high.dim < len(high):  # both images are nonzero
        added = sum(1 for residual, _ in _eliminate(high, pivots=with_low)[1] if residual)
        overlap = len(high) - ker_high.dim - added
    return overlap, ker_low, ker_high


def numbers_from_barcode(bc: LevelBarcode) -> RelevantNumbers:
    """Derive all five number families from a level barcode by counting.

    The numbers are over the barcode's own grid, in degrees
    0..bc.max_degree(): a caller that wants fewer degrees cuts the bars.
    Per degree, a bar is
    the range [first, end) of grid positions it contains plus its open
    ends; T[k] is at 2k, so a closed end sits on its critical's position
    and an open one on the gap next to it.  image_overlap(i, j) counts
    the bars with first <= i and last >= j: row i is a running sum, from
    the top, of the bars begun by i per last index, and level_rank is
    its diagonal.  up_kernel(i, u) counts the bars containing i whose
    open right end lies at or below u: a running sum over the open right
    ends of the bars begun by i.  down_kernel mirrors it, from the top
    down.  kernel_overlap(t, u, d) counts the bars open at both ends that
    contain t, for u at or above the right end and d at or below the
    left end (_kernel_overlaps).  For n grid positions the cost is O(n^2)
    per degree, the size of the tables, plus the kernel_overlap entries.
    """
    grid = bc.grid
    at = {t: 2 * k for k, t in enumerate(grid.criticals)}
    n = 2 * len(grid.criticals) - 1
    spans: list[list] = [[] for _ in range(bc.max_degree() + 1)]
    for b, m in bc.counts.items():  # every bar contains a position: first < end
        spans[b.degree].append((at[b.left] + (not b.left_closed), at[b.right] + b.right_closed,
                                m, b.left_closed, b.right_closed))
    overlap, up, down, both = [], [], [], []
    for bars in spans:
        begun = [[] for _ in range(n)]  # first index -> (end, m, right closed)
        ended = [[] for _ in range(n)]  # last index -> (first, m) of the left-open bars
        for first, end, m, lc, rc in bars:
            begun[first].append((end, m, rc))
            if not lc:
                ended[end - 1].append((first, m))
        by_last, right_open = [0] * n, [0] * (n + 1)
        ov_rows, up_rows, row = [], [], [0] * (n + 1)
        for i in range(n):
            for end, m, rc in begun[i]:
                by_last[end - 1] += m
                if not rc:
                    right_open[end] += m
            if begun[i]:  # row[j - i]: bars begun by i whose last index is >= j
                row = list(accumulate(reversed(by_last[i:])))
                row.reverse()
            else:  # the same counts as at i - 1, from j = i on
                row = row[1:]
            ov_rows.append(row)
            up_rows.append(list(accumulate(right_open[i + 1:n], initial=0)))
        left_open, down_rows = [0] * n, [None] * n
        for i in range(n - 1, -1, -1):
            for first, m in ended[i]:
                if first:
                    left_open[first - 1] += m
            row = list(accumulate(reversed(left_open[:i]), initial=0))
            row.reverse()
            down_rows[i] = row
        overlap.append(ov_rows)
        up.append(up_rows)
        down.append(down_rows)
        both.append(_kernel_overlaps([(first, end, m) for first, end, m, lc, rc in bars if not (lc or rc)], n))
    return RelevantNumbers(grid, overlap, up, down, both)


def _kernel_overlaps(bars: list, n: int) -> dict[int, dict]:
    """{t: {(u, d): count}}, the nonzero kernel_overlap entries of one
    degree from its bars open at both ends, each (first, end, m): a bar
    adds m at every t in [first, end), u >= end and d < first.  Per t,
    the bars containing t are added in order of end, each at its first
    index, and after the last bar of one end the suffix sums over first
    give the row over d for every u up to the next end.  The cost is the
    number of entries, not the volume of every bar's box."""
    out: dict[int, dict] = {}
    for t in range(n if bars else 0):
        ends = sorted((end, first, m) for first, end, m in bars if first <= t < end)
        by_first, slot = [0] * (t + 1), {}
        for k, (end, first, m) in enumerate(ends):
            by_first[first] += m
            stop = ends[k + 1][0] if k + 1 < len(ends) else n
            if stop > end:
                past = list(accumulate(reversed(by_first)))[::-1]  # past[d]: the bars with first >= d
                row = [(d, c) for d, c in enumerate(past[1:]) if c]
                for u in range(end, stop):
                    for d, c in row:
                        slot[(u, d)] = c
        if slot:
            out[t] = slot
    return out


def _require_nonneg(value: int, what: str, *args) -> int:
    """Return value, or raise naming what % args when it is negative."""
    if value < 0:
        raise ValueError(f"{what % args} is negative: input numbers are not realizable by a tame map")
    return value


# (left closed, right closed) of the four bar kinds
_KINDS = ((True, True), (False, False), (False, True), (True, False))


def _add_bars(counts: dict, r: int, T, k: int, rows) -> None:
    """Add the nonzero counts of bars from T[k], one row per kind in _KINDS
    order: the closed-closed row starts at T[k], the others at T[k + 1]."""
    for (lc, rc), row in zip(_KINDS, rows):
        if any(row):
            for j, m in enumerate(row, k if lc and rc else k + 1):
                if m:
                    counts[LevelBar(r, T[k], T[j], lc, rc)] = m


def _differences(inner: list, outer: list) -> list:
    """e[o] = inner[o] - inner[o + 1] - outer[o] + outer[o + 1], with both
    rows reading 0 past their ends."""
    d = list(map(sub, inner, outer))
    d.append(0)
    return list(map(sub, d, d[1:]))


def barcode_from_overlaps(nums: RelevantNumbers) -> LevelBarcode:
    """Level bar counts from the image-overlap table alone.

    An end at a critical value has a grid point just inside the bar and
    one just outside it: a closed end is inside itself and has its
    regular neighbour away from the bar outside; an open end is outside
    itself and has its regular neighbour towards the bar inside.  The
    count of a bar with inside points x, y and outside points x', y' is
    ov(x, y) - ov(x', y) - ov(x, y') + ov(x', y'), one rule for all four
    kinds; a singleton is closed at both ends, and a point outside the
    grid reads 0.  With T[k] at index 2k, a left end fixes the rows x and x' of the
    table, and one difference of the two rows along y gives the counts
    of every right end: closed at T[j] at offset 2j, open at 2j - 1.
    """
    T = nums.grid.criticals
    P = len(T)
    counts: dict[LevelBar, int] = {}
    for r in range(nums.max_degree + 1):
        ov = nums._overlap[r]
        for k in range(P):
            # left end closed: x = 2k, x' = 2k - 1 (no point below T[0]: a zero row)
            closed = _differences(ov[2 * k], ov[2 * k - 1][1:] if k else [0] * len(ov[0]))
            rows = [closed[0::2], [], [], closed[1::2]]
            if k + 1 < P:  # left end open: x = 2k + 1, x' = 2k
                opened = _differences(ov[2 * k + 1], ov[2 * k][1:])
                rows[1:3] = opened[0::2], opened[1::2]
            if min(rows[0] + rows[1] + rows[2] + rows[3]) < 0:
                for j in range(k, P):
                    for (lc, rc), row in zip(_KINDS, rows):
                        o = j - k if lc and rc else j - k - 1
                        if o >= 0:
                            _require_nonneg(row[o], "count of %s", LevelBar(r, T[k], T[j], lc, rc))
            _add_bars(counts, r, T, k, rows)
    return LevelBarcode(nums.grid, counts)


def barcode_from_kernels(nums: RelevantNumbers) -> LevelBarcode:
    """Level bar counts from the kernel tables and the image overlaps
    at pairs of critical values.

    Open-open counts come from kernel-overlap differences probed at the
    regular value just above the left endpoint.  The other three kinds
    are recovered through the auxiliary counts of bars meeting one level
    with a prescribed end at another, with out-of-range indices
    contributing zero: left-open counts from down_kernel, right-open
    counts from up_kernel, and left-closed counts from image_overlap at
    pairs of critical values (its diagonal is the level rank) less the
    left-open counts.  The tables are read by grid index (T[k] at 2k),
    one row per left end, and every count is checked in the order of a
    scalar pass: open-open by (k, j); open-closed by k, then j
    downwards; closed-open by j, then k; closed-closed by k, then j
    downwards.
    """
    T = nums.grid.criticals
    P = len(T)
    counts: dict[LevelBar, int] = {}
    zero = [0] * (P + 1)
    for r in range(nums.max_degree + 1):
        ov, up, down, both = nums._overlap[r], nums._up[r], nums._down[r], nums._both[r]
        # open-open, oo[k][j] over j = 0..P; oo[-1] is the zero row P
        oo = [zero] * (P + 1)
        for k in range(P):
            probe = both.get(2 * k + 1)
            if probe:
                # kernel_overlap(probe, T[j], T[k]) - kernel_overlap(probe, T[j], T[k + 1]) for j >= k;
                # the second term is 0, since no table holds a d above the probe t
                upper = [probe.get((2 * j, 2 * k), 0) for j in range(k, P)]
                row = [0] * (k + 1)
                row += map(sub, upper[1:], upper)
                row.append(0)
                if min(row) < 0:
                    for j in range(k + 1, P):
                        _require_nonneg(row[j], "open-open count at (%s, %s) in degree %s", T[k], T[j], r)
                oo[k] = row

        # bars meeting the level at T[j] with an open left end at T[k] (k < j), then open-closed
        left_open, open_closed = [zero] * P, [zero] * P
        for k in range(P - 1):
            lo = [0] * (k + 1)
            lo += [down[2 * j][2 * k] - down[2 * j][2 * k + 2] for j in range(k + 1, P)]
            lo.append(0)
            oc = [0] * (k + 1)
            oc += [a - b - c for a, b, c in zip(lo[k + 1:P], lo[k + 2:], oo[k][k + 2:])]
            oc.append(0)
            if min(lo) < 0 or min(oc) < 0:
                for j in range(P - 1, k, -1):
                    _require_nonneg(lo[j], "auxiliary left-open count at (%s, %s) in degree %s", T[k], T[j], r)
                    _require_nonneg(oc[j], "open-closed count at (%s, %s] in degree %s", T[k], T[j], r)
            left_open[k], open_closed[k] = lo, oc

        # bars meeting the level at T[k] with an open right end at T[j] (k < j), then closed-open
        closed_open = [None] * P  # column j over k = 0..j-1
        for j in range(P):
            ro = [0]  # ro[k + 1], so that ro[0] stands for k = -1
            ro += [up[2 * k][2 * (j - k)] - up[2 * k][2 * (j - k) - 2] for k in range(j)]
            co = [ro[k + 1] - ro[k] - oo[k - 1][j] for k in range(j)]
            if min(ro) < 0 or min(co, default=0) < 0:
                for k in range(j):
                    _require_nonneg(ro[k + 1], "auxiliary right-open count at (%s, %s) in degree %s", T[k], T[j], r)
                    _require_nonneg(co[k], "closed-open count at [%s, %s) in degree %s", T[k], T[j], r)
            closed_open[j] = co

        # bars meeting the level at T[j] with a closed left end at T[k] (k <= j), then closed-closed
        for k in range(P):
            below = ov[2 * k - 2][2::2] if k else zero
            lo_below = left_open[k - 1][k:] if k else zero
            lc = [a - b - c for a, b, c in zip(ov[2 * k][0::2], below, lo_below)]
            lc.append(0)
            co = [closed_open[j][k] for j in range(k + 1, P)]
            cc = [lc[o] - lc[o + 1] - c for o, c in enumerate(co + [0])]
            if min(lc) < 0 or min(cc) < 0:
                for j in range(P - 1, k - 1, -1):
                    _require_nonneg(lc[j - k], "auxiliary left-closed count at [%s, %s) in degree %s", T[k], T[j], r)
                    _require_nonneg(cc[j - k], "closed-closed count at [%s, %s] in degree %s", T[k], T[j], r)
            _add_bars(counts, r, T, k, (cc, oo[k][k + 1:P], open_closed[k][k + 1:P], co))
    return LevelBarcode(nums.grid, counts)


def sublevel_from_level(bc: LevelBarcode) -> SublevelBarcode:
    """Sub-level bars from level bars, in one pass over the bars.

    A closed-open bar [b, d) survives as the same finite bar; a
    closed-closed bar starting at b feeds an infinite bar at b; an
    open-open bar ending at d feeds an infinite bar at d one degree up;
    open-closed bars contribute nothing.  Sub-level degree d needs the
    level degrees d - 1 and d, so of level bars cut at degree m only
    the sub-level degrees 0..m are whole.
    """
    bars: Counter = Counter()
    for b, m in bc.counts.items():
        if b.left_closed:
            bars[(b.degree, b.left, INF if b.right_closed else b.right)] += m
        elif not b.right_closed:
            bars[(b.degree + 1, b.right, INF)] += m
    return SublevelBarcode(bc.grid, bars)
