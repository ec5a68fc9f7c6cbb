"""Level persistence: level bars, relevant numbers, and conversions.

The level barcode of a PL vertex map is its extended persistence
(Cohen-Steiner, Edelsbrunner and Harer 2009; Carlsson, de Silva and
Morozov 2009): level_barcode reads all four bar kinds off one column
reduction of the cone over the complex, whose columns are the lower-star
filtration followed by the cone over the upper-star filtration.

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
Each number counts bars: a bar adds its multiplicity to every entry
whose condition it meets, so numbers_from_barcode fills the tables in
one pass over the bars, and RelevantNumbers keeps only nonzero entries.
compute_relevant_numbers computes the numbers directly, band by band,
from level and interlevel cell complexes; it is independent of the cone
reduction and serves as its oracle in the checks and tests.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

from .complexes import CriticalGrid, VertexValuedMap, critical_values
from .gf2 import BitMatrix, column_reduce, image_basis, induced_map, intersection_dim, kernel_basis, Subspace
from .slabs import SlabBuilder, homology_of, include_level
from .sublevel import INF, SublevelBarcode, lower_star_boundary

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
    """An interval with critical endpoints and an open/closed flag per end.

    An open end records that the classes die when pushed past it; a
    closed end records that they stop being detectable beyond it.
    """

    degree: int
    left: float
    right: float
    left_closed: bool
    right_closed: bool

    def __post_init__(self) -> None:
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
        for bar, mult in dict(counts).items():
            if mult < 0:
                raise ValueError(f"negative multiplicity for bar {bar}")
            if mult == 0:
                continue
            if bar.left not in grid.criticals or bar.right not in grid.criticals:
                raise ValueError(f"bar {bar} has a non-critical endpoint")
            cleaned[bar] = int(mult)
        self.counts = cleaned

    def count(self, bar: LevelBar) -> int:
        return self.counts.get(bar, 0)

    def bars(self, degree: int | None = None) -> list[tuple[LevelBar, int]]:
        items = [(b, m) for b, m in self.counts.items() if degree is None or b.degree == degree]
        return sorted(items)

    def max_degree(self) -> int:
        return max((b.degree for b in self.counts), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LevelBarcode):
            return NotImplemented
        return self.grid.criticals == other.grid.criticals and self.counts == other.counts

    def __repr__(self) -> str:
        parts = [f"{b}x{m}" for b, m in self.bars()]
        return f"LevelBarcode({'; '.join(parts)})"


def first_difference(a, b) -> str:
    """Name the first bar whose multiplicity differs between two barcodes.

    Works for two level barcodes or two sub-level barcodes; bars are
    visited in sorted order.  Returns "" when the barcodes are equal.
    """
    if a.grid.criticals != b.grid.criticals:
        return f"critical values {list(a.grid.criticals)} vs {list(b.grid.criticals)}"
    if isinstance(a, LevelBarcode):
        ca, cb, name = a.counts, b.counts, str
    else:
        ca, cb = a.bars, b.bars
        name = lambda k: f"H{k[0]} [{k[1]}, {'inf' if k[2] == INF else k[2]})"
    for key in sorted(ca.keys() | cb.keys()):
        if ca.get(key, 0) != cb.get(key, 0):
            return f"{name(key)} with multiplicity {ca.get(key, 0)} vs {cb.get(key, 0)}"
    return ""


def level_barcode(f: VertexValuedMap, grid: CriticalGrid | None = None,
                  max_degree: int | None = None) -> LevelBarcode:
    """Level bars from one extended-persistence reduction of the cone.

    Columns are the cone point w, then the simplices of K in lower-star
    order, then the cones w*s in descending upper-star order, sorted by
    (-min value, dimension, lexicographic); the boundary of w*s is
    s + w*(boundary of s), and that of w*v is v + w.  A pair born at
    value a and killed at value b reads as:

    * both in K (ordinary): [a, b) in the birth degree r, if a != b;
    * born in K, killed in the cone (extended): [a, b] in degree r if
      a <= b, else (b, a) in degree r - 1;
    * both in the cone (relative), birth of cone dimension r + 1:
      (b, a] in degree r, if a != b.

    The cone point is essential and pairs with nothing.  Bars above
    max_degree (default: the complex dimension) are dropped.
    """
    if grid is None:
        grid = critical_values(f)
    top = f.complex.dim if max_degree is None else max_degree
    top = max(top, 0)
    lower, index, boundary = lower_star_boundary(f)
    upper = sorted(((s, f.min_on(s)) for s in f.complex.simplices),
                   key=lambda e: (-e[1], len(e[0]), e[0]))
    n = len(lower)
    cone_row = {s: 1 + n + i for i, (s, _) in enumerate(upper)}
    columns = [0] + [bits << 1 for bits in boundary]  # row 0 is the cone point
    for s, _ in upper:
        bits = 2 << index[s]  # s sits one row below the cone point
        if len(s) == 1:
            bits |= 1
        else:
            for i in range(len(s)):
                bits |= 1 << cone_row[s[:i] + s[i + 1:]]
        columns.append(bits)
    pairs, _ = column_reduce(BitMatrix.from_bits(columns, len(columns)))

    entries = [((), 0.0)] + lower + upper  # column -> (simplex, value)
    counts: dict[LevelBar, int] = {}
    for i, j in pairs:
        if i == 0:
            continue
        (si, a), (_, b) = entries[i], entries[j]
        r = len(si) - 1
        if j <= n:
            bar = LevelBar(r, a, b, True, False) if a != b else None
        elif i <= n:
            bar = LevelBar(r, a, b, True, True) if a <= b else LevelBar(r - 1, b, a, False, False)
        else:
            bar = LevelBar(r, b, a, False, True) if a != b else None
        if bar is not None and bar.degree <= top:
            counts[bar] = counts.get(bar, 0) + 1
    _log.debug("cone reduction: %d simplices, %d cone columns, %d pairs", n, len(columns), len(pairs))
    return LevelBarcode(grid, counts)


class RelevantNumbers:
    """The five number families over a critical grid, as sparse tables.

    Only nonzero entries are stored.  Both constructions fill entries at
    in-range grid points only, with u >= t in up and kernel-overlap keys
    and d <= t in down and kernel-overlap keys, so a sentinel, a degree
    out of range or a reversed argument reads 0 without a check.
    Arguments must be grid values: an in-range value between two grid
    points also reads 0 (on the square circle level_rank(0, 0.3) is 0,
    though the level at 0.3 has rank 2, as at the grid value 0.5).
    """

    def __init__(self, grid: CriticalGrid, max_degree: int,
                 level: dict, overlap: dict, up: dict, down: dict, both: dict) -> None:
        self.grid = grid
        self.max_degree = max_degree
        self._level = {k: m for k, m in level.items() if m}
        self._overlap = {k: m for k, m in overlap.items() if m}
        self._up = {k: m for k, m in up.items() if m}
        self._down = {k: m for k, m in down.items() if m}
        self._both = {k: m for k, m in both.items() if m}

    def level_rank(self, r: int, t: float) -> int:
        return self._level.get((r, t), 0)

    def image_overlap(self, r: int, t: float, u: float) -> int:
        return self._overlap.get((r, t, u), 0)

    def up_kernel(self, r: int, t: float, u: float) -> int:
        return self._up.get((r, t, u), 0)

    def down_kernel(self, r: int, t: float, d: float) -> int:
        return self._down.get((r, t, d), 0)

    def kernel_overlap(self, r: int, t: float, u: float, d: float) -> int:
        return self._both.get((r, t, u, d), 0)

    def entries(self, name: str) -> list[tuple[tuple, int]]:
        """Sorted (key, count) pairs of the nonzero entries of one family.

        name is the accessor's name; keys are its arguments as a tuple,
        (r, t), (r, t, u), (r, t, d) or (r, t, u, d).
        """
        table = {"level_rank": self._level, "image_overlap": self._overlap, "up_kernel": self._up,
                 "down_kernel": self._down, "kernel_overlap": self._both}[name]
        return sorted(table.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelevantNumbers):
            return NotImplemented
        return (self.grid.criticals == other.grid.criticals
                and self.grid.regulars == other.grid.regulars
                and self.max_degree == other.max_degree
                and self._level == other._level
                and self._overlap == other._overlap
                and self._up == other._up
                and self._down == other._down
                and self._both == other._both)

    def __repr__(self) -> str:
        return f"RelevantNumbers(degrees 0..{self.max_degree}, {len(self._overlap)} pairs)"


def _in_range_points(grid: CriticalGrid) -> list[float]:
    return [x for x in grid.points if grid.in_range(x)]


def compute_relevant_numbers(f: VertexValuedMap, max_degree: int | None = None, *,
                             grid: CriticalGrid | None = None,
                             builder: SlabBuilder | None = None) -> RelevantNumbers:
    """Compute the five number families directly from cell complexes.

    For every in-range grid pair the level complexes are included into
    the interlevel complex; ranks, kernels and image overlaps of the
    induced maps fill the tables.  Degrees where both levels have no
    homology are skipped without building the band.

    builder (default: a new one) must be a SlabBuilder of f; passing
    the same builder to several calls on one map, as run_checks does,
    builds each level and band complex and its homology once.  Every
    number is still computed from the complexes.
    """
    if builder is None:
        builder = SlabBuilder(f)
    elif builder.f is not f:
        raise ValueError("builder was made for another map")
    if grid is None:
        grid = critical_values(f)
    top = f.complex.dim if max_degree is None else max_degree
    top = max(top, 0)
    pts = _in_range_points(grid)
    levels = {x: builder.level(x) for x in pts}
    presentations = {(x, r): homology_of(levels[x], r) for x in pts for r in range(top + 1)}

    level: dict = {}
    overlap: dict = {}
    up: dict = {}
    down: dict = {}
    both: dict = {}
    up_spaces: dict = {}
    down_spaces: dict = {}

    for x in pts:
        for r in range(top + 1):
            level[(r, x)] = presentations[(x, r)].betti

    for ix, x in enumerate(pts):
        for y in pts[ix:]:
            if x == y:
                for r in range(top + 1):
                    betti = level[(r, x)]
                    overlap[(r, x, x)] = betti
                    up[(r, x, x)] = 0
                    down[(r, x, x)] = 0
                    up_spaces[(r, x, x)] = Subspace.zero(betti)
                    down_spaces[(r, x, x)] = Subspace.zero(betti)
                continue
            needed = [r for r in range(top + 1) if level[(r, x)] or level[(r, y)]]
            if needed:
                band = builder.interlevel(x, y)
                inc_x = include_level(f, x, x, y, src=levels[x], dst=band)
                inc_y = include_level(f, y, x, y, src=levels[y], dst=band)
            for r in range(top + 1):
                if r not in needed:
                    overlap[(r, x, y)] = 0
                    up[(r, x, y)] = 0
                    down[(r, y, x)] = 0
                    up_spaces[(r, x, y)] = Subspace.zero(0)
                    down_spaces[(r, y, x)] = Subspace.zero(0)
                    continue
                target = homology_of(band, r)
                from_low = induced_map(presentations[(x, r)], target, inc_x.chain_matrix(r))
                from_high = induced_map(presentations[(y, r)], target, inc_y.chain_matrix(r))
                overlap[(r, x, y)] = intersection_dim(image_basis(from_low), image_basis(from_high))
                ker_low = kernel_basis(from_low)
                ker_high = kernel_basis(from_high)
                up[(r, x, y)] = ker_low.dim
                down[(r, y, x)] = ker_high.dim
                up_spaces[(r, x, y)] = ker_low
                down_spaces[(r, y, x)] = ker_high

    for ix, x in enumerate(pts):
        for r in range(top + 1):
            for u in pts[ix:]:
                for d in pts[: ix + 1]:
                    both[(r, x, u, d)] = intersection_dim(up_spaces[(r, x, u)], down_spaces[(r, x, d)])

    return RelevantNumbers(grid, top, level, overlap, up, down, both)


def numbers_from_barcode(bc: LevelBarcode, grid: CriticalGrid,
                         max_degree: int | None = None) -> RelevantNumbers:
    """Derive all five number families from a level barcode by counting.

    Each bar adds its multiplicity to level_rank at every in-range grid
    point t it contains and to image_overlap at every pair t <= u of
    them.  An open right end reaches every point u at or above it: the
    bar adds to up_kernel(t, u).  An open left end reaches every d at or
    below it: down_kernel(t, d).  A bar open at both ends adds to
    kernel_overlap(t, u, d).  The cost is the bars plus the entries.
    """
    top = bc.max_degree() if max_degree is None else max_degree
    top = max(top, 0)
    pts = _in_range_points(grid)
    level, overlap, up, down, both = Counter(), Counter(), Counter(), Counter(), Counter()
    for b, m in bc.counts.items():
        r = b.degree
        if not 0 <= r <= top:
            continue
        inside = pts[bisect_left(pts, b.left) if b.left_closed else bisect_right(pts, b.left):
                     bisect_right(pts, b.right) if b.right_closed else bisect_left(pts, b.right)]
        reach_up = [] if b.right_closed else pts[bisect_left(pts, b.right):]
        reach_down = [] if b.left_closed else pts[:bisect_right(pts, b.left)]
        for i, t in enumerate(inside):
            level[(r, t)] += m
            for u in inside[i:]:
                overlap[(r, t, u)] += m
            for d in reach_down:
                down[(r, t, d)] += m
            for u in reach_up:
                up[(r, t, u)] += m
                for d in reach_down:
                    both[(r, t, u, d)] += m
    return RelevantNumbers(grid, top, level, overlap, up, down, both)


def _require_nonneg(value: int, what: str, *args) -> int:
    """Return value, or raise naming what % args when it is negative."""
    if value < 0:
        raise ValueError(f"{what % args} is negative: input numbers are not realizable by a tame map")
    return value


# (left closed, right closed) of the four bar kinds
_KINDS = ((True, True), (False, False), (False, True), (True, False))


def barcode_from_overlaps(nums: RelevantNumbers) -> LevelBarcode:
    """Level bar counts from the image-overlap table alone.

    An end at a critical value has a grid point just inside the bar and
    one just outside it: a closed end is inside itself and has its
    regular neighbour away from the bar outside; an open end is outside
    itself and has its regular neighbour towards the bar inside.  The
    count of a bar with inside points x, y and outside points x', y' is
    ov(x, y) - ov(x', y) - ov(x, y') + ov(x', y'), one rule for all four
    kinds; a singleton is closed at both ends, and a sentinel reads 0.
    """
    grid = nums.grid
    T = grid.criticals
    counts: dict[LevelBar, int] = {}
    for r in range(nums.max_degree + 1):
        ov = lambda x, y: nums.image_overlap(r, x, y)
        for k, tk in enumerate(T):
            for j in range(k, len(T)):
                tj = T[j]
                for lc, rc in _KINDS if j > k else _KINDS[:1]:
                    x, x_out = (tk, grid.regular_below(k)) if lc else (grid.regular_above(k), tk)
                    y, y_out = (tj, grid.regular_above(j)) if rc else (grid.regular_below(j), tj)
                    m = ov(x, y) - ov(x_out, y) - ov(x, y_out) + ov(x_out, y_out)
                    if m:
                        bar = LevelBar(r, tk, tj, lc, rc)
                        counts[bar] = _require_nonneg(m, "count of %s", bar)
    return LevelBarcode(grid, counts)


def barcode_from_kernels(nums: RelevantNumbers) -> LevelBarcode:
    """Level bar counts from level ranks, kernels and kernel overlaps.

    Open-open counts come from kernel-overlap differences probed at the
    regular value just above the left endpoint.  The other three kinds
    are recovered through the auxiliary counts of bars meeting one level
    with a prescribed end at another, with out-of-range indices
    contributing zero.
    """
    grid = nums.grid
    T = grid.criticals
    n = len(T)
    counts: dict[LevelBar, int] = {}
    for r in range(nums.max_degree + 1):
        oo: dict[tuple[int, int], int] = {}
        for k in range(n):
            probe = grid.regular_above(k)
            for j in range(k + 1, n):
                e = lambda upper, lower: nums.kernel_overlap(r, probe, upper, lower)
                oo[(k, j)] = _require_nonneg(
                    e(T[j], T[k]) - e(T[j], T[k + 1]) - e(T[j - 1], T[k]) + e(T[j - 1], T[k + 1]),
                    "open-open count at (%s, %s) in degree %s", T[k], T[j], r)

        def span_count(i: int, j: int) -> int:
            if i < 0 or j >= n or i > j:
                return 0
            return nums.image_overlap(r, T[i], T[j])

        def right_open_count(i: int, j: int) -> int:
            # bars meeting the level at T[i] with an open right end at T[j]
            if i < 0 or j >= n or i >= j:
                return 0
            return _require_nonneg(
                nums.up_kernel(r, T[i], T[j]) - nums.up_kernel(r, T[i], T[j - 1]),
                "auxiliary right-open count at (%s, %s) in degree %s", T[i], T[j], r)

        def left_open_count(i: int, j: int) -> int:
            # bars meeting the level at T[j] with an open left end at T[i]
            if i < 0 or j >= n or i >= j:
                return 0
            return _require_nonneg(
                nums.down_kernel(r, T[j], T[i]) - nums.down_kernel(r, T[j], T[i + 1]),
                "auxiliary left-open count at (%s, %s) in degree %s", T[i], T[j], r)

        def left_closed_count(i: int, j: int) -> int:
            # bars meeting the level at T[j] with a closed left end at T[i]
            if i < 0 or j >= n or i > j:
                return 0
            return _require_nonneg(
                span_count(i, j) - span_count(i - 1, j) - left_open_count(i - 1, j),
                "auxiliary left-closed count at [%s, %s) in degree %s", T[i], T[j], r)

        oc: dict[tuple[int, int], int] = {}
        for k in range(n):
            for j in range(n - 1, k, -1):
                oc[(k, j)] = _require_nonneg(
                    left_open_count(k, j) - left_open_count(k, j + 1) - oo.get((k, j + 1), 0),
                    "open-closed count at (%s, %s] in degree %s", T[k], T[j], r)
        co: dict[tuple[int, int], int] = {}
        for j in range(n):
            for k in range(j):
                co[(k, j)] = _require_nonneg(
                    right_open_count(k, j) - right_open_count(k - 1, j) - oo.get((k - 1, j), 0),
                    "closed-open count at [%s, %s) in degree %s", T[k], T[j], r)
        cc: dict[tuple[int, int], int] = {}
        for k in range(n):
            for j in range(n - 1, k - 1, -1):
                cc[(k, j)] = _require_nonneg(
                    left_closed_count(k, j) - left_closed_count(k, j + 1) - co.get((k, j + 1), 0),
                    "closed-closed count at [%s, %s] in degree %s", T[k], T[j], r)

        for (lc, rc), table in zip(_KINDS, (cc, oo, oc, co)):
            for (k, j), m in table.items():
                if m:
                    counts[LevelBar(r, T[k], T[j], lc, rc)] = m
    return LevelBarcode(grid, counts)


def sublevel_from_level(bc: LevelBarcode, max_degree: int | None = None) -> SublevelBarcode:
    """Sub-level bars from level bars, in one pass over the bars.

    A closed-open bar [b, d) survives as the same finite bar; a
    closed-closed bar starting at b feeds an infinite bar at b; an
    open-open bar ending at d feeds an infinite bar at d one degree up;
    open-closed bars contribute nothing.  Sub-level degrees above
    max_degree + 1 (default: the highest level degree + 1) are dropped.
    """
    top = bc.max_degree() if max_degree is None else max_degree
    bars: Counter = Counter()
    for b, m in bc.counts.items():
        if b.left_closed:
            key = (b.degree, b.left, INF if b.right_closed else b.right)
        elif not b.right_closed:
            key = (b.degree + 1, b.right, INF)
        else:
            continue
        if key[0] <= top + 1:
            bars[key] += m
    return SublevelBarcode(bc.grid, bars)
