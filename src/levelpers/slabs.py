"""Cell complexes for level sets and interlevel sets of a PL vertex map.

A cell is a pair (carrier simplex, region), the region being a single
value (a slice, lo == hi) or a closed value band (a slab, lo < hi); the
carrier is the unique simplex whose relative interior meets the region.
With this model a level set at an endpoint of a band is literally a
subset of the band's cells, so inclusion chain maps are identities on
cell ids and need no geometric bookkeeping.

One cell rule covers slices and slabs.  A builder reads, once, a table
per simplex of its value span [min, max], its two end faces (its
vertices at min and at max) and its nonempty facets, all as the
complex's own simplex tuples.  In the slice at s a simplex carries
its own cell when it crosses s (min < s < max), of dimension
dim(simplex) - 1, or is constant at s, of full dimension; in the slab
[lo, hi] it carries its own cell when it spans the band (min <= lo and
max >= hi), of full dimension.  Otherwise the simplex meets the region
only in the face of its vertices at the end value it touches, a constant
slice cell, or not at all.  No vertex value lies strictly inside a slab
by construction.  The boundary of a cell is the rule applied to each
nonempty facet of its carrier, plus, for a slab, to the carrier at the
two end slices, kept at codimension one.

A builder makes the cells of each slice and slab once, as a Chunk: its
cells grouped by dimension, each group sorted by carrier.  Only a
simplex whose value span holds [lo, hi] can carry a cell of its own
there, so a chunk visits the simplices whose minimum is at most lo, a
prefix of them sorted by minimum, and of those the ones whose maximum
is at least hi; whether each of those carries a cell of its own there
is read off its span, and the cell of each facet is found once per
chunk.  It checks each chunk once, when it is made, against its own
cells and, for a slab, its two end slices: every face is present one
dimension down, every slice cell sits at the chunk's value, and the
boundary squares to zero.  A complex is the disjoint union of its
chunks, the boundary of a cell lies in its own chunk or, for a slab
cell, in the two end slices, and every complex that holds a slab holds
both of them, so these checks cover every complex built from the
chunks.  A complex is assembled from
checked chunks in (lo, hi) order, slice s0, slab (s0, s1), slice s1,
..., which within each dimension is the (lo, hi, carrier) order of its
cells, so it needs no sort and no check of its own; validate(c) still
checks a whole complex.

SlabBuilder(f).chunks(*values) is the one slicing rule: the chunks of
[values[0], values[-1]] sliced at every given value and at every vertex
value in between, in (lo, hi) order.  interlevel(*values) is the complex
of those chunks, so one value gives a level, two a band and more a
refined band; level(t) is interlevel(t).  The band route builds one
complex, the chain over its whole grid, and reads every band and level
as a stretch of it (level.compute_relevant_numbers).
A builder memoizes the chunk of each slice and slab and, in one dict
keyed by the values with repeats merged, every complex it has built;
each complex caches its homology presentations, so one builder shared
by all the computations on one map builds, checks and reduces each
complex once.  It also keeps the band route's reading of each pair of
level values, per degree.
include_level reads the level value and the interval off the two
complexes it is given.  A Cell is a named tuple, so hashing it runs in
C; as a tuple it also equals the plain (carrier, lo, hi) tuple with the
same fields.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

from .complexes import Simplex, VertexValuedMap, facets
from .gf2 import BitMatrix, HomologyPresentation, homology_presentation

__all__ = [
    "Cell",
    "CellComplex",
    "Chunk",
    "InclusionMap",
    "SlabBuilder",
    "include_level",
    "homology_of",
    "betti_numbers",
    "validate",
]


class Cell(NamedTuple):
    """A carrier simplex restricted to a slice value or a value band.

    Immutable; equal to, and hashed as, the tuple (carrier, lo, hi).
    """

    carrier: Simplex
    lo: float
    hi: float

    @property
    def is_slice(self) -> bool:
        return self.lo == self.hi

    def __repr__(self) -> str:
        span = f"@{self.lo}" if self.is_slice else f"@[{self.lo},{self.hi}]"
        return f"Cell({','.join(map(str, self.carrier))}{span})"


class Chunk(NamedTuple):
    """The cells of the slice lo == hi or the slab lo < hi: by dimension,
    each list sorted by carrier, with their dimensions and boundaries."""

    lo: float
    hi: float
    by_dim: dict[int, list[Cell]]
    dims: dict[Cell, int]
    boundary: dict[Cell, frozenset[Cell]]


class CellComplex:
    """Graded cells with a Z2 boundary map, assembled from checked chunks.

    chunks come in (lo, hi) order, each checked by the builder that made
    it, so the constructor neither sorts nor checks: each dimension's
    cells come out in (lo, hi, carrier) order, and a cell's index is its
    chunk's offset in that dimension plus its place in the chunk.
    """

    def __init__(self, chunks: list[Chunk], slice_values: tuple[float, ...]) -> None:
        self.dims: dict[Cell, int] = {}
        self.boundary: dict[Cell, frozenset[Cell]] = {}
        self.slice_values = tuple(slice_values)
        self._by_dim: dict[int, list[Cell]] = {}
        self._index: dict[Cell, int] = {}
        for chunk in chunks:
            self.dims.update(chunk.dims)
            self.boundary.update(chunk.boundary)
            for d, cells in chunk.by_dim.items():
                group = self._by_dim.setdefault(d, [])
                self._index.update(zip(cells, range(len(group), len(group) + len(cells))))
                group += cells
        self.cells = [c for d in range(self.max_dim + 1) for c in self.cells_of_dim(d)]
        self._bmat: dict[int, BitMatrix] = {}
        self._hom: dict[int, HomologyPresentation] = {}

    @property
    def max_dim(self) -> int:
        return max(self._by_dim, default=-1)

    def cells_of_dim(self, r: int) -> list[Cell]:
        return self._by_dim.get(r, [])

    def index_in_dim(self, cell: Cell) -> int:
        return self._index[cell]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(cells) for d, cells in self._by_dim.items())

    def boundary_matrix(self, r: int) -> BitMatrix:
        """Matrix of the boundary from degree r to degree r - 1."""
        if r not in self._bmat:
            columns = []
            for c in self.cells_of_dim(r):
                bits = 0
                for t in self.boundary[c]:
                    bits |= 1 << self._index[t]
                columns.append(bits)
            self._bmat[r] = BitMatrix.from_bits(columns, len(self.cells_of_dim(r - 1)))
        return self._bmat[r]

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        counts = {d: len(cs) for d, cs in sorted(self._by_dim.items())}
        return f"CellComplex({counts}, slices={list(self.slice_values)})"


def validate(c: CellComplex) -> None:
    """Assert facet-dimension consistency and that the boundary squares to zero."""
    _check(c.dims, c.dims, c.boundary, c.slice_values)


def _check(cells, dims: dict[Cell, int], boundary: dict[Cell, frozenset[Cell]], slice_values) -> None:
    """Raise ValueError unless each of cells has its faces in dims, one
    dimension down, lies at one of slice_values if it is a slice cell,
    and has a boundary that squares to zero; dims and boundary cover the
    cells and their faces."""
    for cell in cells:
        d = dims[cell]
        for t in boundary[cell]:
            if t not in dims:
                raise ValueError(f"boundary of {cell} references missing cell {t}")
            if dims[t] != d - 1:
                raise ValueError(f"boundary of {cell} contains {t} of dimension {dims[t]}, expected {d - 1}")
        if cell.is_slice and cell.lo not in slice_values:
            raise ValueError(f"slice cell {cell} lies outside the slice set")
    for cell in cells:
        chain: set[Cell] = set()
        for t in boundary[cell]:
            chain ^= boundary[t]
        if chain:
            raise ValueError(f"boundary of boundary is nonzero for {cell}: {sorted(chain, key=repr)}")


def _merged(values) -> tuple[float, ...]:
    """values as floats with repeats merged, or a ValueError unless there
    is one at least and they never decrease."""
    values = tuple(map(float, values))
    if not values or any(x > y for x, y in zip(values, values[1:])):
        raise ValueError("interval endpoints are reversed" if values else "no values to slice at")
    return tuple(dict.fromkeys(values))


class SlabBuilder:
    """Builds the chunks and the level and interlevel complexes of one map.

    Reads the value span (min, max), the two end faces and the nonempty
    facets of every simplex once, and memoizes the checked chunk of each
    slice and slab, which is shared verbatim between every chain and
    complex that uses it, and every complex it builds.  _pairs memoizes compute_relevant_numbers' reading of each
    pair of level values, per degree.
    """

    def __init__(self, f: VertexValuedMap) -> None:
        self.f = f
        self._values = sorted(set(f.values[v] for v in f.complex.vertices))
        value = f.values.__getitem__
        own = {s: s for s in f.complex.simplices}  # every face as the complex's own tuple
        # per simplex: (min, max, its vertices at min, its vertices at max), and its nonempty facets
        self._span: dict[Simplex, tuple[float, float, Simplex, Simplex]] = {}
        self._facets: dict[Simplex, tuple[Simplex, ...]] = {}
        for s in own:
            xs = tuple(map(value, s))
            mn, mx = min(xs), max(xs)
            bottom, top = (own[tuple(v for v, x in zip(s, xs) if x == end)] for end in (mn, mx))
            self._span[s] = (mn, mx, bottom, top)
            self._facets[s] = tuple(own[t] for t in facets(s) if t)
        # (min, position in complex order, max, simplex), by min: a chunk at lo visits a prefix
        self._by_min = sorted((mn, p, mx, s) for p, (s, (mn, mx, _, _)) in enumerate(self._span.items()))
        self._mins = [mn for mn, _, _, _ in self._by_min]
        self._chunks: dict[tuple[float, float], Chunk] = {}
        self._complexes: dict[tuple[float, ...], CellComplex] = {}
        self._pairs: dict[tuple[float, float], dict[int, tuple]] = {}

    def _cell(self, simplex: Simplex, lo: float, hi: float) -> tuple[Cell, int] | None:
        """The cell a simplex meets in the slice lo == hi or the slab lo < hi,
        with its dimension, or None where it meets neither."""
        mn, mx, bottom, top = self._span[simplex]
        if mn <= lo and hi <= mx:
            if lo < hi or mn == mx:  # spans the slab, or is constant at the slice value
                return Cell(simplex, lo, hi), len(simplex) - 1
            if mn < lo < mx:  # crosses the slice
                return Cell(simplex, lo, hi), len(simplex) - 2
        if mx == lo:
            return Cell(top, lo, lo), len(top) - 1
        if mn == hi:
            return Cell(bottom, hi, hi), len(bottom) - 1
        return None

    def _chunk(self, lo: float, hi: float) -> Chunk:
        """The cells of one slice or slab, made and checked on first use."""
        key = (lo, hi)
        if key not in self._chunks:
            dims: dict[Cell, int] = {}
            # only a simplex whose span holds [lo, hi] carries a cell of its own here; visited in complex order
            meeting = sorted((p, mn, mx, s) for mn, p, mx, s in self._by_min[:bisect.bisect_right(self._mins, lo)]
                             if mx >= hi)
            for _, mn, mx, simplex in meeting:  # mn <= lo and hi <= mx
                if lo < hi or mn == mx:  # spans the slab, or is constant at the slice value
                    dims[Cell(simplex, lo, hi)] = len(simplex) - 1
                elif mn < lo < mx:  # crosses the slice
                    dims[Cell(simplex, lo, hi)] = len(simplex) - 2
            by_dim: dict[int, list[Cell]] = {}
            boundary = {}
            met: dict[Simplex, tuple[Cell, int] | None] = {}  # each facet's cell here, made once
            for cell in sorted(dims):  # by carrier: lo and hi are the chunk's own
                d = dims[cell]
                by_dim.setdefault(d, []).append(cell)
                faces = set()
                for t in self._facets[cell.carrier]:
                    if t not in met:
                        met[t] = self._cell(t, lo, hi)
                    faces.add(met[t])
                if lo < hi:
                    faces |= {self._cell(cell.carrier, lo, lo), self._cell(cell.carrier, hi, hi)}
                faces.discard(None)
                boundary[cell] = frozenset(t for t, td in faces if td == d - 1)
            near_dims, near_boundary = dims, boundary
            if lo < hi:  # a slab cell's faces lie in the slab or in its two end slices
                ends = self._chunk(lo, lo), self._chunk(hi, hi)
                near_dims = {**ends[0].dims, **dims, **ends[1].dims}
                near_boundary = {**ends[0].boundary, **boundary, **ends[1].boundary}
            _check(dims, near_dims, near_boundary, key)
            self._chunks[key] = Chunk(lo, hi, by_dim, dims, boundary)
        return self._chunks[key]

    def chunks(self, *values: float) -> list[Chunk]:
        """The checked chunks of f^-1([values[0], values[-1]]) in (lo, hi)
        order, slice s0, slab (s0, s1), slice s1, ..., sliced at every
        given value and at every vertex value in between.  Equal values
        count once."""
        key = _merged(values)
        inside = self._values[bisect.bisect_right(self._values, key[0]):bisect.bisect_left(self._values, key[-1])]
        slices = sorted({*key, *inside})
        chunks = [self._chunk(slices[0], slices[0])]
        for lo, hi in zip(slices, slices[1:]):
            chunks += (self._chunk(lo, hi), self._chunk(hi, hi))
        return chunks

    def level(self, t: float) -> CellComplex:
        return self.interlevel(t)

    def interlevel(self, *values: float) -> CellComplex:
        """The complex of the chunks(*values): one value gives a level,
        two a band, more a refined band.  Equal values count once."""
        key = _merged(values)
        if key not in self._complexes:
            chunks = self.chunks(*key)
            self._complexes[key] = CellComplex(chunks, tuple(c.lo for c in chunks[::2]))
        return self._complexes[key]


@dataclass
class InclusionMap:
    """A level complex included into an interlevel complex, cell by cell."""

    src: CellComplex
    dst: CellComplex

    def chain_matrix(self, r: int) -> BitMatrix:
        columns = [1 << self.dst.index_in_dim(cell) for cell in self.src.cells_of_dim(r)]
        return BitMatrix.from_bits(columns, len(self.dst.cells_of_dim(r)))


def include_level(src: CellComplex, dst: CellComplex) -> InclusionMap:
    """Inclusion of a level complex into an interlevel complex of one map.

    The level's one slice value must be the first or the last slice
    value of dst, an endpoint of its interval.  Every level cell is
    verified to be present in dst with an identical boundary, so the
    identity on cell ids commutes with the boundary maps.
    """
    (t,) = src.slice_values
    if t != dst.slice_values[0] and t != dst.slice_values[-1]:
        raise ValueError("level value must be an endpoint of the interval")
    for cell in src.cells:
        if cell not in dst.dims:
            raise ValueError(f"level cell {cell} is missing from the interlevel complex")
        if src.boundary[cell] != dst.boundary[cell]:
            raise ValueError(f"boundary mismatch for included cell {cell}")
    return InclusionMap(src, dst)


def homology_of(c: CellComplex, r: int) -> HomologyPresentation:
    """Homology presentation of a cell complex in one degree (cached)."""
    if r not in c._hom:
        c._hom[r] = homology_presentation(c.boundary_matrix(r + 1), c.boundary_matrix(r))
    return c._hom[r]


def betti_numbers(c: CellComplex, max_degree: int | None = None) -> tuple[int, ...]:
    """Betti numbers in degrees 0..max_degree (default: the complex dimension)."""
    top = c.max_dim if max_degree is None else max_degree
    return tuple(homology_of(c, r).betti for r in range(top + 1))
