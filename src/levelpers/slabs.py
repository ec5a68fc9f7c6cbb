"""Cell complexes for level sets and interlevel sets of a PL vertex map.

A cell is a pair (carrier simplex, region), the region being a single
value (a slice, lo == hi) or a closed value band (a slab, lo < hi); the
carrier is the unique simplex whose relative interior meets the region.
With this model a level set at an endpoint of a band is literally a
subset of the band's cells, so inclusion chain maps are identities on
cell ids and need no geometric bookkeeping.

Slice cell rules at value s, per carrier simplex with B/E/A vertices
below/equal/above s: a transverse cell (B > 0 and A > 0) of dimension
dim(carrier) - 1, or a constant cell (B = A = 0) of full dimension.
Degenerate intersections collapse to the face spanned by the value-s
vertices.  Slab cells over a gap [s, s'] exist for nonconstant carriers
whose values reach both sides; no vertex value lies strictly inside a
gap by construction.  Boundaries are assembled as deduplicated sets of
canonical cells, then filtered to codimension one; every constructed
complex asserts that the boundary squares to zero.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .complexes import Simplex, VertexValuedMap, facets
from .gf2 import BitMatrix, HomologyPresentation, homology_presentation

__all__ = [
    "Cell",
    "CellComplex",
    "InclusionMap",
    "SlabBuilder",
    "level_complex",
    "interlevel_complex",
    "include_level",
    "homology_of",
    "betti_numbers",
    "validate",
]


@dataclass(frozen=True)
class Cell:
    """A carrier simplex restricted to a slice value or a value band."""

    carrier: Simplex
    lo: float
    hi: float

    @property
    def is_slice(self) -> bool:
        return self.lo == self.hi

    def __repr__(self) -> str:
        span = f"@{self.lo}" if self.is_slice else f"@[{self.lo},{self.hi}]"
        return f"Cell({','.join(map(str, self.carrier))}{span})"


def _canonical_slice_cell(f: VertexValuedMap, simplex: Simplex, s: float) -> Cell | None:
    """The cell carrying the intersection of a simplex with a level.

    Transverse crossings keep the simplex as carrier; one-sided contacts
    collapse to the face spanned by the value-s vertices; no contact
    yields None.
    """
    below = False
    above = False
    for v in simplex:
        x = f.values[v]
        if x < s:
            below = True
        elif x > s:
            above = True
    if below and above:
        return Cell(simplex, s, s)
    touching = tuple(v for v in simplex if f.values[v] == s)
    if touching:
        return Cell(touching, s, s)
    return None


def _canonical_slab_facet(f: VertexValuedMap, simplex: Simplex, lo: float, hi: float) -> Cell | None:
    """Canonical cell met by a facet of a slab carrier inside the band."""
    mn = f.min_on(simplex)
    mx = f.max_on(simplex)
    if mn <= lo and mx >= hi:
        return Cell(simplex, lo, hi)
    if mx <= lo:
        return _canonical_slice_cell(f, simplex, lo)
    if mn >= hi:
        return _canonical_slice_cell(f, simplex, hi)
    return None


def _slice_cell_dim(f: VertexValuedMap, cell: Cell) -> int:
    if f.is_constant_on(cell.carrier):
        return len(cell.carrier) - 1
    return len(cell.carrier) - 2


class CellComplex:
    """Graded cells with a Z2 boundary map; validated at construction."""

    def __init__(self, dims: dict[Cell, int], boundary: dict[Cell, frozenset[Cell]],
                 slice_values: tuple[float, ...]) -> None:
        self.dims = dict(dims)
        self.boundary = {c: frozenset(boundary.get(c, ())) for c in self.dims}
        self.slice_values = tuple(slice_values)
        self.cells = sorted(self.dims, key=lambda c: (self.dims[c], c.lo, c.hi, c.carrier))
        self._by_dim: dict[int, list[Cell]] = {}
        for c in self.cells:
            self._by_dim.setdefault(self.dims[c], []).append(c)
        self._index = {c: i for cells in self._by_dim.values() for i, c in enumerate(cells)}
        self._bmat: dict[int, BitMatrix] = {}
        self._hom: dict[int, HomologyPresentation] = {}
        validate(self)

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
    for cell, d in c.dims.items():
        for t in c.boundary[cell]:
            if t not in c.dims:
                raise ValueError(f"boundary of {cell} references missing cell {t}")
            if c.dims[t] != d - 1:
                raise ValueError(f"boundary of {cell} contains {t} of dimension {c.dims[t]}, expected {d - 1}")
        if cell.is_slice and cell.lo not in c.slice_values:
            raise ValueError(f"slice cell {cell} lies outside the slice set")
    for cell in c.dims:
        chain: set[Cell] = set()
        for t in c.boundary[cell]:
            chain ^= c.boundary[t]
        if chain:
            raise ValueError(f"boundary of boundary is nonzero for {cell}: {sorted(chain, key=repr)}")


class SlabBuilder:
    """Builds level and interlevel complexes of one map.

    Memoizes the per-value slice cells and per-gap slab cells, which are
    shared verbatim between every complex that uses them.
    """

    def __init__(self, f: VertexValuedMap) -> None:
        self.f = f
        self._values = sorted(set(f.values[v] for v in f.complex.vertices))
        self._slice_chunks: dict[float, tuple[dict, dict]] = {}
        self._slab_chunks: dict[tuple[float, float], tuple[dict, dict]] = {}
        self._levels: dict[float, CellComplex] = {}
        self._interlevels: dict[tuple[float, float], CellComplex] = {}

    def _slice_chunk(self, s: float):
        if s not in self._slice_chunks:
            f = self.f
            dims: dict[Cell, int] = {}
            for simplex in f.complex.simplices:
                mn = f.min_on(simplex)
                mx = f.max_on(simplex)
                if mn < s < mx:
                    dims[Cell(simplex, s, s)] = len(simplex) - 2
                elif mn == s and mx == s:
                    dims[Cell(simplex, s, s)] = len(simplex) - 1
            boundary = {}
            for cell, d in dims.items():
                cands = {_canonical_slice_cell(f, t, s) for t in facets(cell.carrier)}
                cands.discard(None)
                boundary[cell] = frozenset(t for t in cands if dims[t] == d - 1)
            self._slice_chunks[s] = (dims, boundary)
        return self._slice_chunks[s]

    def _slab_chunk(self, lo: float, hi: float):
        key = (lo, hi)
        if key not in self._slab_chunks:
            f = self.f
            dims: dict[Cell, int] = {}
            for simplex in f.complex.simplices:
                if f.min_on(simplex) <= lo and f.max_on(simplex) >= hi:
                    dims[Cell(simplex, lo, hi)] = len(simplex) - 1
            boundary = {}
            for cell, d in dims.items():
                cands = {
                    _canonical_slice_cell(f, cell.carrier, lo),
                    _canonical_slice_cell(f, cell.carrier, hi),
                }
                for t in facets(cell.carrier):
                    cands.add(_canonical_slab_facet(f, t, lo, hi))
                cands.discard(None)
                kept = set()
                for t in cands:
                    td = len(t.carrier) - 1 if not t.is_slice else _slice_cell_dim(f, t)
                    if td == d - 1:
                        kept.add(t)
                boundary[cell] = frozenset(kept)
            self._slab_chunks[key] = (dims, boundary)
        return self._slab_chunks[key]

    def level(self, t: float) -> CellComplex:
        t = float(t)
        if t not in self._levels:
            dims, boundary = self._slice_chunk(t)
            self._levels[t] = CellComplex(dims, boundary, (t,))
        return self._levels[t]

    def interlevel(self, a: float, b: float, extra_slices=()) -> CellComplex:
        a = float(a)
        b = float(b)
        if a > b:
            raise ValueError("interval endpoints are reversed")
        extra = tuple(sorted(float(x) for x in extra_slices if a < float(x) < b))
        key = (a, b)
        if not extra and key in self._interlevels:
            return self._interlevels[key]
        if a == b and not extra:
            out = self.level(a)
            self._interlevels[key] = out
            return out
        inside = self._values[bisect.bisect_right(self._values, a):bisect.bisect_left(self._values, b)]
        slices = sorted({a, b} | set(inside) | set(extra))
        dims: dict[Cell, int] = {}
        boundary: dict[Cell, frozenset[Cell]] = {}
        for s in slices:
            d, bd = self._slice_chunk(s)
            dims.update(d)
            boundary.update(bd)
        for lo, hi in zip(slices, slices[1:]):
            d, bd = self._slab_chunk(lo, hi)
            dims.update(d)
            boundary.update(bd)
        out = CellComplex(dims, boundary, tuple(slices))
        if not extra:
            self._interlevels[key] = out
        return out


def level_complex(f: VertexValuedMap, t: float) -> CellComplex:
    """Cells of the level set at value t, with Z2 boundary."""
    return SlabBuilder(f).level(t)


def interlevel_complex(f: VertexValuedMap, a: float, b: float, *, extra_slices=()) -> CellComplex:
    """Cells of the preimage of [a, b]; equal to the level complex when a == b.

    extra_slices inserts additional slice values strictly inside (a, b);
    refinement must not change any homology or induced-map rank.
    """
    return SlabBuilder(f).interlevel(a, b, extra_slices)


@dataclass
class InclusionMap:
    """A level complex included into an interlevel complex, cell by cell."""

    src: CellComplex
    dst: CellComplex

    def chain_matrix(self, r: int) -> BitMatrix:
        columns = [1 << self.dst.index_in_dim(cell) for cell in self.src.cells_of_dim(r)]
        return BitMatrix.from_bits(columns, len(self.dst.cells_of_dim(r)))


def include_level(f: VertexValuedMap, t: float, a: float, b: float, *,
                  src: CellComplex | None = None, dst: CellComplex | None = None) -> InclusionMap:
    """Inclusion of the level at t into the interlevel over [a, b].

    t must be an endpoint of the interval.  Every level cell is verified
    to be present in the interlevel with an identical boundary, so the
    identity on cell ids commutes with the boundary maps.
    """
    t, a, b = float(t), float(a), float(b)
    if t != a and t != b:
        raise ValueError("level value must be an endpoint of the interval")
    if src is None:
        src = level_complex(f, t)
    if dst is None:
        dst = interlevel_complex(f, a, b)
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
