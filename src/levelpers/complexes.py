"""Finite simplicial complexes, vertex-valued PL maps, and filtrations.

A simplex is a strictly sorted tuple of integer vertex ids.  A vertex
value map extends linearly over each simplex; its critical values are
the distinct vertex values; a filtration's are the times of its stages
that hold a vertex, those of its telescope, which only the checks build.
CriticalGrid indexes them and the gaps between them by integers; a
float inside a gap is computed only where the band route slices a level
there.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

Simplex = tuple[int, ...]

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "VertexValuedMap",
    "CriticalGrid",
    "Filtration",
    "facets",
    "build_complex",
    "critical_values",
    "entry_filtration",
    "lower_star_filtration",
    "telescope",
]


def facets(simplex: Simplex) -> list[Simplex]:
    """Codimension-one faces, each with one vertex removed."""
    return [simplex[:i] + simplex[i + 1:] for i in range(len(simplex))]


@dataclass(frozen=True)
class SimplicialComplex:
    """A set of simplices closed under taking faces."""

    vertices: tuple[int, ...]
    simplices: frozenset[Simplex]

    @property
    def dim(self) -> int:
        return max(map(len, self.simplices), default=0) - 1

    def simplices_of_dim(self, d: int) -> list[Simplex]:
        return sorted(s for s in self.simplices if len(s) == d + 1)

    def __contains__(self, simplex: Simplex) -> bool:
        return tuple(simplex) in self.simplices

    def __len__(self) -> int:
        return len(self.simplices)


def build_complex(maximal_simplices) -> SimplicialComplex:
    """Close a family of simplices under faces, in canonical sorted form.

    The faces are made one dimension at a time from the top down: each
    distinct d-simplex adds its facets to the (d - 1)-simplices, down to
    the edges, and the vertex faces come from the vertex ids.  A simplex
    that repeats a vertex v has the face (v, v) among its edges, so one
    look at the edges finds it, and a ValueError names the first such
    simplex.
    """
    maximal_simplices = list(maximal_simplices)
    simplices = [tuple(sorted(map(int, raw))) for raw in maximal_simplices]
    vertices = set(chain.from_iterable(simplices))
    by_size: list[set[Simplex]] = [set() for _ in range(max(map(len, simplices), default=0) + 1)]
    for s in simplices:
        by_size[len(s)].add(s)
    for k in range(len(by_size) - 1, 2, -1):  # each simplex of k vertices adds its facets, down to the edges
        below = by_size[k - 1]
        if k == 3:
            for a, b, c in by_size[3]:
                below.update(((b, c), (a, c), (a, b)))
        else:
            for s in by_size[k]:
                below.update(facets(s))
    if len(by_size) > 2 and any(a == b for a, b in by_size[2]):
        k = next(k for k, s in enumerate(simplices) if len(set(s)) < len(s))
        raise ValueError(f"duplicate vertex in simplex {list(maximal_simplices[k])}")
    by_size[:2] = [set(zip(vertices))]  # the vertex faces, from the vertex ids
    return SimplicialComplex(tuple(sorted(vertices)), frozenset().union(*by_size))


@dataclass(frozen=True)
class VertexValuedMap:
    """A simplicial complex with one finite real value per vertex."""

    complex: SimplicialComplex
    values: dict[int, float]

    def __post_init__(self) -> None:
        cleaned = {}
        for v, x in self.values.items():
            x = float(x) + 0.0  # turns -0.0 into 0.0, so a zero value always prints as 0.0
            if not math.isfinite(x):
                raise ValueError(f"value for vertex {v} is not finite")
            cleaned[int(v)] = x
        object.__setattr__(self, "values", cleaned)
        for v in self.complex.vertices:
            if v not in self.values:
                raise ValueError(f"no value for vertex {v}")
        known = set(self.complex.vertices)
        for v in self.values:
            if v not in known:
                raise ValueError(f"value given for unknown vertex {v}")


@dataclass(frozen=True)
class CriticalGrid:
    """The sorted distinct critical values T[0] < ... < T[P-1], from any
    nonempty collection of values in any order, repeats allowed.

    A level is indexed by its grid position: 2k at T[k], and 2k + 1
    anywhere strictly inside the gap above T[k], since every regular
    value of one gap has the same level (Simulation of Simplicity,
    Edelsbrunner and Mücke 1990).  The in-range positions are
    0..2P-2; a value outside [T[0], T[-1]] has none.
    """

    criticals: tuple[float, ...]

    def __post_init__(self) -> None:
        criticals = tuple(sorted(set(map(float, self.criticals))))
        if not criticals:
            raise ValueError("no critical values")
        object.__setattr__(self, "criticals", criticals)

    def position(self, x: float) -> int | None:
        """2k for T[k], 2k + 1 strictly inside the gap above T[k], None
        outside [T[0], T[-1]]."""
        T = self.criticals
        k = bisect_left(T, x)
        if k < len(T) and T[k] == x:
            return 2 * k
        return 2 * k - 1 if 0 < k < len(T) else None

    def value(self, i: int) -> float:
        """The float at position i: T[i // 2] at an even i, the gap float
        regular_above(i // 2) at an odd one."""
        return self.regular_above(i // 2) if i % 2 else self.criticals[i // 2]

    def regular_above(self, k: int) -> float:
        """The float at which the band route slices the gap above T[k]:
        its midpoint, halved first where the sum overflows."""
        a, b = self.criticals[k], self.criticals[k + 1]
        mid = (a + b) / 2.0
        if not a < mid < b:
            mid = a / 2.0 + b / 2.0
        if not a < mid < b:
            raise ValueError(f"no float lies strictly inside the gap ({a!r}, {b!r}) between critical values")
        return mid


def critical_values(f: VertexValuedMap | Filtration) -> CriticalGrid:
    """Grid of the distinct vertex values of a map; of a filtration, the
    times of its stages that hold a vertex, which are the critical
    values of its telescope."""
    if not f.complex.vertices:
        raise ValueError("empty complex has no critical values")
    if isinstance(f, Filtration):
        return CriticalGrid(tuple(t for stage, t in zip(f.stages, f.times) if stage.vertices))
    return CriticalGrid(tuple(f.values.values()))


def lower_star_filtration(f: VertexValuedMap) -> list[list[tuple[Simplex, float]]]:
    """The simplices of f, one list per dimension, each a list of
    (simplex, max vertex value) pairs ordered by (value, lexicographic).

    Every face has at most the value of its cofaces, so entering each
    simplex after the simplices of lower dimension and equal value gives
    a filtration order: the order by (value, dimension, lexicographic),
    one dimension at a time.  No sort runs over all the simplices.
    """
    value = f.values.__getitem__
    order: list[list] = [[] for _ in range(f.complex.dim + 1)]
    for s in f.complex.simplices:
        order[len(s) - 1].append(s)
    for d, rows in enumerate(order):
        rows.sort()  # lexicographic; the sort by value below is stable
        values_at = [map(value, map(itemgetter(i), rows)) for i in range(d + 1)]  # by vertex position
        order[d] = sorted(zip(rows, map(max, *values_at) if d else values_at[0]), key=itemgetter(1))
    return order


@dataclass
class Filtration:
    """Nested stages K_0 <= K_1 <= ... with strictly increasing times.

    The telescope of a filtration (see telescope) deformation retracts
    onto the last stage, and each of its interlevel sets onto its top
    level.  So its level bars are the sub-level bars of the filtration
    itself, a finite bar [b, d) read as the closed-open level bar [b, d)
    and an infinite bar from b as the closed-closed bar [b, t_last].
    Every route but check therefore reads a filtration directly, in the
    order of entry_filtration, and complex is the last stage, the
    complex the telescope retracts onto.
    """

    stages: list[SimplicialComplex]
    times: list[float]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("filtration needs at least one stage")
        if len(self.stages) != len(self.times):
            raise ValueError("stage and time counts differ")
        self.times = [float(t) for t in self.times]
        if any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        for i in range(len(self.stages) - 1):
            missing = self.stages[i].simplices - self.stages[i + 1].simplices
            if missing:
                s = min(missing)
                raise ValueError(f"stage {i} is not a subcomplex of stage {i + 1}: missing simplex {list(s)}")

    @property
    def complex(self) -> SimplicialComplex:
        """The last stage."""
        return self.stages[-1]


def entry_filtration(filt: Filtration) -> list[list[tuple[Simplex, float]]]:
    """The simplices of the last stage, one list per dimension, each a
    list of (simplex, time of the stage it enters) pairs ordered by
    (entry stage, lexicographic).

    Every stage is closed under faces and contains the one before, so
    no face enters after its cofaces: the order by (entry stage,
    dimension, lexicographic), one dimension at a time, is a filtration
    order, whose bars are those of the telescope's lower-star order.
    """
    order: list[list[tuple[Simplex, float]]] = [[] for _ in range(filt.complex.dim + 1)]
    before: frozenset[Simplex] = frozenset()
    for stage, t in zip(filt.stages, filt.times):
        for s in sorted(stage.simplices - before):
            order[len(s) - 1].append((s, t))
        before = stage.simplices
    return order


def telescope(filt: Filtration) -> VertexValuedMap:
    """Turn a filtration into a PL map with the same sub-level persistence.

    Each stage contributes a triangulated prism between consecutive
    times: the prism over a d-simplex is split into d+1 simplices by the
    standard staircase along the vertex order.  Copies of vertex v at
    stage i carry the value times[i], and every copy at stage i has a
    smaller id than every copy at stage i + 1.  The simplices are
    enumerated directly, each once, instead of closing the prisms: for
    every simplex (u_0 < ... < u_m) of stage i below the last, its
    bottom copy b(u_0..u_m), and for each split p the shared split
    b(u_0..u_p) + t(u_p..u_m) and, for p < m, the disjoint split
    b(u_0..u_p) + t(u_(p+1)..u_m), where b and t are the copies at
    stages i and i + 1; then the last stage's simplices as they are.
    These are exactly the faces of the prisms, since every stage is
    closed under faces and contained in the next one.
    """
    ids: list[dict[int, int]] = []  # per stage, vertex -> id of its copy
    values: dict[int, float] = {}
    for stage, at in zip(filt.stages, filt.times):
        copy = {v: n for n, v in enumerate(sorted(stage.vertices), len(values))}
        ids.append(copy)
        values.update(dict.fromkeys(copy.values(), at))

    last = len(filt.stages) - 1
    simplices: list[Simplex] = []
    for i in range(last):
        bottom, top = ids[i].__getitem__, ids[i + 1].__getitem__
        for s in filt.stages[i].simplices:
            b, t = tuple(map(bottom, s)), tuple(map(top, s))
            simplices.append(b)
            for q in range(1, len(s)):  # the shared and the disjoint split after q bottom vertices
                simplices += (b[:q] + t[q - 1:], b[:q] + t[q:])
            simplices.append(b + t[-1:])  # the shared split at u_m; no disjoint one there
    top = ids[last].__getitem__
    simplices += [tuple(map(top, s)) for s in filt.stages[last].simplices]
    return VertexValuedMap(SimplicialComplex(tuple(values), frozenset(simplices)), values)
