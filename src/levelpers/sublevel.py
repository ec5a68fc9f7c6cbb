"""Sub-level persistence of a PL vertex map or of a filtration.

Bars come from the column reduction, with clearing, of the boundary
matrix of a filtration order, given one dimension at a time
(filtration_order): the lower-star order of a map, each dimension by
(max vertex value, lexicographic), or a filtration's own simplices,
each dimension by (entry stage, lexicographic); the bars of a
filtration are those of its telescope, which it never builds.  Betti
numbers of the persistence module are counted from bars by interval
containment, and bar multiplicities are recovered from the Betti
numbers by one inclusion-exclusion over consecutive critical values.
sublevel_barcode(f) takes only its input and returns every degree over
the grid critical_values(f).  boundary_columns builds the boundary
columns of any such order, each d-column over the (d - 1)-simplices,
for this reduction and both halves of the cone: level_barcode shifts
the columns of f below the cone point in dimension 1, and those of -f
below the simplices of K one dimension down, as the cones over the
upper-star filtration.  analyze reads the sub-level bars off the level
bars instead (sublevel_from_level), and check compares them with
sublevel_barcode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .complexes import (
    CriticalGrid,
    Filtration,
    Simplex,
    VertexValuedMap,
    critical_values,
    entry_filtration,
    lower_star_filtration,
)
from .gf2 import GradedBoundary, column_reduce

INF = math.inf

__all__ = [
    "SublevelBarcode",
    "BettiTable",
    "sublevel_barcode",
    "betti_from_bars",
    "bars_from_betti",
]


class SublevelBarcode:
    """Multiset of bars (degree, birth, death) with death possibly infinite."""

    def __init__(self, grid: CriticalGrid, bars) -> None:
        self.grid = grid
        cleaned: dict[tuple[int, float, float], int] = {}
        criticals = set(grid.criticals)
        for (r, birth, death), mult in dict(bars).items():
            if mult < 0:
                raise ValueError(f"negative multiplicity for bar [{birth}, {death}) in degree {r}")
            if mult == 0:
                continue
            if not birth < death:
                raise ValueError(f"bar [{birth}, {death}) in degree {r} is not a forward interval")
            if birth not in criticals or (death != INF and death not in criticals):
                raise ValueError(f"bar [{birth}, {death}) has a non-critical endpoint")
            cleaned[(int(r), float(birth), float(death))] = int(mult)
        self.bars = cleaned

    def degrees(self) -> list[int]:
        return sorted({r for r, _, _ in self.bars})

    def rows(self) -> list[tuple[int, float, float, int]]:
        return sorted((r, b, d, m) for (r, b, d), m in self.bars.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SublevelBarcode):
            return NotImplemented
        return self.grid.criticals == other.grid.criticals and self.bars == other.bars

    def __repr__(self) -> str:
        parts = [f"{r}:[{b},{'inf' if d == INF else d})x{m}" for r, b, d, m in self.rows()]
        return f"SublevelBarcode({', '.join(parts)})"


def filtration_order(f: VertexValuedMap | Filtration) -> list[list[tuple[Simplex, float]]]:
    """The (simplex, value) pairs of f in a filtration order, one list
    per dimension: the lower-star order of a map, or entry_filtration of
    a filtration."""
    return entry_filtration(f) if isinstance(f, Filtration) else lower_star_filtration(f)


def boundary_columns(order: list[list[tuple[Simplex, float]]]) -> tuple[dict[Simplex, int], list[list[int]]]:
    """(index, columns) of a filtration order given one dimension at a
    time: each simplex's position among the simplices of its dimension,
    and per dimension d the boundary of each d-simplex as a bit column
    over the (d - 1)-simplices."""
    index = {s: i for rows in order for i, (s, _) in enumerate(rows)}
    columns = []
    for d, rows in enumerate(order):  # edges and triangles, the bulk of a surface, without a loop over faces
        if d == 0:
            columns.append([0] * len(rows))
        elif d == 1:
            vertex = {v: i for i, ((v,), _) in enumerate(order[0])}
            columns.append([1 << vertex[a] | 1 << vertex[b] for (a, b), _ in rows])
        elif d == 2:
            columns.append([1 << index[b, c] | 1 << index[a, c] | 1 << index[a, b] for (a, b, c), _ in rows])
        else:
            columns.append([sum(1 << index[s[:i] + s[i + 1:]] for i in range(d + 1)) for s, _ in rows])
    return index, columns


def sublevel_barcode(f: VertexValuedMap | Filtration) -> SublevelBarcode:
    """Bars of the sub-level persistence module, in every degree, over
    critical_values(f), via column reduction of filtration_order(f).

    A pair of simplices entering at equal values is a zero-length bar
    and is dropped; unpaired positive simplices give infinite bars.
    """
    order = filtration_order(f)
    _, columns = boundary_columns(order)
    pairs, essential = column_reduce(GradedBoundary(columns, [[x for _, x in rows] for rows in order]))

    bars: dict[tuple[int, float, float], int] = {}
    for d, i, j in pairs:
        birth = order[d - 1][i][1]
        death = order[d][j][1]
        if birth == death:
            continue
        key = (d - 1, birth, death)
        bars[key] = bars.get(key, 0) + 1
    for d, j in essential:
        key = (d, order[d][j][1], INF)
        bars[key] = bars.get(key, 0) + 1
    return SublevelBarcode(critical_values(f), bars)


def betti_from_bars(bc: SublevelBarcode, r: int, t: float, t2: float) -> int:
    """Rank of the persistence map from sub-level t into sub-level t2.

    Counts the degree-r bars containing [t, t2]: a finite bar [b, d)
    contains it iff b <= t and t2 < d, an infinite bar iff b <= t.
    """
    if t > t2:
        raise ValueError("interval endpoints are reversed")
    total = 0
    for (degree, birth, death), mult in bc.bars.items():
        if degree != r:
            continue
        if birth <= t and (death == INF or t2 < death):
            total += mult
    return total


@dataclass
class BettiTable:
    """Persistence Betti numbers over pairs of critical values and infinity."""

    grid: CriticalGrid
    degrees: tuple[int, ...]
    beta: dict[tuple[int, float, float], int]

    @classmethod
    def from_barcode(cls, bc: SublevelBarcode) -> "BettiTable":
        """Every beta(r, t, t2) of betti_from_bars, one row per t from
        running counts: the bars born at or before t, by the position of
        their death; summed from the last death down, they give the row
        in O(P), so the table costs O(P^2 + B) per degree for P
        critical values and B bars."""
        degs = tuple(bc.degrees())
        T = bc.grid.criticals
        P = len(T)
        at = {t: k for k, t in enumerate(T)}
        at[INF] = P
        born: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (r, birth, death), mult in bc.bars.items():
            born.setdefault((r, at[birth]), []).append((at[death], mult))
        beta: dict[tuple[int, float, float], int] = {}
        for r in degs:
            count = [0] * (P + 1)  # bars of degree r born so far, by the position of their death (P: infinite)
            for i, t in enumerate(T):
                for d, mult in born.get((r, i), ()):
                    count[d] += mult
                alive = list(accumulate(reversed(count)))  # alive[m]: those dying at P - m or later
                for j in range(i, P):  # a bar contains [t, T[j]] iff it dies after T[j]
                    beta[(r, t, T[j])] = alive[P - 1 - j]
                beta[(r, t, INF)] = count[P]
        return cls(bc.grid, degs, beta)


def bars_from_betti(table: BettiTable) -> SublevelBarcode:
    """Bar multiplicities from Betti numbers by inclusion-exclusion.

    For criticals t_0 < ... < t_N, the bars born at t_i that contain
    [t_i, y] number a(y) = beta(t_i, y) - beta(t_(i-1), y), the row
    before t_0 reading 0 (no bar is born before it); so [t_i, t_j) has
    multiplicity a(t_(j-1)) - a(t_j), the four-term difference, and
    [t_i, inf) has a(inf).  Any negative result means the table is not a
    persistence Betti table.
    """
    T = table.grid.criticals
    bars: dict[tuple[int, float, float], int] = {}
    beta = table.beta
    for r in table.degrees:
        for i, ti in enumerate(T):
            a = [beta[(r, ti, y)] - (beta[(r, T[i - 1], y)] if i else 0) for y in T[i:] + (INF,)]
            mults = [a[k] - a[k + 1] for k in range(len(a) - 2)] + [a[-1]]
            for tj, mult in zip(T[i + 1:] + (INF,), mults):
                if mult < 0:
                    raise ValueError(f"negative multiplicity for [{ti}, {tj}) in degree {r}: inconsistent table")
                if mult:
                    bars[(r, ti, tj)] = mult
    return SublevelBarcode(table.grid, bars)
