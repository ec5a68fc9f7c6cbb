"""Sub-level persistence of a PL vertex map.

Bars come from the classical column reduction of the lower-star
filtration boundary matrix; Betti numbers of the persistence module are
counted from bars by interval containment, and bar multiplicities are
recovered from the Betti numbers by the standard four-case
inclusion-exclusion over consecutive critical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import CriticalGrid, VertexValuedMap, critical_values, lower_star_filtration
from .gf2 import BitMatrix, column_reduce

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
        for (r, birth, death), mult in dict(bars).items():
            if mult < 0:
                raise ValueError(f"negative multiplicity for bar [{birth}, {death}) in degree {r}")
            if mult == 0:
                continue
            if not birth < death:
                raise ValueError(f"bar [{birth}, {death}) in degree {r} is not a forward interval")
            if birth not in grid.criticals or (death != INF and death not in grid.criticals):
                raise ValueError(f"bar [{birth}, {death}) has a non-critical endpoint")
            cleaned[(int(r), float(birth), float(death))] = int(mult)
        self.bars = cleaned

    def degrees(self) -> list[int]:
        return sorted({r for r, _, _ in self.bars})

    def multiplicity(self, r: int, birth: float, death: float) -> int:
        return self.bars.get((r, birth, death), 0)

    def rows(self) -> list[tuple[int, float, float, int]]:
        return sorted((r, b, d, m) for (r, b, d), m in self.bars.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SublevelBarcode):
            return NotImplemented
        return self.grid.criticals == other.grid.criticals and self.bars == other.bars

    def __repr__(self) -> str:
        parts = [f"{r}:[{b},{'inf' if d == INF else d})x{m}" for r, b, d, m in self.rows()]
        return f"SublevelBarcode({', '.join(parts)})"


def sublevel_barcode(f: VertexValuedMap, grid: CriticalGrid | None = None) -> SublevelBarcode:
    """Bars of the sub-level persistence module via column reduction.

    A pair of simplices entering at equal values is a zero-length bar
    and is dropped; unpaired positive simplices give infinite bars.
    """
    if grid is None:
        grid = critical_values(f)
    order = lower_star_filtration(f)
    index = {s: i for i, (s, _) in enumerate(order)}
    columns = []
    for simplex, _ in order:
        bits = 0
        if len(simplex) > 1:
            for i in range(len(simplex)):
                bits |= 1 << index[simplex[:i] + simplex[i + 1:]]
        columns.append(bits)
    pairs, essential = column_reduce(BitMatrix.from_bits(columns, len(order)))

    bars: dict[tuple[int, float, float], int] = {}
    for i, j in pairs:
        birth = order[i][1]
        death = order[j][1]
        if birth == death:
            continue
        key = (len(order[i][0]) - 1, birth, death)
        bars[key] = bars.get(key, 0) + 1
    for i in essential:
        key = (len(order[i][0]) - 1, order[i][1], INF)
        bars[key] = bars.get(key, 0) + 1
    return SublevelBarcode(grid, bars)


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
    """Persistence Betti numbers tabulated over grid pairs and infinity."""

    grid: CriticalGrid
    degrees: tuple[int, ...]
    beta: dict[tuple[int, float, float], int]

    @classmethod
    def from_barcode(cls, bc: SublevelBarcode, degrees=None) -> "BettiTable":
        degs = tuple(degrees) if degrees is not None else tuple(bc.degrees())
        pts = bc.grid.points
        beta: dict[tuple[int, float, float], int] = {}
        for r in degs:
            for i, t in enumerate(pts):
                for t2 in pts[i:]:
                    beta[(r, t, t2)] = betti_from_bars(bc, r, t, t2)
                beta[(r, t, INF)] = betti_from_bars(bc, r, t, INF)
        return cls(bc.grid, degs, beta)


def bars_from_betti(table: BettiTable) -> SublevelBarcode:
    """Bar multiplicities from Betti numbers, one case per boundary situation.

    For criticals t_0 < ... < t_N the multiplicity of [t_i, t_j) is the
    four-term difference of Betti numbers at the neighbouring critical
    pairs, with dedicated three-, two- and one-term forms when t_i is the
    minimum or t_j is infinite.  Any negative result means the table is
    not a persistence Betti table.
    """
    T = table.grid.criticals
    bars: dict[tuple[int, float, float], int] = {}
    beta = table.beta
    for r in table.degrees:
        for i, ti in enumerate(T):
            for j in range(i + 1, len(T)):
                tj = T[j]
                if i == 0:
                    mult = beta[(r, T[0], T[j - 1])] - beta[(r, T[0], tj)]
                else:
                    mult = (beta[(r, ti, T[j - 1])] - beta[(r, T[i - 1], T[j - 1])]
                            - beta[(r, ti, tj)] + beta[(r, T[i - 1], tj)])
                if mult < 0:
                    raise ValueError(f"negative multiplicity for [{ti}, {tj}) in degree {r}: inconsistent table")
                if mult:
                    bars[(r, ti, tj)] = mult
            if i == 0:
                mult = beta[(r, T[0], INF)]
            else:
                mult = beta[(r, ti, INF)] - beta[(r, T[i - 1], INF)]
            if mult < 0:
                raise ValueError(f"negative multiplicity for [{ti}, inf) in degree {r}: inconsistent table")
            if mult:
                bars[(r, ti, INF)] = mult
    return SublevelBarcode(table.grid, bars)
