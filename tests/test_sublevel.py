import numpy as np
import pytest

from levelpers import (
    BettiTable,
    SublevelBarcode,
    bars_from_betti,
    betti_from_bars,
    critical_values,
    homology_presentation,
    sublevel_barcode,
)
from levelpers.sublevel import INF
from conftest import random_vertex_map, simplicial_boundary_matrix
from levelpers import build_complex, VertexValuedMap


def test_circle_bars(square_circle):
    bars = sublevel_barcode(square_circle).bars
    # the merge pair at value 1 is zero-length and is dropped
    assert bars == {(0, 0.0, INF): 1, (1, 2.0, INF): 1}


def test_lambda_bars(lambda_map):
    bars = sublevel_barcode(lambda_map).bars
    assert bars == {(0, 0.0, INF): 1, (0, 1.0, 2.0): 1}


def test_octahedron_bars(octahedron):
    bars = sublevel_barcode(octahedron).bars
    assert bars == {(0, -1.0, INF): 1, (2, 1.0, INF): 1}


def test_betti_from_bars_circle(square_circle):
    bc = sublevel_barcode(square_circle)
    assert betti_from_bars(bc, 0, 0.5, 1.5) == 1
    assert betti_from_bars(bc, 1, 2.0, 2.0) == 1
    assert betti_from_bars(bc, 0, -5.0, -5.0) == 0
    with pytest.raises(ValueError):
        betti_from_bars(bc, 0, 2.0, 1.0)


def test_betti_containment_is_strict_at_open_deaths(lambda_map):
    bc = sublevel_barcode(lambda_map)
    # the bar [1, 2) contains [1, t'] only for t' < 2
    assert betti_from_bars(bc, 0, 1.0, 1.9) == 2
    assert betti_from_bars(bc, 0, 1.0, 2.0) == 1


def test_betti_diagonal_matches_subcomplex_homology():
    rng = np.random.default_rng(31)
    for _ in range(15):
        f = random_vertex_map(rng)
        bc = sublevel_barcode(f)
        for t in critical_values(f).criticals:
            sub_simplices = [s for s in f.complex.simplices if max(f.values[v] for v in s) <= t]
            sub = build_complex(sub_simplices) if sub_simplices else None
            for r in range(f.complex.dim + 1):
                direct = 0
                if sub is not None:
                    direct = homology_presentation(
                        simplicial_boundary_matrix(sub, r + 1),
                        simplicial_boundary_matrix(sub, r)).betti
                assert betti_from_bars(bc, r, t, t) == direct


def test_bars_from_betti_round_trip_fixtures(fixture_maps):
    for name, f in fixture_maps.items():
        bc = sublevel_barcode(f)
        back = bars_from_betti(BettiTable.from_barcode(bc))
        assert back == bc, name


def test_bars_from_betti_round_trip_random():
    rng = np.random.default_rng(32)
    for _ in range(25):
        f = random_vertex_map(rng)
        bc = sublevel_barcode(f)
        assert bars_from_betti(BettiTable.from_barcode(bc)) == bc


def test_betti_table_matches_the_per_bar_count(fixture_maps):
    # the running sums of from_barcode against betti_from_bars, a loop over every bar, at every key
    rng = np.random.default_rng(34)
    maps = list(fixture_maps.values()) + [random_vertex_map(rng) for _ in range(60)]
    for f in maps:
        bc = sublevel_barcode(f)
        table = BettiTable.from_barcode(bc)
        T = bc.grid.criticals
        keys = [(r, t, t2) for r in bc.degrees() for i, t in enumerate(T) for t2 in T[i:] + (INF,)]
        assert list(table.beta) == keys
        assert table.beta == {key: betti_from_bars(bc, *key) for key in keys}, f


def test_bars_from_betti_single_point():
    f = VertexValuedMap(build_complex([[0]]), {0: 0.0})
    bc = sublevel_barcode(f)
    assert bc.bars == {(0, 0.0, INF): 1}
    assert bars_from_betti(BettiTable.from_barcode(bc)) == bc


def test_bars_from_betti_rejects_inconsistent_table():
    f = VertexValuedMap(build_complex([[0, 1]]), {0: 0.0, 1: 1.0})
    table = BettiTable.from_barcode(sublevel_barcode(f))
    bad = dict(table.beta)
    bad[(0, 0.0, INF)] += 5  # inflates an early column above a later one
    broken = BettiTable(table.grid, table.degrees, bad)
    with pytest.raises(ValueError, match="negative"):
        bars_from_betti(broken)


def test_betti_table_monotone_in_the_interval():
    rng = np.random.default_rng(33)
    for _ in range(10):
        f = random_vertex_map(rng)
        bc = sublevel_barcode(f)
        table = BettiTable.from_barcode(bc)
        pts = bc.grid.criticals
        for r in table.degrees:
            for i, t in enumerate(pts):
                for j in range(i, len(pts) - 1):
                    assert table.beta[(r, t, pts[j])] >= table.beta[(r, t, pts[j + 1])]
                if i + 1 < len(pts):
                    for j in range(i + 1, len(pts)):
                        assert table.beta[(r, pts[i + 1], pts[j])] >= table.beta[(r, t, pts[j])]


def test_mu_bounded_by_entering_simplices():
    rng = np.random.default_rng(34)
    for _ in range(10):
        f = random_vertex_map(rng)
        bc = sublevel_barcode(f)
        grid = bc.grid
        for r in bc.degrees():
            for t in grid.criticals:
                entering = sum(1 for s in f.complex.simplices
                               if len(s) == r + 1 and max(f.values[v] for v in s) == t)
                total = sum(m for (rr, b, _), m in bc.bars.items() if rr == r and b == t)
                assert total <= entering


def test_barcode_rejects_bad_bars():
    f = VertexValuedMap(build_complex([[0, 1]]), {0: 0.0, 1: 1.0})
    grid = critical_values(f)
    with pytest.raises(ValueError, match="forward"):
        SublevelBarcode(grid, {(0, 1.0, 0.0): 1})
    with pytest.raises(ValueError, match="non-critical"):
        SublevelBarcode(grid, {(0, 0.25, 1.0): 1})
    with pytest.raises(ValueError, match="negative"):
        SublevelBarcode(grid, {(0, 0.0, 1.0): -1})


@pytest.mark.parametrize("key, text", [
    ((0, 0.5, 1.0), "[0.5, 1.0)"),    # birth at a regular value
    ((0, 0.0, 0.5), "[0.0, 0.5)"),    # death at a regular value
    ((1, 0.5, INF), "[0.5, inf)"),    # infinite bar born at a regular value
])
def test_non_critical_endpoint_message(key, text):
    grid = critical_values(VertexValuedMap(build_complex([[0, 1]]), {0: 0.0, 1: 1.0}))
    with pytest.raises(ValueError) as exc:
        SublevelBarcode(grid, {(0, 0.0, INF): 1, key: 1})
    assert str(exc.value) == f"bar {text} has a non-critical endpoint"
