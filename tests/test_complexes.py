import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from levelpers import (
    CriticalGrid,
    Filtration,
    VertexValuedMap,
    build_complex,
    critical_values,
    lower_star_filtration,
    sublevel_barcode,
    telescope,
)
from levelpers.report import parse_input
from levelpers.sublevel import INF
from global_reduction import global_lower_star_order
from conftest import make_octahedron, random_vertex_map, simplicial_betti


def test_build_triangle_closure():
    cx = build_complex([[0, 1, 2]])
    assert len(cx) == 7  # 3 vertices + 3 edges + 1 triangle
    assert (0, 1) in cx and (0, 1, 2) in cx


def test_build_square_circle():
    cx = build_complex([[0, 1], [1, 2], [2, 3], [3, 0]])
    assert len(cx) == 8


def test_build_octahedron_count():
    cx = make_octahedron().complex
    assert len(cx) == 26  # 6 + 12 + 8
    assert len(cx.simplices_of_dim(1)) == 12


def test_build_rejects_duplicate_vertex():
    with pytest.raises(ValueError, match="duplicate"):
        build_complex([[0, 1, 0]])


def test_build_idempotent():
    cx = build_complex([[0, 1, 2], [2, 3]])
    again = build_complex(list(cx.simplices))
    assert again == cx


def test_vertex_map_validation():
    cx = build_complex([[0, 1]])
    with pytest.raises(ValueError, match="no value"):
        VertexValuedMap(cx, {0: 1.0})
    with pytest.raises(ValueError, match="unknown vertex"):
        VertexValuedMap(cx, {0: 1.0, 1: 2.0, 5: 0.0})
    with pytest.raises(ValueError, match="finite"):
        VertexValuedMap(cx, {0: 1.0, 1: float("nan")})


def test_critical_values_midpoints_and_sentinels():
    cx = build_complex([[0, 1], [1, 2], [2, 3]])
    f = VertexValuedMap(cx, {0: 0.0, 1: 1.0, 2: 1.0, 3: 2.0})
    grid = critical_values(f)
    assert grid.criticals == (0.0, 1.0, 2.0)
    assert [grid.regular_above(k) for k in range(2)] == [0.5, 1.5]
    assert [grid.value(i) for i in range(5)] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert [grid.position(x) for x in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)] == [None, 0, 1, 2, 3, 4, None]
    # every value inside a gap has the gap's position
    assert [grid.position(x) for x in (0.1, 0.9, 1.2, 1.9999)] == [1, 1, 3, 3]


def test_critical_values_single_vertex():
    f = VertexValuedMap(build_complex([[4]]), {4: 5.0})
    grid = critical_values(f)
    assert grid.criticals == (5.0,)
    assert [grid.position(x) for x in (4.0, 5.0, 6.0)] == [None, 0, None]


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(finite, finite)
@example(1.0, 1.0000000000000002)
@example(1e308, 1.7e308)
@example(-1.7e308, 1.7e308)
@example(5e-324, 1.5e-323)
@example(-5e-324, 5e-324)
def test_gap_float_lies_inside_its_gap(a, b):
    a, b = sorted((a + 0.0, b + 0.0))
    assume(a < b)
    grid = CriticalGrid((a, b))
    if math.nextafter(a, b) == b:
        with pytest.raises(ValueError, match=re.escape(f"no float lies strictly inside the gap ({a!r}, {b!r})")):
            grid.regular_above(0)
        return
    mid = grid.regular_above(0)
    assert a < mid < b and grid.position(mid) == 1 and grid.value(1) == mid
    if a < (a + b) / 2 < b:  # the midpoint, as the band route has always sliced
        assert mid == (a + b) / 2


def test_critical_values_dedup():
    f = VertexValuedMap(build_complex([[0], [1]]), {0: 0.0, 1: 0.0})
    assert critical_values(f).criticals == (0.0,)


def test_critical_values_empty_complex():
    from levelpers import SimplicialComplex
    empty = SimplicialComplex((), frozenset())
    with pytest.raises(ValueError):
        critical_values(VertexValuedMap(empty, {}))


def test_both_bar_routes_refuse_the_empty_complex():
    from levelpers import level_barcode
    empty = VertexValuedMap(build_complex([]), {})
    for route in (level_barcode, sublevel_barcode):
        with pytest.raises(ValueError, match="empty complex has no critical values"):
            route(empty)


def test_critical_grid_sorts_and_merges_its_values():
    assert CriticalGrid((2.0, 1.0, 2.0)).criticals == (1.0, 2.0)
    assert CriticalGrid((3, 1)) == CriticalGrid((1.0, 3.0))
    with pytest.raises(ValueError, match="no critical values"):
        CriticalGrid(())


def simplices(order):
    return [[s for s, _ in rows] for rows in order]


def test_lower_star_edge():
    f = VertexValuedMap(build_complex([[0, 1]]), {0: 0.0, 1: 1.0})
    assert lower_star_filtration(f) == [[((0,), 0.0), ((1,), 1.0)], [((0, 1), 1.0)]]


def test_lower_star_constant_triangle_dim_tiebreak():
    # one list per dimension; merged, the faces enter first at a tied value
    f = VertexValuedMap(build_complex([[0, 1, 2]]), {0: 0.0, 1: 0.0, 2: 0.0})
    order = lower_star_filtration(f)
    assert simplices(order) == [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]
    assert [p for rows in order for p in rows] == global_lower_star_order(f)


def test_lower_star_square_circle_order():
    # a=0(0), b=1(1), d=3(1), c=2(2)
    cx = build_complex([[0, 1], [0, 3], [1, 2], [2, 3]])
    f = VertexValuedMap(cx, {0: 0.0, 1: 1.0, 2: 2.0, 3: 1.0})
    assert simplices(lower_star_filtration(f)) == [[(0,), (1,), (3,), (2,)], [(0, 1), (0, 3), (1, 2), (2, 3)]]


def test_lower_star_faces_precede_cofaces():
    # each dimension is the global (value, dimension, lexicographic) order
    # restricted to it, and no face has a larger value than its coface
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = random_vertex_map(rng)
        order = lower_star_filtration(f)
        glob = global_lower_star_order(f)
        assert order == [[p for p in glob if len(p[0]) == d + 1] for d in range(f.complex.dim + 1)]
        value = {s: x for rows in order for s, x in rows}
        for rows in order:
            for s, x in rows:
                assert x == max(f.values[v] for v in s)
                assert all(value[s[:i] + s[i + 1:]] <= x for i in range(len(s) if len(s) > 1 else 0))


def test_filtration_rejects_non_nested():
    with pytest.raises(ValueError, match=r"missing simplex \[0, 1\]"):
        Filtration([build_complex([[0, 1]]), build_complex([[0], [1]])], [0.0, 1.0])


def test_filtration_rejects_bad_times():
    stage = build_complex([[0]])
    with pytest.raises(ValueError, match="strictly increasing"):
        Filtration([stage, stage], [1.0, 1.0])


def test_telescope_single_point_is_segment():
    filt = Filtration([build_complex([[0]]), build_complex([[0]])], [0.0, 1.0])
    f = telescope(filt)
    assert simplicial_betti(f.complex, 0) == 1
    assert simplicial_betti(f.complex, 1) == 0
    assert sorted(f.values.values()) == [0.0, 1.0]


def test_telescope_two_points_merging():
    filt = Filtration([build_complex([[0], [1]]), build_complex([[0, 1]])], [0.0, 1.0])
    f = telescope(filt)
    bars = sublevel_barcode(f).bars
    assert bars == {(0, 0.0, INF): 1, (0, 0.0, 1.0): 1}


def test_telescope_circle_into_disk():
    circle = build_complex([[0, 1], [1, 2], [2, 3], [0, 3]])
    disk = build_complex([[0, 1, 2], [0, 2, 3]])
    f = telescope(Filtration([circle, disk], [0.0, 1.0]))
    bars = sublevel_barcode(f).bars
    assert bars[(1, 0.0, 1.0)] == 1
    assert bars[(0, 0.0, INF)] == 1


def test_telescope_retracts_to_last_stage():
    rng = np.random.default_rng(9)
    for _ in range(10):
        f0 = random_vertex_map(rng)
        big = f0.complex
        small_simplices = [s for s in big.simplices if rng.random() < 0.6]
        small = build_complex(small_simplices) if small_simplices else build_complex([min(big.simplices)])
        filt = Filtration([small, big], [0.0, 1.0])
        tele = telescope(filt)
        for r in range(big.dim + 1):
            assert simplicial_betti(tele.complex, r) == simplicial_betti(big, r)


def prism_closure_telescope(filt):
    """The telescope as the closure of every staircase prism: the
    construction the direct enumeration replaced, kept as a reference."""
    last = len(filt.stages) - 1
    pairs = sorted({(i, v) for i, stage in enumerate(filt.stages) for v in stage.vertices})
    cid = {pair: n for n, pair in enumerate(pairs)}
    simplices = []
    for i in range(last):
        for s in filt.stages[i].simplices:
            bottoms = [cid[(i, v)] for v in s]
            tops = [cid[(i + 1, v)] for v in s]
            for k in range(len(s)):
                simplices.append(tuple(bottoms[: k + 1] + tops[k:]))
    for s in filt.stages[last].simplices:
        simplices.append(tuple(cid[(last, v)] for v in s))
    cx = build_complex(simplices)
    present = set(cx.vertices)
    values = {cid[(i, v)]: filt.times[i] for (i, v) in pairs if cid[(i, v)] in present}
    return VertexValuedMap(cx, values)


def assert_same_telescope(filt):
    f, reference = telescope(filt), prism_closure_telescope(filt)
    assert f == reference
    assert f.complex.vertices == reference.complex.vertices
    assert len(f.complex.simplices) == len(reference.complex.simplices)
    # each simplex of a stage below the last gives its bottom copy and 2m + 1 splits,
    # so a count this large means no simplex was enumerated twice
    enumerated = sum(2 * len(s) for stage in filt.stages[:-1] for s in stage.simplices)
    assert len(f.complex.simplices) == enumerated + len(filt.stages[-1].simplices)


def test_telescope_equals_the_closure_of_its_prisms():
    rng = np.random.default_rng(2016)
    for _ in range(200):
        stages = int(rng.integers(2, 6))
        maximal = [sorted(int(v) for v in rng.choice(7, size=size, replace=False))
                   for size in (4, 3, 3, 2, 2, 1)]
        entry = rng.integers(0, stages, size=len(maximal))
        complexes = [build_complex([[0]] + [s for s, e in zip(maximal, entry) if e <= i])
                     for i in range(stages)]
        assert_same_telescope(Filtration(complexes, [float(t) for t in range(stages)]))


def test_telescope_of_the_benchmark_grid_filtrations_equals_the_closure(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import make_jobs

    grids = [job for job in make_jobs("sublevel-large", 0) if job.name.startswith("telescope-grid")]
    assert len(grids) == 3
    for job in grids:
        assert_same_telescope(parse_input(job.input_text()))
