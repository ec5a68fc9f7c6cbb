"""Filtrations read directly, and complexes closed from the top down.

Every interlevel set of a filtration's telescope retracts onto its top
level, so the routes read a filtration as its own sub-level bars and
never build the telescope; only `check` does, and it compares the two.
The telescope stays the oracle here: every direct reading must equal the
telescope's, bar for bar and byte for byte.
"""

import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from levelpers import (
    CriticalGrid,
    Filtration,
    LevelBar,
    LevelBarcode,
    SlabBuilder,
    build_complex,
    compute_relevant_numbers,
    critical_values,
    level_barcode,
    numbers_from_barcode,
    sublevel_barcode,
    telescope,
)
from levelpers import report
from levelpers.cli import main
from levelpers.complexes import entry_filtration
from levelpers.report import analyze, analyze_level, analyze_sublevel, input_to_map, parse_input, svg_text
from conftest import FIXTURE_MAKERS, random_filtration, random_vertex_map

BENCH = Path(__file__).resolve().parents[1] / "bench"


def seeded_filtrations(count, seed):
    """Filtrations of 2-5 stages on 7 vertices, as conftest.seeded_telescopes draws them."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        maximal = [sorted(int(v) for v in rng.choice(7, size=size, replace=False))
                   for size in (4, 3, 3, 2, 2)]
        out.append(random_filtration(rng, maximal, int(rng.integers(2, 6))))
    return out


def ladder_filtrations(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    parsed = [parse_input(job.input_text()) for workload in workloads.WORKLOADS
              for job in workloads.make_jobs(workload, 0)]
    filtrations = [p for p in parsed if isinstance(p, Filtration)]
    assert len(filtrations) == 9  # 4 in level-small, 3 in sublevel-large, 2 in check-small
    return filtrations


def late_and_single_filtrations():
    disk = build_complex([[0, 1, 2], [0, 2, 3]])
    circle = build_complex([[0, 1], [1, 2], [2, 3], [0, 3]])
    empty = build_complex([])
    return [
        Filtration([empty, empty, circle, disk], [-1.0, 0.5, 2.0, 3.5]),  # the first two stages hold no vertex
        Filtration([empty, build_complex([[4]]), build_complex([[4, 5]])], [0.0, 1.0, 2.0]),
        Filtration([disk], [7.0]),  # a single stage
        Filtration([circle], [0.0]),
        Filtration([circle, circle, disk], [0.0, 1.0, 2.0]),  # a stage that adds nothing
    ]


def all_filtrations(monkeypatch):
    return seeded_filtrations(40, 2026) + ladder_filtrations(monkeypatch) + late_and_single_filtrations()


def test_direct_bars_equal_the_telescope_bars(monkeypatch):
    for filt in all_filtrations(monkeypatch):
        tele = telescope(filt)
        assert sublevel_barcode(filt) == sublevel_barcode(tele)
        level = level_barcode(filt)
        assert level == level_barcode(tele)
        assert all(bar.left_closed for bar in level.counts)  # no interlevel set of a telescope has an open left end


def test_direct_documents_equal_the_telescope_documents(monkeypatch):
    for filt in all_filtrations(monkeypatch):
        tele = telescope(filt)
        for degree in (None, 0, 1, 5):
            doc = analyze(filt, max_degree=degree)
            assert doc.to_json() == analyze(tele, max_degree=degree).to_json()
            assert svg_text(doc) == svg_text(analyze(tele, max_degree=degree))
            assert analyze_level(filt, max_degree=degree) == analyze_level(tele, max_degree=degree)
        assert analyze_sublevel(filt) == analyze_sublevel(tele)


def test_document_max_degree_is_the_telescope_dimension():
    edge, triangle = build_complex([[0, 1]]), build_complex([[0, 1, 2]])
    cases = [
        (Filtration([edge, triangle], [0.0, 1.0]), 2),  # the last stage is the highest
        (Filtration([triangle, triangle], [0.0, 1.0]), 3),  # a prism over a triangle
        (Filtration([triangle], [0.0]), 2),
    ]
    for filt, dim in cases:
        assert telescope(filt).complex.dim == dim
        assert analyze(filt).max_degree == analyze_level(filt).max_degree == dim


def test_filtration_passes_through_to_the_routes():
    filt = seeded_filtrations(1, 3)[0]
    assert input_to_map(filt) is filt
    assert filt.complex is filt.stages[-1]


def test_band_route_reads_a_filtration_as_its_telescope():
    for filt in seeded_filtrations(40, 7):
        assert compute_relevant_numbers(filt) == numbers_from_barcode(level_barcode(filt))
    filt = seeded_filtrations(1, 8)[0]
    builder = SlabBuilder(telescope(filt))
    assert compute_relevant_numbers(filt, builder=builder) == compute_relevant_numbers(builder.f, builder=builder)
    with pytest.raises(ValueError, match="another map"):
        compute_relevant_numbers(filt, builder=SlabBuilder(telescope(seeded_filtrations(1, 9)[0])))


def test_only_check_telescopes(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("telescope built outside check")

    monkeypatch.setattr(report, "telescope", refuse)
    filt = seeded_filtrations(1, 5)[0]
    path = tmp_path / "filtration.json"
    path.write_text(json.dumps({"filtration": {
        "times": filt.times, "stages": [[list(s) for s in stage.simplices] for stage in filt.stages]}}))
    for command in ("analyze", "sublevel", "level", "numbers", "svg"):
        assert main([command, "--input", str(path)]) == 0, command
    capsys.readouterr()
    with pytest.raises(AssertionError, match="telescope built outside check"):
        main(["check", "--input", str(path)])


def test_entry_order_is_a_filtration_order():
    # one list per dimension, by (entry stage, lexicographic): the order by
    # (entry stage, dimension, lexicographic) restricted to each dimension
    for filt in seeded_filtrations(20, 7) + late_and_single_filtrations():
        order = entry_filtration(filt)
        assert len(order) == filt.complex.dim + 1
        assert sum(map(len, order)) == len(filt.complex.simplices)
        assert {s for rows in order for s, _ in rows} == filt.complex.simplices
        stage = {s: next(i for i, k in enumerate(filt.stages) if s in k.simplices) for rows in order for s, _ in rows}
        for d, rows in enumerate(order):
            assert all(len(s) == d + 1 for s, _ in rows)
            keys = [(stage[s], s) for s, _ in rows]
            assert keys == sorted(keys)
            assert all(t == filt.times[stage[s]] for s, t in rows)
            assert all(stage[s[:i] + s[i + 1:]] <= stage[s] for s, _ in rows for i in range(len(s)) if d)


def misread(real):
    """level_barcode with every closed-closed bar of a filtration that is
    not a single point read as closed-open: an infinite sub-level bar read
    as a finite one."""
    def level(f):
        bc = real(f)
        if not isinstance(f, Filtration):
            return bc
        counts = Counter()
        for bar, m in bc.counts.items():
            wrong = bar.right_closed and bar.left < bar.right
            counts[LevelBar(bar.degree, bar.left, bar.right, True, False) if wrong else bar] += m
        return LevelBarcode(bc.grid, counts)
    return level


def test_check_compares_the_direct_route_with_the_telescope(monkeypatch, tmp_path, capsys):
    path = tmp_path / "filtration.json"
    path.write_text(json.dumps({"filtration": {"times": [0, 1], "stages": [[[0], [1]], [[0, 1]]]}}))
    assert main(["check", "--input", str(path)]) == 0
    passed = capsys.readouterr().out
    assert passed.endswith("10/10 checks passed\n") and "PASS bridge_identity\n" in passed

    monkeypatch.setattr(report, "level_barcode", misread(report.level_barcode))
    assert main(["check", "--input", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL bridge_identity (direct and telescope level bars differ at H0 [0.0, 1.0) with multiplicity 2 vs 1)" \
        in lines
    assert lines[-1] == "9/10 checks passed"
    assert [line for line in lines if line.startswith("FAIL")] == [lines[6]]


def test_check_on_the_ladder_filtrations_names_a_misread_bar(monkeypatch):
    filtrations = ladder_filtrations(monkeypatch)
    small = [filt for filt in filtrations if len(filt.complex.simplices) < 60]
    assert small
    monkeypatch.setattr(report, "level_barcode", misread(report.level_barcode))
    for filt in small:
        bridge = {c.name: c for c in report.run_checks(filt)}["bridge_identity"]
        assert not bridge.passed
        assert bridge.detail.startswith("direct and telescope level bars differ at H")


def reference_closure(maximal):
    """Every face of every simplex, by itertools.combinations."""
    faces = set()
    for raw in maximal:
        s = tuple(sorted(raw))
        for k in range(1, len(s) + 1):
            faces.update(itertools.combinations(s, k))
    return faces


def maximal_simplices(cx):
    """The simplices of cx that are no face of another, each with its vertices shuffled."""
    rng = np.random.default_rng(len(cx.simplices))
    tops = [s for s in cx.simplices if not any(set(s) < set(t) for t in cx.simplices)]
    return [[int(v) for v in rng.permutation(s)] for s in sorted(tops)]


def test_closure_equals_the_combinations_closure():
    rng = np.random.default_rng(2026)
    maps = [maker() for maker in FIXTURE_MAKERS.values()] + [random_vertex_map(rng) for _ in range(260)]
    for f in maps:
        for family in (maximal_simplices(f.complex), [list(s) for s in f.complex.simplices]):
            cx = build_complex(family)
            assert cx.simplices == reference_closure(family) == f.complex.simplices
            assert cx.vertices == f.complex.vertices
        doc = {"vertices": [{"id": v, "value": x} for v, x in f.values.items()],
               "maximal_simplices": maximal_simplices(f.complex)}
        assert parse_input(json.dumps(doc)) == f


def test_closure_of_edge_cases():
    assert build_complex([]).simplices == frozenset() and build_complex([]).vertices == ()
    assert build_complex([[3]]).simplices == {(3,)}
    assert build_complex([[0, 1, 2, 3, 4]]).simplices == reference_closure([[0, 1, 2, 3, 4]])
    assert build_complex([(2, 0), [1], iter([5, 4, 3])]).simplices == reference_closure([[0, 2], [1], [3, 4, 5]])


@pytest.mark.parametrize("family, named", [
    ([[0, 1, 0]], [0, 1, 0]),
    ([[0, 1], [2, 3, 4, 2]], [2, 3, 4, 2]),
    ([[7, 7]], [7, 7]),
    ([[1, 2, 3], [4, 4, 4], [5, 6, 5]], [4, 4, 4]),
])
def test_closure_names_the_first_simplex_with_a_repeated_vertex(family, named):
    with pytest.raises(ValueError) as exc:
        build_complex(family)
    assert str(exc.value) == f"duplicate vertex in simplex {named}"


@pytest.mark.parametrize("simplices, message", [
    ([[0, 1], [0, "x"], [5, 5]], "maximal_simplices[1]: vertex ids must be integers"),
    ([[0, 1], [5, 5], [0, "x"]], "maximal_simplices[1]: duplicate vertex id 5"),
    ([[1, 1, "x"]], "maximal_simplices[0]: duplicate vertex id 1"),
    ([[0, 1], [2, 3, 2]], "maximal_simplices[1]: duplicate vertex id 2"),
    ([[0, 9, 9]], "maximal_simplices[0]: unknown vertex id 9"),
    ([[0, 1], [], [True]], "maximal_simplices[1]: expected a non-empty list of vertex ids"),
    ([[0, 1], [1, True]], "maximal_simplices[1]: vertex ids must be integers"),
    ([[0, 1], 1], "maximal_simplices[1]: expected a non-empty list of vertex ids"),
], ids=["type-before-duplicate", "duplicate-before-type", "duplicate-within", "duplicate-only", "unknown",
        "empty", "bool", "not-a-list"])
def test_parse_names_the_first_fault_in_document_order(simplices, message):
    doc = {"vertices": [{"id": v, "value": v} for v in range(6)], "maximal_simplices": simplices}
    with pytest.raises(report.InputError) as exc:
        parse_input(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize("vertices, message", [
    ([{"id": 0, "value": 1}, {"id": 1}], "vertices[1]: expected an object with 'id' and 'value'"),
    ([{"id": 0, "value": 1}, {"id": True, "value": 1}], "vertices[1].id: expected an integer"),
    ([{"id": 0, "value": 1}, {"id": 0, "value": 2}], "vertices[1]: duplicate id 0"),
    ([{"id": 0, "value": 1}, {"id": 0, "value": "x"}], "vertices[1]: duplicate id 0"),
    ([{"id": 0, "value": 1}, {"id": 1, "value": True}], "vertices[1].value: expected a number, got True"),
    ([{"id": 0, "value": 10 ** 400}], "vertices[0].value: number too large for a float"),
    ([{"id": 0, "value": 1.5}, {"id": 1, "value": 1e300 * 1e300}], "vertices[1].value: number too large for a float"),
], ids=["no-value", "bool-id", "duplicate", "duplicate-before-type", "bool-value", "huge-integer", "infinite-float"])
def test_parse_names_the_first_vertex_fault(vertices, message):
    text = json.dumps({"vertices": vertices, "maximal_simplices": []}).replace("Infinity", "1e400")
    with pytest.raises(report.InputError) as exc:
        parse_input(text)
    assert str(exc.value) == message


def test_vertices_in_no_simplex_are_points_of_the_complex():
    f = parse_input(json.dumps({"vertices": [{"id": v, "value": v} for v in (0, 1, 5, 7)],
                                "maximal_simplices": [[1, 0], [1]]}))
    assert f.complex.vertices == (0, 1, 5, 7)
    assert f.complex.simplices == {(0,), (1,), (5,), (7,), (0, 1)}
    assert f.values == {0: 0.0, 1: 1.0, 5: 5.0, 7: 7.0}


def test_repr_of_a_table_with_no_number():
    empty = numbers_from_barcode(LevelBarcode(CriticalGrid((0.0, 1.0)), {}))
    assert repr(empty) == "RelevantNumbers(no degrees, 0 pairs)"
    one = numbers_from_barcode(LevelBarcode(CriticalGrid((0.0, 1.0)), {LevelBar(0, 0.0, 1.0, True, True): 1}))
    assert repr(one) == "RelevantNumbers(degrees 0..0, 6 pairs)"


def test_grid_of_a_filtration_is_the_times_that_hold_a_vertex():
    filt = late_and_single_filtrations()[0]
    assert sublevel_barcode(filt).grid.criticals == level_barcode(filt).grid.criticals == (2.0, 3.5)
    assert critical_values(filt) == critical_values(telescope(filt))
