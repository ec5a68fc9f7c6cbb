import csv
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from levelpers.cli import main
from levelpers.report import (
    InputError,
    ResultDocument,
    analyze,
    json_text,
    numbers_to_csv,
    parse_input,
    render_svg,
    result_to_csv,
    run_checks,
    svg_text,
)
from levelpers import Filtration, SlabBuilder, VertexValuedMap
from conftest import FIXTURE_MAKERS, make_octahedron, make_square_circle

CIRCLE_DOC = json.dumps({
    "vertices": [
        {"id": 0, "value": 0},
        {"id": 1, "value": 1},
        {"id": 2, "value": 2},
        {"id": 3, "value": 1},
    ],
    "maximal_simplices": [[0, 1], [0, 3], [1, 2], [2, 3]],
})

LAMBDA_DOC = json.dumps({
    "vertices": [{"id": 0, "value": 0}, {"id": 1, "value": 2}, {"id": 2, "value": 1}],
    "maximal_simplices": [[0, 1], [1, 2]],
})

FILTRATION_DOC = json.dumps({
    "filtration": {"times": [0, 1], "stages": [[[0], [1]], [[0, 1]]]},
})


@pytest.fixture
def circle_path(tmp_path):
    p = tmp_path / "circle.json"
    p.write_text(CIRCLE_DOC)
    return p


def test_parse_vertex_document():
    f = parse_input(CIRCLE_DOC)
    assert isinstance(f, VertexValuedMap)
    assert len(f.complex) == 8
    assert sorted(set(f.values.values())) == [0.0, 1.0, 2.0]


def test_parse_filtration_document():
    filt = parse_input(FILTRATION_DOC)
    assert isinstance(filt, Filtration)
    assert filt.times == [0.0, 1.0]


def test_parse_errors_carry_field_paths():
    with pytest.raises(InputError, match="invalid JSON"):
        parse_input("{nope")
    with pytest.raises(InputError, match=r"maximal_simplices\[0\]: unknown vertex id 9"):
        parse_input('{"vertices": [{"id": 0, "value": 0}], "maximal_simplices": [[0, 9]]}')
    with pytest.raises(InputError, match=r"vertices\[1\]: duplicate id"):
        parse_input('{"vertices": [{"id": 0, "value": 0}, {"id": 0, "value": 1}],'
                    ' "maximal_simplices": []}')
    with pytest.raises(InputError, match=r"vertices\[0\].value"):
        parse_input('{"vertices": [{"id": 0, "value": "x"}], "maximal_simplices": []}')
    with pytest.raises(InputError, match="missing simplex"):
        parse_input('{"filtration": {"times": [0, 1], "stages": [[[0, 1]], [[0], [1]]]}}')


def test_analyze_circle_document():
    doc = analyze(parse_input(CIRCLE_DOC))
    assert doc.criticals == ["0.0", "1.0", "2.0"]
    level = {(r["degree"], r["left"], r["birth"], r["death"], r["right"]): r["multiplicity"]
             for r in doc.level_bars}
    assert level == {
        (0, "closed", "0.0", "2.0", "closed"): 1,
        (0, "open", "0.0", "2.0", "open"): 1,
    }
    sub = {(r["degree"], r["birth"], r["death"]): r["multiplicity"] for r in doc.sublevel_bars}
    assert sub == {(0, "0.0", None): 1, (1, "2.0", None): 1}
    assert {"level_rank", "image_overlap", "up_kernel", "down_kernel", "kernel_overlap"} == set(doc.numbers)


def test_signed_zeros_print_as_one_zero():
    def outputs(a, b):
        doc = analyze(parse_input(json.dumps({
            "vertices": [{"id": 0, "value": a}, {"id": 1, "value": b}, {"id": 2, "value": 1.0}],
            "maximal_simplices": [[0, 1, 2]],
        })))
        return doc, (doc.to_json(), svg_text(doc), result_to_csv(doc), numbers_to_csv(doc))

    doc, text = outputs(0.0, -0.0)
    ends = {r[k] for r in doc.level_bars + doc.sublevel_bars for k in ("birth", "death")}
    assert doc.criticals == ["0.0", "1.0"]
    assert ends - {None} <= set(doc.criticals)
    assert outputs(-0.0, 0.0)[1] == text


def test_analyze_empty_complex():
    f = parse_input('{"vertices": [], "maximal_simplices": []}')
    doc = analyze(f)
    assert doc.criticals == [] and doc.level_bars == [] and doc.sublevel_bars == []
    assert doc.checks is None and run_checks(f) == []


def test_analyze_empty_complex_reports_the_requested_max_degree():
    f = parse_input('{"vertices": [], "maximal_simplices": []}')
    assert analyze(f).max_degree == 0
    assert analyze(f, max_degree=3).max_degree == 3


@pytest.mark.parametrize("checks", [False, True])
def test_max_degree_above_the_dimension_changes_only_its_field(checks):
    # no degree above the complex dimension has a bar or a nonzero number,
    # so the computation stops there and only the reported field differs
    for f in (make_square_circle(), make_octahedron()):
        if checks:
            assert run_checks(f, max_degree=10**4) == run_checks(f, max_degree=f.complex.dim)
            continue
        high = analyze(f, max_degree=10**4)
        low = analyze(f, max_degree=f.complex.dim)
        assert high.max_degree == 10**4
        high.max_degree = low.max_degree
        assert high.to_json() == low.to_json()


def test_cli_import_leaves_numpy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, levelpers.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_routes_run_without_numpy():
    # only run_checks may need numpy; with it blocked, every route still runs
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import sys
        sys.modules["numpy"] = None
        from levelpers import (BitMatrix, GradedBoundary, build_complex, column_reduce, compute_relevant_numbers,
                               homology_presentation, induced_map, VertexValuedMap)
        from levelpers.report import analyze, run_checks
        f = VertexValuedMap(build_complex([[0, 1], [0, 3], [1, 2], [2, 3]]), {0: 0.0, 1: 1.0, 2: 2.0, 3: 1.0})
        assert len(analyze(f).level_bars) == 2
        assert run_checks(VertexValuedMap(build_complex([]), {})) == []
        assert compute_relevant_numbers(f).level_rank(0, 0.5) == 2
        loop = homology_presentation(BitMatrix.zeros(4, 0), BitMatrix.from_bits([0b0011, 0b0110, 0b1100, 0b1001], 4))
        assert loop.betti == 1 and induced_map(loop, loop, BitMatrix.identity(4)) == BitMatrix.identity(1)
        assert column_reduce(GradedBoundary([[0, 0], [0b11]], [[0.0, 0.0], [0.0]])) == ([(1, 1, 0)], [(0, 0)])
    """
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_result_document_json_round_trip():
    f = parse_input(CIRCLE_DOC)
    doc = dataclasses.replace(analyze(f), checks=[dataclasses.asdict(c) for c in run_checks(f)])
    assert ResultDocument.from_json(doc.to_json()) == doc


def test_csv_and_json_agree_on_bars():
    doc = analyze(parse_input(CIRCLE_DOC))
    rows = list(csv.DictReader(io.StringIO(result_to_csv(doc))))
    level_csv = {(int(r["degree"]), r["left_flag"], r["birth"], r["death"], r["right_flag"])
                 for r in rows if r["kind"] == "level"}
    level_json = {(r["degree"], r["left"], r["birth"], r["death"], r["right"])
                  for r in doc.level_bars}
    assert level_csv == level_json
    sub_csv = {(int(r["degree"]), r["birth"], r["death"]) for r in rows if r["kind"] == "sublevel"}
    sub_json = {(r["degree"], r["birth"], "inf" if r["death"] is None else r["death"])
                for r in doc.sublevel_bars}
    assert sub_csv == sub_json


def test_svg_deterministic_and_marks_open_ends(tmp_path):
    doc = analyze(parse_input(LAMBDA_DOC))
    one = svg_text(doc)
    two = svg_text(doc)
    assert one == two
    render_svg(doc, tmp_path / "a.svg")
    render_svg(doc, tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    # the [1, 2) track ends with a hollow dot at value 2 (the plot's right edge)
    assert any('cx="590.00"' in line and 'fill="white"' in line for line in one.splitlines())
    assert "<svg" in one and one.rstrip().endswith("</svg>")


def test_svg_circle_track_and_gridline_counts():
    doc = analyze(parse_input(CIRCLE_DOC))
    text = svg_text(doc)
    tracks = [line for line in text.splitlines() if 'stroke-width="2"' in line]
    assert len(tracks) == 4  # 2 level bars + 2 sublevel bars
    gridlines = [line for line in text.splitlines() if "stroke-dasharray" in line]
    assert len(gridlines) == 3  # criticals 0, 1, 2
    arrows = [line for line in text.splitlines() if "<path" in line]
    assert len(arrows) == 2  # both sublevel bars are infinite


def test_svg_empty_result():
    doc = analyze(parse_input('{"vertices": [], "maximal_simplices": []}'))
    text = svg_text(doc)
    assert text.startswith("<?xml") and "</svg>" in text


def test_cli_analyze_stdout(circle_path, capsys):
    assert main(["analyze", "--input", str(circle_path)]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["criticals"] == ["0.0", "1.0", "2.0"]
    assert len(data["level_bars"]) == 2


HUGE = "1" * 401  # finite as an integer, too large for a float


@pytest.mark.parametrize("text, message", [
    ('{"vertices": [{"id": 0, "value": %s}], "maximal_simplices": []}' % HUGE, r"vertices\[0\]\.value"),
    ('{"filtration": {"times": [0, %s], "stages": [[[0]], [[0]]]}}' % HUGE, r"filtration\.times\[1\]"),
    ('{"vertices": [{"id": 0, "value": %s}], "maximal_simplices": []}' % ("1" * 5000), "invalid JSON"),
    ('{"vertices": [{"id": 0, "value": 1e400}], "maximal_simplices": []}', r"vertices\[0\]\.value: number too large"),
    ('{"filtration": {"times": [0, 1e400], "stages": [[[0]], [[0]]]}}', r"filtration\.times\[1\]: number too large"),
], ids=["vertex-value", "filtration-time", "past-digit-limit", "float-vertex-value", "float-filtration-time"])
def test_huge_integer_literal_is_an_input_error(text, message, tmp_path, capsys):
    with pytest.raises(InputError, match=message):
        parse_input(text)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["analyze", "--input", str(path)]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{}", "error: cannot read input: 'utf-8' codec can't decode"),
    (b"[" * 100000 + b"]" * 100000, "error: invalid JSON: maximum recursion depth exceeded"),
], ids=["not-utf-8", "nested-too-deep"])
def test_unreadable_input_is_one_line(data, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    assert main(["analyze", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and len(err.splitlines()) == 1


def edge_path(tmp_path, values) -> Path:
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"vertices": [{"id": i, "value": v} for i, v in enumerate(values)],
                                "maximal_simplices": [[0, 1]]}))
    return path


@pytest.mark.parametrize("values", [(1.0, 1.0000000000000002), (1e17, 2e17), (0, 1.7e308),
                                    (1e308, 1.7e308), (-1.7e308, 1.7e308)],
                         ids=["adjacent-doubles", "past-2-53", "zero-to-huge", "sum-overflows", "span-overflows"])
def test_cli_float_grid_edges(values, tmp_path, capsys):
    # only the gap's position matters, never a float inside it, until the
    # band route of `check` slices the gap
    path = edge_path(tmp_path, values)
    a, b = (repr(float(v)) for v in values)
    for command in ["analyze", "sublevel", "level", "numbers", "svg"]:
        assert main([command, "--input", str(path)]) == 0, command
        out = capsys.readouterr().out
        if command == "level":
            assert json.loads(out)["level_bars"] == [{"degree": 0, "left": "closed", "birth": a, "death": b,
                                                      "right": "closed", "multiplicity": 1}]
        elif command == "sublevel":
            assert json.loads(out)["sublevel_bars"] == [{"degree": 0, "birth": a, "death": None, "multiplicity": 1}]
        elif command == "svg":
            assert "nan" not in out and "inf" not in out
    if values == (1.0, 1.0000000000000002):
        assert main(["check", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err
        assert f"({a}, {b})" in err
    else:
        assert main(["check", "--input", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "10/10 checks passed"


def test_cli_check_passes_on_a_gap_two_ulps_wide(tmp_path, capsys, monkeypatch):
    # one float lies inside the gap: the random probes round onto an end or
    # onto the gap's own slice, so the gap and two of the three spans go
    # unprobed and say so, and the redundant critical leaves no float on
    # either side of it; every refined band that is built is cut strictly inside
    refined = []
    plain_interlevel = SlabBuilder.interlevel

    def recording(self, *values):
        # the band route's chain takes every grid value, three here as well: a refinement is told by its caller
        if len(values) > 2 and sys._getframe(1).f_code.co_name == "refinement_independence":
            refined.append(values)
        return plain_interlevel(self, *values)

    monkeypatch.setattr(SlabBuilder, "interlevel", recording)
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({"vertices": [{"id": 0, "value": 1.0}, {"id": 1, "value": 1.0000000000000004},
                                             {"id": 2, "value": 1.0000000000000004}],
                                "maximal_simplices": [[0, 1], [0, 2]]}))
    for seed in range(12):
        assert main(["check", "--input", str(path), "--seed", str(seed)]) == 0, seed
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "10/10 checks passed", seed
        assert lines[-2].startswith("PASS redundant_critical_invariance (") and lines[-2].endswith("nothing to add)")
        assert "PASS gap_invariance (0 of 1 gaps probed; 1 hold no other float)" in lines, seed
        assert "PASS refinement_independence (1 of 3 spans refined; 2 too narrow to cut)" in lines, seed
    assert len(refined) == 12
    for name, make in FIXTURE_MAKERS.items():  # wide gaps: every gap probed and every span cut
        f = make()
        before = len(refined)
        details = {c.name: c.detail for c in run_checks(f)}
        assert details["refinement_independence"] == f"{len(refined) - before} spans", name
        assert details["gap_invariance"] == f"{len(set(f.values.values())) - 1} gaps", name
    assert all(values[0] < x < values[-1] for values in refined for x in values[1:-1])
    assert main(["check", "--input", str(edge_path(tmp_path, (1.0, 1.0000000000000002)))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_cli_check_probes_a_gap_next_to_its_slice_value(tmp_path, capsys):
    # the gap (1.0, 1.0000000000000007) holds two floats: its slice value
    # 1.0000000000000004 and 1.0000000000000002; where the random draw
    # rounds onto the slice value, the float next to it is probed instead
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({"vertices": [{"id": 0, "value": 1.0}, {"id": 1, "value": 1.0000000000000007},
                                             {"id": 2, "value": 2.0}],
                                "maximal_simplices": [[0, 1], [1, 2]]}))
    for seed in (0, 1, 2, 10, 11):
        assert main(["check", "--input", str(path), "--seed", str(seed)]) == 0, seed
        lines = capsys.readouterr().out.splitlines()
        assert "PASS gap_invariance (2 gaps)" in lines, seed
        assert lines[-1] == "10/10 checks passed", seed


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_cli_check_refuses_a_seed_numpy_cannot_take(seed, circle_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", str(circle_path), "--seed", seed])
    assert exc.value.code == 1
    assert f"error: argument --seed: expected a non-negative integer, got {seed!r}" in capsys.readouterr().err


def test_cli_svg_spans_past_the_largest_float(tmp_path):
    svg = tmp_path / "wide.svg"
    assert main(["analyze", "--input", str(edge_path(tmp_path, (-1.7e308, 1.7e308))), "--svg", str(svg),
                 "--output", str(tmp_path / "out.json")]) == 0
    text = svg.read_text()
    assert "nan" not in text
    # the two criticals sit at the two ends of the plot, as on a small span
    assert 'x1="70.00"' in text and 'x1="590.00"' in text
    assert text == svg_text(analyze(parse_input(edge_path(tmp_path, (-1.0, 1.0)).read_text()))).replace(
        ">-1.0<", ">-1.7e+308<").replace(">1.0<", ">1.7e+308<")


def test_cli_svg_of_one_huge_critical(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"vertices": [{"id": 0, "value": 1e17}], "maximal_simplices": []}')
    assert main(["svg", "--input", str(path)]) == 0
    assert 'cx="70.00"' in capsys.readouterr().out


def test_cli_check_passes(circle_path, capsys):
    assert main(["check", "--input", str(circle_path)]) == 0
    out = capsys.readouterr().out
    assert "10/10 checks passed" in out


def test_check_runs_no_analysis(monkeypatch, circle_path, tmp_path, capsys):
    import levelpers.cli as cli
    import levelpers.report as report

    def refuse(*args, **kwargs):
        raise AssertionError("check ran analyze")

    monkeypatch.setattr(cli, "analyze", refuse)
    monkeypatch.setattr(report, "analyze", refuse)
    assert main(["check", "--input", str(circle_path)]) == 0
    assert capsys.readouterr().out.endswith("\n10/10 checks passed\n")
    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": [], "maximal_simplices": []}')
    assert main(["check", "--input", str(empty)]) == 0
    assert capsys.readouterr().out == "0/0 checks passed\n"


def test_sublevel_runs_no_cone(monkeypatch, circle_path, tmp_path, capsys):
    import levelpers.cli as cli
    import levelpers.level as level
    import levelpers.report as report

    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": [], "maximal_simplices": []}')
    filtration = tmp_path / "filtration.json"
    filtration.write_text(FILTRATION_DOC)
    runs, expected = [], []
    for path in (circle_path, empty, filtration):  # the sub-level sections of analyze
        doc = analyze(parse_input(path.read_text()))
        runs += [["sublevel", "--input", str(path), "--format", fmt] for fmt in ("json", "csv")]
        expected += [json_text({"criticals": doc.criticals, "sublevel_bars": doc.sublevel_bars}) + "\n",
                     result_to_csv(dataclasses.replace(doc, level_bars=[]))]

    def refuse(*args, **kwargs):
        raise AssertionError("sublevel ran the cone or the number tables")

    for module, name in ((cli, "analyze"), (report, "analyze"), (report, "level_barcode"),
                         (level, "level_barcode"), (report, "numbers_from_barcode")):
        monkeypatch.setattr(module, name, refuse)
    for argv, out in zip(runs, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out
    assert expected[2] == '{\n  "criticals": [],\n  "sublevel_bars": []\n}\n'


def test_level_and_svg_compute_no_numbers(monkeypatch, circle_path, tmp_path, capsys):
    import levelpers.cli as cli
    import levelpers.report as report

    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": [], "maximal_simplices": []}')
    filtration = tmp_path / "filtration.json"
    filtration.write_text(FILTRATION_DOC)
    octahedron = tmp_path / "octahedron.json"
    f = make_octahedron()
    octahedron.write_text(json.dumps({"vertices": [{"id": v, "value": f.values[v]} for v in f.complex.vertices],
                                      "maximal_simplices": [list(s) for s in f.complex.simplices]}))
    runs, expected = [], []
    for path in (circle_path, empty, filtration, octahedron):  # the bar sections of analyze
        for degree in ([], ["--max-degree", "0"]):
            doc = analyze(parse_input(path.read_text()), max_degree=int(degree[1]) if degree else None)
            runs += [["level", "--input", str(path), *degree, "--format", fmt] for fmt in ("json", "csv")]
            runs.append(["svg", "--input", str(path), *degree])
            expected += [json_text({"criticals": doc.criticals, "level_bars": doc.level_bars}) + "\n",
                         result_to_csv(dataclasses.replace(doc, sublevel_bars=[])), svg_text(doc)]

    def refuse(*args, **kwargs):
        raise AssertionError("level or svg ran the number tables or a conversion")

    for module, name in ((cli, "analyze"), (report, "analyze"), (report, "numbers_from_barcode"),
                         (report, "barcode_from_overlaps"), (report, "barcode_from_kernels")):
        monkeypatch.setattr(module, name, refuse)
    for argv, out in zip(runs, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("stage, message", [
    (["12"], "expected a non-empty list of vertex ids"),
    ([[0, "3"]], "vertex ids must be integers"),
    ([[0, 1.7]], "vertex ids must be integers"),
    ([[0, True]], "vertex ids must be integers"),
    ([[]], "expected a non-empty list of vertex ids"),
], ids=["string-simplex", "string-id", "float-id", "bool-id", "empty-simplex"])
def test_cli_filtration_stages_are_checked_like_maximal_simplices(stage, message, tmp_path, capsys):
    path = tmp_path / "filtration.json"
    path.write_text(json.dumps({"filtration": {"times": [0], "stages": [stage]}}))
    assert main(["analyze", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: filtration.stages[0][0]: {message}\n"


def test_cli_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--input", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["analyze", "--input", "/nonexistent/x.json"]) == 1
    assert "cannot read input" in capsys.readouterr().err


def test_cli_unknown_flag_exits_one(circle_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(circle_path), "--bogus"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def exhaust(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command, module, name", [
    ("numbers", "cli", "parse_input"),        # reading
    ("analyze", "cli", "analyze"),            # computing
    ("sublevel", "report", "analyze_sublevel"),
    ("check", "report", "run_checks"),
    ("svg", "cli", "_emit"),                  # writing
])
def test_out_of_memory_is_one_line(command, module, name, monkeypatch, circle_path, capsys):
    import levelpers.cli as cli
    import levelpers.report as report

    monkeypatch.setattr({"cli": cli, "report": report}[module], name, exhaust)
    assert main([command, "--input", str(circle_path)]) == 1
    assert capsys.readouterr() == ("", f"error: out of memory during {command}\n")


def test_out_of_memory_in_a_check_is_not_a_failed_check(monkeypatch, circle_path, capsys):
    import levelpers.report as report

    monkeypatch.setattr(report, "bars_from_betti", exhaust)
    with pytest.raises(MemoryError):
        report.run_checks(make_square_circle())
    assert main(["check", "--input", str(circle_path)]) == 1
    assert capsys.readouterr() == ("", "error: out of memory during check\n")


def capped_runs(argvs):
    """Each argv of main run in a child process that caps its own address space at 200 MB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))
        from levelpers.cli import main
        sys.exit(main(sys.argv[1:]))
    """
    runs = [subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                           timeout=60) for argv in argvs]
    return [(run.returncode, run.stderr) for run in runs]


def big_circle(tmp_path) -> Path:
    """A 700-vertex circle with distinct values in a seeded order."""
    values = list(range(700))
    random.Random(0).shuffle(values)
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"vertices": [{"id": i, "value": v} for i, v in enumerate(values)],
                               "maximal_simplices": [[i, (i + 1) % 700] for i in range(700)]}))
    return big


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_out_of_memory_under_an_address_cap(circle_path, tmp_path):
    # the square circle fits under the cap, the number tables of a 700-vertex circle do not
    out = str(tmp_path / "out.json")
    argvs = [["analyze", "--input", str(path), "--output", out] for path in (circle_path, big_circle(tmp_path))]
    assert capped_runs(argvs) == [(0, ""), (1, "error: out of memory during analyze\n")]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_level_and_svg_fit_under_an_address_cap(tmp_path):
    # the bars of the 700-vertex circle need no number tables
    big = str(big_circle(tmp_path))
    argvs = [["level", "--input", big, "--output", str(tmp_path / "level.json")],
             ["svg", "--input", big, "--output", str(tmp_path / "bars.svg")]]
    assert capped_runs(argvs) == [(0, ""), (0, "")]
    level = json.loads((tmp_path / "level.json").read_text())
    assert len(level["criticals"]) == 700 and level["level_bars"]
    assert (tmp_path / "bars.svg").read_text().endswith("</svg>\n")


def test_cli_svg_and_outputs(circle_path, tmp_path, capsys):
    svg_path = tmp_path / "out.svg"
    out_path = tmp_path / "out.json"
    code = main(["analyze", "--input", str(circle_path),
                 "--svg", str(svg_path), "--output", str(out_path)])
    assert code == 0
    assert svg_path.read_text().startswith("<?xml")
    assert json.loads(out_path.read_text())["max_degree"] == 1

    assert main(["svg", "--input", str(circle_path), "--output", str(tmp_path / "two.svg")]) == 0
    assert main(["svg", "--input", str(circle_path), "--output", str(tmp_path / "three.svg")]) == 0
    assert (tmp_path / "two.svg").read_bytes() == (tmp_path / "three.svg").read_bytes()


def test_cli_main_twice_in_one_process(circle_path, tmp_path, capsys):
    # the parser is shared between calls; no option leaks into the next one
    svg_path = tmp_path / "a.svg"
    assert main(["analyze", "--input", str(circle_path), "--svg", str(svg_path),
                 "--output", str(tmp_path / "one.json")]) == 0
    svg_path.unlink()
    assert main(["analyze", "--input", str(circle_path), "--output", str(tmp_path / "two.json")]) == 0
    assert not svg_path.exists()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


def test_cli_check_seed_does_not_stick(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"vertices": [{"id": i, "value": (5 * i) % 12} for i in range(12)],
                                "maximal_simplices": [[i, (i + 1) % 12] for i in range(12)]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-m", "levelpers.cli", "check", "--input", str(path)],
                           env=env, capture_output=True, text=True, check=True).stdout
    assert main(["check", "--input", str(path), "--seed", "3"]) == 0
    seeded = capsys.readouterr().out
    assert main(["check", "--input", str(path)]) == 0
    assert capsys.readouterr().out == fresh != seeded


def test_cli_sublevel_level_numbers_subcommands(circle_path, capsys):
    assert main(["sublevel", "--input", str(circle_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "sublevel_bars" in data and "level_bars" not in data

    assert main(["level", "--input", str(circle_path), "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert all(r["kind"] == "level" for r in rows) and rows

    assert main(["numbers", "--input", str(circle_path), "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert {"degree", "table", "t", "u", "d", "count"} == set(rows[0])


@pytest.mark.parametrize("command, flag, value", [
    ("analyze", "--seed", "1"), ("sublevel", "--seed", "1"), ("level", "--seed", "1"), ("numbers", "--seed", "1"),
    ("svg", "--seed", "1"), ("check", "--format", "csv"), ("svg", "--format", "csv"), ("sublevel", "--max-degree", "0"),
])
def test_cli_refuses_an_option_its_subcommand_does_not_read(command, flag, value, circle_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(circle_path), flag, value])
    assert exc.value.code == 1
    assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(FIXTURE_MAKERS))
def test_each_subcommand_writes_its_section_of_analyze(name, tmp_path, capsys):
    f = FIXTURE_MAKERS[name]()
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"vertices": [{"id": v, "value": f.values[v]} for v in f.complex.vertices],
                                "maximal_simplices": [list(s) for s in f.complex.simplices]}))

    def run(*argv):
        assert main([*argv, "--input", str(path)]) == 0
        return capsys.readouterr().out

    for degree in ([], ["--max-degree", "0"]):
        svg = tmp_path / "analyze.svg"
        data = json.loads(run("analyze", "--svg", str(svg), *degree))
        rows = run("analyze", "--format", "csv", *degree).splitlines()
        for kind, key in (("sublevel", "sublevel_bars"), ("level", "level_bars")):
            options = degree if kind == "level" else []  # sub-level bars do not depend on it
            assert json.loads(run(kind, *options)) == {"criticals": data["criticals"], key: data[key]}
            assert run(kind, "--format", "csv", *options).splitlines() == \
                [rows[0]] + [row for row in rows[1:] if row.endswith("," + kind)]
        assert json.loads(run("numbers", *degree)) == {"criticals": data["criticals"], "numbers": data["numbers"]}
        assert run("numbers", "--format", "csv", *degree) == numbers_to_csv(ResultDocument(**data))
        assert run("svg", *degree) == svg.read_text()


def test_cli_filtration_input(tmp_path, capsys):
    p = tmp_path / "filt.json"
    p.write_text(FILTRATION_DOC)
    assert main(["analyze", "--input", str(p)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["criticals"] == ["0.0", "1.0"]
    level = {(r["degree"], r["left"], r["birth"], r["death"], r["right"]) for r in data["level_bars"]}
    assert (0, "closed", "0.0", "1.0", "open") in level
