import csv
import io
import json

import pytest

from levelpers.cli import main
from levelpers.report import (
    InputError,
    ResultDocument,
    analyze,
    parse_input,
    render_svg,
    result_to_csv,
    svg_text,
)
from levelpers import Filtration, VertexValuedMap

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


def test_analyze_empty_complex():
    doc = analyze(parse_input('{"vertices": [], "maximal_simplices": []}'), include_checks=True)
    assert doc.criticals == [] and doc.level_bars == [] and doc.sublevel_bars == []
    assert doc.checks == []


def test_result_document_json_round_trip():
    doc = analyze(parse_input(CIRCLE_DOC), include_checks=True)
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
], ids=["vertex-value", "filtration-time", "past-digit-limit"])
def test_huge_integer_literal_is_an_input_error(text, message, tmp_path, capsys):
    with pytest.raises(InputError, match=message):
        parse_input(text)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["analyze", "--input", str(path)]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("values", [(1.0, 1.0000000000000002), (1e17, 2e17), (0, 1.7e308)])
def test_cli_float_grid_failure_is_one_line(values, tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"vertices": [{"id": i, "value": v} for i, v in enumerate(values)],
                                "maximal_simplices": [[0, 1]]}))
    for command in ["analyze", "sublevel", "level", "numbers", "check", "svg"]:
        assert main([command, "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


def test_cli_check_passes(circle_path, capsys):
    assert main(["check", "--input", str(circle_path)]) == 0
    out = capsys.readouterr().out
    assert "10/10 checks passed" in out


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


def test_cli_filtration_input(tmp_path, capsys):
    p = tmp_path / "filt.json"
    p.write_text(FILTRATION_DOC)
    assert main(["analyze", "--input", str(p)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["criticals"] == ["0.0", "1.0"]
    level = {(r["degree"], r["left"], r["birth"], r["death"], r["right"]) for r in data["level_bars"]}
    assert (0, "closed", "0.0", "1.0", "open") in level
