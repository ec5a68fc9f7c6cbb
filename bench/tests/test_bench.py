"""Tests of the benchmark itself: python3 -m pytest -q bench/tests"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, euler_characteristic, make_jobs, write_inputs  # noqa: E402

from levelpers.report import analyze, parse_input, svg_text  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_input_files(workload, tmp_path):
    a = write_inputs(make_jobs(workload, 7), tmp_path / "a")
    b = write_inputs(make_jobs(workload, 7), tmp_path / "b")
    assert [p.name for p in a] == [p.name for p in b]
    assert all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b))
    other = [job.input_text() for job in make_jobs(workload, 8)]
    assert other != [p.read_text() for p in a]


def test_ladder_is_fixed_across_seeds():
    for workload in WORKLOADS:
        assert [j.name for j in make_jobs(workload, 1)] == [j.name for j in make_jobs(workload, 2)]


def _analyze_output(doc: dict):
    result = analyze(parse_input(json.dumps(doc)))
    return result.to_json(), svg_text(result)


def _jobs_with_bars():
    return [job for job in make_jobs("level-small", 3) if job.name.startswith(("circle-8", "grid-3"))]


def test_correct_documents_pass():
    for job in _jobs_with_bars():
        text, svg = _analyze_output(job.doc)
        assert checks.check_analyze(text, svg, euler_characteristic(job.doc)) == []


def test_flipped_end_flag_is_rejected():
    for job in _jobs_with_bars():
        text, svg = _analyze_output(job.doc)
        doc = json.loads(text)
        bar = doc["level_bars"][0]
        bar["right"] = "open" if bar["right"] == "closed" else "closed"
        assert checks.check_analyze(json.dumps(doc), svg, euler_characteristic(job.doc))


def test_dropped_bar_is_rejected():
    for job in _jobs_with_bars():
        text, svg = _analyze_output(job.doc)
        euler = euler_characteristic(job.doc)
        for key in ("level_bars", "sublevel_bars"):
            doc = json.loads(text)
            doc[key].pop()
            assert checks.check_analyze(json.dumps(doc), svg, euler), key


def test_dropped_infinite_bar_breaks_euler():
    rows = [{"degree": 0, "birth": "0.0", "death": None, "multiplicity": 1},
            {"degree": 1, "birth": "2.0", "death": None, "multiplicity": 1}]
    assert checks.check_sublevel_rows(rows, 0) == []
    assert checks.check_sublevel_rows(rows[:1], 0)


def test_failed_check_output_is_rejected():
    good = "PASS a\nPASS b (2 gaps)\n2/2 checks passed\n"
    assert checks.check_check(0, good) == []
    assert checks.check_check(2, good)
    assert checks.check_check(0, "PASS a\nFAIL b (x)\n1/2 checks passed\n")
    assert checks.check_check(0, "1/1 checks passed\n")


def test_digest_mismatch_is_rejected():
    files = {"json": b"{}"}
    assert checks.check_digests(files, {"json": checks.digest(b"{}")}) == []
    assert checks.check_digests(files, {"json": checks.digest(b"[]")})
    assert checks.check_digests(files, None)


def test_euler_characteristic_of_inputs():
    circle = {"vertices": [{"id": i, "value": i} for i in range(4)],
              "maximal_simplices": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    assert euler_characteristic(circle) == 0
    filt = {"filtration": {"times": [0, 1], "stages": [[[0], [1]], [[0, 1], [1, 2], [0, 2]]]}}
    assert euler_characteristic(filt) == 0


def _span(name, start, end, parent, job=0):
    return (name, start, end, parent, job)


def test_self_times_of_a_hand_built_tree():
    # cli.main [0, 10] > report.analyze [1, 9] > level.numbers [2, 8]
    #   > slabs.build [2, 3], gf2.homology [3, 6] > (nothing), gf2.subspace [6, 7]
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("report.analyze", 1.0, 9.0, 0),
        _span("level.numbers", 2.0, 8.0, 1),
        _span("slabs.build", 2.0, 3.0, 2),
        _span("gf2.homology", 3.0, 6.0, 2),
        _span("gf2.subspace", 6.0, 7.0, 2),
    ]
    assert tracing.self_times(spans) == [2.0, 2.0, 1.0, 1.0, 3.0, 1.0]
    layers = tracing.layer_metrics(spans, {}, {0: "job"})
    assert layers["cli.self_s"] == 2.0
    assert layers["report.analyze_self_s"] == 2.0
    assert layers["level.numbers_self_s"] == 1.0
    assert layers["gf2.self_s"] == 4.0
    assert layers["gf2.homology_s"] == 3.0
    assert sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS) == 10.0


def test_layer_metrics_average_repeats_and_sum_jobs():
    spans = [_span("gf2.reduce", 0.0, 2.0, -1, job=0),
             _span("gf2.reduce", 0.0, 4.0, -1, job=1),
             _span("gf2.reduce", 0.0, 1.0, -1, job=2)]
    counts = {0: {"gf2.calls": 1}, 1: {"gf2.calls": 1}, 2: {"gf2.calls": 1, "gf2.empty": 1}}
    layers = tracing.layer_metrics(spans, counts, {0: "a", 1: "a", 2: "b"})
    assert layers["gf2.reduce_s"] == 3.0 + 1.0
    assert layers["gf2.calls"] == 2.0
    assert layers["gf2.empty_frac"] == 0.5


def test_absent_wrap_target_is_reported_not_raised():
    tracer = tracing.Tracer()
    tracer.install([("levelpers.gf2", "no_such_function", "gf2.subspace"),
                    ("levelpers.slabs", "NoSuchClass.method", "slabs.build"),
                    ("levelpers.gf2", "rank", "gf2.subspace")])
    try:
        assert tracer.absent == ["levelpers.gf2.no_such_function", "levelpers.slabs.NoSuchClass.method"]
        import levelpers.gf2 as gf2
        tracer.start_job(0)
        gf2.rank(gf2.BitMatrix.identity(3))
        assert [s[0] for s in tracer.spans] == ["gf2.subspace"]
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, tracer.counts, {0: "job"})
    assert layers["slabs.build_s"] == 0.0
    assert layers["gf2.matrix_entries"] == 9
