"""The benchmark's tracer still finds every function it wraps, the band
route still gives the benchmark's reference `check` output, `analyze`
still gives its reference `level-small` documents and drawings, and the
library route still gives the reference `sublevel-large` bars.

bench/tracing.py wraps named functions in the levelpers modules from
outside; a target that moves or is renamed is reported as absent, and
its per-layer metrics silently read 0.
"""

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_wrap_target_is_present(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_traced_check_feeds_the_band_route_counts(monkeypatch, tmp_path):
    # counts whose arguments or results change shape are listed as absent
    # and read 0; one traced `check` must feed the band route's counts
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import levelpers.cli as cli

    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"vertices": [{"id": i, "value": v} for i, v in enumerate([0, 1, 2, 1])],
                                "maximal_simplices": [[0, 1], [0, 3], [1, 2], [2, 3]]}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_job(0)
        assert cli.main(["check", "--input", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    metrics = tracing.per_job(tracer.spans, tracer.counts)[0]
    for metric in ("level.grid_points", "level.bands", "slabs.complexes"):
        assert metrics[metric] > 0, metric
    names = {span[0] for span in tracer.spans}
    assert "report.checks" in names and "report.analyze" not in names


def test_check_small_ladder_reports_no_problem(monkeypatch, tmp_path):
    # every `check` job of the seed-0 ladder, checked against bench/reference_digests.json
    monkeypatch.syspath_prepend(str(BENCH))
    import worker

    runner = worker.Runner("check-small", worker.checks.DEFAULT_SEED, tmp_path)
    assert runner.expected and all(runner.expected)
    for i, job in enumerate(runner.jobs):
        _, problems = runner.run(i)
        assert problems == [], job.name


def test_level_small_ladder_reports_no_problem(monkeypatch, tmp_path):
    # every `analyze --svg` job of the seed-0 ladder, checked against bench/reference_digests.json
    monkeypatch.syspath_prepend(str(BENCH))
    import worker

    runner = worker.Runner("level-small", worker.checks.DEFAULT_SEED, tmp_path)
    assert runner.expected and all(runner.expected)
    for i, job in enumerate(runner.jobs):
        _, problems = runner.run(i)
        assert problems == [], job.name


def test_sublevel_large_ladder_reports_no_problem(monkeypatch, tmp_path):
    # every library-route `sublevel` job of the seed-0 ladder, checked against bench/reference_digests.json
    monkeypatch.syspath_prepend(str(BENCH))
    import worker

    runner = worker.Runner("sublevel-large", worker.checks.DEFAULT_SEED, tmp_path)
    assert runner.expected and all(runner.expected)
    for i, job in enumerate(runner.jobs):
        _, problems = runner.run(i)
        assert problems == [], job.name
