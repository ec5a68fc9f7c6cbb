"""The benchmark's tracer still finds every function it wraps, the band
route still gives the benchmark's reference `check` output, `analyze`
still gives its reference `level-small` documents and drawings, and the
library route still gives the reference `sublevel-large` bars.

bench/tracing.py wraps named functions in the levelpers modules from
outside; a target that moves or is renamed is reported as absent, and
its per-layer metrics silently read 0.
"""

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
