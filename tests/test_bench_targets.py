"""The benchmark's tracer still finds every function it wraps.

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
