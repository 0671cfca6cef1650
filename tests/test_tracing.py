"""The benchmark's tracer against the program: every function it wraps
must exist where its callers look it up, so a rename in `src/` that
would break a traced benchmark run fails here."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def _current():
    return [getattr(tracing._resolve(path), attr) for path, attr, _, _ in tracing.TARGETS]


def test_tracer_wraps_every_target_and_restores_it():
    originals = _current()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = _current()
    finally:
        tracer.restore()
    assert len(wrapped) == len(tracing.TARGETS) > 0
    for target, original, now in zip(tracing.TARGETS, originals, wrapped):
        assert now is not original and now.__wrapped__ is original, target
    assert all(now is original for now, original in zip(_current(), originals))
