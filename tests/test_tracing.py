"""The benchmark against the program: every forge name the benchmark's
code reads, and every function its tracer wraps where callers look it
up, must exist, so a rename or deletion in `src/` that would break a
benchmark run, even one only its checks or its traced runs reach, fails
here."""
import ast
import importlib.util
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_MODULES = ("tinylm", "synth", "trainer", "refinery", "sensitivity", "scorers", "records")
_PATH = _BENCH / "tracing.py"
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


def test_every_forge_attribute_the_benchmark_reads_exists():
    read = set()
    for path in sorted(_BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in _MODULES):
                read.add((path.name, node.value.id, node.attr))
    assert read
    missing = [(name, module, attr) for name, module, attr in sorted(read)
               if not hasattr(importlib.import_module(f"forge.{module}"), attr)]
    assert not missing
