"""Traced runs: spans around every call into the layers' public functions.

The tracer patches each function where its callers look it up. A module
that did `from .tinylm import loss_and_backward` holds its own reference,
so `forge.trainer.loss_and_backward` and `forge.sensitivity.loss_and_backward`
are wrapped as well as `forge.tinylm.loss_and_backward`; `evaluate`
resolves `forward`, `greedy_decode` and `make_batches` through
`forge.synth`, and `run_pipeline` resolves its stages and `tokenize`
through `forge.refinery`. Spans stay in memory; `layer_metrics` turns
them into the per-layer metrics listed in `PER_LAYER`.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time

# (metric, unit, better): the per-layer metrics of a traced run, in the
# order BENCHMARK.json lists them.
_SCALARS = [
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("bench.reference_ms", "ms", "lower"),
    ("two_stage_tokens_per_s", "tokens/s", "higher"),
    ("fft_tokens_per_s", "tokens/s", "higher"),
    ("eval_samples_per_s", "samples/s", "higher"),
    ("refine_lines_per_s", "lines/s", "higher"),
    ("trainer.grad_elems_used_ratio", "ratio", "higher"),
    ("trainer.grad_elems_used_ratio.stage1", "ratio", "higher"),
    ("trainer.grad_elems_used_ratio.stage2", "ratio", "higher"),
    ("trainer.grad_elems_used_ratio.fft", "ratio", "higher"),
    ("trainer.grad_elems_used_ratio.layer", "ratio", "higher"),
    ("trainer.self_s", "s", "lower"),
    ("trainer.sweep_overlap", "ratio", "higher"),
    ("synth.evaluate_s", "s", "lower"),
    ("synth.ce_pass_s", "s", "lower"),
    ("synth.decode_s", "s", "lower"),
    ("sensitivity.backward_s", "s", "lower"),
    ("sensitivity.nuclear_norm_max_rel_err", "ratio", "lower"),
    ("refinery.clean_s", "s", "lower"),
    ("refinery.prefilter_s", "s", "lower"),
    ("refinery.dedup_s", "s", "lower"),
    ("refinery.langid_s", "s", "lower"),
    ("refinery.quality_s", "s", "lower"),
    ("refinery.format_s", "s", "lower"),
    ("records.tokenize_calls_per_record", "calls/record", "lower"),
    ("scorers.score_s", "s", "lower"),
    ("scorers.requests", "count", "lower"),
    ("scorers.us_per_request", "us", "lower"),
]

# Per-call timing families: (metric, unit, seconds->unit scale, calls metric).
_FAMILIES = [
    ("tinylm.loss_and_backward_ms", "ms", 1e3, "tinylm.loss_and_backward_calls"),
    ("tinylm.forward_ms", "ms", 1e3, "tinylm.forward_calls"),
    ("tinylm.decode_ms_per_token", "ms", 1e3, "tinylm.decode_calls"),
    ("tinylm.checkpoint_save_ms", "ms", 1e3, "tinylm.checkpoint_save_calls"),
    ("tinylm.checkpoint_load_ms", "ms", 1e3, "tinylm.checkpoint_load_calls"),
    ("trainer.optimizer_step_ms", "ms", 1e3, "trainer.optimizer_step_calls"),
    ("trainer.sweep_row_s", "s", 1.0, "trainer.sweep_row_calls"),
    ("sensitivity.nuclear_norm_ms", "ms", 1e3, "sensitivity.nuclear_norm_calls"),
    ("refinery.record_signature_us", "us", 1e6, "refinery.record_signature_calls"),
    ("synth.make_batches_ms", "ms", 1e3, "synth.make_batches_calls"),
]

PER_LAYER: list[tuple[str, str, str]] = list(_SCALARS)
for _metric, _unit, _, _calls in _FAMILIES:
    PER_LAYER += [(_metric, _unit, "lower"), (f"{_metric}.tail", _unit, "lower"),
                  (f"{_metric}.tail_pct", "%", "higher"), (_calls, "count", "lower")]

_TAIL_LEVELS = (999, 990, 950, 900, 750)  # per mille


def percentile(values: list[float], permille: int) -> float:
    """Nearest-rank percentile; the level in per mille keeps the rank exact."""
    ordered = sorted(values)
    return ordered[max(-(-len(ordered) * permille // 1000) - 1, 0)]


def tail_level(n: int) -> int:
    """The highest tail level, in per mille, with at least ten samples
    beyond it; the median (500) when there are fewer than forty samples."""
    if n >= 40:
        for permille in _TAIL_LEVELS:
            if n - -(-n * permille // 1000) >= 10:
                return permille
    return 500


class Span:
    __slots__ = ("name", "parent", "thread", "phase", "info", "start", "end")

    def __init__(self, name, parent, thread, phase, info):
        self.name, self.parent, self.thread = name, parent, thread
        self.phase, self.info = phase, info
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _step_info(args, kwargs) -> dict:
    """Gradient elements an optimizer step applies, and those one backward
    pass computes, plus a label for the trainable set."""
    grads, trainable = args[1], args[3]
    layers = sorted({layer for layer, _ in trainable if layer is not None})
    if any(layer is None for layer, _ in trainable):
        label = "fft"
    elif len(layers) == 1:
        label = "layer"
    else:
        label = "stage1" if 0 in layers else "stage2"
    return {"applied": sum(grads[key].size for key in trainable),
            "computed": sum(g.size for g in grads.values()), "label": label}


# (module, attribute, span name, info): every place a caller looks up a
# layer function during a workload.
TARGETS = [
    ("forge.tinylm", "loss_and_backward", "loss_and_backward", None),
    ("forge.trainer", "loss_and_backward", "loss_and_backward", None),
    ("forge.sensitivity", "loss_and_backward", "loss_and_backward", None),
    ("forge.tinylm", "save_checkpoint", "save_checkpoint", None),
    ("forge.tinylm", "load_checkpoint", "load_checkpoint", None),
    ("forge.trainer", "run", "trainer.run", None),
    ("forge.trainer", "optimizer_step", "optimizer_step", _step_info),
    ("forge.trainer", "single_layer_sweep", "single_layer_sweep", None),
    ("forge.trainer", "evaluate", "evaluate", None),
    ("forge.synth", "evaluate", "evaluate", None),
    ("forge.synth", "forward", "ce_forward", None),
    ("forge.synth", "greedy_decode", "greedy_decode", lambda a, k: {"tokens": a[2]}),
    ("forge.synth", "make_batches", "make_batches", None),
    ("forge.sensitivity", "layer_gradient_report", "layer_gradient_report", None),
    ("forge.sensitivity", "nuclear_norm", "nuclear_norm", None),
    ("forge.refinery", "run_pipeline", "run_pipeline", None),
    ("forge.refinery", "clean_record", "clean_record", None),
    ("forge.refinery", "prefilter", "prefilter", None),
    ("forge.refinery", "dedup_by_pair", "dedup_by_pair", None),
    ("forge.refinery", "record_signature", "record_signature", None),
    ("forge.refinery", "langid_filter", "langid_filter", None),
    ("forge.refinery", "score_losses", "score_losses", None),
    ("forge.refinery", "compute_thresholds", "compute_thresholds", None),
    ("forge.refinery", "quality_filter", "quality_filter", None),
    ("forge.refinery", "format_instruction", "format_instruction", None),
    ("forge.refinery", "tokenize", "tokenize", None),
    ("forge.scorers:SubprocessScorer", "score", "score", lambda a, k: {"requests": len(a[1])}),
    ("forge.scorers:SidecarScorer", "score", "score", lambda a, k: {"requests": len(a[1])}),
]


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Patches the targets on `install`, puts them back on `restore`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for path, attr, name, info in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, info))
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = Span(name, stack[-1] if stack else None, threading.get_ident(),
                        self.phase, info(args, kwargs) if info else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
        return traced


def _family(values: list[float], scale: float, calls: float) -> list[float]:
    if not values:
        return [0.0, 0.0, 0.0, calls]
    level = tail_level(len(values))
    median = statistics.median(values)
    tail = median if level == 500 else percentile(values, level)
    return [median * scale, tail * scale, level / 10.0, calls]


def _sweep_rows(spans: list[Span], main_thread: int) -> list[float]:
    """A sweep row, seen from outside, is a worker thread's `trainer.run`
    plus the `evaluate` calls that follow it on that thread."""
    by_thread: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is None and s.thread != main_thread and s.name in ("trainer.run", "evaluate"):
            by_thread.setdefault(s.thread, []).append(s)
    rows = []
    for thread_spans in by_thread.values():
        row = None
        for s in sorted(thread_spans, key=lambda s: s.start):
            if s.name == "trainer.run":
                if row is not None:
                    rows.append(row)
                row = 0.0
            if row is not None:
                row += s.duration
        if row is not None:
            rows.append(row)
    return rows


def layer_metrics(tracer: Tracer, rounds: int, setups: int, main_thread: int,
                  input_records: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `rounds` traced rounds; totals
    are per round. `input_records` is the records one round parses."""
    spans = [s for s in tracer.spans if s.phase == "round"]
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, parent=None):
        return [s for s in by_name.get(name, ())
                if parent is None or (s.parent is not None and s.parent.name == parent)]

    def total(name, parent=None):
        return sum(s.duration for s in named(name, parent)) / rounds

    out: dict[str, float] = {}
    steps = named("optimizer_step")
    # backward passes behind each optimizer step: those under the same
    # trainer.run since the previous step
    computed: dict[int, int] = {}
    under_run: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None and s.name in ("loss_and_backward", "optimizer_step"):
            under_run.setdefault(id(s.parent), []).append(s)
    for children in under_run.values():
        passes = 0
        for s in sorted(children, key=lambda s: s.start):
            if s.name == "loss_and_backward":
                passes += 1
            else:
                computed[id(s)] = s.info["computed"] * passes
                passes = 0
    for label in ("", ".stage1", ".stage2", ".fft", ".layer"):
        chosen = [s for s in steps if not label or s.info["label"] == label[1:]]
        done = sum(computed[id(s)] for s in chosen)
        applied = sum(s.info["applied"] for s in chosen)
        out[f"trainer.grad_elems_used_ratio{label}"] = applied / done if done else 0.0

    runs = named("trainer.run")
    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None and s.parent.name == "trainer.run":
            children[id(s.parent)] = children.get(id(s.parent), 0.0) + s.duration
    out["trainer.self_s"] = sum(s.duration - children.get(id(s), 0.0) for s in runs) / rounds
    rows = _sweep_rows(spans, main_thread)
    sweep_wall = total("single_layer_sweep")
    out["trainer.sweep_overlap"] = sum(rows) / rounds / sweep_wall if sweep_wall else 0.0

    evaluate_s = total("evaluate")
    decode_s = total("greedy_decode", parent="evaluate")
    out["synth.evaluate_s"] = evaluate_s
    out["synth.ce_pass_s"] = evaluate_s - decode_s
    out["synth.decode_s"] = decode_s
    out["sensitivity.backward_s"] = total("loss_and_backward", parent="layer_gradient_report")
    out["refinery.clean_s"] = total("clean_record")
    out["refinery.prefilter_s"] = total("prefilter")
    out["refinery.dedup_s"] = total("dedup_by_pair")
    out["refinery.langid_s"] = total("langid_filter")
    out["refinery.quality_s"] = sum(total(name, parent="run_pipeline") for name in (
        "score_losses", "compute_thresholds", "quality_filter"))
    out["refinery.format_s"] = total("format_instruction")
    tokenize_calls = len(named("tokenize")) / rounds
    out["records.tokenize_calls_per_record"] = (tokenize_calls / input_records
                                                if input_records else 0.0)
    scores = named("score")
    score_s = sum(s.duration for s in scores) / rounds
    requests = sum(s.info["requests"] for s in scores) / rounds
    out["scorers.score_s"] = score_s
    out["scorers.requests"] = requests
    out["scorers.us_per_request"] = score_s / requests * 1e6 if requests else 0.0

    decode = [s.duration / s.info["tokens"] for s in by_name.get("greedy_decode", ())
              if s.info["tokens"]]
    setup_batches = [s.duration for s in tracer.spans
                     if s.phase == "setup" and s.name == "make_batches" and s.parent is None]
    samples = {
        "tinylm.loss_and_backward_ms": ([s.duration for s in named("loss_and_backward")], rounds),
        "tinylm.forward_ms": ([s.duration for s in named("ce_forward")], rounds),
        "tinylm.decode_ms_per_token": (decode, rounds),
        "tinylm.checkpoint_save_ms": ([s.duration for s in named("save_checkpoint")], rounds),
        "tinylm.checkpoint_load_ms": ([s.duration for s in named("load_checkpoint")], rounds),
        "trainer.optimizer_step_ms": ([s.duration for s in steps], rounds),
        "trainer.sweep_row_s": (rows, rounds),
        "sensitivity.nuclear_norm_ms": ([s.duration for s in named("nuclear_norm")], rounds),
        "refinery.record_signature_us": ([s.duration for s in named("record_signature")], rounds),
        "synth.make_batches_ms": (setup_batches, setups),
    }
    for metric, _unit, scale, calls in _FAMILIES:
        values, per = samples[metric]
        median, tail, level, n = _family(values, scale, len(values) / per)
        out[metric], out[f"{metric}.tail"], out[f"{metric}.tail_pct"], out[calls] = (
            median, tail, level, n)
    return out
