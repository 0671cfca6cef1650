"""Two-stage layer-selective tuning plus the ablation modes it is
compared against: single-stage union training, full fine-tuning, and the
per-layer sweep. A training mode is read, checked and planned here:
read_mode reads one from `train`'s flags or a `compare` row, and
stage_plan turns it into the trainable tensors of each stage.

Freezing contract: a training step touches exactly the tensors of the
stage's trainable set; everything else stays bit-identical. Embeddings
and the final norm gain train only in full fine-tuning. Each stage gets
a fresh optimizer state and a fresh warmup+cosine schedule over the same
dataset.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import ForgeError, NonFiniteInput, OverlappingStages
from .records import check_range, read_object
from .synth import EvalResult, EvalSet, evaluate
from .tinylm import (
    Batch,
    ModelParams,
    ParamKey,
    block_forward,
    embed,
    global_keys,
    layer_keys,
    loss_and_backward,
)


@dataclass(frozen=True)
class LayerSelection:
    stage1_layers: frozenset[int]
    stage2_layers: frozenset[int]
    n_layers: int  # of the model the layers were selected for


def select_layers(n_layers: int, k: int, m: int, skip=()) -> LayerSelection:
    """Resolve bottom-k / top-m index sets. k and m larger than the layer
    count select all layers from that end; the skip list is removed
    before the overlap check."""
    check_range("k", k, "[0, inf)")
    check_range("m", m, "[0, inf)")
    skip_set = frozenset(skip)
    for idx in skip_set:
        check_range("skip", idx, f"[0, {n_layers - 1}]")
    k = min(k, n_layers)
    m = min(m, n_layers)
    stage1 = frozenset(range(k)) - skip_set
    stage2 = frozenset(range(n_layers - m, n_layers)) - skip_set
    if stage1 & stage2:
        raise OverlappingStages(
            f"bottom-{k} and top-{m} overlap on layers {sorted(stage1 & stage2)}")
    return LayerSelection(stage1, stage2, n_layers)


@dataclass
class TrainConfig:
    lr_max: float = 1e-5
    lr_min: float = 2e-6
    warmup_ratio: float = 0.03
    epochs: int = 1
    batch_size: int = 16
    grad_accum: int = 2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    seed: int = 0
    RANGES = {"lr_max": "[0, inf)", "lr_min": "[0, inf)", "warmup_ratio": "[0, 1)",
              "epochs": "[1, inf)", "batch_size": "[1, inf)", "grad_accum": "[1, inf)",
              "beta1": "[0, 1)", "beta2": "[0, 1)", "eps": "(0, inf)",
              "weight_decay": "[0, inf)", "seed": "[0, inf)"}

    def __post_init__(self):
        for name, interval in self.RANGES.items():
            check_range(name, getattr(self, name), interval)
        if self.lr_min > self.lr_max:
            raise ValueError("lr_min must be <= lr_max")


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Linear warmup to lr_max over ceil(warmup_ratio * total) steps,
    then cosine decay to exactly lr_min at the final step."""
    warmup = math.ceil(config.warmup_ratio * total_steps)
    if step < warmup:
        return config.lr_max * (step + 1) / warmup
    span = total_steps - warmup - 1
    if span <= 0:
        return config.lr_max
    progress = (step - warmup) / span
    return config.lr_min + 0.5 * (config.lr_max - config.lr_min) * (
        1.0 + math.cos(math.pi * progress))


@dataclass(frozen=True)
class TrainMode:
    kind: str  # "two-stage" | "single-stage" | "fft" | "single-layer"
    selection: LayerSelection | None = None
    layer: int | None = None

    @classmethod
    def two_stage(cls, selection: LayerSelection) -> "TrainMode":
        return cls("two-stage", selection=selection)

    @classmethod
    def single_stage(cls, selection: LayerSelection) -> "TrainMode":
        return cls("single-stage", selection=selection)

    @classmethod
    def full_finetune(cls) -> "TrainMode":
        return cls("fft")

    @classmethod
    def single_layer(cls, layer: int) -> "TrainMode":
        return cls("single-layer", layer=layer)


def stage_plan(mode: TrainMode, n_layers: int) -> list[tuple[str, set[ParamKey]]]:
    """Resolve a mode into (stage name, trainable parameter keys) pairs.
    A selection must have been made for a model of n_layers layers, a
    single-layer mode's layer must be one of the model's, and a plan must
    train some tensor; a stage may train none, and is then skipped."""
    def keys(layers) -> set[ParamKey]:
        return {key for layer in layers for key in layer_keys(layer)}

    sel = mode.selection
    if sel is not None and sel.n_layers != n_layers:
        raise ForgeError(f"{mode.kind} mode selects layers of a {sel.n_layers}-layer model, "
                         f"not of this {n_layers}-layer one")
    if mode.kind == "two-stage":
        plan = [("stage1", keys(sel.stage1_layers)), ("stage2", keys(sel.stage2_layers))]
    elif mode.kind == "single-stage":
        plan = [("single", keys(sel.stage1_layers | sel.stage2_layers))]
    elif mode.kind == "fft":
        plan = [("fft", keys(range(n_layers)) | set(global_keys()))]
    else:
        check_range("layer", mode.layer, f"[0, {n_layers - 1}]")
        plan = [(f"layer{mode.layer}", keys({mode.layer}))]
    if not any(trainable for _, trainable in plan):
        raise ForgeError(f"{mode.kind} mode trains no tensor")
    return plan


# The keys each training mode takes besides "mode", and their kinds. A
# selection's keys may be left out (k and m are then 0, and skip is
# empty); every other mode key is required.
_SELECTION_KINDS = {"k": int, "m": int, "skip": list[int]}
MODE_KINDS = {"two-stage": _SELECTION_KINDS, "single-stage": _SELECTION_KINDS,
              "fft": {}, "single-layer": {"layer": int}}


def read_mode(obj: dict, n_layers: int, source: str) -> TrainMode:
    """The one reader of a training mode, of `train --mode` and its flags
    and of a `compare` row: {"mode": name} and that mode's keys of
    MODE_KINDS. select_layers and stage_plan check the mode's numbers
    against n_layers, and stage_plan refuses a mode that trains no
    tensor; a fault is a ForgeError naming source."""
    try:
        name = obj.get("mode")
        if not isinstance(name, str) or name not in MODE_KINDS:
            raise ForgeError(f"unknown mode {name!r}")
        kinds = MODE_KINDS[name]
        selects = kinds is _SELECTION_KINDS
        read_object(obj, {"mode": str} | kinds, f"{name} mode", () if selects else kinds)
        selection = None
        if selects:
            selection = select_layers(n_layers, obj.get("k", 0), obj.get("m", 0),
                                      obj.get("skip", ()))
        mode = TrainMode(name, selection, obj.get("layer"))
        stage_plan(mode, n_layers)
        return mode
    except ForgeError as e:
        raise ForgeError(f"{source}: {e}") from e


class AdamState:
    """First/second moments, held only for the trainable tensors."""

    def __init__(self):
        self.m: dict[ParamKey, np.ndarray] = {}
        self.v: dict[ParamKey, np.ndarray] = {}
        self.t = 0


def optimizer_step(params: ModelParams, grads: dict[ParamKey, np.ndarray],
                   state: AdamState, trainable: set[ParamKey], lr: float,
                   config: TrainConfig) -> None:
    """One AdamW update restricted to the trainable keys; every other
    tensor is left bit-identical."""
    state.t += 1
    bc1 = 1.0 - config.beta1 ** state.t
    bc2 = 1.0 - config.beta2 ** state.t
    for key in params.keys():
        if key not in trainable:
            continue
        g = grads[key]
        if key not in state.m:
            state.m[key] = np.zeros_like(g)
            state.v[key] = np.zeros_like(g)
        m = state.m[key]
        v = state.v[key]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + config.eps)
        if config.weight_decay:
            update = update + config.weight_decay * params[key]
        params[key] -= (lr * update).astype(params[key].dtype)


@dataclass
class TrainResult:
    params: ModelParams
    log: list[dict] = field(default_factory=list)
    stage_params: dict[str, ModelParams] = field(default_factory=dict)
    wall_clock: float = 0.0


def _epoch_order(n_batches: int, seed: int, epoch: int) -> np.ndarray:
    return np.random.default_rng([seed, epoch]).permutation(n_batches)


def _check_finite(params: ModelParams, grads: dict[ParamKey, np.ndarray],
                  trainable: set[ParamKey], losses: list[float], stage: str, step: int) -> None:
    """Raise before an update that would write NaN or infinity into the
    parameters or the optimizer moments. Frozen tensors are never updated,
    so only the trainable gradients are checked."""
    if not np.isfinite(losses).all():
        raise NonFiniteInput(f"{stage} step {step}: non-finite loss {losses}")
    for key in params.keys():
        if key in trainable and not np.isfinite(grads[key]).all():
            raise NonFiniteInput(f"{stage} step {step}: non-finite gradient for {key}")


def _run_stage(params: ModelParams, batches: list[Batch], trainable: set[ParamKey],
               config: TrainConfig, stage: str, log: list[dict], boundary=None) -> None:
    steps_per_epoch = math.ceil(len(batches) / config.grad_accum)
    total_steps = config.epochs * steps_per_epoch
    state = AdamState()
    step = 0
    for epoch in range(config.epochs):
        order = _epoch_order(len(batches), config.seed, epoch)
        for start in range(0, len(order), config.grad_accum):
            window = order[start:start + config.grad_accum]
            acc: dict[ParamKey, np.ndarray] | None = None
            losses = []
            for idx in window:
                at = None if boundary is None else (boundary[0], boundary[1][int(idx)])
                loss, grads = loss_and_backward(params, batches[int(idx)], need=trainable,
                                                boundary=at)
                losses.append(loss)
                if acc is None:
                    acc = grads
                else:
                    for key in acc:
                        acc[key] += grads[key]
            for key in acc:
                acc[key] /= len(window)
            _check_finite(params, acc, trainable, losses, stage, step)
            lr = lr_at(step, total_steps, config)
            optimizer_step(params, acc, state, trainable, lr, config)
            log.append({"stage": stage, "step": step, "lr": lr,
                        "loss": float(np.mean(losses))})
            step += 1
    # a later step's loss would show a non-finite parameter; the last
    # update has no later step
    for key in params.keys():
        if key in trainable and not np.isfinite(params[key]).all():
            raise NonFiniteInput(f"{stage} step {step - 1}: the update made {key} non-finite")


def run(start_params: ModelParams, batches: list[Batch], mode: TrainMode,
        config: TrainConfig, boundary: tuple[int, list[np.ndarray]] | None = None
        ) -> TrainResult:
    """Train per the mode's stage plan. The caller's params are never
    mutated; each stage starts from the previous stage's output with a
    fresh optimizer and schedule over the same data order.

    A boundary (layer, xs) gives, for each batch, the residual stream
    entering block layer under start_params, and every forward pass
    starts there. No stage may train below that block, so it stays valid
    throughout; loss_and_backward rejects a stage that does before its
    first update."""
    t0 = time.monotonic()
    params = start_params.clone()
    result = TrainResult(params=params)
    # each non-finite value a step computes ends the run with a
    # NonFiniteInput, so numpy need not warn of it as well
    with np.errstate(all="ignore"):
        for stage, trainable in stage_plan(mode, params.config.n_layers):
            if not trainable:
                result.log.append({"stage": stage, "skipped": True})
            else:
                _run_stage(params, batches, trainable, config, stage, result.log, boundary)
            result.stage_params[stage] = params.clone()
    result.wall_clock = time.monotonic() - t0
    return result


@functools.cache
def _blas_set_threads() -> Callable[[int], int] | None:
    """The call that sets the thread count of the OpenBLAS that numpy's
    wheel bundles in numpy.libs, or None where there is no such library
    or it has no such symbol."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            return ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
    return None


def _worker(work: Callable, conn, parent_ends: list) -> None:
    """The body of a row worker process: run `work` on each args tuple
    received until a None arrives, and send back each row's result, or
    its error as a string, since not every ForgeError can be pickled.
    It first closes its copies of the parent's pipe ends, so that it
    sees EOF, and exits, if the parent dies, and gives its BLAS one
    thread, since the workers already run side by side."""
    for end in parent_ends:
        end.close()
    set_blas_threads = _blas_set_threads()
    if set_blas_threads is not None:
        set_blas_threads(1)
    while True:
        try:
            args = conn.recv()
        except (EOFError, OSError):  # the parent is gone
            return
        if args is None:
            return
        try:
            message = ("ok", work(*args))
        except ForgeError as e:
            message = ("forge", str(e))
        except Exception:
            message = ("crash", traceback.format_exc())
        # drop the row's inputs before it waits for the next ones
        del args
        conn.send(message)


def _start_worker(context, work: Callable, pool: dict):
    """Fork a worker that runs `work`, add it to `pool` and return its
    pipe end."""
    conn, child_end = context.Pipe()
    process = context.Process(target=_worker, args=(work, child_end, [conn, *pool]),
                              daemon=True)
    process.start()
    child_end.close()
    pool[conn] = process
    return conn


def _lost(label, process) -> ForgeError:
    process.join()
    return ForgeError(f"row {label}: its worker process ended without a result "
                      f"(exit code {process.exitcode})")


def _collect(pool: dict, busy: dict, results: dict) -> list:
    """Wait until at least one busy worker answers, store its row's
    result, and return the pipe ends of the workers that became idle.
    A row that failed, or whose worker ended without a result, raises an
    error naming the row."""
    idle = []
    for conn in wait(list(busy)):
        index, label = busy.pop(conn)
        try:
            message = conn.recv()
        except (EOFError, OSError):
            raise _lost(label, pool[conn]) from None
        if message[0] == "forge":
            raise ForgeError(f"row {label}: {message[1]}")
        if message[0] == "crash":
            raise RuntimeError(f"row {label} failed in its worker process:\n{message[1]}")
        results[index] = message[1]
        idle.append(conn)
    return idle


def run_rows(work: Callable, jobs: Iterable[tuple[object, tuple]], workers: int = 1) -> list:
    """Run `work(*args)` for each (label, args) of `jobs` and return the
    results in order. The jobs are taken from the iterable one at a
    time, so it can compute a job's inputs just before the job starts.

    With one worker every job runs in this process. With more, up to
    `workers` worker processes are forked, one the first time a job finds
    no idle worker, and each runs job after job, with one BLAS thread,
    until the jobs run out.
    A worker inherits `work` and what it refers to copy-on-write; only a
    job's args are pickled to it, and only its result comes back. The
    caller runs no other Python thread meanwhile, which fork needs. A
    ForgeError from a job is raised again as a ForgeError that names the
    row, however the job ran, as is a worker's death; after any error
    every worker is killed and reaped."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    if workers == 1:
        results = []
        for label, args in jobs:
            try:
                results.append(work(*args))
            except ForgeError as e:
                raise ForgeError(f"row {label}: {e}") from e
        return results
    context = multiprocessing.get_context("fork")
    _blas_set_threads()  # looked up once, here, before any worker is forked
    results: dict[int, object] = {}
    pool: dict = {}  # a worker's pipe end -> its process
    busy: dict = {}  # a busy worker's pipe end -> (index, label) of its row
    idle: list = []
    try:
        for index, (label, args) in enumerate(jobs):
            if not idle and len(pool) < workers:
                idle.append(_start_worker(context, work, pool))
            while not idle:
                idle += _collect(pool, busy, results)
            conn = idle.pop()
            try:
                conn.send(args)
            except OSError:  # the worker died while idle
                raise _lost(label, pool[conn]) from None
            busy[conn] = (index, label)
            # drop this reference before the iterable computes the next
            # job, so that the job's inputs can be freed here
            del args
        while busy:
            _collect(pool, busy, results)
        for conn in pool:
            with contextlib.suppress(OSError):  # it died idle, and lost no row
                conn.send(None)
    except BaseException:
        for process in pool.values():
            process.kill()
        raise
    finally:
        for conn, process in pool.items():
            process.join()
            conn.close()
    return [results[index] for index in range(len(results))]


@dataclass
class SweepRow:
    layer: int
    results: dict[str, EvalResult]


def _sweep_row(start_params: ModelParams, batches: list[Batch],
               eval_sets: dict[str, EvalSet], config: TrainConfig, layer: int,
               xs: list[np.ndarray]) -> SweepRow:
    res = run(start_params, batches, TrainMode.single_layer(layer), config, boundary=(layer, xs))
    return SweepRow(layer, {name: evaluate(res.params, es) for name, es in eval_sets.items()})


def single_layer_sweep(start_params: ModelParams, batches: list[Batch],
                       eval_sets: dict[str, EvalSet], config: TrainConfig,
                       workers: int = 1) -> list[SweepRow]:
    """Train each layer independently from the same start checkpoint and
    evaluate on the held-out sets. Rows come back ordered by layer and
    are independent of execution order; with `workers` > 1 they run in
    up to that many worker processes, forked once and reused for later
    rows (run_rows).

    Row l leaves the blocks below l at their start values, so the
    residual stream entering block l (the row's boundary) is the same in
    every row, and the row's forward passes start there. Rows start in
    layer order, and between rows the boundary moves up one block under
    the start parameters, while the rows already started train. This
    process holds at most two boundaries; each row's boundary is pickled
    to the worker that runs it."""
    model = start_params.config
    for batch in batches:
        batch.validate(model)

    def rows():
        xs = [embed(start_params, batch.ids) for batch in batches]
        for layer in range(model.n_layers):
            yield layer, (layer, xs)
            if layer + 1 < model.n_layers:
                xs = [block_forward(start_params, layer, x) for x in xs]

    work = functools.partial(_sweep_row, start_params, batches, eval_sets, config)
    return run_rows(work, rows(), workers)
