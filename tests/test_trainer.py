"""Trainer tests: layer selection, the warmup+cosine schedule, masked
AdamW, freezing soundness, stage isolation, and the sweep."""
import ctypes
import dataclasses
import math
import os
import signal
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from forge import trainer
from forge.errors import ForgeError, NonFiniteInput, OutOfRange, OverlappingStages
from forge.synth import (
    SynthLangSpec,
    evaluate,
    gen_general_corpus,
    gen_translation_corpus,
    make_batches,
)
from forge.tinylm import Batch, ModelConfig, global_keys, init, layer_keys
from forge.trainer import (
    AdamState,
    TrainConfig,
    TrainMode,
    lr_at,
    optimizer_step,
    run,
    select_layers,
    single_layer_sweep,
    stage_plan,
)

from helpers import child_pids, params_digest

CFG = ModelConfig(n_layers=4, d_model=32, n_heads=4, d_ff=64,
                  vocab_size=32, max_seq_len=24, init_seed=3)


def _small_batches(n=40, vocab=32, seed=0):
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(n // 4):
        ids = rng.integers(0, vocab, size=(4, 12))
        mask = np.zeros((4, 12), dtype=np.int64)
        mask[:, 6:] = 1
        batches.append(Batch(ids=ids, mask=mask))
    return batches


# ---------------------------------------------------------------------------
# select_layers

def test_select_layers_paper_configuration():
    sel = select_layers(36, 4, 15)
    assert sel.stage1_layers == frozenset(range(4))
    assert sel.stage2_layers == frozenset(range(21, 36))


def test_select_layers_skip_excluded():
    sel = select_layers(36, 0, 16, skip={20})
    assert sel.stage1_layers == frozenset()
    assert sel.stage2_layers == frozenset(range(21, 36))


def test_select_layers_overlap_rejected():
    with pytest.raises(OverlappingStages):
        select_layers(6, 4, 3)


def test_select_layers_skip_applied_before_overlap_check():
    # layers 0..3 and 3..5 collide on 3; skipping 3 resolves it
    sel = select_layers(6, 4, 3, skip={3})
    assert sel.stage1_layers == frozenset({0, 1, 2})
    assert sel.stage2_layers == frozenset({4, 5})


def test_select_layers_caps_oversized_requests():
    # requesting more layers than exist selects the whole end, which
    # collides with the other stage
    with pytest.raises(OverlappingStages):
        select_layers(8, 4, 15)


def test_select_layers_k_plus_m_equals_l_allowed():
    sel = select_layers(6, 3, 3)
    assert sel.stage1_layers | sel.stage2_layers == frozenset(range(6))


def test_select_layers_bad_skip_index():
    with pytest.raises(OutOfRange):
        select_layers(6, 1, 1, skip={6})


# ---------------------------------------------------------------------------
# lr schedule

PAPER = TrainConfig()  # lr 1e-5 -> 2e-6, warmup 0.03


@pytest.mark.parametrize("total", [10, 100, 1000])
def test_lr_endpoints_paper_defaults(total):
    warmup = math.ceil(PAPER.warmup_ratio * total)
    assert lr_at(warmup - 1, total, PAPER) == 1e-5
    assert lr_at(total - 1, total, PAPER) == 2e-6


def test_lr_midpoint_closed_form():
    config = TrainConfig(lr_max=1e-5, lr_min=2e-6, warmup_ratio=0.03)
    # total 100 -> warmup 3, cosine span indexes 3..99; step 51 is the midpoint
    assert abs(lr_at(51, 100, config) - 6.0e-6) < 1e-12


def test_lr_warmup_is_linear():
    config = TrainConfig(lr_max=1e-3, lr_min=1e-5, warmup_ratio=0.5)
    total = 10  # warmup 5 steps
    for step in range(5):
        assert abs(lr_at(step, total, config) - 1e-3 * (step + 1) / 5) < 1e-18


def test_lr_degenerate_cosine_span():
    config = TrainConfig(lr_max=1e-3, lr_min=1e-5, warmup_ratio=0.5)
    assert lr_at(1, 2, config) == 1e-3  # span = 0 -> lr_max


def test_lr_monotone_decay_after_warmup():
    total = 200
    values = [lr_at(s, total, PAPER) for s in range(total)]
    warmup = math.ceil(PAPER.warmup_ratio * total)
    decay = values[warmup:]
    assert all(a >= b for a, b in zip(decay, decay[1:]))


# ---------------------------------------------------------------------------
# optimizer step

def test_optimizer_step_empty_trainable_is_identity():
    params = init(CFG)
    before = params_digest(params)
    grads = {k: np.ones_like(params[k]) for k in params.keys()}
    optimizer_step(params, grads, AdamState(), set(), 1e-3, TrainConfig())
    assert params_digest(params) == before


def test_optimizer_step_first_step_magnitude():
    # hand-computed AdamW t=1 with m=v=0, g=1: delta = -lr / (1 + eps)
    params = init(CFG)
    key = (0, "attn_gain")
    params[key] = np.ones(1)
    grads = {key: np.ones(1)}
    config = TrainConfig(lr_max=1e-3)
    optimizer_step(params, grads, AdamState(), {key}, 1e-3, config)
    expected = 1.0 - 1e-3 / (1.0 + config.eps)
    assert abs(float(params[key][0]) - expected) < 1e-12


def test_optimizer_moments_only_for_trainable():
    params = init(CFG)
    grads = {k: np.ones_like(params[k]) for k in params.keys()}
    state = AdamState()
    trainable = set(layer_keys(0))
    optimizer_step(params, grads, state, trainable, 1e-3, TrainConfig())
    assert set(state.m.keys()) == trainable


def test_fft_changes_everything_with_nonzero_grads():
    params = init(CFG)
    before = params_digest(params)
    grads = {k: np.ones_like(params[k]) for k in params.keys()}
    trainable = set(params.keys())
    optimizer_step(params, grads, AdamState(), trainable, 1e-3, TrainConfig())
    after = params_digest(params)
    assert all(before[k] != after[k] for k in before)


# ---------------------------------------------------------------------------
# run modes and freezing

def _mode_trainables(mode):
    return stage_plan(mode, CFG.n_layers)


@pytest.mark.parametrize("mode_name", ["two-stage", "single-stage", "fft", "single-layer"])
def test_freezing_soundness_per_mode(mode_name):
    sel = select_layers(CFG.n_layers, 1, 1)
    mode = {
        "two-stage": TrainMode.two_stage(sel),
        "single-stage": TrainMode.single_stage(sel),
        "fft": TrainMode.full_finetune(),
        "single-layer": TrainMode.single_layer(2),
    }[mode_name]
    params = init(CFG)
    start = params_digest(params)
    batches = _small_batches(n=8)
    config = TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=1, batch_size=4,
                         grad_accum=2, seed=5)
    result = run(params, batches, mode, config)
    for stage, trainable in stage_plan(mode, CFG.n_layers):
        stage_digest = params_digest(result.stage_params[stage])
        frozen = set(params.keys()) - trainable
        # within one stage, frozen tensors never move relative to the
        # stage's input; for stage1 that input is the start checkpoint
        if stage in ("stage1", "single", "fft") or stage.startswith("layer"):
            for key in frozen:
                assert stage_digest[key] == start[key], (stage, key)


def test_two_stage_isolation_and_middle_layers_frozen():
    sel = select_layers(CFG.n_layers, 1, 1)  # stage1={0}, stage2={3}
    params = init(CFG)
    start = params_digest(params)
    batches = _small_batches(n=8)
    config = TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=1, batch_size=4, seed=5)
    result = run(params, batches, TrainMode.two_stage(sel), config)

    after_stage1 = params_digest(result.stage_params["stage1"])
    after_stage2 = params_digest(result.stage_params["stage2"])
    # stage 1 touches only layer 0
    for key in set(params.keys()) - set(layer_keys(0)):
        assert after_stage1[key] == start[key]
    assert any(after_stage1[key] != start[key] for key in layer_keys(0))
    # stage 2 starts from stage-1 output and never revisits stage-1 layers
    for key in layer_keys(0):
        assert after_stage2[key] == after_stage1[key]
    # middle layers and globals identical to the start checkpoint
    for layer in (1, 2):
        for key in layer_keys(layer):
            assert after_stage2[key] == start[key]
    for key in global_keys():
        assert after_stage2[key] == start[key]


def test_two_stage_k0_skips_stage1():
    sel = select_layers(CFG.n_layers, 0, 2)
    params = init(CFG)
    start = params_digest(params)
    batches = _small_batches(n=8)
    config = TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=1, batch_size=4, seed=5)
    result = run(params, batches, TrainMode.two_stage(sel), config)
    skip_entries = [e for e in result.log if e.get("skipped")]
    assert len(skip_entries) == 1 and skip_entries[0]["stage"] == "stage1"
    assert params_digest(result.stage_params["stage1"]) == start


def test_run_refuses_a_mode_that_trains_no_tensor():
    mode = TrainMode.two_stage(select_layers(CFG.n_layers, 0, 0))
    with pytest.raises(ForgeError, match="^two-stage mode trains no tensor$"):
        run(init(CFG), _small_batches(n=8), mode, TrainConfig())


@pytest.mark.parametrize("kind", ["two-stage", "single-stage"])
def test_run_refuses_a_selection_made_for_another_model_before_any_step(monkeypatch, kind):
    # bottom-1/top-2 of six layers, run on a two-layer model: stage 1's
    # layer 0 exists there, stage 2's layers 4 and 5 do not
    def no_step(*args, **kwargs):
        raise AssertionError("trained a stage of a mode made for another model")
    monkeypatch.setattr(trainer, "loss_and_backward", no_step)
    params = init(dataclasses.replace(CFG, n_layers=2))
    start = params_digest(params)
    mode = TrainMode(kind, select_layers(6, 1, 2))
    with pytest.raises(ForgeError, match=f"^{kind} mode selects layers of a 6-layer model, "
                                         "not of this 2-layer one$"):
        run(params, _small_batches(n=8), mode, TrainConfig())
    assert params_digest(params) == start


def test_run_does_not_mutate_caller_params():
    params = init(CFG)
    before = params_digest(params)
    run(params, _small_batches(n=8), TrainMode.full_finetune(),
        TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=1, batch_size=4, seed=5))
    assert params_digest(params) == before


def test_run_deterministic():
    batches = _small_batches(n=12)
    config = TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=2, batch_size=4, seed=9)
    r1 = run(init(CFG), batches, TrainMode.full_finetune(), config)
    r2 = run(init(CFG), batches, TrainMode.full_finetune(), config)
    assert params_digest(r1.params) == params_digest(r2.params)
    assert [e.get("loss") for e in r1.log] == [e.get("loss") for e in r2.log]


def test_two_stage_and_single_stage_share_data_order():
    batches = _small_batches(n=12)
    sel = select_layers(CFG.n_layers, 1, 1)
    config = TrainConfig(lr_max=1e-4, lr_min=1e-5, epochs=1, batch_size=4, seed=9)
    two = run(init(CFG), batches, TrainMode.two_stage(sel), config)
    one = run(init(CFG), batches, TrainMode.single_stage(sel), config)
    # identical seeds visit identical batch order: the first optimizer
    # step of stage1 and of the single stage see the same windows, so the
    # initial losses (computed on the same start params) coincide
    first_two = next(e for e in two.log if "loss" in e)
    first_one = next(e for e in one.log if "loss" in e)
    assert first_two["loss"] == first_one["loss"]
    steps_two = [e for e in two.log if e.get("stage") == "stage1"]
    steps_one = [e for e in one.log if e.get("stage") == "single"]
    assert len(steps_two) == len(steps_one)


def test_run_log_contract():
    batches = _small_batches(n=8)
    config = TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=1, batch_size=4,
                         grad_accum=2, seed=5)
    result = run(init(CFG), batches, TrainMode.full_finetune(), config)
    steps = [e for e in result.log if "loss" in e]
    assert [e["step"] for e in steps] == list(range(len(steps)))
    assert all(np.isfinite(e["loss"]) and e["lr"] > 0 for e in steps)
    assert result.wall_clock >= 0


def test_nan_loss_fails_the_stage_before_the_update():
    start = init(CFG)
    start[(0, "W_1")][0, 0] = np.nan  # frozen in stage 2, but every loss is NaN
    sel = select_layers(CFG.n_layers, 0, 1)
    with pytest.raises(NonFiniteInput, match=r"stage2.*step 0.*loss"):
        run(start, _small_batches(n=8), TrainMode.two_stage(sel),
            TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=1, batch_size=4, seed=5))


def _loss_and_backward_with(bad_key, value):
    real = trainer.loss_and_backward

    def patched(params, batch, **kwargs):
        loss, grads = real(params, batch, **kwargs)
        # a frozen key is outside the needed set, so it is added here
        grads[bad_key] = np.full_like(params[bad_key], value)
        return loss, grads
    return patched


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_trainable_gradient_fails_the_step(monkeypatch, value):
    monkeypatch.setattr(trainer, "loss_and_backward", _loss_and_backward_with((2, "W_V"), value))
    with pytest.raises(NonFiniteInput, match=r"layer2 step 0.*\(2, 'W_V'\)"):
        run(init(CFG), _small_batches(n=8), TrainMode.single_layer(2),
            TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=1, batch_size=4, seed=5))


def test_non_finite_frozen_gradient_is_ignored(monkeypatch):
    monkeypatch.setattr(trainer, "loss_and_backward", _loss_and_backward_with((1, "W_V"), np.nan))
    result = run(init(CFG), _small_batches(n=8), TrainMode.single_layer(2),
                 TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=1, batch_size=4, seed=5))
    assert all(np.isfinite(result.params[key]).all() for key in result.params.keys())


def test_a_last_update_that_overflows_fails_the_stage():
    # the update of the stage's one step overflows float32, and no later
    # step's loss would show it
    with pytest.raises(NonFiniteInput, match=r"layer2 step 0: the update made \(2, 'attn_gain'\)"):
        run(init(CFG), _small_batches(n=4), TrainMode.single_layer(2),
            TrainConfig(lr_max=1e300, lr_min=0, warmup_ratio=0, epochs=1, batch_size=4))


# ---------------------------------------------------------------------------
# sweep

@pytest.fixture(scope="module")
def sweep_inputs():
    spec = SynthLangSpec(vocab_size=32, perm_seed=2, min_len=3, max_len=5)
    train, tr_eval = gen_translation_corpus(spec, 60, seed=4)
    _, gen_eval = gen_general_corpus(60, seed=5, vocab_size=32)
    batches = make_batches(train, 8)
    eval_sets = {"translation": tr_eval, "general": gen_eval}
    return batches, eval_sets


def test_sweep_row_count_and_start_isolation(sweep_inputs):
    batches, eval_sets = sweep_inputs
    params = init(CFG)
    before = params_digest(params)
    config = TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=1, batch_size=8, seed=7)
    rows = single_layer_sweep(params, batches, eval_sets, config)
    assert [r.layer for r in rows] == list(range(CFG.n_layers))
    assert params_digest(params) == before
    for row in rows:
        assert set(row.results) == {"translation", "general"}


def test_sweep_order_independent(sweep_inputs):
    batches, eval_sets = sweep_inputs
    params = init(CFG)
    config = TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=1, batch_size=8, seed=7)
    serial = single_layer_sweep(params, batches, eval_sets, config, workers=1)
    parallel = single_layer_sweep(params, batches, eval_sets, config, workers=4)
    for a, b in zip(serial, parallel):
        assert a.layer == b.layer
        for name in a.results:
            assert a.results[name] == b.results[name]


def _sweep_config():
    return TrainConfig(lr_max=1e-3, lr_min=1e-4, epochs=1, batch_size=8, grad_accum=2, seed=7)


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_sweep_rows_equal_run_plus_evaluate(sweep_inputs, workers):
    """Each row, which trains from a shared boundary, equals a plain
    run of its layer followed by evaluate, with more row processes than
    CPUs and with more workers than rows."""
    batches, eval_sets = sweep_inputs
    params = init(CFG)
    before = child_pids()
    rows = single_layer_sweep(params, batches, eval_sets, _sweep_config(), workers=workers)
    assert child_pids() == before
    assert [row.layer for row in rows] == list(range(CFG.n_layers))
    for row in rows:
        result = run(params, batches, TrainMode.single_layer(row.layer), _sweep_config())
        assert row.results == {name: evaluate(result.params, es)
                               for name, es in eval_sets.items()}, row.layer


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_keeps_at_most_workers_plus_one_boundaries(sweep_inputs, monkeypatch, workers):
    batches, eval_sets = sweep_inputs
    alive, peak = [0], [0]
    lock = threading.Lock()

    def release():
        with lock:
            alive[0] -= 1

    def counted(fn):
        def wrapper(*args, **kwargs):
            x = fn(*args, **kwargs)
            with lock:
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
            weakref.finalize(x, release)
            return x
        return wrapper
    monkeypatch.setattr(trainer, "embed", counted(trainer.embed))
    monkeypatch.setattr(trainer, "block_forward", counted(trainer.block_forward))
    single_layer_sweep(init(CFG), batches, eval_sets, _sweep_config(), workers=workers)
    assert 0 < peak[0] <= (workers + 1) * len(batches)


def _failing_row(monkeypatch, layer, fail):
    """Make row `layer` of a sweep call `fail` in place of training, and
    row 0, when it runs in a worker process, wait a minute first: a
    failure must stop it, not wait for it."""
    test_process = os.getpid()
    real_run = trainer.run

    def patched(start, batches, mode, config, boundary=None):
        if mode.layer == layer:
            fail()
        if mode.layer == 0 and os.getpid() != test_process:
            time.sleep(60)
        return real_run(start, batches, mode, config, boundary)
    monkeypatch.setattr(trainer, "run", patched)


def _sweep_error(sweep_inputs, workers, expected):
    batches, eval_sets = sweep_inputs
    before = child_pids()
    t0 = time.monotonic()
    with pytest.raises(expected) as caught:
        single_layer_sweep(init(CFG), batches, eval_sets, _sweep_config(), workers=workers)
    assert time.monotonic() - t0 < 30
    assert child_pids() == before
    return str(caught.value)


def test_sweep_row_forge_error_names_the_row_however_rows_run(sweep_inputs, monkeypatch):
    def fail():
        raise NonFiniteInput("non-finite loss in the test")
    _failing_row(monkeypatch, 2, fail)
    messages = [_sweep_error(sweep_inputs, workers, ForgeError) for workers in (1, 2)]
    assert messages == ["row 2: non-finite loss in the test"] * 2


def test_sweep_row_whose_process_dies_is_an_error_naming_the_row(sweep_inputs, monkeypatch):
    test_process = os.getpid()

    def die():
        if os.getpid() != test_process:
            os.kill(os.getpid(), signal.SIGKILL)
    _failing_row(monkeypatch, 1, die)
    message = _sweep_error(sweep_inputs, 2, ForgeError)
    assert message.startswith("row 1: its worker process ended without a result"), message
    assert str(-signal.SIGKILL) in message


def test_sweep_row_crash_carries_the_worker_traceback(sweep_inputs, monkeypatch):
    def crash():
        raise KeyError("lost key")
    _failing_row(monkeypatch, 1, crash)
    message = _sweep_error(sweep_inputs, 2, RuntimeError)
    assert message.startswith("row 1 failed in its worker process"), message
    assert "Traceback" in message and "KeyError: 'lost key'" in message


def test_run_rows_takes_at_least_one_worker():
    with pytest.raises(ValueError, match="at least 1"):
        trainer.run_rows(len, [], workers=0)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_rows_reuses_its_workers(workers):
    before = child_pids()
    pids = trainer.run_rows(os.getpid, ((i, ()) for i in range(8)), workers)
    assert child_pids() == before
    if workers == 1:
        assert set(pids) == {os.getpid()}
    else:
        assert len(set(pids)) <= workers and os.getpid() not in pids


def test_a_row_worker_runs_one_blas_thread():
    # workers run side by side, so each one's BLAS gets one thread, and
    # this process keeps its own count
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"))
    if not libs:
        pytest.skip("this numpy bundles no OpenBLAS")
    get_threads = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
    before = get_threads()
    assert trainer.run_rows(get_threads, [("a", ()), ("b", ())], workers=2) == [1, 1]
    assert get_threads() == before


def test_run_rows_worker_that_died_while_idle_is_an_error_naming_a_row():
    """The jobs kill both workers once they have answered their rows, so
    the next job is sent to a dead worker."""
    before = child_pids()

    def jobs():
        yield 0, ()
        yield 1, ()
        time.sleep(0.5)
        for pid in child_pids() - before:
            os.kill(pid, signal.SIGKILL)
            # wait for its death, but leave the reaping to run_rows
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        yield 2, ()
        yield 3, ()
    t0 = time.monotonic()
    with pytest.raises(ForgeError, match=r"^row \d: its worker process ended without a result "
                                         rf"\(exit code {-signal.SIGKILL}\)$"):
        trainer.run_rows(os.getpid, jobs(), workers=2)
    assert time.monotonic() - t0 < 30
    assert child_pids() == before


def test_run_rejects_a_boundary_below_a_trained_layer(sweep_inputs):
    batches, _ = sweep_inputs
    params = init(CFG)
    xs = [trainer.block_forward(params, 0, trainer.embed(params, b.ids)) for b in batches]
    with pytest.raises(ValueError, match="below the boundary"):
        run(params, batches, TrainMode.single_layer(0), _sweep_config(), boundary=(1, xs))
    with pytest.raises(ValueError, match="below the boundary"):
        run(params, batches, TrainMode.full_finetune(), _sweep_config(), boundary=(1, xs))
