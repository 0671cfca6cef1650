"""The seeded reference experiment shared by the acceptance criteria.

One pretrained "instruct analog" start model (general task), then
two-stage layer-selective tuning and full fine-tuning on the same
translation corpus. Built once per test session; everything downstream
is deterministic given the seeds below. The two tunings start from the
same model and do not depend on each other, so they run through
`run_rows`, as `forge compare` runs its rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from forge.synth import (
    EvalSet,
    SynthLangSpec,
    evaluate,
    gen_general_corpus,
    gen_translation_corpus,
    make_batches,
)
from forge.tinylm import ModelConfig, ModelParams, init
from forge.trainer import TrainConfig, TrainMode, TrainResult, run, run_rows, select_layers

REF_MODEL = ModelConfig(n_layers=8, d_model=64, n_heads=4, d_ff=256,
                        vocab_size=64, max_seq_len=32, init_seed=1234)
REF_SPEC = SynthLangSpec(vocab_size=64, perm_seed=5, min_len=4, max_len=8)
GENERAL_SEED = 11
TRANSLATION_SEED = 12
CORPUS_N = 3000
BATCH_SIZE = 8

PRETRAIN = dict(lr_max=1e-2, lr_min=1e-3, warmup_ratio=0.03, epochs=8,
                batch_size=BATCH_SIZE, grad_accum=1, seed=21)
TUNE = dict(lr_max=1e-3, lr_min=1e-4, warmup_ratio=0.03, epochs=1,
            batch_size=BATCH_SIZE, grad_accum=1, seed=33)
BOTTOM_K = 2
TOP_M = 3
TUNING_WORKERS = 2


@dataclass
class ReferenceBundle:
    start: ModelParams
    initial: ModelParams
    two_stage: TrainResult
    fft: TrainResult
    translation_eval: EvalSet
    general_eval: EvalSet
    translation_batches: list
    evals: dict  # (run, task) -> EvalResult


@lru_cache(maxsize=1)
def build_reference() -> ReferenceBundle:
    general_train, general_eval = gen_general_corpus(
        CORPUS_N, seed=GENERAL_SEED, vocab_size=REF_MODEL.vocab_size)
    translation_train, translation_eval = gen_translation_corpus(
        REF_SPEC, CORPUS_N, seed=TRANSLATION_SEED)

    initial = init(REF_MODEL)
    start = run(initial, make_batches(general_train, BATCH_SIZE),
                TrainMode.full_finetune(), TrainConfig(**PRETRAIN)).params

    translation_batches = make_batches(translation_train, BATCH_SIZE)
    selection = select_layers(REF_MODEL.n_layers, BOTTOM_K, TOP_M)
    two_stage, fft = run_rows(
        partial(run, start, translation_batches),
        [("two_stage", (TrainMode.two_stage(selection), TrainConfig(**TUNE))),
         ("fft", (TrainMode.full_finetune(), TrainConfig(**TUNE)))], TUNING_WORKERS)

    evals = {}
    for run_name, params in (("start", start), ("two_stage", two_stage.params),
                             ("fft", fft.params)):
        evals[(run_name, "translation")] = evaluate(params, translation_eval)
        evals[(run_name, "general")] = evaluate(params, general_eval)

    return ReferenceBundle(
        start=start, initial=initial, two_stage=two_stage, fft=fft,
        translation_eval=translation_eval, general_eval=general_eval,
        translation_batches=translation_batches, evals=evals)
