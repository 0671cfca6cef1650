"""Synthetic task generators, batching/masking, and evaluation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.records import ParallelRecord, write_records
from forge.synth import (
    PAD,
    RESERVED,
    SEP,
    TASK_CONTINUE,
    TASK_TRANSLATE,
    EvalSet,
    Sample,
    SynthLangSpec,
    apply_mapping,
    evaluate,
    gen_general_corpus,
    gen_translation_corpus,
    make_batches,
    record_to_sample,
    sample_to_record,
    read_samples,
    write_samples,
)
from forge.tinylm import ModelConfig, greedy_decode, init

from helpers import params_digest
from reference_run import build_reference

CFG = ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64,
                  vocab_size=32, max_seq_len=32, init_seed=1)


def test_identity_mapping_identity_reorder():
    spec = SynthLangSpec(vocab_size=16, perm_seed=0, reorder="identity")
    perm = np.arange(spec.n_content)
    assert apply_mapping(spec, [3, 5, 7], perm) == [3, 5, 7]


def test_reverse_reorder():
    spec = SynthLangSpec(vocab_size=16, perm_seed=0, reorder="reverse")
    perm = np.arange(spec.n_content)
    assert apply_mapping(spec, [3, 5, 7], perm) == [7, 5, 3]


def test_permutation_is_bijection():
    spec = SynthLangSpec(vocab_size=64, perm_seed=9)
    perm = spec.permutation()
    assert sorted(perm.tolist()) == list(range(spec.n_content))


def test_translation_corpus_deterministic():
    spec = SynthLangSpec(vocab_size=32, perm_seed=3, min_len=3, max_len=6)
    a_train, a_eval = gen_translation_corpus(spec, 200, seed=5)
    b_train, b_eval = gen_translation_corpus(spec, 200, seed=5)
    assert a_train == b_train
    assert a_eval.samples == b_eval.samples


def test_translation_corpus_split_disjoint():
    spec = SynthLangSpec(vocab_size=32, perm_seed=3, min_len=3, max_len=6)
    train, eval_set = gen_translation_corpus(spec, 400, seed=6)
    assert len(train) + len(eval_set.samples) == 400
    assert len(eval_set.samples) == round(0.05 * 400)
    train_prompts = {s.prompt for s in train}
    assert all(s.prompt not in train_prompts for s in eval_set.samples)
    # prompts are unique corpus-wide
    assert len(train_prompts) == len(train)


def test_translation_corpus_takes_every_source_its_spec_allows_and_no_more():
    # 2 content tokens at lengths 1 and 2 make 2 + 4 = 6 distinct sources
    spec = SynthLangSpec(vocab_size=6, min_len=1, max_len=2)
    train, eval_set = gen_translation_corpus(spec, 6, seed=3)
    assert len({s.prompt for s in train + eval_set.samples}) == 6
    with pytest.raises(ValueError) as err:
        gen_translation_corpus(spec, 7, seed=3)
    assert str(err.value) == "only 6 distinct sources exist"


def test_translation_sample_structure():
    spec = SynthLangSpec(vocab_size=32, perm_seed=3, min_len=4, max_len=8)
    train, _ = gen_translation_corpus(spec, 50, seed=7)
    perm = spec.permutation()
    for s in train:
        assert s.prompt[0] == TASK_TRANSLATE and s.prompt[-1] == SEP
        src = [t - RESERVED for t in s.prompt[1:-1]]
        assert 4 <= len(src) <= 8
        assert [t - RESERVED for t in s.response] == [int(perm[t]) for t in src]


def test_general_corpus_arithmetic():
    train, eval_set = gen_general_corpus(300, seed=8, vocab_size=32)
    mod = 32 - RESERVED
    for s in list(train)[:50] + list(eval_set.samples):
        assert s.prompt[0] == TASK_CONTINUE and s.prompt[-1] == SEP
        k, step, length = (t - RESERVED for t in s.prompt[1:4])
        assert len(s.response) == length
        expected = [(k + i * step) % mod for i in range(1, length + 1)]
        assert [t - RESERVED for t in s.response] == expected


def test_general_zero_step_constant():
    train, eval_set = gen_general_corpus(1500, seed=9, vocab_size=32)
    zero_step = [s for s in train if s.prompt[2] - RESERVED == 0]
    assert zero_step, "step 0 should occur"
    for s in zero_step[:10]:
        k = s.prompt[1] - RESERVED
        assert all(t - RESERVED == k for t in s.response)


def test_general_corpus_caps_unique_samples():
    with pytest.raises(ValueError):
        gen_general_corpus(10**9, seed=0, vocab_size=16)


def test_make_batches_mask_covers_exactly_response():
    spec = SynthLangSpec(vocab_size=32, perm_seed=3, min_len=3, max_len=6)
    train, _ = gen_translation_corpus(spec, 40, seed=10)
    batches = make_batches(train, 8)
    idx = 0
    for batch in batches:
        for row in range(batch.ids.shape[0]):
            s = train[idx]
            n_prompt, n_resp = len(s.prompt), len(s.response)
            mask = batch.mask[row]
            assert mask[:n_prompt].sum() == 0
            assert mask[n_prompt:n_prompt + n_resp].sum() == n_resp
            assert mask[n_prompt + n_resp:].sum() == 0  # padding unmasked
            assert np.all(batch.ids[row, n_prompt + n_resp:] == PAD)
            idx += 1
    assert idx == len(train)


def test_evaluate_read_only_and_shapes():
    spec = SynthLangSpec(vocab_size=32, perm_seed=3, min_len=3, max_len=5)
    _, eval_set = gen_translation_corpus(spec, 60, seed=11)
    params = init(CFG)
    before = params_digest(params)
    result = evaluate(params, eval_set)
    assert params_digest(params) == before
    assert result.sample_count == len(eval_set.samples)
    assert 0.0 <= result.exact_match <= 1.0
    assert result.mean_ce >= 0.0


def test_evaluate_untrained_model_near_uniform():
    spec = SynthLangSpec(vocab_size=32, perm_seed=3, min_len=4, max_len=6)
    _, eval_set = gen_translation_corpus(spec, 200, seed=12)
    params = init(CFG)
    result = evaluate(params, eval_set)
    assert abs(result.mean_ce - np.log(CFG.vocab_size)) < 0.35
    assert result.exact_match <= 0.05


def test_evaluate_memorized_sample_exact_match():
    # train a tiny model to memorize one sample, EM must reach 1.0
    from forge.trainer import AdamState, TrainConfig, optimizer_step
    from forge.tinylm import loss_and_backward

    sample = Sample(prompt=(TASK_TRANSLATE, 5, 6, SEP), response=(7, 8))
    batch = make_batches([sample], 1)[0]
    params = init(CFG)
    state = AdamState()
    config = TrainConfig(lr_max=5e-3)
    trainable = set(params.keys())
    for _ in range(300):
        loss, grads = loss_and_backward(params, batch)
        optimizer_step(params, grads, state, trainable, 5e-3, config)
    result = evaluate(params, EvalSet("memorize", [sample]))
    assert result.exact_match == 1.0
    assert result.mean_ce < 0.05


_MIXED = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16, vocab_size=10,
                     max_seq_len=12, init_seed=9)


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 6), st.booleans()),
                       min_size=1, max_size=12),
       batch_size=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_evaluate_decodes_mixed_lengths_like_the_reference(shapes, batch_size, seed):
    """Samples of mixed prompt and response lengths, batch_size at a time;
    a sample marked True gets the greedy decoder's own output as its
    response, so exact match is exercised both ways."""
    params = init(_MIXED)
    rng = np.random.default_rng(seed)
    samples = []
    for p, r, matching in shapes:
        prompt = tuple(int(t) for t in rng.integers(0, _MIXED.vocab_size, p))
        response = (greedy_decode(params, prompt, r) if matching
                    else rng.integers(0, _MIXED.vocab_size, r).tolist())
        samples.append(Sample(prompt=prompt, response=tuple(response)))
    want = [tuple(greedy_decode(params, s.prompt, len(s.response))) for s in samples]
    result = evaluate(params, EvalSet("mixed", samples), batch_size)
    matches = sum(w == s.response for w, s in zip(want, samples))
    assert result.exact_match == matches / len(samples)


def test_evaluate_runs_one_forward_per_batch_and_decodes_nothing(monkeypatch):
    import forge.synth
    import forge.tinylm

    spec = SynthLangSpec(vocab_size=32, perm_seed=3, min_len=3, max_len=5)
    _, eval_set = gen_translation_corpus(spec, 140, seed=11)
    calls = []
    real_forward = forge.synth.forward

    def counting_forward(*args, **kwargs):
        calls.append(kwargs.get("keep"))
        return real_forward(*args, **kwargs)

    def no_decode(*args, **kwargs):
        raise AssertionError("evaluate decoded")

    monkeypatch.setattr(forge.synth, "forward", counting_forward)
    monkeypatch.setattr(forge.tinylm, "greedy_decode", no_decode)
    monkeypatch.setattr(forge.synth, "greedy_decode", no_decode)
    evaluate(init(CFG), eval_set, batch_size=3)
    assert calls == [False] * len(make_batches(eval_set.samples, 3))


def test_evaluate_rejects_an_empty_prompt():
    samples = [Sample(prompt=(TASK_TRANSLATE, 5, SEP), response=(6,)),
               Sample(prompt=(), response=(5, 6))]
    with pytest.raises(ValueError, match="empty prompt"):
        evaluate(init(CFG), EvalSet("empty", samples))


def test_reference_models_match_their_own_greedy_decodes():
    """On every reference model and eval set, evaluate's exact match is
    the share of greedy decodes that equal the real responses; eval sets
    whose responses are the decodes are exact matches, and one changed
    token per sample makes every sample miss."""
    reference = build_reference()
    rng = np.random.default_rng(0)
    vocab = reference.start.config.vocab_size
    for params in (reference.start, reference.two_stage.params, reference.fft.params):
        for eval_set in (reference.translation_eval, reference.general_eval):
            decoded = [Sample(s.prompt, tuple(greedy_decode(
                params, s.prompt, len(s.response)))) for s in eval_set.samples]
            hits = sum(d == s for d, s in zip(decoded, eval_set.samples))
            assert evaluate(params, eval_set).exact_match == hits / len(decoded)
            assert evaluate(params, EvalSet("decoded", decoded)).exact_match == 1.0
            changed = []
            for s in decoded:
                response = list(s.response)
                i = int(rng.integers(len(response)))
                response[i] = (response[i] + int(rng.integers(1, vocab))) % vocab
                changed.append(Sample(s.prompt, tuple(response)))
            assert evaluate(params, EvalSet("changed", changed)).exact_match == 0.0


# ---------------------------------------------------------------------------
# record round trip

def test_sample_record_round_trip():
    spec = SynthLangSpec(vocab_size=32, perm_seed=3, min_len=3, max_len=6)
    train, _ = gen_translation_corpus(spec, 30, seed=13)
    for sample in train:
        record = sample_to_record(sample, spec)
        assert record.src != record.trg
        back = record_to_sample(record, spec.vocab_size)
        assert back == sample


def test_record_to_sample_rejects_foreign_tokens():
    record = ParallelRecord("qaa", "qab", "hello world", "t1 t2")
    with pytest.raises(ValueError):
        record_to_sample(record, 32)
    record = ParallelRecord("qaa", "qab", "t1 t99", "t1 t2")
    with pytest.raises(ValueError):
        record_to_sample(record, 32)


def test_write_read_samples_round_trip(tmp_path):
    spec = SynthLangSpec(vocab_size=32, perm_seed=3, min_len=3, max_len=6)
    train, _ = gen_translation_corpus(spec, 25, seed=14)
    path = tmp_path / "samples.jsonl"
    write_samples(train, path)
    assert read_samples(path, spec.vocab_size) == train


@pytest.mark.parametrize("text", ["", "\n", " \n\r\n\t\n"])
def test_empty_or_blank_data_file_holds_no_samples(tmp_path, text):
    path = tmp_path / "samples.jsonl"
    path.write_text(text, encoding="utf-8")
    assert read_samples(path, 32) == []


@settings(max_examples=30, deadline=None)
@given(vocab_size=st.integers(8, 40), perm_seed=st.integers(0, 9),
       reorder=st.sampled_from(["identity", "reverse"]), n=st.integers(2, 30),
       seed=st.integers(0, 2**16))
def test_samples_read_back_alike_as_token_samples_or_records(
        tmp_path_factory, vocab_size, perm_seed, reorder, n, seed):
    # the first object decides the format; both formats give the same samples
    spec = SynthLangSpec(vocab_size=vocab_size, perm_seed=perm_seed, reorder=reorder,
                         min_len=1, max_len=5)
    train, eval_set = gen_translation_corpus(spec, n, seed)
    samples = train + eval_set.samples
    root = tmp_path_factory.mktemp("round_trip")
    write_samples(samples, root / "samples.jsonl")
    with open(root / "records.jsonl", "w", encoding="utf-8") as f:
        write_records((sample_to_record(s, spec) for s in samples), f)
    assert read_samples(root / "samples.jsonl", vocab_size) == samples
    assert read_samples(root / "records.jsonl", vocab_size) == samples
