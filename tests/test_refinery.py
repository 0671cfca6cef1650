"""Refinery stage tests: cleaning, prefilter, SimHash dedup (against the
brute-force oracle), thresholds, template formatting, and the full
pipeline on the golden fixture."""
import io
import json
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forge.errors import EmptyDevSet, EmptyTemplatePool
from forge.records import ParallelRecord, write_records
from forge.refinery import (
    DEFAULT_TEMPLATES,
    DropReason,
    RefineryConfig,
    band_keys,
    clean_text,
    dedup,
    fnv1a64,
    format_instruction,
    hamming,
    langid_filter,
    prefilter,
    quality_filter,
    quality_threshold,
    record_signature,
    run_pipeline,
    signatures,
    simhash64,
    template_hash,
)
from forge.scorers import ScoreResponse, Scorer

from helpers import (
    brute_force_dedup,
    clean_text_reference,
    fnv1a64_reference,
    inject_duplicates,
    random_corpus,
    simhash64_reference,
)

VOCAB = [f"w{i:03d}" for i in range(500)]


# ---------------------------------------------------------------------------
# clean_text

def test_clean_control_chars():
    assert clean_text("a\u0000b") == "ab"
    assert clean_text("a\u009fb") == "ab"
    assert clean_text("a\ufffdb") == "ab"


def test_clean_whitespace_collapse():
    assert clean_text("  a   b  ") == "a b"
    assert clean_text("a\tb\nc") == "a b c"


def test_clean_nfd_becomes_nfc():
    nfd = unicodedata.normalize("NFD", "café")
    assert clean_text(nfd) == unicodedata.normalize("NFC", "café")
    assert clean_text(nfd).encode() == "café".encode()


@settings(max_examples=300)
@given(st.text(max_size=60))
def test_clean_idempotent(text):
    once = clean_text(text)
    assert clean_text(once) == once


# any character, plus the ones cleaning drops or keeps at the class edges:
# C0 (tab and newline kept), DEL, C1, U+FFFD and lone surrogates
_DIRTY_TEXT = st.text(alphabet=st.one_of(
    st.characters(),
    st.integers(0x00, 0xA0).map(chr),
    st.integers(0xD800, 0xDFFF).map(chr),
    st.sampled_from("\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\ufffd\ufffc\ufffe\u3000\u0301e\u00e9 "),
), max_size=80)


@settings(max_examples=500)
@given(_DIRTY_TEXT)
# \x0b, \x0c, \x1c-\x1f and \x85 are whitespace to str.split but dropped
# before it; \xa0 is whitespace and kept until the collapse
@example("a\ud83d\ude00b\x7f\x9f\t\n\x0bc\ufffd\x1f\xa0d\x1ce\x0cf\x85g")
def test_clean_text_matches_reference(text):
    assert clean_text(text) == clean_text_reference(text)


# ---------------------------------------------------------------------------
# prefilter

def _rec(src_line, tgt_line, src="en", trg="de", seq=0):
    return ParallelRecord(src, trg, src_line, tgt_line, seq=seq)


def test_prefilter_too_short():
    config = RefineryConfig()
    assert prefilter(_rec("one", "a b c d e"), config) is DropReason.TOO_SHORT
    assert prefilter(_rec("a b", "x y"), config) is None


def test_prefilter_length_mismatch():
    config = RefineryConfig()
    ten = " ".join(VOCAB[:10])
    assert prefilter(_rec(ten, "a b"), config) is DropReason.LENGTH_MISMATCH  # 0.2
    # exactly 0.3 is not "less than"
    assert prefilter(_rec(ten, "a b c"), config) is None


def test_prefilter_uses_per_character_tokens_for_zh():
    config = RefineryConfig()
    # two chars = two tokens even without spaces
    assert prefilter(_rec("你好", "hi there", src="zh", trg="en"), config) is None
    assert prefilter(_rec("你", "hi there", src="zh", trg="en"), config) is DropReason.TOO_SHORT


# ---------------------------------------------------------------------------
# simhash

def test_fnv1a64_pinned_vectors():
    # golden values from the published FNV-1a test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@settings(max_examples=100)
@given(st.binary(max_size=64))
def test_fnv1a64_matches_reference(data):
    assert fnv1a64(data) == fnv1a64_reference(data)


def test_simhash_empty_is_zero():
    assert simhash64([]) == 0


def test_simhash_single_token_equals_fnv():
    assert simhash64(["a"]) == fnv1a64(b"a")
    d = hamming(simhash64(["a"]), simhash64(["b"]))
    assert d == (fnv1a64(b"a") ^ fnv1a64(b"b")).bit_count()


_TOKENS = st.one_of(st.sampled_from(["a", "b", "ä", "中", "😀", "x" * 1500, "€" * 400]),
                    st.text(min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_TOKENS, max_size=40), max_size=12))
@example([[], ["a"], ["a", "b"], ["a"] * 300, ["a", "b"] * 200, [], ["€" * 400, "中"]])
def test_signatures_match_reference(token_lists):
    # ["a", "b"] ties on every bit where the two hashes differ; ["a"] * 300
    # overflows an int8 accumulator
    assert signatures(token_lists) == [simhash64_reference(t) for t in token_lists]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.lists(_TOKENS, max_size=20), max_size=6), max_size=5))
def test_signatures_with_a_shared_hash_table_match_reference(blocks):
    # one table across blocks, as dedup passes it: a token met in an
    # earlier block is looked up, not rehashed, and the table holds the
    # FNV-1a hash of every token seen so far
    known: dict[str, int] = {}
    for token_lists in blocks:
        assert signatures(token_lists, known) == [simhash64_reference(t) for t in token_lists]
    seen = {tok for token_lists in blocks for tokens in token_lists for tok in tokens}
    assert known == {tok: fnv1a64_reference(tok.encode("utf-8")) for tok in seen}


def test_dedup_hashes_each_distinct_token_once(monkeypatch):
    from forge import refinery

    calls = []

    def counting_fnv1a64(data):
        calls.append(data)
        return fnv1a64(data)
    monkeypatch.setattr(refinery, "fnv1a64", counting_fnv1a64)
    config = RefineryConfig()
    records = [_rec(" ".join(VOCAB[i % 40:i % 40 + 8]), " ".join(VOCAB[i % 30:i % 30 + 8]),
                    seq=i) for i in range(600)]  # crosses two block boundaries
    dedup(records, config)
    assert len(calls) == len(set(calls))
    assert len(calls) == len({tok for r in records for tok in refinery.record_tokens(r, config)})


def _band_keys_scalar(signature, radius):
    n_bands = min(max(radius + 1, 1), 64)
    base, rem = divmod(64, n_bands)
    keys = []
    offset = 0
    for i in range(n_bands):
        width = base + (1 if i < rem else 0)
        keys.append((signature >> offset) & ((1 << width) - 1))
        offset += width
    return keys


@settings(max_examples=50)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=16))
@example([0, 2**64 - 1, 2**63, 1])
def test_band_keys_match_scalar_split(sigs):
    for radius in range(64):
        keys = band_keys(sigs, radius)
        assert keys.shape == (len(sigs), radius + 1)
        assert keys.tolist() == [_band_keys_scalar(s, radius) for s in sigs]


def test_simhash_deterministic_and_order_independent():
    tokens = ["x", "y", "z", "y"]
    assert simhash64(tokens) == simhash64(list(reversed(tokens)))
    assert simhash64(tokens) == simhash64(tokens)


# ---------------------------------------------------------------------------
# dedup

def test_dedup_exact_duplicate_dropped():
    config = RefineryConfig()
    a = _rec(" ".join(VOCAB[:8]), " ".join(VOCAB[8:16]), seq=0)
    b = _rec(" ".join(VOCAB[:8]), " ".join(VOCAB[8:16]), seq=1)
    kept, dropped = dedup([a, b], config)
    assert [r.seq for r in kept] == [0]
    assert dropped == 1


def _distance1_variants(base_tokens, want, config):
    """Find `want` one-token substitutions whose signatures sit at
    hamming distance exactly 1 from the base, each flipping a different
    bit (so they are pairwise at distance 2)."""
    base_sig = simhash64(base_tokens)
    variants = []
    used_bits = set()
    for pos in range(len(base_tokens)):
        for w in VOCAB:
            if w in base_tokens:
                continue
            tokens = list(base_tokens)
            tokens[pos] = w
            sig = simhash64(tokens)
            diff = base_sig ^ sig
            if diff.bit_count() == 1 and (diff.bit_length() - 1) not in used_bits:
                used_bits.add(diff.bit_length() - 1)
                variants.append(tokens)
                if len(variants) == want:
                    return variants
    raise AssertionError("search failed; loosen the corpus parameters")


def _cluster_records(n_variants):
    rng = np.random.default_rng(99)
    base_src = [VOCAB[int(i)] for i in rng.choice(len(VOCAB), 20, replace=False)]
    base_tgt = [VOCAB[int(i)] for i in rng.choice(len(VOCAB), 20, replace=False)]
    config = RefineryConfig()
    variants = _distance1_variants(base_src + base_tgt, n_variants, config)
    records = [_rec(" ".join(base_src), " ".join(base_tgt), seq=0)]
    for i, tokens in enumerate(variants):
        records.append(_rec(" ".join(tokens[:20]), " ".join(tokens[20:]), seq=i + 1))
    return records, config


def test_dedup_two_conflicts_kept_three_dropped():
    # candidate conflicting with exactly 2 kept records survives
    records, config = _cluster_records(3)
    kept, dropped = dedup(records[:3], config)
    assert len(kept) == 3 and dropped == 0
    # with 3 conflicting kept records the fourth is dropped
    kept, dropped = dedup(records, config)
    assert [r.seq for r in kept] == [0, 1, 2]
    assert dropped == 1


def test_dedup_all_distinct_kept():
    rng = np.random.default_rng(5)
    records = random_corpus(rng, 100, VOCAB)
    sigs = [record_signature(r, RefineryConfig()) for r in records]
    config = RefineryConfig()
    for i in range(len(sigs)):
        for j in range(i + 1, len(sigs)):
            assert hamming(sigs[i], sigs[j]) > config.hamming_radius
    kept, dropped = dedup(records, config)
    assert len(kept) == 100 and dropped == 0


@pytest.mark.parametrize("trial", range(8))
def test_dedup_matches_brute_force_oracle(trial):
    rng = np.random.default_rng(1000 + trial)
    records = random_corpus(rng, int(rng.integers(20, 300)), VOCAB)
    records = inject_duplicates(rng, records, VOCAB,
                                n_exact=int(rng.integers(0, 30)),
                                n_near=int(rng.integers(0, 30)))
    config = RefineryConfig()
    kept, dropped = dedup(records, config)
    kept_oracle, dropped_oracle = brute_force_dedup(records, config)
    assert [r.seq for r in kept] == [r.seq for r in kept_oracle]
    assert dropped == dropped_oracle


_WORDS = st.sampled_from([f"w{i}" for i in range(12)] + ["ä", "ß", "中文", "😀"])


@settings(max_examples=30, deadline=None)
@given(pool=st.lists(st.tuples(st.lists(_WORDS, min_size=1, max_size=6),
                               st.lists(_WORDS, min_size=1, max_size=6)),
                     min_size=1, max_size=40),
       n_records=st.integers(0, 700), seed=st.integers(0, 2**16),
       radius=st.integers(0, 8), max_conflicts=st.integers(0, 3))
def test_dedup_matches_reference_scan(pool, n_records, seed, radius, max_conflicts):
    """Up to 700 records drawn from a small pool of short pairs: exact
    duplicates and near neighbours are common, and runs cross blocks."""
    picks = np.random.default_rng(seed).integers(0, len(pool), n_records)
    records = [_rec(" ".join(pool[i][0]), " ".join(pool[i][1]), seq=seq)
               for seq, i in enumerate(picks.tolist())]
    config = RefineryConfig(hamming_radius=radius, max_conflicts=max_conflicts)
    ref_sigs = [simhash64_reference(src + tgt) for src, tgt in pool]
    kept_sigs, expect = [], []
    for seq, i in enumerate(picks.tolist()):
        sig = ref_sigs[i]
        near = [s for s in kept_sigs if (s ^ sig).bit_count() <= radius]
        if sig in near or len(near) > max_conflicts:
            continue
        kept_sigs.append(sig)
        expect.append(seq)
    kept, dropped = dedup(records, config)
    assert [r.seq for r in kept] == expect
    assert dropped == n_records - len(expect)


def test_dedup_preserves_order():
    rng = np.random.default_rng(17)
    records = inject_duplicates(rng, random_corpus(rng, 120, VOCAB), VOCAB, 20, 20)
    kept, _ = dedup(records, RefineryConfig())
    seqs = [r.seq for r in kept]
    assert seqs == sorted(seqs)


# ---------------------------------------------------------------------------
# langid

class StubScorer(Scorer):
    def __init__(self, responder):
        self.responder = responder

    def score(self, requests):
        return [self.responder(r) for r in requests]


def test_langid_keep_and_drop():
    config = RefineryConfig()
    records = [
        _rec("good text here", "guter text hier", seq=0),
        _rec("bonjour le monde", "guter text hier", seq=1),   # wrong src lang
        _rec("low confidence text", "guter text hier", seq=2),  # low prob
    ]

    def responder(req):
        if req.id == 2:  # src of seq 1
            return ScoreResponse(id=req.id, lang="fr", prob=0.97)
        if req.id == 4:  # src of seq 2
            return ScoreResponse(id=req.id, lang="en", prob=0.4)
        lang = "en" if req.id % 2 == 0 else "de"
        return ScoreResponse(id=req.id, lang=lang, prob=0.99)

    kept, dropped = langid_filter(records, StubScorer(responder), config)
    assert [r.seq for r in kept] == [0]
    assert dropped == 2


# ---------------------------------------------------------------------------
# quality threshold and filter

def test_quality_threshold_nearest_rank():
    assert quality_threshold(list(range(1, 11)), 0.9) == 9
    assert quality_threshold([3.0] * 7, 0.9) == 3.0
    assert quality_threshold([42.0], 0.9) == 42.0


def test_quality_threshold_empty():
    with pytest.raises(EmptyDevSet):
        quality_threshold([], 0.9)


@settings(max_examples=300)
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200),
       st.floats(min_value=0.01, max_value=0.99))
def test_quality_threshold_bounds_exceedance(losses, percentile):
    tau = quality_threshold(losses, percentile)
    frac_above = sum(1 for x in losses if x > tau) / len(losses)
    assert frac_above <= 1 - percentile + 1e-12
    assert tau in losses


def test_quality_filter_boundary_is_kept():
    records = [_rec("a b", "c d", seq=i) for i in range(3)]
    thresholds = {("en", "de"): 9.0}
    kept, dropped = quality_filter(records, [9.0, 9.0 + 1e-9, 8.0], thresholds)
    assert [r.seq for r in kept] == [0, 2]
    assert dropped == 1


def test_quality_stub_scorer_drops_exactly_longest():
    # stub loss = target token count; dev losses 1..10 -> tau 9
    config = RefineryConfig()
    records = [_rec("a b c", " ".join(VOCAB[:n]), seq=n - 1) for n in range(1, 11)]
    losses = [float(len(r.tgt_line.split())) for r in records]
    tau = quality_threshold(list(range(1, 11)), config.quality_percentile)
    kept, dropped = quality_filter(records, losses, {("en", "de"): tau})
    assert dropped == 1
    assert all(len(r.tgt_line.split()) <= 9 for r in kept)


# ---------------------------------------------------------------------------
# instruction formatting

def test_format_single_template():
    record = _rec("hello world", "hallo welt", seq=7)
    sample = format_instruction(record, ("Say {src_text} in {tgt_lang_name}",), 0)
    assert sample.instruction == "Say hello world in German"
    assert sample.response == "hallo welt"
    assert sample.template_id == 0


def test_format_contains_source_verbatim():
    record = _rec("the exact source line", "x y", seq=3)
    for seed in range(5):
        sample = format_instruction(record, DEFAULT_TEMPLATES, seed)
        assert "the exact source line" in sample.instruction
        assert sample.response == "x y"


def test_format_deterministic():
    record = _rec("a b", "c d", seq=12345)
    one = format_instruction(record, DEFAULT_TEMPLATES, 42)
    two = format_instruction(record, DEFAULT_TEMPLATES, 42)
    assert one == two


def test_format_empty_pool():
    with pytest.raises(EmptyTemplatePool):
        format_instruction(_rec("a", "b"), (), 0)


def test_template_choice_roughly_uniform():
    from scipy import stats

    pool = len(DEFAULT_TEMPLATES)
    for seed in (0, 7, 123456789):
        counts = [0] * pool
        for seq in range(10_000):
            counts[template_hash(seed, seq) % pool] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.001, f"template choice non-uniform for seed {seed}"


def test_seed_change_reshuffles_assignment():
    pool = DEFAULT_TEMPLATES
    ids_a = [format_instruction(_rec("a b", "c", seq=i), pool, 1).template_id
             for i in range(200)]
    ids_b = [format_instruction(_rec("a b", "c", seq=i), pool, 2).template_id
             for i in range(200)]
    assert ids_a != ids_b


# ---------------------------------------------------------------------------
# full pipeline on the golden fixture

def test_pipeline_empty_input():
    result = run_pipeline([], RefineryConfig())
    assert result.records == [] and result.samples == []
    assert result.report.check_accounting(0)


def test_pipeline_golden_fixture_counts(fixture_bundle, fixture_scorers):
    result = run_pipeline(
        fixture_bundle.lines, RefineryConfig(),
        langid_scorer=fixture_scorers["langid"],
        quality_scorer=fixture_scorers["quality"],
        dev_records=fixture_scorers["dev_records"],
        dev_scorer=fixture_scorers["dev"],
    )
    report = json.loads(result.report.to_json())
    for stage, expect in fixture_bundle.expected_stages.items():
        assert report["stages"][stage] == expect, stage
    assert report["malformed_lines"] == fixture_bundle.expected_malformed
    assert report["thresholds"] == fixture_bundle.expected_thresholds
    assert result.report.check_accounting(990)


def test_pipeline_deterministic_across_reruns(fixture_bundle, make_fixture_scorers):
    outputs = []
    for _ in range(3):
        scorers = make_fixture_scorers()
        result = run_pipeline(
            fixture_bundle.lines, RefineryConfig(),
            langid_scorer=scorers["langid"],
            quality_scorer=scorers["quality"],
            dev_records=scorers["dev_records"],
            dev_scorer=scorers["dev"],
        )
        buf = io.StringIO()
        write_records(result.records, buf)
        sample_text = "\n".join(s.to_json() for s in result.samples)
        outputs.append((buf.getvalue(), sample_text, result.report.to_json()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_pipeline_idempotent_on_refined_output(fixture_bundle, fixture_scorers):
    first = run_pipeline(
        fixture_bundle.lines, RefineryConfig(),
        langid_scorer=fixture_scorers["langid"],
        quality_scorer=fixture_scorers["quality"],
        dev_records=fixture_scorers["dev_records"],
        dev_scorer=fixture_scorers["dev"],
    )
    buf = io.StringIO()
    write_records(first.records, buf)
    second = run_pipeline(io.StringIO(buf.getvalue()), RefineryConfig())
    for stage in ("clean", "prefilter", "dedup"):
        assert second.report.stages[stage].dropped == 0, stage
    assert len(second.records) == len(first.records)


def test_pipeline_preserves_seq_order(fixture_bundle, fixture_scorers):
    result = run_pipeline(
        fixture_bundle.lines, RefineryConfig(),
        langid_scorer=fixture_scorers["langid"],
        quality_scorer=fixture_scorers["quality"],
        dev_records=fixture_scorers["dev_records"],
        dev_scorer=fixture_scorers["dev"],
    )
    seqs = [r.seq for r in result.records]
    assert seqs == sorted(seqs)


def test_pipeline_strict_mode_aborts_on_malformed(fixture_bundle):
    config = RefineryConfig(strict=True)
    with pytest.raises(Exception):
        run_pipeline(fixture_bundle.lines, config)
