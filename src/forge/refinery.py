"""Six-step parallel-corpus refinement pipeline.

clean -> prefilter -> SimHash dedup -> language-ID filter -> quality
filter -> instruction formatting, with deterministic output and
per-stage kept/dropped accounting. Stages drop records, never reorder
them: kept records always preserve input seq order.
"""
from __future__ import annotations

import json
import math
import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyDevSet, EmptyTemplatePool, MalformedLine
from .records import (
    CHARACTER_SPLIT_LANGS,
    InstructionSample,
    ParallelRecord,
    check_range,
    read_records,
    tokenization_mode,
    tokenize,
)
from .scorers import Scorer, langid_request, quality_request

STAGES = ("clean", "prefilter", "dedup", "langid", "quality", "format")

_U64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class DropReason(Enum):
    TOO_SHORT = "too_short"
    LENGTH_MISMATCH = "length_mismatch"


@dataclass
class RefineryConfig:
    min_tokens: int = 2
    min_len_ratio: float = 0.3
    hamming_radius: int = 3
    max_conflicts: int = 2
    quality_percentile: float = 0.90
    langid_min_prob: float = 0.5
    template_seed: int = 0
    strict: bool = False
    char_split_langs: tuple[str, ...] = tuple(sorted(CHARACTER_SPLIT_LANGS))
    # hamming_radius lies below the 64 bits of a signature
    RANGES = {"min_tokens": "[1, inf)", "min_len_ratio": "(0, 1]",
              "hamming_radius": "[0, 64)", "max_conflicts": "[0, inf)",
              "quality_percentile": "(0, 1)", "langid_min_prob": "[0, 1]",
              "template_seed": "[0, inf)"}

    def __post_init__(self):
        for name, interval in self.RANGES.items():
            check_range(name, getattr(self, name), interval)


@dataclass
class StageCount:
    kept: int = 0
    dropped: int = 0


@dataclass
class RefineryReport:
    stages: dict[str, StageCount] = field(
        default_factory=lambda: {name: StageCount() for name in STAGES})
    malformed_lines: int = 0
    thresholds: dict[str, float] = field(default_factory=dict)
    skipped_stages: list[str] = field(default_factory=list)

    def record_stage(self, name: str, kept: int, dropped: int) -> None:
        self.stages[name] = StageCount(kept=kept, dropped=dropped)

    def check_accounting(self, n_input: int) -> bool:
        """kept_i + dropped_i must equal kept_{i-1} for every stage."""
        prev = n_input
        for name in STAGES:
            count = self.stages[name]
            if count.kept + count.dropped != prev:
                return False
            prev = count.kept
        return True

    def to_json(self) -> str:
        obj = {
            "stages": {name: {"kept": c.kept, "dropped": c.dropped}
                       for name, c in self.stages.items()},
            "malformed_lines": self.malformed_lines,
            "thresholds": self.thresholds,
            "skipped_stages": self.skipped_stages,
        }
        return json.dumps(obj, ensure_ascii=False, indent=2)


# ---------------------------------------------------------------------------
# Step 2: cleaning

# C0 except tab and newline, DEL, C1, U+FFFD and lone surrogates
_DROPPED_CHARS = re.compile(r"[\x00-\x08\x0b-\x1f\x7f-\x9f\ufffd\ud800-\udfff]")


def clean_text(text: str) -> str:
    """Normalize to NFC, strip control characters and replacement chars,
    collapse whitespace runs to single spaces, trim. Idempotent."""
    text = _DROPPED_CHARS.sub("", unicodedata.normalize("NFC", text))
    return " ".join(text.split())


def clean_record(record: ParallelRecord) -> ParallelRecord:
    record.src_line = clean_text(record.src_line)
    record.tgt_line = clean_text(record.tgt_line)
    return record


# ---------------------------------------------------------------------------
# Step 3a: prefilter on token counts

def side_tokens(record: ParallelRecord, config: RefineryConfig) -> tuple[list[str], list[str]]:
    table = set(config.char_split_langs)
    src_mode = tokenization_mode(record.src, table)
    tgt_mode = tokenization_mode(record.trg, table)
    return tokenize(record.src_line, src_mode), tokenize(record.tgt_line, tgt_mode)


def prefilter(record: ParallelRecord, config: RefineryConfig) -> DropReason | None:
    """None to keep; a DropReason for too-short or length-mismatched pairs."""
    src_tokens, tgt_tokens = side_tokens(record, config)
    ls, lt = len(src_tokens), len(tgt_tokens)
    if ls < config.min_tokens or lt < config.min_tokens:
        return DropReason.TOO_SHORT
    if min(ls, lt) / max(ls, lt) < config.min_len_ratio:
        return DropReason.LENGTH_MISMATCH
    return None


# ---------------------------------------------------------------------------
# Step 3b: SimHash dedup

def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; fixed so signatures are reproducible everywhere."""
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _U64
    return h


def signatures(token_lists: Sequence[Sequence[str]],
               known: dict[str, int] | None = None) -> list[int]:
    """Classic 64-bit SimHash of each token multiset (ties round to 0).

    Each distinct token of the batch is hashed once, and not at all if
    `known` (token -> fnv1a64 hash, extended here) already holds it; a
    record's bit accumulator is the exact integer sum of its tokens'
    +1/-1 bit rows. An empty token list signs to 0.
    """
    index: dict[str, int] = {}
    occurrences = [index.setdefault(tok, len(index))
                   for tokens in token_lists for tok in tokens]
    sigs = np.zeros(len(token_lists), dtype=np.uint64)
    if not occurrences:
        return sigs.tolist()
    if known is None:
        known = {}
    for tok in index:
        if tok not in known:
            known[tok] = fnv1a64(tok.encode("utf-8"))
    hashes = np.array([known[tok] for tok in index], dtype="<u8")
    rows = np.unpackbits(hashes.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little").view(np.int8)
    rows *= 2
    rows -= 1
    lengths = np.array([len(tokens) for tokens in token_lists])
    nonempty = np.flatnonzero(lengths)
    starts = (np.cumsum(lengths) - lengths)[nonempty]
    acc = np.add.reduceat(rows[occurrences], starts, axis=0, dtype=np.int32)
    sigs[nonempty] = np.packbits(acc > 0, axis=1, bitorder="little").view("<u8").ravel()
    return sigs.tolist()


def simhash64(tokens: Sequence[str]) -> int:
    """Classic 64-bit SimHash over a token multiset (ties round to 0)."""
    return signatures([tokens])[0]


def record_tokens(record: ParallelRecord, config: RefineryConfig) -> list[str]:
    """The token multiset a record is signed over: source then target."""
    src_tokens, tgt_tokens = side_tokens(record, config)
    return src_tokens + tgt_tokens


def record_signature(record: ParallelRecord, config: RefineryConfig) -> int:
    return simhash64(record_tokens(record, config))


def hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def band_keys(sigs: Sequence[int] | np.ndarray, radius: int) -> np.ndarray:
    """Split each 64-bit signature into radius+1 bands (4x16 bits at the
    default radius 3); row i holds the band values of signature i. Two
    signatures within the radius share a band value in some column."""
    n_bands = min(max(radius + 1, 1), 64)
    base, rem = divmod(64, n_bands)
    widths = np.array([base + (1 if i < rem else 0) for i in range(n_bands)], dtype=np.uint64)
    offsets = np.cumsum(widths) - widths
    masks = np.uint64(_U64) >> (np.uint64(64) - widths)
    column = np.asarray(sigs, dtype=np.uint64).reshape(-1, 1)
    return (column >> offsets) & masks


class SimHashIndex:
    """LSH-banded index over kept signatures for near-duplicate lookup.

    Callers pass each signature with its row of `band_keys`."""

    def __init__(self, radius: int):
        self.radius = radius
        self._buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def conflicts(self, signature: int, keys: Sequence[int]) -> list[tuple[int, int]]:
        """Distinct (entry_id, signature) pairs within the hamming radius."""
        seen: dict[int, int] = {}
        for band, key in enumerate(keys):
            for entry_id, other in self._buckets.get((band, key), ()):
                if entry_id not in seen and hamming(signature, other) <= self.radius:
                    seen[entry_id] = other
        return sorted(seen.items())

    def add(self, entry_id: int, signature: int, keys: Sequence[int]) -> None:
        for band, key in enumerate(keys):
            self._buckets.setdefault((band, key), []).append((entry_id, signature))


# Records tokenised and signed at a time. Bounds the memory of one
# `signatures` call whatever the pair size: its sum casts the block's
# occurrences x 64 rows to int32, 256 bytes per token occurrence.
_SIGN_BLOCK = 256


def dedup(records: Sequence[ParallelRecord], config: RefineryConfig
          ) -> tuple[list[ParallelRecord], int]:
    """Single forward pass over one language pair in seq order.

    An exact-signature duplicate of a kept record is always dropped
    (keep-first); otherwise a candidate is dropped iff it conflicts
    (hamming <= radius) with more than max_conflicts distinct kept
    records. Records are signed in blocks of `_SIGN_BLOCK` with
    `signatures`, which gives the same values as `record_signature`; the
    blocks share one table of token hashes, so each distinct token of the
    call is hashed once.
    Returns (kept records in input order, dropped count).
    """
    index = SimHashIndex(config.hamming_radius)
    known: dict[str, int] = {}
    kept: list[ParallelRecord] = []
    dropped = 0
    for start in range(0, len(records), _SIGN_BLOCK):
        block = records[start:start + _SIGN_BLOCK]
        sigs = signatures([record_tokens(r, config) for r in block], known)
        keys = band_keys(sigs, config.hamming_radius).tolist()
        for record, sig, sig_keys in zip(block, sigs, keys):
            conflicts = index.conflicts(sig, sig_keys)
            exact = any(other == sig for _, other in conflicts)
            if exact or len(conflicts) > config.max_conflicts:
                dropped += 1
                continue
            index.add(record.seq, sig, sig_keys)
            kept.append(record)
    return kept, dropped


def dedup_by_pair(records: Sequence[ParallelRecord], config: RefineryConfig
                  ) -> tuple[list[ParallelRecord], int]:
    """Dedup within each language pair; merged output keeps seq order."""
    by_pair: dict[tuple[str, str], list[ParallelRecord]] = {}
    for record in records:
        by_pair.setdefault(record.lang_pair(), []).append(record)
    kept_all: list[ParallelRecord] = []
    dropped = 0
    for pair_records in by_pair.values():
        kept, pair_dropped = dedup(pair_records, config)
        kept_all.extend(kept)
        dropped += pair_dropped
    kept_all.sort(key=lambda r: r.seq)
    return kept_all, dropped


# ---------------------------------------------------------------------------
# Step 4: language-ID filter

def langid_filter(records: Sequence[ParallelRecord], scorer: Scorer,
                  config: RefineryConfig
                  ) -> tuple[list[ParallelRecord], int]:
    """Keep records whose both sides are confidently in the declared
    language. Request ids: 2*seq for the source line, 2*seq+1 for the
    target line."""
    requests = []
    for record in records:
        requests.append(langid_request(2 * record.seq, record.src_line))
        requests.append(langid_request(2 * record.seq + 1, record.tgt_line))
    responses = {resp.id: resp for resp in scorer.score(requests)}
    kept = []
    dropped = 0
    for record in records:
        src_resp = responses[2 * record.seq]
        tgt_resp = responses[2 * record.seq + 1]
        ok = (src_resp.lang == record.src and tgt_resp.lang == record.trg
              and src_resp.prob >= config.langid_min_prob
              and tgt_resp.prob >= config.langid_min_prob)
        if ok:
            kept.append(record)
        else:
            dropped += 1
    return kept, dropped


# ---------------------------------------------------------------------------
# Step 5: quality filter

def quality_threshold(dev_losses: Sequence[float], percentile: float = 0.90) -> float:
    """Nearest-rank percentile of the dev losses: tau is always an
    observed loss and at least percentile*N dev samples have loss <= tau."""
    if not dev_losses:
        raise EmptyDevSet("quality threshold needs a non-empty dev loss list")
    ordered = sorted(dev_losses)
    idx = math.ceil(percentile * len(ordered)) - 1
    return ordered[idx]


def score_losses(records: Sequence[ParallelRecord], scorer: Scorer) -> list[float]:
    """Conditional loss per record via the quality protocol, ids = seq."""
    requests = [
        quality_request(r.seq, r.src, r.trg, r.src_line, r.tgt_line)
        for r in records
    ]
    responses = {resp.id: resp for resp in scorer.score(requests)}
    return [responses[r.seq].loss for r in records]


def quality_filter(records: Sequence[ParallelRecord], losses: Sequence[float],
                   thresholds: dict[tuple[str, str], float]
                   ) -> tuple[list[ParallelRecord], int]:
    """Keep records with loss <= tau of their language pair (strict >
    drops, so a loss exactly at tau survives)."""
    kept = []
    dropped = 0
    for record, loss in zip(records, losses):
        if loss <= thresholds[record.lang_pair()]:
            kept.append(record)
        else:
            dropped += 1
    return kept, dropped


# ---------------------------------------------------------------------------
# Step 6: instruction formatting

DEFAULT_TEMPLATES = (
    "Translate the following {src_lang_name} text into {tgt_lang_name}: {src_text}",
    "Please provide the {tgt_lang_name} translation of this {src_lang_name} sentence.\n{src_text}",
    "{src_text}\n\nRender the sentence above from {src_lang_name} into {tgt_lang_name}.",
    "What is the {tgt_lang_name} equivalent of the {src_lang_name} text \"{src_text}\"?",
    "Convert this {src_lang_name} passage to {tgt_lang_name}: {src_text}",
    "You are a professional translator. Translate from {src_lang_name} to {tgt_lang_name}.\nInput: {src_text}",
)

LANG_NAMES = {
    "ar": "Arabic", "bn": "Bengali", "cs": "Czech", "de": "German",
    "en": "English", "es": "Spanish", "fr": "French", "hu": "Hungarian",
    "ja": "Japanese", "ko": "Korean", "ru": "Russian", "sr": "Serbian",
    "sw": "Swahili", "te": "Telugu", "th": "Thai", "vi": "Vietnamese",
    "zh": "Chinese",
}


def lang_name(code: str) -> str:
    return LANG_NAMES.get(code, code)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _U64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def template_hash(seed: int, seq: int) -> int:
    """Deterministic 64-bit mix of (seed, seq) for template selection."""
    return _splitmix64((seed ^ _splitmix64(seq & _U64)) & _U64)


def format_instruction(record: ParallelRecord, templates: Sequence[str],
                       template_seed: int) -> InstructionSample:
    """Wrap a record in a deterministically chosen instruction template."""
    if not templates:
        raise EmptyTemplatePool("instruction formatting needs >= 1 template")
    template_id = template_hash(template_seed, record.seq) % len(templates)
    instruction = (templates[template_id]
                   .replace("{src_lang_name}", lang_name(record.src))
                   .replace("{tgt_lang_name}", lang_name(record.trg))
                   .replace("{src_text}", record.src_line))
    return InstructionSample(
        instruction=instruction,
        response=record.tgt_line,
        src=record.src,
        trg=record.trg,
        template_id=template_id,
    )


# ---------------------------------------------------------------------------
# Full pipeline

@dataclass
class RefineryResult:
    records: list[ParallelRecord]
    samples: list[InstructionSample]
    report: RefineryReport


def compute_thresholds(
    dev_records: Sequence[ParallelRecord],
    dev_losses: Sequence[float],
    percentile: float,
    corpus_pairs: Iterable[tuple[str, str]],
) -> dict[tuple[str, str], float]:
    """Per-pair nearest-rank thresholds; pairs without dev coverage fall
    back to the threshold over the pooled dev losses."""
    by_pair: dict[tuple[str, str], list[float]] = {}
    for record, loss in zip(dev_records, dev_losses):
        by_pair.setdefault(record.lang_pair(), []).append(loss)
    global_tau = quality_threshold(list(dev_losses), percentile)
    thresholds = {}
    for pair in set(corpus_pairs):
        if pair in by_pair:
            thresholds[pair] = quality_threshold(by_pair[pair], percentile)
        else:
            thresholds[pair] = global_tau
    return thresholds


def run_pipeline(
    lines: Iterable[str],
    config: RefineryConfig,
    langid_scorer: Scorer | None = None,
    quality_scorer: Scorer | None = None,
    dev_records: Sequence[ParallelRecord] | None = None,
    dev_scorer: Scorer | None = None,
    templates: Sequence[str] = DEFAULT_TEMPLATES,
) -> RefineryResult:
    """Apply the six stages in order and return refined records, their
    instruction-formatted samples, and the per-stage report.

    Passing no langid or quality scorer skips that stage (recorded in
    the report). Output is deterministic given (input, config, scorer
    responses).
    """
    report = RefineryReport()

    def count_malformed(err: MalformedLine) -> None:
        report.malformed_lines += 1

    handler = None if config.strict else count_malformed
    records = list(read_records(lines, on_malformed=handler))
    n_input = len(records)

    records = [clean_record(r) for r in records]
    report.record_stage("clean", kept=len(records), dropped=n_input - len(records))

    kept = [r for r in records if prefilter(r, config) is None]
    report.record_stage("prefilter", kept=len(kept), dropped=len(records) - len(kept))
    records = kept

    records, dropped = dedup_by_pair(records, config)
    report.record_stage("dedup", kept=len(records), dropped=dropped)

    if langid_scorer is not None:
        records, dropped = langid_filter(records, langid_scorer, config)
        report.record_stage("langid", kept=len(records), dropped=dropped)
    else:
        report.record_stage("langid", kept=len(records), dropped=0)
        report.skipped_stages.append("langid")

    if quality_scorer is not None:
        if not dev_records:
            raise EmptyDevSet("quality filtering needs a dev set to derive thresholds")
        dev_losses = score_losses(dev_records, dev_scorer or quality_scorer)
        thresholds = compute_thresholds(
            dev_records, dev_losses, config.quality_percentile,
            (r.lang_pair() for r in records))
        report.thresholds = {f"{s}-{t}": tau for (s, t), tau in sorted(thresholds.items())}
        losses = score_losses(records, quality_scorer)
        records, dropped = quality_filter(records, losses, thresholds)
        report.record_stage("quality", kept=len(records), dropped=dropped)
    else:
        report.record_stage("quality", kept=len(records), dropped=0)
        report.skipped_stages.append("quality")

    samples = [format_instruction(r, templates, config.template_seed) for r in records]
    report.record_stage("format", kept=len(samples), dropped=len(records) - len(samples))

    return RefineryResult(records=records, samples=samples, report=report)
