"""Deterministic synthetic tasks over an integer vocabulary.

Two task families stand in for the real experimental axes:

* translation -- source = random content tokens, target = a seeded token
  permutation of the source, optionally reversed. Doubles as parallel
  data: samples serialize to the refinery record format with content
  token i written as ``t<i>``.
* general -- modular arithmetic continuation, the held-out "existing
  capability" whose degradation under tuning is measured.

Vocabulary layout: 0=PAD, 1=SEP, 2=translation task marker,
3=continuation task marker, 4.. = content tokens. Prompts end with SEP;
the loss mask covers exactly the response tokens.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ForgeError, MalformedLine
from .records import ParallelRecord, check_range, parse_json_line, read_lines, record_from_object
# greedy_decode stays importable from here because the benchmark's tracer wraps it.
from .tinylm import (  # noqa: F401
    Batch,
    ModelParams,
    forward,
    greedy_decode,
    masked_positions,
    next_token_nll,
)

PAD, SEP, TASK_TRANSLATE, TASK_CONTINUE = 0, 1, 2, 3
RESERVED = 4

SYNTH_SRC_LANG = "qaa"  # ISO 639 private-use range
SYNTH_TRG_LANG = "qab"


@dataclass(frozen=True)
class SynthLangSpec:
    vocab_size: int = 64
    perm_seed: int = 0
    reorder: str = "identity"  # "identity" | "reverse"
    min_len: int = 4
    max_len: int = 12
    # a vocabulary needs two content tokens beside the reserved ones
    RANGES = {"vocab_size": f"[{RESERVED + 2}, inf)", "perm_seed": "[0, inf)",
              "min_len": "[1, inf)", "max_len": "[1, inf)"}

    def __post_init__(self):
        for name, interval in self.RANGES.items():
            check_range(name, getattr(self, name), interval)
        if self.reorder not in ("identity", "reverse"):
            raise ValueError(f"unknown reorder rule {self.reorder!r}")
        if self.min_len > self.max_len:
            raise ValueError("min_len must be <= max_len")

    @property
    def n_content(self) -> int:
        return self.vocab_size - RESERVED

    def permutation(self) -> np.ndarray:
        return np.random.default_rng(self.perm_seed).permutation(self.n_content)


@dataclass(frozen=True)
class Sample:
    prompt: tuple[int, ...]
    response: tuple[int, ...]

    def token_ids(self) -> list[int]:
        return list(self.prompt) + list(self.response)


@dataclass
class EvalSet:
    task_id: str
    samples: list[Sample]


@dataclass
class EvalResult:
    task_id: str
    mean_ce: float
    exact_match: float
    sample_count: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__)


def apply_mapping(spec: SynthLangSpec, src_tokens: Sequence[int],
                  perm: np.ndarray | None = None) -> list[int]:
    """Map content-token indices through the bijection, then reorder."""
    if perm is None:
        perm = spec.permutation()
    out = [int(perm[t]) for t in src_tokens]
    if spec.reorder == "reverse":
        out.reverse()
    return out


def _translation_sample(spec: SynthLangSpec, src_tokens: Sequence[int],
                        perm: np.ndarray) -> Sample:
    tgt = apply_mapping(spec, src_tokens, perm)
    prompt = (TASK_TRANSLATE, *(RESERVED + t for t in src_tokens), SEP)
    response = tuple(RESERVED + t for t in tgt)
    return Sample(prompt=prompt, response=response)


def gen_translation_corpus(spec: SynthLangSpec, n: int, seed: int
                           ) -> tuple[list[Sample], EvalSet]:
    """n unique samples split 95/5 into train and held-out eval, with
    at least one sample held out."""
    check_range("n", n, "[2, inf)")
    # the distinct sources of each length, added only until they reach n;
    # n_content ** n.bit_length() alone exceeds n, so the capped power
    # never grows past what that test needs
    distinct = 0
    for length in range(spec.min_len, spec.max_len + 1):
        distinct += spec.n_content ** min(length, n.bit_length())
        if distinct >= n:
            break
    else:
        raise ValueError(f"only {distinct} distinct sources exist")
    rng = np.random.default_rng([seed, 101])
    seen: set[tuple[int, ...]] = set()
    sources: list[tuple[int, ...]] = []
    attempts = 0
    while len(sources) < n:
        attempts += 1
        if attempts > 50 * n + 1000:
            raise ValueError("cannot draw enough unique sources; shrink n or grow vocab")
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        src = tuple(int(t) for t in rng.integers(0, spec.n_content, size=length))
        if src in seen:
            continue
        seen.add(src)
        sources.append(src)
    perm = spec.permutation()
    samples = [_translation_sample(spec, src, perm) for src in sources]
    return _split(samples, rng, task_id="translation")


def gen_general_corpus(n: int, seed: int, vocab_size: int = 64, max_len: int = 8,
                       max_step: int = 8) -> tuple[list[Sample], EvalSet]:
    """Modular-arithmetic continuation: prompt encodes (k, step, length),
    response is k+step, k+2*step, ... modulo the content-vocab size.

    Steps are drawn from [0, max_step); the small default keeps the
    arithmetic table within reach of a toy model instead of pushing it
    into slow mod-arithmetic generalization."""
    check_range("n", n, "[2, inf)")
    check_range("vocab_size", vocab_size, SynthLangSpec.RANGES["vocab_size"])
    mod = vocab_size - RESERVED
    max_len = min(max_len, mod - 1)
    max_step = min(max_step, mod)
    total = mod * max_step * max_len
    if n > total:
        raise ValueError(f"only {total} distinct (k, step, len) triples exist")
    rng = np.random.default_rng([seed, 202])
    picks = rng.choice(total, size=n, replace=False)
    samples = []
    for p in picks:
        p = int(p)
        k = p % mod
        step = (p // mod) % max_step
        length = p // (mod * max_step) + 1
        prompt = (TASK_CONTINUE, RESERVED + k, RESERVED + step, RESERVED + length, SEP)
        response = tuple(RESERVED + ((k + i * step) % mod) for i in range(1, length + 1))
        samples.append(Sample(prompt=prompt, response=response))
    return _split(samples, rng, task_id="general")


def _split(samples: list[Sample], rng: np.random.Generator, task_id: str
           ) -> tuple[list[Sample], EvalSet]:
    order = rng.permutation(len(samples))
    n_eval = max(1, round(0.05 * len(samples)))
    eval_samples = [samples[int(i)] for i in order[:n_eval]]
    train_samples = [samples[int(i)] for i in order[n_eval:]]
    return train_samples, EvalSet(task_id=task_id, samples=eval_samples)


def make_batches(samples: Sequence[Sample], batch_size: int) -> list[Batch]:
    """Pack consecutive samples, right-padded with PAD; the mask is 1 on
    response token positions only."""
    batches = []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        t_max = max(len(s.prompt) + len(s.response) for s in chunk)
        ids = np.full((len(chunk), t_max), PAD, dtype=np.int64)
        mask = np.zeros((len(chunk), t_max), dtype=np.int64)
        for row, s in enumerate(chunk):
            seq = s.token_ids()
            ids[row, :len(seq)] = seq
            mask[row, len(s.prompt):len(seq)] = 1
        batches.append(Batch(ids=ids, mask=mask))
    return batches


def evaluate(params: ModelParams, eval_set: EvalSet, batch_size: int = 32
             ) -> EvalResult:
    """Mean masked cross-entropy over all supervised tokens plus exact
    match under greedy decoding of the response span, both from one
    forward per batch. Read-only.

    A response is what greedy decoding would produce exactly when each of
    its tokens is the argmax of the logits one position before it: the
    model is causal, so while the decoded tokens equal the response, the
    decoder sees the same prefix as this teacher-forced forward. The
    argmax is taken on the raw logits, because subtracting the row
    maximum can round two different logits to one value. A sample needs
    a prompt, the position its first response token is predicted from."""
    if any(not sample.prompt for sample in eval_set.samples):
        raise ValueError("a sample with an empty prompt has no position to decode from")
    total_nll = 0.0
    total_tokens = 0
    matches = 0
    for batch in make_batches(eval_set.samples, batch_size):
        logits, _ = forward(params, batch, keep=False)
        nll, _, _ = next_token_nll(logits, batch.ids)
        m = masked_positions(batch)
        total_nll += float(np.sum(nll * m))
        total_tokens += int(m.sum())
        hit = np.argmax(logits[:, :-1], axis=-1) == batch.ids[:, 1:]
        matches += int(np.all(hit | ~m, axis=1).sum())

    n = len(eval_set.samples)
    return EvalResult(
        task_id=eval_set.task_id,
        mean_ce=total_nll / total_tokens if total_tokens else 0.0,
        exact_match=matches / n if n else 0.0,
        sample_count=n,
    )


# ---------------------------------------------------------------------------
# Serialization: model-ready JSONL and the refinery record format

def content_token_text(content_idx: int) -> str:
    return f"t{content_idx}"


def parse_content_token(text: str) -> int:
    if not text.startswith("t") or not text[1:].isdigit():
        raise ValueError(f"not a synthetic content token: {text!r}")
    return int(text[1:])


def sample_to_record(sample: Sample, spec: SynthLangSpec) -> ParallelRecord:
    src = " ".join(content_token_text(t - RESERVED) for t in sample.prompt
                   if t >= RESERVED)
    tgt = " ".join(content_token_text(t - RESERVED) for t in sample.response)
    return ParallelRecord(src=SYNTH_SRC_LANG, trg=SYNTH_TRG_LANG,
                          src_line=src, tgt_line=tgt)


def record_to_sample(record: ParallelRecord, vocab_size: int) -> Sample:
    """Re-encode a (possibly refined) synthetic record for training. Each
    side must hold at least one content token, each inside the vocabulary;
    anything else is a ValueError."""
    sides = {}
    for field in ("src_line", "tgt_line"):
        tokens = [parse_content_token(t) for t in getattr(record, field).split()]
        if not tokens:
            raise ValueError(f"{field!r} has no tokens")
        outside = [t for t in tokens if t + RESERVED >= vocab_size]
        if outside:
            raise ValueError(f"content token t{outside[0]} in {field!r} lies outside "
                             f"the vocabulary [0, {vocab_size})")
        sides[field] = tokens
    prompt = (TASK_TRANSLATE, *(RESERVED + t for t in sides["src_line"]), SEP)
    return Sample(prompt=prompt, response=tuple(RESERVED + t for t in sides["tgt_line"]))


def write_samples(samples: Iterable[Sample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in samples:
            f.write(json.dumps({"prompt": list(s.prompt),
                                "response": list(s.response)}) + "\n")


def _is_token_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(t, int) and not isinstance(t, bool) for t in value)


def _token_sample(obj, line: str, vocab_size: int) -> Sample:
    if not (isinstance(obj, dict) and _is_token_list(obj.get("prompt"))
            and _is_token_list(obj.get("response"))):
        hint = (" (instruction-text output is not trainable; refine with --emit records)"
                if isinstance(obj, dict) and "instruction" in obj else "")
        raise ValueError(f"a token sample must be an object whose 'prompt' and "
                         f"'response' are lists of integers, not {line.strip()[:80]!r}{hint}")
    for field in ("prompt", "response"):
        if not obj[field]:
            raise ValueError(f"{field!r} is empty")
        outside = [t for t in obj[field] if not 0 <= t < vocab_size]
        if outside:
            raise ValueError(f"token id {outside[0]} in {field!r} lies outside "
                             f"the vocabulary [0, {vocab_size})")
    return Sample(prompt=tuple(obj["prompt"]), response=tuple(obj["response"]))


def read_samples(path: str | Path, vocab_size: int,
                 max_seq_len: int | None = None) -> list[Sample]:
    """The samples of a data file, one JSON object per non-blank line. The
    first object decides what the file holds: parallel records if it has
    "src" and no "prompt", which record_to_sample re-encodes, else token
    samples, whose "prompt" and "response" are non-empty lists of token
    ids in [0, vocab_size). Any line that is not UTF-8, not JSON, or not
    of that kind, or whose sample has more than max_seq_len tokens, is a
    ForgeError naming the file and line."""
    samples = []
    holds_records = None
    for number, line in enumerate(read_lines(path), 1):
        if not line.strip():
            continue
        try:
            obj = parse_json_line(line, number)
            if holds_records is None:
                holds_records = isinstance(obj, dict) and "src" in obj and "prompt" not in obj
            sample = (record_to_sample(record_from_object(obj, number), vocab_size)
                      if holds_records else _token_sample(obj, line, vocab_size))
            n = len(sample.prompt) + len(sample.response)
            if max_seq_len is not None and n > max_seq_len:
                raise ValueError(f"the sample's {n} tokens exceed the model's "
                                 f"max_seq_len of {max_seq_len}")
            samples.append(sample)
        except MalformedLine as e:
            raise ForgeError(f"{path} line {number}: {e.reason}") from e
        except ValueError as e:
            raise ForgeError(f"{path} line {number}: {e}") from e
    return samples
