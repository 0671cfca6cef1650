"""Independent oracles and small utilities shared across the test suite.

The oracles here deliberately re-derive behavior from first principles
(brute-force scans, full SVD, reference hashes) so they stay independent
of the code paths they check.
"""
from __future__ import annotations

import unicodedata
from typing import Sequence

import numpy as np

from forge.records import ParallelRecord
from forge.refinery import RefineryConfig, hamming, record_signature


def fnv1a64_reference(data: bytes) -> int:
    """Straight transcription of the published FNV-1a 64 algorithm."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) % 2**64
    return h


def simhash64_reference(tokens: Sequence[str]) -> int:
    """Scalar 64-bit SimHash over a token multiset (ties round to 0):
    one weighted +1/-1 vote per distinct token and bit."""
    if not tokens:
        return 0
    acc = [0] * 64
    counts: dict[str, int] = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    for tok, weight in counts.items():
        h = fnv1a64_reference(tok.encode("utf-8"))
        for bit in range(64):
            if (h >> bit) & 1:
                acc[bit] += weight
            else:
                acc[bit] -= weight
    sig = 0
    for bit in range(64):
        if acc[bit] > 0:
            sig |= 1 << bit
    return sig


def clean_text_reference(text: str) -> str:
    """Per-character cleaning: NFC, drop C0 (except tab and newline), DEL,
    C1, U+FFFD and lone surrogates, collapse whitespace, trim."""
    text = unicodedata.normalize("NFC", text)
    out = []
    for ch in text:
        code = ord(ch)
        if ch in ("\n", "\t"):
            out.append(ch)
            continue
        if code < 0x20 or 0x7F <= code <= 0x9F:  # C0 / DEL / C1
            continue
        if code == 0xFFFD or 0xD800 <= code <= 0xDFFF:
            continue
        out.append(ch)
    return " ".join("".join(out).split())


def brute_force_dedup(records, config: RefineryConfig):
    """O(n^2) reference: same conflict rule as the banded index, via a
    linear scan over every previously kept record."""
    kept = []
    kept_sigs = []
    dropped = 0
    for record in records:
        sig = record_signature(record, config)
        conflicts = [s for s in kept_sigs
                     if hamming(s, sig) <= config.hamming_radius]
        if any(s == sig for s in conflicts) or len(conflicts) > config.max_conflicts:
            dropped += 1
            continue
        kept.append(record)
        kept_sigs.append(sig)
    return kept, dropped


def svd_nuclear_norm(matrix) -> float:
    """Full-SVD oracle for the nuclear norm."""
    return float(np.linalg.svd(np.asarray(matrix, dtype=np.float64),
                               compute_uv=False).sum())


def random_corpus(rng: np.random.Generator, n: int, vocab: list[str],
                  src: str = "en", trg: str = "de") -> list[ParallelRecord]:
    records = []
    for seq in range(n):
        ls = int(rng.integers(3, 15))
        lt = int(rng.integers(3, 15))
        records.append(ParallelRecord(
            src, trg,
            " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), ls)),
            " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), lt)),
            seq=seq))
    return records


def inject_duplicates(rng: np.random.Generator, records: list[ParallelRecord],
                      vocab: list[str], n_exact: int, n_near: int) -> list[ParallelRecord]:
    """Append exact copies and one-token perturbations of existing rows,
    renumbering seq to stay contiguous."""
    out = list(records)
    for _ in range(n_exact):
        base = out[int(rng.integers(0, len(out)))]
        out.append(ParallelRecord(base.src, base.trg, base.src_line,
                                  base.tgt_line, seq=len(out)))
    for _ in range(n_near):
        base = out[int(rng.integers(0, len(out)))]
        tokens = base.src_line.split()
        if tokens:
            tokens[int(rng.integers(0, len(tokens)))] = vocab[int(rng.integers(0, len(vocab)))]
        out.append(ParallelRecord(base.src, base.trg, " ".join(tokens),
                                  base.tgt_line, seq=len(out)))
    return out


def params_digest(params) -> dict:
    """Per-tensor SHA-256 hex digests, for bit-identity assertions."""
    import hashlib

    return {key: hashlib.sha256(params.tensor_bytes(key)).hexdigest()
            for key in params.keys()}
