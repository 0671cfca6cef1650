"""Seeded multilingual corpus for the refine workload.

Every outcome is planned before the lines are written: which records the
prefilter drops (too short, length mismatch), which dedup drops (exact
duplicates, the fourth member of each near-duplicate cluster), which the
language-ID filter drops (wrong language, low confidence), which the
quality filter drops (loss above the pair's threshold), the per-pair
thresholds themselves, the malformed lines, and the exact text each
survivor has after cleaning. The language-ID and quality answers go into
a replay table that `replay_scorer.py` serves over the scorer protocol;
the dev-set losses go into a sidecar.

The dedup counts hold only if no two records conflict by accident, so
`verify_conflicts` recomputes every signature with this file's own
FNV-1a/SimHash and checks the planned conflict structure.
"""
from __future__ import annotations

import json
import math
import unicodedata
from dataclasses import dataclass, field

import numpy as np

PAIRS = (("en", "de"), ("zh", "en"), ("sw", "en"))
CHAR_LANGS = frozenset({"zh"})
HAMMING_RADIUS = 3
LANGID_MIN_PROB = 0.5
QUALITY_PERCENTILE = 0.90
WRONG_LANG = "fr"

_WORDS = {
    "en": [f"e{i:04d}" for i in range(4000)],
    "de": [f"d{i:04d}" for i in range(3600)] + [f"grün{i:03d}" for i in range(400)],
    "sw": [f"s{i:04d}" for i in range(4000)],
}
# the whole CJK block: a narrow slice gives FNV hashes that agree on many
# bits, and so accidental SimHash conflicts between unrelated lines
_HAN = [chr(0x4E00 + i) for i in range(20000)]
_JUNK = ("\x00", "\x07", "\x1b", "\x7f", "\x85", "\x9c", "�")
_MALFORMED = (
    "{broken json\n",
    '{"src":"en","trg":"de","src_line":"no target"}\n',
    '{"src":"en","trg":"en","src_line":"same","tgt_line":"pair"}\n',
    '{"src":"EN","trg":"de","src_line":"upper","tgt_line":"case"}\n',
    '["not", "an", "object"]\n',
    '{"src":"en","trg":"de","src_line":7,"tgt_line":"number"}\n',
    "{}\n",
    "null\n",
    '{"src":"e","trg":"de","src_line":"short","tgt_line":"code"}\n',
    "42\n",
)


# How many records of each kind the corpus holds.
GOOD = (2700, 500, 400)  # per entry of PAIRS
N_SHORT = 60
N_MISMATCH = 60
N_DUPLICATES = 120
N_CLUSTERS = 20
N_WRONG_LANG = 80
N_LOW_CONF = 40
N_HIGH_LOSS = 60
N_BOUNDARY = 20  # langid prob exactly the minimum, loss exactly tau: kept
N_DIRTY = 400
N_MALFORMED = 40
N_BLANK = 5
DEV_PER_PAIR = 20


@dataclass
class Row:
    role: str  # good | dupsource | dup | cluster<i> | short | mismatch
    src: str
    trg: str
    src_line: str  # clean text, as the pipeline must leave it
    tgt_line: str
    fate: str = ""  # wrong_lang | low_conf | high_loss | boundary


@dataclass
class Corpus:
    lines: list[str]
    rows: list[Row]  # in seq order
    replay: dict  # table for replay_scorer.py
    dev_lines: list[str]
    dev_sidecar: str
    expected_stages: dict[str, dict[str, int]]
    expected_malformed: int
    expected_thresholds: dict[str, float]
    expected_seqs: list[int]
    dup_pairs: list[tuple[int, int]] = field(default_factory=list)
    clusters: list[list[int]] = field(default_factory=list)


def _words(rng, lang: str, lo: int, hi: int) -> str:
    n = int(rng.integers(lo, hi + 1))
    if lang in CHAR_LANGS:
        return "".join(_HAN[int(i)] for i in rng.integers(0, len(_HAN), n))
    vocab = _WORDS[lang]
    return " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), n))


def tokens(text: str, lang: str) -> list[str]:
    if lang in CHAR_LANGS:
        return [ch for ch in text if not ch.isspace()]
    return text.split()


# --- reference FNV-1a / SimHash --------------------------------------------

_FNV_CACHE: dict[str, np.ndarray] = {}


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % (1 << 64)
    return h


def _contribution(token: str) -> np.ndarray:
    """+1 for each set bit of the token's FNV-1a hash, -1 for each clear bit."""
    c = _FNV_CACHE.get(token)
    if c is None:
        h = fnv1a64(token.encode("utf-8"))
        bits = np.unpackbits(np.frombuffer(h.to_bytes(8, "little"), dtype=np.uint8),
                             bitorder="little")
        c = _FNV_CACHE[token] = 2 * bits.astype(np.int64) - 1
    return c


def _accumulator(toks: list[str]) -> np.ndarray:
    acc = np.zeros(64, dtype=np.int64)
    for tok in toks:
        acc += _contribution(tok)
    return acc


def _signature(acc: np.ndarray) -> int:
    return int.from_bytes(np.packbits(acc > 0, bitorder="little").tobytes(), "little")


def simhash(toks: list[str]) -> int:
    return _signature(_accumulator(toks)) if toks else 0


def record_tokens(row: Row) -> list[str]:
    return tokens(row.src_line, row.src) + tokens(row.tgt_line, row.trg)


# --- construction -----------------------------------------------------------

def _cluster(rng) -> list[tuple[str, str]]:
    """Four en-de records whose signatures differ pairwise in 1 or 2 bits:
    a base and three one-word substitutions, each flipping its own bit."""
    en, de = _WORDS["en"], _WORDS["de"]
    while True:
        src = [en[int(i)] for i in rng.choice(len(en), 20, replace=False)]
        tgt = [de[int(i)] for i in rng.choice(len(de), 20, replace=False)]
        acc = _accumulator(src + tgt)
        base = _signature(acc)
        variants, used_bits = [], set()
        for pos in range(len(src)):
            for word in (en[int(i)] for i in rng.integers(0, len(en), 200)):
                if word in src:
                    continue
                flipped = base ^ _signature(acc - _contribution(src[pos]) + _contribution(word))
                if flipped.bit_count() == 1 and flipped not in used_bits:
                    used_bits.add(flipped)
                    variants.append(src[:pos] + [word] + src[pos + 1:])
                    break
            if len(variants) == 3:
                return [(" ".join(s), " ".join(tgt)) for s in [src] + variants]


def _dirty(rng, text: str, lang: str) -> str:
    """Text that `clean_text` must turn back into `text`: decomposed
    accents, control and replacement characters, and (outside per-character
    languages) whitespace runs, tabs and edge padding."""
    out = unicodedata.normalize("NFD", text)
    for _ in range(int(rng.integers(1, 4))):
        spots = [i for i in range(len(out) + 1)
                 if i == len(out) or not unicodedata.combining(out[i])]
        at = spots[int(rng.integers(0, len(spots)))]
        out = out[:at] + _JUNK[int(rng.integers(0, len(_JUNK)))] + out[at:]
    if lang not in CHAR_LANGS:
        out = out.replace(" ", " \t ", 1).replace(" ", "   ", 1)
        out = "  " + out + "　 "
    return out


def _line(src, trg, src_line, tgt_line) -> str:
    return json.dumps({"src": src, "trg": trg, "src_line": src_line, "tgt_line": tgt_line},
                      ensure_ascii=False) + "\n"


def build_corpus(seed: int) -> Corpus:
    rng = np.random.default_rng([seed, 2718])
    rows: list[Row] = []
    for (src, trg), n in zip(PAIRS, GOOD):
        rows += [Row("good", src, trg, _words(rng, src, 6, 14), _words(rng, trg, 6, 14))
                 for _ in range(n)]
    for c in range(N_CLUSTERS):
        rows += [Row(f"cluster{c}", "en", "de", s, t) for s, t in _cluster(rng)]
    n_good = len(rows) - 4 * N_CLUSTERS
    sources = [int(i) for i in rng.choice(n_good, N_DUPLICATES, replace=False)]
    for i in sources:
        rows[i].role = "dupsource"
        rows.append(Row("dup", rows[i].src, rows[i].trg, rows[i].src_line, rows[i].tgt_line))
    for i in range(N_SHORT):
        src, trg = PAIRS[i % len(PAIRS)]
        rows.append(Row("short", src, trg, _words(rng, src, 1, 1), _words(rng, trg, 6, 10)))
    for i in range(N_MISMATCH):
        src, trg = PAIRS[i % len(PAIRS)]
        rows.append(Row("mismatch", src, trg, _words(rng, src, 3, 3), _words(rng, trg, 11, 20)))

    order = rng.permutation(len(rows))
    rows = [rows[int(i)] for i in order]
    dup_pairs, by_text, clusters = [], {}, {}
    for seq, row in enumerate(rows):
        key = (row.src_line, row.tgt_line)
        if row.role in ("dupsource", "dup"):
            if key in by_text:
                dup_pairs.append((by_text.pop(key), seq))
            else:
                by_text[key] = seq
        elif row.role.startswith("cluster"):
            clusters.setdefault(row.role, []).append(seq)

    plain = [seq for seq, row in enumerate(rows) if row.role == "good"]
    picked = [plain[int(i)] for i in rng.choice(
        len(plain), N_WRONG_LANG + N_LOW_CONF + N_HIGH_LOSS + 2 * N_BOUNDARY,
        replace=False)]
    fates = (["wrong_lang"] * N_WRONG_LANG + ["low_conf"] * N_LOW_CONF
             + ["high_loss"] * N_HIGH_LOSS + ["boundary"] * (2 * N_BOUNDARY))
    for seq, fate in zip(picked, fates):
        rows[seq].fate = fate

    taus = {pair: round(float(rng.uniform(5.0, 8.0)), 2) for pair in PAIRS}
    langid, quality = {}, {}
    for seq, row in enumerate(rows):
        tau = taus[(row.src, row.trg)]
        sides = [[row.src_line, row.src, round(float(rng.uniform(0.6, 0.99)), 3)],
                 [row.tgt_line, row.trg, round(float(rng.uniform(0.6, 0.99)), 3)]]
        side = sides[int(rng.integers(0, 2))]
        loss = round(tau - float(rng.uniform(0.25, 4.0)), 3)
        if row.fate == "wrong_lang":
            side[1] = WRONG_LANG
        elif row.fate == "low_conf":
            side[2] = round(float(rng.uniform(0.05, 0.49)), 3)
        elif row.fate == "high_loss":
            loss = round(tau + float(rng.uniform(0.25, 3.0)), 3)
        elif row.fate == "boundary":
            side[2], loss = LANGID_MIN_PROB, tau
        langid[str(2 * seq)], langid[str(2 * seq + 1)] = sides
        quality[str(seq)] = [row.src, row.trg, row.src_line, row.tgt_line, loss]

    dev_lines, dev_losses = [], []
    rank = math.ceil(QUALITY_PERCENTILE * DEV_PER_PAIR)
    for pair in PAIRS:
        tau = taus[pair]
        losses = ([round(tau - float(rng.uniform(0.1, 4.0)), 3) for _ in range(rank - 1)]
                  + [tau]
                  + [round(tau + float(rng.uniform(0.1, 4.0)), 3)
                     for _ in range(DEV_PER_PAIR - rank)])
        for i in rng.permutation(len(losses)):
            dev_lines.append(_line(*pair, _words(rng, pair[0], 6, 10), _words(rng, pair[1], 6, 10)))
            dev_losses.append(losses[int(i)])
    dev_sidecar = "".join(f"{i}\t{loss!r}\n" for i, loss in enumerate(dev_losses))

    dirty = set(int(i) for i in rng.choice(len(rows), N_DIRTY, replace=False))
    lines = []
    for seq, row in enumerate(rows):
        if seq in dirty:
            lines.append(_line(row.src, row.trg, _dirty(rng, row.src_line, row.src),
                               _dirty(rng, row.tgt_line, row.trg)))
        else:
            lines.append(_line(row.src, row.trg, row.src_line, row.tgt_line))
    extra = [_MALFORMED[i % len(_MALFORMED)] for i in range(N_MALFORMED)]
    extra += ["\n", "   \n"] * (N_BLANK // 2) + ["\n"] * (N_BLANK % 2)
    for bad in extra:
        at = int(rng.integers(0, len(lines) + 1))
        lines.insert(at, bad)

    prefilter_drops = {seq for seq, row in enumerate(rows) if row.role in ("short", "mismatch")}
    dedup_drops = {later for _, later in dup_pairs} | {max(c) for c in clusters.values()}
    langid_drops = {seq for seq, row in enumerate(rows) if row.fate in ("wrong_lang", "low_conf")}
    quality_drops = {seq for seq, row in enumerate(rows) if row.fate == "high_loss"}
    n = len(rows)
    stages = {}
    kept = n
    for stage, drops in (("clean", set()), ("prefilter", prefilter_drops),
                         ("dedup", dedup_drops), ("langid", langid_drops),
                         ("quality", quality_drops), ("format", set())):
        kept -= len(drops)
        stages[stage] = {"kept": kept, "dropped": len(drops)}
    gone = prefilter_drops | dedup_drops | langid_drops | quality_drops
    # every victim set is planned disjoint; overlap would double-count a drop
    if len(gone) != sum(s["dropped"] for s in stages.values()):
        raise AssertionError("planned drop sets overlap")
    return Corpus(
        lines=lines, rows=rows, replay={"langid": langid, "quality": quality},
        dev_lines=dev_lines, dev_sidecar=dev_sidecar, expected_stages=stages,
        expected_malformed=N_MALFORMED,
        expected_thresholds={f"{s}-{t}": tau for (s, t), tau in sorted(taus.items())},
        expected_seqs=[seq for seq in range(n) if seq not in gone],
        dup_pairs=dup_pairs, clusters=list(clusters.values()))


def verify_conflicts(corpus: Corpus) -> None:
    """Recompute every signature that reaches dedup and check that the
    only pairs within the hamming radius are the planned ones: exact
    duplicates at distance 0 and cluster members at 1..radius."""
    planned = {}
    for a, b in corpus.dup_pairs:
        planned[(a, b)] = (0, 0)
    for members in corpus.clusters:
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                planned[(a, b)] = (1, HAMMING_RADIUS)
    by_pair: dict[tuple[str, str], list[int]] = {}
    for seq, row in enumerate(corpus.rows):
        if row.role not in ("short", "mismatch"):
            by_pair.setdefault((row.src, row.trg), []).append(seq)
    found = set()
    for seqs in by_pair.values():
        sigs = np.array([simhash(record_tokens(corpus.rows[s])) for s in seqs], dtype=np.uint64)
        for start in range(0, len(seqs), 256):
            block = np.bitwise_count(sigs[start:start + 256, None] ^ sigs[None, :])
            for i, j in zip(*np.nonzero(block <= HAMMING_RADIUS)):
                a, b = seqs[start + int(i)], seqs[int(j)]
                if a >= b:
                    continue
                found.add((a, b))
                lo, hi = planned.get((a, b), (None, None))
                if lo is None or not lo <= int(block[i, j]) <= hi:
                    raise AssertionError(f"unplanned conflict between seq {a} and {b} "
                                         f"at distance {int(block[i, j])}")
    missing = set(planned) - found
    if missing:
        raise AssertionError(f"planned conflicts not present: {sorted(missing)[:5]}")
