"""Bitext record types, the line-delimited record codec, tokenization,
and the one checked reader of JSON from outside the program.

The interchange format between all pipeline stages is UTF-8 JSONL with
exactly the keys ``src, trg, src_line, tgt_line`` per object (extra keys
are preserved on round-trip). ``seq`` is the record's ordinal position in
the input stream and is assigned at read time, never serialized.

Every JSON text read from a file, an input line or a scorer is decoded
by ``parse_json``, where a decode error or nesting too deep for the
decoder is a ValueError giving the reason. Every JSON object a command
reads from a file (a config, an experiment spec and its parts, a
checkpoint manifest) is checked by ``read_object``, and a config
dataclass is read by ``read_config``. Every number a command is told is
checked against its range by ``check_range``.
"""
from __future__ import annotations

import dataclasses
import json
import re
import types
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import (Any, Callable, Iterable, Iterator, TextIO, get_args, get_origin,
                    get_type_hints)

import regex as _regex

from .errors import ForgeError, MalformedLine

REQUIRED_KEYS = ("src", "trg", "src_line", "tgt_line")

# Languages written without inter-word spaces: tokenized per grapheme
# cluster instead of per whitespace run. Extendable via config override.
CHARACTER_SPLIT_LANGS = frozenset({"zh", "ja", "th"})

_GRAPHEME = _regex.compile(r"\X")


class TokenizationMode(Enum):
    WHITESPACE = "whitespace"
    PER_CHARACTER = "per_character"


def is_lang_code(code: Any) -> bool:
    """True for a lowercase ASCII language tag of length 2-3."""
    return (
        isinstance(code, str)
        and 2 <= len(code) <= 3
        and code.isascii()
        and code.isalpha()
        and code.islower()
    )


@dataclass
class ParallelRecord:
    """One bitext sample: a language pair plus its source/target lines."""

    src: str
    trg: str
    src_line: str
    tgt_line: str
    seq: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def lang_pair(self) -> tuple[str, str]:
        return (self.src, self.trg)


@dataclass
class InstructionSample:
    """A record wrapped in a task instruction; response is the target line."""

    instruction: str
    response: str
    src: str
    trg: str
    template_id: int

    def to_json(self) -> str:
        obj = {
            "instruction": self.instruction,
            "response": self.response,
            "meta": {"src": self.src, "trg": self.trg, "template_id": self.template_id},
        }
        return json.dumps(obj, ensure_ascii=False)


# What read_lines gives for a line that is not UTF-8. It is not JSON, so
# every reader of JSON lines takes it for a malformed line at no cost to
# the other lines, and no line of a UTF-8 file can equal it.
NOT_UTF8 = "\udcff"
# what the "surrogateescape" error handler decodes a byte that is not UTF-8 to
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def read_lines(path: str | Path) -> list[str]:
    """The lines of a text file, split as text mode splits them: at "\\n",
    "\\r\\n" or a lone "\\r", each ending read as "\\n". A line that is not
    UTF-8 comes back as NOT_UTF8."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        return [NOT_UTF8 if _ESCAPED_BYTE.search(line) else line for line in f]


def parse_json(text: str) -> Any:
    """The JSON value of text from outside the program. Text that is not
    JSON, or nests deeper than the decoder can follow, is a ValueError
    giving the reason."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("invalid JSON (nested too deeply)") from None
    except ValueError as e:  # a decode error, or an integer too long to convert
        raise ValueError(f"invalid JSON ({e})") from e


def read_json(path: str | Path) -> Any:
    """The JSON value of a UTF-8 file; a ForgeError naming the file if it
    has none."""
    try:
        return parse_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # UnicodeDecodeError among them
        raise ForgeError(f"{path}: {e}") from e


def parse_json_line(line: str, line_no: int) -> Any:
    """The JSON value of one input line; MalformedLine if it has none."""
    try:
        return parse_json(line)
    except ValueError as e:
        raise MalformedLine(line_no, "not UTF-8" if line == NOT_UTF8 else str(e)) from e


# How read_object names each kind of value. A kind is one of these, one
# of them | None, or object for any value.
KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
              str: "a path string", dict: "an object", list: "a list",
              list[int]: "a list of integers", tuple[str, ...]: "a list of strings"}


def _is_kind(value, kind) -> bool:
    """Whether a decoded JSON value is of `kind`. JSON true and false are
    not numbers, an integer is a float, and a tuple is read from a list."""
    if get_origin(kind) is types.UnionType:
        return any(_is_kind(value, k) for k in get_args(kind))
    if get_origin(kind) in (list, tuple):
        return isinstance(value, list) and all(_is_kind(v, get_args(kind)[0]) for v in value)
    if isinstance(value, bool) and kind in (int, float):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def read_object(obj, kinds: dict, what: str, required=()) -> dict:
    """`obj` if it is a JSON object that has every `required` key, and
    no key but those of `kinds`, each value of its key's kind; else a
    ForgeError naming `what` and the key. A kind under the key ``...``
    is the kind of every key `kinds` does not name."""
    if not isinstance(obj, dict):
        raise ForgeError(f"{what} must be an object, not {obj!r}")
    for key in required:
        if key not in obj:
            raise ForgeError(f"missing {what} key {key!r}")
    for key, value in obj.items():
        kind = kinds.get(key, kinds.get(...))
        if kind is None:
            raise ForgeError(f"unknown {what} key {key!r}")
        if not _is_kind(value, kind):
            name = KIND_NAMES[get_args(kind)[0] if get_origin(kind) is types.UnionType else kind]
            raise ForgeError(f"{what} {key!r} must be {name}, not {value!r}")
    return obj


def check_range(name: str, value, interval: str) -> None:
    """A ValueError naming `name` unless `value` lies in `interval`,
    written like "[1, inf)" or "(0, 1]". NaN lies in no interval, and
    neither does an integer too large for a float."""
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    try:
        x = float(value)
    except OverflowError:
        x = float("nan")
    if not ((low < x or interval[0] == "[" and x == low)
            and (x < high or interval[-1] == "]" and x == high)):
        raise ValueError(f"{name} must be in {interval}, not {value!r}")


def read_config(cls, obj, what: str, source: str):
    """A `cls` config dataclass from a JSON object that read_object
    checks against the field types; a field with no default is
    required. A fault, in a key or in a value `cls` refuses, is a
    ForgeError naming `source`, the file and section obj was read from."""
    fields, hints = dataclasses.fields(cls), get_type_hints(cls)
    try:
        read_object(obj, {f.name: hints[f.name] for f in fields}, what,
                    [f.name for f in fields if f.default is dataclasses.MISSING])
        return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in obj.items()})
    except (ForgeError, ValueError) as e:
        raise ForgeError(f"{source}: {e}") from e


def record_from_object(obj: Any, line_no: int) -> ParallelRecord:
    """The record a decoded JSON line holds; MalformedLine naming line_no
    if it holds none."""
    if not isinstance(obj, dict):
        raise MalformedLine(line_no, "not a JSON object")
    for key in REQUIRED_KEYS:
        if key not in obj:
            raise MalformedLine(line_no, f"missing key {key!r}")
    src, trg, src_line, tgt_line = (obj[k] for k in REQUIRED_KEYS)
    if not is_lang_code(src) or not is_lang_code(trg):
        raise MalformedLine(line_no, "invalid language code")
    if src == trg:
        raise MalformedLine(line_no, "src == trg")
    if not isinstance(src_line, str) or not isinstance(tgt_line, str):
        raise MalformedLine(line_no, "src_line/tgt_line must be strings")
    extra = {k: v for k, v in obj.items() if k not in REQUIRED_KEYS}
    return ParallelRecord(src, trg, src_line, tgt_line, extra=extra)


def read_records(
    stream: Iterable[str] | TextIO,
    on_malformed: Callable[[MalformedLine], None] | None = None,
) -> Iterator[ParallelRecord]:
    """Yield records from a JSONL stream in input order, seq = 0,1,2,...

    Blank lines are skipped. A line that fails to parse, NOT_UTF8 among
    them, raises MalformedLine unless ``on_malformed`` is given, in which
    case the handler is called and the line is dropped (seq numbering is
    not consumed by dropped lines).
    """
    seq = 0
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            record = record_from_object(parse_json_line(line, line_no), line_no)
        except MalformedLine as err:
            if on_malformed is None:
                raise
            on_malformed(err)
            continue
        record.seq = seq
        seq += 1
        yield record


def record_to_json(record: ParallelRecord) -> str:
    obj = {
        "src": record.src,
        "trg": record.trg,
        "src_line": record.src_line,
        "tgt_line": record.tgt_line,
    }
    obj.update(record.extra)
    return json.dumps(obj, ensure_ascii=False)


def write_records(records: Iterable[ParallelRecord], stream: TextIO) -> int:
    """Write records as JSONL; inverse of read_records. Returns line count."""
    n = 0
    for record in records:
        stream.write(record_to_json(record) + "\n")
        n += 1
    return n


def tokenization_mode(
    lang: str, char_split_langs: frozenset[str] | set[str] | None = None
) -> TokenizationMode:
    """Pick the tokenization mode for a language (unknown -> whitespace)."""
    table = CHARACTER_SPLIT_LANGS if char_split_langs is None else char_split_langs
    if lang in table:
        return TokenizationMode.PER_CHARACTER
    return TokenizationMode.WHITESPACE


def tokenize(text: str, mode: TokenizationMode) -> list[str]:
    """Split text into tokens; never yields empty or whitespace tokens.

    Whitespace mode splits on runs of unicode whitespace. Per-character
    mode yields one token per extended grapheme cluster so combining
    marks stay attached to their base character.
    """
    if mode is TokenizationMode.WHITESPACE:
        return text.split()
    return [g for g in _GRAPHEME.findall(text) if not g.isspace()]
