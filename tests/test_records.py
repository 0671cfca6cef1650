"""Record codec and tokenization tests."""
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.errors import MalformedLine
from forge.records import (
    ParallelRecord,
    TokenizationMode,
    is_lang_code,
    read_records,
    tokenization_mode,
    tokenize,
    write_records,
)
from helpers import is_lang_code_reference


def test_read_basic_line():
    lines = ['{"src":"en","trg":"zh","src_line":"Hi","tgt_line":"你好"}\n']
    records = list(read_records(lines))
    assert len(records) == 1
    r = records[0]
    assert (r.src, r.trg, r.src_line, r.tgt_line, r.seq) == ("en", "zh", "Hi", "你好", 0)


def test_read_empty_stream():
    assert list(read_records([])) == []


def test_read_blank_lines_skipped_and_seq_contiguous():
    lines = [
        "\n",
        '{"src":"en","trg":"de","src_line":"a b","tgt_line":"c d"}\n',
        "   \n",
        '{"src":"en","trg":"de","src_line":"e f","tgt_line":"g h"}\n',
    ]
    records = list(read_records(lines))
    assert [r.seq for r in records] == [0, 1]


def test_missing_key_raises_with_line_number():
    lines = ['{"src":"en","trg":"zh","src_line":"Hi"}\n']
    with pytest.raises(MalformedLine) as err:
        list(read_records(lines))
    assert err.value.line_no == 1


@pytest.mark.parametrize("line", [
    "not json",
    '{"src":"en","trg":"en","src_line":"x","tgt_line":"y"}',  # src == trg
    '{"src":"EN","trg":"de","src_line":"x","tgt_line":"y"}',  # uppercase code
    '{"src":"e","trg":"de","src_line":"x","tgt_line":"y"}',   # too short
    '{"src":"en","trg":"de","src_line":1,"tgt_line":"y"}',    # non-string
    '[1,2,3]',
])
def test_malformed_variants(line):
    with pytest.raises(MalformedLine):
        list(read_records([line + "\n"]))


def test_on_malformed_handler_drops_and_counts():
    lines = [
        '{"src":"en","trg":"de","src_line":"a","tgt_line":"b"}\n',
        "garbage\n",
        '{"src":"en","trg":"de","src_line":"c","tgt_line":"d"}\n',
    ]
    seen = []
    records = list(read_records(lines, on_malformed=seen.append))
    assert [r.seq for r in records] == [0, 1]
    assert len(seen) == 1 and seen[0].line_no == 2


def test_write_empty():
    buf = io.StringIO()
    assert write_records([], buf) == 0
    assert buf.getvalue() == ""


def test_write_single_record_ends_with_newline():
    buf = io.StringIO()
    write_records([ParallelRecord("en", "de", "a", "b")], buf)
    assert buf.getvalue().endswith("\n")
    assert buf.getvalue().count("\n") == 1


def test_extra_keys_preserved_on_round_trip():
    line = '{"src":"en","trg":"de","src_line":"a","tgt_line":"b","score":0.7}\n'
    record = next(iter(read_records([line])))
    assert record.extra == {"score": 0.7}
    buf = io.StringIO()
    write_records([record], buf)
    assert json.loads(buf.getvalue())["score"] == 0.7


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)
_lang = st.sampled_from(["en", "de", "zh", "ja", "sw", "fr", "xx", "abc"])


@settings(max_examples=200)
@given(st.lists(
    st.tuples(_lang, _lang, _text, _text).filter(lambda t: t[0] != t[1]),
    max_size=30))
def test_codec_round_trip(rows):
    records = [ParallelRecord(src, trg, s, t, seq=i)
               for i, (src, trg, s, t) in enumerate(rows)]
    buf = io.StringIO()
    write_records(records, buf)
    # blank lines inside payloads are impossible: one JSON object per line
    back = list(read_records(io.StringIO(buf.getvalue())))
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert (a.src, a.trg, a.src_line, a.tgt_line) == (b.src, b.trg, b.src_line, b.tgt_line)
    assert [b.seq for b in back] == list(range(len(records)))


def test_is_lang_code():
    assert is_lang_code("en") and is_lang_code("swh")
    for bad in ("", "e", "ENG", "e1", "abcd", 42, None):
        assert not is_lang_code(bad)


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(alphabet=st.one_of(st.sampled_from("azAZeén1_ ǆǅǄßİ\u0131\u212a"), st.characters()),
            max_size=4),
    st.binary(max_size=4), st.integers(), st.none(), st.lists(st.just("a"), max_size=3)))
def test_is_lang_code_matches_the_reference(code):
    assert is_lang_code(code) == is_lang_code_reference(code)


def test_tokenization_mode_table():
    assert tokenization_mode("zh") is TokenizationMode.PER_CHARACTER
    assert tokenization_mode("ja") is TokenizationMode.PER_CHARACTER
    assert tokenization_mode("th") is TokenizationMode.PER_CHARACTER
    assert tokenization_mode("en") is TokenizationMode.WHITESPACE
    assert tokenization_mode("xx") is TokenizationMode.WHITESPACE


def test_tokenization_mode_override():
    assert tokenization_mode("en", {"en"}) is TokenizationMode.PER_CHARACTER
    assert tokenization_mode("zh", {"en"}) is TokenizationMode.WHITESPACE


def test_tokenize_whitespace():
    assert tokenize("a  b", TokenizationMode.WHITESPACE) == ["a", "b"]
    assert tokenize("hello 世界", TokenizationMode.WHITESPACE) == ["hello", "世界"]
    assert tokenize("", TokenizationMode.WHITESPACE) == []
    assert tokenize("　x\t y\n", TokenizationMode.WHITESPACE) == ["x", "y"]


def test_tokenize_per_character():
    assert tokenize("你好", TokenizationMode.PER_CHARACTER) == ["你", "好"]
    assert tokenize("你 好", TokenizationMode.PER_CHARACTER) == ["你", "好"]
    assert tokenize("", TokenizationMode.PER_CHARACTER) == []


def test_tokenize_grapheme_clusters_keep_combining_marks():
    # e + combining acute stays one token
    assert tokenize("éx", TokenizationMode.PER_CHARACTER) == ["é", "x"]


@settings(max_examples=200)
@given(_text)
def test_tokenize_never_yields_empty_tokens(text):
    for mode in TokenizationMode:
        tokens = tokenize(text, mode)
        assert all(tokens)
        assert all(not t.isspace() for t in tokens)


@settings(max_examples=200)
@given(_text)
def test_whitespace_tokens_rejoin_stable(text):
    tokens = tokenize(text, TokenizationMode.WHITESPACE)
    assert tokenize(" ".join(tokens), TokenizationMode.WHITESPACE) == tokens
