"""Record codec and tokenization tests."""
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.errors import ForgeError, MalformedLine
from forge.records import (
    NOT_UTF8,
    ParallelRecord,
    TokenizationMode,
    is_lang_code,
    parse_json,
    read_lines,
    read_object,
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


GOOD_LINE = '{"src":"en","trg":"de","src_line":"a","tgt_line":"b"}'


@pytest.mark.parametrize("text, reason", [
    ("{config: 1}", "invalid JSON (Expecting property name"),
    ("[" * 100_000, "invalid JSON (nested too deeply)"),
    (GOOD_LINE[:-1] + ', "n": 1' + "0" * 5000 + "}", "invalid JSON (Exceeds the limit"),
])
def test_text_that_does_not_decode_is_a_value_error_and_a_malformed_line(text, reason):
    with pytest.raises(ValueError) as err:
        parse_json(text)
    assert str(err.value).startswith(reason)
    seen = []
    records = list(read_records([GOOD_LINE + "\n", text + "\n", GOOD_LINE + "\n"],
                                on_malformed=seen.append))
    assert [r.seq for r in records] == [0, 1]
    assert [(e.line_no, e.reason) for e in seen] == [(2, str(err.value))]


OBJECT_KINDS = {"path": str, "start": str | None, "n": int, "x": float, "on": bool,
                "skip": list[int], "any": object}


def test_read_object_returns_an_object_of_the_kinds():
    obj = {"path": "p", "start": None, "n": 3, "x": 2, "on": False, "skip": [], "any": [{}]}
    assert read_object(obj, OBJECT_KINDS, "thing", ("path",)) is obj
    assert read_object({"a": "p"}, {...: str}, "eval set") == {"a": "p"}


@pytest.mark.parametrize("obj, message", [
    ([1], "thing must be an object, not [1]"),
    ({"n": 1}, "missing thing key 'path'"),
    ({"path": "p", "other": 1}, "unknown thing key 'other'"),
    ({"path": "p", "n": True}, "thing 'n' must be an integer, not True"),
    ({"path": "p", "n": 1.0}, "thing 'n' must be an integer, not 1.0"),
    ({"path": "p", "x": "1"}, "thing 'x' must be a number, not '1'"),
    ({"path": "p", "x": False}, "thing 'x' must be a number, not False"),
    ({"path": "p", "on": 0}, "thing 'on' must be true or false, not 0"),
    ({"path": 3}, "thing 'path' must be a path string, not 3"),
    ({"path": "p", "start": 3}, "thing 'start' must be a path string, not 3"),
    ({"path": "p", "skip": [1, "2"]}, "thing 'skip' must be a list of integers"),
    ({"path": "p", "skip": [True]}, "thing 'skip' must be a list of integers"),
])
def test_read_object_names_the_fault(obj, message):
    with pytest.raises(ForgeError) as err:
        read_object(obj, OBJECT_KINDS, "thing", ("path",))
    assert str(err.value).startswith(message)


# pieces of a byte stream: line ends of every kind, characters that other
# splitters take for line ends, and bytes that are not UTF-8
_LINE_PIECES = [b"a", b" ", b"\n", b"\r", b"\r\n", b"\x0c", b"\x1e", b"\xff", b"\xe4",
                "\u00e9".encode(), "\u2028".encode(), "\u0085".encode(), b"\xed\xa0\x80"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LINE_PIECES), max_size=24))
def test_read_lines_splits_as_text_mode(tmp_path_factory, pieces):
    # latin-1 maps bytes to characters one to one, so text mode splits it
    # where it would split UTF-8; each line is its UTF-8 text or NOT_UTF8
    data = b"".join(pieces)
    path = tmp_path_factory.mktemp("lines") / "data.txt"
    path.write_bytes(data)
    expected = []
    for raw in io.TextIOWrapper(io.BytesIO(data), encoding="latin-1").readlines():
        try:
            expected.append(raw.encode("latin-1").decode("utf-8"))
        except UnicodeDecodeError:
            expected.append(NOT_UTF8)
    assert read_lines(path) == expected
    if NOT_UTF8 not in expected:
        with open(path, encoding="utf-8") as f:
            assert expected == f.readlines()


def test_line_that_is_not_utf8_is_malformed(tmp_path):
    good = '{"src":"en","trg":"de","src_line":"a","tgt_line":"b"}\n'
    path = tmp_path / "records.jsonl"
    path.write_bytes(good.encode() + b'{"src":"en","trg":"de","src_line":"\xff",'
                     b'"tgt_line":"b"}\n' + good.encode())
    seen = []
    records = list(read_records(read_lines(path), on_malformed=seen.append))
    assert [r.seq for r in records] == [0, 1]
    assert [(e.line_no, e.reason) for e in seen] == [(2, "not UTF-8")]
    with pytest.raises(MalformedLine, match="malformed line 2: not UTF-8"):
        list(read_records(read_lines(path)))


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
