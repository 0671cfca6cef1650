"""Scorer bridge tests: wire protocol, out-of-order matching, sidecar
files, error paths, and transcript replay equivalence."""
import io
import json
import sys
import textwrap
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forge.errors import (
    MissingScore,
    ProtocolViolation,
    ScoreKindMismatch,
    ScorerTimeout,
    ScorerFailure,
    SidecarParseError,
    SpawnFailure,
    UnencodableRequest,
)
from forge.scorers import (
    RecordingScorer,
    ScoreResponse,
    SidecarScorer,
    SubprocessScorer,
    _parse_wire_line,
    langid_request,
    quality_request,
    response_to_sidecar_line,
)


def _script(tmp_path, body):
    path = tmp_path / "scorer.py"
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return [sys.executable, str(path)]


ECHO_LANGID = """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps({"id": req["id"], "lang": "en", "prob": 1.0}), flush=True)
"""


def test_subprocess_echo_langid(tmp_path):
    with SubprocessScorer(_script(tmp_path, ECHO_LANGID)) as scorer:
        reqs = [langid_request(i, f"text {i}") for i in range(5)]
        resps = scorer.score(reqs)
    assert [r.id for r in resps] == [0, 1, 2, 3, 4]
    assert all(r.lang == "en" and r.prob == 1.0 for r in resps)


def test_subprocess_out_of_order_responses(tmp_path):
    body = """
        import json, sys
        pending = []
        for line in sys.stdin:
            pending.append(json.loads(line))
            if len(pending) == 3:
                for req in reversed(pending):
                    print(json.dumps({"id": req["id"], "loss": float(req["id"])}), flush=True)
                pending = []
        for req in reversed(pending):
            print(json.dumps({"id": req["id"], "loss": float(req["id"])}), flush=True)
    """
    with SubprocessScorer(_script(tmp_path, body)) as scorer:
        reqs = [quality_request(i, "en", "de", "a", "b") for i in (2, 0, 1)]
        resps = scorer.score(reqs)
    assert [r.id for r in resps] == [2, 0, 1]
    assert [r.loss for r in resps] == [2.0, 0.0, 1.0]


def test_subprocess_malformed_json_raises(tmp_path):
    body = """
        import sys
        for line in sys.stdin:
            print("this is not json", flush=True)
    """
    with SubprocessScorer(_script(tmp_path, body)) as scorer:
        with pytest.raises(ProtocolViolation):
            scorer.score([langid_request(0, "x")])


def test_subprocess_timeout(tmp_path):
    body = """
        import sys, time
        for line in sys.stdin:
            time.sleep(60)
    """
    scorer = SubprocessScorer(_script(tmp_path, body), timeout=0.3)
    with pytest.raises(ScorerTimeout):
        scorer.score([langid_request(0, "x")])


def test_subprocess_early_exit_raises(tmp_path):
    body = "import sys; sys.exit(0)"
    scorer = SubprocessScorer(_script(tmp_path, body), timeout=5.0)
    with pytest.raises((SpawnFailure, ProtocolViolation)):
        scorer.score([langid_request(0, "x")])


def test_subprocess_bad_prob_rejected(tmp_path):
    body = """
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            print(json.dumps({"id": req["id"], "lang": "en", "prob": 1.5}), flush=True)
    """
    with SubprocessScorer(_script(tmp_path, body)) as scorer:
        with pytest.raises(ProtocolViolation):
            scorer.score([langid_request(0, "x")])


def test_subprocess_loss_answer_to_langid_rejected(tmp_path):
    body = """
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            print(json.dumps({"id": req["id"], "loss": 1.0}), flush=True)
    """
    with SubprocessScorer(_script(tmp_path, body)) as scorer:
        with pytest.raises(ScoreKindMismatch) as err:
            scorer.score([langid_request(4, "x")])
    assert (err.value.request_id, err.value.request_kind, err.value.response_kind) == \
        (4, "langid", "quality")
    assert "4" in str(err.value)


def test_subprocess_duplicate_response_rejected(tmp_path):
    # the first request is answered twice; the reader must stop there
    body = """
        import json, sys
        for n, line in enumerate(sys.stdin):
            req = json.loads(line)
            for _ in range(2 if n == 0 else 1):
                print(json.dumps({"id": req["id"], "loss": 1.0}), flush=True)
    """
    with SubprocessScorer(_script(tmp_path, body), timeout=10.0) as scorer:
        with pytest.raises(ProtocolViolation, match="id 0"):
            scorer.score([quality_request(i, "en", "de", "a", "b") for i in range(3)])


def test_subprocess_unknown_response_id_rejected(tmp_path):
    body = """
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            print(json.dumps({"id": req["id"] + 1000, "loss": 1.0}), flush=True)
    """
    with SubprocessScorer(_script(tmp_path, body), timeout=10.0) as scorer:
        with pytest.raises(ProtocolViolation, match="id 1000"):
            scorer.score([quality_request(0, "en", "de", "a", "b")])
        with pytest.raises(ProtocolViolation, match="id 1000"):
            scorer.score([quality_request(0, "en", "de", "a", "b")])


def test_spawn_failure():
    with pytest.raises(SpawnFailure):
        SubprocessScorer(["/no/such/binary/anywhere"])


def test_subprocess_bounded_window(tmp_path):
    # window 2 with 10 requests: correctness should not depend on window size
    with SubprocessScorer(_script(tmp_path, ECHO_LANGID), window=2) as scorer:
        resps = scorer.score([langid_request(i, "t") for i in range(10)])
    assert [r.id for r in resps] == list(range(10))


# ---------------------------------------------------------------------------
# request encoding and the chunked transport

# quotes, backslashes, C0 and C1 controls, DEL, the JSON-escaped ASCII
# controls, U+2028/U+2029, lone surrogates and non-BMP characters
_WIRE_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "/", "\x00", "\x08", "\t", "\n", "\x0c", "\r", "\x1f",
                     "\x7f", "\x80", "\x9f", "\u2028", "\u2029", "\ud800", "\udfff",
                     "\U0001f600", "\U0010ffff", "\ufeff"]),
    st.characters())
_WIRE_TEXT = st.text(alphabet=_WIRE_CHARS, max_size=24)
_WIRE_IDS = st.one_of(st.integers(-2**63, 2**63), st.integers(0, 10**300))


@settings(max_examples=300)
@given(_WIRE_IDS, _WIRE_TEXT, _WIRE_TEXT, _WIRE_TEXT, _WIRE_TEXT, _WIRE_TEXT)
@example(0, "", "", "", "", "")
@example(2**64, 'a "b" \\ c', "en", "de", "\u2028\x85", "\U0001f600\ud83d")
def test_to_wire_is_json_dumps(req_id, text, src, trg, src_line, tgt_line):
    assert langid_request(req_id, text).to_wire() == json.dumps(
        {"id": req_id, "kind": "langid", "text": text}, ensure_ascii=False)
    assert quality_request(req_id, src, trg, src_line, tgt_line).to_wire() == json.dumps(
        {"id": req_id, "kind": "quality", "src": src, "trg": trg,
         "src_line": src_line, "tgt_line": tgt_line}, ensure_ascii=False)


def _score_or_kill(scorer, requests, seconds=60.0):
    """Score on a worker thread; a transport that deadlocks is killed and
    reported instead of hanging the test run."""
    result = {}

    def work():
        try:
            result["responses"] = scorer.score(requests)
        except Exception as e:  # reported below
            result["error"] = e
    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    worker.join(seconds)
    hung = worker.is_alive()
    if hung:
        scorer._proc.kill()
    scorer.close()
    assert not hung, "the transport deadlocked"
    if "error" in result:
        raise result["error"]
    return result["responses"]


def test_subprocess_chunk_larger_than_the_pipe_buffer(tmp_path):
    # a 32-line chunk of 8 KiB lines is 256 KiB, four pipe buffers; the
    # child answers each line with 16 KiB before reading the next, so the
    # parent must drain stdout while its write of stdin is blocked
    body = """
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            sys.stdout.write(json.dumps({"id": req["id"], "loss": 1.0, "pad": "\u00fc" * 16384},
                                        ensure_ascii=False) + "\\n")
            sys.stdout.flush()
    """
    scorer = SubprocessScorer(_script(tmp_path, body), timeout=30.0, window=64)
    reqs = [quality_request(i, "en", "de", "\u00e4" * 4096, "b" * 4096) for i in range(100)]
    assert [r.id for r in _score_or_kill(scorer, reqs)] == list(range(100))


def test_subprocess_child_that_reads_a_whole_chunk_before_answering(tmp_path):
    # 32 requests of 8 KiB are four pipe buffers: the parent must wake when
    # stdin drains, not only when stdout has data
    body = """
        import json, sys
        held = []
        for line in sys.stdin:
            held.append(json.loads(line)["id"])
            if len(held) == 32:
                for rid in held:
                    print(json.dumps({"id": rid, "loss": 1.0}), flush=True)
                held = []
    """
    scorer = SubprocessScorer(_script(tmp_path, body), timeout=10.0, window=64)
    reqs = [quality_request(i, "en", "de", "a" * 8192, "b") for i in range(96)]
    assert [r.id for r in _score_or_kill(scorer, reqs)] == list(range(96))


# Holds every request it has read until no more input comes for 0.5 s,
# then answers them all; each loss is the most requests it has held.
HOLDING_CHILD = """
    import json, os, select, sys
    held, most, buf = [], 0, b""
    while True:
        if select.select([0], [], [], 0.5)[0]:
            data = os.read(0, 1 << 16)
            if not data:
                break
            *lines, buf = (buf + data).split(b"\\n")
            held += [json.loads(line)["id"] for line in lines if line.strip()]
            most = max(most, len(held))
            continue
        for rid in held:
            sys.stdout.write(json.dumps({"id": rid, "loss": float(most)}) + "\\n")
        sys.stdout.flush()
        held = []
"""


@pytest.mark.parametrize("window, filled", [(1, 1), (7, 6), (8, 8)])
def test_subprocess_keeps_at_most_window_requests_in_flight(tmp_path, window, filled):
    # chunks of window // 2: two chunks fill an even window
    scorer = SubprocessScorer(_script(tmp_path, HOLDING_CHILD), timeout=30.0, window=window)
    reqs = [quality_request(i, "en", "de", "a", "b") for i in range(3 * window)]
    resps = _score_or_kill(scorer, reqs)
    assert [r.id for r in resps] == list(range(3 * window))
    assert max(r.loss for r in resps) == filled


def test_subprocess_unencodable_request_is_a_typed_error(tmp_path):
    # a lone surrogate (a JSON "\ud800" escape survives read_records) has no
    # UTF-8 form; the request fails before its chunk is sent and the
    # scorer stays usable
    with SubprocessScorer(_script(tmp_path, ECHO_LANGID), timeout=10.0, window=4) as scorer:
        reqs = [langid_request(i, "t") for i in range(9)] + [langid_request(9, "x\ud800")]
        with pytest.raises(UnencodableRequest) as err:
            scorer.score(reqs)
        assert isinstance(err.value, ScorerFailure) and not isinstance(err.value, SpawnFailure)
        assert err.value.request_id == 9 and "id 9" in str(err.value)
        resps = scorer.score([langid_request(i, "t") for i in range(6)])
    assert [r.id for r in resps] == list(range(6))


# answers each request with the number of requests it has read so far
COUNTING_CHILD = """
    import json, sys
    for n, line in enumerate(sys.stdin, start=1):
        print(json.dumps({"id": json.loads(line)["id"], "loss": float(n)}), flush=True)
"""


def test_subprocess_unencodable_request_writes_nothing(tmp_path):
    # the unencodable 10th request fails the call before any of its lines
    # reaches the child, so the child's next answer is its first
    with SubprocessScorer(_script(tmp_path, COUNTING_CHILD), timeout=10.0, window=4) as scorer:
        reqs = [quality_request(i, "en", "de", "a", "b") for i in range(9)]
        reqs.append(quality_request(9, "en", "de", "x\ud800", "b"))
        with pytest.raises(UnencodableRequest):
            scorer.score(reqs)
        [resp] = scorer.score([quality_request(0, "en", "de", "a", "b")])
    assert resp.loss == 1.0


def test_subprocess_non_utf8_response_is_a_protocol_violation(tmp_path):
    body = """
        import sys
        for line in sys.stdin:
            sys.stdout.buffer.write(b'{"id": 0, "loss": 1.0, "pad": "\\xff"}\\n')
            sys.stdout.flush()
    """
    with SubprocessScorer(_script(tmp_path, body), timeout=10.0) as scorer:
        with pytest.raises(ProtocolViolation, match="UTF-8"):
            scorer.score([quality_request(0, "en", "de", "a", "b")])


def test_subprocess_response_split_inside_a_character(tmp_path):
    # "ü" is the two bytes c3 bc; the first flush ends between them
    body = """
        import sys, time
        for line in sys.stdin:
            sys.stdout.buffer.write(b'{"id": 0, "loss": 2.5, "pad": "\\xc3')
            sys.stdout.flush()
            time.sleep(0.2)
            sys.stdout.buffer.write(b'\\xbc"}\\n')
            sys.stdout.flush()
    """
    with SubprocessScorer(_script(tmp_path, body), timeout=10.0) as scorer:
        [resp] = scorer.score([quality_request(0, "en", "de", "a", "b")])
    assert (resp.id, resp.loss) == (0, 2.5)


def test_close_lets_the_child_finish_writing(tmp_path):
    # a child that writes once its input ends still exits cleanly
    body = """
        import sys
        sys.stdin.read()
        sys.stdout.write("x" * 1000 + "\\n")
        sys.stdout.flush()
    """
    scorer = SubprocessScorer(_script(tmp_path, body))
    scorer.close()
    assert scorer._proc.returncode == 0


def test_subprocess_scorer_starts_no_thread(tmp_path):
    before = threading.active_count()
    with SubprocessScorer(_script(tmp_path, ECHO_LANGID), window=4) as scorer:
        assert threading.active_count() == before
        resps = scorer.score([langid_request(i, "t") for i in range(10)])
        assert threading.active_count() == before
    assert [r.id for r in resps] == list(range(10))
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# sidecar

def test_sidecar_lookup(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("0\ten\t0.9\n1\t3.5\n", encoding="utf-8")
    scorer = SidecarScorer(path)
    lang_resp, loss_resp = scorer.score(
        [langid_request(0, "x"), quality_request(1, "en", "de", "a", "b")])
    assert (lang_resp.lang, lang_resp.prob) == ("en", 0.9)
    assert loss_resp.loss == 3.5


def test_sidecar_missing_id(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("0\t1.0\n", encoding="utf-8")
    with pytest.raises(MissingScore):
        SidecarScorer(path).score([quality_request(5, "en", "de", "a", "b")])


def test_sidecar_duplicate_id_rejected(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("0\t1.0\n0\t2.0\n", encoding="utf-8")
    with pytest.raises(SidecarParseError):
        SidecarScorer(path)


@pytest.mark.parametrize("table, request_kind, response_kind", [
    ("3\ten\t0.9\n", "quality", "langid"),
    ("3\t2.5\n", "langid", "quality"),
])
def test_sidecar_kind_mismatch_rejected(tmp_path, table, request_kind, response_kind):
    path = tmp_path / "scores.tsv"
    path.write_text(table, encoding="utf-8")
    request = (langid_request(3, "x") if request_kind == "langid"
               else quality_request(3, "en", "de", "a", "b"))
    with pytest.raises(ScoreKindMismatch) as err:
        SidecarScorer(path).score([request])
    assert (err.value.request_id, err.value.request_kind, err.value.response_kind) == \
        (3, request_kind, response_kind)


@pytest.mark.parametrize("line", ["x\t1.0", "0\tnotanumber", "0\tEN\t0.5", "0\ta\tb\tc\td"])
def test_sidecar_bad_lines_rejected(tmp_path, line):
    path = tmp_path / "scores.tsv"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(SidecarParseError):
        SidecarScorer(path)


@pytest.mark.parametrize("line", ["7\tnan", "7\tinf", "7\ten\t7.5", "7\ten\t-0.1", "7\ten\tnan"])
def test_sidecar_applies_the_wire_checks(tmp_path, line):
    path = tmp_path / "scores.tsv"
    path.write_text("0\t1.0\n" + line + "\n", encoding="utf-8")
    with pytest.raises(SidecarParseError) as err:
        SidecarScorer(path)
    assert err.value.line_no == 2


@pytest.mark.parametrize("response", ['{"id": 0, "loss": NaN}', '{"id": 0, "loss": Infinity}',
                                      '{"id": 0, "loss": 1' + '0' * 400 + '}',
                                      '{"id": 0, "lang": "en", "prob": 7.5}',
                                      pytest.param("[" * 100_000, id="nested too deeply")])
def test_subprocess_applies_the_same_checks(tmp_path, response):
    body = f"""
        import sys
        for line in sys.stdin:
            print({response!r}, flush=True)
    """
    with SubprocessScorer(_script(tmp_path, body)) as scorer:
        with pytest.raises(ProtocolViolation):
            scorer.score([langid_request(0, "x")])


@pytest.mark.parametrize("line", [b'{"id": true, "lang": "en", "prob": 0.9}',
                                  b'{"id": false, "loss": 1.5}'])
def test_boolean_response_id_rejected(line):
    """JSON true and false are not the ids 1 and 0."""
    with pytest.raises(ProtocolViolation, match="missing integer id"):
        _parse_wire_line(line, {0, 1})


def test_sidecar_equivalent_to_subprocess(tmp_path):
    table = "\n".join(f"{i}\t{float(i) * 0.5!r}" for i in range(20)) + "\n"
    path = tmp_path / "scores.tsv"
    path.write_text(table, encoding="utf-8")
    body = f"""
        import json, sys
        table = {{}}
        with open({str(path)!r}) as f:
            for line in f:
                fields = line.split()
                table[int(fields[0])] = float(fields[1])
        for line in sys.stdin:
            req = json.loads(line)
            print(json.dumps({{"id": req["id"], "loss": table[req["id"]]}}), flush=True)
    """
    reqs = [quality_request(i, "en", "de", "a", "b") for i in range(20)]
    with SubprocessScorer(_script(tmp_path, body)) as sub:
        sub_resps = sub.score(reqs)
    side_resps = SidecarScorer(path).score(reqs)
    assert sub_resps == side_resps


# ---------------------------------------------------------------------------
# transcript recording

def test_recording_scorer_replays_identically(tmp_path):
    with SubprocessScorer(_script(tmp_path, ECHO_LANGID)) as inner:
        sink = io.StringIO()
        rec = RecordingScorer(inner, sink)
        reqs = [langid_request(i, "t") for i in range(6)]
        first = rec.score(reqs)
    transcript = tmp_path / "transcript.tsv"
    transcript.write_text(sink.getvalue(), encoding="utf-8")
    replay = SidecarScorer(transcript).score(reqs)
    assert replay == first


def test_response_round_trips_through_sidecar_line(tmp_path):
    for resp in (ScoreResponse(id=3, lang="de", prob=0.123456789),
                 ScoreResponse(id=9, loss=2.718281828459045)):
        path = tmp_path / "roundtrip.tsv"
        path.write_text(response_to_sidecar_line(resp) + "\n", encoding="utf-8")
        back = SidecarScorer(path).score(
            [langid_request(resp.id, "x") if resp.lang else
             quality_request(resp.id, "en", "de", "a", "b")])[0]
        assert back == resp
