"""Scorer bridge tests: wire protocol, out-of-order matching, sidecar
files, error paths, and transcript replay equivalence."""
import io
import sys
import textwrap

import pytest

from forge.errors import (
    MissingScore,
    ProtocolViolation,
    ScorerTimeout,
    SidecarParseError,
    SpawnFailure,
)
from forge.scorers import (
    RecordingScorer,
    ScoreResponse,
    SidecarScorer,
    SubprocessScorer,
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


def test_spawn_failure():
    with pytest.raises(SpawnFailure):
        SubprocessScorer(["/no/such/binary/anywhere"])


def test_subprocess_bounded_window(tmp_path):
    # window 2 with 10 requests: correctness should not depend on window size
    with SubprocessScorer(_script(tmp_path, ECHO_LANGID), window=2) as scorer:
        resps = scorer.score([langid_request(i, "t") for i in range(10)])
    assert [r.id for r in resps] == list(range(10))


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
                                      '{"id": 0, "lang": "en", "prob": 7.5}'])
def test_subprocess_applies_the_same_checks(tmp_path, response):
    body = f"""
        import sys
        for line in sys.stdin:
            print({response!r}, flush=True)
    """
    with SubprocessScorer(_script(tmp_path, body)) as scorer:
        with pytest.raises(ProtocolViolation):
            scorer.score([langid_request(0, "x")])


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
