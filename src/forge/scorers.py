"""Uniform access to external language-ID and quality scorers.

Heavyweight models stay outside the artifact behind one of two handles:

* SubprocessScorer -- newline-delimited JSON over the child's stdio.
  Request lines: ``{"id": N, "kind": "langid", "text": S}`` or
  ``{"id": N, "kind": "quality", "src": L, "trg": L, "src_line": S,
  "tgt_line": S}``, exactly as ``json.dumps(..., ensure_ascii=False)``
  writes them. Response lines: ``{"id":N,"lang":L,"prob":P}`` or
  ``{"id":N,"loss":X}``. Responses may arrive out of order; they are
  matched by id. One loop on the calling thread drives both pipes
  without blocking: requests are queued in chunks of ``window // 2``
  lines (at least one) while at most ``window`` are sent and not yet
  taken by the caller, and whatever the pipes take and give is written
  and read between waits. A child may therefore answer before it has
  read all of its input, and must keep reading stdin while it writes.
  Each id gets ``timeout`` seconds from when the caller starts waiting
  for it. A response line that is not UTF-8, or that answers an id not
  awaiting one (never sent, or already answered), is a protocol
  violation. Errors come in request order: the first bad line, or the
  child's exit, is raised when the caller reaches an id with no answer.
  Every request of a call is encoded before any line is written, so one
  whose text cannot be encoded as UTF-8 (a lone surrogate) raises
  ``UnencodableRequest`` and the child gets none of the call.
* SidecarScorer -- precomputed scores in a TSV file,
  ``id<TAB>lang<TAB>prob`` or ``id<TAB>loss``, one line per id.

Both transports check that each response carries the kind of score its
request asked for (``loss`` for quality, ``lang``/``prob`` for language
ID) and raise ``ScoreKindMismatch`` otherwise.

Request id scheme used by the pipeline (sidecar authors must follow it):
language-ID requests use id ``2*seq`` for the source line and ``2*seq+1``
for the target line of record ``seq``; quality requests use id ``seq``.
Development-set samples are scored through their own handle with ids
equal to their position in the dev file.
"""
from __future__ import annotations

import math
import os
import select
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import Sequence, TextIO

from .errors import (
    MissingScore,
    ProtocolViolation,
    ScoreKindMismatch,
    ScorerTimeout,
    SidecarParseError,
    SpawnFailure,
    UnencodableRequest,
)
from .records import NOT_UTF8, is_lang_code, parse_json, read_lines

DEFAULT_TIMEOUT = 60.0
DEFAULT_WINDOW = 256


@dataclass(frozen=True)
class ScoreRequest:
    id: int
    kind: str  # "langid" | "quality"
    text: str = ""
    src: str = ""
    trg: str = ""
    src_line: str = ""
    tgt_line: str = ""

    def to_wire(self) -> str:
        """The request line, equal to ``json.dumps(..., ensure_ascii=False)``
        of the fields in wire order (`_quote` is the function it escapes
        strings with)."""
        if self.kind == "langid":
            return f'{{"id": {self.id}, "kind": "langid", "text": {_quote(self.text)}}}'
        return (f'{{"id": {self.id}, "kind": "quality", "src": {_quote(self.src)}, '
                f'"trg": {_quote(self.trg)}, "src_line": {_quote(self.src_line)}, '
                f'"tgt_line": {_quote(self.tgt_line)}}}')


@dataclass(frozen=True)
class ScoreResponse:
    id: int
    lang: str | None = None
    prob: float | None = None
    loss: float | None = None


def langid_request(req_id: int, text: str) -> ScoreRequest:
    return ScoreRequest(id=req_id, kind="langid", text=text)


def quality_request(req_id: int, src: str, trg: str, src_line: str, tgt_line: str) -> ScoreRequest:
    return ScoreRequest(id=req_id, kind="quality", src=src, trg=trg,
                        src_line=src_line, tgt_line=tgt_line)


def _response_from_object(obj) -> ScoreResponse:
    """The checks every transport applies to one decoded response; raises
    ValueError with the reason."""
    rid = obj.get("id") if isinstance(obj, dict) else None
    if isinstance(rid, bool) or not isinstance(rid, int):
        raise ValueError("missing integer id")
    if "loss" in obj:
        loss = obj["loss"]
        # the bound also rejects NaN, and an integer too large for a float
        if isinstance(loss, bool) or not isinstance(loss, (int, float)) \
                or not abs(loss) <= sys.float_info.max:
            raise ValueError("loss must be a finite number")
        return ScoreResponse(id=rid, loss=float(loss))
    if "lang" in obj and "prob" in obj:
        lang, prob = obj["lang"], obj["prob"]
        if not is_lang_code(lang):
            raise ValueError(f"invalid lang {lang!r}")
        if isinstance(prob, bool) or not isinstance(prob, (int, float)) \
                or not 0.0 <= prob <= 1.0:
            raise ValueError("prob must be in [0,1]")
        return ScoreResponse(id=rid, lang=lang, prob=float(prob))
    raise ValueError("expected lang/prob or loss fields")


def _answer_to(request: ScoreRequest, response: ScoreResponse) -> ScoreResponse:
    """`response` if it carries the kind of score `request` asked for."""
    response_kind = "quality" if response.loss is not None else "langid"
    if response_kind != request.kind:
        raise ScoreKindMismatch(request.id, request.kind, response_kind)
    return response


def _parse_response_line(line: str) -> ScoreResponse:
    try:
        return _response_from_object(parse_json(line))
    except ValueError as e:
        raise ProtocolViolation(line, str(e)) from e


def _parse_wire_line(line: bytes, awaiting: set[int]) -> ScoreResponse:
    """A subprocess response line, which must answer one of the ids in
    `awaiting`."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ProtocolViolation(line.decode("utf-8", "backslashreplace"),
                                f"response is not UTF-8 ({e.reason})") from e
    resp = _parse_response_line(text)
    if resp.id not in awaiting:
        raise ProtocolViolation(text, f"response for id {resp.id}, which is not awaiting one")
    return resp


def _encode_chunk(chunk: Sequence[ScoreRequest]) -> bytes:
    """The wire bytes of a chunk of requests, one line each."""
    lines = [req.to_wire() for req in chunk]
    try:
        return ("\n".join(lines) + "\n").encode("utf-8")
    except UnicodeEncodeError:
        for req, line in zip(chunk, lines):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as e:
                raise UnencodableRequest(req.id, e.reason) from e
        raise


class Scorer:
    """Interface: score a request batch, responses in request order."""

    def score(self, requests: Sequence[ScoreRequest]) -> list[ScoreResponse]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "Scorer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SubprocessScorer(Scorer):
    """Talks the line protocol to a child process over stdin/stdout, in
    one loop on the calling thread."""

    def __init__(self, command: str | Sequence[str], timeout: float = DEFAULT_TIMEOUT,
                 window: int = DEFAULT_WINDOW):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, bufsize=0)
        except OSError as e:
            raise SpawnFailure(f"cannot launch {argv!r}: {e}") from e
        self._stdin, self._stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        os.set_blocking(self._stdin, False)
        os.set_blocking(self._stdout, False)
        self.timeout = timeout
        self.window = max(1, window)

    def score(self, requests: Sequence[ScoreRequest]) -> list[ScoreResponse]:
        size = max(1, self.window // 2)
        chunks = [requests[i:i + size] for i in range(0, len(requests), size)]
        wire = [_encode_chunk(chunk) for chunk in chunks]  # before any write
        answers: dict[int, ScoreResponse] = {}
        awaiting: set[int] = set()  # ids sent and not yet answered
        unsent, partial = bytearray(), b""
        error: ProtocolViolation | None = None  # the first bad line; nothing is read after it
        eof = False
        queued = sent = 0
        out = []
        for taken, req in enumerate(requests):
            deadline = None
            while req.id not in answers:
                if error is not None:
                    raise error
                if eof:
                    raise SpawnFailure(f"scorer exited before responding to id {req.id}")
                while queued < len(chunks) and sent + len(chunks[queued]) - taken <= self.window:
                    awaiting.update(r.id for r in chunks[queued])
                    unsent += wire[queued]
                    sent += len(chunks[queued])
                    queued += 1
                if unsent:
                    try:
                        del unsent[:os.write(self._stdin, unsent)]
                    except BlockingIOError:
                        pass
                    except BrokenPipeError as e:
                        raise SpawnFailure(f"scorer process went away: {e}") from e
                try:
                    data = os.read(self._stdout, 1 << 16)
                except BlockingIOError:
                    if deadline is None:
                        deadline = time.monotonic() + self.timeout
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise ScorerTimeout(req.id, self.timeout) from None
                    poller = select.poll()
                    poller.register(self._stdout, select.POLLIN)
                    if unsent:
                        poller.register(self._stdin, select.POLLOUT)
                    poller.poll(math.ceil(left * 1000))
                    continue
                if data:
                    *lines, partial = (partial + data).split(b"\n")
                else:
                    lines, partial, eof = [partial], b"", True
                try:
                    for line in lines:
                        line = line.strip()
                        if line:
                            resp = _parse_wire_line(line, awaiting)
                            awaiting.remove(resp.id)
                            answers[resp.id] = resp
                except ProtocolViolation as e:
                    error = e
            out.append(_answer_to(req, answers.pop(req.id)))
        return out

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __del__(self):
        try:
            if self._proc.poll() is None:
                self._proc.kill()
        except Exception:
            pass


def _sidecar_float(path, line_no: int, field: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as e:
        raise SidecarParseError(path, line_no, f"bad {field} {text!r}") from e


class SidecarScorer(Scorer):
    """Constant-time lookup scorer backed by a TSV file of recorded scores."""

    def __init__(self, path: str | Path):
        self._scores: dict[int, ScoreResponse] = {}
        for line_no, line in enumerate(read_lines(path), start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line == NOT_UTF8:
                raise SidecarParseError(path, line_no, "not UTF-8")
            fields = line.split("\t")
            try:
                rid = int(fields[0])
            except ValueError as e:
                raise SidecarParseError(path, line_no, f"bad id {fields[0]!r}") from e
            if rid in self._scores:
                raise SidecarParseError(path, line_no, f"duplicate id {rid}")
            if len(fields) == 2:
                obj = {"id": rid, "loss": _sidecar_float(path, line_no, "loss", fields[1])}
            elif len(fields) == 3:
                obj = {"id": rid, "lang": fields[1],
                       "prob": _sidecar_float(path, line_no, "prob", fields[2])}
            else:
                raise SidecarParseError(path, line_no,
                                        "expected 2 or 3 tab-separated fields")
            try:
                self._scores[rid] = _response_from_object(obj)
            except ValueError as e:
                raise SidecarParseError(path, line_no, str(e)) from e

    def score(self, requests: Sequence[ScoreRequest]) -> list[ScoreResponse]:
        out = []
        for req in requests:
            if req.id not in self._scores:
                raise MissingScore(req.id)
            out.append(_answer_to(req, self._scores[req.id]))
        return out


class RecordingScorer(Scorer):
    """Wraps a scorer and tees every response to a sidecar-format stream.

    Replaying the recorded file through SidecarScorer reproduces the
    wrapped scorer's transcript exactly.
    """

    def __init__(self, inner: Scorer, sink: TextIO):
        self.inner = inner
        self.sink = sink

    def score(self, requests: Sequence[ScoreRequest]) -> list[ScoreResponse]:
        responses = self.inner.score(requests)
        for resp in responses:
            self.sink.write(response_to_sidecar_line(resp) + "\n")
        return responses

    def close(self) -> None:
        self.inner.close()


def response_to_sidecar_line(resp: ScoreResponse) -> str:
    if resp.loss is not None:
        return f"{resp.id}\t{resp.loss!r}"
    return f"{resp.id}\t{resp.lang}\t{resp.prob!r}"


def open_scorer(spec: str) -> Scorer:
    """Open ``spec`` as a sidecar file if it names an existing file, else
    treat it as a command line to launch."""
    if Path(spec).is_file():
        return SidecarScorer(spec)
    return SubprocessScorer(spec)
