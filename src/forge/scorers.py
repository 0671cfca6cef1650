"""Uniform access to external language-ID and quality scorers.

Heavyweight models stay outside the artifact behind one of two handles:

* SubprocessScorer -- newline-delimited JSON over the child's stdio.
  Request lines: ``{"id": N, "kind": "langid", "text": S}`` or
  ``{"id": N, "kind": "quality", "src": L, "trg": L, "src_line": S,
  "tgt_line": S}``, exactly as ``json.dumps(..., ensure_ascii=False)``
  writes them. Response lines: ``{"id":N,"lang":L,"prob":P}`` or
  ``{"id":N,"loss":X}``. Responses may arrive out of order; they are
  matched by id. Requests are written in chunks of ``window // 2`` lines
  (at least one), one write per chunk, and the next chunk is written
  while the previous one is collected, so at most ``window`` requests are
  in flight. A child may therefore answer before it has read all of its
  input, and must keep reading stdin while it writes. A response for an
  id that is not awaiting one (never sent, or already answered) is a
  protocol violation. A request whose text cannot be encoded as UTF-8
  (a lone surrogate) raises ``UnencodableRequest`` before any line of its
  chunk is sent.
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

import json
import shlex
import subprocess
import sys
import threading
import time
from collections import deque
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
from .records import is_lang_code

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
    if not isinstance(obj, dict) or "id" not in obj or not isinstance(obj["id"], int):
        raise ValueError("missing integer id")
    rid = obj["id"]
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
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ProtocolViolation(line, f"invalid JSON ({e.msg})") from e
    try:
        return _response_from_object(obj)
    except ValueError as e:
        raise ProtocolViolation(line, str(e)) from e


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
    """Talks the line protocol to a child process over stdin/stdout."""

    def __init__(self, command: str | Sequence[str], timeout: float = DEFAULT_TIMEOUT,
                 window: int = DEFAULT_WINDOW):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, encoding="utf-8", bufsize=1)
        except OSError as e:
            raise SpawnFailure(f"cannot launch {argv!r}: {e}") from e
        self.timeout = timeout
        self.window = max(1, window)
        # ids sent and not yet answered, answers not yet taken, and the id
        # the scoring thread is blocked on; all guarded by _cond
        self._outstanding: set[int] = set()
        self._pending: dict[int, ScoreResponse] = {}
        self._awaited: int | None = None
        self._reader_error: Exception | None = None
        self._eof = False
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self._proc.stdout is not None
        try:
            for line in self._proc.stdout:
                line = line.strip()
                if not line:
                    continue
                resp = _parse_response_line(line)
                with self._cond:
                    if resp.id not in self._outstanding:
                        raise ProtocolViolation(
                            line, f"response for id {resp.id}, which is not awaiting one")
                    self._outstanding.remove(resp.id)
                    self._pending[resp.id] = resp
                    if resp.id == self._awaited:
                        self._cond.notify_all()
        except Exception as e:  # surfaced to the scoring thread
            with self._cond:
                self._reader_error = e
                self._cond.notify_all()
            return
        with self._cond:
            self._eof = True
            self._cond.notify_all()

    def _await(self, req_id: int, rest: Sequence[ScoreRequest]) -> ScoreResponse:
        """Wait up to `timeout` for the answer to `req_id`, the first
        missing id of `rest` (the uncollected part of a chunk); the caller
        holds _cond.

        The pump wakes this thread only when the last missing id of `rest`
        arrives, so a child that answers in order costs one wake-up per
        chunk."""
        deadline = time.monotonic() + self.timeout
        while True:
            target = next(req.id for req in reversed(rest) if req.id not in self._pending)
            self._awaited = target
            try:
                self._cond.wait_for(
                    lambda: target in self._pending or self._reader_error is not None
                    or self._eof,
                    timeout=deadline - time.monotonic())
            finally:
                self._awaited = None
            if req_id in self._pending:
                return self._pending.pop(req_id)
            if self._reader_error is not None:
                raise self._reader_error
            if self._eof:
                raise SpawnFailure(f"scorer exited before responding to id {req_id}")
            if time.monotonic() >= deadline:
                raise ScorerTimeout(req_id, self.timeout)

    def _collect(self, chunk: Sequence[ScoreRequest]) -> list[ScoreResponse]:
        """The answers to a sent chunk, in request order."""
        out = []
        with self._cond:
            for i, req in enumerate(chunk):
                resp = self._pending.pop(req.id, None)
                if resp is None:
                    resp = self._await(req.id, chunk[i:])
                out.append(_answer_to(req, resp))
        return out

    def _send(self, chunk: Sequence[ScoreRequest], data: bytes) -> None:
        assert self._proc.stdin is not None
        # registered before the write: a fast child may answer at once
        with self._cond:
            self._outstanding.update(req.id for req in chunk)
        try:
            self._proc.stdin.buffer.write(data)
            self._proc.stdin.buffer.flush()
        except (BrokenPipeError, ValueError) as e:
            with self._cond:
                if self._reader_error is not None:
                    raise self._reader_error
            raise SpawnFailure(f"scorer process went away: {e}") from e

    def score(self, requests: Sequence[ScoreRequest]) -> list[ScoreResponse]:
        out: list[ScoreResponse] = []
        size = max(1, self.window // 2)
        in_flight: deque[Sequence[ScoreRequest]] = deque()
        for start in range(0, len(requests), size):
            chunk = requests[start:start + size]
            try:
                data = _encode_chunk(chunk)
            except UnencodableRequest:
                # answer what was sent, so no id stays outstanding
                for sent in in_flight:
                    self._collect(sent)
                raise
            while in_flight and sum(map(len, in_flight)) + len(chunk) > self.window:
                out.extend(self._collect(in_flight.popleft()))
            self._send(chunk, data)
            in_flight.append(chunk)
        for chunk in in_flight:
            out.extend(self._collect(chunk))
        return out

    def close(self) -> None:
        if self._proc.stdin is not None and not self._proc.stdin.closed:
            try:
                self._proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._reader.join(timeout=10)

    def __del__(self):
        try:
            if self._proc.poll() is None:
                self._proc.kill()
        except Exception:
            pass


def _sidecar_float(line_no: int, field: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as e:
        raise SidecarParseError(line_no, f"bad {field} {text!r}") from e


class SidecarScorer(Scorer):
    """Constant-time lookup scorer backed by a TSV file of recorded scores."""

    def __init__(self, path: str | Path):
        self._scores: dict[int, ScoreResponse] = {}
        with open(path, "r", encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                try:
                    rid = int(fields[0])
                except ValueError as e:
                    raise SidecarParseError(line_no, f"bad id {fields[0]!r}") from e
                if rid in self._scores:
                    raise SidecarParseError(line_no, f"duplicate id {rid}")
                if len(fields) == 2:
                    obj = {"id": rid, "loss": _sidecar_float(line_no, "loss", fields[1])}
                elif len(fields) == 3:
                    obj = {"id": rid, "lang": fields[1],
                           "prob": _sidecar_float(line_no, "prob", fields[2])}
                else:
                    raise SidecarParseError(line_no, "expected 2 or 3 tab-separated fields")
                try:
                    self._scores[rid] = _response_from_object(obj)
                except ValueError as e:
                    raise SidecarParseError(line_no, str(e)) from e

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


def open_scorer(spec: str, timeout: float = DEFAULT_TIMEOUT,
                window: int = DEFAULT_WINDOW) -> Scorer:
    """Open ``spec`` as a sidecar file if it names an existing file, else
    treat it as a command line to launch."""
    if Path(spec).is_file():
        return SidecarScorer(spec)
    return SubprocessScorer(spec, timeout=timeout, window=window)
