"""Exception types shared across the toolkit.

Every domain error derives from ForgeError so the CLI can map them to
exit code 1 (usage errors exit 2 via argparse).
"""
from __future__ import annotations


class ForgeError(Exception):
    """Base class for all domain errors."""


class MalformedLine(ForgeError):
    """An input line that cannot be parsed into a record."""

    def __init__(self, line_no: int, reason: str = ""):
        self.line_no = line_no
        self.reason = reason
        msg = f"malformed line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class EmptyDevSet(ForgeError):
    """Quality threshold requested on an empty development-loss list."""


class EmptyTemplatePool(ForgeError):
    """Instruction formatting needs at least one template."""


class ScorerFailure(ForgeError):
    """Base class for scorer transport errors."""


class SpawnFailure(ScorerFailure):
    """Scorer subprocess could not be launched."""


class ProtocolViolation(ScorerFailure):
    """Scorer emitted a line that does not follow the wire protocol."""

    def __init__(self, line: str, reason: str = ""):
        self.line = line
        self.reason = reason
        super().__init__(f"protocol violation: {reason or line!r}")


class ScorerTimeout(ScorerFailure):
    """No response for a request id before the deadline."""

    def __init__(self, request_id: int, deadline: float):
        self.request_id = request_id
        super().__init__(f"no response for id {request_id} within {deadline}s")


class ScoreKindMismatch(ScorerFailure):
    """A response carries the other kind of score than its request asked
    for: lang/prob for a quality request, or loss for a language-ID one."""

    def __init__(self, request_id: int, request_kind: str, response_kind: str):
        self.request_id = request_id
        self.request_kind = request_kind
        self.response_kind = response_kind
        super().__init__(f"id {request_id}: {request_kind} request answered "
                         f"with a {response_kind} score")


class UnencodableRequest(ScorerFailure):
    """A request's text cannot be written as UTF-8 (a lone surrogate)."""

    def __init__(self, request_id: int, reason: str = ""):
        self.request_id = request_id
        super().__init__(f"id {request_id}: request text cannot be encoded "
                         f"as UTF-8 ({reason})")


class MissingScore(ScorerFailure):
    """Sidecar file has no entry for a queried id."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        super().__init__(f"sidecar has no score for id {request_id}")


class SidecarParseError(ScorerFailure):
    """Sidecar file line is unparseable or duplicates an id."""

    def __init__(self, path, line_no: int, reason: str = ""):
        self.line_no = line_no
        super().__init__(f"sidecar parse error at {path} line {line_no}: {reason}")


class AllMasked(ForgeError):
    """A loss was requested on a batch with no supervised positions."""


class OverlappingStages(ForgeError):
    """Bottom-k and top-m layer sets intersect after skips."""


class OutOfRange(ForgeError, ValueError):
    """A number lies outside its range: a config field, a flag, or a key
    of a training mode. It is also a ValueError, so code that catches a
    bad value as one still does."""


class NonFiniteInput(ForgeError):
    """A numeric routine received NaN or infinity."""
