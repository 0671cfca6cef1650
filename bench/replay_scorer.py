"""Replay scorer: serves planned language-ID and quality answers over the
forge scorer line protocol.

    python3 bench/replay_scorer.py TABLE.json

TABLE.json holds {"langid": {id: [text, lang, prob]}, "quality": {id:
[src, trg, src_line, tgt_line, loss]}}. A request is answered only if it
carries exactly the planned text; otherwise the reply has no score fields,
which the client must reject as a protocol violation.
"""
from __future__ import annotations

import json
import sys


def respond(table: dict, request: dict) -> dict:
    kind, rid = request.get("kind"), request.get("id")
    entry = table.get(kind, {}).get(str(rid))
    if kind == "langid" and entry is not None and request.get("text") == entry[0]:
        return {"id": rid, "lang": entry[1], "prob": entry[2]}
    if kind == "quality" and entry is not None and [
            request.get(k) for k in ("src", "trg", "src_line", "tgt_line")] == entry[:4]:
        return {"id": rid, "loss": entry[4]}
    return {"id": rid, "error": "request does not match the replay table"}


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as f:
        table = json.load(f)
    for line in sys.stdin:
        if line.strip():
            sys.stdout.write(json.dumps(respond(table, json.loads(line)),
                                        ensure_ascii=False) + "\n")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
