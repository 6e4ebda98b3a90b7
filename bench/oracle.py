"""Known-answer checks on one job's result, independent of wbk.

`check(job, code, out, err)` returns None when the result agrees with what
the generator knows about the input, else a one-line reason.  Every job
must exit 0 or 1, print no traceback and print one JSON report naming its
command; the `expect` dict of the job then says what else must hold.
"""

from __future__ import annotations

import json


def _is_iso(g, add, mul, add2, mul2) -> bool:
    n = len(add)
    if sorted(g) != list(range(n)):
        return False
    return all(
        g[add[a][b]] == add2[g[a]][g[b]] and g[mul[a][b]] == mul2[g[a]][g[b]]
        for a in range(n)
        for b in range(n)
    )


def check(job, code, out: str, err: str) -> str | None:
    if "Traceback" in err or "Traceback" in out:
        return "traceback"
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        rep = json.loads(out)
    except ValueError:
        return "stdout is not one JSON report"
    if rep.get("command") != job.argv[0]:
        return f"report names command {rep.get('command')!r}"
    status, lines, wit = rep.get("status"), rep.get("lines"), rep.get("witnesses")
    if (code == 0) != (status in ("pass", "info")):
        return f"status {status!r} with exit code {code}"
    exp = job.expect
    kind = exp["check"]
    if kind == "any":
        return None
    if kind == "violation":
        if code != 1 or not any(line.startswith("violation:") for line in lines):
            return "corrupted input not rejected with a violation"
        return None
    if kind == "noniso":
        return None if code == 1 and lines == ["not isomorphic"] else "non-isomorphic pair reported isomorphic"
    if code != exp.get("code", 0):
        return f"exit code {code}, expected {exp.get('code', 0)}"
    if kind == "status":
        return None if status == exp["status"] else f"status {status!r}"
    if kind == "lines":
        if lines != exp["lines"]:
            return f"lines {lines[:4]!r} differ from {exp['lines'][:4]!r}"
        if "witness" in exp and wit != [exp["witness"]]:
            return "composed tables differ from the independent gluing"
        return None
    if kind == "ideals":
        if lines[0] != f"mode: {exp['mode']}":
            return f"{lines[0]!r}, expected mode {exp['mode']}"
        count = len(wit[0])
        if lines[1] != f"count: {count}":
            return "count line disagrees with the ideals listed"
        if exp["count"] is not None and count != exp["count"]:
            return f"{count} ideals, expected {exp['count']}"
        return None
    if kind == "set":
        return None if wit == [exp["members"]] else f"set {wit!r} differs from {exp['members']!r}"
    if kind == "iso":
        if lines[0] != "isomorphic" or not _is_iso(wit[0], exp["add"], exp["mul"], exp["add2"], exp["mul2"]):
            return "printed map is not an isomorphism"
        return None
    if kind == "homs":
        n = exp["count"]
        if lines[0] != f"count: {n}" or len(wit) != n or len({tuple(f) for f in wit}) != n:
            return f"{lines[0]!r} with {len(wit)} maps, expected {n} distinct maps"
        shown = [str(f) for f in wit[:5]] + (["truncated"] if n > 5 else [])
        if lines[1:] != shown:
            return "--limit 5 listing differs from the first maps"
        return None
    raise ValueError(f"unknown check {kind!r}")
