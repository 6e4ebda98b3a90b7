"""The CLI output on the catalog, pinned by digest.

One sha256 per (command, format) covers (argv, exit code, stdout, stderr)
of that command on every catalog entry, so any change to the text or JSON
a command prints fails here.  After an intended output change, re-record:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from wbk import catalog_list, catalog_structures
from wbk.cli import COMMANDS, main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
FORMATS = ("text", "json")


def _argvs(command: str) -> list:
    """The argument lists a command runs on, one or more per catalog entry."""
    if command == "catalog":
        return [[command]]
    idempotents = dict(catalog_structures())
    out = []
    for name, _, _ in catalog_list():
        args = [command, "--catalog", name]
        if command in ("homs", "iso"):
            out.append(args + ["--catalog2", name])
        elif command == "quotient":
            s = idempotents.get(name)
            members = "0" if s is None else ",".join(map(str, s.idempotents))
            out.append(args + ["--members", members])
        elif command == "series":
            out += [[command, which] + args[1:] for which in ("right", "socle", "ann", "gamma")]
        else:
            out.append(args)
    return out


def _run(argv: list) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


def digests() -> dict:
    got = {}
    for command in COMMANDS:
        for fmt in FORMATS:
            runs = [_run(argv + ["--format", fmt]) for argv in _argvs(command)]
            blob = json.dumps(runs, ensure_ascii=False).encode()
            got[f"{command} {fmt}"] = hashlib.sha256(blob).hexdigest()
    return got


def test_cli_output_matches_the_recorded_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert got.keys() == want.keys()
    changed = sorted(key for key in want if got[key] != want[key])
    assert not changed, f"CLI output changed for {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
