"""The CLI output on the catalog and on generated inputs, pinned by digest.

One sha256 per (command, format) covers (argv, exit code, stdout, stderr)
of that command on every input of a set, so any change to the text or JSON
a command prints fails here.  The catalog set runs on every catalog entry;
the generated set runs on exotic Z8, Z12 and Z16, the exotic chain
(8, 4, 2), the non-chain and the opposites of all five, written to
temporary files whose paths appear in argv as fixed labels.  Every JSON
report of both sets must also read as json.dumps(report, indent=2).  After
an intended output change, re-record both sets:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from conftest import exotic, exotic_chain, exotic_chain_spec, non_chain
from wbk import catalog_list, catalog_structures, dumps
from wbk.cli import COMMANDS, _as_dual, main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
GOLDEN_GENERATED = DATA / "cli_golden_generated.json"
FORMATS = ("text", "json")


def _argvs(command: str, sources: list) -> list:
    """The argument lists a command runs on, one or more per source; a
    source is (input option, second input option, name, idempotents)."""
    out = []
    for opt, opt2, name, idempotents in sources:
        args = [command, opt, name]
        if command in ("homs", "iso"):
            out.append(args + [opt2, name])
        elif command == "quotient":
            out.append(args + ["--members", ",".join(map(str, idempotents))])
        elif command == "series":
            out += [[command, which, opt, name] for which in ("right", "socle", "ann", "gamma")]
        else:
            out.append(args)
    return out


def _catalog_sources() -> list:
    idempotents = dict(catalog_structures())
    return [
        ("--catalog", "--catalog2", name, idempotents[name].idempotents if name in idempotents else (0,))
        for name, _, _ in catalog_list()
    ]


def _generated_inputs() -> dict:
    """label -> structure: three exotic skew braces, a chain spec, the
    non-chain, and the opposite of each as a dual weak brace."""
    zs = {f"z{n}_exotic": exotic(n) for n in (8, 12, 16)}
    duals = {name: b.as_dual() for name, b in zs.items()}
    duals["chain_8_4_2"] = exotic_chain((8, 4, 2))
    duals["non_chain"] = non_chain()
    opposites = {f"{name}_op": s.opposite() for name, s in duals.items()}
    return {**zs, "chain_8_4_2": exotic_chain_spec((8, 4, 2)), "non_chain": duals["non_chain"], **opposites}


def _run(argv: list, paths: dict) -> list:
    """Run argv with each label in paths swapped for its file; the record
    keeps the labels."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([paths.get(a, a) for a in argv])
    return [argv, code, out.getvalue(), err.getvalue()]


def _runs(argvs, paths: dict) -> dict:
    """"command format" -> the runs of that command in that format."""
    got = {}
    for command in COMMANDS:
        for fmt in FORMATS:
            runs = [_run(argv + ["--format", fmt], paths) for argv in argvs(command)]
            if runs:
                got[f"{command} {fmt}"] = runs
    return got


def runs() -> dict:
    def argvs(command: str) -> list:
        return [[command]] if command == "catalog" else _argvs(command, _catalog_sources())

    return _runs(argvs, {})


def generated_runs(workdir: Path) -> dict:
    """The runs of every command but catalog on the generated inputs, whose
    files go into workdir."""
    sources, paths = [], {}
    for name, x in _generated_inputs().items():
        label = f"<{name}>"
        paths[label] = str(workdir / f"{name}.json")
        Path(paths[label]).write_text(dumps(x))
        sources.append(("--input", "--input2", label, _as_dual(x).idempotents))
    return _runs(lambda c: [] if c == "catalog" else _argvs(c, sources), paths)


def _digests(runs: dict) -> dict:
    return {key: hashlib.sha256(json.dumps(r, ensure_ascii=False).encode()).hexdigest()
            for key, r in runs.items()}


def _check(want: dict, runs: dict) -> None:
    """The digests match want, and every JSON report is
    json.dumps(report, indent=2) byte for byte."""
    got = _digests(runs)
    assert got.keys() == want.keys()
    changed = sorted(key for key in want if got[key] != want[key])
    assert not changed, f"CLI output changed for {changed}"
    reports = [out for key in runs if key.endswith(" json") for argv, code, out, err in runs[key] if out]
    assert len(reports) > 100
    for out in reports:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_cli_output_matches_the_recorded_digests():
    _check(json.loads(GOLDEN.read_text()), runs())


def test_cli_output_on_generated_inputs_matches_the_recorded_digests(tmp_path):
    _check(json.loads(GOLDEN_GENERATED.read_text()), generated_runs(tmp_path))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    DATA.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_digests(runs()), indent=1, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        generated = _digests(generated_runs(Path(tmp)))
    GOLDEN_GENERATED.write_text(json.dumps(generated, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} and {GOLDEN_GENERATED}")
