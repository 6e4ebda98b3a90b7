"""Command line surface: output lines, exit codes, JSON mode."""

import argparse
import enum
import functools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from conftest import exotic, exotic_chain_spec, relabelled_table

from wbk import catalog_get, catalog_list, cli, compose, enumerate_ideals, ideals, load, solution_of, to_obj
from wbk.cli import COMMANDS, main
from wbk.ideals import _tier

BRAID_BROKEN = {
    "kind": "solution",
    "order": 3,
    "map": [
        [[0, 0], [1, 1], [2, 2]],
        [[0, 1], [1, 2], [2, 0]],
        [[0, 2], [1, 0], [2, 1]],
    ],
}

EVENTUALLY_PERIODIC = {
    "kind": "solution",
    "order": 2,
    "map": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
}

INCOMPATIBLE_PAIR = {
    "kind": "dual_weak_brace",
    "order": 4,
    "add": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]],
    "mul": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def write_json(tmp_path, obj, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert out[-1] == "status: info"
    assert len(out) == 18
    assert any(line.startswith("z6_exotic  [skew_brace]") for line in out)


def test_validate_catalog_entry(capsys):
    code, out, _ = run(capsys, "validate", "--catalog", "z6_exotic")
    assert code == 0
    assert out == ["kind: skew_brace", "order: 6", "valid", "status: pass"]


def test_validate_spec_order(capsys):
    code, out, _ = run(capsys, "validate", "--catalog", "c3_sym3")
    assert code == 0
    assert "kind: strong_semilattice" in out and "order: 9" in out


def test_validate_violation_exit_1(capsys, tmp_path):
    path = write_json(tmp_path, INCOMPATIBLE_PAIR)
    code, out, _ = run(capsys, "validate", "--input", path)
    assert code == 1
    assert out == ["violation: compatibility witness=(1, 1, 1)", "status: fail"]


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "validate")
    assert code == 2 and "exactly one of --input/--catalog" in err
    code, _, err = run(capsys, "validate", "--catalog", "a", "--input", "b")
    assert code == 2
    code, _, err = run(capsys, "validate", "--catalog", "nope")
    assert code == 2 and "no catalog entry" in err
    bad = tmp_path / "bad.json"
    bad.write_text("nonsense", encoding="utf-8")
    code, _, err = run(capsys, "validate", "--input", str(bad))
    assert code == 2 and "error:" in err


def test_unknown_command_exits_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["widget"])
    assert exc.value.code == 2


def test_in_process_calls_share_no_state(capsys):
    # the parser is built once per process: every call must still see only
    # its own arguments, defaults included
    calls = [
        ("ideals", "--catalog", "z6_exotic", "--format", "json"),
        ("ideals", "--catalog", "z6_exotic"),
        ("solve", "--catalog", "z6_exotic", "--limit", "5"),
        ("solve", "--catalog", "z6_exotic"),
        ("series", "gamma", "--catalog", "z6_exotic", "--members", "0,2,4"),
        ("series", "gamma", "--catalog", "z6_exotic"),
        ("ideals", "--catalog", "z6_exotic", "--format", "yaml"),
    ]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = {}
    for argv in calls:
        cli._parser.cache_clear()
        fresh[argv] = outcome(argv)
    assert fresh[calls[-1]][0] == ("exit", 2)
    assert fresh[calls[0]] != fresh[calls[1]] and fresh[calls[2]] != fresh[calls[3]]
    cli._parser.cache_clear()
    for argv in calls + calls[::-1]:
        assert outcome(argv) == fresh[argv], argv
    assert cli._parser.cache_info().misses == 1


def test_option_inventory_is_pinned():
    # the options of every subcommand, in declaration order: a new option,
    # or one moved to another command, has to be written down here
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: [a.option_strings[-1] if a.option_strings else a.dest for a in p._actions
               if not isinstance(a, argparse._HelpAction)]
        for name, p in sub.choices.items()
    }
    assert got == {
        "catalog": ["--format"],
        "validate": ["--input", "--catalog", "--format"],
        "compose": ["--input", "--catalog", "--format"],
        "decompose": ["--input", "--catalog", "--format"],
        "solve": ["--input", "--catalog", "--format", "--limit"],
        "braid": ["--input", "--catalog", "--format"],
        "period": ["--input", "--catalog", "--format"],
        "regularity": ["--input", "--catalog", "--format"],
        "ideals": ["--input", "--catalog", "--format", "--limit"],
        "soc": ["--input", "--catalog", "--format"],
        "fix": ["--input", "--catalog", "--format"],
        "zl": ["--input", "--catalog", "--format"],
        "ann": ["--input", "--catalog", "--format"],
        "quotient": ["--input", "--catalog", "--members", "--format"],
        "homs": ["--input", "--catalog", "--input2", "--catalog2", "--format", "--limit"],
        "iso": ["--input", "--catalog", "--input2", "--catalog2", "--format"],
        "series": ["which", "--input", "--catalog", "--members", "--format"],
        "sandwich": ["--input", "--catalog", "--format"],
        "classify": ["--input", "--catalog", "--format"],
    }
    assert list(got) == list(COMMANDS) and sum(map(len, got.values())) == 65


def _cold(*argv):
    """Run the entry point in a fresh interpreter on the source tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


def test_cold_process_entry_point():
    done = _cold("-m", "wbk.cli", "--help")
    assert done.returncode == 0 and len(COMMANDS) == 19
    listed = done.stdout.split("{", 1)[1].split("}", 1)[0].split(",")
    assert listed == list(COMMANDS)

    done = _cold("-m", "wbk.cli", "validate", "--catalog", "z6_exotic")
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines() == ["kind: skew_brace", "order: 6", "valid", "status: pass"]

    done = _cold("-m", "wbk.cli", "widget")
    assert done.returncode == 2 and done.stdout == ""
    assert "invalid choice: 'widget'" in done.stderr and "Traceback" not in done.stderr

    # importing the command line builds no parser
    done = _cold("-c", "import wbk.cli; print(wbk.cli._parser.cache_info().currsize)")
    assert done.returncode == 0 and done.stdout == "0\n"


def test_braid_pass_and_fail(capsys, tmp_path):
    code, out, _ = run(capsys, "braid", "--catalog", "z6_exotic")
    assert code == 0 and out == ["216 triples checked", "status: pass"]
    path = write_json(tmp_path, BRAID_BROKEN)
    code, out, _ = run(capsys, "braid", "--input", path)
    assert code == 1 and out == ["BRAID-FAIL 0 0 1", "status: fail"]


def test_period_and_no_period(capsys, tmp_path):
    code, out, _ = run(capsys, "period", "--catalog", "z6_exotic")
    assert code == 0 and out == ["period 2", "status: pass"]
    path = write_json(tmp_path, EVENTUALLY_PERIODIC)
    code, out, _ = run(capsys, "period", "--input", path)
    assert code == 1 and out == ["NO-PERIOD tail=1 cycle=1", "status: fail"]


def _pair_map(order, cycles, path=0):
    """A solution file whose map on the order² pairs (a, b) ~ a·order + b
    has the given cycle lengths on the first pairs, then a path of that
    many pairs, each mapped to the one before and the first into pair 0;
    every other pair is fixed."""
    succ = list(range(order * order))
    start = 0
    for c in cycles:
        for k in range(c):
            succ[start + k] = start + (k + 1) % c
        start += c
    for k in range(path):
        succ[start + k] = start + k - 1 if k else 0
    return {"kind": "solution", "order": order,
            "map": [[list(divmod(succ[a * order + b], order)) for b in range(order)] for a in range(order)]}


def test_period_without_walking_the_powers(capsys, tmp_path):
    # the powers recur after lcm(8, 3, 5, 7, 11, 13) = 120,120 steps, each
    # a table of 49 pairs; the period comes from the cycles themselves
    path = write_json(tmp_path, _pair_map(7, (8, 3, 5, 7, 11, 13)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "period", "--input", path)
    assert code == 0 and out == ["period 120120", "status: pass"]
    assert time.perf_counter() - start < 0.1
    # cycles of 3 and 2 pairs and a path of 4 into the first: r^4 = r^10
    path = write_json(tmp_path, _pair_map(3, (3, 2), path=4))
    code, out, _ = run(capsys, "period", "--input", path)
    assert code == 1 and out == ["NO-PERIOD tail=3 cycle=6", "status: fail"]


def test_solve_rows_and_limit(capsys):
    code, out, _ = run(capsys, "solve", "--catalog", "c2_trivial")
    assert code == 0
    assert out[0] == "order: 2" and "0 1 -> 1 0" in out
    code, out, _ = run(capsys, "solve", "--catalog", "c3_sym3", "--limit", "5")
    assert out[0] == "order: 9" and out[-2] == "truncated"
    assert len(out) == 8


def test_negative_limit_is_a_usage_error(capsys):
    homs = ("homs", "--catalog", "c3_trivial", "--catalog2", "sym3_trivial")
    for argv in (("ideals", "--catalog", "z6_exotic", "--limit", "-1"), (*homs, "--limit", "-2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == [] and "--limit must not be negative" in err, argv
    code, out, _ = run(capsys, *homs, "--limit", "0")
    assert code == 0 and out == ["count: 3", "truncated", "status: pass"]


def test_options_exist_only_where_they_are_read(capsys):
    # --limit cuts only the listings of solve, ideals and homs; catalog reads
    # no input; only series gamma starts from --members
    for argv in (
        ("braid", "--catalog", "z6_exotic", "--limit", "-1"),
        ("braid", "--catalog", "z6_exotic", "--limit", "5"),
        ("catalog", "--input", "/nonexistent"),
        ("catalog", "--catalog", "z6_exotic"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    for which in ("right", "socle", "ann"):
        code, out, err = run(capsys, "series", which, "--catalog", "z6_exotic", "--members", "0,1")
        assert code == 2 and out == [] and "--members applies to series gamma only" in err, which
    done = _cold("-m", "wbk.cli", "braid", "--catalog", "z6_exotic", "--limit", "5")
    assert done.returncode == 2 and done.stdout == "" and "Traceback" not in done.stderr


def test_special_sets(capsys):
    code, out, _ = run(capsys, "soc", "--catalog", "z6_exotic")
    assert code == 0 and out[:2] == ["{0, 2, 4} I", "size: 3"]
    code, out, _ = run(capsys, "ann", "--catalog", "z6_exotic")
    assert out[:2] == ["{0} I", "size: 1"]
    code, out, _ = run(capsys, "fix", "--catalog", "z6_exotic")
    assert out[0].startswith("{0, 3}")
    code, out, _ = run(capsys, "zl", "--catalog", "z6_exotic")
    assert out[1] == "size: 2"


def test_ideals_listing(capsys):
    code, out, _ = run(capsys, "ideals", "--catalog", "z6_exotic")
    assert code == 0
    assert out[:2] == ["mode: exhaustive", "count: 3"]
    assert out[2:5] == ["{0} I", "{0, 2, 4} I", "{0, 1, 2, 3, 4, 5} I"]


def test_ideals_tier_column_on_z2_4(capsys, tmp_path):
    # every enumerated ideal has passed the whole law ladder, so the column
    # reads I, which is also what _tier says of each of them
    table = [[a ^ b for b in range(16)] for a in range(16)]
    path = write_json(tmp_path, {"kind": "skew_brace", "order": 16, "add": table, "mul": table})
    code, out, _ = run(capsys, "ideals", "--input", path)
    assert code == 0 and out[:2] == ["mode: exhaustive", "count: 67"] and out[-1] == "status: pass"
    rows = out[2:-1]
    assert rows[:2] == ["{0} I", "{0, 1} I"] and len(rows) == 67
    s = load(path).as_dual()
    listed = enumerate_ideals(s).ideals
    assert rows == [f"{{{', '.join(map(str, sorted(x)))}}} {_tier(s, x)}" for x in listed]


def test_quotient_output(capsys):
    code, out, _ = run(capsys, "quotient", "--catalog", "z6_exotic", "--members", "0,2,4")
    assert code == 0
    assert out == [
        "order: 2",
        "projection: [0, 1, 0, 1, 0, 1]",
        "representatives: [0, 1]",
        "status: pass",
    ]


def test_quotient_rejects_non_ideal(capsys):
    code, out, _ = run(capsys, "quotient", "--catalog", "z6_exotic", "--members", "0,3")
    assert code == 1
    assert out == ["not an ideal: not_normal witness=(1, 3)", "status: fail"]
    code, _, err = run(capsys, "quotient", "--catalog", "z6_exotic", "--members", "0,9")
    assert code == 2 and "out of range" in err


def test_quotient_needs_well_formed_members(capsys):
    for extra, message in (([], "this command needs --members a,b,c"),
                           (["--members", "0,x"], "bad --members value '0,x'")):
        code, out, err = run(capsys, "quotient", "--catalog", "z6_exotic", *extra)
        assert (code, out, err) == (2, [], f"error: {message}\n"), extra


def test_homs_listing(capsys):
    code, out, _ = run(
        capsys, "homs", "--catalog", "c3_trivial", "--catalog2", "sym3_trivial"
    )
    assert code == 0
    assert out[0] == "count: 3"
    assert "[0, 3, 4]" in out
    code, out, _ = run(
        capsys, "homs", "--catalog", "c3_trivial", "--catalog2", "sym3_trivial",
        "--limit", "1",
    )
    assert out[-2] == "truncated" and len(out) == 4
    code, _, err = run(capsys, "homs", "--catalog", "c2", "--catalog2", "c2")
    assert code == 2 and "skew_brace" in err


def test_iso_verdicts(capsys):
    code, out, _ = run(capsys, "iso", "--catalog", "z6_exotic", "--catalog2", "c6_trivial")
    assert code == 1 and out == ["not isomorphic", "status: fail"]
    code, out, _ = run(capsys, "iso", "--catalog", "z6_exotic", "--catalog2", "z6_exotic")
    assert code == 0 and out[0] == "isomorphic"
    assert out[1] == "eta: [0]"


def test_series_lines(capsys):
    code, out, _ = run(capsys, "series", "right", "--catalog", "z6_exotic")
    assert code == 0
    assert out[0] == "right: |S⁽¹⁾|=6 → |S⁽²⁾|=3 → |S⁽³⁾|=1 (terminated, index 2)"
    code, out, _ = run(capsys, "series", "ann", "--catalog", "z6_exotic")
    assert code == 0
    assert out == ["annihilator: |Ann₀|=1 (stalled, no index)", "status: info"]
    code, out, _ = run(capsys, "series", "socle", "--catalog", "c3_sym3")
    assert out[0] == "socle: |Soc₀|=2 (stalled, no index)"
    code, out, _ = run(
        capsys, "series", "gamma", "--catalog", "z6_exotic", "--members", "0,2,4"
    )
    assert out == ["gamma: |Γ₀|=3 (stalled, no index)", "status: info"]


def test_sandwich_both_ways(capsys):
    code, out, _ = run(capsys, "sandwich", "--catalog", "c2_c4_braces")
    assert code == 0
    assert out[0] == "annihilator series terminates at index 1"
    assert out[2] == "sandwich verified on 2 positions"
    code, out, _ = run(capsys, "sandwich", "--catalog", "z6_exotic")
    assert code == 1
    assert out[0] == "annihilator series stalls at size 1; no annihilator series exists"


def test_compose_decompose_commands(capsys):
    code, out, _ = run(capsys, "compose", "--catalog", "c3_sym3")
    assert code == 0
    assert out[:3] == ["order: 9", "components: 2", "idempotents: {0, 3}"]
    code, _, err = run(capsys, "compose", "--catalog", "z6_exotic")
    assert code == 2 and "strong_semilattice" in err
    code, out, _ = run(capsys, "decompose", "--catalog", "c3_sym3")
    assert out == [
        "components: 2",
        "component 0: order 3",
        "component 1: order 6",
        "hom 0>1: [0, 3, 4]",
        "status: pass",
    ]


def test_regularity_report(capsys):
    code, out, _ = run(capsys, "regularity", "--catalog", "z6_exotic")
    assert code == 0
    assert out[:2] == ["lambda bijective: 6/6", "rho bijective: 6/6"]


def test_classify_report(capsys):
    code, out, _ = run(capsys, "classify", "--catalog", "c3_sym3")
    assert code == 0
    assert out[0] == "order: 9" and out[1] == "idempotents: 2"
    assert "component 0 (order 3):" in out and "component 1 (order 6):" in out
    assert out[-1] == "status: info"


def test_json_format(capsys):
    code, out, _ = run(capsys, "braid", "--catalog", "z6_exotic", "--format", "json")
    assert code == 0
    obj = json.loads("\n".join(out))
    assert obj == {
        "command": "braid",
        "status": "pass",
        "lines": ["216 triples checked"],
        "witnesses": [],
    }
    code, out, _ = run(
        capsys, "iso", "--catalog", "z6_exotic", "--catalog2", "c6_trivial",
        "--format", "json",
    )
    assert code == 1
    assert json.loads("\n".join(out))["status"] == "fail"


def test_json_writer_is_json_dumps_indent_2():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.integers() | st.sampled_from([-1, 0, 2**63, -(2**100), 10**40])
    texts = st.text() | st.sampled_from(['"', "\\", '"q"\\\n\t', "é", " ", "😀", "\x00"])
    scalars = st.none() | st.booleans() | ints | st.floats() | texts
    leaves = scalars | st.lists(ints) | st.lists(ints).map(tuple)
    trees = st.recursive(
        leaves,
        lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(texts, kids),
        max_leaves=20,
    )

    @hypothesis.given(trees)
    @hypothesis.example([float("nan"), float("inf"), -float("inf"), True, 1, [], {}, ()])
    @hypothesis.example([float("nan"), -0.0, 1e300, False, None, 'é"\\', 2**70, -3])
    @hypothesis.example(functools.reduce(lambda x, k: {k: [x, (), [k]]}, "abcdefghijklmnopqrst", [1, -2]))
    def check(obj):
        assert cli._json(obj) == json.dumps(obj, indent=2)

    check()


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


def test_json_writer_formats_int_rows_as_json_dumps():
    # the one-template path for rows of plain ints, and every near miss
    # that must take the old path: ragged or empty rows, bools, IntEnum
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.integers() | st.sampled_from([0, -1, 255, 2**70, -(10**30)])
    cells = ints | st.booleans() | st.sampled_from(list(Level))

    def seqs(items, lo, hi):
        return st.lists(items, min_size=lo, max_size=hi) | st.lists(items, min_size=lo, max_size=hi).map(tuple)

    def tables(items):
        # rows of one length k, 0 to 5
        return st.integers(0, 5).flatmap(lambda k: st.lists(seqs(items, k, k), max_size=6))

    rows = tables(ints) | tables(cells) | st.lists(seqs(ints, 0, 5), max_size=6)
    trees = st.recursive(
        rows,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=4),
        max_leaves=8,
    )

    @hypothesis.given(trees)
    @hypothesis.example([[0, 1, 2], (3, 4, 5), [2**70, -1, 0]])
    @hypothesis.example([[0, 1], [2]])
    @hypothesis.example([[], []])
    @hypothesis.example([[0, True], [1, 0]])
    @hypothesis.example([[0, Level.HIGH], [1, 0]])
    @hypothesis.example({"witnesses": [[1, 2], [3, 4]], "lines": [[5], [6]]})
    @hypothesis.example([[[0, 1], [1, 0]], [[1, 0], [0, 1]]])
    def check(obj):
        assert cli._json(obj) == json.dumps(obj, indent=2)

    check()


def test_bad_max_order_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WBK_MAX_ORDER", "abc")
    code, out, err = run(capsys, "ideals", "--catalog", "z6_exotic")
    assert code == 2 and out == []
    assert "WBK_MAX_ORDER" in err and "Traceback" not in err


def test_exhaustive_ideals_above_bound_is_a_usage_error(capsys, tmp_path):
    # the order alone picks the search: there is no --mode to ask for the
    # exhaustive one, and order-24 exotic Z24, a*b = a + (-1)^a b, reads closure
    n = 24
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a + (-1) ** a * b) % n for b in range(n)] for a in range(n)]
    path = write_json(tmp_path, {"kind": "skew_brace", "order": n, "add": add, "mul": mul})
    with pytest.raises(SystemExit) as exc:
        main(["ideals", "--input", path, "--mode", "exhaustive"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --mode exhaustive" in captured.err
    assert "Traceback" not in captured.err
    code, out, _ = run(capsys, "ideals", "--input", path)
    assert code == 0 and out[0] == "mode: closure"


def test_malformed_shapes_are_parse_errors(capsys, tmp_path):
    spec_obj = to_obj(catalog_get("c3_sym3"))
    spec_obj["homs"]["0>1"] = 7
    cases = [{"kind": "group", "op": 5}, {"kind": "group", "op": [[0, 1], 1]}, spec_obj]
    for obj in cases:
        path = write_json(tmp_path, obj)
        code, out, err = run(capsys, "validate", "--input", path)
        assert code == 2 and out == [] and err.startswith("error: "), obj


def test_closure_ideals_count_the_subgroups_of_elementary_abelian_groups(
    capsys, monkeypatch, tmp_path
):
    # (Z2)^k as a trivial brace: its ideals are its subgroups, counted by the
    # Gaussian binomials [k, d]_2 summed over the dimension d; closure forced
    # at every order by moving the exhaustive bound below it
    monkeypatch.setenv("WBK_MAX_ORDER", "64")
    monkeypatch.setattr(ideals, "EXHAUSTIVE_BOUND", 0)
    for k, want in ((4, 67), (5, 374), (6, 2825)):
        count = 0
        for d in range(k + 1):
            num = den = 1
            for i in range(d):
                num *= 2 ** k - 2 ** i
                den *= 2 ** d - 2 ** i
            count += num // den
        assert count == want
        n = 1 << k
        table = [[a ^ b for b in range(n)] for a in range(n)]
        path = write_json(tmp_path, {"kind": "skew_brace", "order": n, "add": table, "mul": table})
        code, out, err = run(capsys, "ideals", "--input", path, "--format", "json")
        assert code == 0 and err == ""
        rep = json.loads("\n".join(out))
        listed = rep["witnesses"][0]
        assert rep["lines"][:2] == ["mode: closure", f"count: {want}"]
        assert len(rep["lines"]) - 2 == len(listed) == len({tuple(x) for x in listed}) == want
        for x in listed:
            members = set(x)
            assert 0 in members and all(a ^ b in members for a in x for b in x), (k, x)


def _changed(obj, path, a, b, step):
    """A copy of obj with entry (a, b) of the table at path moved by step."""
    obj = json.loads(json.dumps(obj))
    table = obj
    for key in path:
        table = table[key]
    table[a][b] = (table[a][b] + step) % len(table)
    return obj


def test_violation_and_braid_fail_lines_are_pinned(capsys, tmp_path):
    sb = to_obj(exotic(8))
    spec = exotic_chain_spec((4, 2))
    dwb, ss = to_obj(compose(spec)), to_obj(spec)
    sol = to_obj(solution_of(exotic(8).as_dual()))
    sol["map"][2][5].reverse()
    chain_sol = to_obj(solution_of(compose(spec)))
    chain_sol["map"][4][1] = [0, 0]
    cases = [
        ("validate", _changed(sb, ["add"], 3, 5, 1), "violation: no_inverse side=add witness=(3,)"),
        ("validate", _changed(sb, ["add"], 5, 6, 3), "violation: not_associative side=add witness=(1, 4, 6)"),
        ("braid", _changed(sb, ["mul"], 3, 5, 1), "violation: not_associative side=mul witness=(1, 3, 5)"),
        ("validate", dict(sb, mul=relabelled_table(sb["mul"], [0, 3, 7, 5, 4, 2, 6, 1])),
         "violation: compatibility witness=(2, 1, 1)"),
        ("validate", dict(sb, mul=relabelled_table(sb["mul"], [0, 4, 3, 5, 7, 2, 1, 6])),
         "violation: compatibility witness=(1, 1, 2)"),
        ("validate", _changed(dwb, ["add"], 3, 5, 1), "violation: not_associative side=add witness=(1, 2, 5)"),
        ("period", _changed(dwb, ["mul"], 1, 3, 2), "violation: not_associative side=mul witness=(1, 1, 2)"),
        ("validate", dict(dwb, mul=relabelled_table(dwb["mul"], [0, 1, 3, 2, 4, 5])),
         "violation: compatibility witness=(2, 4, 4)"),
        ("validate", _changed(ss, ["braces", "0", "add"], 2, 1, 1),
         "violation: not_associative side=add witness=(1, 1, 1)"),
        ("decompose", _changed(ss, ["braces", "0", "mul"], 1, 3, 2),
         "violation: not_associative side=mul witness=(1, 1, 2)"),
        ("braid", sol, "BRAID-FAIL 1 2 5"),
        ("braid", chain_sol, "BRAID-FAIL 0 4 1"),
    ]
    for cmd, obj, line in cases:
        code, out, _ = run(capsys, cmd, "--input", write_json(tmp_path, obj))
        assert (code, out) == (1, [line, "status: fail"]), (cmd, line)


FUZZ_TOKENS = (b"[", b"]", b"{", b"}", b",", b":", b'"', b"null", b"true", b"-1", b"1.5", b"1e400",
               b"NaN", b"123456789012345678901234567890", b'"0>1"', b'"kind"', b"\\u00ff")
FUZZ_VALUES = (None, True, 1.5, -1, 10**20, "x", "group", [], {}, [[]], [[0]], [[0, 0], [0, 0]])
FUZZ_COMMANDS = (
    ("validate",), ("compose",), ("decompose",), ("solve",), ("braid",), ("period",),
    ("regularity",), ("ideals",), ("soc",), ("fix",), ("zl",), ("ann",),
    ("quotient", "--members", "0"), ("series", "gamma"), ("series", "socle"), ("sandwich",),
    ("classify",), ("homs", "--catalog2", "c2_trivial"), ("iso", "--catalog2", "z6_exotic"),
)


def _slots(x, out):
    """Every (container, key) pair in a parsed JSON value, depth first."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, v in items:
        out.append((x, key))
        _slots(v, out)
    return out


def _mutant(rng, obj) -> bytes:
    """obj as JSON with one seeded byte flip, truncation, token insertion or
    field-type swap."""
    data = bytearray(json.dumps(obj), "utf-8")
    how = rng.randrange(4)
    if how == 0:
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
    elif how == 1:
        del data[rng.randrange(len(data)):]
    elif how == 2:
        at = rng.randrange(len(data) + 1)
        data[at:at] = rng.choice(FUZZ_TOKENS)
    else:
        obj = json.loads(data)
        container, key = rng.choice(_slots(obj, []))
        container[key] = rng.choice(FUZZ_VALUES)
        data = bytearray(json.dumps(obj), "utf-8")
    return bytes(data)


def test_fuzzed_files_keep_the_exit_code_contract(capsys, tmp_path):
    # a malformed file is a parse error (2) or a violation (1), never a traceback
    rng = random.Random(0)
    bases = [to_obj(catalog_get(name)) for name, _, _ in catalog_list()]
    bases.append(to_obj(solution_of(catalog_get("z6_exotic").as_dual())))
    path = tmp_path / "fuzz.json"
    codes = Counter()
    for i in range(3000):
        path.write_bytes(_mutant(rng, rng.choice(bases)))
        cmd = FUZZ_COMMANDS[i % len(FUZZ_COMMANDS)]
        code, out, err = run(capsys, cmd[0], "--input", str(path), *cmd[1:])
        assert code in (0, 1, 2), cmd
        assert err.startswith("error: ") if code == 2 else out[-1].startswith("status: "), cmd
        codes[code] += 1
    assert set(codes) == {0, 1, 2}, codes


def test_internal_error_exits_3_without_a_traceback(capsys, monkeypatch):
    # a failing cross-check is a fault of the program: its own exit code,
    # one stderr line; sys.modules, since wbk.compose is the function
    monkeypatch.setattr(sys.modules["wbk.compose"], "_first_non_hom", lambda f, pairs: (0, 0, 0))
    code, out, err = run(capsys, "decompose", "--catalog", "c3_sym3")
    assert code == 3 and out == []
    assert err == "internal error: rebuilt components or homs fail validation: not_a_hom witness=((0, 1), (0, 0))\n"
    assert "Traceback" not in err
