"""Tests of the benchmark's own parts: the generator, the oracle's closed
forms and the tracer's arithmetic.  Run with `python3 -m pytest bench`."""

from __future__ import annotations

import os
import sys
import types
from itertools import combinations, product
from math import gcd

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# -- generator ------------------------------------------------------------------


def _snapshot(tmp_path, name, workload, seed):
    wd = tmp_path / name
    wd.mkdir()
    blocks = gen.build(workload, seed, str(wd), 2)
    files = {p.name: p.read_bytes() for p in sorted(wd.iterdir())}
    jobs = [[(tuple(os.path.basename(a) for a in j.argv), j.expect) for j in b] for b in blocks]
    return files, jobs


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_files_and_jobs(tmp_path, workload):
    first = _snapshot(tmp_path, "a", workload, 7)
    assert _snapshot(tmp_path, "b", workload, 7) == first
    assert _snapshot(tmp_path, "c", workload, 8) != first


def test_verify_corrupts_a_fifth_and_keeps_the_top_jobs_valid(tmp_path):
    block = gen.build("verify", 3, str(tmp_path), 1)[0]
    corrupted = [j for j in block if j.expect["check"] == "violation"]
    assert len(corrupted) == round(len(block) / 5)
    top = [j for j in block if j.argv[0] == "braid" and j.argv[2].endswith("exotic-64.json")]
    assert len(top) >= gen.TOP_REPEATS


def test_stratified_draws_one_value_per_stratum():
    rng = gen.random.Random(1)
    values = list(range(21))
    for _ in range(50):
        got = gen.stratified(rng, values, 7)
        assert [v // 3 for v in got] == list(range(7))


def test_chain_candidates_are_divisor_chains():
    for orders in gen.chain_candidates((2, 3, 4), 48):
        assert 2 <= len(orders) <= 4 and sum(orders) <= 48
        assert all(a % b == 0 and a > b and b % 2 == 0 for a, b in zip(orders, orders[1:]))


def test_corrupted_group_table_is_never_a_group():
    rng = gen.random.Random(5)
    for _ in range(30):
        for side in ("add", "mul"):
            obj = gen.corrupt(gen.skew_brace(gen.cyclic(6), gen.exotic(6)), rng, side)
            assert any(sorted(r) != list(range(6)) for r in obj[side])


# -- closed forms, by brute force -----------------------------------------------


def _closed(op, subset):
    return all(op[a][b] in subset for a in subset for b in subset)


def test_ideals_of_trivial_cyclic_braces_are_its_subgroups():
    for n in range(1, 13):
        op = gen.cyclic(n)
        count = sum(
            1
            for bits in range(1 << (n - 1))
            if _closed(op, {0} | {a for a in range(1, n) if bits >> (a - 1) & 1})
        )
        assert count == gen.ideal_count("trivial", n) == gen.divisor_count(n)


def test_subgroup_counts_of_elementary_abelian_groups():
    for k, n in ((3, 8), (4, 16)):
        spans = set()
        for r in range(k + 1):
            for gens in combinations(range(1, n), r):
                span = {0}
                for g in gens:
                    span |= {x ^ g for x in span}
                spans.add(frozenset(span))
        assert len(spans) == gen.ideal_count("elementary", n)


def test_ideals_of_exotic_braces():
    for n in range(4, 17, 2):
        add, mul = gen.cyclic(n), gen.exotic(n)
        inv = [next(x for x in range(n) if mul[a][x] == 0) for a in range(n)]
        count = 0
        for d in (d for d in range(1, n + 1) if n % d == 0):
            ideal = set(range(0, n, d))
            lam = all((mul[a][i] - a) % n in ideal for a in range(n) for i in ideal)
            normal = all(mul[mul[inv[a]][i]][a] in ideal for a in range(n) for i in ideal)
            count += lam and normal
        assert count == gen.ideal_count("exotic", n)


def test_hom_counts():
    for m, n in product(range(1, 9), repeat=2):
        homs = sum(1 for x in range(n) if m * x % n == 0)  # image of the generator
        assert homs == gcd(m, n)
    for k, j in ((1, 2), (2, 1), (2, 2)):
        a, b = 1 << k, 1 << j
        homs = sum(
            1
            for f in product(range(b), repeat=a)
            if all(f[x ^ y] == f[x] ^ f[y] for x in range(a) for y in range(a))
        )
        assert homs == 2 ** (k * j)


def test_socle_and_annihilator_of_exotic_braces():
    for n in range(4, 25, 2):
        soc, ann = gen.socle_and_annihilator(gen.cyclic(n), gen.exotic(n))
        assert soc == list(range(0, n, 2))
        assert ann == ([0, n // 2] if n // 2 % 2 == 0 else [0])


def test_composed_chain_restricts_to_its_components():
    orders = (12, 6, 2)
    add, mul = gen.compose_chain(orders)
    offs = (0, 12, 18)
    for c, (o, off) in enumerate(zip(orders, offs)):
        for x, y in product(range(o), repeat=2):
            assert add[off + x][off + y] == off + (x + y) % o
            assert mul[off + x][off + y] == off + gen.exotic(o)[x][y]
    # the top component maps into the bottom one by reduction mod 2
    assert add[5][18] == 18 + (5 + 0) % 2


def test_relabel_transports_the_tables():
    rng = gen.random.Random(3)
    add, mul = gen.cyclic(8), gen.exotic(8)
    perm = list(range(8))
    rng.shuffle(perm)
    ra, rm = gen.relabel(add, mul, perm)
    assert oracle._is_iso(perm, add, mul, ra, rm)


# -- oracle -----------------------------------------------------------------------


def _job(argv, **expect):
    return gen.Job(tuple(argv), expect)


def _report(command, status, lines, witnesses=()):
    return run.json.dumps({"command": command, "status": status, "lines": lines, "witnesses": list(witnesses)})


def test_oracle_generic_failures():
    job = _job(["period"], check="lines", code=0, lines=["period 2"])
    assert oracle.check(job, 0, _report("period", "pass", ["period 2"]), "") is None
    assert oracle.check(job, 0, _report("period", "pass", ["period 3"]), "") is not None
    assert oracle.check(job, 0, "period 2\n", "") == "stdout is not one JSON report"
    assert oracle.check(job, 2, "", "error: x") == "exit code 2"
    assert oracle.check(job, None, "", "Traceback (most recent call last):") == "traceback"
    assert oracle.check(job, 0, _report("braid", "pass", ["period 2"]), "") is not None


def test_oracle_violation_and_homs():
    bad = _job(["validate"], check="violation")
    assert oracle.check(bad, 1, _report("validate", "fail", ["violation: not_associative"]), "") is None
    assert oracle.check(bad, 0, _report("validate", "pass", ["valid"]), "") is not None
    homs = _job(["homs"], check="homs", count=6)
    maps = [[i, i] for i in range(6)]
    lines = ["count: 6"] + [str(f) for f in maps[:5]] + ["truncated"]
    assert oracle.check(homs, 0, _report("homs", "pass", lines, maps), "") is None
    assert oracle.check(homs, 0, _report("homs", "pass", lines, maps[:5] + maps[:1]), "") is not None


# -- tracing ------------------------------------------------------------------------


def _spans(rows):
    sp = tracing.Spans()
    for name, parent, start, end in rows:
        sp.name.append(name)
        sp.parent.append(parent)
        sp.job.append(0)
        sp.start.append(start)
        sp.end.append(end)
        sp.work.append(0)
    return sp


def test_self_time_subtracts_direct_children_only():
    # 0: [0, 10] > 1: [1, 6] > 2: [2, 3]; 0 > 3: [7, 9]
    sp = _spans([(0, -1, 0.0, 10.0), (1, 0, 1.0, 6.0), (2, 1, 2.0, 3.0), (3, 0, 7.0, 9.0)])
    assert sp.self_times() == [3.0, 4.0, 1.0, 2.0]
    assert sp.has_ancestor(2, {0}) and not sp.has_ancestor(3, {1})
    merged = tracing.Spans()
    merged.extend(sp)
    merged.extend(sp)
    assert list(merged.parent) == [-1, 0, 1, 0, -1, 4, 5, 4]
    assert merged.self_times() == [3.0, 4.0, 1.0, 2.0] * 2


def test_tracer_wraps_every_binding_and_counts_work():
    inner_mod = types.ModuleType("wbk.ideals")
    outer_mod = types.ModuleType("wbk.cli")
    inner_mod.types = types
    exec("def is_ideal(s, x):\n    return x != 1\n", inner_mod.__dict__)
    exec(
        "def enumerate_ideals(s):\n    return types.SimpleNamespace(ideals=[x for x in range(3) if is_ideal(s, x)])\n",
        inner_mod.__dict__,
    )
    outer_mod.is_ideal = inner_mod.is_ideal  # as `from .ideals import is_ideal` binds it
    saved = {name: sys.modules.get(name) for name in ("wbk.ideals", "wbk.cli")}
    sys.modules.update({"wbk.ideals": inner_mod, "wbk.cli": outer_mod})
    try:
        tr = tracing.Tracer()
        tr.wrap_module(inner_mod)
        tr.sweep()
        assert outer_mod.is_ideal is inner_mod.is_ideal is not None
        assert outer_mod.is_ideal.__wrapped__.__module__ == "wbk.ideals"
        inner_mod.enumerate_ideals(None)
        outer_mod.is_ideal(None, 0)
        spans = tr.take()
        assert [tr.names[n] for n in spans.name] == ["ideals.enumerate_ideals"] + ["ideals.is_ideal"] * 4
        tr.uninstall()
        inner_mod.enumerate_ideals(None)
        assert len(tr.take()) == 0
        m = tracing.layer_metrics(tr, spans, 0)
        assert m["ideals.calls"] == 5 and m["ideals.is_ideal_calls"] == 4
        assert m["ideals.found"] == 2 and m["ideals.yield"] == 2 / 3
    finally:
        for name, mod in saved.items():
            if mod is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = mod


def test_tail_leaves_ten_samples_beyond():
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert value == 29.0 and sum(t > value for t in times) == 10
    assert pct == 75.0
