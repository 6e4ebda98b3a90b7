"""End-to-end checks of the library's headline claims.

One test per claim, over the shipped catalog plus a larger built-to-order
chain.  The companion wall-clock check lives in test_zz_wallclock.py so it
runs after everything else.
"""

import itertools
import math
import time

from conftest import enumerate_by

import wbk


def glued(name):
    return wbk.compose(wbk.catalog_get(name))


def direct_period(r):
    # smallest p >= 1 with r^(p+1) == r, by plain repeated composition
    power = r
    for k in range(2, 1000):
        power = wbk.compose_solutions(power, r)
        if power == r:
            return k - 1
    raise AssertionError("no period below 1000")


def test_c01_two_component_chain_composes_and_solves_fast():
    t0 = time.monotonic()
    c3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    s3 = [[idx[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    spec = wbk.validate_spec(
        [[0, 1], [1, 1]], [(c3, c3), (s3, s3)], {(0, 1): (0, 3, 4)}
    )
    s = wbk.compose(spec)
    assert s.order == 9 and s.idempotents == (0, 3)
    # re-validate from the raw tables: every axiom over all 729 triples
    again = wbk.validate_dual_weak_brace(s.add.op, s.mul.op)
    assert again == s
    r = wbk.solution_of(s)
    assert wbk.check_braid(r) is None
    assert time.monotonic() - t0 < 1.0
    assert s == glued("c3_sym3")


def test_c02_glued_solution_matches_semilattice_of_solutions():
    for name, spec in wbk.catalog_specs():
        r = wbk.solution_of(wbk.compose(spec))
        parts = tuple(wbk.solution_of(b.as_dual()) for b in spec.braces)
        built = wbk.strong_semilattice_of_solutions(spec.y, parts, spec.homs)
        assert built.order == r.order, name
        for a in range(r.order):
            for b in range(r.order):
                assert built.apply(a, b) == r.apply(a, b), (name, a, b)


def test_c03_period_of_glued_solution_is_lcm_of_component_periods():
    flip = wbk.solution_of(wbk.catalog_get("c3_trivial").as_dual())
    p_alpha = direct_period(flip)
    assert p_alpha == 2
    conj = wbk.solution_of(wbk.catalog_get("sym3_trivial").as_dual())
    p_beta = direct_period(conj)
    assert p_beta == wbk.period(conj) == 12
    lcm = math.lcm(p_alpha, p_beta)
    r = wbk.solution_of(glued("c3_sym3"))
    power = r
    for _ in range(lcm):
        power = wbk.compose_solutions(power, r)
    assert power == r
    for rc in (flip, conj):
        assert direct_period(rc) % 2 == 0 or rc == wbk.identity_solution(rc.order)


def test_c04_two_over_four_chain_gives_a_cubic_solution():
    spec = wbk.catalog_get("c2_c4_braces")
    r = wbk.solution_of(wbk.compose(spec))
    r2 = wbk.compose_solutions(r, r)
    r3 = wbk.compose_solutions(r2, r)
    assert r3 == r and r2 != r
    # restricted to either component block the square is the identity
    off = 0
    for b in spec.braces:
        block = range(off, off + b.order)
        for a in block:
            for c in block:
                u, v = r.apply(a, c)
                assert u in block and v in block
                assert r.apply(u, v) == (a, c)
        off += b.order


def component_socle_union(s):
    out = set()
    for e in s.idempotents:
        members = [a for a in range(s.order) if s.component_of[a] == s.component_of[e]]
        sub, labels = wbk.sub_structure(s, members)
        out |= {labels[i] for i in wbk.socle(sub)}
    return out


def test_c05_socle_sits_inside_union_of_component_socles():
    for name, s in wbk.catalog_structures():
        assert wbk.socle(s) <= component_socle_union(s), name
    s = glued("c3_sym3")
    soc, union = wbk.socle(s), component_socle_union(s)
    assert soc == frozenset(s.idempotents) and len(soc) == 2
    assert union == {0, 1, 2, 3} and len(union) == 4
    assert soc < union


def test_c06_even_part_of_z6_is_annihilator_saturated_but_series_stalls():
    raw = wbk.catalog_get("z6_exotic")
    wbk.validate_skew_brace(
        [list(row) for row in raw.add.op], [list(row) for row in raw.mul.op]
    )
    z6 = raw.as_dual()
    assert wbk.annihilator(z6) == {0}
    qualifying = []
    for ideal in wbk.enumerate_ideals(z6).ideals:
        sub, labels = wbk.sub_structure(z6, ideal)
        ann_inside = {labels[i] for i in wbk.annihilator(sub)}
        q = wbk.quotient(z6, ideal)
        ann_quotient = wbk.annihilator(q.quotient)
        if ann_inside == set(ideal) and len(ann_quotient) == q.quotient.order:
            qualifying.append(set(ideal))
    assert qualifying == [{0, 2, 4}]
    assert not wbk.annihilator_series(z6).terminated


def alt_is_ideal(s, x):
    # the absorption form: full normal in (S,+) and dots land inside both ways
    mem = set(x)
    if not set(s.idempotents) <= mem:
        return False
    for i in mem:
        if s.neg(i) not in mem:
            return False
        for j in mem:
            if s.plus(i, j) not in mem:
                return False
    for a in range(s.order):
        na = s.neg(a)
        for i in mem:
            if s.plus(s.plus(a, i), na) not in mem:
                return False
            if s.dot(a, i) not in mem or s.dot(i, a) not in mem:
                return False
    return True


def test_c07_ideal_test_matches_normality_plus_dot_absorption():
    for name, s in wbk.catalog_structures():
        assert s.order <= 9
        for bits in range(1 << s.order):
            x = frozenset(i for i in range(s.order) if bits >> i & 1)
            assert bool(wbk.is_ideal(s, x)) == alt_is_ideal(s, x), (name, sorted(x))
    # a larger chain exercises the closure-driven enumeration path
    c6 = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    ident = tuple(range(6))
    chain3 = [[max(a, b) for b in range(3)] for a in range(3)]
    spec = wbk.validate_spec(
        chain3, [(c6, c6)] * 3, {(0, 1): ident, (0, 2): ident, (1, 2): ident}
    )
    big = wbk.compose(spec)
    assert big.order == 18
    found = wbk.enumerate_ideals(big)
    assert found.mode == "closure"
    assert len(found.ideals) >= 2
    for ideal in found.ideals:
        assert wbk.is_ideal(big, ideal) and alt_is_ideal(big, ideal)


def test_c08_hom_kernels_are_ideals_images_are_subbraces():
    braces = wbk.catalog_braces()
    total = 0
    for na, a in braces:
        for nb, b in braces:
            assert a.order <= 6 and b.order <= 6
            sa, sb = a.as_dual(), b.as_dual()
            for f in wbk.enumerate_skew_brace_homs(a, b):
                total += 1
                assert wbk.is_ideal(sa, wbk.kernel(sa, sb, f)), (na, nb, f)
                assert wbk.is_sub_dual_weak_brace(sb, wbk.image(sa, sb, f))
                assert wbk.first_isomorphism_check(sa, sb, f)
    assert total >= len(braces) ** 2  # at least the constant hom each way


def socle_like_step(s, prev, two_sided):
    out = set()
    for a in range(s.order):
        ok = all(
            s.dot(a, b) in prev and s.add_commutator(a, b) in prev
            for b in range(s.order)
        )
        if ok and two_sided:
            ok = all(s.dot(b, a) in prev for b in range(s.order))
        if ok:
            out.add(a)
    return frozenset(out)


def test_c09_series_members_are_ideals_and_steps_cross_check():
    for name, s in wbk.catalog_structures():
        reports = {
            "right": wbk.right_series(s),
            "socle": wbk.socle_series(s),
            "ann": wbk.annihilator_series(s),
            "gamma": wbk.gamma_series(s),
        }
        for kind, rep in reports.items():
            for member in rep.chain:
                assert wbk.is_ideal(s, member), (name, kind, sorted(member))
        # ascending chains recomputed element by element
        for rep, two_sided in ((reports["socle"], False), (reports["ann"], True)):
            assert rep.chain[0] == frozenset(s.idempotents)
            for m in range(len(rep.chain) - 1):
                assert rep.chain[m + 1] == socle_like_step(s, rep.chain[m], two_sided)
            if not rep.terminated:
                assert socle_like_step(s, rep.chain[-1], two_sided) == rep.chain[-1]
        ann, gamma = reports["ann"], reports["gamma"]
        if ann.terminated:
            assert gamma.terminated and gamma.index <= ann.index + 1, name
            assert wbk.verify_sandwich(s, ann.chain).ok, name


def brute_group_homs(a, b):
    pairs = [(x, y) for x in range(a.order) for y in range(a.order)]
    out = []
    for f in itertools.product(range(b.order), repeat=a.order):
        if all(f[a.op[x][y]] == b.op[f[x]][f[y]] for x, y in pairs):
            out.append(f)
    return out


def brute_brace_homs(a, b):
    pairs = [(x, y) for x in range(a.order) for y in range(a.order)]
    out = []
    for f in itertools.product(range(b.order), repeat=a.order):
        if all(
            f[a.add.op[x][y]] == b.add.op[f[x]][f[y]]
            and f[a.mul.op[x][y]] == b.mul.op[f[x]][f[y]]
            for x, y in pairs
        ):
            out.append(f)
    return out


def test_c10_enumerators_match_brute_force(monkeypatch):
    # the brute force lists maps in lexicographic order, and so must the
    # enumerators: the iso witness is the first bijection in that order
    groups = [(n, wbk.catalog_get(n)) for n in ("c2", "c3", "c4", "c6", "klein4", "sym3")]
    for na, a in groups:
        for nb, b in groups:
            assert b.order ** a.order <= 10 ** 6
            assert wbk.enumerate_group_homs(a, b) == brute_group_homs(a, b), (na, nb)
    for na, a in wbk.catalog_braces():
        for nb, b in wbk.catalog_braces():
            assert b.order ** a.order <= 10 ** 6
            assert wbk.enumerate_skew_brace_homs(a, b) == brute_brace_homs(a, b), (na, nb)
    for name, s in wbk.catalog_structures():
        assert s.order <= 16
        exhaustive = enumerate_by(monkeypatch, s, "exhaustive")
        closure = enumerate_by(monkeypatch, s, "closure")
        assert exhaustive.ideals == closure.ideals, name
