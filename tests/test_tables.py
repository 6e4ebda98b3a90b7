"""Group, semilattice, and Clifford table validation plus hom enumeration."""

import math
import random
import sys
from dataclasses import replace
from itertools import product

import pytest
from conftest import exotic, exotic_chain, non_chain, relabelled_table, symmetric_table

from wbk import (
    InternalInvariantBroken,
    ValidationError,
    catalog_get,
    catalog_list,
    catalog_structures,
    clifford_of_group,
    decompose,
    enumerate_group_homs,
    enumerate_ideals,
    enumerate_skew_brace_homs,
    generating_set,
    quotient,
    relabel,
    validate_clifford,
    validate_group,
    validate_semilattice,
    validate_skew_brace,
)
from wbk import tables
from wbk.catalog import cyclic_table
from wbk.compose import _brace_homs
from wbk.tables import (
    FiniteGroupTable,
    _close,
    _first_non_hom,
    _generators,
    _hom_test,
    _iter_group_homs,
    _map_through,
    _mask,
    _plan_slots,
)

# order-5 loop: Latin, identity 0, every element self-inverse, not associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_validate_group_accepts_cyclic():
    g = validate_group([[(a + b) % 5 for b in range(5)] for a in range(5)])
    assert g.order == 5
    assert g.identity == 0
    assert g.inv == (0, 4, 3, 2, 1)
    assert g.is_abelian()


def test_validate_group_rejects_nonassociative_loop():
    with pytest.raises(ValidationError) as exc:
        validate_group(LOOP5)
    assert exc.value.law == "not_associative"
    assert exc.value.witness == (1, 1, 2)


def test_validate_group_rejects_ragged_and_unclosed():
    with pytest.raises(ValidationError) as exc:
        validate_group([[0, 1], [1]])
    assert exc.value.law == "not_closed"
    with pytest.raises(ValidationError) as exc:
        validate_group([[0, 1], [1, 7]])
    assert exc.value.law == "not_closed"
    assert exc.value.witness == (1, 1)
    # the witness is the row's first bad entry, whatever makes it bad
    for row, b in (([1, True], 1), ([1.0, 0], 0), ([1, -1], 1), ([False, 0], 0)):
        with pytest.raises(ValidationError) as exc:
            validate_group([[0, 1], row])
        assert (exc.value.law, exc.value.witness) == ("not_closed", (1, b)), row

    class Label(int):
        pass

    assert validate_group([[0, 1], [Label(1), Label(0)]]).op == ((0, 1), (1, 0))


def test_validate_group_rejects_missing_identity():
    # constant table: associative, no identity
    with pytest.raises(ValidationError) as exc:
        validate_group([[0, 0], [0, 0]])
    assert exc.value.law == "no_identity"


def test_validate_group_rejects_missing_inverse():
    # commutative monoid on {0,1} with absorbing 1: no inverse for 1
    with pytest.raises(ValidationError) as exc:
        validate_group([[0, 1], [1, 1]])
    assert exc.value.law == "no_inverse"
    assert exc.value.witness == (1,)


def test_group_exponent():
    sym3 = catalog_get("sym3")
    assert sym3.exponent() == 6
    assert not sym3.is_abelian()
    assert catalog_get("klein4").exponent() == 2


def _brute_exponent(g):
    """lcm of the element orders, each order found by multiplying out."""
    out = 1
    for a in range(g.order):
        k, x = 1, a
        while x != g.identity:
            x, k = g.op[x][a], k + 1
        out = math.lcm(out, k)
    return out


def test_exponent_is_the_lcm_of_element_orders():
    groups = _small_groups() + [_elementary(k) for k in range(1, 7)]
    groups += [validate_group(symmetric_table(4))]
    groups += [g for n in range(4, 65, 2) for g in (exotic(n).add, exotic(n).mul)]
    rng = random.Random(8)
    groups += [_relabel_group(g, rng.sample(range(g.order), g.order)) for g in groups[::4]]
    for g in groups:
        assert g.exponent() == _brute_exponent(g), g.order
    assert {_brute_exponent(g) for g in groups} >= {1, 2, 3, 4, 5, 6, 12, 32}


def test_validate_semilattice():
    s = validate_semilattice([[max(a, b) for b in range(3)] for a in range(3)])
    assert s.size == 3
    assert s.ge(0, 2) and not s.ge(2, 0)
    assert s.comparable_pairs() == [(0, 1), (0, 2), (1, 2)]

    with pytest.raises(ValidationError) as exc:
        validate_semilattice([[0, 1], [1, 0]])  # not idempotent at 1? 1^1=0
    assert exc.value.law == "not_idempotent"

    with pytest.raises(ValidationError) as exc:
        validate_semilattice([[0, 0], [1, 1]])
    assert exc.value.law == "not_commutative"


def test_clifford_of_group_roundtrip():
    g = catalog_get("c4")
    c = clifford_of_group(g)
    assert c.idempotents == (0,)
    assert c.inv == g.inv
    assert c.zero_of(3) == 0


def test_validate_clifford_two_components():
    # C2 over a point: strong semilattice, hence Clifford
    tab = [[0, 1, 2], [1, 0, 2], [2, 2, 2]]
    c = validate_clifford(tab)
    assert c.idempotents == (0, 2)
    assert c.zero_of(1) == 0
    t = c.transpose()
    assert t.op == tuple(tuple(tab[b][a] for b in range(3)) for a in range(3))


def test_validate_clifford_rejects_noncommuting_pseudoinverse():
    # left-zero semigroup: every element idempotent but aa'a structure fails
    with pytest.raises(ValidationError):
        validate_clifford([[0, 0], [1, 1]])


def test_validate_clifford_rejects_the_brandt_semigroup():
    # B2 = {0, e12, e21, e11, e22} with e_ij e_kl = e_il when j = k, else 0:
    # an inverse semigroup, but e12 e21 = e11 while e21 e12 = e22
    elems = [None, (1, 2), (2, 1), (1, 1), (2, 2)]

    def times(a, b):
        return elems.index((a[0], b[1])) if a and b and a[1] == b[0] else 0

    with pytest.raises(ValidationError) as exc:
        validate_clifford([[times(a, b) for b in elems] for a in elems])
    assert exc.value.law == "not_clifford" and exc.value.witness == (1,)


def test_generating_set():
    sym3 = catalog_get("sym3")
    gens = generating_set(sym3)
    # greedy: small sets first, lexicographically least among those
    assert len(gens) == 2
    got = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (sym3.op[x][g], sym3.op[g][x]):
                if y not in got:
                    got.add(y)
                    frontier.append(y)
    assert got == set(range(6))
    assert generating_set(catalog_get("c6")) == [1]


def _gens_cases():
    """(kind, table, its greedy set, the greedy set of its transpose or None): the
    groups over their identity (catalog groups, both sides of the catalog
    and exotic Z2-Z16 braces, (Z2)^3), and every table validate_clifford
    builds (the catalog's composed and dual weak braces, chains, non-chain,
    and the opposites of all these structures)."""
    elementary = [[a ^ b for b in range(8)] for a in range(8)]
    braces = [catalog_get(name) for name, kind, _ in catalog_list() if kind == "skew_brace"]
    braces += [exotic(n) for n in range(2, 17, 2)] + [validate_skew_brace(elementary, elementary)]
    groups = [catalog_get(name) for name, kind, _ in catalog_list() if kind == "group"]
    groups += [g for b in braces for g in (b.add, b.mul)]
    cases = []
    for g in groups:
        t = [list(col) for col in zip(*g.op)]
        over_e = 1 << g.identity
        cases.append(("group", g, _generators(g.op, over_e), None))
        cases.append(("clifford_of_group", clifford_of_group(g), _generators(g.op, over_e), _generators(t, over_e)))
    kinds = {name: kind for name, kind, _ in catalog_list()}
    structures = [s for name, s in catalog_structures() if kinds[name] != "skew_brace"]
    structures += [exotic_chain(c) for c in ((4, 2), (8, 4, 2), (12, 6, 2))] + [non_chain()]
    structures += [s.opposite() for s in structures + [b.as_dual() for b in braces]]
    for s in structures:
        for t in (s.add, s.mul):
            cases.append(("clifford", t, _generators(t.op), _generators(t.transpose().op)))
    return cases


def test_tables_carry_their_greedy_generators_outside_equality():
    for kind, t, gens, transposed in _gens_cases():
        assert t.gens == tuple(gens), (kind, t)
        if transposed is not None:
            assert t.transpose().gens == tuple(transposed), (kind, t)
        # classify's cache keys on ==, hash and repr; gens takes no part in them
        bare = replace(t, gens=())
        assert bare == t and hash(bare) == hash(t) and repr(bare) == repr(t), (kind, t)


def _relabel_group(g, perm):
    op = [[None] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            op[perm[a]][perm[b]] = perm[g.op[a][b]]
    return validate_group(op)


def _catalog_groups():
    """Every group in the catalog: the groups, and both sides of every
    skew brace and of every component of a composed structure."""
    out = [catalog_get(name) for name, kind, _ in catalog_list() if kind == "group"]
    for _, s in catalog_structures():
        if s.is_skew():
            out += [b for brace in decompose(s).braces for b in (brace.add, brace.mul)]
    return out


def _relabelled_groups(seed, count):
    # seeded relabellings that move the identity off 0
    rng = random.Random(seed)
    out = []
    for g in _catalog_groups():
        for _ in range(count):
            perm = list(range(g.order))
            while perm[g.identity] == 0:
                rng.shuffle(perm)
            out.append(_relabel_group(g, perm))
    return out


def _subgroup(g, gens):
    # right multiplication by the generators, from the identity
    got, frontier = {g.identity}, [g.identity]
    while frontier:
        x = frontier.pop()
        for h in gens:
            y = g.op[x][h]
            if y not in got:
                got.add(y)
                frontier.append(y)
    return got


def test_generating_set_is_greedy():
    groups = _catalog_groups() + _relabelled_groups(1, 3)
    assert any(g.identity != 0 for g in groups)
    for g in groups:
        gens = generating_set(g)
        for i, x in enumerate(gens):
            sub = _subgroup(g, gens[:i])
            assert x not in sub
            assert set(range(x)) <= sub, (g.op, gens, i)
        assert _subgroup(g, gens) == set(range(g.order))


def test_group_homs_come_out_in_order_after_relabelling():
    plain, moved = _catalog_groups(), _relabelled_groups(2, 1)
    for a, a2 in zip(plain, moved):
        for b, b2 in zip(plain[::3], moved[::3]):
            homs = enumerate_group_homs(a2, b2)
            assert homs == sorted(set(homs))
            assert len(homs) == len(enumerate_group_homs(a, b))


def _exotic_and_cyclic(n):
    # the braces a*b = a + (-1)^a b and a*b = a + b on Z_n
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a + (-1) ** a * b) % n for b in range(n)] for a in range(n)]
    return validate_skew_brace(add, mul), validate_skew_brace(add, add)


def test_injective_search_is_the_filtered_full_search():
    rng = random.Random(3)
    braces = [catalog_get(name) for name, kind, _ in catalog_list() if kind == "skew_brace"]
    pairs = [(a, b) for a in braces for b in braces]
    for n in range(4, 13, 2):
        ex, cyc = _exotic_and_cyclic(n)
        for _ in range(6):
            perm = list(range(n))
            rng.shuffle(perm)
            moved = relabel(ex.as_dual(), perm)
            moved = validate_skew_brace(moved.add.op, moved.mul.op)
            pairs += [(ex, moved), (moved, ex), (moved, cyc), (cyc, moved)]
    checked = 0
    for a, b in pairs:
        for src, dst in ((a.mul, b.mul), (a.add, b.add)):
            full = enumerate_group_homs(src, dst)
            want = [f for f in full if len(set(f)) == len(f)]
            assert list(_iter_group_homs(src, dst, injective=True)) == want
        full = enumerate_skew_brace_homs(a, b)
        want = [f for f in full if len(set(f)) == len(f)]
        got = list(_brace_homs(a, b, injective=True))
        assert got == want
        checked += bool(want)
    assert checked > len(braces)


def test_enumerate_group_homs_counts():
    c2, c3, c4 = catalog_get("c2"), catalog_get("c3"), catalog_get("c4")
    k4, sym3 = catalog_get("klein4"), catalog_get("sym3")
    assert enumerate_group_homs(c2, c4) == [(0, 0), (0, 2)]
    assert len(enumerate_group_homs(c2, k4)) == 4
    assert enumerate_group_homs(c3, sym3) == [(0, 0, 0), (0, 3, 4), (0, 4, 3)]
    # no nontrivial c3 -> c4
    assert enumerate_group_homs(c3, c4) == [(0, 0, 0)]


def test_enumerate_group_homs_endomorphisms_of_sym3():
    sym3 = catalog_get("sym3")
    endos = enumerate_group_homs(sym3, sym3)
    # 1 trivial + 3 onto C2 + 6 inner automorphisms
    assert len(endos) == 10
    assert (0, 1, 2, 3, 4, 5) in endos
    for f in endos:
        for a in range(6):
            for b in range(6):
                assert f[sym3.op[a][b]] == sym3.op[f[a]][f[b]]


def _brute_first_non_hom(f, pairs):
    n = len(f)
    for x in range(n):
        for y in range(n):
            for k, (src, dst) in enumerate(pairs):
                if f[src[x][y]] != dst[f[x]][f[y]]:
                    return (x, y, k)
    return None


def _moved_projections(rng):
    """Quotient projections S -> S/I of catalog and exotic structures, each
    with one entry moved as well, on the (+, ∘) table pairs: maps onto a
    smaller table that are homs, and near-homs."""
    structures = [s for _, s in catalog_structures()] + [exotic(n).as_dual() for n in (8, 12, 16)]
    cases = []
    for s in structures:
        for ideal in enumerate_ideals(s).ideals:
            q = quotient(s, ideal)
            qs, proj = q.quotient, q.projection
            pairs = ((s.add.op, qs.add.op), (s.mul.op, qs.mul.op))
            cases.append((proj, pairs))
            for x in rng.sample(range(s.order), min(3, s.order)) if qs.order > 1 else ():
                moved = list(proj)
                moved[x] = (proj[x] + rng.randrange(1, qs.order)) % qs.order
                cases.append((tuple(moved), pairs))
    return cases


# the hom kernel (_hom_test) on bytes, one compare of the joined rows, and
# on tuples, row by row
_KERNEL_SETTINGS = [tables.BYTES_BOUND, 0]


def _wide_cases():
    """Trivial Z8 and Z64 into Z300 and Z640 and back, by x -> kx: one side
    of each pair is bytes-sized and the other is not, so the default bound
    runs them on tuples.  Each map is a hom, and again with one entry moved."""
    cases = []
    for n, m, k in ((8, 300, 75), (64, 640, 10), (300, 8, 2), (640, 64, 3)):
        hom = tuple(k * x % m for x in range(n))
        moved = hom[:n // 2] + ((hom[n // 2] + 1) % m,) + hom[n // 2 + 1:]
        cases.append((_cyclic(n), _cyclic(m), [hom, moved]))
    return cases


def test_first_non_hom_matches_lexicographic_scan(monkeypatch):
    rng = random.Random(0)
    braces = [catalog_get(name) for name, kind, _ in catalog_list() if kind == "skew_brace"]
    braces = [b for b in braces if b.order <= 6]
    cases = []
    for a in braces:
        for b in braces:
            maps = enumerate_group_homs(a.mul, b.mul) + enumerate_group_homs(a.add, b.add)
            maps += [tuple(rng.randrange(b.order) for _ in range(a.order)) for _ in range(20)]
            for pairs in (
                ((a.add.op, b.add.op), (a.mul.op, b.mul.op)),
                ((a.mul.op, b.mul.op), (a.add.op, b.add.op)),
                ((a.mul.op, b.mul.op),),
            ):
                cases += [(f, pairs) for f in maps]
    cases += _moved_projections(rng)
    cases += [(f, ((src, dst),)) for src, dst, maps in _wide_cases() for f in maps]
    for bound in _KERNEL_SETTINGS:
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        later_wins = both_fail = shrinking = 0
        for f, pairs in cases:
            want = _brute_first_non_hom(f, pairs)
            assert _first_non_hom(f, pairs) == want, (f, pairs)
            later_wins += want is not None and want[2] == 1
            # the first pair fails too, at a greater (x, y)
            both_fail += want is not None and want[2] == 1 and _brute_first_non_hom(f, pairs[:1]) is not None
            shrinking += want is not None and len(pairs[0][1]) < len(f)
        # the later table must win sometimes, also over a failing first
        # table, or the tie order and the least over pairs go untested
        assert later_wins > both_fail > 0
        assert shrinking > 20


def test_hom_search_cross_check_fires_on_a_loop():
    # a non-associative loop of order 6, built past validate_group: the
    # closure along gens = (1,) pins a map that is not a hom, and the full
    # check of each yielded map must catch it
    op = ((0, 1, 2, 3, 4, 5), (1, 2, 4, 0, 5, 3), (2, 4, 1, 5, 3, 0),
          (3, 5, 0, 4, 1, 2), (4, 3, 5, 2, 0, 1), (5, 0, 3, 1, 2, 4))
    gens = tuple(_generators(op, 1))
    assert gens == (1,)
    loop = FiniteGroupTable(6, op, 0, tuple(row.index(0) for row in op), gens)
    with pytest.raises(InternalInvariantBroken, match=r"^hom closure produced a non-hom at \(1, 3\)$"):
        list(_iter_group_homs(loop, catalog_get("c2")))


def _small_groups():
    """C1-C6, the Klein four-group and Sym3: every group of order <= 6."""
    cyclic = [validate_group(cyclic_table(n)) for n in range(1, 7)]
    return cyclic + [catalog_get("klein4"), catalog_get("sym3")]


def _product_homs(a, b):
    """Brute force: every map a -> b in lexicographic order, kept when it is a hom."""
    pairs = ((a.op, b.op),)
    return [f for f in product(range(b.order), repeat=a.order) if _brute_first_non_hom(f, pairs) is None]


def _generated_homs(g, h, pairs):
    """Brute force over generator images, in lexicographic order: each
    choice of images in h of a greedy generating set of the group g fixes
    one map along a breadth-first tree, f(x·s) = f(x)·f(s) in h (so every
    hom g -> h is one of them), kept when f[src[x][y]] == dst[f[x]][f[y]]
    for every (src, dst) in pairs and every (x, y)."""
    gens = []
    while len(_subgroup(g, gens)) < g.order:
        gens.append(min(set(range(g.order)) - _subgroup(g, gens)))
    tree, seen, order = [], {g.identity}, [g.identity]
    for x in order:  # grows while it is read: breadth first
        for k, s in enumerate(gens):
            t = g.op[x][s]
            if t not in seen:
                seen.add(t)
                order.append(t)
                tree.append((t, x, k))
    n, out = g.order, []
    for imgs in product(range(h.order), repeat=len(gens)):
        f = [None] * n
        f[g.identity] = h.identity
        for t, x, k in tree:
            f[t] = h.op[f[x]][imgs[k]]
        if all(f[src[x][y]] == dst[f[x]][f[y]] for src, dst in pairs for x in range(n) for y in range(n)):
            out.append(tuple(f))
    return sorted(out)


def _bijective(maps):
    return [f for f in maps if len(set(f)) == len(f)]


def _relabel_brace(s, perm):
    t = relabel(s.as_dual(), perm)
    return validate_skew_brace(t.add.op, t.mul.op)


def _opposite_brace(s):
    t = s.as_dual().opposite()
    return validate_skew_brace(t.add.op, t.mul.op)


def test_hom_stream_is_the_brute_force_oracle():
    # every map a -> b in lexicographic order, kept when it is a hom
    groups = _small_groups()
    for a in groups:
        for b in groups:
            want = _product_homs(a, b)
            assert list(_iter_group_homs(a, b)) == want, (a.order, b.order)
            assert list(_iter_group_homs(a, b, injective=True)) == _bijective(want), (a.order, b.order)
    # brace pairs with + != ∘, each fixed by its images of generators of +:
    # the stream searches one group and filters by the other table
    rng = random.Random(7)
    braces = [exotic(n) for n in range(4, 13, 2)]
    braces += [_opposite_brace(validate_skew_brace(g.op, g.op)) for g in (catalog_get("sym3"), exotic(8).mul)]
    braces += [_relabel_brace(b, rng.sample(range(b.order), b.order)) for b in braces]
    assert all(b.add != b.mul for b in braces)
    nontrivial = 0
    for a in braces:
        for b in braces:
            want = _generated_homs(a.add, b.add, ((a.add.op, b.add.op), (a.mul.op, b.mul.op)))
            assert list(_brace_homs(a, b)) == want, (a.order, b.order)
            assert list(_brace_homs(a, b, injective=True)) == _bijective(want), (a.order, b.order)
            nontrivial += len(_bijective(want)) > 1
    assert nontrivial > 20


def _elementary(k):
    return validate_group([[x ^ y for y in range(2**k)] for x in range(2**k)])


def test_hom_streams_match_the_oracles_in_both_encodings(monkeypatch):
    # the bytes plan (orders up to tables.BYTES_BOUND) and the list plan
    # (forced by a bound of 0) against brute force: over all maps for the
    # groups of order <= 6, over generator images for relabelled exotic ∘
    # groups and (Z2)^k
    rng = random.Random(9)
    cases = [(a, b, _product_homs(a, b)) for a in _small_groups() for b in _small_groups()]
    moved = [exotic(n).mul for n in (4, 6, 8, 10, 12)] + [validate_group(symmetric_table(4))]
    moved = [validate_group(relabelled_table(g.op, rng.sample(range(g.order), g.order))) for g in moved]
    elementary = [_elementary(k) for k in range(1, 5)]
    pairs = [(a, b) for a in moved for b in moved] + [(a, b) for a in elementary for b in elementary[:3]]
    cases += [(a, b, _generated_homs(a, b, ((a.op, b.op),))) for a, b in pairs]
    listed = []
    monkeypatch.setattr(tables, "_map_through", lambda seq, col: listed.append(1) or _map_through(seq, col))
    for bound, lists in ((tables.BYTES_BOUND, False), (0, True)):
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        for a, b, want in cases:
            assert list(_iter_group_homs(a, b)) == want, (bound, a.order, b.order)
            assert list(_iter_group_homs(a, b, injective=True)) == _bijective(want), (bound, a.order, b.order)
        assert bool(listed) == lists
    assert sum(len(want) > 2 for _, _, want in cases) > 40


def _plan_groups():
    groups = _small_groups() + [_elementary(k) for k in range(1, 7)]
    groups += [exotic(n).mul for n in (8, 12, 16)] + [validate_group(cyclic_table(48))]
    rng = random.Random(5)
    groups += [validate_group(relabelled_table(t, rng.sample(range(len(t)), len(t))))
               for t in [exotic(12).mul.op] + [symmetric_table(4)] * 4]
    return groups


def _slot_parents(steps):
    # (slot, parent slot, j) for each step slot of a level
    for r0, r1, j, parents in steps:
        if type(parents) is int:
            parents = [parents, *range(r0, r1 - 1)]  # each later chain slot extends the one before
        yield from ((s, p, j) for s, p in zip(range(r0, r1), parents))


def test_extension_plan_holds_each_edge_once_parents_first():
    # the plan against the group itself: level i's slots [0, count) hold
    # <gens[:i+1]>, each new edge x·gens[j] (j <= i) of the level is one
    # step slot or one check pair, and each step slot holds its parent's
    # element times gens[j], with the parent in an earlier slot
    for a in _plan_groups():
        op, gens = a.op, a.gens
        slot, levels = _plan_slots(a)
        assert sorted(slot) == list(range(a.order)) and slot[a.identity] == 0
        elems = sorted(range(a.order), key=slot.__getitem__)  # the element in each slot
        assert len(levels) == len(gens)
        old = 1  # slots [0, old) hold the earlier levels' elements
        for i, (steps, checks, count) in enumerate(levels):
            assert _mask(elems[:count]) == _close(op, _mask([a.identity, *gens[: i + 1]])), (a.order, i)
            want = sorted((x, j) for x in range(count) for j in range(i + 1) if x >= old or j == i)
            got = []
            for s, p, j in _slot_parents(steps):
                assert old <= s < count and p < s and elems[s] == op[elems[p]][gens[j]]
                got.append((p, j))
            for j, xs, ts in checks:
                assert len(xs) == len(ts) and all(s < count for s in xs + ts)
                assert [op[elems[x]][gens[j]] for x in xs] == [elems[t] for t in ts]
                got += [(x, j) for x in xs]
            assert sorted(got) == want, (a.order, i)
            old = count
        assert old == a.order


def test_plan_slots_fill_each_level_in_runs_and_chains():
    # a guard on the work per candidate image: a run's parents sit in
    # slots before it, a chain's first parent too, the steps tile the
    # level's slots, and on (Z2)^k each level is one run and at most i + 1
    # check groups
    for a in _plan_groups():
        _, levels = _plan_slots(a)
        r = 1  # the next slot to fill
        for steps, _, count in levels:
            for r0, r1, _, parents in steps:
                assert r0 == r < r1
                r = r1
                if type(parents) is int:
                    assert parents < r0
                else:
                    assert len(parents) == r1 - r0 > 1 and max(parents) < r0
            assert count == r
        assert r == a.order
    for k in range(1, 9):
        _, levels = _plan_slots(_elementary(k))
        for i, (steps, checks, count) in enumerate(levels):
            assert len(steps) == 1 and len(checks) <= i + 1 and count == 2 ** (i + 1), (k, i)
    # a cyclic group is one chain of n - 1 slots
    assert _plan_slots(validate_group(cyclic_table(48)))[1][0][0] == [(1, 48, 0, 0)]


def _cyclic(n):
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def _assert_hom_test_agrees(src, dst, maps):
    holds = _hom_test(src, dst)
    for f in maps:
        assert holds(f) == (_brute_first_non_hom(f, ((src, dst),)) is None), (f, src, dst)


def test_hom_test_matches_first_non_hom_on_random_maps(monkeypatch):
    rng = random.Random(16)
    groups = [g.op for g in (catalog_get("klein4"), catalog_get("sym3"))]
    groups += [_cyclic(n) for n in range(1, 9)]
    cases = []
    nontrivial = 0
    for src in groups:
        for dst in groups:
            n, m = len(src), len(dst)
            homs = [tuple(f) for f in enumerate_group_homs(validate_group(src), validate_group(dst))]
            cases.append((src, dst, homs + [tuple(rng.randrange(m) for _ in range(n)) for _ in range(30)]))
            nontrivial += n != m and len(homs) > 1
    assert nontrivial > 10
    # arbitrary tables, not only groups, orders 1-8 on each side
    for _ in range(300):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        src = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        dst = [[rng.randrange(m) for _ in range(m)] for _ in range(m)]
        cases.append((src, dst, [tuple(rng.randrange(m) for _ in range(n)) for _ in range(10)]))
    # quotient projections onto smaller tables, and the same with one entry moved
    cases += [(src, dst, [f]) for f, pairs in _moved_projections(rng) for src, dst in pairs]
    cases += _wide_cases()
    for bound in _KERNEL_SETTINGS:
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        for src, dst, maps in cases:
            _assert_hom_test_agrees(src, dst, maps)


def test_hom_test_catches_a_failure_at_the_last_pair(monkeypatch):
    rng = random.Random(17)
    cases = []
    for n in range(1, 8):
        for m in range(max(n, 2), 9):
            # an injective f and a dst that agrees with f on every pair but the last
            f = tuple(rng.sample(range(m), n))
            src = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            dst = [[rng.randrange(m) for _ in range(m)] for _ in range(m)]
            for x in range(n):
                for y in range(n):
                    dst[f[x]][f[y]] = f[src[x][y]]
            bent = [list(row) for row in dst]
            bent[f[-1]][f[-1]] = (dst[f[-1]][f[-1]] + 1) % m
            cases.append((f, src, dst, bent))
    for bound in _KERNEL_SETTINGS:
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        for f, src, dst, bent in cases:
            n = len(f)
            assert _hom_test(src, dst)(f) and _first_non_hom(f, ((src, dst),)) is None
            assert not _hom_test(src, bent)(f)
            assert _first_non_hom(f, ((src, bent),)) == (n - 1, n - 1, 0)


@pytest.mark.parametrize("n", [256, 257])
def test_hom_test_on_both_sides_of_the_bytes_bound(n):
    # 256 is encoded as bytes and compared at once, 257 runs on tuples
    # and is compared row by row
    z = _cyclic(n)
    hom = tuple(3 * x % n for x in range(n))
    bent = hom[:100] + ((hom[100] + 1) % n,) + hom[101:]
    holds = _hom_test(z, z)
    assert holds(hom) and not holds(bent)
    assert _first_non_hom(bent, ((z, z),)) is not None
    # at 257 one side past the bound is enough for tuples: bytes() would
    # reject its entries
    one = _cyclic(1)
    assert _hom_test(z, one)((0,) * n) and _hom_test(one, z)((0,))
    assert not _hom_test(one, z)((1,))


def test_the_hom_kernel_decides_at_both_bounds(monkeypatch):
    # x -> x + 1 on Z6 fails first at (0, 0); with the kernel patched to
    # accept it, _first_non_hom passes it: no scan ran
    z, shift = _cyclic(6), (1, 2, 3, 4, 5, 0)
    for bound in _KERNEL_SETTINGS:
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        assert _first_non_hom(shift, ((z, z),)) == (0, 0, 0)
        with monkeypatch.context() as mp:
            mp.setattr(tables, "_hom_test", lambda src, dst: lambda f: True)
            assert _first_non_hom(shift, ((z, z),)) is None


def test_brace_homs_are_the_mul_homs_that_keep_plus():
    braces = [catalog_get(name) for name, kind, _ in catalog_list() if kind == "skew_brace"]
    braces += [exotic(n) for n in range(2, 17, 2)]
    exotic_pairs = 0
    for a in braces:
        for b in braces:
            adds = ((a.add.op, b.add.op),)
            want = [f for f in enumerate_group_homs(a.mul, b.mul) if _brute_first_non_hom(f, adds) is None]
            assert enumerate_skew_brace_homs(a, b) == want, (a.order, b.order)
            exotic_pairs += a.add != a.mul and len(want) > 1
    assert exotic_pairs > 10


def test_brace_homs_search_the_group_with_fewer_generators(monkeypatch):
    # one level of candidate images per generator: exotic Z_n has a cyclic
    # + and a dihedral ∘, so + is searched; a tie goes to ∘
    searched = []

    def spy(a, b, injective=False):
        searched.append(a)
        return _iter_group_homs(a, b, injective)

    monkeypatch.setattr(sys.modules["wbk.compose"], "_iter_group_homs", spy)
    sym3 = catalog_get("sym3")
    almost_trivial = _opposite_brace(validate_skew_brace(sym3.op, sym3.op))
    for s, side in ((exotic(8), "add"), (exotic(256), "add"), (almost_trivial, "mul"), (catalog_get("c6_trivial"), "mul")):
        list(_brace_homs(s, s, injective=True))
        assert searched.pop() is getattr(s, side), (s.order, side)
