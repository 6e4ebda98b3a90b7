"""The generator closure (tables._close) and the greedy generators built on it.

_close multiplies on the right by generators only.  It must reach what a
brute-force fixpoint reaches (every product in both orders, plus unary
images, until nothing is new) on every table of the corpus, with and without
unary maps, and from a closed part given with or without its generators.
On tables that may not be associative it reaches the right products of its
generators.  _generators must return what the greedy loop on the old
both-orders closure returned, and must read each table entry it needs at
most once per generator and level.
"""

import random
from itertools import combinations_with_replacement

from conftest import exotic, exotic_chain, non_chain, symmetric_table

from wbk import catalog_get, catalog_list, catalog_structures, ideals, tables, validate_group
from wbk.tables import _close, _elements, _generators, _mask


def _old_close(op, seed, unary=None, done=0):
    """The closure before generators: each new element times every member,
    in both orders."""
    members = seed
    mem = _elements(seed)
    work = _elements(seed & ~done)
    while work:
        x = work.pop()
        row = op[x]
        new = 0 if unary is None else unary[x]
        for y in mem:
            new |= 1 << row[y] | 1 << op[y][x]
        new &= ~members
        if new:
            members |= new
            fresh = _elements(new)
            mem += fresh
            work += fresh
    return members


def _old_generators(op, reach=0):
    """The greedy loop of _generators on _old_close."""
    gens = []
    while reach != (1 << len(op)) - 1:
        x = (~reach & (reach + 1)).bit_length() - 1
        gens.append(x)
        reach = _old_close(op, reach | 1 << x, done=reach)
    return gens


def _fixpoint(op, seed, unary=None):
    """Least superset of seed closed under op in both orders and unary
    (bitmasks of images), by adding every product and image until stable."""
    out = set(seed)
    while True:
        new = {op[a][b] for a in out for b in out}
        if unary is not None:
            new.update(u for x in out for u in _elements(unary[x]))
        if new <= out:
            return out
        out |= new


def _right_fixpoint(op, gens):
    """Least superset of gens closed under x -> x·g for every g in gens."""
    out = set(gens)
    while True:
        new = {op[x][g] for x in out for g in gens}
        if new <= out:
            return out
        out |= new


def _structures():
    out = list(catalog_structures())
    out += [(f"exotic Z{n}", exotic(n).as_dual()) for n in range(2, 17, 2)]
    out += [(f"chain {c}", exotic_chain(c)) for c in ((4, 2), (8, 4, 2), (12, 6, 2))]
    out += [("non-chain", non_chain())]
    return out + [(name + " opposite", s.opposite()) for name, s in out]


def _groups():
    out = [(name, catalog_get(name)) for name, kind, _ in catalog_list() if kind == "group"]
    out.append(("(Z2)^4", validate_group([[a ^ b for b in range(16)] for a in range(16)])))
    return out + [("S4", validate_group(symmetric_table(4)))]


def _corpus():
    """(name, table, unary maps to close under besides none): every catalog
    group, (Z2)^4 and S4 with the inverse map, and both tables of every
    structure with their inverse maps, + also with the ideal images."""
    out = [(name, g.op, ([1 << v for v in g.inv],)) for name, g in _groups()]
    for name, s in _structures():
        out.append((name + " +", s.add.op, ([1 << v for v in s.add.inv], ideals._ideal_images(s))))
        out.append((name + " *", s.mul.op, ([1 << v for v in s.mul.inv],)))
    return out


def test_close_matches_the_fixpoint_on_the_corpus():
    rng = random.Random(31)
    checked = 0
    for name, op, unaries in _corpus():
        n = len(op)
        random_unary = [_mask(rng.sample(range(n), rng.randrange(2))) for _ in range(n)]
        for unary in (None, random_unary) + unaries:
            for _ in range(3):
                seed = rng.sample(range(n), rng.randrange(min(n, 3) + 1))
                gens = []
                done = _close(op, _mask(seed), unary, gens=gens)
                assert set(_elements(done)) == _fixpoint(op, seed, unary), (name, seed)
                # gens, extended in place, generates the closure
                assert _fixpoint(op, gens, unary) == set(_elements(done)), (name, seed, gens)
                for x in rng.sample(range(n), min(n, 3)):
                    want = _mask(_fixpoint(op, _elements(done) + [x], unary))
                    assert _close(op, done | 1 << x, unary, done, list(gens)) == want, (name, seed, x)
                    assert _close(op, done | 1 << x, unary, done) == want, (name, seed, x)
                    checked += 1
    assert checked > 1000


def test_close_from_every_subgroup_of_s4():
    # every subgroup of S4 is generated by two elements; close it with every
    # x, its generators given and not given
    op = validate_group(symmetric_table(4)).op
    want = {}
    for a, b in combinations_with_replacement(range(24), 2):
        gens = []
        done = _close(op, 1 << a | 1 << b, gens=gens)
        for x in range(24):
            if (done, x) not in want:
                want[done, x] = _mask(_fixpoint(op, _elements(done) + [x]))
            assert _close(op, done | 1 << x, done=done) == want[done, x], (a, b, x)
            assert _close(op, done | 1 << x, done=done, gens=list(gens)) == want[done, x], (a, b, x)
    assert len({done for done, _ in want}) == 30


def test_close_reaches_the_right_products_on_any_magma():
    # before Light's test the table may not be associative: the closure is
    # then the right products of its generators, inside the closure in both
    # orders, and the greedy generators still generate the whole table
    rng = random.Random(32)
    for _ in range(600):
        n = rng.randrange(1, 7)
        op = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        seed = rng.sample(range(n), rng.randrange(1, n + 1))
        got = _close(op, _mask(seed))
        assert set(_elements(got)) == _right_fixpoint(op, seed), (op, seed)
        assert got & ~_old_close(op, _mask(seed)) == 0, (op, seed)
        gens = _generators(op)
        assert _right_fixpoint(op, gens) == set(range(n)), (op, gens)


def _tables_for_generators():
    """(name, table, reach): every group over its identity and over the empty
    set, and every Clifford table of the structures, with their transposes."""
    out = []
    for name, g in _groups():
        out += [(name, g.op, 1 << g.identity), (name, g.op, 0)]
    for name, s in _structures():
        for side, t in (("+", s.add), ("*", s.mul)):
            out += [(f"{name} {side}", t.op, 0), (f"{name} {side} transposed", t.transpose().op, 0)]
            if len(t.idempotents) == 1:
                out.append((f"{name} {side} over e", t.op, 1 << t.idempotents[0]))
    return out


def test_generators_match_the_old_greedy_output():
    cases = _tables_for_generators()
    for name, op, reach in cases:
        assert _generators(op, reach) == _old_generators(op, reach), name
    assert len(cases) > 150


class _CountingRow:
    """A table row that counts its reads in reads[0]."""

    def __init__(self, row, reads):
        self.row, self.reads = row, reads

    def __getitem__(self, b):
        self.reads[0] += 1
        return self.row[b]


def _old_close_with_gens(op, seed, unary=None, done=0, gens=None):
    """_old_close with the generator list of _close: the seed outside done."""
    gens += _elements(seed & ~done)
    return _old_close(op, seed, unary, done)


def _reads_per_level(monkeypatch, close, table):
    """_generators over the identity 0 with close in place of _close: the
    greedy set and the table reads of each level (one closure call)."""
    reads, levels = [0], []

    def counted(*args, **kwargs):
        before = reads[0]
        out = close(*args, **kwargs)
        levels.append(reads[0] - before)
        return out

    monkeypatch.setattr(tables, "_close", counted)
    gens = tables._generators(tuple(_CountingRow(row, reads) for row in table), 1)
    return gens, levels


def test_generators_read_each_member_once_per_generator(monkeypatch):
    # each level reads at most n·(|gens| + 1) products (the +1 is the
    # identity, a generator of the starting reach); the closure in both
    # orders reads about n² per level and fails the bound
    cases = [([[(a + b) % n for b in range(n)] for a in range(n)], [1]) for n in (32, 64, 96)]
    cases += [([[a ^ b for b in range(1 << k)] for a in range(1 << k)], [1 << i for i in range(k)]) for k in (4, 5, 6)]
    for table, want in cases:
        n = len(table)
        gens, levels = _reads_per_level(monkeypatch, _close, table)
        assert gens == want and len(levels) == len(gens)
        assert all(r <= n * (len(gens) + 1) for r in levels), (n, gens, levels)
        old_gens, old_levels = _reads_per_level(monkeypatch, _old_close_with_gens, table)
        assert old_gens == gens and max(old_levels) > n * (len(gens) + 1), (n, old_levels)
