"""The table kernels against brute-force oracles.

The row kernels run on bytes up to tables.BYTES_BOUND and on tuples above
it; each test below runs both, forcing tuples with a bound of 0.
Associativity (Light's test on a generating set), compatibility (on a
generating set of (S, +)) and the braid check (on signature
representatives), each followed by one row over c per (a, b) for the
witness, must agree with a plain lexicographic scan of every triple: same
verdict, law, witness and side.  The pseudo-inverses of validate_clifford
must be those of a scan of every x, the range check of a raw table that of
a scan of every entry, and check_regularity's verdict and witness those of
composing the maps as lists.  The equivariance check of glued solutions
must agree with a scan of every pair, and composition of solutions with
its per-entry definition.  The inverse search of validate_group must find
the inverse a scan of every x finds.  The recursive searches must leave no
reference cycle behind.
"""

import gc
import random
from enum import IntEnum
from math import gcd
from itertools import islice, product
from types import SimpleNamespace

import pytest
from conftest import exotic, exotic_chain, exotic_chain_spec, non_chain, relabelled_table, symmetric_table

import wbk
from wbk import SolutionTable, ValidationError, braces, solutions, tables, validate_group
from wbk.tables import _close, _first_nonassoc, _generators, _mask

# gens = [0], and the least non-associative triple (0, 1, 0) has its middle
# element outside them: the generator pass fails only at a = 1 and 2
FALLBACK_MAGMA = ((2, 2, 1), (0, 1, 0), (1, 1, 2))


def _nonassoc_scan(op, gens=None):
    # the oracle scans every triple, so it ignores the generating set
    n = len(op)
    for a, b, c in product(range(n), repeat=3):
        if op[op[a][b]][c] != op[a][op[b][c]]:
            return (a, b, c)
    return None


def _compatibility_scan(add, mul, gens=None):
    n = add.order
    for a, b, c in product(range(n), repeat=3):
        lhs = mul.op[a][add.op[b][c]]
        rhs = add.op[add.op[mul.op[a][b]][add.inv[a]]][mul.op[a][c]]
        if lhs != rhs:
            raise ValidationError("compatibility", (a, b, c))


def _braid_scan(r):
    def r12(t):
        u, v = r.pairs[t[0]][t[1]]
        return (u, v, t[2])

    def r23(t):
        u, v = r.pairs[t[1]][t[2]]
        return (t[0], u, v)

    for t in product(range(r.order), repeat=3):
        if r12(r23(r12(t))) != r23(r12(r23(t))):
            return t
    return None


def _pseudo_inverse_oracle(op):
    """The pseudo-inverse of each a, scanning every x; not_inverse (a,) at
    the first a with none or several."""
    n, inv = len(op), []
    for a in range(n):
        cands = [x for x in range(n) if op[op[a][x]][a] == a and op[op[x][a]][x] == x]
        if len(cands) != 1:
            raise ValidationError("not_inverse", (a,))
        inv.append(cands[0])
    return inv


def _frozen_oracle(raw):
    """raw as nested tuples, scanning every entry; not_closed at the first
    short row or the first entry that is not an int (bools excluded) in range."""
    n = len(raw)
    if n == 0:
        raise ValidationError("not_closed", ())
    rows = []
    for a, row in enumerate(raw):
        row = tuple(row)
        if len(row) != n:
            raise ValidationError("not_closed", (a,))
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ValidationError("not_closed", (a, b))
        rows.append(row)
    return tuple(rows)


def _outcome(validate, *raw):
    try:
        validate(*raw)
    except ValidationError as err:
        return (err.law, err.witness, err.side)
    return "valid"


def _oracle_outcome(validate, *raw):
    """_outcome with the row kernels swapped for the scans."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "_frozen_table", _frozen_oracle)
        mp.setattr(tables, "_first_nonassoc", _nonassoc_scan)
        mp.setattr(tables, "_pseudo_inverses", _pseudo_inverse_oracle)
        mp.setattr(braces, "_check_compatibility", _compatibility_scan)
        return _outcome(validate, *raw)


MAGMA_VALIDATORS = (wbk.validate_group, wbk.validate_semilattice, wbk.validate_clifford)
PAIR_VALIDATORS = (wbk.validate_skew_brace, wbk.validate_dual_weak_brace)


def _check_magma(op):
    op = tuple(map(tuple, op))
    n = len(op)
    gens = _generators(op)
    assert _close(op, _mask(gens)) == (1 << n) - 1
    assert _first_nonassoc(op, gens) == _nonassoc_scan(op), op
    for validate in MAGMA_VALIDATORS:
        assert _outcome(validate, op) == _oracle_outcome(validate, op), (validate.__name__, op)


def test_light_matches_scan_on_random_magmas(monkeypatch):
    rng = random.Random(20)
    magmas = []
    for _ in range(1500):
        m = rng.randrange(1, 6)
        magmas.append([[rng.randrange(m) for _ in range(m)] for _ in range(m)])
    for bound in (tables.BYTES_BOUND, 0):
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        for op in magmas:
            _check_magma(op)


def test_fallback_reports_the_least_witness_outside_the_generators():
    op = FALLBACK_MAGMA
    assert _generators(op) == [0]
    assert _nonassoc_scan(op) == (0, 1, 0)
    assert _first_nonassoc(op, [0]) == (0, 1, 0)
    with pytest.raises(ValidationError) as exc:
        wbk.validate_clifford(op)
    assert (exc.value.law, exc.value.witness) == ("not_associative", (0, 1, 0))


def test_light_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    magmas = st.integers(1, 5).flatmap(
        lambda m: st.lists(st.lists(st.integers(0, m - 1), min_size=m, max_size=m), min_size=m, max_size=m)
    )

    @hypothesis.given(magmas)
    def check(op):
        _check_magma(op)

    check()


def _group_bases():
    out = [wbk.catalog_get(name).op for name, kind, _ in wbk.catalog_list() if kind == "group"]
    out += [t.op for n in range(2, 17, 2) for t in (exotic(n).add, exotic(n).mul)]
    out += [[[a ^ b for b in range(8)] for a in range(8)], symmetric_table(4)]
    # a group whose identity is not 0
    return out + [relabelled_table(symmetric_table(3), [3, 0, 5, 1, 4, 2])]


def _semilattice_bases():
    chains = [[[min(a, b) for b in range(n)] for a in range(n)] for n in (3, 5, 8)]
    subsets = [[[a & b for b in range(1 << k)] for a in range(1 << k)] for k in (2, 3, 4)]
    divisors = [d for d in range(1, 37) if 36 % d == 0]
    gcds = [[divisors.index(gcd(a, b)) for b in divisors] for a in divisors]
    return chains + subsets + [gcds]


def _clifford_bases():
    return [t for add, mul in _bases() for t in (add, mul)]


def _expect_least_nonassoc(validate, op, seen):
    want = _nonassoc_scan(op)
    got = _outcome(validate, op)
    if want is not None:
        assert got == ("not_associative", want, None), (validate.__name__, op)
    seen.add(want)


def test_validators_report_the_least_nonassociative_triple():
    # tables that pass every check before associativity, made non-associative:
    # a group row with two entries swapped (neither the identity, so the
    # identity and the inverses stay), a semilattice meet moved on both sides
    # of the diagonal, one entry of a Clifford table changed
    rng = random.Random(33)
    seen = {"group": set(), "semilattice": set(), "clifford": set()}
    for base in _group_bases():
        e = validate_group(base).identity
        n = len(base)
        for _ in range(40 if n > 2 else 0):
            op = [list(row) for row in base]
            for _ in range(rng.randrange(1, 3)):
                a = rng.choice([x for x in range(n) if x != e])
                cells = [b for b in range(n) if b != e and op[a][b] != e]
                if len(cells) > 1:
                    b, c = rng.sample(cells, 2)
                    op[a][b], op[a][c] = op[a][c], op[a][b]
            _expect_least_nonassoc(wbk.validate_group, op, seen["group"])
    for base in _semilattice_bases():
        n = len(base)
        for _ in range(40):
            op = [list(row) for row in base]
            a, b = rng.sample(range(n), 2)
            op[a][b] = op[b][a] = rng.randrange(n)
            _expect_least_nonassoc(wbk.validate_semilattice, op, seen["semilattice"])
    for base in _clifford_bases():
        n = len(base)
        for _ in range(6 if n > 1 else 0):
            op = [list(row) for row in base]
            op[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            _expect_least_nonassoc(wbk.validate_clifford, op, seen["clifford"])
    for kind, witnesses in seen.items():
        # many distinct witnesses, not all with b among the first elements
        assert len(witnesses - {None}) > 30, kind
        assert any(w is not None and w[1] > 1 for w in witnesses), kind


def _inverse_scan(op, ident):
    """The inverses by the rule's definition: per a, the least x with
    ax = e = xa over every x; ("no_inverse", (a,)) at the first a without."""
    inv = []
    for a in range(len(op)):
        x = next((x for x in range(len(op)) if op[a][x] == ident and op[x][a] == ident), None)
        if x is None:
            return ("no_inverse", (a,))
        inv.append(x)
    return inv


def test_inverse_search_matches_scan():
    # group tables with the identity written into other cells of a row (an
    # earlier e whose column fails), removed from a row, or removed from a
    # column; the identity's own row and column stay
    rng = random.Random(34)
    outcomes, skipped = set(), 0
    for base in _group_bases():
        g = validate_group(base)
        e, n = g.identity, g.order
        for _ in range(60 if n > 2 else 0):
            op = [list(row) for row in base]
            for _ in range(rng.randrange(1, 4)):
                a = rng.choice([x for x in range(n) if x != e])
                kind = rng.randrange(3)
                if kind == 0:
                    op[a][rng.choice([x for x in range(n) if x != e])] = e
                else:
                    x, y = (a, g.inv[a]) if kind == 1 else (g.inv[a], a)
                    op[x][y] = rng.choice([v for v in range(n) if v != e])
            want = _inverse_scan(op, e)
            try:
                got = tables._inverses(op, e)
            except ValidationError as err:
                got = (err.law, err.witness)
            assert got == want, op
            outcomes.add(want[0] if isinstance(want, tuple) else "found")
            # rows holding e at some x before their inverse, whose column fails
            if isinstance(want, list):
                skipped += sum(op[a].index(e) < x for a, x in enumerate(want))
            got = _outcome(wbk.validate_group, op)
            if isinstance(want, tuple):
                assert got == want + (None,), op
            elif got == "valid":
                assert wbk.validate_group(op).inv == tuple(want)
    assert outcomes == {"found", "no_inverse"} and skipped > 50


def _leftover_searches(run):
    """The functions named search that only the cyclic collector frees
    after run(), which runs with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [obj for obj in gc.garbage if getattr(obj, "__name__", None) == "search"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_searches_leave_no_reference_cycle():
    s, t = exotic(8).as_dual(), exotic_chain((4, 2))
    g, h = exotic(8).add, exotic(8).mul
    runs = {
        "enumerate_ideals": lambda: wbk.enumerate_ideals(s),
        "full hom stream": lambda: list(tables._iter_group_homs(g, h)),
        "abandoned hom stream": lambda: list(islice(tables._iter_group_homs(g, g), 2)),
        "are_isomorphic (yes)": lambda: wbk.are_isomorphic(t, t),
        "are_isomorphic (no)": lambda: wbk.are_isomorphic(s, s.opposite()),
    }
    for name, run in runs.items():
        assert _leftover_searches(run) == [], name


def _raw(s):
    return [list(row) for row in s.add.op], [list(row) for row in s.mul.op]


def _bases():
    out = [_raw(exotic(n).as_dual()) for n in range(2, 17, 2)]
    xor = [[a ^ b for b in range(8)] for a in range(8)]
    out.append((xor, xor))
    out += [_raw(exotic_chain(orders)) for orders in ((4, 2), (6, 2, 2), (4, 4, 2))]
    out += [_raw(s) for _, s in wbk.catalog_structures()]
    return out


def _check_pair(add, mul):
    """Outcomes of both pair validators, each checked against the oracle."""
    out = [_outcome(validate, add, mul) for validate in PAIR_VALIDATORS]
    assert out == [_oracle_outcome(validate, add, mul) for validate in PAIR_VALIDATORS], (add, mul)
    return out


def test_validators_match_scans_on_corrupted_and_twisted_tables(monkeypatch):
    for bound in (tables.BYTES_BOUND, 0):
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        rng = random.Random(21)
        seen = set()
        for add, mul in _bases():
            n = len(add)
            seen.update(_check_pair(add, mul))
            for side, _ in product((0, 1), range(12 if n > 1 else 0)):
                tabs = [[list(row) for row in add], [list(row) for row in mul]]
                a, b = rng.randrange(n), rng.randrange(n)
                tabs[side][a][b] = (tabs[side][a][b] + rng.randrange(1, n)) % n
                seen.update(_check_pair(*tabs))
            # two valid tables with one relabelled by a permutation fixing 0:
            # both pass as groups or Clifford semigroups, then compatibility decides
            for _ in range(6):
                rest = list(range(1, n))
                rng.shuffle(rest)
                perm = [0] + rest
                seen.update(_check_pair(add, relabelled_table(mul, perm)))
                seen.update(_check_pair(relabelled_table(add, perm), mul))
        laws = {(o[0], o[2]) for o in seen if o != "valid"}
        assert {("not_associative", "add"), ("not_associative", "mul"), ("compatibility", None)} <= laws
        assert "valid" in seen
        assert len({o[1] for o in seen if o != "valid" and o[0] == "compatibility"}) > 5


def test_validators_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bases = _bases()

    @hypothesis.given(st.sampled_from(bases), st.integers(0, 1), st.randoms(use_true_random=False))
    def check(base, side, rng):
        tabs = [[list(row) for row in t] for t in base]
        n = len(tabs[0])
        for _ in range(rng.randrange(1, 3)):
            tabs[side][rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        _check_pair(*tabs)

    check()


def _result(f, *args):
    """f(*args), or (law, witness) when it raises a ValidationError."""
    try:
        return f(*args)
    except ValidationError as err:
        return (err.law, err.witness)


def _pseudo_inverse_bases():
    """Chains, boolean semilattices, groups, and both tables of structures
    with several components."""
    out = [[[max(a, b) for b in range(k)] for a in range(k)] for k in (1, 2, 3, 5)]
    out += [[[a & b for b in range(8)] for a in range(8)], [[a | b for b in range(4)] for a in range(4)]]
    out += [[[(a + b) % n for b in range(n)] for a in range(n)] for n in (2, 3, 6)]
    out += [exotic(8).mul.op, symmetric_table(3)]
    out += [t.op for s in (exotic_chain((4, 2)), exotic_chain((6, 2, 2)), non_chain()) for t in (s.add, s.mul)]
    return [tuple(map(tuple, op)) for op in out]


def test_pseudo_inverses_match_the_scan(monkeypatch):
    # the kernel reads x -> (ax)a off row a translated by column a, and only
    # when a occurs there other than once, or its one x fails (xa)x = x,
    # falls back to the scan of every x; groups never fall back
    rng = random.Random(27)
    cases, groups = [], []
    for op in _pseudo_inverse_bases():
        n = len(op)
        cases.append(op)
        if all(row.count(row[0]) == 1 for row in op):  # a Latin square: one of the groups
            groups.append(op)
        for _ in range(40 if n > 1 else 0):
            bad = [list(row) for row in op]
            for _ in range(rng.randrange(1, 4)):
                bad[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            cases.append(tuple(map(tuple, bad)))
    scan = tables._pseudo_inverse_scan
    fallbacks = []

    def recorded(op, a):
        hits = [x for x in range(len(op)) if op[op[a][x]][a] == a]
        fallbacks.append("none" if not hits else "one failing" if len(hits) == 1 else "several")
        return scan(op, a)

    monkeypatch.setattr(tables, "_pseudo_inverse_scan", recorded)
    for bound in (tables.BYTES_BOUND, 0):
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        del fallbacks[:]
        for op in groups:
            assert tables._pseudo_inverses(op) == _pseudo_inverse_oracle(op), op
        assert len(groups) == 6 and fallbacks == []
        laws = set()
        for op in cases:
            want = _result(_pseudo_inverse_oracle, op)
            assert _result(tables._pseudo_inverses, op) == want, (bound, op)
            laws.add(want[0] if isinstance(want, tuple) else "found")
            # the whole validator, with the scan in place of the kernel
            assert _outcome(wbk.validate_clifford, op) == _oracle_outcome(wbk.validate_clifford, op), (bound, op)
        assert laws == {"found", "not_inverse"}
        assert set(fallbacks) == {"none", "one failing", "several"}


class _Label(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


def test_frozen_table_matches_the_entry_scan(monkeypatch):
    # a row passes on an exact-type count and, up to tables.BYTES_BOUND, a
    # translate that deletes range(n) (bytes() rejects entries past 255),
    # above it min and max; every other row is scanned entry by entry
    z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    cases = [[], [[0, 1], [1]], [[0, 1], [1, 0, 1]], ["012", "120", "201"], [[_Label(v) for v in row] for row in z3]]
    for v in (True, False, _Label.ONE, 1.0, None, "1", -1, 3, 255, 256, -(2**70), 2**70):
        for a, b in ((0, 0), (1, 2), (2, 1)):
            t = [list(row) for row in z3]
            t[a][b] = v
            cases.append(t)
    for n in (256, 257):
        base = [[(a + b) % n for b in range(n)] for a in range(n)]
        for v in (255, 256, 257, -1):
            t = [list(row) for row in base]
            t[n - 2][7] = v
            cases.append(t)
    for bound in (tables.BYTES_BOUND, 0):
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        outcomes = []
        for raw in cases:
            want = _result(_frozen_oracle, raw)
            got = _result(tables._frozen_table, raw)
            assert got == want, (bound, raw)
            if type(want[0]) is str:  # (law, witness)
                outcomes.append(want)
            else:  # the frozen table, with the same entry types
                assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want], raw
                outcomes.append("valid")
        # order 3: an IntEnum table passes, and every planted value but the
        # in-range IntEnum fails where it was planted
        planted = [("not_closed", (0, 0)), ("not_closed", (1, 2)), ("not_closed", (2, 1))]
        assert outcomes[:5] == [
            ("not_closed", ()), ("not_closed", (1,)), ("not_closed", (1,)), ("not_closed", (0, 0)), "valid"
        ]
        assert outcomes[5:-8] == planted * 2 + ["valid"] * 3 + planted * 9
        # orders 256 and 257: 255 passes at both, 256 only at 257
        assert outcomes[-8:] == ["valid", ("not_closed", (254, 7))] + [("not_closed", (254, 7))] * 2 + [
            "valid", "valid", ("not_closed", (255, 7)), ("not_closed", (255, 7))
        ]


def _regularity_oracle(s):
    """check_regularity's report, composing the maps as lists."""
    n, lam_rows, rho_rows = s.order, s._lam, s._rho

    def comp(f, g):
        return [f[x] for x in g]

    witness = None
    for a, ai in enumerate(s.mul.inv):
        for name, rows in (("lambda", lam_rows), ("rho", rho_rows)):
            f, g = rows[a], rows[ai]
            if comp(comp(f, g), f) != f:
                witness = witness or (name, "sandwich", a)
            if comp(comp(g, f), g) != g:
                witness = witness or (name, "sandwich_inv", a)
            if comp(f, g) != comp(g, f):
                witness = witness or (name, "commute", a)
    lam_bij = tuple(len(set(row)) == n for row in lam_rows)
    rho_bij = tuple(len(set(row)) == n for row in rho_rows)
    return solutions.RegularityReport(witness is None, witness, lam_bij, rho_bij)


def _map_tables(rng, n):
    """A stand-in for a structure: lam and rho tables of list rows drawn
    from a few maps (the identity, idempotents, permutations, any map), and
    a random mul-inverse."""
    ident = list(range(n))

    def pool():
        out = [ident]
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                out.append(rng.sample(ident, n))
            else:
                image = rng.sample(ident, rng.randint(1, n))
                f = [rng.choice(image) for _ in ident]
                out.append([x if x in image else f[x] for x in ident] if kind == 1 else f)
        return out

    lam = [list(rng.choice(p)) for p in [pool()] for _ in ident]
    if rng.random() < 0.4:
        lam = [list(ident) for _ in ident]  # lambda holds, so rho decides
    rho = [list(rng.choice(p)) for p in [pool()] for _ in ident]
    inv = [rng.randrange(n) for _ in ident]
    return SimpleNamespace(order=n, _lam=lam, _rho=rho, mul=SimpleNamespace(inv=tuple(inv)))


def test_regularity_matches_the_list_loop(monkeypatch):
    # every composite is a translate, and the witness is still the first
    # failure by a, lambda before rho, then sandwich, sandwich_inv, commute
    rng = random.Random(28)
    cases = [s for _, s in wbk.catalog_structures()]
    cases += [exotic(n).as_dual() for n in (8, 24)] + [exotic_chain((6, 2, 2))]
    real = len(cases)
    cases += [_map_tables(rng, rng.randint(1, 4)) for _ in range(1500)]
    for bound in (tables.BYTES_BOUND, 0):
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        witnesses = []
        for s in cases:
            want = _regularity_oracle(s)
            assert wbk.check_regularity(s) == want, (bound, s)
            witnesses.append(want.witness)
        assert witnesses[:real] == [None] * real
        seen = {w[:2] for w in witnesses if w is not None}
        assert seen == set(product(("lambda", "rho"), ("sandwich", "sandwich_inv", "commute")))
        assert len({w[2] for w in witnesses if w is not None}) == 4


def _corrupted(r, rng, entries):
    n = r.order
    pairs = [list(row) for row in r.pairs]
    for _ in range(entries):
        pairs[rng.randrange(n)][rng.randrange(n)] = (rng.randrange(n), rng.randrange(n))
    return SolutionTable(n, tuple(map(tuple, pairs)))


def _moved(r, rng, side):
    """r with one cell's lam value (side 0) or rho value (side 1) moved to
    another element, the other coordinate kept."""
    n = r.order
    pairs = [list(row) for row in r.pairs]
    a, b = rng.randrange(n), rng.randrange(n)
    cell = list(pairs[a][b])
    cell[side] = (cell[side] + rng.randrange(1, n)) % n
    pairs[a][b] = tuple(cell)
    return SolutionTable(n, tuple(map(tuple, pairs)))


def _solutions():
    out = [wbk.solution_of(s) for _, s in wbk.catalog_structures()]
    out += [wbk.solution_of(exotic(n).as_dual()) for n in (8, 12, 24, 32)]
    out += [wbk.solution_of(exotic_chain(orders)) for orders in ((6, 2, 2), (8, 4, 2))]
    return out


def test_check_braid_matches_scan(monkeypatch):
    # the bytes kernel (orders up to tables.BYTES_BOUND) and the tuple kernel
    # (forced by a bound of 0) on the same solutions, corrupted solutions
    # and random tables, each against the plain scan of every triple
    rng = random.Random(22)
    cases, moved = [], [0, 0]
    for r in _solutions():
        cases.append((r, None))
        for _ in range(25 if r.order < 24 else 8):
            bad = _corrupted(r, rng, rng.randrange(1, 3))
            cases.append((bad, _braid_scan(bad)))
        for side, _ in product((0, 1), range(6)):
            bad = _moved(r, rng, side)
            want = _braid_scan(bad)
            cases.append((bad, want))
            moved[side] += want is not None
    for _ in range(500):
        m = rng.randrange(1, 5)
        r = SolutionTable(m, tuple(tuple((rng.randrange(m), rng.randrange(m)) for _ in range(m)) for _ in range(m)))
        cases.append((r, _braid_scan(r)))
    for bound in (tables.BYTES_BOUND, 0):
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        for r, want in cases:
            assert wbk.check_braid(r) == want, (bound, r)
    assert sum(want is not None for _, want in cases) > 300
    assert min(moved) > 40


def test_check_braid_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sols = _solutions()

    @hypothesis.given(st.sampled_from(sols), st.randoms(use_true_random=False))
    def check(r, rng):
        bad = _corrupted(r, rng, rng.randrange(1, 3))
        assert wbk.check_braid(bad) == _braid_scan(bad)

    check()


def _table_solution(lam, rho):
    """r(x, y) = (lam[x][y], rho[x][y]), from the rows of both tables."""
    return SolutionTable(len(lam), tuple(tuple(zip(lr, rr)) for lr, rr in zip(lam, rho)))


def _pooled(rng, n):
    """A solution table whose rows L[x] come from a pool of one or two maps
    and whose columns R[.][y] from another, each map degenerate or bijective."""

    def pool():
        return [
            rng.sample(range(n), n) if rng.random() < 0.5 else [rng.randrange(n) for _ in range(n)]
            for _ in range(rng.randint(1, 2))
        ]

    sigmas, taus = pool(), pool()
    cols = [rng.choice(taus) for _ in range(n)]
    return _table_solution([rng.choice(sigmas) for _ in range(n)], [[t[x] for t in cols] for x in range(n)])


def _conjugations(k):
    """(y, y^-1 x y) and (x y x^-1, x) on S_k: one row map and k! column
    maps, then the other way round."""
    op = symmetric_table(k)
    n, inv = len(op), [row.index(0) for row in op]
    right = _table_solution([range(n)] * n, [[op[op[inv[y]][x]][y] for y in range(n)] for x in range(n)])
    left = _table_solution([[op[op[x][y]][inv[x]] for y in range(n)] for x in range(n)], [[x] * n for x in range(n)])
    return [right, left]


# (rows of L, rows of R, least witness): each fails only where the second
# half of a signature separates a from the representative of its row map
# (the first) or c from that of its column map (the second)
SIG_PINNED = [
    (((1, 1, 1), (0, 1, 2), (1, 1, 1)), ((2, 2, 2), (1, 1, 1), (1, 1, 1)), (2, 0, 0)),
    (((0, 2, 2), (0, 2, 2), (0, 2, 2)), ((2, 2, 0), (2, 2, 1), (2, 2, 2)), (0, 0, 1)),
]


def test_check_braid_matches_scan_on_few_distinct_maps(monkeypatch):
    # _braid_holds checks a only at the least element of each sig class and
    # c at the least of each sig' class; one or two distinct row and column
    # maps make those classes large
    rng = random.Random(25)
    twos = [(t[:2], t[2:]) for t in product(range(2), repeat=4)]
    cases = [_table_solution(lam, rho) for lam, rho in product(twos, repeat=2)]
    cases += [_pooled(rng, rng.randint(1, 4)) for _ in range(800)]
    cases += _conjugations(3) + _conjugations(4)
    cases += [_table_solution(lam, rho) for lam, rho, _ in SIG_PINNED]
    wants = [_braid_scan(r) for r in cases]
    for bound in (tables.BYTES_BOUND, 0):
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        for r, want in zip(cases, wants):
            assert wbk.check_braid(r) == want, (bound, r)
    assert wants[-6:] == [None] * 4 + [want for _, _, want in SIG_PINNED]
    assert sum(want is None for want in wants) > 150
    assert sum(want is not None for want in wants) > 500


def _signature_classes(r):
    """The least element of each class of sig and of sig', from the
    definitions: sig(a) = (σ_a, σ_t(a) for each distinct column map t) and
    sig'(c) = (τ_c, τ_s(c) for each distinct row map s)."""
    n = r.order
    sigma = [tuple(r.apply(x, y)[0] for y in range(n)) for x in range(n)]
    tau = [tuple(r.apply(x, y)[1] for x in range(n)) for y in range(n)]
    sig = [(sigma[a], *(sigma[t[a]] for t in set(tau))) for a in range(n)]
    sig_ = [(tau[c], *(tau[s[c]] for s in set(sigma))) for c in range(n)]
    return tuple(sorted({s: x for x, s in reversed(list(enumerate(sigs)))}.values()) for sigs in (sig, sig_))


def _representative_pair(r, enc=tuple):
    lam, rho = solutions._split(r)
    rows, cols = [enc(t) for t in lam], [enc(t) for t in zip(*rho)]
    return solutions._representatives(rows, cols), solutions._representatives(cols, rows)


def test_representatives_are_the_least_of_each_signature_class():
    rng = random.Random(26)
    sols = _solutions() + _conjugations(3) + [_pooled(rng, rng.randint(1, 6)) for _ in range(300)]
    sols += [_table_solution(lam, rho) for lam, rho, _ in SIG_PINNED]
    for r in sols:
        want = _signature_classes(r)
        assert _representative_pair(r) == want, r
        assert _representative_pair(r, bytes) == want, r


def test_representative_counts():
    def counts(r):
        return tuple(map(len, _representative_pair(r)))

    for n in (4, 6, 24, 64, 258):
        assert counts(wbk.solution_of(exotic(n).as_dual())) == (2, 2), n
    catalog = dict(wbk.catalog_structures())
    for name, want in (
        ("c2_trivial", (1, 1)), ("c3_trivial", (1, 1)), ("c4_trivial", (1, 1)), ("c6_trivial", (1, 1)),
        ("klein4_trivial", (1, 1)), ("sym3_trivial", (1, 6)), ("c3_sym3", (2, 9)), ("sl3_trivial", (3, 3)),
    ):
        assert counts(wbk.solution_of(catalog[name])) == want, name
    assert [counts(r) for r in _conjugations(4)] == [(1, 24), (24, 1)]


def test_check_braid_scans_rows_only_for_the_witness(monkeypatch):
    # past tables.BYTES_BOUND too, a solution is accepted without the row
    # scan, and a failure still gets the least witness
    sols = _solutions() + [wbk.solution_of(exotic(258).as_dual())]

    def refuse(n, rows):
        raise AssertionError("row scan on a solution")

    with monkeypatch.context() as m:
        m.setattr(solutions, "_least_row_failure", refuse)
        for bound in (tables.BYTES_BOUND, 0):
            m.setattr(tables, "BYTES_BOUND", bound)
            assert all(wbk.check_braid(r) is None for r in sols)
    big = sols[-1]
    pairs = [list(row) for row in big.pairs]
    u, v = pairs[0][5]
    pairs[0][5] = (u, (v + 1) % big.order)
    bad = SolutionTable(big.order, tuple(map(tuple, pairs)))
    want = _braid_scan(bad)  # it stops at the least witness
    assert want is not None and want[0] == 0
    assert wbk.check_braid(bad) == want


def _equivariance_scan(y, sols, maps):
    """The least (alpha, beta, x, z), pairs in comparable_pairs order, with
    r_beta(f x, f z) != (f u, f v) for (u, v) = r_alpha(x, z); None if none."""
    for alpha, beta in y.comparable_pairs():
        f, ra, rb = maps[(alpha, beta)], sols[alpha], sols[beta]
        for x, z in product(range(ra.order), repeat=2):
            u, v = ra.apply(x, z)
            if rb.apply(f[x], f[z]) != (f[u], f[v]):
                return (alpha, beta, x, z)
    return None


def test_equivariance_witness_matches_scan():
    rng = random.Random(23)
    seen = set()
    for orders in ((4, 2), (6, 2, 2), (8, 4, 2), (12, 6, 2), (8, 4, 4, 2)):
        spec = exotic_chain_spec(orders)
        sols = [wbk.solution_of(b.as_dual()) for b in spec.braces]
        assert wbk.strong_semilattice_of_solutions(spec.y, sols, spec.homs).order == sum(orders)
        for _ in range(40):
            maps = {key: list(f) for key, f in spec.homs.items()}
            for _ in range(rng.randrange(1, 3)):
                alpha, beta = rng.choice(sorted(maps))
                maps[(alpha, beta)][rng.randrange(orders[alpha])] = rng.randrange(orders[beta])
            want = _equivariance_scan(spec.y, sols, maps)
            try:
                wbk.strong_semilattice_of_solutions(spec.y, sols, maps)
            except ValidationError as err:
                got = err.witness if err.law == "equivariance" else None
            else:
                got = None
            assert got == want, (orders, maps)
            seen.add(got)
    # many distinct witnesses, some off the diagonal x = z
    assert len(seen) > 15 and any(w is not None and w[2] != w[3] for w in seen)


def test_compose_solutions_matches_the_definition():
    rng = random.Random(24)
    for _ in range(300):
        m = rng.randrange(1, 6)
        r1, r2 = (
            SolutionTable(m, tuple(tuple((rng.randrange(m), rng.randrange(m)) for _ in range(m)) for _ in range(m)))
            for _ in range(2)
        )
        want = tuple(tuple(r2.apply(*r1.apply(a, b)) for b in range(m)) for a in range(m))
        assert wbk.compose_solutions(r2, r1) == SolutionTable(m, want), (r2, r1)
