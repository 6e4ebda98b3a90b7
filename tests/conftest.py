import itertools
import time

import pytest

import wbk

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("wbk", derandomize=True, deadline=None, max_examples=60)
    settings.load_profile("wbk")

# session start, read by the wall-clock budget test that runs last
SESSION_T0 = time.monotonic()


@pytest.fixture(scope="session")
def z6():
    return wbk.catalog_get("z6_exotic").as_dual()


@pytest.fixture(scope="session")
def c3_sym3():
    return wbk.compose(wbk.catalog_get("c3_sym3"))


@pytest.fixture(scope="session")
def c2_c4():
    return wbk.compose(wbk.catalog_get("c2_c4_braces"))


@pytest.fixture(scope="session")
def all_structures():
    """Every catalog entry as a dual weak brace, specs composed."""
    return wbk.catalog_structures()


def exotic(n):
    """The skew brace on Z_n with a*b = a + (-1)^a b (n even)."""
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a + (-1) ** a * b) % n for b in range(n)] for a in range(n)]
    return wbk.validate_skew_brace(add, mul)


def exotic_chain_spec(orders):
    """Exotic Z_o components on a chain, 0 on top, joined by x -> x mod o;
    each order must divide the one above it."""
    k = len(orders)
    y = [[max(a, b) for b in range(k)] for a in range(k)]
    homs = {
        (a, b): tuple(x % orders[b] for x in range(orders[a]))
        for a in range(k)
        for b in range(a + 1, k)
    }
    return wbk.validate_spec(y, [exotic(o) for o in orders], homs)


def exotic_chain(orders):
    """The dual weak brace composed from exotic_chain_spec(orders)."""
    return wbk.compose(exotic_chain_spec(orders))


def symmetric_table(k):
    """The Cayley table of S_k on its permutations in sorted order, (pq)(i) = p(q(i))."""
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[i] for i in q)] for q in perms] for p in perms]


def relabelled_table(table, perm):
    """The table transported along perm: entry (perm[a], perm[b]) is perm[a·b]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            out[perm[a]][perm[b]] = perm[v]
    return out


def enumerate_by(monkeypatch, s, search):
    """wbk.enumerate_ideals(s) through the named search, exhaustive or
    closure, forced by moving EXHAUSTIVE_BOUND to either side of s.order."""
    monkeypatch.setattr(wbk.ideals, "EXHAUSTIVE_BOUND", s.order if search == "exhaustive" else 0)
    enum = wbk.enumerate_ideals(s)
    assert enum.mode == search
    return enum


def non_chain():
    # two incomparable tops 0 and 1 over a bottom 2, so eta may swap them
    y = [[0, 2, 2], [2, 1, 2], [2, 2, 2]]
    c2, c4 = wbk.catalog_get("c2_trivial"), wbk.catalog_get("c4_trivial")
    return wbk.compose(wbk.validate_spec(y, [c2, c2, c4], {(0, 2): (0, 2), (1, 2): (0, 2)}))


def elementary(k):
    """The trivial brace on (Z2)^k, xor on k bits, as a dual weak brace."""
    table = [[a ^ b for b in range(1 << k)] for a in range(1 << k)]
    return wbk.validate_skew_brace(table, table).as_dual()


def sym3_cyclic():
    """(S, +) = sym3 and (S, ∘) cyclic of order 6: a∘b = a + (-t + b + t)
    with t = 1 for the transpositions a in {1, 2, 5}, a + b otherwise.

    {0, 1} is lambda-invariant and a normal subgroup of (S, ∘), but not
    normal in (S, +); only the + conjugates -a + i + a tell it apart."""
    mul = [
        [0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 1, 0],
        [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 0, 1, 2, 3],
    ]
    return wbk.validate_skew_brace(wbk.catalog_get("sym3").op, mul).as_dual()
