"""The ideal kernel against the law ladder, principal ideals against their
closures, and the quotient by E(S) against its rebuild.

ideals._ideal_holds decides the five ideal laws from translate tables kept
with the structure, on bytes up to tables.BYTES_BOUND and on tuples above
it; the ladder (_first_failure) names the law and the least witness after
a rejection.  Both encodings are compared on structures built after the
bound is set, since the tables are built once per structure.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest
from conftest import elementary, exotic, exotic_chain, non_chain, sym3_cyclic

import wbk
from wbk import ideals, tables
from wbk.ideals import _IDEAL, _TIERS, _first_failure, _ideal_holds, _tier
from wbk.tables import _close, _elements, _induced, _mask

CHAINS = ((4, 2), (8, 4, 2), (12, 6, 2), (8, 8), (4, 4, 4), (6, 2))


def _klein_cyclic():
    """(S, +) = (Z2)^2 as xor on two bits, (S, ∘) cyclic of order 4 with
    (a1, a2) ∘ (b1, b2) = (a1 + b1, a2 + b2 + a1 b1): lam_1 swaps 1 and 3,
    so the subgroup {0, 1} of (S, +) is normal there but not
    lambda-invariant."""
    mul = [[a ^ b ^ (a & b & 1) << 1 for b in range(4)] for a in range(4)]
    return wbk.validate_skew_brace(wbk.catalog_get("klein4").op, mul).as_dual()


def _lambda_only():
    """A brace on (Z2)^3 as xor on three bits with a ∘ b = a + φ_a(b), where
    φ_a is M1 when bit 0 of a is set (e2 -> e2 + e3) and M2 when bit 1 is
    (e1 -> e1 + e3), two commuting involutions that fix e3.  {0, e1} is a
    normal subgroup of both groups, but lam_{e2}(e1) = e1 + e3: only the
    lambda maps reject it."""
    table = [[a ^ b for b in range(8)] for a in range(8)]
    mul = [[a ^ b ^ ((a & b >> 1) ^ (a >> 1 & b)) << 2 & 4 for b in range(8)] for a in range(8)]
    return wbk.validate_skew_brace(table, mul).as_dual()


def _structures():
    """Fresh structures, none with a derived table built yet: the catalog,
    exotic Z2-Z24, exotic chains, (Z2)^1-(Z2)^4, four hand-made ones, and the
    opposites of all of them."""
    base = [(name, replace(s)) for name, s in wbk.catalog_structures()]
    base += [(f"exotic Z{n}", exotic(n).as_dual()) for n in range(2, 25, 2)]
    base += [(f"chain {c}", exotic_chain(c)) for c in CHAINS]
    base += [(f"(Z2)^{k}", elementary(k)) for k in range(1, 5)]
    base += [("non-chain", non_chain()), ("sym3 + / Z6 ∘", sym3_cyclic())]
    base += [("klein4 + / Z4 ∘", _klein_cyclic()), ("lambda only", _lambda_only())]
    return base + [(name + " opposite", s.opposite()) for name, s in base]


def _relabelled(cases, rng):
    """Two random relabellings of each case up to order 12.  Revalidation
    picks new greedy generators, often with a non-identity element first,
    so that the kernel's maps by each generator are needed somewhere."""
    return [
        (f"{name} relabelled {k}", wbk.relabel(s, rng.sample(range(s.order), s.order)))
        for name, s in cases if s.order <= 12 for k in range(2)
    ]


def _candidates(s, rng, flips):
    """Every ideal, the full inverse subsemigroups of (S, +) generated by
    one or two elements, and flips random perturbations of each (one to
    three elements toggled)."""
    n = s.order
    base = list(wbk.enumerate_ideals(s).ideals)
    base += {wbk.generated_full_inverse_subsemigroup(s, {a, b}) for a in range(n) for b in range(a, n)}
    out = set(base)
    for x in base:
        for _ in range(flips):
            out.add(x ^ frozenset(rng.sample(range(n), rng.randint(1, min(3, n)))))
    return sorted(out, key=sorted)


@pytest.mark.parametrize("bound", [tables.BYTES_BOUND, 0], ids=["bytes", "tuples"])
def test_ideal_kernel_matches_the_ladder(bound, monkeypatch):
    monkeypatch.setattr(tables, "BYTES_BOUND", bound)
    rng = random.Random(2024)
    cases = _structures()
    laws, checked = Counter(), 0
    for name, s in cases + _relabelled(cases, rng):
        for x in _candidates(s, rng, 24 if bound else 6):
            k, chk = _first_failure(s, x, _IDEAL)
            assert _ideal_holds(s, x) == (k is None), (name, sorted(x))
            got = wbk.is_ideal(s, x)
            assert (got.ok, got.law, got.witness) == (chk.ok, chk.law, chk.witness), (name, sorted(x))
            assert _tier(s, x) == _TIERS[_first_failure(s, x, (0, 2, 1, 3, 4))[0]], (name, sorted(x))
            laws[k if k is None else chk.law, k] += 1
            checked += 1
        assert type(s._ideal_maps[0][0]) is (bytes if bound else tuple), name
    # every law and every kind of law-0 failure is met, so no map the
    # kernel reads goes untested
    assert set(laws) == {
        (None, None), ("missing_idempotent", 0), ("no_inverse", 0), ("not_closed", 0),
        ("not_normal", 1), ("not_lambda_invariant", 2), ("not_normal", 4),
    }, laws
    assert checked > (13_000 if bound else 5_000)


def test_the_ladder_runs_only_after_a_rejection(monkeypatch):
    def refuse(s, x, laws):
        raise AssertionError("ladder ran on an accepted set")

    z6 = wbk.catalog_get("z6_exotic").as_dual()
    monkeypatch.setattr(ideals, "_first_failure", refuse)
    found = wbk.enumerate_ideals(z6).ideals
    assert all(wbk.is_ideal(z6, x) and _tier(z6, x) == "I" for x in found)
    assert wbk.quotient(z6, {0, 2, 4}).quotient.order == 2
    with pytest.raises(AssertionError, match="ladder ran"):
        wbk.is_ideal(z6, {0, 3})


def test_principal_ideals_are_the_closures_of_their_elements():
    # the walk x, 2x, 4x, ... stops at a known P, at the least ideal or at a
    # repeat (Z6: 1 -> 2 -> 4 -> 2); relabelled copies move the walks
    rng = random.Random(5)
    cases = _structures()
    cases += [(f"exotic Z{n}", exotic(n).as_dual()) for n in (32, 48, 96)]
    cases += _relabelled(cases, rng)
    for name, s in cases:
        add, images, gens = s.add.op, ideals._ideal_images(s), []
        least = _close(add, _mask(s.idempotents), images, gens=gens)
        principal = ideals._principal_ideals(add, least, gens, images)
        want = [sorted(wbk.ideal_closure(s, {x})) for x in range(s.order)]
        assert [_elements(p) for p in principal] == want, name


def test_quotient_by_the_idempotents_is_the_structure_itself():
    for name, s in _structures():
        n, e = s.order, frozenset(s.idempotents)
        q = wbk.quotient(s, e)
        assert q.quotient is s, name
        # the rebuild quotient takes for every other ideal
        least = [
            min(b for b in range(n) if s.zero_part(b) == s.zero_part(a) and s.plus(s.neg(a), b) in e)
            for a in range(n)
        ]
        reps = sorted(set(least))
        proj = [reps.index(v) for v in least]
        assert (q.class_rep, q.projection) == (tuple(reps), tuple(proj)), name
        add, mul = _induced(s.add.op, reps, proj), _induced(s.mul.op, reps, proj)
        assert (add, mul) == ([list(r) for r in s.add.op], [list(r) for r in s.mul.op]), name
        assert wbk.validate_dual_weak_brace(add, mul) == q.quotient, name
