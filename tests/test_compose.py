"""Strong semilattice gluing, decomposition, homs, and isomorphism search."""

import itertools
import json
import random
import sys
import time
from dataclasses import replace

import pytest
from conftest import exotic, exotic_chain, non_chain, relabelled_table

import wbk
from wbk import ValidationError, braces, load, to_obj
from wbk.cli import main

CHAIN2 = [[0, 1], [1, 1]]


def spec_c3_sym3():
    return wbk.catalog_get("c3_sym3")


def test_compose_shape(c3_sym3):
    assert c3_sym3.order == 9
    assert c3_sym3.idempotents == (0, 3)
    # top component keeps its own table
    assert all(c3_sym3.plus(a, b) == (a + b) % 3 for a in range(3) for b in range(3))


def test_decompose_recovers_spec(c3_sym3):
    spec = wbk.decompose(c3_sym3)
    assert spec.y.meet == ((0, 1), (1, 1))
    assert [b.order for b in spec.braces] == [3, 6]
    assert spec.homs == {(0, 1): (0, 3, 4)}


def test_compose_decompose_round_trip(all_structures):
    for name, s in all_structures:
        again = wbk.compose(wbk.decompose(s))
        assert again.add.op == s.add.op and again.mul.op == s.mul.op, name


def test_validate_spec_missing_hom():
    spec = spec_c3_sym3()
    with pytest.raises(ValidationError) as exc:
        wbk.validate_spec(CHAIN2, list(spec.braces), {})
    assert exc.value.law == "missing_hom"
    assert exc.value.witness == (0, 1)


def test_validate_spec_rejects_non_hom():
    spec = spec_c3_sym3()
    with pytest.raises(ValidationError) as exc:
        wbk.validate_spec(CHAIN2, list(spec.braces), {(0, 1): (0, 1, 2)})
    assert exc.value.law == "not_a_hom"
    assert exc.value.witness == ((0, 1), (1, 1))


def test_validate_spec_rejects_unexpected_hom():
    spec = spec_c3_sym3()
    with pytest.raises(ValidationError) as exc:
        wbk.validate_spec(
            CHAIN2, list(spec.braces), {(0, 1): (0, 3, 4), (1, 0): (0,) * 6}
        )
    assert exc.value.law == "unexpected_hom"


def test_validate_spec_component_count():
    spec = spec_c3_sym3()
    with pytest.raises(ValidationError) as exc:
        wbk.validate_spec(CHAIN2, [spec.braces[0]], {})
    assert exc.value.law == "component_count_mismatch"


def test_validate_spec_composition_law():
    # three-chain of C2s where the long hom disagrees with the two-step path
    c2 = wbk.trivial_brace(wbk.catalog_get("c2"))
    chain3 = [[max(a, b) for b in range(3)] for a in range(3)]
    ident = (0, 1)
    collapse = (0, 0)
    with pytest.raises(ValidationError) as exc:
        wbk.validate_spec(
            chain3,
            [c2, c2, c2],
            {(0, 1): ident, (1, 2): ident, (0, 2): collapse},
        )
    assert exc.value.law == "composition"
    assert exc.value.witness == (0, 1, 2, 1)
    # consistent version passes and composes to order 6
    spec = wbk.validate_spec(
        chain3, [c2, c2, c2], {(0, 1): ident, (1, 2): ident, (0, 2): ident}
    )
    s = wbk.compose(spec)
    assert s.order == 6
    assert s.idempotents == (0, 2, 4)


def test_decompose_treats_a_rejected_rebuilt_spec_as_internal(c3_sym3, monkeypatch):
    # decompose builds the connecting homs itself, so a spec that fails
    # validation is a fault of the program, not a witness about the input;
    # sys.modules, since wbk.compose is the function
    monkeypatch.setattr(sys.modules["wbk.compose"], "_first_non_hom", lambda f, pairs: (0, 0, 0))
    with pytest.raises(wbk.InternalInvariantBroken, match="rebuilt components or homs fail validation: not_a_hom"):
        wbk.decompose(c3_sym3)


def test_enumerate_skew_brace_homs_counts():
    c3 = wbk.catalog_get("c3_trivial")
    sym3 = wbk.catalog_get("sym3_trivial")
    z6 = wbk.catalog_get("z6_exotic")
    c6 = wbk.catalog_get("c6_trivial")
    assert wbk.enumerate_skew_brace_homs(c3, sym3) == [(0, 0, 0), (0, 3, 4), (0, 4, 3)]
    assert wbk.enumerate_skew_brace_homs(z6, c6) == [
        (0, 0, 0, 0, 0, 0),
        (0, 3, 0, 3, 0, 3),
    ]
    # z6's mul side is nonabelian, its add side abelian: no embedding either way
    homs_back = wbk.enumerate_skew_brace_homs(c6, z6)
    for f in homs_back:
        assert len(set(f)) < 6


def test_are_isomorphic_relabel(z6):
    perm = (0, 5, 2, 3, 4, 1)
    other = wbk.relabel(z6, perm)
    wit = wbk.are_isomorphic(z6, other)
    assert wit is not None
    g = wit.global_map
    for a in range(6):
        for b in range(6):
            assert g[z6.plus(a, b)] == other.plus(g[a], g[b])
            assert g[z6.times(a, b)] == other.times(g[a], g[b])


def test_are_isomorphic_distinguishes(z6):
    c6 = wbk.catalog_get("c6_trivial").as_dual()
    assert wbk.are_isomorphic(z6, c6) is None
    sym3 = wbk.catalog_get("sym3_trivial").as_dual()
    assert wbk.are_isomorphic(z6, sym3) is None
    # different component layout: 6 = 3+3 vs one block of 6
    spec = wbk.validate_spec(
        CHAIN2,
        [wbk.catalog_get("c3_trivial"), wbk.catalog_get("c3_trivial")],
        {(0, 1): (0, 1, 2)},
    )
    assert wbk.are_isomorphic(wbk.compose(spec), c6) is None


def test_are_isomorphic_glued(c3_sym3):
    perm = (3, 4, 5, 6, 7, 8, 0, 1, 2)
    other = wbk.relabel(c3_sym3, perm)
    wit = wbk.are_isomorphic(c3_sym3, other)
    assert wit is not None
    assert wit.eta == (0, 1)  # semilattice has a unique automorphism here
    g = wit.global_map
    for a in range(9):
        for b in range(9):
            assert g[c3_sym3.plus(a, b)] == other.plus(g[a], g[b])


def test_are_isomorphic_identity(all_structures):
    for name, s in all_structures:
        wit = wbk.are_isomorphic(s, s)
        assert wit is not None, name


def carries_both_tables(s, t, g):
    return all(
        g[s.plus(a, b)] == t.plus(g[a], g[b]) and g[s.times(a, b)] == t.times(g[a], g[b])
        for a in range(s.order)
        for b in range(s.order)
    )


def order_isos(ds, dt):
    """The permutations eta of the semilattice that preserve meets and
    component orders, in lexicographic order."""
    k = ds.y.size
    for eta in itertools.permutations(range(k)):
        if any(
            eta[ds.y.meet[i][j]] != dt.y.meet[eta[i]][eta[j]] for i in range(k) for j in range(k)
        ):
            continue
        if any(ds.braces[i].order != dt.braces[eta[i]].order for i in range(k)):
            continue
        yield eta


def reference_witness(s, t):
    """The first isomorphism in canonical order, by plain search: eta from
    order_isos, then every tuple of component bijections taken from
    enumerate_skew_brace_homs, in product order, until the assembled map
    carries both tables."""
    ds, dt = wbk.decompose(s), wbk.decompose(t)
    k = ds.y.size
    ms, mt = s.component_members(), t.component_members()
    for eta in order_isos(ds, dt):
        bijections = [
            [
                f
                for f in wbk.enumerate_skew_brace_homs(ds.braces[i], dt.braces[eta[i]])
                if len(set(f)) == len(f)
            ]
            for i in range(k)
        ]
        for thetas in itertools.product(*bijections):
            g = [0] * s.order
            for i in range(k):
                for x, a in enumerate(ms[i]):
                    g[a] = mt[eta[i]][thetas[i][x]]
            if carries_both_tables(s, t, g):
                return eta, thetas, tuple(g)
    return None


def star(comps, homs):
    """comps[:-1] as pairwise incomparable atoms over the bottom comps[-1],
    atom a joined to it by homs[a]."""
    k = len(comps)
    y = [[a if a == b else k - 1 for b in range(k)] for a in range(k)]
    return wbk.compose(wbk.validate_spec(y, comps, {(a, k - 1): f for a, f in enumerate(homs)}))


def mixed_stars():
    """Stars of 4 and 5 components with two atoms of equal invariants that
    only their connecting homs tell apart, and for each a star that differs
    from it only in that hom."""
    c2, c3, c6 = (wbk.catalog_get(f"c{n}_trivial") for n in (2, 3, 6))
    z4 = exotic(4)
    four = [c2, c2, z4, z4], [(0, 0), (0, 2), (0, 1, 2, 3)], (0, 2)
    five = [c2, c2, c3, c3, c6], [(0, 0), (0, 3), (0, 0, 0), (0, 2, 4)], (0, 3)
    # the other star joins its first atom like its second
    return [
        (star(comps, homs), star(comps, [other] + homs[1:])) for comps, homs, other in (four, five)
    ]


def z6_over_c6():
    z6, c6 = wbk.catalog_get("z6_exotic"), wbk.catalog_get("c6_trivial")
    return wbk.compose(wbk.validate_spec(CHAIN2, [z6, c6], {(0, 1): (0, 3, 0, 3, 0, 3)}))


def assert_reference_witness(s, perm):
    t = wbk.relabel(s, perm)
    wit = wbk.are_isomorphic(s, t)
    assert wit is not None
    assert carries_both_tables(s, t, wit.global_map)
    assert (wit.eta, wit.thetas, wit.global_map) == reference_witness(s, t)


def test_are_isomorphic_returns_the_reference_witness(all_structures, c3_sym3):
    rng = random.Random(5)
    cases = [s for _, s in all_structures]
    cases += [exotic(n).as_dual() for n in range(8, 25, 2)]
    cases += [c3_sym3, z6_over_c6(), non_chain()]
    swapped = 0
    for s in cases:
        for _ in range(2):
            perm = list(range(s.order))
            rng.shuffle(perm)
            assert_reference_witness(s, perm)
            swapped += wbk.are_isomorphic(s, wbk.relabel(s, perm)).eta[:2] == (1, 0)
    # the non-chain structure must need the second eta at least once
    assert swapped > 0
    # each star must need an eta after the first order isomorphism at least once
    for s, _ in mixed_stars():
        later = 0
        for _ in range(4):
            perm = list(range(s.order))
            rng.shuffle(perm)
            assert_reference_witness(s, perm)
            t = wbk.relabel(s, perm)
            first = next(order_isos(wbk.decompose(s), wbk.decompose(t)))
            later += wbk.are_isomorphic(s, t).eta != first
        assert later > 0, s.order


def test_non_isomorphic_pairs_over_isomorphic_semilattices():
    # same semilattice, same component invariants, different connecting homs
    rng = random.Random(7)
    zero_hom = wbk.compose(
        wbk.validate_spec(CHAIN2, [exotic(4), exotic(2)], {(0, 1): (0, 0, 0, 0)})
    )
    y = [[0, 2, 2], [2, 1, 2], [2, 2, 2]]
    c2, c4 = wbk.catalog_get("c2_trivial"), wbk.catalog_get("c4_trivial")
    zero_atom = wbk.compose(wbk.validate_spec(y, [c2, c2, c4], {(0, 2): (0, 0), (1, 2): (0, 2)}))
    pairs = mixed_stars() + [(exotic_chain((4, 2)), zero_hom), (non_chain(), zero_atom)]
    for s, other in pairs:
        perm = list(range(other.order))
        rng.shuffle(perm)
        t = wbk.relabel(other, perm)
        assert next(order_isos(wbk.decompose(s), wbk.decompose(t)), None) is not None
        assert wbk.are_isomorphic(s, t) is None
        assert wbk.are_isomorphic(t, s) is None
        assert reference_witness(s, t) is None


def test_are_isomorphic_backtracks_on_eta():
    # k C2 components on a chain and on a star share every invariant but the
    # order of Y, which the search must rule out without walking all k! bijections
    k = 12
    c2 = wbk.catalog_get("c2_trivial")
    y = [[max(a, b) for b in range(k)] for a in range(k)]
    chain = wbk.compose(
        wbk.validate_spec(y, [c2] * k, {(a, b): (0, 1) for a in range(k) for b in range(a + 1, k)})
    )
    s = star([c2] * k, [(0, 1)] * (k - 1))
    t0 = time.monotonic()
    assert wbk.are_isomorphic(chain, s) is None
    assert time.monotonic() - t0 < 1.0
    perm = list(range(s.order))
    random.Random(12).shuffle(perm)
    t = wbk.relabel(s, perm)
    t0 = time.monotonic()
    wit = wbk.are_isomorphic(s, t)
    assert time.monotonic() - t0 < 1.0
    assert wit is not None and carries_both_tables(s, t, wit.global_map)


def test_are_isomorphic_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = [b.as_dual() for _, b in wbk.catalog_braces()]
    cases += [exotic(n).as_dual() for n in range(2, 17, 2)]

    relabelled = st.sampled_from(cases).flatmap(
        lambda s: st.tuples(st.just(s), st.permutations(range(s.order)))
    )

    @hypothesis.given(relabelled)
    def check(case):
        assert_reference_witness(*case)

    check()


def _relabelled_brace(b, perm):
    """The skew brace b transported along perm, validated from its tables."""
    return wbk.validate_skew_brace(relabelled_table(b.add.op, perm), relabelled_table(b.mul.op, perm))


def _skew_braces():
    """Every catalog skew brace, exotic Z4-Z64, and seeded relabellings."""
    braces = [wbk.catalog_get(name) for name, kind, _ in wbk.catalog_list() if kind == "skew_brace"]
    braces += [exotic(n) for n in range(4, 65, 2)]
    rng = random.Random(23)
    return braces + [_relabelled_brace(b, rng.sample(range(b.order), b.order)) for b in braces[::3]]


def test_a_skew_brace_is_its_own_decomposition():
    for b in _skew_braces():
        s = b.as_dual()
        assert s.skew is b and s == wbk.validate_dual_weak_brace(b.add.op, b.mul.op)
        spec = wbk.decompose(s)
        assert spec.braces[0] is b and spec.homs == {}
        rebuilt = wbk.decompose(wbk.validate_dual_weak_brace(b.add.op, b.mul.op))
        assert spec == rebuilt, b.order
        # gens are outside ==, but the hom search runs on them
        assert [(c.add.gens, c.mul.gens) for c in spec.braces] == [(c.add.gens, c.mul.gens) for c in rebuilt.braces]


def _count_skew_validations(monkeypatch):
    """Count validate_skew_brace calls through every wbk module that holds it."""
    calls = []
    real = sys.modules["wbk.braces"].validate_skew_brace

    def spy(add, mul):
        calls.append(len(add))
        return real(add, mul)

    for name, module in list(sys.modules.items()):
        if name.startswith("wbk.") and getattr(module, "validate_skew_brace", None) is real:
            monkeypatch.setattr(module, "validate_skew_brace", spy)
    return calls


def _write(tmp_path, name, x):
    path = tmp_path / name
    path.write_text(json.dumps(to_obj(x)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["iso", "decompose", "classify"])
def test_skew_brace_files_are_validated_once(command, monkeypatch, tmp_path, capsys):
    b = exotic(12)
    files = [_write(tmp_path, "a.json", b), _write(tmp_path, "b.json", _relabelled_brace(b, random.Random(4).sample(range(12), 12)))]
    argv = [command, "--input", files[0]] + (["--input2", files[1]] if command == "iso" else [])
    calls = _count_skew_validations(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == [12] * (2 if command == "iso" else 1)


@pytest.mark.parametrize("validator", ["validate_group", "validate_clifford"])
def test_a_table_on_both_sides_is_validated_once(validator, monkeypatch, tmp_path, capsys):
    # a trivial brace's file holds its table twice; it is validated once
    c6, c2, z8 = wbk.catalog_get("c6_trivial"), wbk.catalog_get("c2_trivial"), exotic(8)
    if validator == "validate_clifford":
        c6, c2, z8 = c6.as_dual(), c2.as_dual(), z8.as_dual()
    calls, real = [], getattr(braces, validator)

    def spy(raw):
        calls.append(len(raw))
        return real(raw)

    monkeypatch.setattr(braces, validator, spy)
    trivial = load(_write(tmp_path, "t.json", c6))
    assert calls == [6] and trivial.add is trivial.mul
    calls.clear()
    assert load(_write(tmp_path, "e.json", z8)) == z8 and calls == [8, 8]
    # a corrupted shared table still fails on the add side; a mul table equal
    # to add only up to 1 == 1.0 == True is still validated, and rejected
    obj = to_obj(c6)
    obj["add"][2][3] = (obj["add"][2][3] + 1) % 6
    obj["mul"] = [list(row) for row in obj["add"]]
    cases = [
        (obj, "violation: not_associative side=add witness=(1, 1, 3)"),
        (_changed_entry(c6, 1, 1, float), "violation: not_closed side=mul witness=(1, 1)"),
        (_changed_entry(c2, 0, 1, bool), "violation: not_closed side=mul witness=(0, 1)"),
    ]
    for x, line in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(x), encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [line, "status: fail"]


def _changed_entry(b, a, c, kind):
    """b's file object with mul entry (a, c) changed to an equal value of another type."""
    obj = to_obj(b)
    obj["mul"][a][c] = kind(obj["mul"][a][c])
    return obj


def test_other_structures_revalidate_every_component(monkeypatch, tmp_path, capsys):
    b = exotic(8)
    as_dual = b.as_dual()
    cases = [
        wbk.validate_dual_weak_brace(b.add.op, b.mul.op),
        # built by as_dual, but no longer on the brace's tables
        replace(as_dual, add=as_dual.add.transpose()),
        wbk.compose(wbk.catalog_get("c3_sym3")),
        exotic_chain([8, 4, 2]),
    ]
    calls = _count_skew_validations(monkeypatch)
    for s in cases:
        spec = wbk.decompose(s)
        assert [len(c.add.op) for c in spec.braces] == calls, s.order
        calls.clear()
    # the same through files: a dual_weak_brace file and a strong_semilattice file
    for x, orders in ((as_dual, [8]), (wbk.catalog_get("c3_sym3"), [3, 6, 3, 6])):
        assert main(["decompose", "--input", _write(tmp_path, "in.json", x)]) == 0
        capsys.readouterr()
        assert calls == orders  # a file's spec is validated on load, then rebuilt
        calls.clear()


def test_only_as_dual_carries_its_skew_brace(tmp_path):
    b = exotic(12)
    s = b.as_dual()
    ideal = next(i for i in wbk.enumerate_ideals(s).ideals if 1 < len(i) < s.order)
    built = [
        wbk.relabel(s, random.Random(6).sample(range(12), 12)),
        wbk.relabel(s, range(12)),
        s.opposite(),
        wbk.quotient(s, ideal).quotient,
        wbk.validate_dual_weak_brace(b.add.op, b.mul.op),
        wbk.compose(wbk.StrongSemilatticeSpec(wbk.decompose(s).y, (b,), {})),
        load(_write(tmp_path, "dual.json", s)),
    ]
    assert [t.skew for t in built] == [None] * len(built)


@pytest.mark.parametrize("half", ["add", "mul"])
def test_assembled_isomorphism_is_checked_on_both_tables(half, monkeypatch):
    # t is s transported along a bijection that keeps one table and moves
    # the other, so the identity map carries only the kept table; the
    # component isomorphisms are patched to the identity
    if half == "mul":
        # + is the Klein four-group (every bijection fixing 0 keeps it), ∘ is Z4
        mul = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
        s = wbk.validate_skew_brace([[a ^ b for b in range(4)] for a in range(4)], mul)
    else:
        # exotic Z4: + is Z4, ∘ the Klein four-group
        s = exotic(4)
    t = _relabelled_brace(s, (0, 2, 1, 3))
    kept = "add" if half == "mul" else "mul"
    assert getattr(t, kept) == getattr(s, kept) and getattr(t, half) != getattr(s, half)
    assert wbk.are_isomorphic(s.as_dual(), t.as_dual()) is not None
    monkeypatch.setattr(sys.modules["wbk.compose"], "_brace_homs", lambda a, b, injective=False: iter([tuple(range(a.order))]))
    with pytest.raises(wbk.InternalInvariantBroken, match="^assembled isomorphism fails on a pair$"):
        wbk.are_isomorphic(s.as_dual(), t.as_dual())
