"""Ideal predicates, special subsets, quotients, and the hom theorems."""

import itertools

import pytest
from conftest import elementary, enumerate_by, exotic, exotic_chain, non_chain, sym3_cyclic

import wbk
from wbk import InternalInvariantBroken, NotAHom, NotAnIdeal, OrderTooLarge, ideals
from wbk.ideals import _sum_mask, _tier, additive_center, is_normal_subsemigroup, mul_center
from wbk.tables import _close, _elements, _mask


def test_z6_special_subsets(z6):
    assert wbk.socle(z6) == frozenset({0, 2, 4})
    assert wbk.fix(z6) == frozenset({0, 3})
    assert wbk.left_center(z6) == frozenset({0, 3})
    assert wbk.annihilator(z6) == frozenset({0})
    assert additive_center(z6) == frozenset(range(6))
    assert mul_center(z6) == frozenset({0})


def test_glued_special_subsets(c3_sym3, c2_c4):
    assert wbk.fix(c3_sym3) == frozenset(range(9))
    assert wbk.socle(c3_sym3) == frozenset({0, 3})
    assert wbk.left_center(c3_sym3) == frozenset({0, 3})
    assert wbk.annihilator(c3_sym3) == frozenset({0, 3})
    # both components abelian and trivial: everything is central
    assert wbk.socle(c2_c4) == frozenset(range(6))
    assert wbk.annihilator(c2_c4) == frozenset(range(6))


def test_special_subsets_are_ideals_or_left_ideals(all_structures):
    for name, s in all_structures:
        assert wbk.is_ideal(s, wbk.socle(s)), name
        assert wbk.is_ideal(s, wbk.annihilator(s)), name
        assert wbk.is_left_ideal(s, wbk.fix(s)), name
        assert wbk.is_strong_left_ideal(s, wbk.left_center(s)), name


def test_z6_ideal_lattice(z6, monkeypatch):
    enum = wbk.enumerate_ideals(z6)
    assert [sorted(x) for x in enum.ideals] == [[0], [0, 2, 4], [0, 1, 2, 3, 4, 5]]
    assert enum.mode == "exhaustive"
    closure = enumerate_by(monkeypatch, z6, "closure")
    assert set(closure.ideals) == set(enum.ideals)


def test_z6_subgroup_0_3_is_left_but_not_ideal(z6):
    x = frozenset({0, 3})
    assert wbk.is_left_ideal(z6, x)
    assert wbk.is_strong_left_ideal(z6, x)
    chk = wbk.is_ideal(z6, x)
    assert not chk
    assert chk.law == "not_normal"
    assert chk.witness == (1, 3)
    # and the failure really is on the mul side
    assert is_normal_subsemigroup(z6, x, "add")
    assert not is_normal_subsemigroup(z6, x, "mul")


def test_ideal_check_witnesses(z6):
    chk = wbk.is_ideal(z6, frozenset({2, 4}))
    assert chk.law == "missing_idempotent" and chk.witness == (0,)
    chk = wbk.is_ideal(z6, frozenset({0, 2}))
    assert chk.law in ("no_inverse", "not_closed")


def test_member_range_guard(z6):
    with pytest.raises(ValueError):
        wbk.is_ideal(z6, frozenset({0, 6}))
    with pytest.raises(ValueError):
        wbk.product_set(z6, {0, -1}, {0})
    # True equals and hashes as 1: only a type test keeps it out
    with pytest.raises(ValueError):
        wbk.is_ideal(z6, [True, 0, 2, 4])


def test_member_range_guard_on_mixed_types(z6):
    # members that do not compare are listed by repr, ints as before
    with pytest.raises(ValueError, match=r"^subset members out of range: \['a', 1\.5\]$"):
        wbk.is_ideal(z6, {"a", 1.5})
    with pytest.raises(ValueError, match=r"^subset members out of range: \[-1, 6, 10\]$"):
        wbk.is_ideal(z6, [10, 0, -1, 6])
    for check in (wbk.ideal_closure, wbk.generated_full_inverse_subsemigroup, wbk.is_sub_dual_weak_brace):
        with pytest.raises(ValueError, match="out of range"):
            check(z6, [None, 0, "x"])
    for check in (wbk.product_set, wbk.commutator_set):
        with pytest.raises(ValueError, match="out of range"):
            check(z6, {0}, [None, "x"])


def test_ideal_closure_is_minimal(z6, c3_sym3):
    for s in (z6, c3_sym3):
        for x in wbk.enumerate_ideals(s).ideals:
            assert wbk.ideal_closure(s, x) == x
    assert wbk.ideal_closure(z6, {1}) == frozenset(range(6))
    assert wbk.ideal_closure(z6, {2}) == frozenset({0, 2, 4})


def test_sum_of_ideals(z6):
    small = frozenset({0})
    mid = frozenset({0, 2, 4})
    assert wbk.sum_of_ideals(z6, small, mid) == mid
    assert wbk.sum_of_ideals(z6, mid, frozenset(range(6))) == frozenset(range(6))
    with pytest.raises(NotAnIdeal):
        wbk.sum_of_ideals(z6, frozenset({0, 3}), mid)


def test_product_and_commutator_sets(z6, c3_sym3):
    # S.S for the exotic brace is the even part; repeated product shrinks to 0
    full = frozenset(range(6))
    ss = wbk.product_set(z6, full, full)
    assert ss == frozenset({0, 2, 4})
    assert wbk.product_set(z6, ss, full) == frozenset({0})
    assert wbk.commutator_set(z6, full, full) == frozenset({0})
    nine = frozenset(range(9))
    assert wbk.product_set(c3_sym3, nine, nine) == frozenset({0, 3})
    assert wbk.commutator_set(c3_sym3, nine, nine) == frozenset({0, 3, 6, 7})


def test_quotient_z6(z6):
    q = wbk.quotient(z6, frozenset({0, 2, 4}))
    assert q.quotient.order == 2
    assert q.projection == (0, 1, 0, 1, 0, 1)
    assert q.class_rep == (0, 1)
    with pytest.raises(NotAnIdeal):
        wbk.quotient(z6, frozenset({0, 3}))


def test_quotient_glued(c3_sym3):
    # collapse the sym3 component's alternating part
    i = frozenset({0, 3, 6, 7})
    assert wbk.is_ideal(c3_sym3, i)
    q = wbk.quotient(c3_sym3, i)
    assert q.quotient.order == 5
    assert len(q.quotient.idempotents) == 2


def test_verify_hom_and_kernel(z6):
    c2 = wbk.catalog_get("c2_trivial").as_dual()
    f = (0, 1, 0, 1, 0, 1)
    assert wbk.verify_hom(z6, c2, f) == f
    assert wbk.kernel(z6, c2, f) == frozenset({0, 2, 4})
    assert wbk.image(z6, c2, f) == frozenset({0, 1})
    assert wbk.first_isomorphism_check(z6, c2, f)
    with pytest.raises(NotAHom) as exc:
        wbk.verify_hom(z6, c2, (0, 1, 1, 0, 0, 1))
    assert exc.value.witness == (1, 1) and exc.value.side == "add"
    # add fails too, but only at the later pair (1, 4)
    with pytest.raises(NotAHom) as exc:
        wbk.verify_hom(z6, c2, (0, 0, 0, 0, 0, 1))
    assert exc.value.witness == (1, 2) and exc.value.side == "mul"
    # images must be ints in range; 1.0 and True are rejected by shape
    for bad in ((0, 1.0, 0, 1, 0, 1), (0, True, 0, 1, 0, 1)):
        for fn in (wbk.verify_hom, wbk.kernel, wbk.image, wbk.first_isomorphism_check):
            with pytest.raises(NotAHom) as exc:
                fn(z6, c2, bad)
            assert exc.value.witness == (6,)


def test_sub_structure(z6):
    sub, labels = wbk.sub_structure(z6, {0, 2, 4})
    assert labels == (0, 2, 4)
    assert sub.order == 3
    assert wbk.annihilator(sub) == frozenset(range(3))
    chk = wbk.is_sub_dual_weak_brace(z6, {0, 2})
    assert not chk and chk.law == "no_inverse" and chk.witness == (2,)
    chk = wbk.is_sub_dual_weak_brace(z6, {0, 1, 5})  # inverse-closed, 1+1=2 escapes
    assert not chk and chk.law == "not_closed" and chk.witness == (1, 1)
    chk = wbk.is_sub_dual_weak_brace(z6, set())
    assert not chk and chk.law == "empty"


def test_sub_structure_needs_zero_parts(c3_sym3):
    # {3..8} is operation-closed (bottom component) and is a sub-structure,
    # but not a strict one: it misses the top idempotent
    chk = wbk.is_sub_dual_weak_brace(c3_sym3, set(range(3, 9)))
    assert chk
    strict = wbk.is_sub_dual_weak_brace(c3_sym3, set(range(3, 9)), strict=True)
    assert not strict and strict.law == "missing_idempotent"


def test_sub_structure_rejects_a_missing_zero_part(c3_sym3):
    # 1 lies in the top C3 component, whose zero part 0 the subset misses
    chk = wbk.is_sub_dual_weak_brace(c3_sym3, {1})
    assert not chk and chk.law == "missing_zero_part" and chk.witness == (1,)
    with pytest.raises(wbk.ValidationError) as exc:
        wbk.sub_structure(c3_sym3, {1})
    assert exc.value.law == "missing_zero_part" and exc.value.witness == (1,)


def test_enumerate_ideals_modes_agree(all_structures, monkeypatch):
    for name, s in all_structures:
        ex = enumerate_by(monkeypatch, s, "exhaustive")
        cl = enumerate_by(monkeypatch, s, "closure")
        assert ex.ideals == cl.ideals, name


def test_enumerate_ideals_order_guard(monkeypatch):
    monkeypatch.setenv("WBK_MAX_ORDER", "4")
    z6 = wbk.catalog_get("z6_exotic").as_dual()
    with pytest.raises(OrderTooLarge):
        wbk.enumerate_ideals(z6)


def test_post_check_catches_a_broken_image_table(monkeypatch, z6):
    # with only the -i images both searches close to subgroups of (S, +),
    # and the subgroup {0, 3} of Z6 is not an ideal
    monkeypatch.setattr(ideals, "_ideal_images", lambda s: [1 << v for v in s.add.inv])
    for mode in ("exhaustive", "closure"):
        with pytest.raises(InternalInvariantBroken, match=f"{mode} candidate is not an ideal"):
            enumerate_by(monkeypatch, z6, mode)


def test_ideal_images_need_the_add_conjugate(monkeypatch):
    s = sym3_cyclic()
    x = frozenset({0, 1})
    assert wbk.is_left_ideal(s, x) and is_normal_subsemigroup(s, x, "mul")
    chk = wbk.is_ideal(s, x)
    assert (chk.law, chk.witness) == ("not_normal", (2, 1))
    for mode in ("exhaustive", "closure"):
        assert [sorted(i) for i in enumerate_by(monkeypatch, s, mode).ideals] == [[0], [0, 3, 4], list(range(6))]

    def without_add_conjugate(s):
        # ideals._ideal_images with the -a + i + a term left out
        add, mul, neg, minv = s.add.op, s.mul.op, s.add.inv, s.mul.inv
        out = []
        for i in range(s.order):
            m = 1 << neg[i]
            for a in range(s.order):
                m |= 1 << add[neg[a]][mul[a][i]] | 1 << mul[mul[minv[a]][i]][a]
            out.append(m)
        return out

    monkeypatch.setattr(ideals, "_ideal_images", without_add_conjugate)
    for mode in ("exhaustive", "closure"):
        with pytest.raises(InternalInvariantBroken, match=f"{mode} candidate is not an ideal"):
            enumerate_by(monkeypatch, s, mode)


def test_quotient_classes_match_the_definition(all_structures):
    cases = list(all_structures)
    cases += [(name + " opposite", s.opposite()) for name, s in all_structures]
    cases += [("chain (12, 6, 2)", exotic_chain((12, 6, 2))), ("non-chain", non_chain())]
    cases += [("sym3 + / Z6 ∘", sym3_cyclic())]
    built = 0
    for name, s in cases:
        for ideal in wbk.enumerate_ideals(s).ideals:
            # a ~ b iff equal zero parts and -a + b in I; least[a] = min of a's class
            least = [
                min(b for b in range(s.order) if s.zero_part(b) == s.zero_part(a) and s.plus(s.neg(a), b) in ideal)
                for a in range(s.order)
            ]
            reps = sorted(set(least))
            q = wbk.quotient(s, ideal)
            assert q.class_rep == tuple(reps), (name, sorted(ideal))
            assert q.projection == tuple(map(reps.index, least)), (name, sorted(ideal))
            assert q.quotient.order == len(reps), (name, sorted(ideal))
            built += 1
    assert built > 90


def test_special_sets_and_commutation_match_their_definitions(all_structures):
    cases = list(all_structures)
    cases += [(name + " opposite", s.opposite()) for name, s in all_structures]
    cases += [(f"exotic Z{n}", exotic(n).as_dual()) for n in range(2, 17, 2)]
    cases += [("(Z2)^3", elementary(3)), ("non-chain", non_chain())]
    cases += [(f"chain {c}", exotic_chain(c)) for c in ((6, 2, 2), (12, 6, 2), (8, 4, 4, 2))]
    for name, s in cases:
        el = range(s.order)

        def every_b(law):
            return frozenset(a for a in el if all(law(a, b) for b in el))

        def plus_comm(a, b):
            return s.plus(a, b) == s.plus(b, a)

        def times_comm(a, b):
            return s.times(a, b) == s.times(b, a)

        def agree(a, b):
            return s.plus(a, b) == s.times(a, b)

        assert wbk.socle(s) == every_b(lambda a, b: agree(a, b) and plus_comm(a, b)), name
        assert wbk.fix(s) == every_b(lambda a, b: agree(b, a)), name
        assert wbk.left_center(s) == every_b(lambda a, b: agree(b, a) and plus_comm(a, b)), name
        want = every_b(lambda a, b: agree(a, b) and plus_comm(a, b) and times_comm(a, b))
        assert wbk.annihilator(s) == want, name
        assert additive_center(s) == every_b(plus_comm), name
        assert mul_center(s) == every_b(times_comm), name
        abelian = all(plus_comm(a, b) for a in el for b in el)
        assert s.is_brace() == (len(s.idempotents) == 1 and abelian), name
        for b in wbk.decompose(s).braces:
            pairs = list(itertools.product(range(b.order), repeat=2))
            for g in (b.add, b.mul):
                assert g.is_abelian() == all(g.op[x][y] == g.op[y][x] for x, y in pairs), name
            assert b.is_brace() == all(b.add.op[x][y] == b.add.op[y][x] for x, y in pairs), name


def test_ideal_decomposition(c2_c4, c3_sym3):
    dec = wbk.ideal_decomposition(c2_c4, frozenset({0, 2, 4}))
    assert dec.locals_ == (frozenset({0}), frozenset({0, 2}))
    dec = wbk.ideal_decomposition(c3_sym3, frozenset({0, 3, 6, 7}))
    assert dec.locals_ == (frozenset({0}), frozenset({0, 3, 4}))
    with pytest.raises(NotAnIdeal):
        wbk.ideal_decomposition(c3_sym3, frozenset({0, 3, 4}))


def _passing_supersets(s, predicate):
    """Brute force: every subset holding E(S) that passes predicate."""
    base = frozenset(s.idempotents)
    rest = [a for a in range(s.order) if a not in base]
    subsets = (
        base | {rest[k] for k in range(len(rest)) if bits >> k & 1}
        for bits in range(1 << len(rest))
    )
    return [x for x in subsets if predicate(s, x)]


def _least_passing(passing, seed):
    holding = [x for x in passing if x >= seed]
    least = frozenset.intersection(*holding)
    assert least in holding  # the passing sets are closed under intersection
    return least


def test_ideal_closure_matches_subset_oracle(all_structures):
    for name, s in all_structures:
        if s.order > 12:
            continue
        ideals = _passing_supersets(s, wbk.is_ideal)
        for a in range(s.order):
            assert wbk.ideal_closure(s, {a}) == _least_passing(ideals, {a}), (name, a)


def test_generated_full_inverse_subsemigroup_matches_subset_oracle(all_structures):
    for name, s in all_structures:
        if s.order > 12:
            continue
        subs = _passing_supersets(s, wbk.is_full_inverse_subsemigroup_add)
        seeds = [set()] + [{a} for a in range(s.order)]
        seeds += [{a, b} for a in range(s.order) for b in range(a + 1, s.order)]
        for seed in seeds:
            got = wbk.generated_full_inverse_subsemigroup(s, seed)
            assert got == _least_passing(subs, seed), (name, seed)


def _by_size(ideals):
    """The order enumerate_ideals lists ideals in."""
    return tuple(sorted(ideals, key=lambda x: (len(x), sorted(x))))


def _trivial(table):
    return wbk.validate_skew_brace(table, table).as_dual()


def _cyclic(n):
    return _trivial([[(a + b) % n for b in range(n)] for a in range(n)])


def _divisor_chains(total):
    """Every chain of even orders, each dividing the one above, with at least
    two components and at most total elements."""
    chains, grow = [], [(o,) for o in range(2, total + 1, 2)]
    while grow:
        c = grow.pop()
        if len(c) > 1:
            chains.append(c)
        grow += [c + (o,) for o in range(2, c[-1] + 1, 2) if c[-1] % o == 0 and sum(c) + o <= total]
    return sorted(chains)


def test_enumerate_ideals_matches_subset_oracle(all_structures, monkeypatch):
    cases = list(all_structures)
    cases += [(name + " opposite", s.opposite()) for name, s in all_structures]
    cases += [(f"exotic Z{n}", exotic(n).as_dual()) for n in range(2, 13, 2)]
    cases += [(f"Z{n}", _cyclic(n)) for n in range(1, 13)]
    cases += [(f"chain {c}", exotic_chain(c)) for c in _divisor_chains(12)]
    cases += [("(Z2)^3", elementary(3)), ("(Z2)^4", elementary(4))]
    cases += [("exotic Z16", exotic(16).as_dual()), ("sym3 + / Z6 ∘", sym3_cyclic())]
    for name, s in cases:
        want = _by_size(_passing_supersets(s, wbk.is_ideal))
        for mode in ("exhaustive", "closure"):
            assert enumerate_by(monkeypatch, s, mode).ideals == want, (name, mode)


def _ideals_from_components(s):
    """The paper's description of the ideals of S = [Y; B_alpha; phi]: the
    unions of ideals I_alpha of the B_alpha with phi_{alpha,beta}(I_alpha)
    inside I_beta for every alpha >= beta; component ideals by brute force."""
    spec = wbk.decompose(s)
    members = s.component_members()
    local = [_passing_supersets(b.as_dual(), wbk.is_ideal) for b in spec.braces]
    out = []
    for parts in itertools.product(*local):
        if all({spec.hom(a, b)[i] for i in parts[a]} <= parts[b] for a, b in spec.y.comparable_pairs()):
            out.append(frozenset(members[a][i] for a, part in enumerate(parts) for i in part))
    return _by_size(out)


def test_ideals_are_unions_of_compatible_component_ideals(c3_sym3, c2_c4):
    cases = [("c3_sym3", c3_sym3), ("c2_c4_braces", c2_c4), ("non-chain", non_chain())]
    cases += [(f"chain {c}", exotic_chain(c)) for c in ((6, 2, 2), (12, 6, 2), (8, 4, 4, 2))]
    for name, s in cases:
        assert len(s.idempotents) > 1, name
        assert wbk.enumerate_ideals(s).ideals == _ideals_from_components(s), name


def _cyclic_ideals(s):
    """When (S, +) is Z_n in index order, every ideal is a subgroup dZ_n:
    the ideals are the subgroups that pass is_ideal."""
    n = s.order
    return _by_size(
        x for x in (frozenset(range(0, n, d)) for d in range(1, n + 1) if n % d == 0) if wbk.is_ideal(s, x)
    )


def test_both_searches_agree_above_the_exhaustive_bound(monkeypatch):
    # each search forced through EXHAUSTIVE_BOUND on orders above it, where
    # the order alone would always pick closure
    monkeypatch.setenv("WBK_MAX_ORDER", "32")
    cases = [(f"exotic Z{n}", exotic(n).as_dual(), _cyclic_ideals) for n in range(18, 25, 2)]
    cases += [(f"Z{n}", _cyclic(n), _cyclic_ideals) for n in range(17, 25)]
    cases += [("chain (12, 6, 2)", exotic_chain((12, 6, 2)), _ideals_from_components)]
    cases += [("(Z2)^5", elementary(5), None)]
    for name, s, oracle in cases:
        assert s.order > 16, name
        found = enumerate_by(monkeypatch, s, "exhaustive").ideals
        assert found == enumerate_by(monkeypatch, s, "closure").ideals, name
        if oracle is not None:
            assert found == oracle(s), name


def test_both_searches_count_the_subgroups_of_elementary_abelian_groups(monkeypatch):
    # (Z2)^k as a trivial brace: its ideals are its subgroups, as many as the
    # Gaussian binomials [k, d]_2 summed over d
    monkeypatch.setenv("WBK_MAX_ORDER", "64")
    for k, want in ((4, 67), (5, 374), (6, 2825)):
        s = elementary(k)
        for search in ("exhaustive", "closure"):
            found = enumerate_by(monkeypatch, s, search).ideals
            assert len(set(found)) == len(found) == want, (k, search)


def test_join_with_a_principal_ideal_is_the_closure_step(all_structures):
    # I + P_x, the step both searches take, against the closure of I and x
    # under + and the ideal images: the least ideal holding both
    cases = list(all_structures) + [(name + " opposite", s.opposite()) for name, s in all_structures]
    cases += [(f"exotic Z{n}", exotic(n).as_dual()) for n in range(2, 17, 2)]
    cases += [("(Z2)^4", elementary(4))]
    steps = 0
    for name, s in cases:
        add, images = s.add.op, ideals._ideal_images(s)
        least = _close(add, _mask(s.idempotents), images)
        principal = [_elements(_close(add, least | 1 << x, images, least)) for x in range(s.order)]
        for ideal in wbk.enumerate_ideals(s).ideals:
            i = _mask(ideal)
            mem = _elements(i)
            for x in set(range(s.order)) - ideal:
                want = _close(add, i | 1 << x, images, i)
                assert _sum_mask(add, i, mem, principal[x]) == want, (name, sorted(ideal), x)
                steps += 1
    assert steps > 1000


def _reference_laws(s, x):
    """The five ideal laws from their definitions, in the order is_ideal
    reports them: full inverse on +, normal on +, lambda-invariant, full
    inverse on *, normal on *.  Each is (law, least witness) or None."""
    n, mem = s.order, sorted(x)

    def first(law, witnesses):
        return next(((law, w) for w in witnesses), None)

    def full_inverse(op, inv):
        return (
            first("missing_idempotent", ((e,) for e in s.idempotents if e not in x))
            or first("no_inverse", ((a,) for a in mem if inv(a) not in x))
            or first("not_closed", ((a, b) for a in mem for b in mem if op(a, b) not in x))
        )

    def normal(op, inv):
        pairs = ((a, i) for a in range(n) for i in mem if op(op(inv(a), i), a) not in x)
        return first("not_normal", pairs)

    lam = (
        (a, i) for a in range(n) for i in mem if s.plus(s.neg(a), s.times(a, i)) not in x
    )
    return [
        full_inverse(s.plus, s.neg),
        normal(s.plus, s.neg),
        first("not_lambda_invariant", lam),
        full_inverse(s.times, s.minv),
        normal(s.times, s.minv),
    ]


def test_predicates_follow_the_law_ladder(all_structures):
    predicates = {
        wbk.is_full_inverse_subsemigroup_add: (0,),
        (lambda s, x: is_normal_subsemigroup(s, x, "add")): (0, 1),
        (lambda s, x: is_normal_subsemigroup(s, x, "mul")): (3, 4),
        wbk.is_left_ideal: (0, 2),
        wbk.is_strong_left_ideal: (0, 1, 2),
        wbk.is_ideal: (0, 1, 2, 3, 4),
    }
    # the opposites add non-trivial lambdas on non-abelian (S, +), where a
    # subgroup can fail + normality and lambda invariance at once
    structures = list(all_structures)
    structures += [(name + " opposite", s.opposite()) for name, s in all_structures]
    structures += [("sym3 + / Z6 ∘", sym3_cyclic())]
    checked = 0
    for name, s in structures:
        if s.order <= 6:
            subsets = [
                frozenset(a for a in range(s.order) if bits >> a & 1)
                for bits in range(1 << s.order)
            ]
        elif s.order <= 9:
            subsets = _passing_supersets(s, lambda s, x: True)
        else:
            continue
        for x in subsets:
            laws = _reference_laws(s, x)
            for pred, ladder in predicates.items():
                bad = next((laws[k] for k in ladder if laws[k] is not None), None)
                want = (True, None, None) if bad is None else (False, *bad)
                chk = pred(s, x)
                assert (bool(chk), chk.law, chk.witness) == want, (name, sorted(x), ladder)
            tier = (
                "I" if wbk.is_ideal(s, x)
                else "SL" if wbk.is_strong_left_ideal(s, x)
                else "L" if wbk.is_left_ideal(s, x)
                else "-"
            )
            assert _tier(s, x) == tier, (name, sorted(x))
            checked += 1
    assert checked == 2 * (64 * 4 + 16 * 2 + 8 * 2 + 4 * 2 + 2 ** 7) + 64
