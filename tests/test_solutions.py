"""Braid checks, periods, weak inverses, regularity, and solution gluing."""

import random
from math import lcm

import pytest
from conftest import exotic_chain_spec

import wbk
from wbk import NoPeriod, SolutionTable, ValidationError
from wbk.solutions import is_bijective, solution_table, strong_semilattice_of_solutions

# bijective pair map on Z3 that is not a solution; fails at (0,0,1)
NOT_A_SOLUTION = solution_table(3, lambda a, b: (b, (a + b) % 3))

# pair map with a genuine pre-period: r^3 == r^2 but r^2 != r
EVENTUALLY_PERIODIC = SolutionTable(2, ((0, 1), (0, 0)), ((0, 0), (0, 0)))


def test_braid_holds_on_all_catalog_structures(all_structures):
    for name, s in all_structures:
        r = wbk.solution_of(s)
        assert wbk.check_braid(r) is None, name
        # only skew braces give bijective solutions; gluing collapses pairs
        assert is_bijective(r) == s.is_skew(), name


def test_braid_failure_witness():
    assert wbk.check_braid(NOT_A_SOLUTION) == (0, 0, 1)
    assert is_bijective(NOT_A_SOLUTION)


def test_identity_and_composition():
    r = wbk.solution_of(wbk.catalog_get("z6_exotic").as_dual())
    ident = wbk.identity_solution(6)
    assert wbk.compose_solutions(r, ident) == r
    assert wbk.compose_solutions(ident, r) == r
    assert wbk.check_braid(ident) is None


def test_periods():
    z6 = wbk.solution_of(wbk.catalog_get("z6_exotic").as_dual())
    assert wbk.period(z6) == 2
    sym3 = wbk.solution_of(wbk.catalog_get("sym3_trivial").as_dual())
    assert wbk.period(sym3) == 12
    c3 = wbk.solution_of(wbk.catalog_get("c3_trivial").as_dual())
    assert wbk.period(c3) == 2  # the flip
    swap_one = wbk.solution_of(wbk.catalog_get("c2_trivial").as_dual())
    assert wbk.period(swap_one) == 2


def test_period_of_glued_solutions(c3_sym3, c2_c4):
    assert wbk.period(wbk.solution_of(c3_sym3)) == 12
    assert wbk.period(wbk.solution_of(c2_c4)) == 2


def test_no_period_raises():
    with pytest.raises(NoPeriod) as exc:
        wbk.period(EVENTUALLY_PERIODIC)
    assert exc.value.tail == 1
    assert exc.value.cycle == 1


def _power_loop(r):
    """(tail, cycle) of the first repeat r^(tail+1+cycle) == r^(tail+1),
    found power by power; tail 0 means r recurs with period cycle."""
    seen = {r: 1}
    power, k = r, 1
    while True:
        power = wbk.compose_solutions(power, r)
        k += 1
        j = seen.get(power)
        if j is not None:
            return j - 1, k - j
        seen[power] = k


def _tail_and_cycle(r):
    try:
        return 0, wbk.period(r)
    except NoPeriod as err:
        return err.tail, err.cycle


def test_period_matches_the_power_loop_on_random_maps():
    rng = random.Random(24)
    planted = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        succ = [rng.randrange(n * n) for _ in range(n * n)]
        if n > 2 and rng.random() < 0.5:
            # a cycle of c > 1 pairs fed by a path of h > 2 pairs: the
            # first repeat is at r^j with j >= h, so tail >= h - 1 > 1
            c, h = rng.randint(2, 4), rng.randint(3, 5)
            pts = rng.sample(range(n * n), c + h)
            for k in range(c + h):
                succ[pts[k]] = pts[(k + 1) % c if k < c else k - 1 if k > c else 0]
        r = solution_table(n, lambda a, b: divmod(succ[a * n + b], n))
        want = _power_loop(r)
        assert _tail_and_cycle(r) == want, (r, want)
        planted += want[0] > 1 and want[1] > 1
    assert planted > 100


def test_weak_inverse_relations(all_structures):
    for name, s in all_structures:
        rep = wbk.check_weak_inverses(s)
        assert rep.holds, name
        assert rep.r_sandwich and rep.rop_sandwich and rep.commute, name
        if s.is_skew():
            assert rep.inverse_pair is True, name
        else:
            assert rep.inverse_pair is None, name


def test_regularity(all_structures):
    for name, s in all_structures:
        rep = wbk.check_regularity(s)
        assert rep.ok, name
        assert rep.witness is None
        if s.is_skew():
            # on a skew brace both derived families are permutations
            assert all(rep.lambda_bijective), name
            assert all(rep.rho_bijective), name


def test_gluing_reproduces_composed_solution():
    chains = [(orders, exotic_chain_spec(orders)) for orders in ((6, 2, 2), (8, 4, 2))]
    for name, spec in wbk.catalog_specs() + chains:
        glued = strong_semilattice_of_solutions(
            spec.y,
            tuple(wbk.solution_of(b.as_dual()) for b in spec.braces),
            dict(spec.homs),
        )
        direct = wbk.solution_of(wbk.compose(spec))
        assert glued == direct, name


def test_gluing_validates_maps():
    spec = wbk.catalog_get("c3_sym3")
    sols = tuple(wbk.solution_of(b.as_dual()) for b in spec.braces)
    with pytest.raises(ValidationError) as exc:
        strong_semilattice_of_solutions(spec.y, sols, {})
    assert exc.value.law == "missing_hom"
    # a non-equivariant map: send the generator to a transposition
    with pytest.raises(ValidationError) as exc:
        strong_semilattice_of_solutions(spec.y, sols, {(0, 1): (0, 1, 2)})
    assert exc.value.law == "equivariance"
    # a map for a pair that is not comparable in y
    with pytest.raises(ValidationError) as exc:
        strong_semilattice_of_solutions(
            spec.y, sols, {(0, 1): spec.homs[(0, 1)], (1, 0): (0,) * 6}
        )
    assert exc.value.law == "unexpected_hom" and exc.value.witness == (1, 0)
    with pytest.raises(ValidationError) as exc:
        strong_semilattice_of_solutions(spec.y, sols, {(0, 1): (0, 3)})
    assert exc.value.law == "not_a_hom" and exc.value.witness == ((0, 1), None)
    # on the chain 0 > 1 > 2 of sl3, flips make every map equivariant, but
    # identity maps down 0 > 1 > 2 do not compose to the constant map 0 > 2
    chain3 = wbk.catalog_get("sl3_trivial").semilattice()
    flip = wbk.solution_of(wbk.catalog_get("c2_trivial").as_dual())
    with pytest.raises(ValidationError) as exc:
        strong_semilattice_of_solutions(
            chain3, (flip, flip, flip), {(0, 1): (0, 1), (1, 2): (0, 1), (0, 2): (0, 0)}
        )
    assert exc.value.law == "composition" and exc.value.witness == (0, 1, 2, 1)


def test_period_law_for_glued_solution():
    spec = wbk.catalog_get("c3_sym3")
    comp_periods = [wbk.period(wbk.solution_of(b.as_dual())) for b in spec.braces]
    assert comp_periods == [2, 12]
    p = lcm(*comp_periods)
    r = wbk.solution_of(wbk.compose(spec))
    power = r
    for _ in range(p):
        power = wbk.compose_solutions(power, r)
    assert power == r  # r^(lcm+1) == r


def test_cubic_solution_for_abelian_trivial_components(c2_c4):
    r = wbk.solution_of(c2_c4)
    r3 = wbk.compose_solutions(wbk.compose_solutions(r, r), r)
    assert r3 == r
    r2 = wbk.compose_solutions(r, r)
    assert r2 != r  # not idempotent, genuinely cubic
