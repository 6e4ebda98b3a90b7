"""Brace validation, the derived maps, and exhaustive law checks."""

import pytest
from conftest import exotic, exotic_chain, non_chain

import wbk
from wbk import DualWeakBrace, ValidationError, tables, validate_dual_weak_brace, validate_skew_brace

C4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
# another order-4 group on the same labels; paired with C4 it breaks the
# distributivity law at (1,1,1)
C4_TWISTED = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]

# Clifford pair with matching idempotents {0,1} but different zero part for
# element 2 (add puts it with 0, mul puts it with 1)
ADD3 = [[0, 1, 2], [1, 1, 1], [2, 1, 0]]
MUL3 = [[0, 1, 2], [1, 1, 2], [2, 2, 1]]


def test_compatibility_violation_reported():
    with pytest.raises(ValidationError) as exc:
        validate_skew_brace(C4_TWISTED, C4)
    assert exc.value.law == "compatibility"
    assert exc.value.witness == (1, 1, 1)


def test_second_axiom_violation_reported():
    with pytest.raises(ValidationError) as exc:
        validate_dual_weak_brace(ADD3, MUL3)
    assert exc.value.law == "second_axiom"
    assert exc.value.witness == (2,)


def test_group_failure_carries_side():
    bad = [[0, 0], [0, 0]]
    with pytest.raises(ValidationError) as exc:
        validate_skew_brace(bad, [[0, 1], [1, 0]])
    assert exc.value.side == "add"
    with pytest.raises(ValidationError) as exc:
        validate_skew_brace([[0, 1], [1, 0]], bad)
    assert exc.value.side == "mul"


def test_order_and_identity_mismatch():
    c2 = [[0, 1], [1, 0]]
    c3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    with pytest.raises(ValidationError) as exc:
        validate_skew_brace(c2, c3)
    assert exc.value.law == "order_mismatch"
    c2_shifted = [[1, 0], [0, 1]]  # identity is 1
    with pytest.raises(ValidationError) as exc:
        validate_skew_brace(c2, c2_shifted)
    assert exc.value.law == "identity_mismatch"
    assert exc.value.witness == (0, 1)


def test_idempotent_set_mismatch():
    chain2 = [[0, 1], [1, 1]]
    c2 = [[0, 1], [1, 0]]
    with pytest.raises(ValidationError) as exc:
        validate_dual_weak_brace(chain2, c2)
    assert exc.value.law == "idempotent_set_mismatch"
    assert exc.value.witness == (1,)


def test_mixed_orders_reject():
    with pytest.raises(ValidationError) as exc:
        validate_dual_weak_brace([[0, 1], [1, 0]], [[0]])
    assert exc.value.law == "order_mismatch"


def test_z6_derived_maps(z6):
    assert z6.lam(1, 2) == 4
    assert z6.rho(2, 1) == 1
    assert z6.dot(1, 2) == 2
    # additive group is abelian, so commutators vanish
    assert all(z6.add_commutator(a, b) == 0 for a in range(6) for b in range(6))
    assert z6.is_skew() and z6.is_brace()
    assert z6.zero_part(5) == 0


def _inverses(op):
    """The inverse of each a in a Clifford table: the x with a+x+a = a and x+a+x = x."""
    n = len(op)
    return [next(x for x in range(n) if op[op[a][x]][a] == a and op[op[x][a]][x] == x) for a in range(n)]


def _oracle_tables(add, mul):
    """The derived tables from the raw + and * tables alone, keyed by the
    attribute that holds each."""
    n, neg, minv = len(add), _inverses(add), _inverses(mul)
    rn = range(n)
    lam = [[add[neg[a]][mul[a][b]] for b in rn] for a in rn]
    return {
        "_lam": lam,
        # row b is the map rho_b: [b][a] = (lam_a(b))' * a * b
        "_rho": [[mul[mul[minv[lam[a][b]]][a]][b] for a in rn] for b in rn],
        "_dot": [[add[add[neg[a]][mul[a][b]]][neg[b]] for b in rn] for a in rn],
        "_add_commutator": [[add[add[add[neg[a]][neg[b]]][a]][b] for b in rn] for a in rn],
    }


def _table_cases(all_structures):
    elementary = [[a ^ b for b in range(8)] for a in range(8)]
    cases = list(all_structures)
    cases += [(f"exotic Z{n}", exotic(n).as_dual()) for n in range(2, 17, 2)]
    cases += [("(Z2)^3", validate_skew_brace(elementary, elementary).as_dual())]
    cases += [(f"chain {c}", exotic_chain(c)) for c in ((4, 2), (8, 4, 2), (12, 6, 2))]
    cases += [("non-chain", non_chain())]
    return cases + [(f"{name} op", s.opposite()) for name, s in cases]


def test_derived_tables_match_an_oracle_on_the_raw_tables(all_structures, monkeypatch):
    # the tables are built from translated rows: bytes up to
    # tables.BYTES_BOUND, and tuples when a bound of 0 forces them
    cases = _table_cases(all_structures)
    for bound in (tables.BYTES_BOUND, 0):
        monkeypatch.setattr(tables, "BYTES_BOUND", bound)
        rho_asymmetric = False
        for name, s in cases:
            fresh = DualWeakBrace(s.add, s.mul, s.idempotents, s.component_of)
            before = hash(fresh)
            want = _oracle_tables(fresh.add.op, fresh.mul.op)
            for attr, table in want.items():
                # == on nested lists also pins the row type: a tuple row is never == a list
                assert getattr(fresh, attr) == table, (bound, name, attr)
                assert getattr(fresh, attr) is getattr(fresh, attr), (bound, name, attr)
            n = s.order
            for a in range(n):
                for b in range(n):
                    assert fresh.lam(a, b) == want["_lam"][a][b], name
                    assert fresh.rho(b, a) == want["_rho"][b][a], name
                    assert fresh.dot(a, b) == want["_dot"][a][b], name
                    assert fresh.add_commutator(a, b) == want["_add_commutator"][a][b], name
            rho_asymmetric |= want["_rho"] != [list(col) for col in zip(*want["_rho"])]
            # the cached tables stay out of equality and hashing, which classify's memo keys on
            assert hash(fresh) == before and fresh == s, name
            assert fresh == DualWeakBrace(s.add, s.mul, s.idempotents, s.component_of), name
        # a transposed rho table must be told apart somewhere
        assert rho_asymmetric


def test_glued_structure_shape(c3_sym3):
    assert c3_sym3.order == 9
    assert c3_sym3.idempotents == (0, 3)
    assert c3_sym3.component_members() == ((0, 1, 2), (3, 4, 5, 6, 7, 8))
    assert not c3_sym3.is_skew() and not c3_sym3.is_brace()
    assert c3_sym3.semilattice().meet == ((0, 1), (1, 1))
    # spot entries: cross sums land in the lower component through the hom
    assert c3_sym3.plus(1, 4) == 5
    assert c3_sym3.plus(4, 1) == 8
    assert c3_sym3.times(2, 5) == 4


def test_laws_hold_exhaustively(all_structures):
    for name, s in all_structures:
        n = s.order
        for a in range(n):
            za = s.times(a, s.minv(a))
            assert za == s.plus(s.neg(a), a) == s.plus(a, s.neg(a)), name
            assert za == s.zero_part(a), name
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lhs = s.times(a, s.plus(b, c))
                    rhs = s.plus(s.plus(s.times(a, b), s.neg(a)), s.times(a, c))
                    assert lhs == rhs, (name, a, b, c)


def test_lambda_is_additive_and_multiplicative(all_structures):
    # lam_a is an endomorphism of (S,+) and a -> lam_a respects the circle op
    for name, s in all_structures:
        n = s.order
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert s.lam(a, s.plus(b, c)) == s.plus(s.lam(a, b), s.lam(a, c)), name
                    assert s.lam(s.times(a, b), c) == s.lam(a, s.lam(b, c)), name


def test_product_factors_through_lambda_rho(all_structures):
    for name, s in all_structures:
        n = s.order
        for a in range(n):
            for b in range(n):
                assert s.times(s.lam(a, b), s.rho(b, a)) == s.times(a, b), name
                # the dot measures the gap: a + a.b + b == a * b
                assert s.plus(s.plus(a, s.dot(a, b)), b) == s.times(a, b), name


def test_opposite_involution(z6, c3_sym3):
    for s in (z6, c3_sym3):
        op = s.opposite()
        assert op.add.op != s.add.op or all(
            s.plus(a, b) == s.plus(b, a) for a in range(s.order) for b in range(s.order)
        )
        assert op.mul.op == s.mul.op
        back = op.opposite()
        assert back.add.op == s.add.op and back.mul.op == s.mul.op


def test_relabel_round_trip(z6):
    perm = (2, 0, 5, 1, 4, 3)
    inv = tuple(perm.index(i) for i in range(6))
    t = wbk.relabel(z6, perm)
    back = wbk.relabel(t, inv)
    assert back.add.op == z6.add.op and back.mul.op == z6.mul.op
    assert sorted(t.idempotents) == [perm[0]]
    # a repeated, an out-of-range and a short map are not permutations, and
    # neither is one with a bool or a float that equals and hashes as an index
    for bad in ((0, 0, 2, 3, 4, 5), (0, 1, 2, 3, 4, 9), (0, 1, 2), (True, 0, 2, 3, 4, 5), (0.0, 1, 2, 3, 4, 5)):
        with pytest.raises(ValueError):
            wbk.relabel(z6, bad)


def test_as_dual_wraps_skew_brace():
    b = wbk.catalog_get("sym3_trivial")
    assert b.order == 6
    assert not b.is_brace()
    d = b.as_dual()
    assert d.idempotents == (0,)
    assert d.component_of == (0,) * 6
    assert d.is_skew()


def test_trivial_brace_always_validates():
    for name in ("c2", "c3", "c4", "c6", "klein4", "sym3"):
        g = wbk.catalog_get(name)
        b = wbk.trivial_brace(g)
        # revalidate through the public validator
        validate_skew_brace([list(r) for r in b.add.op], [list(r) for r in b.mul.op])
