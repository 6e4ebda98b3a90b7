"""Ideal predicates, special subsets, quotients, and homomorphism theorems.

Subsets are frozensets of element indices; predicates return Check values
(truthy on success) carrying the first failing law and witness.  Quotients
use the congruence a ~ b iff a and b share a zero part and -a + b lies in
the ideal; the congruence is idempotent separating.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations

from .braces import DualWeakBrace, validate_dual_weak_brace
from .errors import (
    InternalInvariantBroken,
    NotAHom,
    NotAnIdeal,
    OrderTooLarge,
    UsageError,
    ValidationError,
)
from .tables import _close

DEFAULT_MAX_ORDER = 24
EXHAUSTIVE_BOUND = 16


def max_order() -> int:
    raw = os.environ.get("WBK_MAX_ORDER", str(DEFAULT_MAX_ORDER))
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"WBK_MAX_ORDER must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class Check:
    ok: bool
    law: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _check_members(order: int, x) -> None:
    bad = [a for a in x if not isinstance(a, int) or not 0 <= a < order]
    if bad:
        raise ValueError(f"subset members out of range: {sorted(bad)!r}")


def _full_inverse_subsemigroup(s: DualWeakBrace, x: frozenset, side: str) -> Check:
    _check_members(s.order, x)
    table = s.add if side == "add" else s.mul
    for e in s.idempotents:
        if e not in x:
            return Check(False, "missing_idempotent", (e,))
    mem = sorted(x)
    for a in mem:
        if table.inv[a] not in x:
            return Check(False, "no_inverse", (a,))
    for a in mem:
        for b in mem:
            if table.op[a][b] not in x:
                return Check(False, "not_closed", (a, b))
    return Check(True)


def is_full_inverse_subsemigroup_add(s: DualWeakBrace, x: frozenset) -> Check:
    """E(S) contained, closed under + and additive inverse."""
    return _full_inverse_subsemigroup(s, frozenset(x), "add")


def is_normal_subsemigroup(s: DualWeakBrace, x: frozenset, side: str) -> Check:
    """Full inverse subsemigroup stable under conjugation a' i a."""
    x = frozenset(x)
    base = _full_inverse_subsemigroup(s, x, side)
    if not base:
        return base
    table = s.add if side == "add" else s.mul
    for a in range(s.order):
        ai = table.inv[a]
        for i in sorted(x):
            if table.op[table.op[ai][i]][a] not in x:
                return Check(False, "not_normal", (a, i))
    return Check(True)


def _lambda_invariant(s: DualWeakBrace, x: frozenset) -> Check:
    for a in range(s.order):
        for i in sorted(x):
            if s.lam(a, i) not in x:
                return Check(False, "not_lambda_invariant", (a, i))
    return Check(True)


def is_left_ideal(s: DualWeakBrace, x: frozenset) -> Check:
    x = frozenset(x)
    base = is_full_inverse_subsemigroup_add(s, x)
    if not base:
        return base
    return _lambda_invariant(s, x)


def is_strong_left_ideal(s: DualWeakBrace, x: frozenset) -> Check:
    x = frozenset(x)
    base = is_normal_subsemigroup(s, x, "add")
    if not base:
        return base
    return _lambda_invariant(s, x)


def is_ideal(s: DualWeakBrace, x: frozenset) -> Check:
    x = frozenset(x)
    base = is_normal_subsemigroup(s, x, "add")
    if not base:
        return base
    lam = _lambda_invariant(s, x)
    if not lam:
        return lam
    return is_normal_subsemigroup(s, x, "mul")


def socle(s: DualWeakBrace) -> frozenset:
    """Elements a with a+b = a*b and a+b = b+a for every b."""
    n = s.order
    return frozenset(
        a
        for a in range(n)
        if all(
            s.plus(a, b) == s.times(a, b) and s.plus(a, b) == s.plus(b, a) for b in range(n)
        )
    )


def fix(s: DualWeakBrace) -> frozenset:
    """Elements b with a+b = a*b for every a."""
    n = s.order
    return frozenset(b for b in range(n) if all(s.plus(a, b) == s.times(a, b) for a in range(n)))


def additive_center(s: DualWeakBrace) -> frozenset:
    n = s.order
    return frozenset(a for a in range(n) if all(s.plus(a, b) == s.plus(b, a) for b in range(n)))


def mul_center(s: DualWeakBrace) -> frozenset:
    n = s.order
    return frozenset(a for a in range(n) if all(s.times(a, b) == s.times(b, a) for b in range(n)))


def left_center(s: DualWeakBrace) -> frozenset:
    return fix(s) & additive_center(s)


def annihilator(s: DualWeakBrace) -> frozenset:
    return socle(s) & mul_center(s)


def generated_full_inverse_subsemigroup(s: DualWeakBrace, seed) -> frozenset:
    """Least superset of seed and E(S) closed under + and additive inverse."""
    _check_members(s.order, seed)
    return _close(s.add.op, set(seed) | set(s.idempotents), lambda v: (s.neg(v),))


def product_set(s: DualWeakBrace, x, y) -> frozenset:
    """X.Y: the full inverse subsemigroup of (S,+) generated by all dots x.y."""
    _check_members(s.order, x)
    _check_members(s.order, y)
    return generated_full_inverse_subsemigroup(
        s, {s.dot(i, j) for i in x for j in y}
    )


def commutator_set(s: DualWeakBrace, x, y) -> frozenset:
    """[X,Y]+: generated by the additive commutators across the two subsets."""
    _check_members(s.order, x)
    _check_members(s.order, y)
    return generated_full_inverse_subsemigroup(
        s, {s.add_commutator(i, j) for i in x for j in y}
    )


def sum_of_ideals(s: DualWeakBrace, i, j) -> frozenset:
    """{a+b : a in I, b in J}; equals {a*b} and is an ideal again."""
    for part in (i, j):
        chk = is_ideal(s, part)
        if not chk:
            raise NotAnIdeal(chk.law, chk.witness)
    out = frozenset(s.plus(a, b) for a in i for b in j)
    circ = frozenset(s.times(a, b) for a in i for b in j)
    if out != circ:
        raise InternalInvariantBroken("sum of ideals: {a+b} differs from {a*b}")
    chk = is_ideal(s, out)
    if not chk:
        raise InternalInvariantBroken(f"sum of ideals is not an ideal: {chk.law} {chk.witness}")
    return out


@dataclass(frozen=True)
class QuotientStructure:
    quotient: DualWeakBrace
    projection: tuple[int, ...]
    class_rep: tuple[int, ...]


def quotient(s: DualWeakBrace, ideal) -> QuotientStructure:
    """S/I with least-index class representatives."""
    ideal = frozenset(ideal)
    chk = is_ideal(s, ideal)
    if not chk:
        raise NotAnIdeal(chk.law, chk.witness)
    n = s.order
    proj: list[int | None] = [None] * n
    reps: list[int] = []
    for a in range(n):
        if proj[a] is not None:
            continue
        c = len(reps)
        reps.append(a)
        za = s.zero_part(a)
        for b in range(a, n):
            if proj[b] is None and s.zero_part(b) == za and s.plus(s.neg(a), b) in ideal:
                proj[b] = c
    m = len(reps)
    qadd = [[proj[s.plus(ra, rb)] for rb in reps] for ra in reps]
    qmul = [[proj[s.times(ra, rb)] for rb in reps] for ra in reps]
    for a in range(n):
        for b in range(n):
            if proj[s.plus(a, b)] != qadd[proj[a]][proj[b]] or proj[s.times(a, b)] != qmul[proj[a]][proj[b]]:
                raise InternalInvariantBroken("relation is not a congruence for this subset")
    q = validate_dual_weak_brace(qadd, qmul)
    if len(q.idempotents) != len(s.idempotents):
        raise InternalInvariantBroken("quotient congruence is not idempotent separating")
    return QuotientStructure(q, tuple(proj), tuple(reps))


def verify_hom(s: DualWeakBrace, t: DualWeakBrace, f) -> tuple[int, ...]:
    f = tuple(f)
    if len(f) != s.order or any(not 0 <= v < t.order for v in f):
        raise NotAHom((len(f),))
    for a in range(s.order):
        for b in range(s.order):
            if f[s.plus(a, b)] != t.plus(f[a], f[b]):
                raise NotAHom((a, b), side="add")
            if f[s.times(a, b)] != t.times(f[a], f[b]):
                raise NotAHom((a, b), side="mul")
    return f


def kernel(s: DualWeakBrace, t: DualWeakBrace, f) -> frozenset:
    """Elements whose image equals the image of some idempotent."""
    f = verify_hom(s, t, f)
    idem_images = {f[e] for e in s.idempotents}
    return frozenset(a for a in range(s.order) if f[a] in idem_images)


def is_sub_dual_weak_brace(t: DualWeakBrace, members, strict: bool = False) -> Check:
    """Closed under both operations and inverses, holding its own zero parts.

    strict additionally requires every idempotent of the ambient structure.
    """
    x = frozenset(members)
    _check_members(t.order, x)
    if not x:
        return Check(False, "empty", ())
    if strict:
        for e in t.idempotents:
            if e not in x:
                return Check(False, "missing_idempotent", (e,))
    for a in sorted(x):
        if t.zero_part(a) not in x:
            return Check(False, "missing_zero_part", (a,))
        if t.neg(a) not in x or t.minv(a) not in x:
            return Check(False, "no_inverse", (a,))
    for a in sorted(x):
        for b in sorted(x):
            if t.plus(a, b) not in x or t.times(a, b) not in x:
                return Check(False, "not_closed", (a, b))
    return Check(True)


def sub_structure(t: DualWeakBrace, members) -> tuple[DualWeakBrace, tuple[int, ...]]:
    """The structure induced on a closed subset, with its sorted global labels.

    Local index i corresponds to labels[i] in the ambient structure.
    """
    x = frozenset(members)
    chk = is_sub_dual_weak_brace(t, x)
    if not chk:
        raise ValidationError(chk.law, chk.witness)
    labels = tuple(sorted(x))
    rank = {a: i for i, a in enumerate(labels)}
    add = [[rank[t.plus(a, b)] for b in labels] for a in labels]
    mul = [[rank[t.times(a, b)] for b in labels] for a in labels]
    return validate_dual_weak_brace(add, mul), labels


def image(s: DualWeakBrace, t: DualWeakBrace, f) -> frozenset:
    f = verify_hom(s, t, f)
    out = frozenset(f)
    chk = is_sub_dual_weak_brace(t, out)
    if not chk:
        raise InternalInvariantBroken(f"hom image is not a sub-brace: {chk.law} {chk.witness}")
    return out


def first_isomorphism_check(s: DualWeakBrace, t: DualWeakBrace, f) -> bool:
    """S/ker f maps bijectively onto im f through the induced map."""
    f = verify_hom(s, t, f)
    q = quotient(s, kernel(s, t, f))
    induced = tuple(f[rep] for rep in q.class_rep)
    if any(induced[q.projection[a]] != f[a] for a in range(s.order)):
        return False
    if len(set(induced)) != q.quotient.order:
        return False
    if set(induced) != set(f):
        return False
    m = q.quotient.order
    for a in range(m):
        for b in range(m):
            if induced[q.quotient.plus(a, b)] != t.plus(induced[a], induced[b]):
                return False
            if induced[q.quotient.times(a, b)] != t.times(induced[a], induced[b]):
                return False
    return True


def ideal_closure(s: DualWeakBrace, seed) -> frozenset:
    """Least ideal containing seed: close under +, -, lambda, and both
    conjugations simultaneously."""
    _check_members(s.order, seed)

    def images(i: int) -> list[int]:
        out = [s.neg(i)]
        for a in range(s.order):
            out += (s.lam(a, i), s.plus(s.plus(s.neg(a), i), a), s.times(s.times(s.minv(a), i), a))
        return out

    return _close(s.add.op, set(seed) | set(s.idempotents), images)


@dataclass(frozen=True)
class IdealEnumeration:
    ideals: tuple[frozenset, ...]
    mode: str


def enumerate_ideals(s: DualWeakBrace, mode: str = "auto") -> IdealEnumeration:
    """All two-sided ideals.

    exhaustive: test every subset containing E(S) (order <= 16 by default).
    closure: principal ideal closures plus pairwise sums; complete because
    every ideal is the join of the principal ideals of its elements.
    """
    bound = max_order()
    if s.order > bound:
        raise OrderTooLarge(f"order {s.order} exceeds bound {bound}")
    if mode == "auto":
        mode = "exhaustive" if s.order <= EXHAUSTIVE_BOUND else "closure"
    if mode == "exhaustive":
        rest = [a for a in range(s.order) if a not in s.idempotents]
        base = frozenset(s.idempotents)
        found = []
        for bits in range(1 << len(rest)):
            x = base | {rest[k] for k in range(len(rest)) if bits >> k & 1}
            if is_ideal(s, x):
                found.append(x)
    elif mode == "closure":
        seen = {ideal_closure(s, {a}) for a in range(s.order)}
        while True:
            fresh = {
                frozenset(s.plus(a, b) for a in i for b in j)
                for i, j in combinations(seen, 2)
            } - seen
            if not fresh:
                break
            seen |= fresh
        for x in seen:
            if not is_ideal(s, x):
                raise InternalInvariantBroken("closure-seeded candidate is not an ideal")
        found = list(seen)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    found.sort(key=lambda x: (len(x), sorted(x)))
    return IdealEnumeration(tuple(found), mode)


@dataclass(frozen=True)
class IdealDecomposition:
    locals_: tuple[frozenset, ...]


def ideal_decomposition(s: DualWeakBrace, ideal) -> IdealDecomposition:
    """Slice an ideal along the components; each slice is an ideal of its
    component and the connecting homs respect the slices."""
    ideal = frozenset(ideal)
    chk = is_ideal(s, ideal)
    if not chk:
        raise NotAnIdeal(chk.law, chk.witness)
    members = s.component_members()
    rank = {a: i for comp in members for i, a in enumerate(comp)}
    out = []
    for alpha, comp in enumerate(members):
        part = frozenset(rank[a] for a in comp if a in ideal)
        out.append(part)
    from .compose import decompose  # local import to avoid a cycle

    spec = decompose(s)
    for alpha, comp in enumerate(members):
        local = spec.braces[alpha].as_dual()
        sub = out[alpha]
        chk = is_ideal(local, sub)
        if not chk:
            raise InternalInvariantBroken(
                f"component slice is not an ideal of its component: {chk.law}"
            )
    for alpha, beta in spec.y.comparable_pairs():
        f = spec.hom(alpha, beta)
        for i in out[alpha]:
            if f[i] not in out[beta]:
                raise InternalInvariantBroken("connecting hom leaves the ideal slices")
    return IdealDecomposition(tuple(out))
