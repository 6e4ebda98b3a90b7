"""Ideal predicates, special subsets, quotients, and homomorphism theorems.

Subsets are frozensets of element indices; predicates return Check values
(truthy on success) carrying the first failing law and witness.  Quotients
use the congruence a ~ b iff a and b share a zero part and -a + b lies in
the ideal; the congruence is idempotent separating.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import chain

from .braces import DualWeakBrace, validate_dual_weak_brace
from .compose import decompose
from .errors import (
    InternalInvariantBroken,
    NotAHom,
    NotAnIdeal,
    OrderTooLarge,
    UsageError,
    ValidationError,
)
from .tables import _centre, _close, _elements, _first_non_hom, _gather, _induced, _mask

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
    bad = [a for a in x if type(a) is not int or not 0 <= a < order]
    if bad:
        try:
            bad.sort()
        except TypeError:  # members of types that do not compare
            bad.sort(key=repr)
        raise ValueError(f"subset members out of range: {bad!r}")


# The ideal laws take (s, x, sorted members) and return the failing Check or
# None; _LADDER holds them in the order is_ideal reports them.


def _full_inverse(side: str, s: DualWeakBrace, x: frozenset, mem: list) -> Check | None:
    """E(S) contained, closed under the side's inverse and operation."""
    table = getattr(s, side)
    for e in s.idempotents:
        if e not in x:
            return Check(False, "missing_idempotent", (e,))
    for a in mem:
        if table.inv[a] not in x:
            return Check(False, "no_inverse", (a,))
    for a in mem:
        row = table.op[a]
        for b in mem:
            if row[b] not in x:
                return Check(False, "not_closed", (a, b))
    return None


def _normal(side: str, s: DualWeakBrace, x: frozenset, mem: list) -> Check | None:
    """Stable under the side's conjugation a' i a."""
    table = getattr(s, side)
    op, inv = table.op, table.inv
    for a in range(s.order):
        left = op[inv[a]]
        for i in mem:
            if op[left[i]][a] not in x:
                return Check(False, "not_normal", (a, i))
    return None


def _lambda_invariant(s: DualWeakBrace, x: frozenset, mem: list) -> Check | None:
    """lam_a(i) = -a + a*i stays in x for every a and member i."""
    for a, row in enumerate(s._lam):
        for i in mem:
            if row[i] not in x:
                return Check(False, "not_lambda_invariant", (a, i))
    return None


_LADDER = (
    partial(_full_inverse, "add"),
    partial(_normal, "add"),
    _lambda_invariant,
    partial(_full_inverse, "mul"),
    partial(_normal, "mul"),
)
_IDEAL = (0, 1, 2, 3, 4)
_PASS = Check(True)


def _first_failure(s: DualWeakBrace, x: frozenset, laws) -> tuple[int | None, Check]:
    """The first of laws (indices into _LADDER) that x breaks, with its Check;
    (None, passing Check) when x satisfies them all.

    Each law is scanned elementwise, O(n·|x|) steps.  It decides the laws
    short of an ideal; for all five, _ideal_holds decides and this ladder
    runs only after a rejection, to name the law and its least witness.
    """
    mem = sorted(x)
    for k in laws:
        bad = _LADDER[k](s, x, mem)
        if bad is not None:
            return k, bad
    return None, _PASS


def _holds(s: DualWeakBrace, x, laws) -> Check:
    x = frozenset(x)
    _check_members(s.order, x)
    return _first_failure(s, x, laws)[1]


def _ideal_holds(s: DualWeakBrace, x: frozenset) -> bool:
    """Whether x is an ideal: E(S) <= x, and x translated by each of
    s._ideal_maps and by the + rows of its members has no byte outside x
    (one join and one deleting translate; tuples above tables.BYTES_BOUND,
    checked with issuperset).

    The rows close x under + and one map under -; the rest give lam_g and
    both conjugations by the generators g.  They are enough for every lam_a
    and both conjugations by every a: lam_{a*b} = lam_a lam_b, conjugation
    by a*b is conjugation by a then by b, as (a*b)' = b'*a', and
    conjugation by a+b is conjugation by a then by b; and every a is a
    product of generators, but for the identity of a group with none,
    whose maps are the identity.  The other laws follow, for a
    and i in x:
    - a*i = e_a + a*i = a + lam_a(i), as a*i lies in a component below
      a's (see _ideal_images), so x is closed under *;
    - a' = lam_{a'}(-a), as lam_a(a') = -a + e_a = -a and
      lam_{a'} lam_a = lam_{e_a} fixes a', so x is closed under '.
    """
    if not x.issuperset(s.idempotents):
        return False
    maps, adds = s._ideal_maps
    mem = sorted(x)
    small = type(maps[0]) is bytes  # the encoding the tables were built in
    key = bytes(mem) if small else None
    through = key.translate if small else _gather(mem)
    parts = [*map(through, maps), *map(through, map(adds.__getitem__, mem))]
    return not b"".join(parts).translate(None, key) if small else x.issuperset(chain.from_iterable(parts))


def _ideal_failure(s: DualWeakBrace, x: frozenset, laws=_IDEAL) -> tuple[int | None, Check]:
    """_first_failure over laws, an order of all five, with _ideal_holds
    deciding: the ladder runs only after it rejects x."""
    if _ideal_holds(s, x):
        return None, _PASS
    k, bad = _first_failure(s, x, laws)
    if k is None:
        raise InternalInvariantBroken("ideal kernel rejects a set the ladder accepts")
    return k, bad


# tier by the first law broken when the ladder runs in the order 0, 2, 1, 3, 4
_TIERS = {0: "-", 2: "-", 1: "L", 3: "SL", 4: "SL", None: "I"}


def _tier(s: DualWeakBrace, x: frozenset) -> str:
    """I (ideal), SL (strong left ideal), L (left ideal) or -, each law run once."""
    return _TIERS[_ideal_failure(s, x, (0, 2, 1, 3, 4))[0]]


def is_full_inverse_subsemigroup_add(s: DualWeakBrace, x: frozenset) -> Check:
    """E(S) contained, closed under + and additive inverse."""
    return _holds(s, x, (0,))


def is_normal_subsemigroup(s: DualWeakBrace, x: frozenset, side: str) -> Check:
    """Full inverse subsemigroup stable under conjugation a' i a."""
    return _holds(s, x, (0, 1) if side == "add" else (3, 4))


def is_left_ideal(s: DualWeakBrace, x: frozenset) -> Check:
    return _holds(s, x, (0, 2))


def is_strong_left_ideal(s: DualWeakBrace, x: frozenset) -> Check:
    return _holds(s, x, (0, 1, 2))


def is_ideal(s: DualWeakBrace, x: frozenset) -> Check:
    x = frozenset(x)
    _check_members(s.order, x)
    return _ideal_failure(s, x)[1]


def _require_ideal(s: DualWeakBrace, x) -> None:
    chk = is_ideal(s, x)
    if not chk:
        raise NotAnIdeal(chk.law, chk.witness)


def socle(s: DualWeakBrace) -> frozenset:
    """Elements a with a+b = a*b and a+b = b+a for every b."""
    rows = zip(s.add.op, s.mul.op)
    return frozenset(a for a, (x, y) in enumerate(rows) if x == y) & additive_center(s)


def fix(s: DualWeakBrace) -> frozenset:
    """Elements b with a+b = a*b for every a."""
    cols = zip(zip(*s.add.op), zip(*s.mul.op))
    return frozenset(b for b, (x, y) in enumerate(cols) if x == y)


def additive_center(s: DualWeakBrace) -> frozenset:
    return _centre(s.add.op)


def mul_center(s: DualWeakBrace) -> frozenset:
    return _centre(s.mul.op)


def left_center(s: DualWeakBrace) -> frozenset:
    return fix(s) & additive_center(s)


def annihilator(s: DualWeakBrace) -> frozenset:
    return socle(s) & mul_center(s)


def generated_full_inverse_subsemigroup(s: DualWeakBrace, seed) -> frozenset:
    """Least superset of seed and E(S) closed under + and additive inverse."""
    _check_members(s.order, seed)
    negs = [1 << v for v in s.add.inv]
    return frozenset(_elements(_close(s.add.op, _mask(seed) | _mask(s.idempotents), negs)))


def product_set(s: DualWeakBrace, x, y) -> frozenset:
    """X.Y: the full inverse subsemigroup of (S,+) generated by all dots x.y."""
    _check_members(s.order, x)
    _check_members(s.order, y)
    dot = s._dot
    return generated_full_inverse_subsemigroup(s, {dot[i][j] for i in x for j in y})


def commutator_set(s: DualWeakBrace, x, y) -> frozenset:
    """[X,Y]+: generated by the additive commutators across the two subsets."""
    _check_members(s.order, x)
    _check_members(s.order, y)
    comm = s._add_commutator
    return generated_full_inverse_subsemigroup(s, {comm[i][j] for i in x for j in y})


def sum_of_ideals(s: DualWeakBrace, i, j) -> frozenset:
    """{a+b : a in I, b in J}; equals {a*b} and is an ideal again."""
    for part in (i, j):
        _require_ideal(s, part)
    return _sum_of_ideals(s, i, j, partial(is_ideal, s))


def _sum_of_ideals(s: DualWeakBrace, i, j, ideal) -> frozenset:
    """sum_of_ideals of the ideals i and j, which the caller has checked,
    with ideal(x) the ideal test of s: a caller can share its verdicts."""
    out = frozenset(s.plus(a, b) for a in i for b in j)
    circ = frozenset(s.times(a, b) for a in i for b in j)
    if out != circ:
        raise InternalInvariantBroken("sum of ideals: {a+b} differs from {a*b}")
    chk = ideal(out)
    if not chk:
        raise InternalInvariantBroken(f"sum of ideals is not an ideal: {chk.law} {chk.witness}")
    return out


@dataclass(frozen=True)
class QuotientStructure:
    quotient: DualWeakBrace
    projection: tuple[int, ...]
    class_rep: tuple[int, ...]


def quotient(s: DualWeakBrace, ideal) -> QuotientStructure:
    """S/I with least-index class representatives.

    S/E(S) is S itself, with the identity as projection and representatives:
    an ideal holds E(S), so one of that size is E(S), and its classes
    a + E(S) are {a}, as a + e = a for e >= e_a and a + e lies in another
    component otherwise.  Every other ideal gets its classes, the induced
    tables, the congruence check and a validated quotient.
    """
    ideal = frozenset(ideal)
    _require_ideal(s, ideal)
    if len(ideal) == len(s.idempotents):
        same = tuple(range(s.order))
        return QuotientStructure(s, same, same)
    add, mul, comp = s.add.op, s.mul.op, s.component_of
    proj: list[int | None] = [None] * s.order
    reps: list[int] = []
    for a in range(s.order):
        if proj[a] is None:
            # class of a = (a + I) in its component: -a + (a + i) = e_a + i in I, b = a + (-a + b)
            for b in map(add[a].__getitem__, ideal):
                if comp[b] == comp[a]:
                    proj[b] = len(reps)
            reps.append(a)
    qadd, qmul = _induced(add, reps, proj), _induced(mul, reps, proj)
    if _first_non_hom(proj, ((add, qadd), (mul, qmul))) is not None:
        raise InternalInvariantBroken("relation is not a congruence for this subset")
    q = validate_dual_weak_brace(qadd, qmul)
    if len(q.idempotents) != len(s.idempotents):
        raise InternalInvariantBroken("quotient congruence is not idempotent separating")
    return QuotientStructure(q, tuple(proj), tuple(reps))


def verify_hom(s: DualWeakBrace, t: DualWeakBrace, f) -> tuple[int, ...]:
    f = tuple(f)
    if len(f) != s.order or not all(type(v) is int and 0 <= v < t.order for v in f):
        raise NotAHom((len(f),))
    bad = _first_non_hom(f, ((s.add.op, t.add.op), (s.mul.op, t.mul.op)))
    if bad is not None:
        raise NotAHom(bad[:2], side=("add", "mul")[bad[2]])
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
    mem = sorted(x)
    for a in mem:
        if t.zero_part(a) not in x:
            return Check(False, "missing_zero_part", (a,))
        if t.neg(a) not in x or t.minv(a) not in x:
            return Check(False, "no_inverse", (a,))
    for a in mem:
        for b in mem:
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
    add, mul = _induced(t.add.op, labels, rank), _induced(t.mul.op, labels, rank)
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
    f = tuple(f)
    q = quotient(s, kernel(s, t, f))  # kernel verifies f
    induced = tuple(f[rep] for rep in q.class_rep)
    if any(induced[q.projection[a]] != f[a] for a in range(s.order)):
        return False
    if len(set(induced)) != q.quotient.order:
        return False
    if set(induced) != set(f):
        return False
    qs = q.quotient
    return _first_non_hom(induced, ((qs.add.op, t.add.op), (qs.mul.op, t.mul.op))) is None


def _ideal_images(s: DualWeakBrace) -> list[int]:
    """Per element i, the bitmask of its images under the maps of
    s._ideal_maps: -i, lam_g(i) and both conjugates of i by each
    generator g.  A set holding E(S) and closed under + and these maps is
    closed under every lam_a and both conjugations by every a, and so
    under * and ' too (see _ideal_holds): a*b = e_a + a*b = a + lam_a(b),
    as a*b lies in a component below a's.  So it is an ideal, and closing
    under them (one pass over the maps, not over every a) reaches the
    least ideal."""
    n = s.order
    out = [0] * n
    for m in s._ideal_maps[0]:
        for i, v in enumerate(m[:n]):
            out[i] |= 1 << v
    return out


def ideal_closure(s: DualWeakBrace, seed) -> frozenset:
    """Least ideal containing seed: close under +, -, lambda, and both
    conjugations simultaneously."""
    _check_members(s.order, seed)
    least = _close(s.add.op, _mask(seed) | _mask(s.idempotents), _ideal_images(s))
    return frozenset(_elements(least))


def _sum_mask(op, i: int, mem: list, j: list) -> int:
    """I + J for ideals I (mask i, members mem) and J (members j), as a
    bitmask.  I + I = I and b lies in I + b, so once b is in I + b0, all of
    I + b is too: the sum starts at I and adds the cosets I + b not in it."""
    out = i
    for b in j:
        if not out >> b & 1:
            for a in mem:
                out |= 1 << op[a][b]
    return out


def _principal_ideals(add, least: int, gens: list, images) -> list[int]:
    """P_x, the least ideal holding x, for every x, as bitmasks; least is the
    least ideal and gens its generator list (see _close).

    x + x lies in P_x, so P_{x+x} <= P_x, and P_x is the closure of
    P_{x+x} and x; when x lies in P_{x+x} the two are equal.  From each x
    the walk x, 2x, 4x, ... stops at an element z whose P is known, one in
    the least ideal (P_z is least) or a repeat (built from least).  Then
    the path closes back from its end, each P_w from done = P_{2w} and its
    generators, or P_w = P_{2w} when w is already in it.
    """
    n = len(add)
    known: list = [(least, gens) if least >> z & 1 else None for z in range(n)]  # (P_z, its generators)
    for x in range(n):
        path, z = [], x
        while known[z] is None and z not in path:
            path.append(z)
            z = add[z][z]
        if known[z] is None:  # z repeats
            g = list(gens)
            known[z] = (_close(add, least | 1 << z, images, least, g), g)
        for w in reversed(path):
            if known[w] is None:
                done, dgens = known[add[w][w]]
                if done >> w & 1:
                    known[w] = (done, dgens)
                else:
                    g = list(dgens)
                    known[w] = (_close(add, done | 1 << w, images, done, g), g)
    return [p for p, _ in known]


@dataclass(frozen=True)
class IdealEnumeration:
    ideals: tuple[frozenset, ...]
    mode: str


def enumerate_ideals(s: DualWeakBrace) -> IdealEnumeration:
    """All two-sided ideals, as frozensets listed by size, then members.

    Both searches run on bitmasks and take one step: the join I + P_x of an
    ideal I with the principal ideal P_x of x, built once per x on P_{x+x}
    (_principal_ideals).  A sum of ideals, it is the least ideal holding I
    and x: a = a + e_a with e_a in E(S) <= P_x, x = e_x + x with e_x in I.
    The order picks the search: up to EXHAUSTIVE_BOUND (16), a depth-first
    search that includes or excludes each element in index order, cutting a
    branch once a join takes in an excluded element; above it, a
    breadth-first search from the least ideal over the joins with each
    distinct P_x.  Every candidate must pass the full ideal test, which
    _ideal_holds decides; one that fails raises InternalInvariantBroken.
    """
    bound = max_order()
    if s.order > bound:
        raise OrderTooLarge(f"order {s.order} exceeds bound {bound}")
    mode = "exhaustive" if s.order <= EXHAUSTIVE_BOUND else "closure"
    n, add = s.order, s.add.op
    images = _ideal_images(s)
    gens: list[int] = []
    least = _close(add, _mask(s.idempotents), images, gens=gens)
    principal = _principal_ideals(add, least, gens, images)
    members = {p: _elements(p) for p in principal}
    if mode == "exhaustive":
        masks = []

        def search(x: int, inc: int, exc: int) -> None:
            # inc is an ideal; decide the elements x, x+1, ... not in inc
            while x < n and inc >> x & 1:
                x += 1
            if x == n:
                masks.append(inc)
                return
            nxt = _sum_mask(add, inc, _elements(inc), members[principal[x]])
            if not nxt & exc:
                search(x + 1, nxt, exc)
            search(x + 1, inc, exc | 1 << x)

        try:
            search(0, least, 0)
        finally:
            del search  # it holds itself through its cell
    else:
        masks, seen = [least], {least}
        for i in masks:
            mem = _elements(i)
            for p, pmem in members.items():
                if p & ~i:
                    j = _sum_mask(add, i, mem, pmem)
                    if j not in seen:
                        seen.add(j)
                        masks.append(j)
    found = sorted((frozenset(_elements(m)) for m in masks), key=lambda x: (len(x), sorted(x)))
    if any(_ideal_failure(s, ideal)[0] is not None for ideal in found):
        raise InternalInvariantBroken(f"{mode} candidate is not an ideal")
    return IdealEnumeration(tuple(found), mode)


@dataclass(frozen=True)
class IdealDecomposition:
    locals_: tuple[frozenset, ...]


def ideal_decomposition(s: DualWeakBrace, ideal) -> IdealDecomposition:
    """Slice an ideal along the components; each slice is an ideal of its
    component and the connecting homs respect the slices."""
    ideal = frozenset(ideal)
    _require_ideal(s, ideal)
    members = s.component_members()
    rank = {a: i for comp in members for i, a in enumerate(comp)}
    out = []
    for alpha, comp in enumerate(members):
        part = frozenset(rank[a] for a in comp if a in ideal)
        out.append(part)
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
