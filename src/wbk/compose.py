"""Strong semilattices of skew braces: build, take apart, compare.

compose glues disjoint skew braces along a semilattice of index-lowering
homomorphisms; decompose recovers that data from any dual weak brace.
Global element order is always (semilattice index, local index).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import cache
from itertools import tee

from .braces import DualWeakBrace, SkewBrace, validate_dual_weak_brace, validate_skew_brace
from .errors import InternalInvariantBroken, ValidationError
from .tables import (
    SemilatticeTable,
    _first_non_hom,
    _glue,
    _hom_test,
    _induced,
    _iter_group_homs,
    _validate_hom_system,
    validate_semilattice,
)


@dataclass(frozen=True)
class StrongSemilatticeSpec:
    """A semilattice y, one skew brace per y-element, and connecting homs
    for every comparable pair (alpha, beta) with alpha > beta."""

    y: SemilatticeTable
    braces: tuple[SkewBrace, ...]
    homs: dict

    def hom(self, alpha: int, beta: int) -> tuple[int, ...]:
        if alpha == beta:
            return tuple(range(self.braces[alpha].order))
        return self.homs[(alpha, beta)]


def validate_spec(y_raw, braces_raw, homs_raw) -> StrongSemilatticeSpec:
    """Validate the semilattice, each brace, each hom, and transitivity.

    braces_raw: sequence of (add, mul) raw tables or SkewBrace, indexed by
    y-element.  homs_raw: map (alpha, beta) -> image tuple for alpha > beta.
    """
    y = y_raw if isinstance(y_raw, SemilatticeTable) else validate_semilattice(y_raw)
    braces = tuple(
        b if isinstance(b, SkewBrace) else validate_skew_brace(*b) for b in braces_raw
    )

    def check(alpha: int, beta: int, f) -> None:
        a, b = braces[alpha], braces[beta]
        bad = _first_non_hom(f, ((a.add.op, b.add.op), (a.mul.op, b.mul.op)))
        if bad is not None:
            raise ValidationError("not_a_hom", ((alpha, beta), bad[:2]))

    homs = _validate_hom_system(y, [b.order for b in braces], homs_raw, check)
    return StrongSemilatticeSpec(y, braces, homs)


def compose(spec: StrongSemilatticeSpec) -> DualWeakBrace:
    """Glue the components into one dual weak brace on the disjoint union."""
    comps = spec.braces
    orders = [c.order for c in comps]
    add = _glue(spec.y, orders, spec.homs, [c.add.op for c in comps])
    mul = _glue(spec.y, orders, spec.homs, [c.mul.op for c in comps])
    s = validate_dual_weak_brace(add, mul)
    if len(s.idempotents) != spec.y.size:
        raise InternalInvariantBroken("composed structure has wrong idempotent count")
    if s.semilattice().meet != spec.y.meet:
        raise InternalInvariantBroken("composed idempotents do not reproduce the semilattice")
    return s


def decompose(s: DualWeakBrace) -> StrongSemilatticeSpec:
    """Recover the semilattice, components, and connecting homs from s.

    Components are the zero-part fibers; the hom toward a lower component
    is a |-> a + e (cross-checked against a * e).  Each component's tables
    are rebuilt and validated again as a skew brace, a cross-check of the
    structure theorem.  A skew brace is its own decomposition: when s was
    built by SkewBrace.as_dual and still has that brace's tables, the
    result is the one-point semilattice with s.skew as its one component,
    which the rebuild would only revalidate.
    """
    b = s.skew
    if b is not None and s.add.op is b.add.op and s.mul.op is b.mul.op:
        return StrongSemilatticeSpec(SemilatticeTable(1, ((0,),)), (b,), {})
    y = s.semilattice()
    members = s.component_members()
    rank = {a: i for comp in members for i, a in enumerate(comp)}

    braces = []  # raw (add, mul) tables, validated by validate_spec
    for comp in members:
        local = {a: i for i, a in enumerate(comp)}
        try:
            braces.append((_induced(s.add.op, comp, local), _induced(s.mul.op, comp, local)))
        except KeyError:
            raise InternalInvariantBroken("component not closed under operation") from None

    homs = {}
    for alpha, beta in y.comparable_pairs():
        e = s.idempotents[beta]
        img = []
        for a in members[alpha]:
            v = s.add.op[a][e]
            if v != s.mul.op[a][e]:
                raise InternalInvariantBroken("a + e and a * e disagree on a comparable pair")
            img.append(rank[v])
        homs[(alpha, beta)] = tuple(img)
    try:
        return validate_spec(y, braces, homs)
    except ValidationError as err:
        raise InternalInvariantBroken(f"rebuilt components or homs fail validation: {err}") from err


def _brace_homs(a: SkewBrace, b: SkewBrace, injective: bool = False):
    """The brace homs a -> b (injective ones only, with injective), lazily
    and in lexicographic order: the homs of one group of a into the same
    group of b that also carry the other table.  The search runs on the
    group of a with fewer greedy generators (∘ on a tie), since each
    generator is one level of candidates, and filters by the other; both
    streams are in lexicographic order, so the choice cannot change the
    stream.

    When + is ∘ on both sides (every trivial brace) there is nothing to
    filter: the hom search has already checked each map on that table pair.
    """
    if a.add.op == a.mul.op and b.add.op == b.mul.op:
        return _iter_group_homs(a.mul, b.mul, injective)
    sides = [(a.mul, b.mul), (a.add, b.add)]
    if len(a.add.gens) < len(a.mul.gens):
        sides.reverse()
    (src, dst), (kept, kept_dst) = sides
    return filter(_hom_test(kept.op, kept_dst.op), _iter_group_homs(src, dst, injective))


def enumerate_skew_brace_homs(a: SkewBrace, b: SkewBrace) -> list[tuple[int, ...]]:
    """All maps preserving both tables, sorted lexicographically."""
    return list(_brace_homs(a, b))


@dataclass(frozen=True)
class IsomorphismWitness:
    eta: tuple[int, ...]
    thetas: tuple[tuple[int, ...], ...]
    global_map: tuple[int, ...]


def are_isomorphic(s: DualWeakBrace, t: DualWeakBrace) -> IsomorphismWitness | None:
    """Search for a structure isomorphism; None when none exists.

    One backtracking search assigns eta(0), eta(1), ... and then theta_0,
    theta_1, ..., each in increasing order, and returns the first witness.
    eta(a) = b is kept when components a and b have equal invariants (order,
    both exponents, both abelian flags) and eta keeps and reflects >= against
    the elements already assigned; for a bijection of finite meet-semilattices
    that is the same as preserving meets.  Each theta comes from its
    component's brace isomorphisms, generated lazily in lexicographic order
    with non-injective partial maps pruned, and must close its commuting
    squares.  The worst case stays exponential: when Y has many automorphisms
    and only the connecting homs differ, each automorphism is tried.

    Both structures are taken apart by decompose, so a skew brace from
    SkewBrace.as_dual is its own one-component decomposition.  The assembled
    global map is checked in full on both table pairs by _first_non_hom,
    whose row kernel decides at every order.
    """
    if s.order != t.order or len(s.idempotents) != len(t.idempotents):
        return None
    ds, dt = decompose(s), decompose(t)
    inv_s, inv_t = ([(b.order, b.mul.exponent(), b.add.exponent(), b.add.is_abelian(),
                      b.mul.is_abelian()) for b in d.braces] for d in (ds, dt))
    if sorted(inv_s) != sorted(inv_t):
        return None
    k = ds.y.size
    # ge[a][b]: (a >= b, b >= a) in Y
    ge_s, ge_t = ([[(m[a][b] == b, m[a][b] == a) for b in range(k)] for a in range(k)]
                  for m in (ds.y.meet, dt.y.meet))

    @cache
    def isos(alpha: int, beta: int):
        # every brace isomorphism B_alpha -> B'_beta, in lexicographic order,
        # searched only as far as some copy of this unread iterator reads
        return tee(_brace_homs(ds.braces[alpha], dt.braces[beta], injective=True), 1)[0]

    # squares[c]: the comparable pairs (hi, lo) with max(hi, lo) = c
    squares = [[(a, b) for a, b in ds.y.comparable_pairs() if max(a, b) == c] for c in range(k)]

    def compatible(eta: tuple, thetas: tuple) -> bool:
        # the last theta closes every square it is part of:
        # theta_lo . phi_{hi,lo} = phi'_{eta hi, eta lo} . theta_hi
        for hi, lo in squares[len(thetas) - 1]:
            q, low = dt.hom(eta[hi], eta[lo]), thetas[lo]
            if any(low[px] != q[tx] for px, tx in zip(ds.hom(hi, lo), thetas[hi])):
                return False
        return True

    def search(eta: tuple, thetas: tuple) -> tuple | None:
        a = len(eta)
        if a < k:
            steps = ((eta + (b,), thetas) for b in range(k) if inv_s[a] == inv_t[b] and b not in eta
                     and all(ge_s[a][j] == ge_t[b][c] for j, c in enumerate(eta)))
        elif len(thetas) < k:
            exts = (thetas + (th,) for th in copy(isos(len(thetas), eta[len(thetas)])))
            steps = ((eta, ext) for ext in exts if compatible(eta, ext))
        else:
            return eta, thetas
        for step in steps:
            hit = search(*step)
            if hit is not None:
                return hit
        return None

    try:
        hit = search((), ())
    finally:
        del search  # it holds itself through its cell
    if hit is None:
        return None
    eta, thetas = hit
    mem_s, mem_t = s.component_members(), t.component_members()
    g = [0] * s.order
    for alpha, theta in enumerate(thetas):
        for i, a in enumerate(mem_s[alpha]):
            g[a] = mem_t[eta[alpha]][theta[i]]
    if len(set(g)) != s.order:
        raise InternalInvariantBroken("assembled isomorphism is not a bijection")
    if _first_non_hom(g, ((s.add.op, t.add.op), (s.mul.op, t.mul.op))) is not None:
        raise InternalInvariantBroken("assembled isomorphism fails on a pair")
    return IsomorphismWitness(eta, thetas, tuple(g))
