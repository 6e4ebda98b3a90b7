"""Nilpotency series: right, socle, annihilator (upper), gamma (lower).

Each series runs until it hits its target set or repeats; the report keeps
the whole chain, whether it terminated, and the index (first chain position
of the target).  Elementwise socle/annihilator steps are cross-checked
against the quotient-based definition at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial

from .braces import DualWeakBrace
from .compose import decompose
from .errors import InternalInvariantBroken, NotAnnihilatorSeries
from .ideals import (
    _require_ideal,
    _sum_of_ideals,
    annihilator,
    generated_full_inverse_subsemigroup,
    is_ideal,
    product_set,
    quotient,
    socle,
)


@dataclass(frozen=True)
class SeriesReport:
    kind: str  # right | socle | annihilator-upper | gamma-lower
    chain: tuple[frozenset, ...]
    terminated: bool
    index: int | None


def _run(kind: str, start: frozenset, target: frozenset, step) -> SeriesReport:
    """Iterate step from start until it reaches target or repeats; the chain
    ascends when start is below target and descends otherwise."""
    ascending = start < target
    chain = [start]
    while chain[-1] != target:
        nxt = step(chain[-1])
        if nxt == chain[-1]:
            break
        if not (chain[-1] <= nxt if ascending else nxt <= chain[-1]):
            raise InternalInvariantBroken(
                f"{kind} series is not {'ascending' if ascending else 'descending'}"
            )
        chain.append(nxt)
    terminated = chain[-1] == target
    index = chain.index(target) if terminated else None
    return SeriesReport(kind, tuple(chain), terminated, index)


def right_series(s: DualWeakBrace) -> SeriesReport:
    """S(1) = S, S(n+1) = S(n).S; chain position m holds S(m+1)."""
    full = frozenset(range(s.order))
    return _run("right", full, frozenset(s.idempotents), lambda prev: product_set(s, prev, full))


def _socle_step(s: DualWeakBrace, prev: frozenset, use_right_dots: bool) -> frozenset:
    """The a whose dot row and commutator row lie in prev and, with
    use_right_dots, whose dot column does too."""
    dot, comm = s._dot, s._add_commutator
    keep = [a for a in range(s.order) if prev.issuperset(dot[a]) and prev.issuperset(comm[a])]
    if use_right_dots:
        keep = [a for a in keep if prev.issuperset(row[a] for row in dot)]
    return frozenset(keep)


def _quotients(s: DualWeakBrace):
    """A memo ideal -> quotient(s, ideal), shared by the series of one call."""
    return cache(partial(quotient, s))


def _quotient_pullback(s: DualWeakBrace, prev: frozenset, special, quotients) -> frozenset:
    """The members of s that the projection onto s/prev sends into special of
    the quotient; quotients is a _quotients(s) memo."""
    q = quotients(prev)
    marked = special(q.quotient)
    return frozenset(a for a in range(s.order) if q.projection[a] in marked)


def _upper_series(s: DualWeakBrace, two_sided: bool, quotients) -> SeriesReport:
    """Ascend from E(S) by the elementwise socle step (annihilator step when
    two_sided), cross-checked at every step against the pullback of Soc (Ann)
    of the quotient by the previous member."""
    kind, special, noun = (
        ("annihilator-upper", annihilator, "annihilator") if two_sided else ("socle", socle, "socle")
    )

    def step(prev: frozenset) -> frozenset:
        elementwise = _socle_step(s, prev, two_sided)
        if elementwise != _quotient_pullback(s, prev, special, quotients):
            raise InternalInvariantBroken(f"{noun} step: elementwise and quotient forms differ")
        return elementwise

    return _run(kind, frozenset(s.idempotents), frozenset(range(s.order)), step)


def socle_series(s: DualWeakBrace) -> SeriesReport:
    """Soc_0 = E(S); Soc_n pulls back Soc of the quotient by Soc_{n-1}."""
    return _upper_series(s, False, _quotients(s))


def annihilator_series(s: DualWeakBrace) -> SeriesReport:
    """Ann_0 = E(S); Ann_k adds two-sided dots and commutators into Ann_{k-1}."""
    return _upper_series(s, True, _quotients(s))


def gamma_step(s: DualWeakBrace, prev: frozenset) -> frozenset:
    """prev.S + S.prev + [prev, S]+, closed once: the closure of a union of
    closures is the closure of the union of their generators, so the dots
    both ways and the commutators are gathered raw and closed together."""
    dot, comm = s._dot, s._add_commutator
    gens = set().union(*(dot[a] for a in prev), *(comm[a] for a in prev))
    gens.update(row[a] for row in dot for a in prev)
    return generated_full_inverse_subsemigroup(s, gens)


def gamma_series(s: DualWeakBrace, start=None) -> SeriesReport:
    """Gamma_0 = start (default S); Gamma_k closes dots both ways plus
    commutators against the whole structure."""
    if start is None:
        start = frozenset(range(s.order))
    start = frozenset(start)
    _require_ideal(s, start)
    return _run("gamma-lower", start, frozenset(s.idempotents), lambda prev: gamma_step(s, prev))


@dataclass(frozen=True)
class SandwichReport:
    ok: bool
    chain: tuple[frozenset, ...]
    annihilator_chain: tuple[frozenset, ...]
    gamma_chain: tuple[frozenset, ...]


def verify_sandwich(s: DualWeakBrace, chain) -> SandwichReport:
    """Given an annihilator series, check Gamma_{k-j} <= I_j <= Ann_j for all j,
    plus the consecutive-step and sum identities behind the theorem.  The
    chain's pullbacks share the _quotients(s) memo that builds Ann."""
    quotients = _quotients(s)
    ann = _upper_series(s, True, quotients)
    chain = tuple(frozenset(x) for x in chain)
    full = frozenset(range(s.order))
    target = frozenset(s.idempotents)
    if not chain or chain[0] != target:
        raise NotAnnihilatorSeries(0, ("must_start_at_idempotents",))
    if chain[-1] != full:
        raise NotAnnihilatorSeries(len(chain) - 1, ("must_end_at_full_set",))
    for j, member in enumerate(chain):
        chk = is_ideal(s, member)
        if not chk:
            raise NotAnnihilatorSeries(j, (chk.law, chk.witness))
        if j and not chain[j - 1] <= member:
            raise NotAnnihilatorSeries(j, ("not_ascending",))
    for j in range(len(chain) - 1):
        outside = chain[j + 1] - _quotient_pullback(s, chain[j], annihilator, quotients)
        if outside:
            raise NotAnnihilatorSeries(j, (min(outside),))
        # chain[:j + 2] is an annihilator series prefix, so it lies below Ann's
        if not chain[j + 1] <= ann.chain[min(j + 1, len(ann.chain) - 1)]:
            raise InternalInvariantBroken("upper bound of the sandwich fails")
    return _sandwich(s, chain, ann)


def _sandwich(s: DualWeakBrace, chain: tuple[frozenset, ...], ann: SeriesReport) -> SandwichReport:
    """verify_sandwich's theorem checks on chain, an annihilator series of
    s, with ann the annihilator series of s.  The sum of two members is a
    member again, so the memo tests each for an ideal once."""
    gam = gamma_series(s)
    if not (ann.terminated and gam.terminated):
        raise InternalInvariantBroken(
            "a valid annihilator series exists but a canonical series stalls"
        )
    k = len(chain) - 1
    for j in range(k + 1):
        if not gam.chain[min(k - j, len(gam.chain) - 1)] <= chain[j]:
            raise InternalInvariantBroken("lower bound of the sandwich fails")
    ideal = cache(partial(is_ideal, s))
    step = cache(partial(gamma_step, s))
    for j in range(k):
        if not step(chain[j + 1]) <= chain[j]:
            raise InternalInvariantBroken("one-step gamma containment fails")
    for i in range(k + 1):
        for j in range(k + 1):
            lhs = step(_sum_of_ideals(s, chain[i], chain[j], ideal))
            rhs = frozenset(s.plus(a, b) for a in step(chain[i]) for b in step(chain[j]))
            if lhs != rhs:
                raise InternalInvariantBroken("gamma of a sum differs from sum of gammas")
    return SandwichReport(True, chain, ann.chain, gam.chain)


@dataclass(frozen=True)
class Classification:
    """Series of a structure and, for a dual weak brace, of each component;
    a component is itself a Classification with no components."""

    order: int
    idempotent_count: int
    is_skew: bool
    is_brace: bool
    right: SeriesReport
    socle: SeriesReport
    annihilator: SeriesReport
    gamma: SeriesReport
    components: tuple["Classification", ...]


def _classify_one(s: DualWeakBrace) -> Classification:
    quotients = _quotients(s)
    r = right_series(s)
    so = _upper_series(s, False, quotients)
    an = _upper_series(s, True, quotients)
    ga = gamma_series(s)
    if so.terminated:
        if not r.terminated or r.index > so.index:
            raise InternalInvariantBroken("socle-nilpotent structure fails right-index bound")
    if an.terminated != ga.terminated:
        raise InternalInvariantBroken("upper and lower annihilator series disagree")
    if an.terminated and an.index != ga.index:
        raise InternalInvariantBroken("upper and lower annihilator indices differ")
    return Classification(
        s.order, len(s.idempotents), s.is_skew(), s.is_brace(), r, so, an, ga, ()
    )


def classify(s: DualWeakBrace) -> Classification:
    """Series on s and on every component, with the index relations asserted.

    Each distinct structure is classified once: a skew brace is its own
    single component, and equal components share one Classification."""
    classify_one = cache(_classify_one)
    top = classify_one(s)
    comps = [classify_one(b.as_dual()) for b in decompose(s).braces]
    for noun in ("socle", "annihilator"):
        whole, parts = getattr(top, noun), [getattr(c, noun) for c in comps]
        if whole.terminated:
            idx = [p.index for p in parts]
            if any(i is None for i in idx) or max(idx) != whole.index:
                raise InternalInvariantBroken(f"{noun} index is not the component maximum")
        if all(p.terminated for p in parts):
            if not whole.terminated or whole.index != max(p.index for p in parts):
                raise InternalInvariantBroken(f"component {noun} indices do not assemble")
    return replace(top, components=tuple(comps))
