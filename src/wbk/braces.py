"""Skew braces and dual weak braces as twin tables on one element set.

A skew brace pairs two group tables sharing an identity; a dual weak brace
pairs two Clifford tables sharing their idempotents.  Both satisfy
a*(b+c) = a*b - a + a*c; dual weak braces additionally satisfy
a*a' = -a + a, which ties the two notions of "loss of invertibility"
together.  Derived maps (lam, rho, dot, commutators) live here as cached
tables, built from translated rows and columns (see tables._codec).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import InternalInvariantBroken, ValidationError
from .tables import (
    CliffordTable,
    FiniteGroupTable,
    SemilatticeTable,
    _centre,
    _codec,
    _gather,
    _induced,
    _least_row_failure,
    clifford_of_group,
    validate_clifford,
    validate_group,
    validate_semilattice,
)


@dataclass(frozen=True)
class SkewBrace:
    add: FiniteGroupTable
    mul: FiniteGroupTable

    @property
    def order(self) -> int:
        return self.add.order

    def as_dual(self) -> "DualWeakBrace":
        """Reinterpret as a dual weak brace with a one-point semilattice.

        The result keeps self as its skew: decompose returns the one-point
        decomposition with self as the component instead of rebuilding and
        revalidating the tables self was validated from.
        """
        n = self.order
        return DualWeakBrace(
            clifford_of_group(self.add),
            clifford_of_group(self.mul),
            (self.add.identity,),
            (0,) * n,
            skew=self,
        )

    def is_brace(self) -> bool:
        return self.add.is_abelian()


@dataclass(frozen=True)
class DualWeakBrace:
    add: CliffordTable
    mul: CliffordTable
    idempotents: tuple[int, ...]
    component_of: tuple[int, ...]
    # the skew brace this structure was built from by SkewBrace.as_dual, on
    # the same tables; None for every other construction; not part of ==
    skew: SkewBrace | None = field(default=None, compare=False, repr=False)

    @property
    def order(self) -> int:
        return self.add.order

    # -- element operations -------------------------------------------------

    def plus(self, a: int, b: int) -> int:
        return self.add.op[a][b]

    def times(self, a: int, b: int) -> int:
        return self.mul.op[a][b]

    def neg(self, a: int) -> int:
        return self.add.inv[a]

    def minv(self, a: int) -> int:
        return self.mul.inv[a]

    def lam(self, a: int, b: int) -> int:
        return self._lam[a][b]

    def rho(self, b: int, a: int) -> int:
        return self._rho[b][a]

    def dot(self, a: int, b: int) -> int:
        return self._dot[a][b]

    def add_commutator(self, a: int, b: int) -> int:
        return self._add_commutator[a][b]

    def zero_part(self, a: int) -> int:
        return self.add.zero_of(a)

    # -- derived tables: built on first use and kept; list rows, never mutated

    @cached_property
    def _lam(self) -> list[list[int]]:
        """[a][b] = lam_a(b) = -a + a*b: row a of * by row -a of +."""
        enc, tr, _, pad = _codec(self.order)
        aop, neg = self.add.op, self.add.inv
        return [list(tr(enc(row), pad(enc(aop[neg[a]])))) for a, row in enumerate(self.mul.op)]

    @cached_property
    def _rho(self) -> list[list[int]]:
        """[b][a] = rho_b(a) = (lam_a(b))' * a * b, inverse in mul: row b is rho_b.

        p(a, b) = (lam_a(b))' * a is row a of lam by x -> x' * a (the
        inverses by column a of *), and row b is column b of p by column b
        of *.
        """
        n = self.order
        enc, tr, cat, pad = _codec(n)
        flat = cat([enc(row) for row in self.mul.op])
        cols = [pad(flat[c::n]) for c in range(n)]
        minv = enc(self.mul.inv)
        p = cat([tr(enc(row), pad(tr(minv, col))) for row, col in zip(self._lam, cols)])
        return [list(tr(p[b::n], cols[b])) for b in range(n)]

    @cached_property
    def _dot(self) -> list[list[int]]:
        """[a][b] = a.b = -a + a*b - b = lam_a(b) - b: column b is column b
        of lam by column -b of +."""
        n, neg = self.order, self.add.inv
        enc, tr, cat, pad = _codec(n)
        lam, add = (cat([enc(row) for row in tab]) for tab in (self._lam, self.add.op))
        t = cat([tr(lam[b::n], pad(add[neg[b]::n])) for b in range(n)])  # column-major
        return [list(t[a::n]) for a in range(n)]

    @cached_property
    def _add_commutator(self) -> list[list[int]]:
        """[a][b] = [a,b]+ = -a - b + a + b = -a + (-b + a + b), as + is
        associative: k(b, a) = -b + a + b is row -b of + by column b of +,
        and row a is column a of k by row -a of +."""
        n, neg = self.order, self.add.inv
        enc, tr, cat, pad = _codec(n)
        rows = [enc(row) for row in self.add.op]
        flat = cat(rows)
        k = cat([tr(rows[neg[b]], pad(flat[b::n])) for b in range(n)])
        return [list(tr(k[a::n], pad(rows[neg[a]]))) for a in range(n)]

    @cached_property
    def _ideal_maps(self) -> tuple[list, list]:
        """(maps, add rows): the translate tables the ideal laws are read
        from (see ideals._ideal_holds), in the encoding tables._codec gives
        the order at first use, each padded.

        maps are the distinct maps among i -> -i, i -> lam_g(i) and
        i -> g' * i * g for g in mul.gens (row g of * by row -g of +, row
        g' of * by column g of *), and i -> -g + i + g for g in add.gens
        (row -g of + by column g of +).  The rows are those of +.
        """
        n, add, mul = self.order, self.add, self.mul
        enc, tr, cat, pad = _codec(n)
        arows, mrows = [enc(row) for row in add.op], [enc(row) for row in mul.op]
        aflat, mflat = cat(arows), cat(mrows)
        maps = [enc(add.inv)]
        for g in mul.gens:
            maps.append(tr(mrows[g], pad(arows[add.inv[g]])))
            maps.append(tr(mrows[mul.inv[g]], pad(mflat[g::n])))
        maps.extend(tr(arows[add.inv[g]], pad(aflat[g::n])) for g in add.gens)
        return [pad(m) for m in dict.fromkeys(maps)], [pad(r) for r in arows]

    # -- structure-level helpers --------------------------------------------

    def is_skew(self) -> bool:
        return len(self.idempotents) == 1

    def is_brace(self) -> bool:
        return self.is_skew() and len(_centre(self.add.op)) == self.order

    def semilattice(self) -> SemilatticeTable:
        """Meet table of the idempotents, indexed by component."""
        idx = {e: i for i, e in enumerate(self.idempotents)}
        return validate_semilattice(_induced(self.add.op, self.idempotents, idx))

    def component_members(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.idempotents]
        for a in range(self.order):
            out[self.component_of[a]].append(a)
        return tuple(tuple(m) for m in out)

    def opposite(self) -> "DualWeakBrace":
        """Same mul, transposed add; always a dual weak brace again."""
        try:
            return validate_dual_weak_brace(self.add.transpose().op, self.mul.op)
        except ValidationError as err:
            raise InternalInvariantBroken(f"opposite failed validation: {err}") from err


def _check_compatibility(add: CliffordTable, mul: CliffordTable) -> None:
    """Raise at the least (a, b, c) with a*(b+c) != a*b - a + a*c, checking
    b in add.gens only.

    + is associative here (both validators check it first), and then
    Q = {b : a*(b+c) = a*b - a + a*c for all a, c} is closed under +: for
    b, b' in Q, a*((b+b')+c) = a*(b+(b'+c)) = a*b - a + a*b' - a + a*c
    = a*(b+b') - a + a*c.  So Q is everything once it holds a generating
    set of (S, +).  A group's gens may leave out the shared identity e,
    which is in Q: a*(e+c) = a*c = a*e - a + a*c.

    For each b in add.gens both sides over (a, c) are n rows (see _codec):
    row b of + by row a of *, against row a of * by row a*b - a of +,
    joined and compared once.  Only after a mismatch are the rows scanned
    for the least witness.
    """
    aop, mop, neg, n = add.op, mul.op, add.inv, add.order
    enc, tr, cat, pad = _codec(n)
    arows, mrows = [enc(row) for row in aop], [enc(row) for row in mop]
    apads, mpads, mflat = [pad(row) for row in arows], [pad(row) for row in mrows], cat(mrows)

    def holds(b: int) -> bool:
        lhs = cat([tr(arows[b], p) for p in mpads])
        return lhs == cat([tr(mrows[a], apads[aop[x][neg[a]]]) for a, x in enumerate(mflat[b::n])])

    if all(map(holds, add.gens)):
        return
    gather_add = [_gather(row) for row in aop]
    gather_mul = [_gather(row) for row in mop]

    def rows(a: int, b: int) -> tuple:
        # c -> a*(b+c) and c -> (a*b - a) + a*c
        return (gather_add[b](mop[a]),), (gather_mul[a](aop[aop[mop[a][b]][neg[a]]]),)

    bad = _least_row_failure(n, rows)
    if bad is None:
        raise InternalInvariantBroken("compatibility kernel rejects a table pair the row scan accepts")
    raise ValidationError("compatibility", bad)


def _validate_sides(validate, add_raw, mul_raw) -> tuple:
    """Validate each table, tagging a failure with the side it came from.
    A mul table with the entries of add, of the same types (1.0 and True
    are not 1), is not validated again: both sides get the one object."""
    out = []
    for side, raw in (("add", add_raw), ("mul", mul_raw)):
        if out and raw == add_raw and [[*map(type, r)] for r in raw] == [[*map(type, r)] for r in add_raw]:
            return out[0], out[0]
        try:
            out.append(validate(raw))
        except ValidationError as err:
            raise ValidationError(err.law, err.witness, side=side) from None
    return tuple(out)


def validate_skew_brace(add_raw, mul_raw) -> SkewBrace:
    """Validate both group tables, the shared identity, and compatibility."""
    add, mul = _validate_sides(validate_group, add_raw, mul_raw)
    if add.order != mul.order:
        raise ValidationError("order_mismatch", (add.order, mul.order))
    if add.identity != mul.identity:
        raise ValidationError("identity_mismatch", (add.identity, mul.identity))
    _check_compatibility(clifford_of_group(add), clifford_of_group(mul))
    return SkewBrace(add, mul)


def validate_dual_weak_brace(add_raw, mul_raw) -> DualWeakBrace:
    """Validate both Clifford tables, idempotent agreement, compatibility,
    and a*a' = -a + a; fill the component map from zero parts."""
    add, mul = _validate_sides(validate_clifford, add_raw, mul_raw)
    if add.order != mul.order:
        raise ValidationError("order_mismatch", (add.order, mul.order))
    if add.idempotents != mul.idempotents:
        diff = set(add.idempotents) ^ set(mul.idempotents)
        raise ValidationError("idempotent_set_mismatch", tuple(sorted(diff)))
    n = add.order
    # cheap axiom first: a*a' must be the shared zero part -a + a = a + -a
    for a in range(n):
        circ = mul.op[a][mul.inv[a]]
        if circ != add.op[add.inv[a]][a] or circ != add.op[a][add.inv[a]]:
            raise ValidationError("second_axiom", (a,))
    _check_compatibility(add, mul)
    comp_idx = {e: i for i, e in enumerate(add.idempotents)}
    component_of = tuple(comp_idx[add.zero_of(a)] for a in range(n))
    return DualWeakBrace(add, mul, add.idempotents, component_of)


def trivial_brace(g: FiniteGroupTable) -> SkewBrace:
    """The skew brace with add = mul = g (always compatible)."""
    return SkewBrace(g, g)


def relabel(s: DualWeakBrace, perm: tuple[int, ...]) -> DualWeakBrace:
    """Transport s along a bijection old-index -> new-index and revalidate."""
    n, perm = s.order, tuple(perm)
    if len(perm) != n or set(perm) != set(range(n)) or any(type(v) is not int for v in perm):
        raise ValueError(f"not a permutation of range({n}): {perm!r}")
    inverse = sorted(range(n), key=perm.__getitem__)
    add, mul = _induced(s.add.op, inverse, perm), _induced(s.mul.op, inverse, perm)
    return validate_dual_weak_brace(add, mul)
