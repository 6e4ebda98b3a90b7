"""Set-theoretic solution tables and their identities.

r(a,b) = (lam_a(b), rho_b(a)) turns every dual weak brace into a map on
pairs; the checks here verify the braid identity, the pseudo-inverse
relations against the opposite structure, regularity of the derived maps,
and power periodicity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm
from operator import getitem

from .braces import DualWeakBrace
from .errors import InternalInvariantBroken, NoPeriod, ValidationError
from .tables import SemilatticeTable, _codec, _first_non_hom, _gather, _glue, _least_row_failure, _validate_hom_system


@dataclass(frozen=True)
class SolutionTable:
    order: int
    pairs: tuple[tuple[tuple[int, int], ...], ...]

    def apply(self, a: int, b: int) -> tuple[int, int]:
        return self.pairs[a][b]


def solution_table(order: int, fn) -> SolutionTable:
    return SolutionTable(
        order, tuple(tuple(fn(a, b) for b in range(order)) for a in range(order))
    )


def solution_of(s: DualWeakBrace) -> SolutionTable:
    """r(a, b) = (lam_a(b), rho_b(a)): row a pairs lam row a with rho column a."""
    return SolutionTable(s.order, tuple(tuple(zip(lr, rc)) for lr, rc in zip(s._lam, zip(*s._rho))))


def identity_solution(n: int) -> SolutionTable:
    return solution_table(n, lambda a, b: (a, b))


def compose_solutions(r2: SolutionTable, r1: SolutionTable) -> SolutionTable:
    """(r2 after r1) as maps on pairs."""
    p = r2.pairs
    return SolutionTable(r1.order, tuple(tuple(p[u][v] for u, v in row) for row in r1.pairs))


def _split(r: SolutionTable) -> tuple[list, list]:
    """The tables L and R of r(x, y) = (L[x][y], R[x][y]), as tuple rows:
    each row of pairs is unzipped once."""
    lam, rho = [], []
    for row in r.pairs:
        u, v = zip(*row)
        lam.append(u)
        rho.append(v)
    return lam, rho


def _representatives(own, other) -> list[int]:
    """The least x of each class of x -> (own[x], own[t[x]] for each
    distinct map t in other), in increasing order.

    own and other list n maps on {0, ..., n-1}, each a tuple or bytes.
    With own the rows of L and other the columns of R this is the class of
    sig (see _braid_holds), and with the two swapped that of sig'.
    """
    ids: dict = {}
    cls = [ids.setdefault(m, len(ids)) for m in own]  # own[x] by its first x
    sigs = zip(cls, *(map(cls.__getitem__, t) for t in dict.fromkeys(other)))
    first: dict = {}
    for x, sig in enumerate(sigs):
        first.setdefault(sig, x)
    return list(first.values())


def _braid_holds(lam, rho) -> bool:
    """Whether r(x, y) = (L[x][y], R[x][y]) = (lam[x][y], rho[x][y]) satisfies
    the braid identity on all n^3 triples.

    Write σ_x = L[x] for the rows and τ_y = R[.][y] for the columns, so
    that r(x, y) = (σ_x(y), τ_y(x)).  With (u, v) = r(a, b),
    (w, z) = r(b, c) and q = τ_w(a), the triple (a, b, c) goes to
    (σ_u σ_v(c), τ_{σ_v(c)}(u), τ_c(v)) on the left and
    (σ_a(w), σ_q(z), τ_z(q)) on the right.  For each b:
    - coordinate 1, σ_u σ_v = σ_a σ_b, sees a only through σ_a and
      σ_{τ_b(a)}, as u = σ_a(b) and v = τ_b(a);
    - coordinate 3, τ_c τ_b = τ_z τ_w as maps of a, sees c only through
      τ_c and τ_{σ_b(c)}, as w = σ_b(c) and z = τ_c(b);
    - coordinate 2 sees a through σ_a, σ_{τ_b(a)} and σ_{τ_w(a)}, and c
      through τ_c, τ_{σ_b(c)} and τ_{σ_v(c)}.
    So a enters only through sig(a) = (σ_a, σ_{t(a)} for each distinct
    map t among the τ_y) and c only through sig'(c) = (τ_c, τ_{s(c)} for
    each distinct map s among the σ_x).  The identity holds on every
    triple exactly when, for every b, coordinate 1 holds for a in R_a,
    coordinate 3 for c in R_c and coordinate 2 for both, with R_a and R_c
    the least element of each class of sig and of sig' (_representatives).

    Each side of each coordinate is then one translate of a row or a
    column of L or R by another: coordinate 1 as rows over c per (a, b),
    one slab per a in R_a; coordinate 3 as columns over a per (b, c), c in
    R_c; coordinate 2 as rows over c in R_c per a in R_a on the left and
    columns over a in R_a per c in R_c on the right, compared after
    transposing the columns with |R_a| strided slices.  That is
    O(n (|R_a| + |R_c|)) translates, one slab of O(n^2) entries at a time.
    Rows and columns are encoded by tables._codec: bytes up to
    tables.BYTES_BOUND and tuples above it.
    """
    n = len(lam)
    enc, tr, cat, pad = _codec(n)
    rows_l, rows_r = [enc(t) for t in lam], [enc(t) for t in rho]
    flat_l, flat_r = cat(rows_l), cat(rows_r)
    cols_l, cols_r = [flat_l[c::n] for c in range(n)], [flat_r[c::n] for c in range(n)]
    ra, rc = _representatives(rows_l, cols_r), _representatives(cols_r, rows_l)
    at_a, at_c, k = _gather(ra), _gather(rc), len(ra)
    rows_lc, cols_ra = [enc(at_c(t)) for t in rows_l], [enc(at_a(t)) for t in cols_r]
    by_l, by_r, by_col_l, by_col_r = ([pad(t) for t in tab] for tab in (rows_l, rows_r, cols_l, cols_r))
    for a in ra:
        # 1, rows over c per (a, b): L[v] by L[u] against L[b] by L[a]
        if cat([tr(rows_l[v], by_l[u]) for u, v in zip(lam[a], rho[a])]) != tr(flat_l, by_l[a]):
            return False
    for b in range(n):
        row = list(zip(at_c(lam[b]), at_c(rho[b])))  # r(b, c) over c in R_c
        # 3, columns over a per (b, c): R column b by R column c against
        # R column w by R column z
        lhs = cat([tr(cols_r[b], by_col_r[c]) for c in rc])
        if lhs != cat([tr(cols_r[w], by_col_r[z]) for w, z in row]):
            return False
        # 2, rows over c in R_c per (a, b) on the left, (u, v) = r(a, b);
        # columns over a in R_a per (b, c) on the right, transposed
        lhs = cat([tr(rows_lc[v], by_r[u]) for u, v in zip(at_a(cols_l[b]), at_a(cols_r[b]))])
        rhs = cat([tr(cols_ra[w], by_col_l[z]) for w, z in row])
        if lhs != cat([rhs[i::k] for i in range(k)]):
            return False
    return True


def check_braid(r: SolutionTable) -> tuple[int, int, int] | None:
    """Least triple violating the braid identity, or None when it holds.

    r12 r23 r12 = r23 r12 r23 is decided on all n^3 triples by _braid_holds,
    at every order.  Only once it fails does _least_row_failure compare
    three rows over c per (a, b), one per coordinate, in lexicographic
    order, for the least witness.  With r(x, y) = (L[x][y], R[x][y]) and
    (u, v) = r(a, b), the left side at (a, b, c) is
    (L[u][L[v][c]], R[u][L[v][c]], R[v][c]) and the right side, with
    q = R[a][L[b][c]], is (L[a][L[b][c]], L[q][R[b][c]], R[q][R[b][c]]).
    """
    n = r.order
    lam, rho = _split(r)
    if _braid_holds(lam, rho):
        return None
    after = [_gather(row) for row in lam]  # after[y](f) = c -> f[L[y][c]]

    def rows(a: int, b: int) -> tuple:
        u, v = r.pairs[a][b]
        q = _gather(after[b](rho[a]))  # q(rows) = c -> rows[R[a][L[b][c]]]
        lhs = (after[v](lam[u]), after[v](rho[u]), rho[v])
        rhs = (
            after[b](lam[a]),
            tuple(map(getitem, q(lam), rho[b])),
            tuple(map(getitem, q(rho), rho[b])),
        )
        return lhs, rhs

    bad = _least_row_failure(n, rows)
    if bad is None:
        raise InternalInvariantBroken("braid kernel rejects a solution the row scan accepts")
    return bad


def is_bijective(r: SolutionTable) -> bool:
    return len({p for row in r.pairs for p in row}) == r.order * r.order


@dataclass(frozen=True)
class WeakInverseReport:
    holds: bool
    r_sandwich: bool        # r r_op r == r
    rop_sandwich: bool      # r_op r r_op == r_op
    commute: bool           # r r_op == r_op r
    r_bijective: bool
    inverse_pair: bool | None   # r r_op == id, only checked when |E(S)| == 1


def check_weak_inverses(s: DualWeakBrace) -> WeakInverseReport:
    """Relations between r and the solution of the opposite structure."""
    r = solution_of(s)
    rop = solution_of(s.opposite())
    r_rop = compose_solutions(r, rop)
    rop_r = compose_solutions(rop, r)
    r_sandwich = compose_solutions(r, rop_r) == r
    rop_sandwich = compose_solutions(rop, r_rop) == rop
    commute = r_rop == rop_r
    inverse_pair = None
    if s.is_skew():
        inverse_pair = r_rop == identity_solution(s.order)
    holds = r_sandwich and rop_sandwich and commute and (inverse_pair is not False)
    return WeakInverseReport(holds, r_sandwich, rop_sandwich, commute, is_bijective(r), inverse_pair)


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    witness: tuple | None
    lambda_bijective: tuple[bool, ...]
    rho_bijective: tuple[bool, ...]


def check_regularity(s: DualWeakBrace) -> RegularityReport:
    """Pointwise f f' f = f, f' f f' = f', f f' = f' f for every lam_a and
    rho_a, with f' the map of the mul-inverse element.  Bijectivity of each
    map is reported as a diagnostic only.

    Each composite is one translate (see tables._codec): f after g is g
    translated by f.  The witness is the first failure by a, then lambda
    before rho, then the laws in the order above.
    """
    n = s.order
    enc, tr, _, pad = _codec(n)
    maps = {name: [enc(row) for row in rows] for name, rows in (("lambda", s._lam), ("rho", s._rho))}

    def first_failure():
        for a, ai in enumerate(s.mul.inv):
            for name, rows in maps.items():
                f, g = rows[a], rows[ai]
                fg, gf = tr(g, pad(f)), tr(f, pad(g))
                if tr(f, pad(fg)) != f:
                    return (name, "sandwich", a)
                if tr(g, pad(gf)) != g:
                    return (name, "sandwich_inv", a)
                if fg != gf:
                    return (name, "commute", a)
        return None

    witness = first_failure()
    lam_bij = tuple(len(set(row)) == n for row in s._lam)
    rho_bij = tuple(len(set(row)) == n for row in s._rho)
    return RegularityReport(witness is None, witness, lam_bij, rho_bij)


def period(r: SolutionTable) -> int:
    """Smallest p >= 1 with r^(p+1) == r; NoPeriod if r never recurs.

    r is a map on the n² pairs.  r^a(x) = r^b(x), a < b, exactly when a is
    at least x's tail (its steps into a cycle) and x's cycle length divides
    b - a.  So the powers first repeat at r^j = r^(j+c), with j the longest
    tail (at least 1) and c the lcm of the cycle lengths, and r recurs when
    j = 1.  The longest tail is the number of rounds that peel off the
    pairs left without a preimage; the pairs that stay are the cycles, each
    walked once.  Both take O(n²) steps, whatever the period.
    """
    n = r.order
    succ = [u * n + v for row in r.pairs for u, v in row]
    indeg = Counter(succ)  # per pair, its preimages not yet peeled off
    layer, tail = set(range(n * n)).difference(indeg), 0
    while layer:
        tail += 1
        nxt = []
        for t in map(succ.__getitem__, layer):
            indeg[t] -= 1
            if not indeg[t]:
                nxt.append(t)
        layer = nxt
    lengths, seen = set(), bytearray(n * n)
    for x, d in indeg.items():
        if d and not seen[x]:  # x lies on a cycle not yet walked
            y, k = succ[x], 1
            while y != x:
                seen[y] = 1
                y, k = succ[y], k + 1
            lengths.add(k)
    if tail <= 1:
        return lcm(*lengths)
    raise NoPeriod(tail=tail - 1, cycle=lcm(*lengths))


def strong_semilattice_of_solutions(
    y: SemilatticeTable,
    solutions: tuple[SolutionTable, ...],
    maps: dict,
) -> SolutionTable:
    """Glue component solutions along equivariant index-lowering maps.

    maps: (alpha, beta) -> image tuple for alpha > beta.  The maps are
    checked like the connecting homs of a strong semilattice of skew braces:
    per comparable pair presence, shape, then equivariance; then maps for no
    comparable pair (unexpected_hom); then transitive composition.
    """
    split = [_split(r) for r in solutions]

    def equivariant(alpha: int, beta: int, f) -> None:
        # f carries r_alpha to r_beta exactly when it carries both L and R
        bad = _first_non_hom(f, tuple(zip(split[alpha], split[beta])))
        if bad is not None:
            raise ValidationError("equivariance", (alpha, beta, *bad[:2]))

    orders = [r.order for r in solutions]
    homs = _validate_hom_system(y, orders, maps, equivariant)

    def cell(off: int, gamma: int, i: int, j: int) -> tuple[int, int]:
        u, v = solutions[gamma].pairs[i][j]
        return (off + u, off + v)

    rows = _glue(y, orders, homs, cell)
    return SolutionTable(len(rows), tuple(tuple(row) for row in rows))
