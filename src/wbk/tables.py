"""Finite operation tables: groups, meet-semilattices, Clifford semigroups.

Structures live on {0, ..., n-1} and are given as dense row-major tables.
Validation is exhaustive and eager; a failure reports the first violated
axiom with the lexicographically smallest witness tuple.  The whole-table
checks walk whole rows in C (see _codec); their per-entry scans run only
once a row pass fails, to name that witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from operator import countOf, itemgetter, methodcaller

from .errors import InternalInvariantBroken, ValidationError

# the largest order whose elements fit in one byte: up to it the row
# kernels (see _codec), the hom search (its extension steps and checks,
# _iter_group_homs) and the check of each map it yields (_hom_test) run on
# bytes with bytes.translate; above it the row kernels run the same loops
# on tuples, the search the same plan on lists, and _hom_test scans
# elementwise.  Read at call time.
BYTES_BOUND = 256


# row -> row as a bytes.translate table (values past its end go to 0)
_pad = methodcaller("ljust", 256, b"\0")


def _cat_tuples(parts) -> tuple:
    return tuple(chain.from_iterable(parts))


def _codec(n: int) -> tuple:
    """How the row kernels encode the rows of a table of order n: (enc,
    tr, cat, pad), with tr(seq, pad(row)) the row[v] for v in seq.

    Up to BYTES_BOUND a row is bytes, tr is bytes.translate, cat joins and
    pad makes a 256-byte translate table; above it a row is a tuple, tr is
    _map_through, cat chains, and pad is tuple, which returns a tuple row
    itself.  Either way a column c of the joined rows is flat[c::n].
    """
    if n > BYTES_BOUND:
        return tuple, _map_through, _cat_tuples, tuple
    return bytes, bytes.translate, b"".join, _pad


def _frozen_table(raw) -> tuple[tuple[int, ...], ...]:
    """Shape- and range-check a raw table, freezing it to nested tuples.

    A row of n plain ints in range(n) passes on C-level calls: a count of
    its entries of exact type int, then, up to BYTES_BOUND, bytes(row) with
    the bytes of range(n) deleted, which is empty exactly then (bytes()
    raises on an entry outside range(256)); above it min and max.  Any
    other row gets the per-entry scan, which names the least witness, or
    passes the row when its odd entries are int subclasses other than bool
    (an IntEnum, say).
    """
    n = len(raw)
    if n == 0:
        raise ValidationError("not_closed", ())
    small = n <= BYTES_BOUND
    valid = bytes(range(n)) if small else None
    rows = []
    for a, row in enumerate(raw):
        row = tuple(row)
        if len(row) != n:
            raise ValidationError("not_closed", (a,))
        try:
            plain = countOf(map(type, row), int) == n and (
                not bytes(row).translate(None, valid) if small else min(row) >= 0 and max(row) < n
            )
        except ValueError:  # from bytes(): an entry outside range(256)
            plain = False
        if not plain:
            for b, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise ValidationError("not_closed", (a, b))
        rows.append(row)
    return tuple(rows)


def _gather(idx):
    """The map row -> tuple(row[i] for i in idx), one C call for two or more i."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda row: tuple(row[i] for i in idx)


def _least_row_failure(n: int, rows) -> tuple[int, int, int] | None:
    """Least (a, b, c) at which the two sides of a law differ, or None.

    rows(a, b) gives both sides of a law in three variables as equal-length
    tuples of rows over c, one row per coordinate of the law's value; the
    sides differ at c when any coordinate does.  Every (a, b) is scanned in
    lexicographic order: the row kernels run this only once they reject,
    to name the least witness.
    """
    for a, b in product(range(n), repeat=2):
        lhs, rhs = rows(a, b)
        if lhs != rhs:
            return (a, b, next(c for c in range(n) if any(x[c] != y[c] for x, y in zip(lhs, rhs))))
    return None


def _first_nonassoc(op, gens) -> tuple[int, int, int] | None:
    """Least (a, b, c) with (ab)c != a(bc), or None (Light's test on gens,
    a generating set of (S, op) such as _generators(op)).

    K = {b : (ab)c = a(bc) for all a, c} is closed under op: for b, b' in K,
    (a(bb'))c = ((ab)b')c = (ab)(b'c) = a(b(b'c)) = a((bb')c).  So K is the
    whole table once it holds a generating set of (S, op).

    For each b in gens both sides over (a, c) are n rows (see _codec): row
    ab of op against row b translated by row a, joined and compared once.
    Only after a mismatch are the rows scanned for the least witness.
    """
    n = len(op)
    enc, tr, cat, pad = _codec(n)
    rows = [enc(row) for row in op]
    flat, pads = cat(rows), [pad(row) for row in rows]
    if all(cat(map(rows.__getitem__, flat[b::n])) == cat([tr(rows[b], p) for p in pads]) for b in gens):
        return None
    gather = [_gather(row) for row in op]
    bad = _least_row_failure(n, lambda a, b: ((op[op[a][b]],), (gather[b](op[a]),)))
    if bad is None:
        raise InternalInvariantBroken("associativity kernel rejects a table the row scan accepts")
    return bad


def _centre(op) -> frozenset:
    """Elements whose row equals their column in the frozen (tuple-row)
    table op: the a with ab = ba for every b."""
    return frozenset(a for a, (row, col) in enumerate(zip(op, zip(*op))) if row == col)


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group: Cayley table, identity, inverses, greedy generators."""

    order: int
    op: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]
    # greedy generators over the identity (see _generators); not part of ==
    gens: tuple[int, ...] = field(compare=False, repr=False)

    def exponent(self) -> int:
        """lcm of all element orders, in one walk: only the powers of an
        element that no earlier walk reached are walked, and each is marked
        reached.  The order of a power of a divides the order of a, so
        skipping a reached element cannot change the lcm."""
        from math import lcm

        out, reached = 1, bytearray(self.order)
        for a in range(self.order):
            if reached[a]:
                continue
            k, x = 1, a
            while x != self.identity:
                reached[x] = 1
                x = self.op[x][a]
                k += 1
            out = lcm(out, k)
        return out

    def is_abelian(self) -> bool:
        return len(_centre(self.op)) == self.order


@dataclass(frozen=True)
class SemilatticeTable:
    """A meet-semilattice; alpha >= beta means meet(alpha, beta) == beta."""

    size: int
    meet: tuple[tuple[int, ...], ...]

    def ge(self, a: int, b: int) -> bool:
        return self.meet[a][b] == b

    def comparable_pairs(self) -> list[tuple[int, int]]:
        """All (alpha, beta) with alpha >= beta and alpha != beta."""
        return [
            (a, b)
            for a in range(self.size)
            for b in range(self.size)
            if a != b and self.ge(a, b)
        ]


def _validate_hom_system(y: SemilatticeTable, orders, maps, check_pair) -> dict:
    """Check connecting maps over y and return them frozen, keyed (alpha, beta).

    orders: component orders indexed by y-element.  maps: (alpha, beta) ->
    image sequence for every alpha > beta.  check_pair(alpha, beta, f) raises
    when a well-shaped map fails the caller's structure law.  Failures come
    in this order: component count, then per pair presence, shape and the
    caller's check, then maps for no comparable pair, then transitivity.
    """
    if len(orders) != y.size:
        raise ValidationError("component_count_mismatch", (len(orders), y.size))
    homs: dict = {}
    for alpha, beta in y.comparable_pairs():
        if (alpha, beta) not in maps:
            raise ValidationError("missing_hom", (alpha, beta))
        f = tuple(maps[(alpha, beta)])
        if len(f) != orders[alpha] or not all(type(v) is int and 0 <= v < orders[beta] for v in f):
            raise ValidationError("not_a_hom", ((alpha, beta), None))
        check_pair(alpha, beta, f)
        homs[(alpha, beta)] = f
    for key in maps:
        if key not in homs:
            raise ValidationError("unexpected_hom", tuple(key))
    for alpha, beta in y.comparable_pairs():
        for gamma in range(y.size):
            if gamma != beta and gamma != alpha and y.ge(beta, gamma):
                fab, fbg, fag = homs[(alpha, beta)], homs[(beta, gamma)], homs[(alpha, gamma)]
                for x in range(orders[alpha]):
                    if fbg[fab[x]] != fag[x]:
                        raise ValidationError("composition", (alpha, beta, gamma, x))
    return homs


def _glue(y: SemilatticeTable, orders, homs: dict, cell) -> list[list]:
    """Table of the strong semilattice on the disjoint union of components.

    Global element order is (y-index, local index).  The entry for a in
    component alpha and b in component beta is cell(off, gamma, i, j), with
    gamma = alpha meet beta, off its first global index, and i, j the local
    indices of a and b mapped down into gamma along homs.
    """
    offs, owner = [], []
    for alpha, m in enumerate(orders):
        offs.append(len(owner))
        owner.extend((alpha, i) for i in range(m))
    rows = []
    for alpha, i in owner:
        row = []
        meet = y.meet[alpha]
        for beta, j in owner:
            gamma = meet[beta]
            gi = i if gamma == alpha else homs[(alpha, gamma)][i]
            gj = j if gamma == beta else homs[(beta, gamma)][j]
            row.append(cell(offs[gamma], gamma, gi, gj))
        rows.append(row)
    return rows


def _first_non_hom(f, pairs) -> tuple[int, int, int] | None:
    """Least (x, y, k) with f[src[x][y]] != dst[f[x]][f[y]], (src, dst) = pairs[k].

    Least is lexicographic in (x, y), ties going to the lower k; None when f
    carries every src table into its dst table.
    """
    best = None
    for k, (src, dst) in enumerate(pairs):
        for x, fx in enumerate(f):
            if best is not None and x > best[0]:
                break  # no later row of this table can beat best
            row, img = src[x], dst[fx]
            for y, fy in enumerate(f):
                if f[row[y]] != img[fy]:
                    break
            else:
                continue  # row x holds no failure
            if best is None or (x, y) < best[:2]:
                best = (x, y, k)
            break
    return best


def _hom_test(src, dst):
    """holds(f): whether f[src[x][y]] == dst[f[x]][f[y]] for every (x, y),
    i.e. _first_non_hom(f, ((src, dst),)) is None.  With both orders at most
    BYTES_BOUND the pair is encoded once as bytes, and each map costs
    min(n, m) + 1 translates and one compare: src by f, and f by each row of
    dst (by row f[x] for every x when dst has as many rows as src or more);
    larger tables are scanned.
    """
    if max(len(src), len(dst)) > BYTES_BOUND:
        return lambda f: _first_non_hom(f, ((src, dst),)) is None
    flat = bytes(chain.from_iterable(src))
    pads = [bytes(row).ljust(256, b"\0") for row in dst]
    few = len(dst) < len(src)

    def holds(f) -> bool:
        fb = bytes(f)
        if few:
            rows = map(list(map(fb.translate, pads)).__getitem__, f)
        else:
            rows = map(fb.translate, map(pads.__getitem__, f))
        return flat.translate(fb.ljust(256, b"\0")) == b"".join(rows)

    return holds


def _induced(op, elems, label) -> list[list]:
    """Table of op restricted to elems, entries renamed through label."""
    return [[label[op[a][b]] for b in elems] for a in elems]


@dataclass(frozen=True)
class CliffordTable:
    """A Clifford semigroup: inverse semigroup with a a' = a' a for all a."""

    order: int
    op: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    idempotents: tuple[int, ...]
    # greedy generators (see _generators); not part of ==
    gens: tuple[int, ...] = field(compare=False, repr=False)

    def zero_of(self, a: int) -> int:
        """The idempotent a a' of a's group component."""
        return self.op[a][self.inv[a]]

    def transpose(self) -> "CliffordTable":
        # an associative table and its transpose generate the same
        # subsemigroups (a word read backwards), so the greedy set is shared
        t = tuple(tuple(self.op[b][a] for b in range(self.order)) for a in range(self.order))
        return CliffordTable(self.order, t, self.inv, self.idempotents, self.gens)


def _inverses(op, ident: int) -> list[int]:
    """Per a, the least x with ax = e = xa; raise no_inverse (a,) at the
    first a without one.  Row a is searched for e with row.index, and each
    hit x is kept only when column a holds e at x too."""
    inv = []
    for a, row in enumerate(op):
        try:
            x = row.index(ident)
            while op[x][a] != ident:
                x = row.index(ident, x + 1)
        except ValueError:
            raise ValidationError("no_inverse", (a,)) from None
        inv.append(x)
    return inv


def validate_group(raw) -> FiniteGroupTable:
    """Check closure, identity, inverses, associativity; raise on first failure."""
    op = _frozen_table(raw)
    n = len(op)
    ident = next(
        (e for e in range(n) if all(op[e][x] == x and op[x][e] == x for x in range(n))),
        None,
    )
    if ident is None:
        raise ValidationError("no_identity")
    inv = _inverses(op, ident)
    # Light's test may skip the identity: e is in K, since (ae)c = ac = a(ec)
    gens = tuple(_generators(op, 1 << ident))
    bad = _first_nonassoc(op, gens)
    if bad is not None:
        raise ValidationError("not_associative", bad)
    return FiniteGroupTable(n, op, ident, tuple(inv), gens)


def validate_semilattice(raw) -> SemilatticeTable:
    """Check idempotency, commutativity, associativity of a meet table."""
    meet = _frozen_table(raw)
    n = len(meet)
    for a in range(n):
        if meet[a][a] != a:
            raise ValidationError("not_idempotent", (a,))
    for a in range(n):
        for b in range(a + 1, n):
            if meet[a][b] != meet[b][a]:
                raise ValidationError("not_commutative", (a, b))
    bad = _first_nonassoc(meet, _generators(meet))
    if bad is not None:
        raise ValidationError("not_associative", bad)
    return SemilatticeTable(n, meet)


def _pseudo_inverse_scan(op, a: int) -> list[int]:
    """Every x with (ax)a = a and (xa)x = x, scanning all x."""
    return [x for x in range(len(op)) if op[op[a][x]][a] == a and op[op[x][a]][x] == x]


def _pseudo_inverses(op) -> list[int]:
    """Per a, its one x with (ax)a = a and (xa)x = x; raise not_inverse
    (a,) at the first a with none or several.

    Row a translated by column a (see _codec) is x -> (ax)a.  When a occurs
    there once, at x, and (xa)x = x, then x is the one pseudo-inverse.
    Otherwise _pseudo_inverse_scan decides; it can find exactly one x only
    when a occurs twice or more.
    """
    n = len(op)
    enc, tr, cat, pad = _codec(n)
    rows = [enc(row) for row in op]
    flat, inv = cat(rows), []
    for a, row in enumerate(rows):
        t = tr(row, pad(flat[a::n]))
        k = t.count(a)
        x = t.index(a) if k == 1 else None
        if x is None or op[op[x][a]][x] != x:
            cands = _pseudo_inverse_scan(op, a)
            if len(cands) != 1:
                raise ValidationError("not_inverse", (a,))
            if k < 2:
                raise InternalInvariantBroken("pseudo-inverse kernel rejects an element the scan accepts")
            x = cands[0]
        inv.append(x)
    return inv


def validate_clifford(raw) -> CliffordTable:
    """Check associativity, unique pseudo-inverses, and a a' = a' a."""
    op = _frozen_table(raw)
    n = len(op)
    gens = tuple(_generators(op))
    bad = _first_nonassoc(op, gens)
    if bad is not None:
        raise ValidationError("not_associative", bad)
    inv = _pseudo_inverses(op)
    for a in range(n):
        if op[a][inv[a]] != op[inv[a]][a]:
            raise ValidationError("not_clifford", (a,))
    idems = tuple(e for e in range(n) if op[e][e] == e)
    return CliffordTable(n, op, tuple(inv), idems, gens)


def clifford_of_group(g: FiniteGroupTable) -> CliffordTable:
    # a group is Clifford with E = {identity}; no re-validation needed
    return CliffordTable(g.order, g.op, g.inv, (g.identity,), g.gens)


def _mask(elems) -> int:
    """The bitmask of a set of element indices."""
    return sum(1 << a for a in set(elems))


def _elements(mask: int) -> list[int]:
    """The element indices of a bitmask, in increasing order."""
    return [a for a, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _close(op, seed: int, unary=None, done: int = 0, gens=None) -> int:
    """Least superset of the bitmask seed closed under op and, when given,
    under unary: unary[x] is the bitmask of x's unary images.

    done is a part of seed that is already closed, and gens a list that
    generates it under op (every member of done when None).  The members
    of seed outside done, and every element that enters as a unary image,
    are new generators: they are appended to gens, so that on return gens
    generates the closure.

    The closure multiplies on the right by generators only, the idea of
    Dimino's algorithm: each new member by every generator, and every
    earlier member by each new generator, for |closure|·|gens| table reads
    in place of |closure|².  It reaches the least set holding seed that is
    closed under x -> x·g for every g in gens and under unary.  On an
    associative table the right products of gens are every product of
    them, so this is the least superset closed under op.  On any other
    table the set lies inside the closure under op in both orders, and
    when it is the whole table, gens generate the table under op.
    """
    members = _elements(done)  # multiplied by every generator so far
    gens = list(members) if gens is None else gens
    reach = seed | done
    arrivals = _elements(seed & ~done)  # generators not yet in gens
    seen = bytearray(len(op))
    for x in members + arrivals:
        seen[x] = 1
    work: list[int] = []  # members not yet multiplied by the generators
    while arrivals or work:
        if arrivals:
            g = arrivals.pop()
            gens.append(g)
            work.append(g)
            products = map(itemgetter(g), map(op.__getitem__, members))
        else:
            x = work.pop()
            members.append(x)
            products = map(op[x].__getitem__, gens)
            images = 0 if unary is None else unary[x] & ~reach
            if images:
                reach |= images
                for t in _elements(images):
                    seen[t] = 1
                    arrivals.append(t)
        for t in products:
            if not seen[t]:
                seen[t] = 1
                work.append(t)
                reach |= 1 << t
    return reach


def _generators(op, reach: int = 0) -> list[int]:
    """Greedy generators of the table op over the closed bitmask reach:
    repeatedly adjoin the least element not yet reached.

    Each gens[i] is the least element outside the closure of reach and
    gens[:i], so every element below gens[i] lies in that closure.  The
    members of reach count as its generators.  On a table not yet known to
    be associative the closures reach right products only (see _close), but
    the loop runs until they reach every element, so gens still generate
    the table under op, as Light's test needs.
    """
    span = _elements(reach)
    start = len(span)
    while reach != (1 << len(op)) - 1:
        x = (~reach & (reach + 1)).bit_length() - 1  # least bit not set
        reach = _close(op, reach | 1 << x, done=reach, gens=span)
    return span[start:]


def generating_set(g: FiniteGroupTable) -> list[int]:
    """g.gens: greedy generators over the identity (see _generators)."""
    return list(g.gens)


def _plan_slots(a: FiniteGroupTable) -> tuple[list[int], list[tuple]]:
    """The hom search's plan, in one breadth-first walk: (slot, levels).

    Level i adjoins gens[i] to <gens[:i]>.  It walks each old member by
    gens[i], then each new member, in the order it is reached, by gens[0],
    ..., gens[i]: every edge x -> x·gens[j] with x in <gens[:i+1]>, j <= i,
    that no earlier level holds.  An edge to an element not yet reached
    gives that element the next slot (slot[t] is the slot of element t), so
    the identity has slot 0, level i fills one contiguous slice and
    <gens[:i+1]> is slots [0, count).  levels[i] is (steps, checks, count):
    - a step (r0, r1, j, parents) fills slots r0..r1-1, slot s with its
      parent's value times gens[j].  A tuple of parents, all in slots
      before r0, is a run: consecutive new slots that share j.  An int
      parent is a chain: it is the parent of r0, and each later slot's
      parent is the slot before it (a single new slot is a chain of one);
    - a check (j, xs, ts) says x·gens[j] = t for the slots x, t in zip(xs,
      ts): every other edge of the level, grouped by j.
    """
    op, gens = a.op, a.gens
    slot: list = [None] * a.order
    slot[a.identity] = 0
    members = [a.identity]  # members[s] is the element in slot s
    levels = []
    for i in range(len(gens)):
        steps = []  # [r0, r1, j, parents]: a list for a run or one entry, an int for a chain
        edges = [([], []) for _ in range(i + 1)]
        old = len(members)
        for p, x in enumerate(members):  # members grows while it is read
            row = op[x]
            for j in (i,) if p < old else range(i + 1):
                t = row[gens[j]]
                if slot[t] is not None:
                    edges[j][0].append(p)
                    edges[j][1].append(slot[t])
                    continue
                r = slot[t] = len(members)
                members.append(t)
                last = steps[-1] if steps and steps[-1][2] == j else None
                if last and type(last[3]) is list and p < last[0]:
                    last[3].append(p)
                elif last and (type(last[3]) is int or len(last[3]) == 1):
                    # here p == r - 1 (p < r as slot p exists): last
                    # ends at slot r - 1, and either it is that one slot and
                    # p >= r - 1 as the run branch failed, or it is a chain
                    # and slot r - 1 came from parent r - 2 by this j;
                    # parents come in slot order and walk each j once, so
                    # p > r - 2
                    last[3] = last[3][0] if type(last[3]) is list else last[3]
                else:
                    last = [r, r, j, [p]]
                    steps.append(last)
                last[1] = r + 1
        levels.append((
            [(r0, r1, j, ps if type(ps) is int else ps[0] if len(ps) == 1 else tuple(ps)) for r0, r1, j, ps in steps],
            [(j, tuple(xs), tuple(ts)) for j, (xs, ts) in enumerate(edges) if xs],
            len(members),
        ))
    return slot, levels


def _map_through(seq, col) -> tuple:
    """tuple(col[v] for v in seq): seq.translate(col) for the list plan and
    the tuple row kernels.  A fresh itemgetter is faster than a map over
    col.__getitem__ from two entries up."""
    return _gather(seq)(col)


def _iter_group_homs(a: FiniteGroupTable, b: FiniteGroupTable, injective: bool = False):
    """Yield the homomorphisms a -> b as image tuples, in lexicographic order.

    Backtracks over the images of a.gens, trying each image in increasing
    order.  Assigning gens[i] extends the map from <gens[:i]> to
    <gens[:i+1]> along the steps of level i of _plan_slots, held in fp by
    slot; the extension survives exactly when every check of the level
    holds, i.e. when it is a hom there.  A leaf reads the map back through
    the plan's slot of each element.  Every element below gens[i] lies
    in <gens[:i]>, so the tuples come out in lexicographic order.  With
    injective, an extension that repeats an image is dropped.

    With both orders at most BYTES_BOUND, fp is a 256-byte table: a run
    is two bytes.translate calls (its parent slots by fp, then by b's
    column of the image of gens[j]) and a check group three.  Larger
    orders run the same loop on a list, gathering with itemgetter.  Chains
    and single checks index scalars, and every yielded map is checked in
    full by _hom_test.
    """
    aop, bop = a.op, b.op
    slot, levels = _plan_slots(a)
    if max(a.order, b.order) > BYTES_BOUND:
        fp, tr, enc, cols = [0] * a.order, _map_through, _gather, list(zip(*bop))
    else:
        fp, tr, enc = bytearray(256), bytes.translate, lambda idx: bytes(idx).translate
        cols = [bytes(col).ljust(256, b"\0") for col in zip(*bop)]
    plan = []
    for steps, checks, count in levels:
        steps = [(r0, r1, j, ps if type(ps) is int else enc(ps)) for r0, r1, j, ps in steps]
        singles = [(j, xs[0], ts[0]) for j, xs, ts in checks if len(xs) == 1]
        groups = [(j, enc(xs), enc(ts)) for j, xs, ts in checks if len(xs) > 1]
        plan.append((steps, singles, groups, count))
    unplan = enc(slot)
    fp[0] = b.identity
    chosen: list = [None] * len(plan)  # b's column of the image of each gens[j]

    def extend(i: int) -> bool:
        # level i's slots are all rewritten here, so a failed try needs no undo
        steps, singles, groups, count = plan[i]
        for r0, r1, j, src in steps:
            col = chosen[j]
            if type(src) is int:
                v = fp[src]
                for s in range(r0, r1):
                    v = fp[s] = col[v]
            else:
                fp[r0:r1] = tr(src(fp), col)
        for j, x, t in singles:
            if chosen[j][fp[x]] != fp[t]:
                return False
        for j, xs, ts in groups:
            if tr(xs(fp), chosen[j]) != ts(fp):
                return False
        return not injective or len(set(fp[:count])) == count

    holds = _hom_test(aop, bop)

    def leaf() -> tuple:
        hom = unplan(fp)
        if not holds(hom):
            bad = _first_non_hom(hom, ((aop, bop),))
            if bad is None:
                raise InternalInvariantBroken("bytes hom test rejects a hom the scan accepts")
            raise InternalInvariantBroken(f"hom closure produced a non-hom at {bad[:2]}")
        return tuple(hom)

    last = len(plan) - 1

    def search(i: int):
        for col in cols:  # the images of gens[i] in increasing order
            chosen[i] = col
            if extend(i):
                if i == last:
                    yield leaf()
                else:
                    yield from search(i + 1)

    try:
        yield from search(0) if plan else (leaf(),)
    finally:
        del search  # it holds itself through its cell; also on an abandoned stream


def enumerate_group_homs(a: FiniteGroupTable, b: FiniteGroupTable) -> list[tuple[int, ...]]:
    """All homomorphisms a -> b, as image tuples, sorted lexicographically.

    The whole search runs; the order comes from the search itself (see
    _iter_group_homs).
    """
    return list(_iter_group_homs(a, b))
