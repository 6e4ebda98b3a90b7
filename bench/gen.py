"""Seeded inputs for the wbk benchmark.

`build(workload, seed, workdir, blocks)` writes JSON structure files into
`workdir` and returns the job list as blocks of `Job`s.  Each job is one
`wbk` command line plus the answer the oracle expects for it.  The same
seed gives byte-identical files and the same jobs.  The tables and the
expected answers come from this file's own arithmetic, never from `wbk`.

The seed fixes sizes, relabelling permutations, corruption positions and
job order.  A block is a balanced slice of the workload: every (command,
family) cell appears in it, with sizes drawn from each family's range one
per stratum, so that any run of whole blocks has the same mix of cheap and
expensive jobs whatever the seed.  Each block also runs the workload's most
expensive job TOP_REPEATS times.  A run of at least four blocks then has
more than ten samples of it, so `job_tail_s` (the job time with ten
samples beyond it) always reads that job and never flips between sizes
from run to run.
"""

from __future__ import annotations

import json
import os
import random
from math import gcd
from typing import NamedTuple

WORKLOADS = ("verify", "lattice", "search")
TOP_REPEATS = 3


class Job(NamedTuple):
    argv: tuple
    expect: dict


# -- tables -----------------------------------------------------------------


def cyclic(n: int) -> list:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def exotic(n: int) -> list:
    """a∘b = a + (-1)^a b on Z_n, n even: a brace whose ∘-group is dihedral."""
    return [[(a + (b if a % 2 == 0 else -b)) % n for b in range(n)] for a in range(n)]


def xor(k: int) -> list:
    n = 1 << k
    return [[a ^ b for b in range(n)] for a in range(n)]


def skew_brace(add: list, mul: list) -> dict:
    return {"kind": "skew_brace", "order": len(add), "add": add, "mul": mul}


def dual_weak_brace(add: list, mul: list) -> dict:
    return {"kind": "dual_weak_brace", "order": len(add), "add": add, "mul": mul}


def chain_spec(orders: tuple) -> dict:
    """Exotic Z_o components on a chain (0 on top), joined by x ↦ x mod o.

    Reduction mod an even divisor keeps the parity of x, so it preserves
    both + and ∘, and reductions compose along the chain.
    """
    k = len(orders)
    return {
        "kind": "strong_semilattice",
        "semilattice": {
            "kind": "semilattice",
            "size": k,
            "meet": [[max(a, b) for b in range(k)] for a in range(k)],
        },
        "braces": {str(i): skew_brace(cyclic(o), exotic(o)) for i, o in enumerate(orders)},
        "homs": {
            f"{a}>{b}": [x % orders[b] for x in range(orders[a])]
            for a in range(k)
            for b in range(a + 1, k)
        },
    }


def compose_chain(orders: tuple) -> tuple[list, list]:
    """The chain's + and ∘ on the disjoint union, component by component."""
    offs = [sum(orders[:i]) for i in range(len(orders))]
    owner = [(c, i) for c, o in enumerate(orders) for i in range(o)]
    n = len(owner)
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a, (ca, i) in enumerate(owner):
        for b, (cb, j) in enumerate(owner):
            g = max(ca, cb)
            o = orders[g]
            x, y = i % o, j % o
            add[a][b] = offs[g] + (x + y) % o
            mul[a][b] = offs[g] + (x + (y if x % 2 == 0 else -y)) % o
    return add, mul


def relabel(add: list, mul: list, perm: list) -> tuple[list, list]:
    n = len(add)
    ra = [[0] * n for _ in range(n)]
    rm = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ra[perm[a]][perm[b]] = perm[add[a][b]]
            rm[perm[a]][perm[b]] = perm[mul[a][b]]
    return ra, rm


def corrupt(obj: dict, rng: random.Random, side: str) -> dict:
    """Copy of a skew_brace or strong_semilattice with one entry of its
    `side` table changed.  Every row of a group table is a permutation, so
    the changed row repeats a value and the copy can never validate."""
    obj = json.loads(json.dumps(obj))
    target = obj
    if obj["kind"] == "strong_semilattice":
        target = obj["braces"][str(rng.randrange(len(obj["braces"])))]
    table = target[side]
    n = len(table)
    a, b = rng.randrange(n), rng.randrange(n)
    table[a][b] = (table[a][b] + rng.randrange(1, n)) % n
    return obj


# -- closed forms the oracle checks against -----------------------------------


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def ideal_count(family: str, n: int) -> int | None:
    """Ideals of the trivial brace on an abelian group are its subgroups:
    d(n) for Z_n, 16 for (Z2)^3, 67 for (Z2)^4.  For exotic Z_n they are
    the subgroups dZ_n with d even, plus Z_n itself: d(n/2) + 1."""
    if family == "trivial":
        return divisor_count(n)
    if family == "elementary":
        return {8: 16, 16: 67}[n]
    if family == "exotic":
        return divisor_count(n // 2) + 1
    return None


def socle_and_annihilator(add: list, mul: list) -> tuple[list, list]:
    """By definition: Soc = {a : a+b = a∘b = b+a for all b};
    Ann = Soc ∩ {a : a∘b = b∘a for all b}."""
    n = len(add)
    soc = [a for a in range(n) if all(add[a][b] == mul[a][b] == add[b][a] for b in range(n))]
    ann = [a for a in soc if all(mul[a][b] == mul[b][a] for b in range(n))]
    return soc, ann


# -- sampling -----------------------------------------------------------------


def stratified(rng: random.Random, values: list, m: int) -> list:
    """m draws from values (sorted by cost), one uniform draw in each of m
    equal strata, so every block spans the whole range."""
    k = len(values)
    return [values[rng.randrange(i * k // m, max((i + 1) * k // m, i * k // m + 1))] for i in range(m)]


def evenly(values: list, m: int) -> list:
    """The middle value of each of m equal strata."""
    return [values[(2 * i + 1) * len(values) // (2 * m)] for i in range(m)]


def chain_candidates(lengths: tuple, max_total: int) -> list:
    """Every chain of even orders, each a proper divisor of the one above,
    with the given component counts and at most max_total elements,
    sorted by total order."""
    out = []

    def grow(orders: list) -> None:
        if len(orders) in lengths:
            out.append(tuple(orders))
        if len(orders) == max(lengths):
            return
        last = orders[-1]
        for d in range(2, last, 2):
            if last % d == 0 and sum(orders) + d <= max_total:
                grow(orders + [d])

    for top in range(4, max_total + 1, 2):
        grow([top])
    return sorted(out, key=lambda o: (sum(o), o))


# -- files --------------------------------------------------------------------


class Files:
    """Writes each structure once; corrupted and relabelled copies get files
    of their own."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.structs: dict = {}
        self.fresh = 0

    def write(self, name: str, obj: dict) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj, separators=(",", ":")))
        return path

    def new(self, stem: str, obj: dict) -> str:
        self.fresh += 1
        return self.write(f"{stem}-{self.fresh}", obj)


class Struct(NamedTuple):
    """One input file and what is known about it independently of wbk."""

    path: str
    kind: str  # skew_brace | strong_semilattice | dual_weak_brace
    orders: tuple  # component orders, top first
    add: list  # the composed tables
    mul: list
    family: str  # exotic | trivial | elementary | chain

    @property
    def order(self) -> int:
        return sum(self.orders)

    def obj(self) -> dict:
        """The file's object, for a skew brace or a chain spec."""
        if self.kind == "strong_semilattice":
            return chain_spec(self.orders)
        return skew_brace(self.add, self.mul)


def _brace(files: Files, family: str, n: int) -> Struct:
    key = (family, n)
    if key not in files.structs:
        add, mul = {
            "exotic": lambda: (cyclic(n), exotic(n)),
            "trivial": lambda: (cyclic(n), cyclic(n)),
            "elementary": lambda: (xor(n.bit_length() - 1), xor(n.bit_length() - 1)),
        }[family]()
        path = files.write(f"{family}-{n}", skew_brace(add, mul))
        files.structs[key] = Struct(path, "skew_brace", (n,), add, mul, family)
    return files.structs[key]


def _chain(files: Files, orders: tuple, kind: str) -> Struct:
    key = (kind,) + orders
    if key not in files.structs:
        add, mul = compose_chain(orders)
        obj = chain_spec(orders) if kind == "strong_semilattice" else dual_weak_brace(add, mul)
        path = files.write(f"chain-{kind[:4]}-" + "-".join(map(str, orders)), obj)
        files.structs[key] = Struct(path, kind, orders, add, mul, "chain")
    return files.structs[key]


# -- expected answers ---------------------------------------------------------


def _verify_expect(cmd: str, s: Struct) -> dict:
    n = s.order
    if cmd == "validate":
        return {"check": "lines", "code": 0, "lines": [f"kind: {s.kind}", f"order: {n}", "valid"]}
    if cmd == "braid":
        return {"check": "lines", "code": 0, "lines": [f"{n ** 3} triples checked"]}
    if cmd == "period":
        # every component has an abelian +, so r^3 = r and r^2 != r
        return {"check": "lines", "code": 0, "lines": ["period 2"]}
    if cmd == "regularity":
        return {"check": "status", "code": 0, "status": "pass"}
    if cmd == "compose":
        offs = [sum(s.orders[:i]) for i in range(len(s.orders))]
        lines = [f"order: {n}", f"components: {len(s.orders)}", "idempotents: {" + ", ".join(map(str, offs)) + "}"]
        return {"check": "lines", "code": 0, "lines": lines, "witness": dual_weak_brace(s.add, s.mul)}
    if cmd == "decompose":
        lines = [f"components: {len(s.orders)}"]
        lines += [f"component {i}: order {o}" for i, o in enumerate(s.orders)]
        k = len(s.orders)
        lines += [
            f"hom {a}>{b}: {[x % s.orders[b] for x in range(s.orders[a])]}"
            for a in range(k)
            for b in range(a + 1, k)
        ]
        return {"check": "lines", "code": 0, "lines": lines}
    raise ValueError(cmd)


def _lattice_expect(cmd: str, s: Struct) -> dict:
    if cmd == "ideals":
        mode = "exhaustive" if s.order <= 16 else "closure"
        return {"check": "ideals", "mode": mode, "count": ideal_count(s.family, s.order)}
    if cmd in ("soc", "ann"):
        soc, ann = socle_and_annihilator(s.add, s.mul)
        return {"check": "set", "members": soc if cmd == "soc" else ann}
    return {"check": "any"}


# -- workloads ----------------------------------------------------------------

# verify: O(n^3) table scans (validation, compatibility, braid) and io
# parsing.  Exotic Z_2m up to order 64 carries the cubic scans; (Z2)^4 and
# (Z2)^5 are the non-cyclic groups; chains of 2-4 exotic components go
# through compose/decompose, the Clifford validators and glued solutions.
# A fifth of the jobs read a corrupted copy and take the validators'
# early-exit path.
VERIFY_CMDS = ("validate", "period", "regularity", "decompose")
VERIFY_EXOTIC = list(range(24, 65, 2))
VERIFY_CHAINS = chain_candidates((2, 3, 4), 48)


def _verify_block(rng: random.Random, files: Files) -> list:
    jobs = [("braid", _brace(files, "exotic", n)) for n in stratified(rng, VERIFY_EXOTIC, 10)]
    jobs += [("braid", _brace(files, "exotic", VERIFY_EXOTIC[-1]))] * TOP_REPEATS
    for cmd in VERIFY_CMDS:
        jobs += [(cmd, _brace(files, "exotic", n)) for n in stratified(rng, VERIFY_EXOTIC, 7)]
    for k in (4, 5):
        jobs += [(cmd, _brace(files, "elementary", 1 << k)) for cmd in ("braid",) + VERIFY_CMDS]
    # one command per chain: seven independent draws vary the block's cost
    # less than three chains that each run every command
    chain_cmds = (("compose", "spec"), ("validate", "spec"), ("validate", "dual"), ("braid", "spec"),
                  ("period", "dual"), ("regularity", "spec"), ("decompose", "dual"))
    chains = stratified(rng, VERIFY_CHAINS, len(chain_cmds))
    rng.shuffle(chains)
    for (cmd, form), orders in zip(chain_cmds, chains):
        jobs.append((cmd, _chain(files, orders, "strong_semilattice" if form == "spec" else "dual_weak_brace")))
    out = [Job((cmd, "--input", s.path, "--format", "json"), _verify_expect(cmd, s)) for cmd, s in jobs]
    # a fifth of the jobs read corrupted copies, half with + broken and half
    # with ∘ broken; the ∘ copies pay a full + validation before failing.
    # Their sizes are evenly spaced, not drawn, so that the block's mix of
    # job costs, and with it job_p50_s, barely depends on the seed.
    bad = [_brace(files, "exotic", n) for n in evenly(VERIFY_EXOTIC, len(jobs) // 4 - 3)]
    bad += [_chain(files, orders, "strong_semilattice") for orders in chains[:3]]
    cmds = ("validate", "braid") + VERIFY_CMDS[1:]
    for i, s in enumerate(bad):
        path = files.new("corrupt", corrupt(s.obj(), rng, ("add", "mul")[i % 2]))
        out.append(Job((cmds[i % len(cmds)], "--input", path, "--format", "json"), {"check": "violation"}))
    return out


# lattice: ideal predicates, ideal enumeration on both sides of the
# exhaustive/closure switch at order 16, and the series' quotient
# cross-checks.  Orders stay within the default WBK_MAX_ORDER of 24.
# Trivial braces have closed-form ideal counts; exotic braces and chains
# have non-trivial λ; (Z2)^4 has the most subgroups of any order-16 input.
LATTICE_CMDS = (
    ("classify",),
    ("sandwich",),
    ("series", "right"),
    ("series", "socle"),
    ("series", "ann"),
    ("series", "gamma"),
    ("soc",),
    ("ann",),
)
LATTICE_EXOTIC = list(range(8, 25, 2))
LATTICE_TRIVIAL = list(range(6, 25))
LATTICE_CHAINS = chain_candidates((2, 3), 24)


def _lattice_block(rng: random.Random, files: Files) -> list:
    jobs = []
    # ideals sweeps the exotic and trivial ranges: exhaustive enumeration
    # doubles in cost per order up to 16, so a sampled order 15 or 16 would
    # swing the block's cost; (Z2)^4 is the top job
    structs = [_brace(files, "exotic", n) for n in LATTICE_EXOTIC]
    structs += [_brace(files, "trivial", n) for n in LATTICE_TRIVIAL]
    structs += [_brace(files, "elementary", 8)] + [_brace(files, "elementary", 16)] * TOP_REPEATS
    structs += [_chain(files, o, "strong_semilattice") for o in stratified(rng, LATTICE_CHAINS, 7)]
    jobs += [(("ideals",), s) for s in structs]
    for cmd in LATTICE_CMDS:
        picks = [_brace(files, "exotic", n) for n in stratified(rng, LATTICE_EXOTIC, 3)]
        picks += [_brace(files, "trivial", n) for n in stratified(rng, LATTICE_TRIVIAL, 5)]
        picks += [_brace(files, "elementary", n) for n in (8, 16)]
        picks += [_chain(files, o, "strong_semilattice") for o in stratified(rng, LATTICE_CHAINS, 3)]
        jobs += [(cmd, s) for s in picks]
    return [
        Job(cmd + ("--input", s.path, "--format", "json"), _lattice_expect(cmd[0], s))
        for cmd, s in jobs
    ]


# search: backtracking in enumerate_group_homs and are_isomorphic.
# Relabelled copies are isomorphic and need the full search; exotic vs
# trivial Z_2m exits early on invariants; homs between trivial braces
# have closed-form counts and list every map before --limit applies.
SEARCH_EXOTIC = list(range(16, 49, 2))
SEARCH_CHAINS = chain_candidates((2, 3), 36)
SEARCH_CYCLIC = list(range(8, 49, 2))
# (Z2)^k -> (Z2)^j lists 2^(kj) maps, each checked on 4^k pairs
SEARCH_ELEMENTARY = sorted(
    [(k, j) for k in range(1, 6) for j in range(1, 6) if k * j <= 12], key=lambda p: (p[0] * p[1] + 2 * p[0], p)
)


def _iso_pair(files: Files, rng: random.Random, s: Struct) -> Job:
    perm = list(range(s.order))
    rng.shuffle(perm)
    add, mul = relabel(s.add, s.mul, perm)
    other = dual_weak_brace(add, mul) if s.kind == "dual_weak_brace" else skew_brace(add, mul)
    path = files.new("relabel", other)
    expect = {"check": "iso", "add": s.add, "mul": s.mul, "add2": add, "mul2": mul}
    return Job(("iso", "--input", s.path, "--input2", path, "--format", "json"), expect)


def _homs(files: Files, a: Struct, b: Struct, count: int) -> Job:
    argv = ("homs", "--input", a.path, "--input2", b.path, "--limit", "5", "--format", "json")
    return Job(argv, {"check": "homs", "count": count})


def _search_block(rng: random.Random, files: Files) -> list:
    # each relabelling of the top size is a new search order, so the top
    # jobs' times spread a little around their median
    sizes = stratified(rng, SEARCH_EXOTIC[:-1], 8) + [SEARCH_EXOTIC[-1]] * TOP_REPEATS
    jobs = [_iso_pair(files, rng, _brace(files, "exotic", n)) for n in sizes]
    for orders in stratified(rng, SEARCH_CHAINS, 8):
        jobs.append(_iso_pair(files, rng, _chain(files, orders, "dual_weak_brace")))
    for n in stratified(rng, SEARCH_EXOTIC, 8):
        a, b = _brace(files, "exotic", n), _brace(files, "trivial", n)
        jobs.append(Job(("iso", "--input", a.path, "--input2", b.path, "--format", "json"), {"check": "noniso"}))
    # source and target come from the same stratum, so a job's cost (two
    # validations) follows its stratum; the gcd varies freely
    for m, n in zip(stratified(rng, SEARCH_CYCLIC, 10), stratified(rng, SEARCH_CYCLIC, 10)):
        jobs.append(_homs(files, _brace(files, "trivial", m), _brace(files, "trivial", n), gcd(m, n)))
    # the two costliest pairs run in every block; (4, 3) lists 4096 maps
    # and sets peak_rss_mb
    for k, j in stratified(rng, SEARCH_ELEMENTARY[:-2], 8) + SEARCH_ELEMENTARY[-2:]:
        a, b = _brace(files, "elementary", 1 << k), _brace(files, "elementary", 1 << j)
        jobs.append(_homs(files, a, b, 2 ** (k * j)))
    return jobs


_BLOCKS = {"verify": _verify_block, "lattice": _lattice_block, "search": _search_block}


def build(workload: str, seed: int, workdir: str, blocks: int) -> list:
    """Write the inputs for `blocks` blocks into workdir; return the blocks,
    each a seeded shuffle of its jobs."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    files = Files(workdir)
    out = []
    for _ in range(blocks):
        block = _BLOCKS[workload](rng, files)
        rng.shuffle(block)
        out.append(block)
    return out
