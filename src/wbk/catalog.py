"""Built-in structures, revalidated on construction.

Permutation products use the convention "p*q applies q first, then p".
Permutations of {0,1,2} are ordered lexicographically by one-line notation,
so in sym3: 0 = identity, 3 = the cycle 0->1->2->0, 4 = its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .braces import DualWeakBrace, SkewBrace, trivial_brace, validate_dual_weak_brace, validate_skew_brace
from .compose import StrongSemilatticeSpec, compose, validate_spec
from .errors import UnknownName
from .tables import validate_group


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def klein4_table() -> list[list[int]]:
    return [[a ^ b for b in range(4)] for a in range(4)]


def sym3_table() -> list[list[int]]:
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms]
        for p in perms
    ]


def chain_semilattice(n: int) -> list[list[int]]:
    # 0 is the top; meet of two chain elements is the lower (larger index)
    return [[max(a, b) for b in range(n)] for a in range(n)]


def z6_exotic_tables() -> tuple[list[list[int]], list[list[int]]]:
    add = cyclic_table(6)
    mul = [[(a + (b if a % 2 == 0 else -b)) % 6 for b in range(6)] for a in range(6)]
    return add, mul


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # group | skew_brace | dual_weak_brace | spec
    payload: object
    provenance: str


def _group(name: str, table, desc: str) -> CatalogEntry:
    return CatalogEntry(name, "group", validate_group(table), desc)


def _trivial(name: str, table, desc: str) -> CatalogEntry:
    g = validate_group(table)
    return CatalogEntry(name, "skew_brace", trivial_brace(g), desc)


def _build() -> dict[str, CatalogEntry]:
    entries = [
        _group("c2", cyclic_table(2), "cyclic group of order 2"),
        _group("c3", cyclic_table(3), "cyclic group of order 3"),
        _group("c4", cyclic_table(4), "cyclic group of order 4"),
        _group("c6", cyclic_table(6), "cyclic group of order 6"),
        _group("klein4", klein4_table(), "Klein four-group as xor on two bits"),
        _group("sym3", sym3_table(), "symmetric group on three points"),
        _trivial("c2_trivial", cyclic_table(2), "trivial skew brace on c2 (add = mul)"),
        _trivial("c3_trivial", cyclic_table(3), "trivial skew brace on c3 (add = mul)"),
        _trivial("c4_trivial", cyclic_table(4), "trivial skew brace on c4 (add = mul)"),
        _trivial("c6_trivial", cyclic_table(6), "trivial skew brace on c6 (add = mul)"),
        _trivial("klein4_trivial", klein4_table(), "trivial skew brace on klein4"),
        _trivial("sym3_trivial", sym3_table(), "trivial skew brace on sym3"),
        CatalogEntry(
            "z6_exotic",
            "skew_brace",
            validate_skew_brace(*z6_exotic_tables()),
            "brace on Z6 with a*b = a + b for even a, a - b for odd a",
        ),
        CatalogEntry(
            "c3_sym3",
            "spec",
            validate_spec(
                chain_semilattice(2),
                [trivial_brace(validate_group(cyclic_table(3))),
                 trivial_brace(validate_group(sym3_table()))],
                {(0, 1): (0, 3, 4)},
            ),
            "chain of trivial braces on c3 over sym3, generator to the 3-cycle",
        ),
        CatalogEntry(
            "c2_c4_braces",
            "spec",
            validate_spec(
                chain_semilattice(2),
                [trivial_brace(validate_group(cyclic_table(2))),
                 trivial_brace(validate_group(cyclic_table(4)))],
                {(0, 1): (0, 2)},
            ),
            "chain of trivial braces on c2 over c4, generator to 2",
        ),
        CatalogEntry(
            "sl2_trivial",
            "dual_weak_brace",
            validate_dual_weak_brace(chain_semilattice(2), chain_semilattice(2)),
            "trivial weak brace on the 2-element chain semilattice",
        ),
        CatalogEntry(
            "sl3_trivial",
            "dual_weak_brace",
            validate_dual_weak_brace(chain_semilattice(3), chain_semilattice(3)),
            "trivial weak brace on the 3-element chain semilattice",
        ),
    ]
    return {e.name: e for e in entries}


_CATALOG = _build()


def catalog_list() -> list[tuple[str, str, str]]:
    return sorted((e.name, e.kind, e.provenance) for e in _CATALOG.values())


def catalog_get(name: str):
    try:
        return _CATALOG[name].payload
    except KeyError:
        raise UnknownName(f"no catalog entry named {name!r}") from None


def catalog_braces() -> list[tuple[str, SkewBrace]]:
    return [(e.name, e.payload) for e in _CATALOG.values() if e.kind == "skew_brace"]


def catalog_specs() -> list[tuple[str, StrongSemilatticeSpec]]:
    return [(e.name, e.payload) for e in _CATALOG.values() if e.kind == "spec"]


def catalog_structures() -> list[tuple[str, DualWeakBrace]]:
    """Every catalog entry viewed as a dual weak brace (specs composed)."""
    out = []
    for e in _CATALOG.values():
        if e.kind == "skew_brace":
            out.append((e.name, e.payload.as_dual()))
        elif e.kind == "dual_weak_brace":
            out.append((e.name, e.payload))
        elif e.kind == "spec":
            out.append((e.name, compose(e.payload)))
    return sorted(out)
