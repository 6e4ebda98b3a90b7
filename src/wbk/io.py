"""JSON structure files and canonical serialization.

One object per file, dispatched on "kind": group, semilattice, skew_brace,
dual_weak_brace, strong_semilattice, solution.  Hom keys are "alpha>beta"
with decimal indices.  serialize(load(x)) is the canonical form of x.
"""

from __future__ import annotations

import json

from .braces import DualWeakBrace, SkewBrace, validate_dual_weak_brace, validate_skew_brace
from .catalog import catalog_get
from .compose import StrongSemilatticeSpec, validate_spec
from .errors import ParseError
from .solutions import SolutionTable, solution_table
from .tables import (
    FiniteGroupTable,
    SemilatticeTable,
    validate_group,
    validate_semilattice,
)


def to_obj(x) -> dict:
    if isinstance(x, FiniteGroupTable):
        return {"kind": "group", "order": x.order, "op": [list(r) for r in x.op]}
    if isinstance(x, SemilatticeTable):
        return {"kind": "semilattice", "size": x.size, "meet": [list(r) for r in x.meet]}
    if isinstance(x, (SkewBrace, DualWeakBrace)):
        return {
            "kind": "skew_brace" if isinstance(x, SkewBrace) else "dual_weak_brace",
            "order": x.order,
            "add": [list(r) for r in x.add.op],
            "mul": [list(r) for r in x.mul.op],
        }
    if isinstance(x, StrongSemilatticeSpec):
        return {
            "kind": "strong_semilattice",
            "semilattice": to_obj(x.y),
            "braces": {str(i): to_obj(b) for i, b in enumerate(x.braces)},
            "homs": {
                f"{a}>{b}": list(f) for (a, b), f in sorted(x.homs.items())
            },
        }
    if isinstance(x, SolutionTable):
        return {
            "kind": "solution",
            "order": x.order,
            "map": [[[u, v] for u, v in zip(us, vs)] for us, vs in zip(x.lam, x.rho)],
        }
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps(x) -> str:
    return json.dumps(to_obj(x), indent=2) + "\n"


def _need(obj: dict, key: str, kind=None):
    if key not in obj:
        raise ParseError(f"missing field {key!r}")
    if kind is not None and not isinstance(obj[key], kind):
        raise ParseError(f"field {key!r} has the wrong type")
    return obj[key]


def _table(obj: dict, key: str, size_key: str | None = None):
    """A table field: a list of row lists, as many as obj[size_key] when that
    is present.  Entries are left to the validators."""
    rows = _need(obj, key, (list, tuple))
    if not all(isinstance(row, (list, tuple)) for row in rows):
        raise ParseError(f"field {key!r} must be a list of rows")
    if size_key in obj and (type(obj[size_key]) is not int or obj[size_key] != len(rows)):
        raise ParseError(f"declared {size_key} {obj[size_key]!r} but {key!r} has {len(rows)} rows")
    return rows


def _nested(obj: dict, kind: str, field: str) -> dict:
    """A nested table object; its kind may be left out, but when present
    it must be kind."""
    if obj.get("kind", kind) != kind:
        raise ParseError(f"{field} has kind {obj['kind']!r}, expected {kind!r}")
    return obj


def from_obj(obj) -> object:
    if not isinstance(obj, dict):
        raise ParseError("top-level value must be an object")
    kind = _need(obj, "kind")
    if kind == "group":
        return validate_group(_table(obj, "op", "order"))
    if kind == "semilattice":
        return validate_semilattice(_table(obj, "meet", "size"))
    if kind == "skew_brace":
        return validate_skew_brace(_table(obj, "add", "order"), _table(obj, "mul", "order"))
    if kind == "dual_weak_brace":
        return validate_dual_weak_brace(_table(obj, "add", "order"), _table(obj, "mul", "order"))
    if kind == "strong_semilattice":
        y_obj = _nested(_need(obj, "semilattice", dict), "semilattice", "field 'semilattice'")
        y = validate_semilattice(_table(y_obj, "meet", "size"))
        braces_obj = _need(obj, "braces", dict)
        braces = []
        for i in range(y.size):
            b = braces_obj.get(str(i))
            if not isinstance(b, dict):
                raise ParseError(f"missing brace for semilattice element {i}")
            _nested(b, "skew_brace", f"brace {str(i)!r}")
            braces.append((_table(b, "add", "order"), _table(b, "mul", "order")))
        extra = sorted(braces_obj.keys() - {str(i) for i in range(y.size)})
        if extra:
            raise ParseError(f"brace key {extra[0]!r} names no semilattice element")
        homs = {}
        for key, f in _need(obj, "homs", dict).items():
            try:
                a, b = key.split(">")
                pair = (int(a), int(b))
            except ValueError:
                pair = None
            if pair is None or min(pair) < 0 or key != f"{pair[0]}>{pair[1]}":
                raise ParseError(f"bad hom key {key!r}")
            if not isinstance(f, (list, tuple)):
                raise ParseError(f"hom {key!r} must be a list")
            homs[pair] = tuple(f)
        return validate_spec(y, braces, homs)
    if kind == "solution":
        order = _need(obj, "order")
        table = _table(obj, "map")
        if type(order) is not int or len(table) != order:
            raise ParseError("solution table does not match its declared order")
        for row in table:
            if len(row) != order:
                raise ParseError("solution table is not square")
            for p in row:
                if (
                    not isinstance(p, (list, tuple))
                    or len(p) != 2
                    or not all(type(v) is int and 0 <= v < order for v in p)
                ):
                    raise ParseError("solution entries must be pairs of indices")
        return solution_table(order, lambda a, b: table[a][b])
    raise ParseError(f"unknown kind {kind!r}")


def load(source: str) -> object:
    """Read a structure from a file path or from "catalog:<name>"."""
    if source.startswith("catalog:"):
        return catalog_get(source[len("catalog:"):])
    try:
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, f"byte {err.pos} (line {err.lineno}, column {err.colno})") from None
    except (OSError, UnicodeDecodeError, RecursionError) as err:
        # an unreadable file, bytes that are not UTF-8, nesting past the parser's depth
        raise ParseError(str(err)) from None
    return from_obj(obj)
