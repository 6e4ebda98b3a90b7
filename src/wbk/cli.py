"""wbk command line: deterministic reports over structure files and the catalog.

Exit codes: 0 pass/info, 1 mathematical fail (a witness was found),
2 usage or parse errors, 3 internal error (a program cross-check failed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from itertools import chain

from . import ideals, series, solutions
from .braces import DualWeakBrace, SkewBrace
from .catalog import catalog_list
from .compose import StrongSemilatticeSpec, are_isomorphic, compose, decompose, enumerate_skew_brace_homs
from .errors import (
    InternalInvariantBroken,
    NoPeriod,
    NotAnIdeal,
    ParseError,
    UnknownName,
    UsageError,
    ValidationError,
    OrderTooLarge,
)
from .ideals import _tier
from .io import load, to_obj
from .solutions import SolutionTable
from .tables import FiniteGroupTable, SemilatticeTable

SUP = str.maketrans("0123456789()", "⁰¹²³⁴⁵⁶⁷⁸⁹⁽⁾")
SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


@dataclass
class Report:
    command: str
    status: str  # pass | fail | info
    lines: list
    witnesses: list


_SCALARS = {str, int, float, bool, type(None)}


def _json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2) for lists, tuples, dicts with str keys and
    JSON scalars, byte for byte; pad is the line break and indent before
    obj's closing bracket.  A list of plain ints is one join, and any other
    list of scalars one call of json's C encoder.  A list of rows of one
    length holding only plain ints (no bools or int subclasses), such as
    witness maps, formats every row with one %d template.
    """
    inner = pad + "  "
    if isinstance(obj, (list, tuple)) and obj:
        sep, types = "," + inner, set(map(type, obj))
        if types == {int}:
            body = sep.join(map(str, obj))
        elif types <= _SCALARS:
            body = json.dumps(obj, separators=(sep, ": "))[1:-1]
        elif (types <= {list, tuple} and len(set(map(len, obj))) == 1
              and set(map(type, chain.from_iterable(obj))) == {int}):
            deeper = inner + "  "
            row = "[" + deeper + ("," + deeper).join(["%d"] * len(obj[0])) + inner + "]"
            body = sep.join(map(row.__mod__, map(tuple, obj)))
        else:
            body = sep.join([_json(v, inner) for v in obj])
        return "[" + inner + body + pad + "]"
    if isinstance(obj, dict) and obj:
        items = [json.dumps(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(obj)


def _emit(report: Report, fmt: str) -> int:
    if fmt == "json":
        obj = {
            "command": report.command,
            "status": report.status,
            "lines": report.lines,
            "witnesses": report.witnesses,
        }
        print(_json(obj))
    else:
        for line in report.lines:
            print(line)
        print(f"status: {report.status}")
    return 0 if report.status in ("pass", "info") else 1


def _load_one(args, attr_input="input", attr_catalog="catalog"):
    path = getattr(args, attr_input, None)
    name = getattr(args, attr_catalog, None)
    if (path is None) == (name is None):
        raise UsageError(f"exactly one of --{attr_input}/--{attr_catalog} is required")
    return load(path if path is not None else f"catalog:{name}")


def _as_dual(x) -> DualWeakBrace:
    if isinstance(x, DualWeakBrace):
        return x
    if isinstance(x, SkewBrace):
        return x.as_dual()
    if isinstance(x, StrongSemilatticeSpec):
        return compose(x)
    raise UsageError(f"need a brace-like structure, got {type(x).__name__}")


def _as_solution(x) -> SolutionTable:
    if isinstance(x, SolutionTable):
        return x
    return solutions.solution_of(_as_dual(x))


def _members(args, order: int) -> frozenset:
    if args.members is None:
        raise UsageError("this command needs --members a,b,c")
    try:
        got = frozenset(int(tok) for tok in args.members.split(",") if tok.strip() != "")
    except ValueError:
        raise UsageError(f"bad --members value {args.members!r}") from None
    if any(not 0 <= v < order for v in got):
        raise UsageError("--members indices out of range")
    return got


def _set_str(x) -> str:
    return "{" + ", ".join(str(v) for v in sorted(x)) + "}"


# series kind -> (line label, name of chain position m)
_SERIES_CELLS = {
    "right": ("right", lambda m: "S" + f"({m + 1})".translate(SUP)),
    "socle": ("socle", lambda m: "Soc" + str(m).translate(SUB)),
    "annihilator-upper": ("annihilator", lambda m: "Ann" + str(m).translate(SUB)),
    "gamma-lower": ("gamma", lambda m: "Γ" + str(m).translate(SUB)),
}


def _series_line(rep: series.SeriesReport) -> str:
    label, cell = _SERIES_CELLS[rep.kind]
    cells = [f"|{cell(m)}|={len(x)}" for m, x in enumerate(rep.chain)]
    state = f"terminated, index {rep.index}" if rep.terminated else "stalled, no index"
    return f"{label}: " + " → ".join(cells) + f" ({state})"


def _series_lines(rep: series.Classification) -> list:
    return [_series_line(x) for x in (rep.right, rep.socle, rep.annihilator, rep.gamma)]


def _limit(items, args, line=str) -> list:
    """One line per item, cut to --limit items plus a closing "truncated" line."""
    if args.limit is not None and len(items) > args.limit:
        return [line(x) for x in items[: args.limit]] + ["truncated"]
    return [line(x) for x in items]


def _cmd_catalog(args) -> Report:
    lines = [f"{name}  [{kind}]  {desc}" for name, kind, desc in catalog_list()]
    return Report("catalog", "info", lines, [])


def _cmd_validate(args) -> Report:
    x = _load_one(args)
    kind = {
        FiniteGroupTable: "group",
        SemilatticeTable: "semilattice",
        SkewBrace: "skew_brace",
        DualWeakBrace: "dual_weak_brace",
        StrongSemilatticeSpec: "strong_semilattice",
        SolutionTable: "solution",
    }[type(x)]
    order = getattr(x, "order", getattr(x, "size", None))
    if order is None:
        order = sum(b.order for b in x.braces)
    return Report("validate", "pass", [f"kind: {kind}", f"order: {order}", "valid"], [])


def _cmd_compose(args) -> Report:
    x = _load_one(args)
    if not isinstance(x, StrongSemilatticeSpec):
        raise UsageError("compose needs a strong_semilattice input")
    s = compose(x)
    lines = [
        f"order: {s.order}",
        f"components: {len(s.idempotents)}",
        f"idempotents: {_set_str(s.idempotents)}",
    ]
    return Report("compose", "pass", lines, [to_obj(s)])


def _cmd_decompose(args) -> Report:
    s = _as_dual(_load_one(args))
    spec = decompose(s)
    lines = [f"components: {spec.y.size}"]
    for i, b in enumerate(spec.braces):
        lines.append(f"component {i}: order {b.order}")
    for (a, b), f in sorted(spec.homs.items()):
        lines.append(f"hom {a}>{b}: {list(f)}")
    return Report("decompose", "pass", lines, [to_obj(spec)])


def _cmd_solve(args) -> Report:
    r = _as_solution(_load_one(args))
    rows = [f"{a} {b} -> {u} {v}" for a in range(r.order) for b, u, v in zip(range(r.order), r.lam[a], r.rho[a])]
    lines = [f"order: {r.order}", *_limit(rows, args)]
    return Report("solve", "pass", lines, [to_obj(r)])


def _cmd_braid(args) -> Report:
    r = _as_solution(_load_one(args))
    bad = solutions.check_braid(r)
    if bad is None:
        n = r.order
        return Report("braid", "pass", [f"{n * n * n} triples checked"], [])
    return Report("braid", "fail", [f"BRAID-FAIL {bad[0]} {bad[1]} {bad[2]}"], [list(bad)])


def _cmd_period(args) -> Report:
    r = _as_solution(_load_one(args))
    p = solutions.period(r)
    return Report("period", "pass", [f"period {p}"], [])


def _cmd_regularity(args) -> Report:
    s = _as_dual(_load_one(args))
    rep = solutions.check_regularity(s)
    lines = [
        f"lambda bijective: {sum(rep.lambda_bijective)}/{s.order}",
        f"rho bijective: {sum(rep.rho_bijective)}/{s.order}",
    ]
    if rep.ok:
        return Report("regularity", "pass", lines, [])
    return Report("regularity", "fail", lines + [f"witness: {rep.witness}"], [list(rep.witness)])


def _cmd_ideals(args) -> Report:
    s = _as_dual(_load_one(args))
    enum = ideals.enumerate_ideals(s)
    lines = [f"mode: {enum.mode}", f"count: {len(enum.ideals)}"]
    # every enumerated ideal has passed the whole ideal law ladder: tier I
    lines += _limit(enum.ideals, args, lambda x: f"{_set_str(x)} I")
    return Report("ideals", "pass", lines, [sorted(sorted(x) for x in enum.ideals)])


def _special_set(name: str, fn):
    def cmd(args) -> Report:
        s = _as_dual(_load_one(args))
        x = fn(s)
        return Report(name, "pass", [f"{_set_str(x)} {_tier(s, x)}", f"size: {len(x)}"], [sorted(x)])

    return cmd


def _cmd_quotient(args) -> Report:
    s = _as_dual(_load_one(args))
    q = ideals.quotient(s, _members(args, s.order))
    lines = [
        f"order: {q.quotient.order}",
        f"projection: {list(q.projection)}",
        f"representatives: {list(q.class_rep)}",
    ]
    return Report("quotient", "pass", lines, [to_obj(q.quotient)])


def _cmd_homs(args) -> Report:
    a = _load_one(args)
    b = _load_one(args, "input2", "catalog2")
    if not isinstance(a, SkewBrace) or not isinstance(b, SkewBrace):
        raise UsageError("homs needs two skew_brace inputs")
    maps = enumerate_skew_brace_homs(a, b)
    lines = [f"count: {len(maps)}"] + _limit(maps, args, lambda f: str(list(f)))
    return Report("homs", "pass", lines, [list(f) for f in maps])


def _cmd_iso(args) -> Report:
    s = _as_dual(_load_one(args))
    t = _as_dual(_load_one(args, "input2", "catalog2"))
    wit = are_isomorphic(s, t)
    if wit is None:
        return Report("iso", "fail", ["not isomorphic"], [])
    lines = [
        "isomorphic",
        f"eta: {list(wit.eta)}",
        f"map: {list(wit.global_map)}",
    ]
    return Report("iso", "pass", lines, [list(wit.global_map)])


_SERIES = {"right": series.right_series, "socle": series.socle_series, "ann": series.annihilator_series}


def _cmd_series(args) -> Report:
    if args.which != "gamma" and args.members is not None:
        raise UsageError(f"--members applies to series gamma only, not series {args.which}")
    s = _as_dual(_load_one(args))
    start = None if args.members is None else _members(args, s.order)
    rep = series.gamma_series(s, start) if args.which == "gamma" else _SERIES[args.which](s)
    status = "pass" if rep.terminated else "info"
    return Report(
        "series",
        status,
        [_series_line(rep)],
        [[sorted(x) for x in rep.chain]],
    )


def _cmd_sandwich(args) -> Report:
    s = _as_dual(_load_one(args))
    ann = series.annihilator_series(s)
    if not ann.terminated:
        last = ann.chain[-1]
        return Report(
            "sandwich",
            "fail",
            [
                f"annihilator series stalls at size {len(last)}; no annihilator series exists",
                _series_line(ann),
            ],
            [sorted(last)],
        )
    # the series is an annihilator series by construction: only the
    # theorem is left to check on it
    rep = series._sandwich(s, ann.chain, ann)
    lines = [
        f"annihilator series terminates at index {ann.index}",
        _series_line(ann),
        f"sandwich verified on {len(ann.chain)} positions",
    ]
    return Report("sandwich", "pass", lines, [[sorted(x) for x in rep.gamma_chain]])


def _cmd_classify(args) -> Report:
    s = _as_dual(_load_one(args))
    rep = series.classify(s)
    lines = [
        f"order: {rep.order}",
        f"idempotents: {rep.idempotent_count}",
        f"skew: {rep.is_skew}",
        f"brace: {rep.is_brace}",
        *_series_lines(rep),
    ]
    for i, comp in enumerate(rep.components):
        lines.append(f"component {i} (order {comp.order}):")
        lines += ["  " + line for line in _series_lines(comp)]
    return Report("classify", "info", lines, [])


COMMANDS = {
    "catalog": _cmd_catalog,
    "validate": _cmd_validate,
    "compose": _cmd_compose,
    "decompose": _cmd_decompose,
    "solve": _cmd_solve,
    "braid": _cmd_braid,
    "period": _cmd_period,
    "regularity": _cmd_regularity,
    "ideals": _cmd_ideals,
    "soc": _special_set("soc", ideals.socle),
    "fix": _special_set("fix", ideals.fix),
    "zl": _special_set("zl", ideals.left_center),
    "ann": _special_set("ann", ideals.annihilator),
    "quotient": _cmd_quotient,
    "homs": _cmd_homs,
    "iso": _cmd_iso,
    "series": _cmd_series,
    "sandwich": _cmd_sandwich,
    "classify": _cmd_classify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call and reused: parse_args
    leaves it unchanged, so no call sees another's arguments."""
    top = argparse.ArgumentParser(prog="wbk", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "series":
            p.add_argument("which", choices=["right", "socle", "ann", "gamma"])
        if name != "catalog":
            p.add_argument("--input")
            p.add_argument("--catalog")
        if name in ("homs", "iso"):
            p.add_argument("--input2")
            p.add_argument("--catalog2")
        if name in ("quotient", "series"):
            p.add_argument("--members")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if name in ("solve", "ideals", "homs"):
            p.add_argument("--limit", type=int)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if (getattr(args, "limit", None) or 0) < 0:
            raise UsageError(f"--limit must not be negative, got {args.limit}")
        report = COMMANDS[args.command](args)
    except (UsageError, ParseError, UnknownName, OrderTooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalInvariantBroken as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except NoPeriod as err:
        failure = f"NO-PERIOD tail={err.tail} cycle={err.cycle}"
    except NotAnIdeal as err:
        failure = f"not an ideal: {err.law} witness={err.witness}"
    except ValidationError as err:
        side = f" side={err.side}" if err.side else ""
        failure = f"violation: {err.law}{side} witness={err.witness}"
    else:
        return _emit(report, args.format)
    return _emit(Report(args.command, "fail", [failure], []), args.format)


if __name__ == "__main__":
    sys.exit(main())
