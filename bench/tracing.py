"""Outside-in tracing of wbk's layers, from the benchmark's own files.

Each public module-level function of a `wbk.*` module is replaced, in every
`wbk.*` namespace that binds it, by a wrapper that records a span: name,
layer (the defining module), start, end, parent span, job id, and a work
count derived from the call's arguments and return value.  The package
uses `from .x import f`, so patching only the defining module would miss
most calls.  Methods of the structure classes are not wrapped; their time
is their caller's self time.

`TracedImport` wraps each module as soon as it has executed, before any
other module binds its functions, so the catalog that `import wbk` builds
is traced too.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import os
import sys
import types
from array import array
from time import perf_counter

# layers with per-layer metrics; every wbk module (catalog, errors, the
# package itself) is traced, and appears in the written spans
LAYERS = ("io", "tables", "braces", "compose", "solutions", "ideals", "series", "cli")
IMPORT_JOB = -1


def _braid_triples(args, out):
    n = args[0].order
    return n ** 3 if out is None else out[0] * n * n + out[1] * n + out[2] + 1


def _load_bytes(args, out):
    return 0 if args[0].startswith("catalog:") else os.path.getsize(args[0])


def _series_steps(args, out):
    return len(out.chain) - 1 + (not out.terminated)


# work counts, keyed by span name; a call that raises records 0
WORK = {
    "braces.validate_skew_brace": lambda args, out: len(args[0]) ** 3,
    "braces.validate_dual_weak_brace": lambda args, out: len(args[0]) ** 3,
    "solutions.check_braid": _braid_triples,
    "io.load": _load_bytes,
    "ideals.enumerate_ideals": lambda args, out: len(out.ideals),
    "series.right_series": _series_steps,
    "series.socle_series": _series_steps,
    "series.annihilator_series": _series_steps,
    "series.gamma_series": _series_steps,
    "tables.enumerate_group_homs": lambda args, out: len(out),
    "compose.enumerate_skew_brace_homs": lambda args, out: len(out),
}


def layer_of(module_name: str) -> str:
    return module_name.rpartition(".")[2]


class Spans:
    """Column store of finished and open spans."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")

    def __len__(self) -> int:
        return len(self.name)

    def extend(self, other: "Spans") -> None:
        """Append other's spans, keeping their parent links."""
        off = len(self)
        self.parent.extend(p + off if p >= 0 else -1 for p in other.parent)
        for col in ("name", "job", "start", "end", "work"):
            getattr(self, col).extend(getattr(other, col))

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def has_ancestor(self, i: int, names: set) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] in names:
                return True
            p = self.parent[p]
        return False


class Tracer:
    def __init__(self):
        self.names: list = []  # span name per name id
        self.layers: list = []  # layer per name id
        self._ids: dict = {}
        self.spans = Spans()
        self.stack = [-1]
        self.job = IMPORT_JOB
        self.active = True
        self.wrappers: dict = {}  # original function -> wrapper
        self.bindings: list = []  # (module, attribute, original)

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sp = self.spans
        idx = len(sp.name)
        sp.name.append(nid)
        sp.parent.append(self.stack[-1])
        sp.job.append(self.job)
        sp.work.append(0)
        sp.end.append(0.0)
        self.stack.append(idx)
        sp.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.spans.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        nid = self.name_id(name, layer)
        work = WORK.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if work is not None:
                tracer.spans.work[idx] = work(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def wrap_module(self, module) -> None:
        """Wrap the public functions a module defines, in its own namespace."""
        layer = layer_of(module.__name__)
        for attr, obj in list(vars(module).items()):
            if (
                isinstance(obj, types.FunctionType)
                and not attr.startswith("_")
                and obj.__module__ == module.__name__
                and obj not in self.wrappers
            ):
                self.wrappers[obj] = self.wrap(obj, layer)
                setattr(module, attr, self.wrappers[obj])
                self.bindings.append((module, attr, obj))

    def sweep(self) -> None:
        """Rebind any name in any wbk namespace still holding an original."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "wbk" and not mod_name.startswith("wbk."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in self.wrappers:
                    setattr(module, attr, self.wrappers[obj])
                    self.bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        """Rebind the originals; wrappers captured elsewhere call straight through."""
        self.active = False
        for module, attr, orig in self.bindings:
            setattr(module, attr, orig)

    def install(self) -> None:
        self.active = True
        for module, attr, orig in self.bindings:
            setattr(module, attr, self.wrappers[orig])

    def take(self) -> Spans:
        """Hand over the spans recorded so far and start a fresh store."""
        spans, self.spans = self.spans, Spans()
        return spans


class TracedImport(importlib.abc.MetaPathFinder):
    """Imports wbk from `src`, recording one span per module execution and
    wrapping the module's functions right after it executes."""

    def __init__(self, tracer: Tracer, src: str):
        self.tracer = tracer
        self.src = src

    def find_spec(self, fullname, path, target=None):
        if fullname != "wbk" and not fullname.startswith("wbk."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path or [self.src])
        if spec is None:
            return None
        run = spec.loader.exec_module
        tracer = self.tracer
        layer = layer_of(fullname)

        def exec_module(module):
            idx = tracer._open(tracer.name_id(f"{layer}.<import>", layer))
            try:
                run(module)
            finally:
                tracer._close(idx)
            tracer.wrap_module(module)

        spec.loader.exec_module = exec_module
        return spec


def layer_metrics(tracer: Tracer, spans: Spans, job_bytes_out: int) -> dict:
    """Per-layer self time, call counts and work counts over `spans`."""
    own = spans.self_times()
    names, layers = tracer.names, tracer.layers
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update({f"{layer}.calls": 0 for layer in LAYERS})
    work: dict = {}
    for i, nid in enumerate(spans.name):
        layer = layers[nid]
        if layer not in LAYERS:
            continue
        m[f"{layer}.self_s"] += own[i]
        if not names[nid].endswith(".<import>"):
            m[f"{layer}.calls"] += 1
        work[names[nid]] = work.get(names[nid], 0) + spans.work[i]

    def calls(name, under=()):
        nid = tracer._ids.get(name)
        under_ids = {tracer._ids[u] for u in under if u in tracer._ids}
        return sum(1 for i, x in enumerate(spans.name) if x == nid and (not under or spans.has_ancestor(i, under_ids)))

    def ratio(a, b):
        return a / b if b else 0.0

    series_ids = [n for n, layer in zip(names, layers) if layer == "series"]
    m["braces.triples"] = work.get("braces.validate_skew_brace", 0) + work.get("braces.validate_dual_weak_brace", 0)
    m["solutions.braid_triples"] = work.get("solutions.check_braid", 0)
    m["io.bytes_in"] = work.get("io.load", 0)
    m["cli.bytes_out"] = job_bytes_out
    m["ideals.is_ideal_calls"] = calls("ideals.is_ideal")
    m["ideals.found"] = work.get("ideals.enumerate_ideals", 0)
    m["ideals.yield"] = ratio(m["ideals.found"], calls("ideals.is_ideal", ["ideals.enumerate_ideals"]))
    m["ideals.quotients"] = calls("ideals.quotient")
    m["series.steps"] = sum(v for k, v in work.items() if k.startswith("series."))
    m["series.quotients"] = calls("ideals.quotient", series_ids)
    m["tables.group_homs"] = work.get("tables.enumerate_group_homs", 0)
    m["compose.brace_homs"] = work.get("compose.enumerate_skew_brace_homs", 0)
    m["compose.hom_yield"] = ratio(m["compose.brace_homs"], m["tables.group_homs"])
    return m
