"""Span tracer that instruments the library from outside, without editing it.

Every public module-level function of each layer is replaced by a wrapper in
every namespace that holds it: the defining module, the modules that did
``from .x import y`` and the package root.  Registry dicts whose values are
those functions (``suites.SUITE_BUILDERS``) are patched too.  Each call opens a
span (name, start, end, parent span, op id); self time is the span minus the
time covered by its child spans.  Spans are timed on the clock the tracer is
given, the speed meter's normalised clock, so self times are in the same
reference seconds as every other reported time and leave out the meter's own
sampling.  Counters are exact for every call; span records are kept in memory
up to a cap and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from typing import Callable

LAYERS = (
    "fusion",
    "alcove",
    "superweights",
    "diagrams",
    "translation",
    "caps",
    "serganova",
    "borel",
    "enumeration",
    "suites",
    "cli",
)
LIBRARY_MODULES = LAYERS[:9]
PACKAGE = "verlinde_gl"
_FUNCTION_TYPES = (types.FunctionType, functools._lru_cache_wrapper)


class Tracer:
    """Wraps the library's public functions and aggregates their spans."""

    def __init__(self, clock: Callable[[], float], max_spans: int) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[float] = []
        self.op_id = -1
        self.next_span = 0
        self.stack: list[list[int]] = []
        self.spans = {key: array("q") for key in ("span", "name", "parent", "op")}
        self.spans.update(start=array("d"), end=array("d"))
        self.kac_depth = 0
        self.kac_factors = 0
        self.kac_cap_calls = 0
        self.kac_pset_calls = 0
        self._patched: list[tuple[object, str, object]] = []

    def register(self, name: str) -> int:
        fid = self.ids.get(name)
        if fid is None:
            fid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0.0)
        return fid

    def wrap(self, name: str, fn):
        """A function that runs fn inside a span called name."""
        fid = self.register(name)
        stack, calls, self_ns, spans, now = self.stack, self.calls, self.self_ns, self.spans, self.clock
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_span
            tracer.next_span = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                calls[fid] += 1
                self_ns[fid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if sid < tracer.max_spans:
                    spans["span"].append(sid)
                    spans["name"].append(fid)
                    spans["start"].append(t0)
                    spans["end"].append(t1)
                    spans["parent"].append(parent)
                    spans["op"].append(tracer.op_id)

        return functools.wraps(fn)(traced)

    def _kac_hooks(self, name: str, traced):
        """Extra counters for caps.kac_composition: factors and its inner calls."""
        tracer = self
        if name == "caps.kac_composition":

            def kac(*args, **kwargs):
                tracer.kac_depth += 1
                try:
                    out = traced(*args, **kwargs)
                finally:
                    tracer.kac_depth -= 1
                tracer.kac_factors += len(out)
                return out

            return functools.wraps(traced)(kac)
        if name in ("caps.cap_diagram", "caps.p_set"):
            attr = "kac_cap_calls" if name == "caps.cap_diagram" else "kac_pset_calls"

            def inner(*args, **kwargs):
                if tracer.kac_depth:
                    setattr(tracer, attr, getattr(tracer, attr) + 1)
                return traced(*args, **kwargs)

            return functools.wraps(traced)(inner)
        return traced

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        replacement: dict[int, tuple[object, object]] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, _FUNCTION_TYPES):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replacement[id(obj)] = (obj, self._kac_hooks(name, self.wrap(name, obj)))
        for ns in [pkg, *modules]:
            for attr, obj in list(vars(ns).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = replacement.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patched.append((obj, key, value))
                            obj[key] = hit[1]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def snapshot(self) -> list[int]:
        return list(self.calls)

    def calls_since(self, before: list[int]) -> dict[str, int]:
        """Calls per library function since a snapshot."""
        out = {}
        for fid, name in enumerate(self.names):
            done = self.calls[fid] - (before[fid] if fid < len(before) else 0)
            if done and name.split(".", 1)[0] in LIBRARY_MODULES:
                out[name] = done
        return out

    def function_stats(self, name: str) -> tuple[int, float]:
        fid = self.ids.get(name)
        if fid is None:
            return 0, 0.0
        return self.calls[fid], self.self_ns[fid] / 1e9

    def module_stats(self, module: str) -> tuple[int, float]:
        calls, self_ns = 0, 0.0
        for fid, name in enumerate(self.names):
            if name.split(".", 1)[0] == module:
                calls += self.calls[fid]
                self_ns += self.self_ns[fid]
        return calls, self_ns / 1e9

    def write(self, path) -> int:
        """Write the kept spans as tab-separated rows; returns the row count."""
        s = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for k in range(len(s["span"])):
                fh.write(
                    f"{s['span'][k]}\t{self.names[s['name'][k]]}\t{s['start'][k]:.0f}\t"
                    f"{s['end'][k]:.0f}\t{s['parent'][k]}\t{s['op'][k]}\n"
                )
        return len(s["span"])
