"""Per-layer tracing of qgs from outside the package.

Every public function of every `qgs` module is wrapped, and every module-level
binding of it (the defining module, the `qgs` namespace and each module that
imported it by name) is replaced by the wrapper.  Python resolves module
globals at call time, so calls between modules and inside one module both go
through the wrapper.  A layer is the module that defines the function.

Spans are kept in memory as [name, layer, start, end, parent, size] lists and
aggregated (and written) after the traced region.  `size` is the length of the
result for the functions in SIZED (array elements of a quadrature call,
eigenpairs of a solve).
"""

from __future__ import annotations

import gc
import gzip
import importlib
import inspect
import json
import pkgutil
import sys
import time
from functools import wraps

SIZED = {"polytrig.integrate_powexp", "spectral.eigenvalues_up_to"}


def qgs_modules() -> list:
    """The `qgs` package and every submodule, imported."""
    pkg = importlib.import_module("qgs")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"qgs.{info.name}"))
    return mods


def public_functions(mods) -> dict:
    """id(function) -> (function, 'layer.name') for each public module-level
    function, keyed to the module that defines it."""
    out = {}
    for mod in mods:
        if mod.__name__ == "qgs":
            continue
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                layer = mod.__name__.split(".", 1)[1]
                out[id(obj)] = (obj, f"{layer}.{name}")
    return out


def _bindings(mods, targets: dict):
    """(namespace dict, key) of every module- or class-level reference to a
    function in `targets` (keyed by id)."""
    found = []
    for mod in mods:
        spaces = [vars(mod)]
        spaces += [vars(c) for c in vars(mod).values()
                   if inspect.isclass(c) and c.__module__ == mod.__name__]
        for ns in spaces:
            for key, val in list(ns.items()):
                fn = getattr(val, "__func__", val)  # staticmethod/classmethod
                if id(fn) in targets and targets[id(fn)][0] is fn:
                    found.append((ns, key))
    return found


def _unwrapped_references(targets: dict, wrappers: dict, patched: list) -> list[str]:
    """Every object still referring to an original function other than its
    wrapper and the tracer's own bookkeeping.  A dispatch table, a default
    argument or a binding the scan missed would call the original unseen."""
    gc.collect()
    ours = {id(x) for x in [*targets.values(), *patched]}
    for w in wrappers.values():
        ours.add(id(w.__dict__))  # __wrapped__
        ours.update(id(c) for c in w.__closure__)
    left = []
    for fn, name in targets.values():
        for ref in gc.get_referrers(fn):
            if not (id(ref) in ours or inspect.isframe(ref)):
                left.append(f"{name} from a {type(ref).__name__}")
    return left


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (namespace, key, original value)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        sized = name in SIZED

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if sized:
                span[5] = len(result)
            return result

        return traced

    def install(self) -> dict:
        """Wrap every public qgs function at every binding; returns a coverage
        report and raises if any binding of a wrapped function was missed."""
        mods = qgs_modules()
        targets = public_functions(mods)
        wrappers = {fid: self._wrap(fn, name) for fid, (fn, name) in targets.items()}
        bindings = _bindings(mods, targets)
        per_name: dict[str, int] = {}
        for ns, key in bindings:
            val = ns[key]
            fn = getattr(val, "__func__", val)
            new = wrappers[id(fn)]
            if val is not fn:  # re-wrap staticmethod/classmethod
                new = type(val)(new)
            self._patched.append((ns, key, val))
            ns[key] = new
            name = targets[id(fn)][1]
            per_name[name] = per_name.get(name, 0) + 1
        left = _unwrapped_references(targets, wrappers, self._patched)
        if left:
            raise AssertionError("references the wrappers missed: " + "; ".join(left))
        return {"functions": len(targets), "bindings": len(bindings),
                "multi_bound": {n: c for n, c in sorted(per_name.items()) if c > 1}}

    def uninstall(self) -> None:
        for ns, key, val in reversed(self._patched):
            ns[key] = val
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write('["name", "layer", "start", "end", "parent", "size"]\n')
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def wrapper_cost(calls: int = 50_000, rounds: int = 5) -> float:
    """Seconds a wrapper adds to one call: a wrapped no-op against the bare
    no-op, `calls` calls each, fastest of `rounds` rounds."""
    def noop(*args, **kwargs):
        return None

    def best(fn) -> float:
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            for i in range(calls):
                fn(i, key=i)
            times.append(time.perf_counter() - t0)
        return min(times)

    wrapped = Tracer()._wrap(noop, "calibration.noop")
    return max(0.0, best(wrapped) - best(noop)) / calls


def aggregate(spans: list[list]) -> dict:
    """Per function: calls, summed size, inclusive seconds (outermost call of
    that function only).  Per layer: calls, self seconds (span duration minus
    the time its child spans cover) and inclusive seconds (outermost span of
    that layer only)."""
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    funcs: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for i, (name, layer, t0, t1, parent, size) in enumerate(spans):
        dur = t1 - t0
        f = funcs.setdefault(name, {"calls": 0, "size": 0, "s": 0.0})
        lay = layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "s": 0.0})
        f["calls"] += 1
        f["size"] += size
        lay["calls"] += 1
        lay["self_s"] += dur - child[i]
        same_fn = same_layer = False
        p = parent
        while p >= 0 and not (same_fn and same_layer):
            same_fn = same_fn or spans[p][0] == name
            same_layer = same_layer or spans[p][1] == layer
            p = spans[p][4]
        if not same_fn:
            f["s"] += dur
        if not same_layer:
            lay["s"] += dur
    return {"functions": funcs, "layers": layers}


if __name__ == "__main__":  # coverage report for the code on sys.path
    t = Tracer()
    print(json.dumps(t.install(), indent=1))
    t.uninstall()
    sys.exit(0)
