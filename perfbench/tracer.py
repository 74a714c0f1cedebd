"""Per-layer spans recorded from outside the program.

The layers are the modules of ``walkwait``.  ``install`` wraps every public
function of every module, under each name a module binds it to (the modules
import each other with ``from .x import y``), and every public method of the
arrival-model classes.  A wrapped call opens a span only when it enters a
layer from another layer; a nested call inside the same layer passes
straight through and is not counted.

Spans live in compact arrays (layer, parent span, start, end) until the run
ends; ``save`` writes them out and ``metrics`` derives the per-layer counts
and times from them.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

MODULES = ("arrivals", "quadrature", "expectation", "intermediate", "optimizer", "mcsim", "cli")
# span layer ids; the arrivals module is split by call shape
LAYERS = ("arrivals.scalar", "arrivals.sample") + MODULES[1:]
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}
ROOT = -1  # parent of spans opened by the benchmark itself


class Tracer:
    def __init__(self):
        self.layer = array("b")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no span of the same module is open
        self.counts = {"integrand_evals": 0, "stationary_points": 0, "journeys": 0, "bytes_out": 0}
        self._stack = [(ROOT, "bench")]
        self._open = dict.fromkeys(MODULES, 0)
        self._saved = []  # (owner, name, original) to restore

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, module: str, layer: str, before=None, after=None):
        lid = LAYER_ID[layer]
        stack, open_, spans = self._stack, self._open, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1][1] == module:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            idx = len(spans.start)
            spans.layer.append(lid)
            spans.parent.append(stack[-1][0])
            spans.outer.append(open_[module] == 0)
            spans.start.append(0.0)
            spans.end.append(0.0)
            stack.append((idx, module))
            open_[module] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_[module] -= 1
                stack.pop()
                spans.start[idx] = t0
                spans.end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_integrand(self, args):
        f = args[0]
        counts = self.counts

        def counted(x):
            counts["integrand_evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:])

    def _hooks(self, module: str, name: str):
        counts = self.counts
        if module == "quadrature":
            return self._count_integrand, None
        if (module, name) == ("optimizer", "find_stationary_points"):
            return None, lambda args, res: counts.__setitem__(
                "stationary_points", counts["stationary_points"] + len(res))
        if (module, name) == ("mcsim", "estimate"):
            return None, lambda args, res: counts.__setitem__("journeys", counts["journeys"] + res.n)
        if (module, name) == ("cli", "main"):
            def bytes_out(args, res):
                argv = list(args[0]) if args else []
                if "--out" in argv:
                    path = argv[argv.index("--out") + 1]
                    if os.path.exists(path):
                        counts["bytes_out"] += os.path.getsize(path)
            return None, bytes_out
        return None, None

    def install(self, package) -> None:
        """Wrap the package's layers; ``uninstall`` restores them."""
        import importlib

        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrapped = {}

        def wrapper_for(fn):
            if fn not in wrapped:
                module = fn.__module__.rsplit(".", 1)[-1]
                before, after = self._hooks(module, fn.__name__)
                layer = "arrivals.scalar" if module == "arrivals" else module
                wrapped[fn] = self._wrap(fn, module, layer, before, after)
            return wrapped[fn]

        for owner in (package, *mods.values()):
            for name, obj in list(vars(owner).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__.rsplit(".", 1)[0] == package.__name__):
                    self._saved.append((owner, name, obj))
                    setattr(owner, name, wrapper_for(obj))
        arrivals = mods["arrivals"]
        for cls in vars(arrivals).values():
            if inspect.isclass(cls) and issubclass(cls, arrivals.ArrivalModel):
                for name, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and not name.startswith("_"):
                        layer = "arrivals.sample" if name == "sample" else "arrivals.scalar"
                        self._saved.append((cls, name, obj))
                        setattr(cls, name, self._wrap(obj, "arrivals", layer))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._saved):
            setattr(owner, name, obj)
        self._saved.clear()

    # ------------------------------------------------------------- results

    def arrays(self) -> dict:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, layers=np.array(LAYERS), **self.arrays())

    def metrics(self) -> dict:
        """Per-layer counts, busy time and self time, from the spans.

        busy_s sums the spans that entered a module while none of its spans
        was open, so re-entry through another layer is not counted twice;
        self_s is each span's duration less that of its direct children.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        n = len(dur)
        child = np.zeros(n)
        has_parent = a["parent"] >= 0
        if n:
            child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        outer = a["outer"] == 1

        def stat(layer):
            sel = a["layer"] == LAYER_ID[layer]
            return int(sel.sum()), float(dur[sel & outer].sum()), float(self_t[sel].sum())

        out = {}
        for shape in ("scalar", "sample"):
            calls, busy, _ = stat(f"arrivals.{shape}")
            out[f"arrivals.{shape}_calls"] = calls
            out[f"arrivals.{shape}_busy_s"] = busy
        calls, busy, _ = stat("quadrature")
        out.update({"quadrature.calls": calls,
                    "quadrature.integrand_evals": self.counts["integrand_evals"],
                    "quadrature.busy_s": busy})
        for module in ("expectation", "intermediate", "optimizer", "mcsim", "cli"):
            calls, busy, self_s = stat(module)
            out.update({f"{module}.calls": calls, f"{module}.busy_s": busy,
                        f"{module}.self_s": self_s})
        out["optimizer.stationary_points"] = self.counts["stationary_points"]
        out["mcsim.journeys"] = self.counts["journeys"]
        out["cli.bytes_out"] = self.counts["bytes_out"]
        return out
