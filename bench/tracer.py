"""Spans around the public functions of biharm's layers, recorded from outside.

``Tracer.install`` wraps every function listed in the ``__all__`` of the
layer modules ``specfun``, ``kernels``, ``quad``, ``engine`` and ``cli`` and
patches each module attribute that refers to it, so callers that look a
name up in another module (``biharm.engine.qm_poly``) see the wrapper too.
``Tracer.restore`` puts every original back.  Spans (name, start, end,
parent) stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("specfun", "kernels", "quad", "engine", "cli")

# functions whose argument sets and output sizes are recorded
_POLYS = ("quad.qm_poly", "quad.rm_poly")


def _poly_extra(sig, args, kwargs, result):
    import numpy as np

    bound = sig.bind(*args, **kwargs).arguments
    digest = hashlib.blake2b(repr(bound["M"]).encode(), digest_size=16)
    for key in ("x", "t"):
        arr = np.ascontiguousarray(bound[key], dtype=float)
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return {"elems": int(np.size(result)), "key": digest.hexdigest()}


def _evaluate_extra(sig, args, kwargs, result):
    return {"points": len(result)}


def _symmetric_extra(sig, args, kwargs, result):
    return {"points": 1}


_EXTRAS = {
    "quad.qm_poly": _poly_extra,
    "quad.rm_poly": _poly_extra,
    "engine.evaluate": _evaluate_extra,
    "engine.evaluate_symmetric": _symmetric_extra,
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, nested in a span
        # of the same function, nested in a span of the same layer, extra]
        self.spans: list = []
        self._stack: list = []
        self._active: Counter = Counter()
        self._patches: list = []
        self.names: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        layer = name.split(".")[0]
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self._active[name] > 0, self._active[layer] > 0, None])
        self._stack.append(idx)
        self._active[name] += 1
        self._active[layer] += 1
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        name = self.spans[idx][0]
        self._active[name] -= 1
        self._active[name.split(".")[0]] -= 1

    def _wrap(self, name: str, fn):
        extra = _EXTRAS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                self.spans[idx][6] = extra(sig, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module of biharm."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "biharm" or key.startswith("biharm."))]
        for layer in LAYERS:
            mod = sys.modules[f"biharm.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn)
                self.names.append(name)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._patches.append((other, key, fn))
                            setattr(other, key, wrapper)

    def restore(self) -> None:
        """Put back every original function replaced by ``install``."""
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    def metrics(self) -> dict:
        """Per-function and per-layer totals as a flat dict of name -> value.

        ``<fn>.calls`` counts calls; ``<fn>.s`` sums the durations of calls
        not nested in another call of the same function; ``<fn>.self_s`` sums
        durations minus the time covered by direct child spans.  ``<layer>.s``
        and ``<layer>.self_s`` do the same over all functions of a layer.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for name in _POLYS:
            out[f"{name}.elems"] = 0
        keys: dict = {name: set() for name in _POLYS}
        points = 0
        for i, (name, start, end, _, nested, nested_layer, extra) in enumerate(self.spans):
            layer = name.split(".")[0]
            dur = end - start
            out[f"{name}.calls"] += 1
            if not nested:
                out[f"{name}.s"] += dur
            if not nested_layer:
                out[f"{layer}.s"] += dur
            out[f"{name}.self_s"] += dur - child[i]
            out[f"{layer}.self_s"] += dur - child[i]
            if extra is not None:
                points += extra.get("points", 0)
                if name in keys:
                    out[f"{name}.elems"] += extra["elems"]
                    keys[name].add(extra["key"])
        for name in _POLYS:
            calls = out.get(f"{name}.calls", 0)
            out[f"{name}.distinct_ratio"] = len(keys[name]) / calls if calls else 0.0
        out["engine.points"] = points
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, _, _, extra in self.spans:
                rec = {"name": name, "start": start - t0, "end": end - t0,
                       "parent": parent}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")
