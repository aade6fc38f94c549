"""Call tracing for the traced benchmark run, from outside the library.

Every function defined in a ``weylfan`` module is replaced, in every module
namespace that binds it, by a wrapper that opens a span on entry and closes
it on exit.  The library calls its own functions through module globals, so
calls inside a module are seen too.  Spans are folded into per-function
totals as they close: a points pass makes millions of calls, too many to
keep one record each.  A span's self time is its duration minus the
durations of the spans it directly caused.
"""

import importlib
import time
from collections import Counter

LAYERS = ("linalg", "roots", "fans", "rdata", "typea", "chains", "cli")


def layer_modules():
    return [importlib.import_module(f"weylfan.{name}") for name in LAYERS]


def _library_functions(module):
    """(attribute name, function, 'layer.function') for each function bound
    in ``module`` whose definition is in a layer module; a traced binding
    yields the function it wraps."""
    for attr, obj in vars(module).items():
        obj = obj.__wrapped__ if is_traced(obj) else obj
        if not callable(obj) or isinstance(obj, type):
            continue
        home = getattr(obj, "__module__", "") or ""
        layer = home.rpartition(".")[2]
        if home.startswith("weylfan.") and layer in LAYERS and hasattr(obj, "__name__"):
            yield attr, obj, f"{layer}.{obj.__name__}"


def caches():
    """{'layer.function': lru_cache wrapper} for every cache in the layers."""
    out = {}
    for module in layer_modules():
        for _, obj, key in _library_functions(module):
            if hasattr(obj, "cache_info"):
                out[key] = obj
    return out


def clear_caches():
    for fn in caches().values():
        fn.cache_clear()


class Tracer:
    """Per-function call counts, self and inclusive times, and caller edges.

    ``stats[key] = [calls, self seconds, inclusive seconds]``; the inclusive
    time of a recursive function counts only its outermost spans.
    ``edges[(caller key, key)]`` counts direct calls; the caller of a call
    made outside any traced function is None.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.edges = Counter()
        self._stack = []
        self._depth = Counter()
        self._saved = []

    def wrap(self, key, fn):
        stack, clock, depth = self._stack, self.clock, self._depth
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        edges = self.edges

        def traced(*args, **kwargs):
            edges[(stack[-1][0] if stack else None, key)] += 1
            depth[key] += 1
            frame = [key, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                depth[key] -= 1
                stats[0] += 1
                stats[1] += duration - frame[2]
                if not depth[key]:
                    stats[2] += duration
                if stack:
                    stack[-1][2] += duration

        traced.__name__ = getattr(fn, "__name__", key)
        traced.__wrapped__ = fn
        traced.span_key = key
        return traced

    def install(self, modules=None):
        """Wrap every library function in every given module namespace."""
        modules = layer_modules() if modules is None else modules
        wrappers = {}
        for module in modules:
            for attr, obj, key in list(_library_functions(module)):
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(key, obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def layer_totals(self):
        """{layer: (calls, self seconds)} summed over the layer's functions."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for key, (calls, self_s, _) in self.stats.items():
            layer = key.partition(".")[0]
            out[layer][0] += calls
            out[layer][1] += self_s
        return out


def is_traced(fn):
    return hasattr(fn, "span_key")
