"""Per-layer spans and work counters, recorded from outside phl.

Tracer.install() rebinds every public function of each layer module
(and the constructor of every public class) in each phl module's
globals, where phl looks the names up at call time.  Calls inside one
module and across modules are therefore caught too.  homs._solutions is
private; it is rebound only in gscheme and evsystem, which import it.

A span is (name, start, end, parent, op id).  A generator is timed by
one span per next(), so its time is the sum of the time spent inside
it.  Spans are kept in flat arrays and aggregated per layer at the end:
a layer's self time is the duration of its spans minus that of their
direct children.

Counters are exact work counts: two runs of the same inputs give the
same numbers, however noisy the timings are.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

LAYERS = (
    "poset", "canonical", "homs", "evsystem", "lovasz",
    "gscheme", "construction", "serialize", "cli",
)
# Modules that are not measured as layers but still look up layer functions.
OTHER_MODULES = ("randgen", "examples", "config", "errors", "_bits")
KINDS = ("hom", "strict", "strict_onto", "emb", "aut")
COUNTERS = (
    "poset.constructed",
    "canonical.canonical_form.calls",
    "canonical.classes_yielded",
    *(f"homs.count_maps.{kind}.calls" for kind in KINDS),
    "homs.maps_counted",
    "homs.solutions_yielded",
    "homs.enumerate_maps.yielded",
    "gscheme.classes_checked",
    "evsystem.points_built",
    "evsystem.maps_checked",
    "lovasz.embeddable_classes",
    "construction.grafts",
    "serialize.docs_loaded",
)
_SOLUTIONS_SITES = ("gscheme", "evsystem")
_DOC_LOADERS = ("load_poset_arg", "load_certificate", "load_construction_spec")


class Tracer:
    """Span store plus counters; one per traced process."""

    def __init__(self):
        self.op = -1  # -1 while setting up, then the index of the current op
        self.span_names: list[str] = []
        self.span_layer: list[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.stack: list[int] = []
        self.calls = [0] * len(LAYERS)
        self.counts: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _name_id(self, layer: str, name: str) -> int:
        self.span_names.append(f"{layer}.{name}")
        self.span_layer.append(LAYERS.index(layer))
        return len(self.span_names) - 1

    # -- wrappers ----------------------------------------------------------

    def _hook(self, name: str):
        """Counter update run on a call's arguments and result, or None."""
        counts = self.counts
        if name == "Poset":
            return lambda args, kwargs, result: counts.update(("poset.constructed",))
        if name == "canonical_form":
            return lambda args, kwargs, result: counts.update(
                ("canonical.canonical_form.calls",)
            )
        if name == "count_maps":
            def count(args, kwargs, result):
                kind = args[0] if args else kwargs["kind"]
                counts[f"homs.count_maps.{kind}.calls"] += 1
                counts["homs.maps_counted"] += result
            return count
        if name == "EVSystem":
            return lambda args, kwargs, result: counts.update(
                {"evsystem.points_built": len(args[2])}
            )
        if name == "check_ev_scheme":
            return lambda args, kwargs, result: counts.update(
                {"evsystem.maps_checked": result.maps_checked}
            )
        if name == "embeddable_connected":
            return lambda args, kwargs, result: counts.update(
                {"lovasz.embeddable_classes": len(result)}
            )
        if name == "build_graft":
            return lambda args, kwargs, result: counts.update(("construction.grafts",))
        if name in _DOC_LOADERS:
            def loaded(args, kwargs, result):
                if not str(args[0]).startswith("catalog:"):
                    counts["serialize.docs_loaded"] += 1
            return loaded
        return None

    def _yield_keys(self, name: str, site: str) -> tuple[str, ...]:
        """Counters bumped once per item a traced generator yields."""
        if name in ("enumerate_connected", "enumerate_posets"):
            if site == "gscheme":
                return ("canonical.classes_yielded", "gscheme.classes_checked")
            return ("canonical.classes_yielded",)
        if name == "enumerate_maps":
            return ("homs.enumerate_maps.yielded",)
        if name == "_solutions":
            return ("homs.solutions_yielded",)
        return ()

    def wrap(self, func, layer: str, name: str, site: str):
        name_id = self._name_id(layer, name)
        layer_id = LAYERS.index(layer)
        calls = self.calls
        open_, close = self._open, self._close
        hook = self._hook(name)

        if inspect.isgeneratorfunction(func):
            keys = self._yield_keys(name, site)

            def traced_gen(*args, **kwargs):
                calls[layer_id] += 1
                return _TracedIter(self, name_id, func(*args, **kwargs), keys)

            return traced_gen

        def traced(*args, **kwargs):
            calls[layer_id] += 1
            idx = open_(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind the public functions of every layer wherever phl finds them."""
        import phl

        modules = {name: importlib.import_module(f"phl.{name}") for name in LAYERS + OTHER_MODULES}
        targets: dict = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    targets[obj] = (layer, name)
                elif (
                    inspect.isclass(obj)
                    and not issubclass(obj, BaseException)
                    and "__init__" in vars(obj)
                ):
                    init = self.wrap(vars(obj)["__init__"], layer, name, layer)
                    obj.__init__ = init
        solutions = modules["homs"]._solutions
        sites = dict(modules, phl=phl)
        for site, mod in sites.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    layer, fname = targets[obj]
                    setattr(mod, name, self.wrap(obj, layer, fname, site))
                elif obj is solutions and site in _SOLUTIONS_SITES:
                    setattr(mod, name, self.wrap(obj, "homs", "_solutions", site))

    # -- aggregation ---------------------------------------------------------

    def layer_stats(self) -> dict:
        """Calls and self time per layer, plus every counter."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = [0.0] * len(LAYERS)
        for i in range(n):
            self_s[self.span_layer[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        out = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[k]
            out[f"{layer}.self_s"] = self_s[k]
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        out["spans"] = n
        return out


class _TracedIter:
    """Iterator proxy that records one span per next() of a generator."""

    __slots__ = ("tracer", "name_id", "inner", "keys")

    def __init__(self, tracer: Tracer, name_id: int, inner, keys):
        self.tracer = tracer
        self.name_id = name_id
        self.inner = inner
        self.keys = keys

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        idx = tracer._open(self.name_id)
        try:
            item = next(self.inner)
        finally:
            tracer._close(idx)
        for key in self.keys:
            tracer.counts[key] += 1
        return item


def merge(stats: list[dict]) -> dict:
    """Sum per-layer stats of several traced processes."""
    out: dict = {}
    for s in stats:
        for key, value in s.items():
            out[key] = out.get(key, 0) + value
    return out
