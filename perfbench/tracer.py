"""Per-layer tracing of rtcalc from outside the package.

``Tracer.install`` wraps the public functions and methods of each measured
module, plus the arithmetic dunders of ``fractions.Fraction``, and
``uninstall`` puts the originals back.  A wrapped call that enters a layer
from another layer opens a span (function, start, end, parent span, job id);
calls inside the same layer are only counted.  Spans are kept in compact
arrays in memory and written out when the run ends; a layer's self time is
the time its spans cover minus the time their child spans cover.

Code handed across layers is attributed to the layer that defined it in two
places: the callback of ``LinComb.map_terms`` and the generator given to
``lc_sum`` (state expansions in prelie and hopf), and a decoration map's
action, which counts for ``spde`` when ``action.__module__`` is spde.  Other
closures, such as sort keys, run inside the span of the layer calling them.
"""

from __future__ import annotations

import fractions
import json
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("fractions", "lincomb", "trees", "decorations", "phimaps", "spde", "prelie", "hopf", "parsing", "mapfiles")
# Measured rtcalc modules; cli, postlie, ratmat and verify are left out on purpose.
PACKAGE_LAYERS = LAYERS[1:]

FRACTION_OPS = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__abs__", "__pow__", "__rpow__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__bool__",
)
# Dunders that do work (as opposed to hashing, lengths and item access).
CLASS_DUNDERS = ("__init__", "__post_init__", "__call__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__")
REBUILDS = ("rebuild_tree", "rebuild_forest", "restrict_state")

WRAPPER_FLAG = "__perfbench_wrapped__"


def _unwrap_descriptor(raw):
    """(function, re-wrap) for a plain function, staticmethod or classmethod."""
    if isinstance(raw, staticmethod):
        return raw.__func__, staticmethod
    if isinstance(raw, classmethod):
        return raw.__func__, classmethod
    if isinstance(raw, types.FunctionType):
        return raw, lambda f: f
    return None, None


def _defined_in(fn, module):
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == getattr(module, "__file__", None)


class Tracer:
    def __init__(self):
        self.on = False
        self.names = []          # function id -> "layer:qualname"
        self.layer_of = []       # function id -> layer index
        self.calls = []          # function id -> calls while on
        self.errors = [0] * len(LAYERS)
        self.s_fid = array("i")
        self.s_parent = array("i")
        self.s_job = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.cur_span = -1
        self.cur_layer = -1
        self.job = -1
        self.counters = defaultdict(int)
        self._distinct_maps = set()
        self._distinct_nodes = set()
        self._patches = []       # (owner, attribute, original raw object)
        self._fid = {}

    # -- recording -------------------------------------------------------

    def _register(self, layer, qualname):
        fid = len(self.names)
        self.names.append(f"{LAYERS[layer]}:{qualname}")
        self.layer_of.append(layer)
        self.calls.append(0)
        self._fid[f"{LAYERS[layer]}:{qualname}"] = fid
        return fid

    def _span(self, fn, fid, layer, args, kwargs):
        idx = len(self.s_fid)
        parent, prev_layer = self.cur_span, self.cur_layer
        self.s_fid.append(fid)
        self.s_parent.append(parent)
        self.s_job.append(self.job)
        self.s_end.append(0)
        self.cur_span, self.cur_layer = idx, layer
        self.s_start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[layer] += 1
            raise
        finally:
            self.s_end[idx] = perf_counter_ns()
            self.cur_span, self.cur_layer = parent, prev_layer

    def _make(self, fn, layer, qualname, hook=None):
        fid = self._register(layer, qualname)
        rec = self

        if hook is None:
            def wrapper(*args, **kwargs):
                if not rec.on:
                    return fn(*args, **kwargs)
                rec.calls[fid] += 1
                if rec.cur_layer == layer:
                    return fn(*args, **kwargs)
                return rec._span(fn, fid, layer, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                if not rec.on:
                    return fn(*args, **kwargs)
                rec.calls[fid] += 1
                start = perf_counter_ns()
                if rec.cur_layer == layer:
                    result = fn(*args, **kwargs)
                else:
                    result = rec._span(fn, fid, layer, args, kwargs)
                hook(args, result, perf_counter_ns() - start)
                return result

        wrapper.__wrapped__ = fn
        setattr(wrapper, WRAPPER_FLAG, True)
        return wrapper

    def start_job(self, job):
        self.job = job
        self._distinct_maps.clear()
        self._distinct_nodes.clear()

    def end_job(self):
        self.counters["map_distinct"] += len(self._distinct_maps)
        self.counters["node_distinct"] += len(self._distinct_nodes)
        self._distinct_maps.clear()
        self._distinct_nodes.clear()

    # -- hooks -----------------------------------------------------------

    def _hooks(self):
        c = self.counters

        def add(args, result, dt):
            left, right = args
            if isinstance(right, type(left)):
                c["add_terms_copied"] += len(left)
                c["add_useful"] += len(right)
                c["add_total"] += len(left) + len(right)

        def items(args, result, dt):
            c["sorted_terms"] += len(result)

        def render(args, result, dt):
            if self.cur_layer != LAYERS.index("lincomb"):
                c["render_ns"] += dt

        def node(args, result, dt):
            self._distinct_nodes.add(result)

        def out_terms(key):
            def hook(args, result, dt):
                c[key] += len(result)
            return hook

        def pair(args, result, dt):
            # numerator, not a comparison: the hook must not call Fraction's wrapped dunders
            c["pair_nonzero"] += result.numerator != 0

        return {
            "lincomb:LinComb.__add__": add,
            "lincomb:LinComb.__sub__": add,
            "lincomb:LinComb.items": items,
            "lincomb:LinComb.render": render,
            "trees:node": node,
            "prelie:graft_phi": out_terms("prelie_out"),
            "prelie:graft_free": out_terms("prelie_out"),
            "prelie:theta": out_terms("prelie_out"),
            "hopf:star_product": out_terms("hopf_out"),
            "hopf:cut_coproduct": out_terms("hopf_out"),
            "hopf:Pairing.forests": pair,
        }

    def _phimap_call(self, fn, spde_module):
        """PhiMap.__call__: a phimaps span, with an spde span inside it when
        the map's action was defined in spde."""
        phimaps_layer, spde_layer = LAYERS.index("phimaps"), LAYERS.index("spde")
        fid = self._register(phimaps_layer, "PhiMap.__call__")
        action_fid = self._register(spde_layer, "<map action>")
        rec = self

        def wrapper(phi, a, b):
            if not rec.on:
                return fn(phi, a, b)
            rec.calls[fid] += 1
            rec._distinct_maps.add((id(phi), a, b))
            if getattr(phi.action, "__module__", None) != spde_module:
                if rec.cur_layer == phimaps_layer:
                    return fn(phi, a, b)
                return rec._span(fn, fid, phimaps_layer, (phi, a, b), {})
            rec.calls[action_fid] += 1
            if rec.cur_layer == phimaps_layer:
                return rec._span(fn, action_fid, spde_layer, (phi, a, b), {})
            return rec._span(rec._span, fid, phimaps_layer, (fn, action_fid, spde_layer, (phi, a, b), {}), {})

        wrapper.__wrapped__ = fn
        setattr(wrapper, WRAPPER_FLAG, True)
        return wrapper

    def _defining_layer(self, obj, package):
        """The measured package layer whose module defined a callback or a
        generator, or None."""
        frame = getattr(obj, "gi_frame", None)
        module = frame.f_globals.get("__name__", "") if frame is not None else getattr(obj, "__module__", "")
        prefix = package + "."
        if module and module.startswith(prefix) and module[len(prefix):] in PACKAGE_LAYERS:
            return LAYERS.index(module[len(prefix):])
        return None

    def _lincomb_with_callback(self, fn, package, qualname):
        """LinComb.map_terms and lc_sum take code from their caller (a
        callback, a generator); that code runs in a span of the layer that
        defined it, so state expansions count where their code lives."""
        lincomb = LAYERS.index("lincomb")
        fid = self._register(lincomb, qualname)
        inner_fids = {LAYERS.index(n): self._register(LAYERS.index(n), f"<code run by {qualname}>")
                      for n in PACKAGE_LAYERS if n != "lincomb"}
        rec = self
        done = object()

        def spanned(arg):
            layer = rec._defining_layer(arg, package)
            if layer is None or layer == lincomb:
                return arg
            inner_fid = inner_fids[layer]
            if callable(arg):
                def callback(term):
                    rec.calls[inner_fid] += 1
                    return rec._span(arg, inner_fid, layer, (term,), {})
                return callback

            def items():
                while True:
                    item = rec._span(next, inner_fid, layer, (arg, done), {})
                    if item is done:
                        return
                    rec.calls[inner_fid] += 1
                    yield item
            return items()

        def wrapper(*args):
            if not rec.on:
                return fn(*args)
            rec.calls[fid] += 1
            args = args[:-1] + (spanned(args[-1]),)
            if rec.cur_layer == lincomb:
                return fn(*args)
            return rec._span(fn, fid, lincomb, args, {})

        wrapper.__wrapped__ = fn
        setattr(wrapper, WRAPPER_FLAG, True)
        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, rt):
        """Wrap the measured layers of the rtcalc modules in ``rt``."""
        hooks = self._hooks()
        frac = LAYERS.index("fractions")
        for name in FRACTION_OPS:
            raw = fractions.Fraction.__dict__.get(name)
            fn, rewrap = _unwrap_descriptor(raw)
            if fn is not None:
                self._patch(fractions.Fraction, name, rewrap(self._make(fn, frac, f"Fraction.{name}")))

        replaced = {}  # id(original module-level function) -> wrapper
        for layer_name in PACKAGE_LAYERS:
            module = getattr(rt, layer_name)
            layer = LAYERS.index(layer_name)
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and not attr.startswith("_") and _defined_in(obj, module):
                    if layer_name == "lincomb" and attr == "lc_sum":
                        wrapper = self._lincomb_with_callback(obj, module.__package__, attr)
                    else:
                        wrapper = self._make(obj, layer, attr, hooks.get(f"{layer_name}:{attr}"))
                    replaced[id(obj)] = (obj, wrapper)
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, module, layer, hooks)
        for module in [m for n, m in sys.modules.items() if n == "rtcalc" or n.startswith("rtcalc.")]:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        self.on = True

    def _wrap_class(self, cls, module, layer, hooks):
        layer_name = LAYERS[layer]
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in CLASS_DUNDERS:
                continue
            fn, rewrap = _unwrap_descriptor(raw)
            if fn is None or not _defined_in(fn, module):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if layer_name == "phimaps" and qualname == "PhiMap.__call__":
                wrapper = self._phimap_call(fn, f"{module.__package__}.spde")
            elif layer_name == "lincomb" and qualname == "LinComb.map_terms":
                wrapper = self._lincomb_with_callback(fn, module.__package__, qualname)
            else:
                wrapper = self._make(fn, layer, qualname, hooks.get(f"{layer_name}:{qualname}"))
            self._patch(cls, attr, rewrap(wrapper))

    def uninstall(self):
        self.on = False
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @staticmethod
    def leftover_wrappers():
        """Names of tracer wrappers still reachable from rtcalc or Fraction."""
        owners = [fractions.Fraction]
        for n, m in sys.modules.items():
            if n == "rtcalc" or n.startswith("rtcalc."):
                owners.append(m)
                owners.extend(v for v in vars(m).values() if isinstance(v, type) and v.__module__ == n)
        found = []
        for owner in owners:
            for attr, raw in vars(owner).items():
                fn = getattr(raw, "__func__", raw)
                if getattr(fn, WRAPPER_FLAG, False):
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return found

    # -- results ---------------------------------------------------------

    def self_ns_by_layer(self):
        n = len(self.s_fid)
        child = [0] * n
        parent, start, end = self.s_parent, self.s_start, self.s_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = [0] * len(LAYERS)
        layer_of, fid = self.layer_of, self.s_fid
        for i in range(n):
            out[layer_of[fid[i]]] += end[i] - start[i] - child[i]
        return out

    def calls_by_layer(self):
        out = [0] * len(LAYERS)
        for fid, n in enumerate(self.calls):
            out[self.layer_of[fid]] += n
        return out

    def calls_of(self, *names):
        return sum(self.calls[self._fid[n]] for n in names if n in self._fid)

    def metrics(self):
        """Every per-layer metric, by name, as (value, unit)."""
        c = self.counters
        self_s = [ns / 1e9 for ns in self.self_ns_by_layer()]
        calls = self.calls_by_layer()
        L = LAYERS.index

        def ratio(num, den):
            return num / den if den else 0.0

        map_calls = self.calls_of("phimaps:PhiMap.__call__")
        node_calls = self.calls_of("trees:node")
        pair_calls = self.calls_of("hopf:Pairing.forests")
        m = {
            "fractions.ops": (calls[L("fractions")], "count"),
            "lincomb.calls": (calls[L("lincomb")], "count"),
            "lincomb.add_terms_copied": (c["add_terms_copied"], "count"),
            "lincomb.add_useful_ratio": (ratio(c["add_useful"], c["add_total"]), "ratio"),
            "lincomb.sorted_terms": (c["sorted_terms"], "count"),
            "lincomb.render_s": (c["render_ns"] / 1e9, "s"),
            "trees.node_calls": (node_calls, "count"),
            "trees.node_distinct_ratio": (ratio(c["node_distinct"], node_calls), "ratio"),
            "trees.rebuild_calls": (self.calls_of(*(f"trees:{n}" for n in REBUILDS)), "count"),
            "decorations.calls": (calls[L("decorations")], "count"),
            "phimaps.map_calls": (map_calls, "count"),
            "phimaps.map_distinct_ratio": (ratio(c["map_distinct"], map_calls), "ratio"),
            "phimaps.guard_calls": (self.calls_of("phimaps:ensure_usable"), "count"),
            "spde.calls": (calls[L("spde")], "count"),
            "prelie.graft_calls": (self.calls_of("prelie:graft_phi"), "count"),
            "prelie.theta_calls": (self.calls_of("prelie:theta"), "count"),
            "prelie.out_terms": (c["prelie_out"], "count"),
            "hopf.star_calls": (self.calls_of("hopf:star_product"), "count"),
            "hopf.cut_calls": (self.calls_of("hopf:cut_coproduct"), "count"),
            "hopf.pair_calls": (pair_calls, "count"),
            "hopf.pair_nonzero_ratio": (ratio(c["pair_nonzero"], pair_calls), "ratio"),
            "hopf.out_terms": (c["hopf_out"], "count"),
            "parsing.calls": (calls[L("parsing")], "count"),
            "mapfiles.calls": (calls[L("mapfiles")], "count"),
        }
        for i, layer in enumerate(LAYERS):
            m[f"{layer}.self_s"] = (self_s[i], "s")
            m[f"{layer}.errors"] = (self.errors[i], "count")
        return m

    def write(self, stem):
        """Write the spans: ``stem.json`` describes the arrays in ``stem.bin``."""
        arrays = (("fid", self.s_fid), ("parent", self.s_parent), ("job", self.s_job),
                  ("start_ns", self.s_start), ("end_ns", self.s_end))
        with open(f"{stem}.bin", "wb") as out:
            for _, arr in arrays:
                arr.tofile(out)
        header = {
            "spans": len(self.s_fid),
            "arrays": [[name, arr.typecode, arr.itemsize] for name, arr in arrays],
            "functions": self.names,
            "layers": list(LAYERS),
            "layer_of": self.layer_of,
        }
        with open(f"{stem}.json", "w") as out:
            json.dump(header, out)
