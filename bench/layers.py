"""Span tracing around the public functions of every finitetop module.

`Tracer.install()` replaces each public function, each dataclass
`__post_init__` and a few heavy methods with a wrapper that records a span
(name, group, start, end, parent) in memory. Every module namespace that
binds the same function object gets the wrapper, so names that `cli`
pulls in with `from ... import` are traced too. `uninstall()` puts the
originals back. Nothing here runs unless a traced run asks for it.
"""

import importlib
import time
import types
from collections import Counter

LAYERS = ("cli", "formats", "spaces", "construct", "filters", "locales", "pmetric", "approx", "logic")

# function name -> group; names not listed fall into the layer's "other" group
GROUPS = {
    "spaces": {
        "separation_profile": "separation",
        "generate_topology": "generate",
        "topology_from_poset": "generate",
        "topology_from_closure": "generate",
        "topology_from_neighborhoods": "generate",
        "all_topologies": "enumerate",
    },
    "construct": {
        "initial_topology": "initial",
        "product": "initial",
        "subspace": "initial",
        "final_topology": "final",
        "topological_sum": "final",
        "quotient": "final",
        "one_point_extension": "onepoint",
        "is_continuous": "continuity",
        "is_homeomorphism": "continuity",
    },
    "locales": {
        "points_of_locale": "points",
        "phi_map": "points",
        "irreducible_closed_sets": "sober",
        "hofmann_mislove_report": "hm",
        "scott_topology": "scott",
        "is_scott_continuous": "scott",
        "heyting_implication": "heyting",
        "heyting_negation": "heyting",
    },
    "pmetric": {
        "banach_fixed_point": "solver",
        "pagerank": "solver",
        "stationary_by_squaring": "solver",
        "pseudometric_from_chain": "chain",
        "uniformity_from_partitions": "chain",
        "RelationChain.__post_init__": "chain",
        "PMetricSpace.__post_init__": "validate",
        "StochasticMatrix.__post_init__": "validate",
    },
    "logic": {"parse_formula": "parse"},
}
DEFAULT_GROUP = {"cli": "other", "formats": "other", "spaces": "other", "construct": "other",
                 "filters": "all", "locales": "other", "pmetric": "metric", "approx": "all",
                 "logic": "models"}
# called once per valuation or per subset: timed inside their callers instead
HOT = {"logic": ("evaluate",), "locales": ("is_saturated",)}
EXTRA_METHODS = {"spaces": ("ClosureTable.validate",), "logic": ("Theory.models",)}

# per-layer metric -> (layer, groups whose self time it sums); None = every group
TIME_METRICS = {
    "cli.render_ms": ("cli", ("render",)),
    "formats.parse_ms": ("formats", ("parse",)),
    "spaces.validate_ms": ("spaces", ("validate",)),
    "spaces.separation_ms": ("spaces", ("separation",)),
    "spaces.generate_ms": ("spaces", ("generate",)),
    "spaces.enumerate_ms": ("spaces", ("enumerate",)),
    "construct.initial_ms": ("construct", ("initial",)),
    "construct.final_ms": ("construct", ("final",)),
    "construct.onepoint_ms": ("construct", ("onepoint",)),
    "construct.continuity_ms": ("construct", ("continuity",)),
    "filters.ms": ("filters", None),
    "locales.points_ms": ("locales", ("points",)),
    "locales.sober_ms": ("locales", ("sober",)),
    "locales.hm_ms": ("locales", ("hm",)),
    "locales.scott_ms": ("locales", ("scott",)),
    "locales.heyting_ms": ("locales", ("heyting",)),
    "pmetric.validate_ms": ("pmetric", ("validate",)),
    "pmetric.metric_ms": ("pmetric", ("metric",)),
    "pmetric.chain_ms": ("pmetric", ("chain",)),
    "pmetric.solver_ms": ("pmetric", ("solver",)),
    "approx.ms": ("approx", None),
    "logic.parse_ms": ("logic", ("parse",)),
    "logic.models_ms": ("logic", ("models",)),
}
COUNT_METRICS = ("spaces.opens_built", "pmetric.fixpoint_iterations", "logic.valuations_swept")


def _group(layer, name):
    if layer == "cli":
        return "render" if name.startswith("cmd_") else ("main" if name == "main" else "other")
    if layer == "formats":
        return "parse" if name.startswith("load_") else ("dump" if name.startswith("dump_") else "other")
    return GROUPS.get(layer, {}).get(name, DEFAULT_GROUP[layer])


class Tracer:
    def __init__(self):
        self.spans = []  # (name, "layer.group", start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _record(self, fn, name, key, after=None):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, key(args) if callable(key) else key, t0, t1, parent)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = {layer: importlib.import_module(f"finitetop.{layer}") for layer in LAYERS}
        namespaces = list(mods.values()) + [importlib.import_module("finitetop")]
        originals = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__ or name in HOT.get(layer, ())):
                    continue
                originals[id(obj)] = self._record(obj, name, f"{layer}.{_group(layer, name)}")
            for cname, cls in vars(mod).items():
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                if "__post_init__" in cls.__dict__:
                    self._patch(cls, "__post_init__", self._post_init(layer, cname, cls.__post_init__))
            for spec in EXTRA_METHODS.get(layer, ()):
                cname, meth = spec.split(".")
                cls = getattr(mod, cname)
                self._patch(cls, meth, self._record(cls.__dict__[meth], spec, f"{layer}.{_group(layer, meth)}"))
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in originals:
                    self._patch(ns, name, originals[id(obj)])
        self._count_valuations(mods["logic"].Theory)
        self._count_iterations(mods["pmetric"])

    def _post_init(self, layer, cname, fn):
        spec = f"{cname}.__post_init__"
        if layer == "spaces" and cname == "FiniteSpace":
            counts = self.counts

            def opens_built(args, _):
                counts["spaces.opens_built"] += len(args[0].opens)

            key = lambda args: "spaces.construct" if args[0]._trusted else "spaces.validate"  # noqa: E731
            return self._record(fn, spec, key, after=opens_built)
        return self._record(fn, spec, f"{layer}.{GROUPS.get(layer, {}).get(spec, 'construct')}")

    def _count_valuations(self, theory_cls):
        orig = theory_cls.__dict__["valuations"]
        counts = self.counts

        def valuations(theory):
            for v in orig(theory):
                counts["logic.valuations_swept"] += 1
                yield v

        self._patch(theory_cls, "valuations", valuations)

    def _count_iterations(self, pmetric):
        wrapped = pmetric.banach_fixed_point  # already the span wrapper
        counts = self.counts

        def banach_fixed_point(*args, **kwargs):
            res = wrapped(*args, **kwargs)
            counts["pmetric.fixpoint_iterations"] += res.iterations
            return res

        for ns in (pmetric, importlib.import_module("finitetop")):
            self._patch(ns, "banach_fixed_point", banach_fixed_point)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self):
        """Spans and counts as plain JSON-ready data."""
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans):
    """Self time (s) per "layer.group": span duration minus its children's."""
    child = [0.0] * len(spans)
    for name, key, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = Counter()
    calls = Counter()
    for (name, key, t0, t1, parent), c in zip(spans, child):
        out[key] += (t1 - t0) - c
        calls[key.split(".")[0]] += 1
    return out, calls


def layer_metrics(spans, counts, ops):
    """Per-operation per-layer metrics from one traced run's spans."""
    selfs, calls = self_times(spans)
    per = 1000.0 / max(ops, 1)
    out = {}
    for metric, (layer, groups) in TIME_METRICS.items():
        total = sum(v for k, v in selfs.items()
                    if k.split(".")[0] == layer and (groups is None or k.split(".")[1] in groups))
        out[metric] = (total * per, "ms/op")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (sum(v for k, v in selfs.items() if k.split(".")[0] == layer) * per, "ms/op")
        out[f"{layer}.calls"] = (calls[layer] / max(ops, 1), "calls/op")
    for metric in COUNT_METRICS:
        out[metric] = (counts.get(metric, 0) / max(ops, 1), "count/op")
    return out
