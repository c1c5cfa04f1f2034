"""Span recorder that wraps the functions each ``evmt`` module offers.

A layer is one module of the package.  :meth:`Tracer.install` wraps every
function a layer exports (its ``__all__``, plus ``main``, ``read_table`` and
``build_parser`` for ``cli``), every function of a layer that another
``evmt`` module imports (such as ``hybrid._hybrid_evalues``, which ``cli``
calls) and the constructors of ``GroupPartition``.  Each wrapped call
records a span: name, start, end, parent span and, for some functions,
counts read off its arguments or result.  Spans stay in memory until
:meth:`Tracer.dump` writes them out; :func:`layer_metrics` reduces one or
more dumps to the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("cli", "procedures", "groups", "hybrid", "adaptive", "knockoffs", "simulate")
_CLI_ENTRY_POINTS = ("main", "read_table", "build_parser")


def _size(x):
    return int(getattr(x, "size", 0) or len(x))


def _out_bytes(argv):
    """Bytes of the rejection table and JSON summary a CLI call wrote."""
    argv = list(argv or [])
    if "--out" not in argv:
        return 0
    out = argv[argv.index("--out") + 1]
    total = 0
    for path in (out, os.path.splitext(out)[0] + ".json"):
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


def _n_groups(args, kwargs):
    part = kwargs.get("part", args[1] if len(args) > 1 else None)
    return int(getattr(part, "n_groups", 0))


# name -> counts taken after a successful call from (args, kwargs, result)
_COUNTS = {
    "cli.main": lambda a, k, r: {"out_bytes": _out_bytes(a[0] if a else k.get("argv"))},
    "cli.read_table": lambda a, k, r: {"in_bytes": os.path.getsize(a[0] if a else k["path"])},
    "procedures.solve_threshold": lambda a, k, r: {"items": _size(a[0] if a else k["pvals"])},
    "procedures.ebh_select": lambda a, k, r: {"items": _size(a[0] if a else k["evalues"])},
    "groups.groupwise_bc_thresholds": lambda a, k, r: {"group_passes": _n_groups(a, k)},
    "groups.assemble_weights": lambda a, k, r: {"group_passes": _n_groups(a, k)},
    "groups.group_evalues": lambda a, k, r: {"group_passes": _n_groups(a, k)},
    "groups.run_grouped_ebh": lambda a, k, r: {
        "group_passes": _n_groups(a, k) if r.group_fdp is not None else 0
    },
    "hybrid.bh_evalues": lambda a, k, r: {"bh_rejected": int((r > 0).sum())},
    "hybrid._hybrid_evalues": lambda a, k, r: {
        "items": _size(a[0] if a else k["pvals"]),
        "exact": int((a[1] if len(a) > 1 else k["config"]).weight_mode == "adaptive"),
    },
    "adaptive.fit_lfdr_em": lambda a, k, r: {"em_iters": r.n_iter, "unconverged": int(not r.converged)},
}


class Tracer:
    """Records spans around the wrapped ``evmt`` functions of one process."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, counts]
        self._stack = []
        self._patched = []  # (owner, attribute, original value)

    def wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, _COUNTS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layer functions in every ``evmt`` namespace that holds them."""
        package = importlib.import_module("evmt")
        modules = {layer: importlib.import_module(f"evmt.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        targets = {}
        for layer, mod in modules.items():
            offered = set(getattr(mod, "__all__", ()))
            if layer == "cli":
                offered.update(_CLI_ENTRY_POINTS)
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                imported = any(
                    ns is not mod and any(v is obj for v in vars(ns).values())
                    for ns in namespaces
                )
                if attr in offered or imported:
                    targets[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in targets and inspect.isfunction(obj):
                    self._set(ns, attr, targets[id(obj)])

        part_cls = modules["groups"].GroupPartition
        for attr in ("from_labels", "from_sizes"):
            fn = part_cls.__dict__[attr].__func__
            self._set(part_cls, attr, classmethod(self.wrap("groups.partition", fn)))
        self._set(part_cls, "__init__", self.wrap("groups.partition", part_cls.__init__))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        """Write the spans as JSON: a name table plus one row per span."""
        names = sorted({rec[0] for rec in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[r[0]], r[1], r[2], r[3], r[4]] for r in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "spans": rows}, handle, separators=(",", ":"))


def _load(path):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    names = data["names"]
    return [(names[r[0]], r[1], r[2], r[3], r[4] or {}) for r in data["spans"]]


def layer_metrics(paths):
    """Per-layer metrics summed over span files (one file per traced process).

    For a function, ``.s`` is the time inside its outermost calls (a call
    nested in a call of the same name is not counted twice) and ``.self_s``
    the time not covered by the wrapped calls it made.  For a layer,
    ``.s`` is the time spent inside the layer when entered from outside it,
    and ``.self_s`` the sum of its functions' self times.
    """
    fn_s, fn_self, fn_calls, counts = {}, {}, {}, {}
    layer_s = dict.fromkeys(LAYERS, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    n_spans = 0
    for path in paths:
        spans = _load(path)
        n_spans += len(spans)
        child_time = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, cnt) in enumerate(spans):
            layer = name.split(".", 1)[0]
            dur = (end - start) / 1e9
            own = dur - child_time[i] / 1e9
            fn_calls[name] = fn_calls.get(name, 0) + 1
            fn_self[name] = fn_self.get(name, 0.0) + own
            layer_calls[layer] += 1
            layer_self[layer] += own
            # walk up once: same-name and same-layer ancestry
            nested_name = nested_layer = False
            p = parent
            while p >= 0 and not (nested_name and nested_layer):
                pname = spans[p][0]
                nested_name = nested_name or pname == name
                nested_layer = nested_layer or pname.split(".", 1)[0] == layer
                p = spans[p][3]
            if not nested_name:
                fn_s[name] = fn_s.get(name, 0.0) + dur
            if not nested_layer:
                layer_s[layer] += dur
            for key, value in cnt.items():
                if key == "bh_rejected":
                    # BH-rejected hypotheses of an exact-weight blend call
                    # are the ones whose weight rescans the grid
                    caller = spans[parent] if parent >= 0 else None
                    if caller and caller[0] == "hybrid._hybrid_evalues" and caller[4].get("exact"):
                        counts["hybrid.exact_rescans"] = counts.get("hybrid.exact_rescans", 0) + value
                    continue
                counts[(name, key)] = counts.get((name, key), 0) + value

    def total(*keys):
        return sum(counts.get(k, 0) for k in keys)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (layer_calls[layer], "count")
        m[f"{layer}.s"] = (layer_s[layer], "s")
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    for name in (
        "cli.read_table", "groups.partition", "groups.groupwise_bc_thresholds",
        "groups.assemble_weights", "hybrid.compute_loo_thresholds",
        "procedures.solve_threshold", "procedures.ebh_select", "adaptive.fit_lfdr_em",
        "adaptive.fbc_group_threshold", "adaptive.structure_weights",
        "knockoffs.knockoff_threshold", "simulate.generate",
    ):
        m[f"{name}.s"] = (fn_s.get(name, 0.0), "s")
    for name in ("procedures.solve_threshold", "procedures.ebh_select", "adaptive.fit_lfdr_em"):
        m[f"{name}.calls"] = (fn_calls.get(name, 0), "count")
    for name in (
        "cli.main", "groups.run_grouped_ebh", "adaptive.cross_fit",
        "knockoffs.combine_and_select", "simulate.run_campaign",
    ):
        m[f"{name}.self_s"] = (fn_self.get(name, 0.0), "s")
    m["hybrid.weights.self_s"] = (fn_self.get("hybrid._hybrid_evalues", 0.0), "s")
    m["cli.input_bytes"] = (total(("cli.read_table", "in_bytes")), "bytes")
    m["cli.output_bytes"] = (total(("cli.main", "out_bytes")), "bytes")
    m["groups.group_passes"] = (
        total(*[(f"groups.{f}", "group_passes") for f in
                ("groupwise_bc_thresholds", "assemble_weights", "group_evalues", "run_grouped_ebh")]),
        "count",
    )
    m["hybrid.exact_rescans"] = (counts.get("hybrid.exact_rescans", 0), "count")
    m["hybrid.items"] = (total(("hybrid._hybrid_evalues", "items")), "count")
    m["procedures.items"] = (
        total(("procedures.solve_threshold", "items"), ("procedures.ebh_select", "items")), "count"
    )
    m["adaptive.em_iters"] = (total(("adaptive.fit_lfdr_em", "em_iters")), "count")
    m["adaptive.em_unconverged"] = (total(("adaptive.fit_lfdr_em", "unconverged")), "count")
    m["trace.spans"] = (n_spans, "count")
    return m
