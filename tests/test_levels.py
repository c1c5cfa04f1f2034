"""The level rule: every public entry point that takes a level refuses one
outside (0, 1), NaN included, with a ConfigurationError."""

import importlib
import inspect
import math

import numpy as np
import pytest

import evmt
from evmt import ConfigurationError
from evmt.adaptive import RejectionCurves

_MODULES = ["procedures", "groups", "hybrid", "adaptive", "knockoffs", "simulate"]
# result records hold the level of the call that built them, which checked it
_RECORDS = {"evmt.groups.GroupReport", "evmt.hybrid.LooThresholds", "evmt.simulate.MetricsReport"}
_GOOD = 0.2
_BAD = [0.0, 1.0, -0.1, 1.5, math.nan]


def _with_levels():
    """Public callables of ``evmt`` and of each module's ``__all__`` with a
    parameter whose name contains ``alpha``: {qualified name: parameters}."""
    found = {}
    for mod in [evmt] + [importlib.import_module(f"evmt.{m}") for m in _MODULES]:
        names = getattr(mod, "__all__", [n for n in dir(mod) if not n.startswith("_")])
        for name in names:
            obj = getattr(mod, name)
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            levels = [q for q in params if "alpha" in q]
            key = f"{obj.__module__}.{obj.__qualname__}"
            if levels and key not in _RECORDS:
                found[key] = levels
    return found


def _calls():
    """A valid call of each entry point, given its levels as keywords."""
    rng = np.random.default_rng(11)
    p = rng.uniform(size=40)
    p[:8] *= 1e-4
    x = rng.normal(size=40)
    part = evmt.GroupPartition.from_sizes([15, 25])
    folds = evmt.GroupPartition(labels=np.arange(40) % 2, n_groups=2)
    curves = RejectionCurves(rng.uniform(0.3, 0.8, 40), rng.uniform(0.2, 0.8, 40))
    thr = evmt.groupwise_bc_thresholds(p, part, _GOOD)
    fold_thr = evmt.fbc_group_threshold(p, folds, curves, _GOOD)
    w_a, w_b = rng.normal(size=(2, 40))
    return {
        "evmt.procedures.ProcedureSpec": lambda **a: evmt.ProcedureSpec(kind="bh", **a),
        "evmt.procedures.ebh_select": lambda **a: evmt.ebh_select(1.0 / p, **a),
        "evmt.groups.groupwise_bc_thresholds": lambda **a: evmt.groupwise_bc_thresholds(p, part, **a),
        "evmt.groups.assemble_weights": lambda **a: evmt.assemble_weights(p, part, thr, "adaptive", **a),
        "evmt.groups.run_grouped_ebh": lambda **a: evmt.run_grouped_ebh(p, part, **a),
        "evmt.hybrid.HybridConfig": lambda **a: evmt.HybridConfig(**a),
        "evmt.hybrid.bh_evalues": lambda **a: evmt.bh_evalues(p, **a),
        "evmt.hybrid.bc_evalues": lambda **a: evmt.bc_evalues(p, **a),
        "evmt.hybrid.compute_loo_thresholds": lambda **a: evmt.compute_loo_thresholds(p, **a),
        "evmt.knockoffs.knockoff_threshold": lambda **a: evmt.knockoff_threshold(w_a, **a),
        "evmt.knockoffs.knockoff_evalues": lambda **a: evmt.knockoff_evalues(w_a, **a),
        "evmt.knockoffs.combine_and_select": lambda **a: evmt.combine_and_select(w_a, w_b, **a),
        "evmt.adaptive.fbc_group_threshold": lambda **a: evmt.fbc_group_threshold(p, folds, curves, **a),
        "evmt.adaptive.structure_weights": (
            lambda **a: evmt.structure_weights(p, folds, curves, fold_thr, "cheap", **a)
        ),
        "evmt.adaptive.run_structure_adaptive": lambda **a: evmt.run_structure_adaptive(p, x, **a),
        "evmt.simulate.SimulationConfig": lambda **a: evmt.SimulationConfig("S1", **a),
    }


_LEVELS = _with_levels()


@pytest.mark.parametrize("name", sorted(_LEVELS))
def test_every_level_must_lie_in_the_open_unit_interval(name):
    calls = _calls()
    assert name in calls, f"{name} takes a level: give it a valid call here"
    call = calls[name]
    levels = _LEVELS[name]
    good = {level: _GOOD for level in levels}
    call(**good)
    for level in levels:
        for bad in _BAD:
            with pytest.raises(ConfigurationError):
                call(**{**good, level: bad})
