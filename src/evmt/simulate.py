"""Seeded Monte Carlo harness: instance generators and FDR/power campaigns.

Every replicate draws from its own counter-based substream
(``Philox`` keyed by ``(seed, replicate)``), so campaigns are reproducible
and insensitive to execution order; methods that need extra randomness
(e.g. the cross-fitting fold split) get a further substream keyed by the
method's registry index.

The methods of one replicate share one memo (``procedures._Memo``).  It
validates the p-values and the partition once, and holds the level-free
scans every method reads its level criterion off: the sorted p-values and
the BC grid for BH, Storey, BC and both hybrid blends, the per-group scans
for the grouped methods, the sign counts of each knockoff family for
``KO_1``, ``KO_2`` and ``KO_Hybrid``.  Methods that share a runner needing
no randomness (``BC`` and ``BC_Com``; ``eBH_Ada`` and ``fast_eBH_Ada`` on
an instance without groups) share one run of it.  The memo goes with the
replicate.

Settings
--------
``E1, E2``          two groups, uniform nulls, Beta-distributed alternatives
``F1, F2, F3``      four-group variants (``F3`` targets level 0.2)
``S1, S2``          z-score models where the step-up and mirror-count
                    procedures respectively dominate
``STRUCT``          covariate-driven mixture with signal-density and
                    signal-strength covariates
``KNOCK_SYNTH``     signed statistics, informative family A plus noise family B
``ALLNULL``         uniform p-values only (optional groups / covariates)
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adaptive import run_structure_adaptive
from .errors import ConfigurationError, InputError
from .groups import GroupPartition, _bc_groups, _check_partition, _grouped
from .hybrid import HybridConfig, _run_hybrid
from .knockoffs import _combine_and_select, _knockoff_threshold, as_stats
from .procedures import ProcedureSpec, _group_fdp_power, _Memo, _solve, as_pvalues, fdp_power

__all__ = [
    "SimulationConfig",
    "SimInstance",
    "MetricsReport",
    "default_parameters",
    "generate",
    "run_campaign",
    "toy_two_group",
]

SETTINGS = ("E1", "E2", "F1", "F2", "F3", "S1", "S2", "STRUCT", "KNOCK_SYNTH", "ALLNULL")

_GROUP_SETTINGS = {
    # (n, n_alt, beta_a, beta_b) per group
    "E1": [(100, 20, 4.0, 500.0), (1000, 20, 0.1, 500.0)],
    "E2": [(100, 20, 0.5, 500.0), (1000, 20, 0.5, 500.0)],
    "F1": [(100, 20, 0.1, 500.0), (100, 20, 0.1, 500.0),
           (1000, 20, 0.1, 500.0), (1000, 20, 0.1, 500.0)],
    "F2": [(100, 1, 0.01, 5000.0), (100, 20, 0.1, 500.0),
           (100, 20, 0.1, 500.0), (100, 20, 0.1, 500.0)],
    "F3": [(50, 2, 0.1, 500.0), (100, 2, 0.1, 500.0),
           (50, 4, 0.2, 500.0), (100, 4, 0.3, 500.0)],
}

_DEFAULT_ALPHA = {"F3": 0.2, "STRUCT": 0.1, "KNOCK_SYNTH": 0.2}


def default_parameters(setting: str) -> dict:
    """Built-in parameter map for a setting (copy, safe to mutate)."""
    setting = setting.upper()
    if setting in _GROUP_SETTINGS:
        return {
            "groups": [
                {"n": n, "n_alt": na, "beta_a": a, "beta_b": b}
                for n, na, a, b in _GROUP_SETTINGS[setting]
            ]
        }
    if setting == "S1":
        return {"n": 1000, "n_alt": 50, "mu": 0.4, "sigma": 1.0}
    if setting == "S2":
        return {"n": 3000, "n_alt": 750, "mu": 0.285, "sigma": 0.4}
    if setting == "STRUCT":
        return {"n": 3000, "a0": 3.5, "a1": 2.5, "a_f": 1.0, "mu": 3.0}
    if setting == "KNOCK_SYNTH":
        return {"p": 200, "n_alt": 30, "mu": 3.0}
    if setting == "ALLNULL":
        return {"n": 200}
    raise ConfigurationError(f"unknown setting {setting!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """One campaign: a setting, its parameters, and the replication plan."""

    setting: str
    parameters: dict = field(default_factory=dict)
    replications: int = 100
    seed: int = 0
    target_alpha: Optional[float] = None

    def __post_init__(self):
        setting = self.setting.upper()
        if setting not in SETTINGS:
            raise ConfigurationError(f"unknown setting {self.setting!r}")
        object.__setattr__(self, "setting", setting)
        if self.replications < 1:
            raise ConfigurationError("replications must be at least 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed}")
        params = default_parameters(setting)
        params.update(self.parameters)
        object.__setattr__(self, "parameters", params)
        if self.target_alpha is None:
            object.__setattr__(
                self, "target_alpha", _DEFAULT_ALPHA.get(setting, 0.05)
            )
        if not (0.0 < self.target_alpha < 1.0):
            raise ConfigurationError("target_alpha must lie in (0, 1)")

    @classmethod
    def from_file(cls, path) -> "SimulationConfig":
        """Read a plain ``key = value`` config file.

        Recognised keys: ``setting``, ``replications``/``reps``, ``seed``,
        ``alpha``/``target_alpha``.  Any other key is parsed as a numeric
        setting parameter.
        """
        fields = {}
        params = {}
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.lower()
                if key == "setting":
                    fields["setting"] = value
                elif key in ("replications", "reps"):
                    fields["replications"] = _config_number(int, path, lineno, key, value)
                elif key == "seed":
                    fields["seed"] = _config_number(int, path, lineno, key, value)
                    if fields["seed"] < 0:
                        raise ConfigurationError(
                            f"{path}:{lineno}: seed must be a non-negative integer, got {value}"
                        )
                elif key in ("alpha", "target_alpha"):
                    fields["target_alpha"] = _config_number(float, path, lineno, key, value)
                else:
                    try:
                        params[key] = json.loads(value)
                    except json.JSONDecodeError as exc:
                        raise InputError(f"{path}:{lineno}: bad value {value!r}") from exc
        if "setting" not in fields:
            raise InputError(f"{path}: missing required key 'setting'")
        return cls(parameters=params, **fields)


def _config_number(kind, path, lineno, key, value):
    """``kind(value)`` for a config file entry; a line-numbered InputError if it fails."""
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise InputError(f"{path}:{lineno}: {key} must be {what}, got {value!r}") from None


@dataclass(frozen=True)
class SimInstance:
    """One simulated data set."""

    pvals: Optional[np.ndarray]
    truth: np.ndarray
    partition: Optional[GroupPartition] = None
    covars: Optional[np.ndarray] = None
    stats_a: Optional[np.ndarray] = None
    stats_b: Optional[np.ndarray] = None


def _replicate_rng(seed: int, replicate: int, lane: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, replicate, lane])))


def generate(config: SimulationConfig, replicate_index: int) -> SimInstance:
    """Draw one replicate; deterministic given (config, seed, index)."""
    rng = _replicate_rng(config.seed, replicate_index)
    params = config.parameters
    setting = config.setting

    if setting in _GROUP_SETTINGS:
        chunks, truths, sizes = [], [], []
        for g in params["groups"]:
            n, na = int(g["n"]), int(g["n_alt"])
            p = rng.uniform(size=n)
            if na:
                p[:na] = rng.beta(g["beta_a"], g["beta_b"], size=na)
            t = np.zeros(n, dtype=int)
            t[:na] = 1
            chunks.append(p)
            truths.append(t)
            sizes.append(n)
        return SimInstance(
            pvals=np.concatenate(chunks),
            truth=np.concatenate(truths),
            partition=GroupPartition.from_sizes(sizes),
        )

    if setting in ("S1", "S2"):
        from scipy.special import ndtr

        n, na = int(params["n"]), int(params["n_alt"])
        x = rng.normal(size=n)
        x[:na] = rng.normal(params["mu"] * np.log(n), params["sigma"], size=na)
        truth = np.zeros(n, dtype=int)
        truth[:na] = 1
        return SimInstance(pvals=1.0 - ndtr(x), truth=truth)

    if setting == "STRUCT":
        from scipy.special import ndtr

        n = int(params["n"])
        x = rng.normal(size=n)
        pi = 1.0 / (1.0 + np.exp(-(params["a0"] + params["a1"] * x)))
        theta = (rng.uniform(size=n) < 1.0 - pi).astype(int)
        x2 = rng.normal(size=n)
        eta = 2.0 / (1.0 + np.exp(-params["a_f"] * x2))
        z = rng.normal(eta * params["mu"] * theta, 1.0)
        return SimInstance(
            pvals=1.0 - ndtr(z), truth=theta, covars=np.column_stack([x, x2])
        )

    if setting == "KNOCK_SYNTH":
        p, na = int(params["p"]), int(params["n_alt"])
        signs = rng.choice([-1.0, 1.0], size=p)
        w_a = signs * np.abs(rng.normal(size=p))
        w_a[:na] = np.abs(rng.normal(params["mu"], 1.0, size=na))
        w_b = rng.choice([-1.0, 1.0], size=p) * np.abs(rng.normal(size=p))
        truth = np.zeros(p, dtype=int)
        truth[:na] = 1
        return SimInstance(pvals=None, truth=truth, stats_a=w_a, stats_b=w_b)

    # ALLNULL
    n = int(params["n"])
    part = None
    if params.get("group_sizes"):
        part = GroupPartition.from_sizes([int(s) for s in params["group_sizes"]])
        if part.n != n:
            raise ConfigurationError("group_sizes must sum to n")
    covars = None
    if params.get("d"):
        covars = rng.normal(size=(n, int(params["d"])))
    return SimInstance(
        pvals=rng.uniform(size=n), truth=np.zeros(n, dtype=int),
        partition=part, covars=covars,
    )


def _need(instance, attr, method):
    value = getattr(instance, attr)
    if value is None:
        raise ConfigurationError(f"method {method} needs {attr} for this setting")
    return value


# Stages of the replicate memo, a _Memo whose data is the SimInstance: the
# memos of its data vectors, validated by the first method that reads them.

def _pvals(rep):
    """Memo of the validated p-values, with the partition when there is one."""
    p = as_pvalues(rep.data.pvals)
    part = rep.data.partition
    if part is not None:
        _check_partition(p, part)
    return _Memo(p, part)


def _stats(rep, which):
    """Memo of one knockoff family's validated statistics."""
    return _Memo(as_stats(getattr(rep.data, f"stats_{which}")))


def _grouped_pvals(rep, method):
    _need(rep.data, "partition", method)
    return rep(_pvals)


def _run_threshold(rep, alpha, kind):
    return _solve(rep(_pvals), ProcedureSpec(kind=kind, alpha=alpha)).rejected


def _run_bc(rep, alpha):
    return _run_threshold(rep, alpha, "bc")


def _run_bc_sep(rep, alpha):
    thresholds = _grouped_pvals(rep, "BC_Sep")(_bc_groups, alpha)[0]
    return np.sort(np.concatenate([res.rejected for res in thresholds]))


def _run_grouped(rep, alpha, scheme):
    return _grouped(_grouped_pvals(rep, f"grouped scheme {scheme}"), alpha, scheme).rejected


def _run_hybrid_mode(rep, alpha, mode):
    return _run_hybrid(rep(_pvals), HybridConfig(alpha_ebh=alpha, weight_mode=mode))


def _run_grouped_adaptive(rep, alpha):
    return _run_grouped(rep, alpha, "adaptive")


def _run_hybrid_adaptive(rep, alpha):
    return _run_hybrid_mode(rep, alpha, "adaptive")


def _run_struct(rep, alpha, rng, mode):
    covars = _need(rep.data, "covars", "eBH_FBC")
    return run_structure_adaptive(rep.data.pvals, covars, alpha, mode=mode, rng=rng)


def _run_knockoff(rep, alpha, which):
    _need(rep.data, f"stats_{which}", f"KO_{which}")
    return _knockoff_threshold(rep(_stats, which), alpha).rejected


def _run_knockoff_hybrid(rep, alpha):
    return _combine_and_select(rep(_stats, "a"), rep(_stats, "b"), alpha, 0.5, 0.5, None)


# name -> (needs_rng, runner); the registry order fixes each method's
# substream index, so adding methods must append, not reorder
_METHODS = {
    "BH": (False, lambda rep, a: _run_threshold(rep, a, "bh")),
    "ST": (False, lambda rep, a: _run_threshold(rep, a, "storey")),
    "BC": (False, _run_bc),
    "BC_Com": (False, _run_bc),
    "BC_Sep": (False, _run_bc_sep),
    "eBH_1": (False, lambda rep, a: _run_grouped(rep, a, "unit")),
    "eBH_2": (False, lambda rep, a: _run_grouped(rep, a, "size")),
    "eBH_Ada": (False, _run_hybrid_adaptive),  # see _GROUPED_RUNNERS
    "eBH_Ave": (False, lambda rep, a: _run_hybrid_mode(rep, a, "averaged")),
    "fast_eBH_Ada": (False, _run_hybrid_adaptive),
    "eBH_FBC": (True, lambda rep, a, rng: _run_struct(rep, a, rng, "cheap")),
    "eBH_FBC_unit": (True, lambda rep, a, rng: _run_struct(rep, a, rng, "unit")),
    "KO_1": (False, lambda rep, a: _run_knockoff(rep, a, "a")),
    "KO_2": (False, lambda rep, a: _run_knockoff(rep, a, "b")),
    "KO_Hybrid": (False, _run_knockoff_hybrid),
}

# on an instance with groups, eBH_Ada is the grouped procedure
_GROUPED_RUNNERS = {"eBH_Ada": _run_grouped_adaptive}

_METHOD_INDEX = {name: i for i, name in enumerate(_METHODS)}


def _run_methods(instance: SimInstance, alpha: float, methods, seed: int, replicate: int) -> dict:
    """Rejections of each method on one replicate, ``{name: sorted indices}``.

    The replicate memo holds the memos of the validated data, and the
    rejections of each runner that needs no random stream, keyed by runner
    and level.
    """
    rep = _Memo(instance)
    part = instance.partition
    out = {}
    for name in methods:
        needs_rng, runner = _METHODS[name]
        if part is not None:
            runner = _GROUPED_RUNNERS.get(name, runner)
        if needs_rng:
            rng = _replicate_rng(seed, replicate, lane=1 + _METHOD_INDEX[name])
            out[name] = runner(rep, alpha, rng)
        else:
            out[name] = rep(runner, alpha)
    return out


def _replicate_metrics(config: SimulationConfig, replicate: int, methods) -> dict:
    instance = generate(config, replicate)
    part = instance.partition
    rejections = _run_methods(instance, config.target_alpha, methods, config.seed, replicate)
    out = {}
    for name, rejected in rejections.items():
        fdp, power = fdp_power(rejected, instance.truth)
        record = {"fdp": fdp, "power": power}
        if part is not None:
            gf, gp = _group_fdp_power(rejected, instance.truth, part.labels, part.n_groups)
            record["group_fdp"] = gf.tolist()
            record["group_power"] = gp.tolist()
        out[name] = record
    return out


@dataclass(frozen=True)
class MetricsReport:
    """Per-method empirical FDR and power with standard errors."""

    setting: str
    target_alpha: float
    replications: int
    seed: int
    methods: dict
    wall_clock: float

    def rows(self):
        """Flat (setting, method, metric, value, std_error) records."""
        out = []
        for name, m in self.methods.items():
            out.append(
                {"setting": self.setting, "method": name, "metric": "fdr",
                 "value": m["fdr"], "std_error": m["fdr_se"]}
            )
            out.append(
                {"setting": self.setting, "method": name, "metric": "power",
                 "value": m["power"], "std_error": m["power_se"]}
            )
            for l, (f, fs) in enumerate(zip(m.get("group_fdr", []), m.get("group_fdr_se", [])), start=1):
                out.append({"setting": self.setting, "method": name, "metric": f"fdr_g{l}",
                            "value": f, "std_error": fs})
            for l, (w, ws) in enumerate(zip(m.get("group_power", []), m.get("group_power_se", [])), start=1):
                out.append({"setting": self.setting, "method": name, "metric": f"power_g{l}",
                            "value": w, "std_error": ws})
        return out

    def to_json(self) -> str:
        payload = {
            "setting": self.setting,
            "target_alpha": self.target_alpha,
            "replications": self.replications,
            "seed": self.seed,
            "wall_clock_seconds": round(self.wall_clock, 3),
            "rows": self.rows(),
        }
        return json.dumps(payload, indent=2)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("setting,method,metric,value,std_error\n")
            for row in self.rows():
                handle.write(
                    f"{row['setting']},{row['method']},{row['metric']},"
                    f"{row['value']:.10g},{row['std_error']:.10g}\n"
                )


def _mean_se(values: np.ndarray):
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def _worker_count() -> int:
    """Worker processes from ``EVMT_THREADS``, capped at the CPU count (default 1)."""
    raw = os.environ.get("EVMT_THREADS", "").strip() or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigurationError(f"EVMT_THREADS must be a positive integer, got {raw!r}")
    return min(workers, os.cpu_count() or 1)


def run_campaign(config: SimulationConfig, methods) -> MetricsReport:
    """Run every method on every replicate and reduce to mean FDR / power.

    ``EVMT_THREADS`` (a positive integer, default 1: serial) sets the number
    of worker processes over replicates, capped at the CPU count; results do
    not depend on the worker count.
    """
    methods = list(methods)
    for name in methods:
        if name not in _METHODS:
            raise ConfigurationError(f"unknown method {name!r}")
    start = time.monotonic()
    workers = _worker_count()
    reps = range(config.replications)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(_replicate_metrics, *zip(*[(config, r, methods) for r in reps])))
    else:
        per_rep = [_replicate_metrics(config, r, methods) for r in reps]

    summary = {}
    for name in methods:
        fdp = np.array([rec[name]["fdp"] for rec in per_rep])
        power = np.array([rec[name]["power"] for rec in per_rep])
        entry = {}
        entry["fdr"], entry["fdr_se"] = _mean_se(fdp)
        entry["power"], entry["power_se"] = _mean_se(power)
        if "group_fdp" in per_rep[0][name]:
            gf = np.array([rec[name]["group_fdp"] for rec in per_rep])
            gp = np.array([rec[name]["group_power"] for rec in per_rep])
            entry["group_fdr"], entry["group_fdr_se"] = zip(*(_mean_se(gf[:, l]) for l in range(gf.shape[1])))
            entry["group_power"], entry["group_power_se"] = zip(*(_mean_se(gp[:, l]) for l in range(gp.shape[1])))
            for key in ("group_fdr", "group_fdr_se", "group_power", "group_power_se"):
                entry[key] = list(entry[key])
        summary[name] = entry
    return MetricsReport(
        setting=config.setting,
        target_alpha=config.target_alpha,
        replications=config.replications,
        seed=config.seed,
        methods=summary,
        wall_clock=time.monotonic() - start,
    )


def toy_two_group():
    """Deterministic two-group showcase: 20 clear signals in each group.

    Unweighted pooled e-values (100 in the small group, 1000 in the large
    one) select nothing at level 0.05, while the adaptive weights lift both
    groups to a common scale and select all 40.
    """
    def one_group(n):
        small = np.linspace(1e-4, 1e-3, 20)
        big = np.linspace(0.6, 0.7, n - 20)
        big[-2] = 0.7
        return np.concatenate([small, big])

    pvals = np.concatenate([one_group(100), one_group(1000)])
    truth = np.zeros(1100, dtype=int)
    truth[:20] = 1
    truth[100:120] = 1
    return pvals, GroupPartition.from_sizes([100, 1000]), truth
