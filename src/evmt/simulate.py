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
for the grouped methods, the sorted statistics and mirror grid of each
knockoff family for ``KO_1``, ``KO_2`` and ``KO_Hybrid``.  The runners call
the public functions, which take the memo in place of the data.  Each method
is a row ``(runner, argument, fields)`` of the registry, and equal rows share
one run (``BC`` and ``BC_Com``; ``eBH_Ada`` and ``fast_eBH_Ada`` on an
instance without groups), except the cross-fitted rows, which draw from their
own substreams.  A method whose ``fields`` the instance lacks is refused.
The memo goes with the replicate.  The replicate's truth is prepared once
(``procedures._Truth``), and every method's FDP and power are read from it;
the replicates of a grouped setting share one partition.

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

import copy
import functools
import json
import math
import numbers
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

import numpy as np

from .adaptive import run_structure_adaptive
from .errors import ConfigurationError, InputError
from .groups import GroupPartition, groupwise_bc_thresholds, run_grouped_ebh
from .hybrid import HybridConfig, run_hybrid
from .knockoffs import as_stats, combine_and_select, knockoff_threshold
from .procedures import ProcedureSpec, _check_alpha, _Memo, _Truth, as_pvalues, solve_threshold

__all__ = [
    "SimulationConfig",
    "SimInstance",
    "MetricsReport",
    "default_parameters",
    "generate",
    "run_campaign",
    "toy_two_group",
]

class _Param(NamedTuple):
    """One setting parameter: its type (``int``, ``float``, ``list`` of
    ``item`` or ``dict``, a table ``item``), its least value (exclusive when
    ``strict``), its default (None: optional) and ``most``, the parameter
    that bounds a number from above or that a list must sum to."""

    kind: type
    low: float = -math.inf
    default: Any = None
    most: Optional[str] = None
    item: Any = None
    strict: bool = False


# one group of a grouped setting: (n, n_alt, beta_a, beta_b)
_GROUP = {"n": _Param(int, 1), "n_alt": _Param(int, 0, most="n"),
          "beta_a": _Param(float, 0.0, strict=True), "beta_b": _Param(float, 0.0, strict=True)}


def _groups(*rows):
    rows = [dict(zip(_GROUP, row)) for row in rows]
    return _Param(list, default=rows, item=_Param(dict, item=_GROUP))


# each setting's parameters, by the names generate() reads
_PARAMETERS = {
    "E1": {"groups": _groups((100, 20, 4.0, 500.0), (1000, 20, 0.1, 500.0))},
    "E2": {"groups": _groups((100, 20, 0.5, 500.0), (1000, 20, 0.5, 500.0))},
    "F1": {"groups": _groups((100, 20, 0.1, 500.0), (100, 20, 0.1, 500.0),
                             (1000, 20, 0.1, 500.0), (1000, 20, 0.1, 500.0))},
    "F2": {"groups": _groups((100, 1, 0.01, 5000.0), (100, 20, 0.1, 500.0),
                             (100, 20, 0.1, 500.0), (100, 20, 0.1, 500.0))},
    "F3": {"groups": _groups((50, 2, 0.1, 500.0), (100, 2, 0.1, 500.0),
                             (50, 4, 0.2, 500.0), (100, 4, 0.3, 500.0))},
    "S1": {"n": _Param(int, 1, 1000), "n_alt": _Param(int, 0, 50, "n"),
           "mu": _Param(float, default=0.4), "sigma": _Param(float, 0.0, 1.0)},
    "S2": {"n": _Param(int, 1, 3000), "n_alt": _Param(int, 0, 750, "n"),
           "mu": _Param(float, default=0.285), "sigma": _Param(float, 0.0, 0.4)},
    "STRUCT": {"n": _Param(int, 1, 3000), "a0": _Param(float, default=3.5),
               "a1": _Param(float, default=2.5), "a_f": _Param(float, default=1.0),
               "mu": _Param(float, default=3.0)},
    "KNOCK_SYNTH": {"p": _Param(int, 1, 200), "n_alt": _Param(int, 0, 30, "p"),
                    "mu": _Param(float, default=3.0)},
    "ALLNULL": {"n": _Param(int, 1, 200), "d": _Param(int, 0),
                "group_sizes": _Param(list, most="n", item=_Param(int, 1))},
}

_DEFAULT_ALPHA = {"F3": 0.2, "STRUCT": 0.1, "KNOCK_SYNTH": 0.2}


class _BadConfig(ConfigurationError):
    """A bad configuration entry.  ``keys`` are the config-file keys involved;
    ``malformed`` marks an unknown name or a wrong type, not a bad value."""

    def __init__(self, keys, message, malformed=False):
        super().__init__(message)
        self.keys, self.malformed = keys, malformed


def default_parameters(setting: str) -> dict:
    """Built-in parameter map for a setting (copy, safe to mutate)."""
    table = _PARAMETERS.get(setting.upper()) if isinstance(setting, str) else None
    if table is None:
        raise _BadConfig(("setting",), f"unknown setting {setting!r}")
    return {k: copy.deepcopy(v.default) for k, v in table.items() if v.default is not None}


def _check_table(table: dict, values: dict, keys=None, where: str = "") -> None:
    """Check ``values`` against a parameter table.  ``keys`` names the
    top-level parameter of a nested table, ``where`` its place in messages."""
    for name in sorted(values.keys() - table.keys()):
        raise _BadConfig(keys or (name,), f"unknown parameter {where + name!r}; "
                         f"expected one of {', '.join(table)}", True)
    for name, spec in table.items():
        if values.get(name) is None and where:
            raise _BadConfig(keys, f"{where}{name} is missing", True)
        if values.get(name) is not None or spec.default is not None:
            _check_value(keys or (name,), where + name, values.get(name), spec, values)


def _check_value(keys, label: str, value, spec: _Param, siblings: dict) -> None:
    """Check one value against its spec; ``siblings`` holds the value ``most`` names."""
    if spec.kind is dict:
        if not isinstance(value, dict):
            raise _BadConfig(keys, f"{label} must be a table, got {value!r}", True)
        return _check_table(spec.item, value, keys, label + ".")
    if spec.kind is list:
        if not value or not isinstance(value, list):
            raise _BadConfig(keys, f"{label} must be a non-empty list, got {value!r}", True)
        for k, entry in enumerate(value):
            _check_value(keys, f"{label}[{k}]", entry, spec.item, {})
        if spec.most and sum(value) != siblings[spec.most]:
            raise _BadConfig(keys + (spec.most,), f"{label} must sum to "
                             f"{spec.most} = {siblings[spec.most]}, got {sum(value)}")
        return
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value)
            or (spec.kind is int and value != int(value))):
        what = "an integer" if spec.kind is int else "a finite number"
        raise _BadConfig(keys, f"{label} must be {what}, got {value!r}", True)
    if value < spec.low or (spec.strict and value == spec.low):
        raise _BadConfig(keys, f"{label} must be {'above' if spec.strict else 'at least'} "
                         f"{spec.low:g}, got {value!r}")
    if spec.most and value > siblings[spec.most]:
        raise _BadConfig(keys + (spec.most,), f"{label} must be at most "
                         f"{spec.most} = {siblings[spec.most]}, got {value!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """One campaign: a setting, its parameters, and the replication plan."""

    setting: str
    parameters: dict = field(default_factory=dict)
    replications: int = 100
    seed: int = 0
    target_alpha: Optional[float] = None

    def __post_init__(self):
        params = default_parameters(self.setting)
        setting = self.setting.upper()
        object.__setattr__(self, "setting", setting)
        _check_value(("replications", "reps"), "replications", self.replications, _Param(int, 1), {})
        _check_value(("seed",), "seed", self.seed, _Param(int, 0), {})
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "seed", int(self.seed))
        if not isinstance(self.parameters, dict):
            raise _BadConfig(("parameters",), f"parameters must be a table, got {self.parameters!r}", True)
        params.update(self.parameters)
        _check_table(_PARAMETERS[setting], params)
        object.__setattr__(self, "parameters", params)
        if self.target_alpha is None:
            object.__setattr__(self, "target_alpha", _DEFAULT_ALPHA.get(setting, 0.05))
        try:
            _check_alpha(self.target_alpha, "target_alpha")
        except ConfigurationError as exc:
            raise _BadConfig(("target_alpha", "alpha"), str(exc)) from None

    @classmethod
    def from_file(cls, path, setting: Optional[str] = None) -> "SimulationConfig":
        """Read a plain ``key = value`` config file.

        Recognised keys: ``setting``, ``replications``/``reps``, ``seed``,
        ``alpha``/``target_alpha``.  Any other key is a parameter of the
        setting, its value parsed as JSON.  A malformed entry (an unknown
        key, a value of the wrong type) raises :class:`InputError`, a value
        out of range :class:`ConfigurationError`; both name its line.

        ``setting``, when given, replaces the file's own (which may then be
        absent): the configuration takes that setting's defaults and the
        entries the file names, checked against that setting.
        """
        return cls(**cls._file_fields(path, setting))

    @classmethod
    def _file_fields(cls, path, setting: Optional[str] = None) -> dict:
        """The constructor arguments that the config file sets, checked as
        :meth:`from_file` checks them."""
        if setting is not None:
            default_parameters(setting)  # an unknown setting is no line of the file
        fields, params, lines = {}, {}, {}
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.lower()
                lines[key] = lineno
                if key == "setting":
                    fields["setting"] = value
                elif key in ("replications", "reps"):
                    fields["replications"] = _config_number(int, path, lineno, key, value)
                elif key == "seed":
                    fields["seed"] = _config_number(int, path, lineno, key, value)
                elif key in ("alpha", "target_alpha"):
                    fields["target_alpha"] = _config_number(float, path, lineno, key, value)
                else:
                    try:
                        params[key] = json.loads(value)
                    except json.JSONDecodeError as exc:
                        raise InputError(f"{path}:{lineno}: bad value {value!r}") from exc
        if setting is not None:
            fields["setting"] = setting
            lines.pop("setting", None)
        if "setting" not in fields:
            raise InputError(f"{path}: missing required key 'setting'")
        fields["parameters"] = params
        try:
            cls(**fields)
        except _BadConfig as exc:
            line = next((f":{lines[k]}" for k in exc.keys if k in lines), "")
            raise (InputError if exc.malformed else ConfigurationError)(f"{path}{line}: {exc}") from None
        return fields


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


@functools.lru_cache(maxsize=16)
def _blocks(sizes: tuple) -> GroupPartition:
    """The partition into consecutive blocks of ``sizes``, built once per
    tuple of sizes and shared by the replicates of a grouped setting (a
    partition is immutable: its arrays are read-only)."""
    return GroupPartition.from_sizes(sizes)


# the two signs of KNOCK_SYNTH's null statistics: indexing this with
# rng.integers(0, 2, size) draws what rng.choice(_SIGNS, size) draws, from
# the same stream, without choice's checks
_SIGNS = np.array([-1.0, 1.0])


def generate(config: SimulationConfig, replicate_index: int) -> SimInstance:
    """Draw one replicate; deterministic given (config, seed, index)."""
    rng = _replicate_rng(config.seed, replicate_index)
    params = config.parameters
    setting = config.setting

    if "groups" in params:
        chunks, sizes = [], []
        for g in params["groups"]:
            n, na = int(g["n"]), int(g["n_alt"])
            p = rng.uniform(size=n)
            if na:
                p[:na] = rng.beta(g["beta_a"], g["beta_b"], size=na)
            chunks.append(p)
            sizes.append((n, na))
        return SimInstance(
            pvals=np.concatenate(chunks),
            truth=np.concatenate([np.arange(n) < na for n, na in sizes]).astype(int),
            partition=_blocks(tuple(n for n, _ in sizes)),
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
        signs = _SIGNS[rng.integers(0, 2, size=p)]
        w_a = signs * np.abs(rng.normal(size=p))
        w_a[:na] = np.abs(rng.normal(params["mu"], 1.0, size=na))
        w_b = _SIGNS[rng.integers(0, 2, size=p)] * np.abs(rng.normal(size=p))
        truth = np.zeros(p, dtype=int)
        truth[:na] = 1
        return SimInstance(pvals=None, truth=truth, stats_a=w_a, stats_b=w_b)

    # ALLNULL
    n = int(params["n"])
    sizes = params.get("group_sizes")
    part = _blocks(tuple(int(s) for s in sizes)) if sizes else None
    covars = rng.normal(size=(n, int(params["d"]))) if params.get("d") else None
    return SimInstance(
        pvals=rng.uniform(size=n), truth=np.zeros(n, dtype=int),
        partition=part, covars=covars,
    )


# Stages of the replicate memo, a _Memo whose data is the SimInstance: the
# memos of its data vectors, validated by the first method that reads them.

def _pvals(rep):
    """Memo of the validated p-values, with the partition when there is one."""
    return _Memo.of(rep.data.pvals, check=as_pvalues, part=rep.data.partition)


def _stats(rep, which):
    """Memo of one knockoff family's validated statistics."""
    return _Memo.of(getattr(rep.data, f"stats_{which}"), check=as_stats)


def _run_threshold(rep, alpha, kind):
    return solve_threshold(rep(_pvals), ProcedureSpec(kind=kind, alpha=alpha)).rejected


def _run_bc_sep(rep, alpha, _):
    thresholds = groupwise_bc_thresholds(rep(_pvals), rep.data.partition, alpha)
    return np.sort(np.concatenate([res.rejected for res in thresholds]))


def _run_grouped(rep, alpha, scheme):
    return run_grouped_ebh(rep(_pvals), rep.data.partition, alpha, scheme).rejected


def _run_hybrid(rep, alpha, mode):
    return run_hybrid(rep(_pvals), HybridConfig(alpha_ebh=alpha, weight_mode=mode))


def _run_struct(rep, alpha, mode, rng):
    return run_structure_adaptive(rep(_pvals), rep.data.covars, alpha, mode=mode, rng=rng)


def _run_knockoff(rep, alpha, which):
    return knockoff_threshold(rep(_stats, which), alpha).rejected


def _run_knockoff_hybrid(rep, alpha, _):
    return combine_and_select(rep(_stats, "a"), rep(_stats, "b"), alpha)


# name -> (runner, argument, the SimInstance fields the runner reads); the
# registry order fixes each method's substream index, so adding methods must
# append, not reorder
_METHODS = {
    "BH": (_run_threshold, "bh", ("pvals",)),
    "ST": (_run_threshold, "storey", ("pvals",)),
    "BC": (_run_threshold, "bc", ("pvals",)),
    "BC_Com": (_run_threshold, "bc", ("pvals",)),
    "BC_Sep": (_run_bc_sep, None, ("pvals", "partition")),
    "eBH_1": (_run_grouped, "unit", ("pvals", "partition")),
    "eBH_2": (_run_grouped, "size", ("pvals", "partition")),
    "eBH_Ada": (_run_hybrid, "adaptive", ("pvals",)),  # see _GROUPED_METHODS
    "eBH_Ave": (_run_hybrid, "averaged", ("pvals",)),
    "fast_eBH_Ada": (_run_hybrid, "adaptive", ("pvals",)),
    "eBH_FBC": (_run_struct, "cheap", ("pvals", "covars")),
    "eBH_FBC_unit": (_run_struct, "unit", ("pvals", "covars")),
    "KO_1": (_run_knockoff, "a", ("stats_a",)),
    "KO_2": (_run_knockoff, "b", ("stats_b",)),
    "KO_Hybrid": (_run_knockoff_hybrid, None, ("stats_a", "stats_b")),
}

# the rows on an instance with groups, where eBH_Ada is the grouped procedure
_GROUPED_METHODS = {**_METHODS, "eBH_Ada": (_run_grouped, "adaptive", ("pvals", "partition"))}


def _run_methods(instance: SimInstance, alpha: float, methods, seed: int, replicate: int) -> dict:
    """Rejections of each method on one replicate, ``{name: sorted indices}``.

    The replicate memo holds the memos of the validated data, and the
    rejections of each row that draws no random numbers, keyed by runner,
    level and argument: equal rows share one run.  ``_run_struct`` draws
    from the method's own substream, so it runs once for each method.  A
    method whose row reads a field the instance lacks is refused before any
    row runs.
    """
    table = _METHODS if instance.partition is None else _GROUPED_METHODS
    rows = {name: table[name] for name in methods}
    for name, (_, _, fields) in rows.items():
        missing = [f for f in fields if getattr(instance, f) is None]
        if missing:
            raise ConfigurationError(f"method {name} needs {' and '.join(missing)} for this setting")
    rep = _Memo(instance)
    out = {}
    for name, (runner, argument, _) in rows.items():
        if runner is _run_struct:
            rng = _replicate_rng(seed, replicate, lane=1 + list(_METHODS).index(name))
            out[name] = runner(rep, alpha, argument, rng)
        else:
            out[name] = rep(runner, alpha, argument)
    return out


def _replicate_metrics(config: SimulationConfig, replicate: int, methods) -> dict:
    instance = generate(config, replicate)
    rejections = _run_methods(instance, config.target_alpha, methods, config.seed, replicate)
    truth = _Truth(instance.truth, instance.partition)
    out = {}
    for name, rejected in rejections.items():
        fdp, power, gf, gp = truth.score(rejected)
        record = {"fdp": fdp, "power": power}
        if gf is not None:
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
            # fdr and power first, then fdr and power of each group
            pooled, grouped = [], []
            for metric in ("fdr", "power"):
                pooled.append((metric, m[metric], m[f"{metric}_se"]))
                grouped += [(f"{metric}_g{l}", value, se) for l, (value, se) in enumerate(
                    zip(m.get(f"group_{metric}", []), m.get(f"group_{metric}_se", [])), start=1)]
            out += [{"setting": self.setting, "method": name, "metric": metric,
                     "value": value, "std_error": se} for metric, value, se in pooled + grouped]
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
    """Mean and standard error over the replicates; of a 2-d array, the lists
    of them per column, each column reduced on its own 1-d view, which numpy
    sums as it does a 1-d array."""
    if values.ndim == 2:
        return tuple(map(list, zip(*map(_mean_se, values.T))))
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def run_campaign(config: SimulationConfig, methods) -> MetricsReport:
    """Run every method on every replicate and reduce to mean FDR / power."""
    if isinstance(methods, str) or not isinstance(methods, Iterable):
        raise ConfigurationError(f"methods must be a list of names, got {methods!r}")
    methods = list(methods)
    for name in methods:
        if not isinstance(name, str) or name not in _METHODS:
            raise ConfigurationError(f"unknown method {name!r}")
    start = time.monotonic()
    per_rep = [_replicate_metrics(config, r, methods) for r in range(config.replications)]

    summary = {}
    for name in methods:
        entry = summary[name] = {}
        for column in ("fdp", "power", "group_fdp", "group_power"):
            if column in per_rep[0][name]:
                metric = column.replace("fdp", "fdr")  # each FDP averages to an FDR
                values = np.array([rec[name][column] for rec in per_rep])
                entry[metric], entry[f"{metric}_se"] = _mean_se(values)
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
