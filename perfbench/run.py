"""Benchmark of evmt: the CLI on 10^6 rows, simulation campaigns and the EM fit.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli-1m,campaigns,campaign-struct}
                             --seed N --seconds S --trace {0,1}

The program under test is the ``evmt`` package in ``src/``; nothing needs
building.  Every process that runs ``evmt`` gets ``PYTHONPATH=src``, no
``EVMT_THREADS`` and one BLAS thread, and runs alone, so campaigns are
serial.

``--trace 0`` generates the inputs from N, then repeats a round of the
workload's operations on them until S seconds have passed (at least
once), with a speed probe (``speed.py``) run before and after each
operation.  Each pass of an operation is scaled to a machine on which the
probe takes ``PROBE_REF_S``, by the mean of the two probe times next to
it; a CLI command, by the mean of the probe times of its whole round.  It
reports

- ``norm_geomean_s``: the geometric mean of the workload's per-operation
  times (seconds per CLI command, seconds per campaign replicate of each
  setting), each the median of its scaled passes;
- ``peak_rss_mb``: the largest resident set of the processes running the
  operations;
- ``setup_s``: the median of three fresh interpreters running
  ``import evmt``, two before the workload and one after it, each scaled
  in the same way.

Each operation's own figure (``cli_bh_s``, ``s1_reps_per_s``, ...) is
printed, raw and scaled, on the lines before the result.

``--trace 1`` runs one round untraced and the same round again with the
span recorder of ``tracer.py`` installed, writes the spans under
``perfbench/work/`` and reports the per-layer metrics and the tracing
overhead (traced minus untraced seconds of the round, at reference speed).

Every run checks the outputs against ``reference.py`` or against
properties the procedures must have; ``correct`` is false when a check
fails.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import speed  # noqa: E402
from campaigns import PLANS, config, units  # noqa: E402

WORKLOADS = ("cli-1m", "campaigns", "campaign-struct")
ALPHA = 0.05
N_ROWS = 1_000_000
N_LABELS = 1000
# The machine's speed varies from second to second and from minute to
# minute with other tenants' load.  Each pass of an operation is therefore
# scaled by the speed-probe runs (speed.py) just before and after it, to a
# machine on which the probe takes PROBE_REF_S, and an operation counts
# with the median of its scaled passes.  A CLI round (25-35 s) outlasts the
# run's seconds, so cli-1m makes one pass; a second would nearly double its
# run time.  A CLI command runs for 6-12 s, longer than the machine holds
# one speed, so it is scaled by the mean of all the probe runs of its
# round, CLI_PROBES of them between every two commands and at both ends.
PROBE_REF_S = 0.1
CLI_PROBES = 3
SETUP_BEFORE, SETUP_AFTER = 2, 1  # imports timed before and after the workload
RUN_LIMIT_S = 170.0
REL_TOL = 1e-9  # the rejection table prints e-values with 10 significant digits
# Methods whose FDR control holds in finite samples.  ST is left out: the
# finite-sample bound for Storey's procedure needs the threshold capped at
# lambda, which evmt's "storey" does not do, and on S1 its FDR sits at alpha.
FDR_GUARANTEED = {"BH", "BC", "BC_Com", "eBH_1", "eBH_2", "eBH_Ada", "eBH_Ave",
                  "KO_1", "KO_2", "KO_Hybrid", "eBH_FBC"}
SUBSET_REPS = 10


class Problems:
    """Collects failed output checks; each is also written to stderr."""

    def __init__(self):
        self.items = []

    def check(self, ok, what):
        if not ok:
            self.items.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)


# ---------------------------------------------------------------- processes

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("EVMT_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv, log_path, deadline):
    """Run one process to its end; returns (exit code, wall seconds, peak RSS in MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def at_reference(seconds, probes):
    """Wall seconds scaled to reference speed by the mean of the probe times next to them."""
    return PROBE_REF_S * seconds / statistics.fmean(probes)


def time_imports(count, deadline):
    """(wall seconds, [probe before, probe after]) of ``count`` fresh interpreters running ``import evmt``."""
    cmd = [sys.executable, "-c", "import evmt"]
    log = WORK / "setup.log"
    samples = []
    probe = speed.probe_once()
    for _ in range(count):
        code, wall, _ = run_child(cmd, log, deadline)
        if code != 0:
            raise RuntimeError(f"import evmt failed: {log.read_text(errors='replace')[-2000:]}")
        after = speed.probe_once()
        samples.append((wall, [probe, after]))
        probe = after
    return samples


def setup_seconds(samples):
    """Median import time at reference speed."""
    print("import_s " + " ".join(f"{w:.4f}" for w, _ in samples) + " s")
    return statistics.median(at_reference(w, p) for w, p in samples)


def import_evmt():
    sys.path.insert(0, str(SRC))
    import evmt

    if Path(evmt.__file__).resolve().parent != (SRC / "evmt").resolve():
        raise RuntimeError(f"imported evmt from {evmt.__file__}, not from {SRC}")
    return evmt


# ------------------------------------------------------------------ cli-1m

def cli_input(seed):
    """10^6 rows: 1000 groups whose non-null share ranges over [0, 0.1]."""
    from scipy.special import ndtr

    rng = np.random.default_rng([seed, 1])
    groups = rng.integers(0, N_LABELS, N_ROWS)
    share = rng.uniform(0.0, 0.1, N_LABELS)
    truth = rng.random(N_ROWS) < share[groups]
    z = rng.normal(size=N_ROWS)
    z[truth] += rng.uniform(1.0, 5.0, int(truth.sum()))
    p = ndtr(-z)
    # the rest of each row, by group and truth: ",g042,1"
    tails = [f",g{g:03d},{t}" for t in (0, 1) for g in range(N_LABELS)]
    rows = [repr(a) + tails[k] for a, k in zip(p.tolist(), (groups + N_LABELS * truth).tolist())]
    path = WORK / "cli_input.csv"
    path.write_text("pvalue,group,truth\n" + "\n".join(rows) + "\n", encoding="utf-8")
    dup = WORK / "dup_header.csv"
    dup.write_text("pvalue,pvalue\n0.01,0.02\n0.5,0.7\n", encoding="utf-8")
    return path, dup, p, groups, truth


def cli_ops(csv, dup):
    """(name, CLI arguments, expected exit code) of one round."""
    def out(name):
        return ["--out", WORK / f"{name}.csv"]

    return [
        ("bh", ["bh", "--input", csv, "--alpha", ALPHA, *out("bh")], 0),
        ("groups", ["groups", "--input", csv, "--alpha", ALPHA, "--weights", "adaptive", *out("groups")], 0),
        ("hybrid", ["hybrid", "--input", csv, "--alpha", ALPHA, "--weights", "fast", *out("hybrid")], 0),
        # a header naming pvalue twice is malformed input and must exit 2
        ("dup_header", ["bh", "--input", dup, "--alpha", ALPHA, *out("dup_header_out")], 2),
    ]


def cli_round(ops, deadline, spans_prefix=None):
    """Run the round's commands one after another; returns per-op records.

    Each record holds all the probe times of its round.
    """
    records = []
    probes = [speed.probe_once() for _ in range(CLI_PROBES)]
    for name, args, expected in ops:
        # a command that writes nothing must not leave an earlier run's files to check
        table = Path(args[args.index("--out") + 1])
        table.unlink(missing_ok=True)
        table.with_suffix(".json").unlink(missing_ok=True)
        if spans_prefix is None:
            argv = [sys.executable, "-m", "evmt.cli", *args]
            spans = None
        else:
            spans = WORK / f"{spans_prefix}-{name}.json"
            spans.unlink(missing_ok=True)
            argv = [sys.executable, HERE / "cli_runner.py", spans, *args]
        code, wall, rss = run_child(argv, WORK / f"{name}.log", deadline)
        probes += [speed.probe_once() for _ in range(CLI_PROBES)]
        records.append({"name": name, "ok": code == expected, "seconds": wall, "rss_mb": rss, "spans": spans})
    for r in records:
        r["probes"] = probes
    print("probe_s " + " ".join(f"{x:.5f}" for x in probes) + " s")
    return records


def read_rejections(path, n, problems):
    """(rejected mask, e-values, weights) of a rejection table, or None if malformed."""
    head, body = path.read_bytes().split(b"\n", 1)
    values = np.fromstring(body.strip().replace(b"\n", b","), sep=",")
    if not (problems.check(head == b"index,rejected,evalue,weight", f"{path.name}: header {head!r}")
            and problems.check(values.size == 4 * n, f"{path.name}: expected {n} rows of 4 fields")):
        return None
    table = values.reshape(n, 4)
    problems.check(np.array_equal(table[:, 0], np.arange(1, n + 1)), f"{path.name}: index column")
    problems.check(np.isin(table[:, 1], (0.0, 1.0)).all(), f"{path.name}: rejected column not 0/1")
    return table[:, 1] == 1.0, table[:, 2], table[:, 3]


def close(written, exact):
    return np.abs(written - exact) <= REL_TOL * np.abs(exact)


def check_bh(p, truth, problems):
    """Rejections and e-values ``n / (k alpha)`` equal the step-up procedure."""
    table = read_rejections(WORK / "bh.csv", p.size, problems)
    if table is None:
        return
    rej, e, _ = table
    k, want, e_ref = ref.stepup(p, ALPHA)
    problems.check(np.array_equal(rej, want), "bh: rejected set differs from the step-up procedure")
    problems.check(close(e, e_ref).all(), "bh: e-values differ from n / (k alpha)")
    summary = json.loads((WORK / "bh.json").read_text())
    problems.check(summary["n"] == p.size and summary["n_rejected"] == k, "bh: summary counts")
    problems.check(k == 0 or summary["threshold"] == k * ALPHA / p.size, "bh: summary threshold")
    problems.check((summary["metrics"]["fdp"], summary["metrics"]["power"]) == ref.fdp_power(want, truth),
                   "bh: summary FDP/power")


def check_groups(p, groups, problems):
    """Nonzero e-values fall exactly on the per-group mirror-count rejections.

    On them each e-value is ``|G_l| w / (1 + mirrors_l)`` with the written
    weight w and the reference mirror count of the hypothesis's group.
    """
    table = read_rejections(WORK / "groups.csv", p.size, problems)
    if table is None:
        return
    rej, e, w = table
    thr, mirrors = ref.mirror_thresholds(p, groups, N_LABELS, ALPHA)
    hit = ref.group_rejections(p, groups, thr)
    problems.check(np.array_equal(e > 0, hit),
                   "groups: nonzero e-values differ from the per-group mirror-count rejections")
    sizes = np.bincount(groups, minlength=N_LABELS)
    e_ref = (sizes[groups] * w / (1.0 + mirrors[groups]))[hit]
    problems.check(np.all(w[hit] > 0) and close(e[hit], e_ref).all(),
                   "groups: e-values differ from |G_l| w / (1 + mirrors) on the rejections")
    problems.check(np.array_equal(rej, ref.ebh(e, ALPHA)),
                   "groups: rejected set differs from e-BH on the written e-values")
    rows = json.loads((WORK / "groups.json").read_text())["thresholds"]
    written = np.array([np.nan if t["threshold"] is None else t["threshold"] for t in rows])
    problems.check([t["group"] for t in rows] == [f"g{l:03d}" for l in range(N_LABELS)]
                   and np.array_equal(written, thr, equal_nan=True),
                   "groups: summary thresholds differ from the per-group mirror-count thresholds")


def check_hybrid(p, problems):
    """Each e-value is the blend of BH and BC e-values that its 0/1 weights allow."""
    table = read_rejections(WORK / "hybrid.csv", p.size, problems)
    if table is None:
        return
    rej, e, w = table  # the weight column holds w_bh + w_bc
    alpha_b = ALPHA / (1.0 + ALPHA)
    _, _, e_bh = ref.stepup(p, alpha_b)
    _, _, e_bc = ref.mirror_count(p, alpha_b)
    problems.check(np.isin(w, (0.0, 1.0, 2.0)).all(), "hybrid: weights outside {0, 1}")
    as_bh, as_bc = close(e, e_bh), close(e, e_bc)
    ok = np.where(w == 0, e == 0, np.where(w == 2, close(e, e_bh + e_bc), as_bh | as_bc))
    problems.check(ok.all(), f"hybrid: {int((~ok).sum())} e-values are no 0/1 blend of BH and BC")
    exact = np.where(w == 2, e_bh + e_bc, np.where(w == 1, np.where(as_bh, e_bh, e_bc), 0.0))
    problems.check(np.array_equal(rej, ref.ebh(exact, ALPHA)),
                   "hybrid: rejected set differs from e-BH on the blended e-values")
    summary = json.loads((WORK / "hybrid.json").read_text())
    problems.check(summary["alpha_bh"] == alpha_b and summary["alpha_bc"] == alpha_b, "hybrid: base levels")


def output_files():
    return [WORK / f"{name}{suffix}" for name in ("bh", "groups", "hybrid") for suffix in (".csv", ".json")]


def output_digest():
    """Digest of the three commands' outputs, or None if one is missing."""
    h = hashlib.sha256()
    for path in output_files():
        if not path.exists():
            return None
        h.update(path.read_bytes())
    return h.hexdigest()


def run_cli(seed, seconds, trace, deadline, problems):
    _, _, p, groups, truth = data = cli_input(seed)
    ops = cli_ops(data[0], data[1])
    rounds, digest = [], None
    start = time.perf_counter()
    while not rounds or (not trace and time.perf_counter() - start < seconds):
        rounds.append(cli_round(ops, deadline))
        if not problems.check(all(r["ok"] for r in rounds[-1][:3]), "a CLI command exited with an error"):
            continue
        if not problems.check(all(f.exists() for f in output_files()),
                              "a CLI command wrote no rejection table or summary"):
            continue
        if digest is None:
            check_bh(p, truth, problems)
            check_groups(p, groups, problems)
            check_hybrid(p, problems)
            digest = output_digest()
        else:
            problems.check(output_digest() == digest, "CLI outputs differ between rounds")
    records = [r for rnd in rounds for r in rnd]
    # the malformed-input call is a correctness probe; only the three commands are timed
    timed = [[r for r in records if r["name"] == name] for name in ("bh", "groups", "hybrid")]
    raw = [statistics.median(r["seconds"] for r in passes) for passes in timed]
    scaled = [statistics.median(at_reference(r["seconds"], r["probes"]) for r in passes) for passes in timed]
    report_figures([f"cli_{name}_s" for name in ("bh", "groups", "hybrid")], raw, scaled, per_second=False)
    out = {
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "round_s": sum(at_reference(r["seconds"], r["probes"]) for r in rounds[0]),
        "norm_geomean_s": geomean(scaled),
    }
    if trace:
        traced = cli_round(ops, deadline, spans_prefix="spans-cli")
        problems.check(digest is not None and output_digest() == digest,
                       "traced CLI outputs differ from untraced ones")
        out["attempted"] += len(traced)
        out["failed"] += sum(not r["ok"] for r in traced)
        out["spans"] = [r["spans"] for r in traced if r["spans"].exists()]
        out["traced_s"] = sum(at_reference(r["seconds"], r["probes"]) for r in traced)
    return out


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def report_figures(names, raw, scaled, per_second):
    """Print each operation's figure from its median pass, raw and at reference speed.

    ``raw`` and ``scaled`` are seconds per operation; with ``per_second`` the
    figures are printed as replicates per second.
    """
    def show(s):
        return 1.0 / s if per_second else s

    unit = "replicates/s" if per_second else "s"
    for name, r, s in zip(names, raw, scaled):
        print(f"{name} {show(r):.4f} {unit}  (at reference speed: {show(s):.4f})")
    print(f"geomean_s {geomean(raw):.4f} s  (at reference speed: {geomean(scaled):.4f})")


# --------------------------------------------------------------- campaigns

def base_rows(simulate, cfg, methods):
    """Mean FDP and power of the base methods, recomputed by ``reference.py``."""
    alpha = cfg.target_alpha
    per = {m: [] for m in ("BH", "BC", "BC_Com", "KO_1", "KO_2") if m in methods}
    for r in range(cfg.replications):
        inst = simulate.generate(cfg, r)
        for m in per:
            if m == "BH":
                mask = ref.stepup(inst.pvals, alpha)[1]
            elif m in ("BC", "BC_Com"):
                mask = ref.mirror_count(inst.pvals, alpha)[1]
            else:
                mask = ref.knockoff(inst.stats_a if m == "KO_1" else inst.stats_b, alpha)[1]
            per[m].append(ref.fdp_power(mask, inst.truth))
    return {m: np.mean(np.array(v), axis=0) for m, v in per.items()}


def pooled_rows(rows):
    """FDR rows of one-replicate campaigns on separate instances, pooled into one sample."""
    if len(rows) == 1:
        return rows[0]
    pooled = {}
    for m in rows[0]:
        fdp = np.array([r[m]["fdr"] for r in rows])
        pooled[m] = {"fdr": fdp.mean(), "fdr_se": fdp.std(ddof=1) / math.sqrt(fdp.size)}
    return pooled


def check_campaigns(simulate, workload, seed, rounds, problems):
    """Base-method rows against the reference; FDR control of the guaranteed methods."""
    plan = PLANS[workload]
    for u, (k, i, s) in enumerate(units(plan)):
        cfg = config(simulate, s, seed, k, i)
        label = s.name if s.instances == 1 else f"{s.name} instance {i}"
        rows = rounds[0][u]["methods"]
        problems.check(all(rnd[u]["methods"] == rows for rnd in rounds),
                       f"{label}: campaign results differ between rounds on the same inputs")
        for m, (fdr, power) in base_rows(simulate, cfg, s.methods).items():
            problems.check(abs(rows[m]["fdr"] - fdr) <= 1e-12 and abs(rows[m]["power"] - power) <= 1e-12,
                           f"{label}: {m} FDR/power differ from the reference")
    for k, s in enumerate(plan):
        if not s.fdr_reps:
            continue
        cfg = config(simulate, s, seed, k)
        alpha = cfg.target_alpha
        if s.fdr_reps == s.reps * s.instances:
            rows = pooled_rows([rounds[0][u]["methods"] for u, (j, _, _) in enumerate(units(plan)) if j == k])
        else:
            # a campaign of its own, with enough replicates that BH and Storey,
            # whose FDR sits close to alpha, do not cross alpha + 3 se by chance
            rows = simulate.run_campaign(dataclasses.replace(cfg, replications=s.fdr_reps), s.methods).methods
        for m in sorted(FDR_GUARANTEED.intersection(s.methods)):
            row = rows[m]
            problems.check(row["fdr"] <= alpha + 3 * row["fdr_se"],
                           f"{s.name}: {m} FDR {row['fdr']:.4f} > alpha + 3 se ({row['fdr_se']:.4f})")
        if s.setting == "E1":
            row = rows["eBH_Ada"]
            for g, (f, se) in enumerate(zip(row["group_fdr"], row["group_fdr_se"])):
                problems.check(f <= alpha + 3 * se,
                               f"{s.name}: eBH_Ada group {g + 1} FDR {f:.4f} > alpha + 3 se")


def check_hybrid_subset(evmt, workload, seed, problems):
    """eBH_Ada (hybrid) rejections lie inside the BH and BC rejections at alpha / (1 + alpha)."""
    simulate, hybrid = evmt.simulate, evmt.hybrid
    for k, s in enumerate(PLANS[workload]):
        if "eBH_Ada" not in s.methods or s.setting not in ("S1", "S2"):
            continue
        cfg = config(simulate, s, seed, k)
        alpha = cfg.target_alpha
        alpha_b = alpha / (1.0 + alpha)
        for r in range(min(SUBSET_REPS, cfg.replications)):
            p = simulate.generate(cfg, r).pvals
            chosen = hybrid.run_hybrid(p, hybrid.HybridConfig(alpha_ebh=alpha, weight_mode="adaptive"))
            union = ref.stepup(p, alpha_b)[1] | ref.mirror_count(p, alpha_b)[1]
            problems.check(union[chosen].all(), f"{s.name} replicate {r}: eBH_Ada rejects outside BH or BC")


def check_em_ascent(evmt, workload, seed, problems):
    """Each fold's fitted log-likelihood is at least that of the EM starting point."""
    simulate, adaptive = evmt.simulate, evmt.adaptive
    for k, s in enumerate(PLANS[workload]):
        if "eBH_FBC" not in s.methods:
            continue
        cfg = config(simulate, s, seed, k)
        inst = simulate.generate(cfg, 0)
        # the campaign's own random stream for this method and replicate
        rng = simulate._replicate_rng(cfg.seed, 0, lane=1 + list(simulate._METHODS).index("eBH_FBC"))
        pipe = adaptive.structure_pipeline(inst.pvals, inst.covars, cfg.target_alpha, mode="cheap", rng=rng)
        labels = pipe["partition"].labels
        for g, model in enumerate(pipe["models"]):
            start = ref.mixture_loglik_at_start(inst.pvals[labels != g])
            problems.check(model.loglik >= start - 1e-9 * abs(start),
                           f"{s.name}: fold {g} log-likelihood {model.loglik:.6f} "
                           f"below its start {start:.6f}")


def run_campaigns(workload, seed, seconds, trace, deadline, problems):
    result_path = WORK / f"{workload}.json"
    spans = WORK / f"spans-{workload}.json"
    log = WORK / f"{workload}.log"
    argv = [sys.executable, HERE / "campaign_worker.py", workload, seed, 0 if trace else seconds, result_path]
    result_path.unlink(missing_ok=True)
    spans.unlink(missing_ok=True)
    code, _, rss = run_child(argv + ([spans] if trace else []), log, deadline)
    if code != 0:
        raise RuntimeError(f"campaign worker exited {code}: {log.read_text(errors='replace')[-3000:]}")
    result = json.loads(result_path.read_text())
    rounds = result["rounds"]

    evmt = import_evmt()
    check_campaigns(evmt.simulate, workload, seed, rounds, problems)
    check_hybrid_subset(evmt, workload, seed, problems)
    check_em_ascent(evmt, workload, seed, problems)

    # seconds per replicate of each setting: each campaign at its median pass
    plan = PLANS[workload]

    def per_rep(seconds):
        median = [statistics.median(seconds(rnd[u]) for rnd in rounds) for u in range(len(rounds[0]))]
        return [sum(m for m, (k, _, _) in zip(median, units(plan)) if k == j) / (s.reps * s.instances)
                for j, s in enumerate(plan)]

    raw = per_rep(lambda x: x["seconds"])
    scaled = per_rep(lambda x: at_reference(x["seconds"], x["probes"]))
    report_figures([f"{s.name}_reps_per_s" for s in plan], raw, scaled, per_second=True)
    out = {
        "attempted": sum(x["reps"] for rnd in rounds for x in rnd),
        "failed": 0,
        "peak_rss_mb": rss,
        "round_s": sum(at_reference(x["seconds"], x["probes"]) for x in rounds[0]),
        "norm_geomean_s": geomean(scaled),
    }
    if trace:
        traced = result["traced"]
        problems.check([x["methods"] for x in traced] == [x["methods"] for x in rounds[0]],
                       "traced campaign results differ from untraced ones")
        out["attempted"] += sum(x["reps"] for x in traced)
        out["spans"] = [spans]
        out["traced_s"] = sum(at_reference(x["seconds"], x["probes"]) for x in traced)
    return out


# -------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the process it is waiting for (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "evmt" / "__init__.py").is_file():
        print(f"perfbench: no evmt package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    problems = Problems()
    if not args.trace:
        # without a bytecode cache the first import writes it; users pay that once
        if not Path(importlib.util.cache_from_source(str(SRC / "evmt" / "__init__.py"))).exists():
            time_imports(1, deadline)
        imports = time_imports(SETUP_BEFORE, deadline)
    if args.workload == "cli-1m":
        out = run_cli(args.seed, args.seconds, args.trace, deadline, problems)
    else:
        out = run_campaigns(args.workload, args.seed, args.seconds, args.trace, deadline, problems)

    if args.trace:
        from tracer import layer_metrics

        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(out["spans"]).items()}
        overhead = out["traced_s"] - out["round_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / out["round_s"], "unit": "%"}
    else:
        # the last import, so that the imports span the run's changes of speed
        setup = setup_seconds(imports + time_imports(SETUP_AFTER, deadline))
        metrics = {
            "norm_geomean_s": {"value": out["norm_geomean_s"], "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"},
        }
    print(json.dumps({"correct": not problems.items, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
