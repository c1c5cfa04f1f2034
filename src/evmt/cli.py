"""Command-line interface.

Subcommands run a procedure on a CSV of per-hypothesis data (columns:
``pvalue`` required, ``group`` / ``truth`` optional, any other numeric
column is treated as a covariate) or drive a simulation campaign.  Every
data run writes a rejection CSV (``index, rejected, evalue, weight``, index
1-based) plus a JSON summary next to it, and echoes the summary to stdout.

Input is parsed in one numpy pass over the file: every column as float64,
except ``group``.  Only ``groups`` keeps the labels, read as stripped text;
the other commands read a short fixed-width prefix of each label, with no
Python call per row, which is enough to see that no label is empty.  Every
command rejects an empty label.  Only a file numpy rejects, or one with a
blank label prefix, is read again row by row with the csv module, which
either accepts the irregular rows it tolerates (whitespace-only lines, rows
of blank cells, labels padded past the prefix) or reports the offending
line.  The rejection table is written in bounded chunks.  Each distinct
value is formatted once; each chunk is assembled as a NUL-padded byte
matrix, one row per line, whose padding one mask drops before a single
write.

Exit codes: 0 success, 2 input error (unreadable file, bad column), 3
configuration error (bad level, wrong weight scheme for a subcommand, an
option the subcommand does not read).
"""

from __future__ import annotations

import argparse
import csv
import json
import secrets
import sys
import warnings
from pathlib import Path

import numpy as np

from . import adaptive, groups, hybrid
from .adaptive import fit_lfdr_em, structure_pipeline
from .errors import ConfigurationError, InputError
from .groups import GroupPartition, run_grouped_ebh
from .hybrid import HybridConfig, _hybrid_evalues
from .knockoffs import _combined_evalues
from .procedures import (
    ProcedureSpec,
    _check_alpha,
    _lookup,
    _Truth,
    as_evalues,
    ebh_select,
    procedure_to_evalues,
    solve_threshold,
)
from .simulate import SimulationConfig, run_campaign

_SPECIAL_COLUMNS = ("pvalue", "group", "truth", "evalue")

# each setting's campaign methods; ``grouped`` and ``scores`` also name the
# sets that the grouped and the score settings share
_DEFAULT_METHODS = {
    "grouped": ["BC_Com", "BC_Sep", "eBH_1", "eBH_2", "eBH_Ada"],
    "scores": ["BH", "ST", "BC", "eBH_Ave", "eBH_Ada"],
    "STRUCT": ["BH", "eBH_FBC"],
    "KNOCK_SYNTH": ["KO_1", "KO_2", "KO_Hybrid"],
    "ALLNULL": ["BH", "ST", "BC"],
}
_DEFAULT_METHODS.update(dict.fromkeys(("E1", "E2", "F1", "F2", "F3"), _DEFAULT_METHODS["grouped"]))
_DEFAULT_METHODS.update(dict.fromkeys(("S1", "S2"), _DEFAULT_METHODS["scores"]))

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evmt",
        description="FDR procedures, e-value aggregation and simulation campaigns",
    )
    parser.add_argument("subcommand", choices=list(_COMMANDS))
    parser.add_argument("--input", action="append", default=None, metavar="PATH",
                        help="input CSV (repeat for knockoff-combine)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="target FDR level (default 0.05)")
    parser.add_argument("--weights", default=None, help="; ".join(
        f"{command}: " + "|".join(dict.fromkeys(table.values())) + f" (default {default}"
        + "".join(f", {key} = {name}" for key, name in table.items() if key != name) + ")"
        for command, (_, _, (table, default)) in _COMMANDS.items() if table
    ))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, metavar="PATH")
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--setting", default=None)
    parser.set_defaults(drawn_seed=None)
    return parser


_CSV = dict(delimiter=",", comments=None, quotechar='"', encoding="utf-8")

# Rows of the rejection table formatted and written at a time; bounds the
# text held in memory.
_WRITE_ROWS = 1 << 16

# Characters of each ``group`` cell kept by the parse of a command that drops
# the labels: enough to see past the padding of ordinary labels.
_LABEL_PREFIX = 8


def _is_blank(row) -> bool:
    return not row or all(not cell.strip() for cell in row)


def _data_line(path, row: int) -> int:
    """File line of the 0-based data row ``row``, counting the blank lines skipped.

    Only error messages need it, so the file is read again rather than
    keeping a line number per row.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for k, rec in enumerate(r for r in reader if not _is_blank(r)):
            if k == row:
                return reader.line_num
    raise ValueError(f"{path} has no data row {row}")


def _read_header(path):
    """Stripped column names and the number of file lines the header spans."""
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        lines = reader.line_num
    header = [h.strip() for h in header]
    for k, name in enumerate(header):
        if name in header[:k]:
            raise InputError(f"{path}: line 1: duplicate column {name!r}")
    return header, lines


def _parse_columns(path, header, skip, labels) -> dict:
    """Whole columns parsed by numpy in one pass; ``ValueError`` on any irregular row.

    Every column is read as float64 except ``group``.  With ``labels`` its
    cells are read as stripped text.  Without, only the first
    ``_LABEL_PREFIX`` characters of each cell are kept, unstripped, with no
    per-row Python call: a label whose prefix is not blank is not empty, and
    a blank prefix sends the file to the row scan.
    """
    g = header.index("group") if "group" in header else None
    text = object if labels else f"U{_LABEL_PREFIX}"
    fields = [(f"f{k}", text if k == g else np.float64) for k in range(len(header))]
    with warnings.catch_warnings():
        # loadtxt warns about empty lines, which are skipped as blank rows,
        # and about files without rows, which the caller reports
        warnings.simplefilter("ignore", UserWarning)
        # the structured dtype fixes the field count, so rows with another count fail
        values = np.loadtxt(
            path, skiprows=skip, dtype=fields, ndmin=1,
            converters={g: str.strip} if labels and g is not None else None, **_CSV
        )
    if values.size == 0:
        raise ValueError("no rows")
    if g is not None:
        cells = values[f"f{g}"]
        blank = not all(cells) if labels else np.any((cells == "") | np.strings.isspace(cells))
        if blank:
            # an empty label, a row of blank cells, or a label padded past the
            # prefix: the row scan tells them apart
            raise ValueError("blank group cell")
    # copies, so that no column keeps the whole record array alive; a label
    # prefix stays a view, as read_table drops it right away
    return {
        name: values[f"f{k}"] if k == g and not labels else values[f"f{k}"].copy()
        for k, name in enumerate(header)
    }


def _scan_table(path, header) -> dict:
    """Row-by-row parse with the csv module; raises a line-numbered InputError.

    Blank rows (no cells, or only blank cells) are skipped, and cells are
    stripped before parsing.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        columns = {name: [] for name in header}
        for row in reader:
            if _is_blank(row):
                continue
            if len(row) != len(header):
                raise InputError(
                    f"{path}: line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            for name, cell in zip(header, row):
                columns[name].append(cell.strip())

    table = {}
    for name, cells in columns.items():
        if name == "group":
            if "" in cells:
                line = _data_line(path, cells.index(""))
                raise InputError(f"{path}: line {line}: empty group label")
            table[name] = np.asarray(cells)
            continue
        values = np.empty(len(cells))
        for i, cell in enumerate(cells):
            try:
                values[i] = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: line {_data_line(path, i)}: cannot parse {name}={cell!r} as a number"
                ) from None
        table[name] = values
    return table


def read_table(path, *, labels: bool = False) -> dict:
    """Parse a CSV with a header row into typed column arrays.

    Every column holds finite floats, except ``group``, which holds the
    stripped labels as strings.  It is always checked for empty labels but
    kept in the table only with ``labels=True``.
    """
    header, skip = _read_header(path)
    try:
        table = _parse_columns(path, header, skip, labels)
    except ValueError:
        table = _scan_table(path, header)

    if not table or len(next(iter(table.values()))) == 0:
        raise InputError(f"{path}: no data rows")
    if not labels:
        table.pop("group", None)
    for name, values in table.items():
        if name != "group" and not np.all(np.isfinite(values)):
            bad = int(np.argmin(np.isfinite(values)))
            raise InputError(
                f"{path}: line {_data_line(path, bad)}: {name} must be finite, got {values[bad]}"
            )
    if "pvalue" in table and (np.min(table["pvalue"]) < 0 or np.max(table["pvalue"]) > 1):
        bad = int(np.argmax((table["pvalue"] < 0) | (table["pvalue"] > 1)))
        raise InputError(f"{path}: line {_data_line(path, bad)}: pvalue outside [0, 1]")
    if "evalue" in table and np.min(table["evalue"]) < 0:
        bad = int(np.argmax(table["evalue"] < 0))
        raise InputError(f"{path}: line {_data_line(path, bad)}: evalue must be nonnegative")
    if "truth" in table and not np.all(np.isin(table["truth"], (0.0, 1.0))):
        bad = int(np.argmax(~np.isin(table["truth"], (0.0, 1.0))))
        raise InputError(f"{path}: line {_data_line(path, bad)}: truth must be 0 or 1")
    return table


def _covariates(table) -> np.ndarray | None:
    names = [c for c in table if c not in _SPECIAL_COLUMNS]
    if not names:
        return None
    return np.column_stack([table[c] for c in sorted(names)])


def _require(table, column, path):
    if column not in table:
        raise InputError(f"{path}: missing required column {column!r}")
    return table[column]


def _pick(args):
    """``--weights`` read in the subcommand's table of spellings (its default
    when not given)."""
    table, default = _COMMANDS[args.subcommand][2]
    if args.weights is None:
        return default
    try:
        return _lookup(table, args.weights, "weight mode")
    except ConfigurationError:
        raise ConfigurationError(
            f"--weights for {args.subcommand} must be one of {sorted(table)}, got {args.weights!r}"
        ) from None


def _seed(args, given=None) -> int:
    """The run's seed: ``--seed`` (non-negative, as numpy needs), else ``given``
    (a config file's), else a fresh one, kept in ``args.drawn_seed`` for
    ``main`` to print once the run has passed every check."""
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigurationError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    if given is None:
        given = args.drawn_seed = secrets.randbits(31)
    return given


def _metrics(summary, rejected, truth, partition=None):
    if truth is None:
        return
    fdp, power, g_fdp, g_power = _Truth(truth, partition).score(rejected)
    summary["metrics"] = {"fdp": fdp, "power": power}
    if partition is not None:
        names = partition.names or range(1, partition.n_groups + 1)
        summary["metrics"]["groups"] = [
            {"group": label, "fdp": f, "power": w}
            for label, f, w in zip(names, g_fdp.tolist(), g_power.tolist())
        ]


def _text_rows(values):
    """``:.10g`` text of each distinct value as NUL-padded byte rows, and each entry's row.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own text.
    """
    bits, at = np.unique(np.asarray(values, dtype=np.float64).view(np.uint64), return_inverse=True)
    text = np.array([f"{v:.10g}" for v in bits.view(np.float64).tolist()], dtype=np.bytes_)
    return text.view(np.uint8).reshape(text.size, text.itemsize), at


def _index_digits(a, b):
    """ASCII digits of the indices ``a + 1 .. b``, one NUL-padded row each."""
    width = len(str(b))
    digits = np.zeros((b - a, width), dtype=np.uint8)
    for d in range(len(str(a + 1)), width + 1):
        # the rows whose index has d digits are one contiguous run
        lo, hi = max(a + 1, 10 ** (d - 1)), min(b, 10**d - 1)
        run = np.arange(lo, hi + 1)
        for k in range(d):
            digits[lo - a - 1:hi - a, k] = run // 10 ** (d - 1 - k) % 10 + ord("0")
    return digits


def _write_outputs(args, evalues, weights, rejected, summary):
    out = Path(args.out) if args.out else Path("evmt_rejections.csv")
    mask = np.zeros(evalues.size, dtype=bool)
    mask[rejected] = True
    e_text, e_at = _text_rows(evalues)
    w_text, w_at = _text_rows(weights)
    flags = mask.view(np.uint8)
    with open(out, "wb") as handle:
        handle.write(b"index,rejected,evalue,weight\n")
        for a in range(0, evalues.size, _WRITE_ROWS):
            b = min(a + _WRITE_ROWS, evalues.size)
            # one row per line: [index | ",r," | e | "," | w | "\n"], NUL-padded
            digits = _index_digits(a, b)
            d = digits.shape[1]
            c = d + 3 + e_text.shape[1]  # the comma before the weight
            lines = np.zeros((b - a, c + 2 + w_text.shape[1]), dtype=np.uint8)
            lines[:, :d] = digits
            lines[:, d:d + 3] = np.frombuffer(b",0,", dtype=np.uint8)
            lines[:, d + 1] += flags[a:b]
            lines[:, d + 3:c] = e_text[e_at[a:b]]
            lines[:, c] = ord(",")
            lines[:, c + 1:-1] = w_text[w_at[a:b]]
            lines[:, -1] = ord("\n")
            handle.write(lines[lines != 0].tobytes())
    summary["n"] = int(evalues.size)
    summary["n_rejected"] = int(mask.sum())
    summary["rejections_csv"] = str(out)
    text = json.dumps(summary, indent=2, default=str)
    out.with_suffix(".json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


# A runner reads its input, adds its own fields to the summary and returns
# ``(evalues, weights, rejected, truth, partition)``; ``simulate``'s returns
# its report.


def _single_table(args, **options):
    if not args.input or len(args.input) != 1:
        raise InputError("this subcommand needs exactly one --input CSV")
    return read_table(args.input[0], **options), args.input[0]


def _run_threshold(args, summary):
    """bh, storey, bc or fbc.

    fbc runs with one mixture fit's curves, fitted on the masked p-values
    ``min(p_i, 1 - p_i)`` (the masking of AdaPT, Lei and Fithian, 2018) and
    applied to p itself.  The mirror count bounds the false rejections by
    swapping each null p_i with 1 - p_i.  The masked vector is the same on
    both sides of a swap, so the fit, and with it every curve, is too.
    Given the masked vector, an independent null p_i that is symmetric about
    1/2 (uniform, say) is either of the two with equal chance, independently
    across the nulls, so it is a rejection score ``phi_i(p_i) <= t`` or a
    mirror score ``phi_i(1 - p_i) <= t`` with equal chance: the swap of BC's
    argument holds conditionally on the curves.  Curves fitted on p itself
    see which side was observed; on global-null data with covariates they
    let the FDR exceed the level.
    """
    table, path = _single_table(args)
    p = _require(table, "pvalue", path)
    curves = None
    if args.subcommand == "fbc":
        covars = _covariates(table)
        model = fit_lfdr_em(np.minimum(p, 1.0 - p), covars)
        curves = model.curves(covars if covars is not None else np.empty((p.size, 0)))
    spec = ProcedureSpec(kind=args.subcommand, alpha=args.alpha, rejection_functions=curves)
    res = solve_threshold(p, spec)
    summary.update(feasible=res.feasible, threshold=res.threshold, false_rejection_estimate=res.m_at_T)
    if curves is not None:
        summary["model_converged"] = model.converged
    return procedure_to_evalues(p, spec, res), np.ones(p.size), res.rejected, table.get("truth"), None


def _run_ebh(args, summary):
    table, path = _single_table(args)
    e = as_evalues(_require(table, "evalue", path))
    return e, np.ones(e.size), ebh_select(e, args.alpha), table.get("truth"), None


def _run_groups(args, summary):
    table, path = _single_table(args, labels=True)
    p = _require(table, "pvalue", path)
    part = GroupPartition.from_labels(_require(table, "group", path))
    del table["group"]  # one string per row; the partition holds the codes
    report = run_grouped_ebh(p, part, args.alpha, scheme=_pick(args))
    summary["scheme"] = report.scheme
    summary["thresholds"] = [
        {"group": part.names[l] if part.names else l + 1, "threshold": res.threshold,
         "feasible": res.feasible, "group_rejections": int(res.rejected.size)}
        for l, res in enumerate(report.thresholds)
    ]
    return report.evalues, report.weights, report.rejected, table.get("truth"), part


def _run_hybrid(args, summary):
    table, path = _single_table(args)
    p = _require(table, "pvalue", path)
    config = HybridConfig(alpha_ebh=args.alpha, weight_mode=_pick(args))
    evalues, w_bh, w_bc = _hybrid_evalues(p, config)
    summary.update(weight_mode=config.weight_mode, alpha_bh=config.alpha_bh, alpha_bc=config.alpha_bc)
    return evalues, w_bh + w_bc, ebh_select(evalues, args.alpha), table.get("truth"), None


def _run_adaptive(args, summary):
    table, path = _single_table(args)
    p = _require(table, "pvalue", path)
    covars = _covariates(table)
    mode = _pick(args)
    seed = _seed(args)
    pipe = structure_pipeline(p, covars, args.alpha, mode=mode, rng=np.random.default_rng(seed))
    summary.update(weight_mode=mode, seed=seed, fold_level=pipe["alpha_fbc"])
    summary["thresholds"] = [
        {"fold": g + 1, "threshold": t.threshold, "feasible": t.feasible}
        for g, t in enumerate(pipe["thresholds"])
    ]
    summary["models"] = [
        {"fold": g + 1, "converged": m.converged, "n_iter": m.n_iter, "loglik": m.loglik}
        for g, m in enumerate(pipe["models"])
    ]
    return pipe["evalues"], pipe["weights"], pipe["rejected"], table.get("truth"), None


def _read_stat_column(path) -> np.ndarray:
    table = read_table(path, labels=True)
    if len(table) != 1 or "group" in table:
        raise InputError(f"{path}: line 1: expected a single statistic column, got {sorted(table)}")
    return next(iter(table.values()))


def _run_knockoff(args, summary):
    if not args.input or len(args.input) != 2:
        raise InputError("knockoff-combine needs exactly two --input CSV files")
    w_a, w_b = [_read_stat_column(path) for path in args.input]
    alpha_ko = args.alpha / 2.0
    evalues = _combined_evalues(w_a, w_b, alpha_ko, 0.5, 0.5)
    summary.update(alpha_per_family=alpha_ko, combination_weights=[0.5, 0.5])
    return evalues, np.ones(evalues.size), ebh_select(evalues, args.alpha), None, None


def _run_simulate(args, summary):
    """The campaign's report; the summary is not used."""
    overrides = {}
    if args.input:
        if len(args.input) != 1:
            raise InputError("simulate accepts at most one --input config file")
        overrides = SimulationConfig._file_fields(args.input[0], setting=args.setting)
    elif args.setting:
        overrides["setting"] = args.setting
    if "setting" not in overrides:
        raise ConfigurationError("simulate needs --setting or a config file")
    if args.reps is not None:
        overrides["replications"] = args.reps
    overrides["seed"] = _seed(args, overrides.get("seed"))
    if args.alpha is not None:
        overrides["target_alpha"] = args.alpha
    config = SimulationConfig(**overrides)
    return run_campaign(config, _DEFAULT_METHODS[config.setting])


# each subcommand: its runner, the options it reads (``main`` refuses any
# other that is given), and its table of --weights spellings with the default
_DATA_OPTIONS = ("input", "alpha", "out")
_UNWEIGHTED = ({}, None)
_COMMANDS = {
    **dict.fromkeys(("bh", "storey", "bc", "fbc"), (_run_threshold, _DATA_OPTIONS, _UNWEIGHTED)),
    "ebh": (_run_ebh, _DATA_OPTIONS, _UNWEIGHTED),
    "groups": (_run_groups, (*_DATA_OPTIONS, "weights"), (groups._SCHEMES, "adaptive")),
    "hybrid": (_run_hybrid, (*_DATA_OPTIONS, "weights"), (hybrid._MODES, "adaptive")),
    "adaptive": (_run_adaptive, (*_DATA_OPTIONS, "weights", "seed"), (adaptive._MODES, "cheap")),
    "knockoff-combine": (_run_knockoff, _DATA_OPTIONS, _UNWEIGHTED),
    "simulate": (_run_simulate, (*_DATA_OPTIONS, "seed", "reps", "setting"), _UNWEIGHTED),
}
_OPTIONS = tuple(dict.fromkeys(name for _, reads, _ in _COMMANDS.values() for name in reads))


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    A data command's level is checked, and an option that the subcommand
    does not read (see ``_COMMANDS``) refused, before any input is read.  Its
    summary starts as ``{"command", "alpha"}``; ``main`` adds the metrics to
    what its runner returns and writes the table and the summary.  A seed
    drawn for the run is printed just before the summary or report, so a
    run that fails a check prints nothing to stdout.
    """
    args = build_parser().parse_args(argv)
    command = args.subcommand
    try:
        if command != "simulate":
            args.alpha = _check_alpha(0.05 if args.alpha is None else args.alpha)
        runner, reads, _ = _COMMANDS[command]
        unread = [f"--{name}" for name in _OPTIONS if getattr(args, name) is not None and name not in reads]
        if unread:
            raise ConfigurationError(f"{command} does not read {', '.join(unread)}")
        summary = {"command": command, "alpha": args.alpha}
        result = runner(args, summary)
        if args.drawn_seed is not None:
            print(f"seed = {args.drawn_seed}")
        if command == "simulate":
            result.to_csv(Path(args.out) if args.out else Path("evmt_metrics.csv"))
            print(result.to_json())
            return 0
        evalues, weights, rejected, truth, partition = result
        _metrics(summary, rejected, truth, partition)
        return _write_outputs(args, evalues, weights, rejected, summary)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
