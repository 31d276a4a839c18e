"""Command-line front end.

Subcommands: code, pmf, tail, bounds, bahadur, simulate, analyze, figures.
Every numeric value printed is the untouched result of the corresponding
library call; human tables round to 6 significant digits while csv/json keep
full double precision.  Exit status: 0 on success, 1 on domain or data
errors (running out of memory among them), 2 on usage errors.

Most calls are one command in a fresh interpreter, so each command imports
the library modules it runs at its own entry: code_matrix (and with it
numpy) code --emit, simulate and analyze --predictions; prob_engine pmf,
tail and simulate; bounds bounds, bahadur, analyze and figures; simulator
simulate; and experiment_io analyze and figures.  json is imported only
with --format json, and no command loads concurrent.futures: simulate
draws from one stream and, in full-decode mode, decodes its far rows
block by block in the calling thread at every --workers.  Only
--predictions, pmf, tail, simulate and code
--emit load numpy.  code, analyze --fixture, analyze --summary, figures,
bounds and bahadur run on the standard library: a code's m comes from the
closed form of its distance (sylvester_distance, with the parser's
choices and the csv writer in the standard-library-only _shared), the
bounds and correlation ranges are closed forms in math, and
experiment_io's fold-summary half takes its sums by math.fsum.  No module
these commands import imports dataclasses, which loads inspect: their
records are NamedTuples.  A command's imports are absolute (import ecoc.x
as y): a relative one resolves its package in Python code on every call,
which cost 1-4 us per command in process where the absolute form costs
under 0.5 us.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from ._shared import (
    DEFAULT_ORIENTATION,
    KEEP_BOTTOM_RIGHT,
    KEEP_TOP_LEFT,
    KZ_POLICIES,
    MODE_FULL_DECODE,
    MODE_THRESHOLD,
    csv_text,
    sylvester_distance,
)
from .errors import EcocError

if TYPE_CHECKING:
    from . import experiment_io as xio
    from . import prob_engine as pe

FORMATS = ("table", "csv", "json")


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _emit(text: str, out: str | Path | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _grid(rows, specs: tuple[str, ...]) -> str:
    """Table text, one line per row: each cell rendered by _fmt, padded by
    its column's format spec (such as ">12") and joined by two spaces."""
    return "".join(
        "  ".join(format(_fmt(v), spec) for v, spec in zip(row, specs)) + "\n"
        for row in rows
    )


def _record(payload: dict, fmt: str) -> str:
    """One record as a json object, a csv header and row, or a table of
    key/value lines.  A one-field record is one json line, and its table is
    the bare value."""
    if fmt == "json":
        import json

        return json.dumps(payload, indent=2 if len(payload) > 1 else None) + "\n"
    if fmt == "csv":
        return csv_text(list(payload), [list(payload.values())])
    if len(payload) == 1:
        return _grid([payload.values()], ("",))
    width = max(len(c) for c in payload)
    return _grid(payload.items(), (f"<{width}", ""))


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--model",
        required=True,
        choices=("independent", "iid", "pair", "exchangeable"),
        help="dependence structure of the classifier errors",
    )
    p.add_argument("--rates", help="comma-separated per-classifier error rates")
    p.add_argument("--n", type=int, help="number of classifiers")
    p.add_argument("--ebar", type=float, help="common error rate")
    p.add_argument("--f", type=float, help="joint error probability of the last two classifiers")
    p.add_argument("--c", type=float, help="uniform correlation coefficient")


def _add_orientation_flag(p: argparse.ArgumentParser) -> None:
    # No default, so that _only_for sees the flag where it is not read;
    # _orientation resolves an absent one where it is.
    p.add_argument("--orientation", choices=(KEEP_BOTTOM_RIGHT, KEEP_TOP_LEFT))


def _orientation(args) -> str:
    return args.orientation or DEFAULT_ORIENTATION


# The model flags each --model reads; pair reads --rates in place of --n and
# --ebar when it is given.  A model flag the model does not read is an error.
_MODEL_FLAGS = {
    "iid": ("n", "ebar"),
    "independent": ("rates",),
    "pair": ("f", "n", "ebar"),
    "exchangeable": ("n", "ebar", "c"),
}


def _build_model(args) -> pe.DependenceModel:
    import ecoc.prob_engine as pe

    reads, model = _MODEL_FLAGS[args.model], f"--model {args.model}"
    if args.model == "pair" and args.rates is not None:
        reads, model = ("f", "rates"), f"{model} with --rates"
    for flag in ("rates", "n", "ebar", "f", "c"):
        if flag not in reads and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} does not apply to {model}")
    missing = [f"--{flag}" for flag in reads if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"--model {args.model} requires {', '.join(missing)}")
    if args.model == "exchangeable":
        return pe.ExchangeableModel(args.n, args.ebar, args.c)
    if args.rates is None:
        profile = pe.ErrorProfile.iid(args.n, args.ebar)
    else:
        profile = pe.ErrorProfile(args.rates.split(","))
    if args.model == "pair":
        return pe.PairModel(profile, args.f)
    return pe.Independent(profile)


def _only_for(args, option: str, flags: dict[str, tuple[str, ...]]) -> None:
    """Reject a flag that only another choice of --option reads: flags maps
    each choice to the flags only it reads."""
    for choice, names in flags.items():
        given = [f for f in names if getattr(args, f[2:].replace("-", "_")) is not None]
        if choice != getattr(args, option) and given:
            raise ValueError(f"{given[0]} applies only to --{option} {choice}")


# ---------------------------------------------------------------------------
# subcommands: each returns its output text, which main writes


def cmd_code(args) -> str:
    """Only --emit builds the matrix: the parameters of the square code of
    c classes are n = c, d in closed form, m = d // 2 and r = m / n."""
    if args.emit:
        if args.format != "table":
            raise ValueError(f"--format {args.format} does not apply to --emit")
        import ecoc.code_matrix as cm

        return cm.to_text(cm.build_code_matrix(args.classes, _orientation(args)))
    d = sylvester_distance(args.classes, _orientation(args))
    m = d // 2
    payload = {
        "classes": args.classes,
        "n": args.classes,
        "d": d,
        "m": m,
        "r": m / args.classes,
        "orientation": _orientation(args),
    }
    return _record(payload, args.format)


def cmd_pmf(args) -> str:
    model = _build_model(args)
    if args.k is not None:
        return _record({"pmf": model.pmf(args.k)}, args.format)
    rows = enumerate(model.count_pmf().tolist())
    if args.format == "table":
        return _grid(rows, (">3", ""))
    if args.format == "csv":
        # Not csv_text: an (int, float) row is never quoted, and a float's repr is csv's cell.
        return "k,pmf\n" + "".join([f"{k},{p!r}\n" for k, p in rows])
    import json

    pmf = [{"k": k, "pmf": p} for k, p in rows]
    return json.dumps({"pmf": pmf}, indent=2) + "\n"


def cmd_tail(args) -> str:
    model = _build_model(args)
    return _record({"tail": model.tail(args.m)}, args.format)


def cmd_bounds(args) -> str:
    import ecoc.bounds as bounds_mod

    report = bounds_mod.evaluate_bounds(
        args.n, args.m, args.ebar, args.c, args.mu, kz_policy=args.kz_policy
    )
    payload = {
        "n": args.n,
        "m": args.m,
        "e_bar": args.ebar,
        "c": args.c,
        "gs": report.gs,
        "feller": report.feller,
        "chernoff_mu": report.chernoff_mu,
        "chernoff": report.chernoff_lambda,
        "kz": report.kz,
        "lambda": report.lam,
        "omega": report.omega,
    }
    if report.kz_reason:
        payload["kz_reason"] = report.kz_reason
    return _record(payload, args.format)


def cmd_bahadur(args) -> str:
    import ecoc.bounds as bounds_mod

    c_min, c_max = bounds_mod.bahadur_range(args.n, args.ebar)
    v_min, v_max = bounds_mod.valid_correlation_range(args.n, args.ebar)
    payload = {
        "c_min": c_min,
        "c_max": c_max,
        "valid_c_min": v_min,
        "valid_c_max": v_max,
    }
    return _record(payload, args.format)


# Flags each simulate mode reads; giving one to the other mode is an error.
_MODE_FLAGS = {
    MODE_THRESHOLD: ("--m",),
    MODE_FULL_DECODE: ("--classes", "--true-class", "--orientation"),
}


def cmd_simulate(args) -> str:
    import ecoc.code_matrix as cm
    import ecoc.simulator as sim

    _only_for(args, "mode", _MODE_FLAGS)
    model = _build_model(args)
    seed = args.seed
    if seed is None:
        env = os.environ.get("ECOC_SEED")
        try:
            seed = sim.DEFAULT_SEED if env is None else int(env)
        except ValueError:
            raise ValueError(f"ECOC_SEED={env!r} is not an integer") from None
    cfg = sim.SimConfig(trials=args.trials, seed=seed, workers=args.workers)
    if args.mode == MODE_THRESHOLD:
        if args.m is None:
            raise ValueError("threshold mode requires --m")
        result = sim.mc_threshold_error(model, args.m, cfg)
    else:
        classes = args.classes if args.classes is not None else model.n
        code = cm.build_code_matrix(classes, orientation=_orientation(args))
        result = sim.mc_decode_error(model, code, cfg, true_class=args.true_class)
    payload = {
        "error_rate": result.error_rate,
        "std_err": result.std_err,
        "trials": result.trials,
        "mode": result.mode,
        "seed": seed,
    }
    return _record(payload, args.format)


def _folds(
    args, sources: tuple[str, ...]
) -> tuple[str, list[xio.FoldSummary], int, int]:
    """(name, fold summaries, n, m) from the one fold source given among
    sources, the source flags the command offers.  m is that of the square
    code of the folds' classes, and n is --n when given, else that code's
    length.  A fixture's dataset fixes its class count, so --classes goes
    with --summary or --predictions only; name is the fixture or the stem
    of the (first) file.

    m comes from the closed form of the code's distance
    (sylvester_distance), which checks the class count and orientation as
    build_code_matrix does, with the same messages in the same order: a
    fixture is loaded before, a summary file read after those checks.  Only
    --predictions builds the code, to decode its folds, which it loads all
    before it analyzes any: the first file that fails to load is the error."""
    import ecoc.experiment_io as xio

    given = [f for f in sources if getattr(args, f[2:]) not in (None, [])]
    if len(given) != 1:
        raise ValueError(f"provide exactly one of {', '.join(sources)}")
    if args.fixture is not None:
        if args.classes is not None:
            raise ValueError("--classes applies only to --summary or --predictions")
        name, summaries = args.fixture, xio.load_fixture(args.fixture)
        classes = xio.DATASETS[args.fixture.rsplit("_", 1)[0]].classes
    elif args.classes is None:
        raise ValueError(f"--classes is required with {given[0]}")
    else:
        classes = args.classes
    m = sylvester_distance(classes, _orientation(args)) // 2
    if args.summary is not None:
        name, summaries = Path(args.summary).stem, xio.load_summaries(args.summary)
    elif args.fixture is None:
        import ecoc.code_matrix as cm

        code = cm.build_code_matrix(classes, orientation=_orientation(args))
        folds = [xio.load_predictions(path) for path in args.predictions]
        name, summaries = Path(args.predictions[0]).stem, [xio.analyze_fold(f, code) for f in folds]
    return name, summaries, classes if args.n is None else args.n, m


# The two columns the analyze table heads with a shorter label.
_SHORT_LABELS = {"mean_bit_error": "e_bar", "mean_correlation": "corr"}


def cmd_analyze(args) -> str:
    import ecoc.experiment_io as xio

    _, summaries, n, m = _folds(args, ("--predictions", "--summary", "--fixture"))
    if not summaries:
        raise ValueError("no folds to analyze")
    reports = [xio.bound_report(s, n, m, kz_policy=args.kz_policy) for s in summaries]
    agg = xio.aggregate(summaries, reports)
    if args.format == "json":
        import json

        return json.dumps(xio.report_json_obj(summaries, reports, agg), indent=2) + "\n"
    if args.format == "csv":
        return xio.format_report_csv(summaries, reports, agg)
    header = [_SHORT_LABELS.get(c, c) for c in xio.REPORT_COLUMNS]
    cells = xio._cells(xio.REPORT_COLUMNS, xio.report_rows(summaries, reports, agg))
    return _grid([header, *cells], (">12",) * len(header))


# Flags each figure reads; giving one to the other figure is an error.
_FIGURE_FLAGS = {
    "fig1": ("--ns", "--r", "--step"),
    "scatter": ("--fixture", "--summary", "--classes", "--n", "--orientation"),
}


def _ensemble_sizes(text: str) -> tuple[int, ...]:
    """The --ns list as integers; an entry that is none is named."""
    sizes = []
    for entry in text.split(","):
        try:
            sizes.append(int(entry))
        except ValueError:
            raise ValueError(f"--ns entry {entry!r} is not an integer") from None
    return tuple(sizes)


def cmd_figures(args) -> None:
    """Writes its CSV files into the --out directory itself, so main has no
    text to write."""
    import ecoc.experiment_io as xio

    _only_for(args, "figure", _FIGURE_FLAGS)
    if args.figure == "fig1":
        # Only the flags given are passed: the defaults are figure_one_curves'.
        curve = {f: v for f in ("ns", "r", "step") if (v := getattr(args, f)) is not None}
        if "ns" in curve:
            curve["ns"] = _ensemble_sizes(curve["ns"])
        files = {"fig1_curves": xio.figure_one_curves(**curve)}
    else:
        name, summaries, n, m = _folds(args, ("--summary", "--fixture"))
        if not summaries:
            raise ValueError("no folds in input; nothing to plot")
        curves, folds = xio.scatter_figure_data(summaries, n, m)
        files = {f"{name}_curves": curves, f"{name}_folds": folds}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, rows in files.items():
        path = out_dir / f"{stem}.csv"
        _emit(xio.format_rows_csv(rows), path)
        sys.stderr.write(f"wrote {path}\n")


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subcommand parsers, that
    rejects "--" as an option's value.  argparse drops the "--" of
    --flag=-- and would store an empty list, which no type converter or
    choice check sees."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            flag = "/".join(action.option_strings)
            self.error(f"argument {flag}: '--' is not a value")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ecoc",
        description="Exact error probabilities, bounds, and experiment tools "
        "for output-coded ensemble classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each add_parser result, by name

    def common(p):
        p.add_argument("--format", choices=FORMATS, default="table")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("code", help="build a code matrix")
    p.add_argument("--classes", type=int, required=True)
    _add_orientation_flag(p)
    p.add_argument("--emit", action="store_true", help="print the serialized matrix")
    common(p)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("pmf", help="exact error-count probability")
    _add_model_flags(p)
    p.add_argument("--k", type=int, help="error count; omit for the full distribution")
    common(p)
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("tail", help="exact probability of at least m errors")
    _add_model_flags(p)
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("bounds", help="evaluate the analytic bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ebar", type=float, required=True)
    p.add_argument("--c", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--kz-policy", choices=KZ_POLICIES, default="gated")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("bahadur", help="admissible correlation range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ebar", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_bahadur)

    p = sub.add_parser("simulate", help="Monte Carlo error estimate")
    _add_model_flags(p)
    p.add_argument(
        "--mode", choices=(MODE_THRESHOLD, MODE_FULL_DECODE), default=MODE_THRESHOLD,
    )
    p.add_argument("--m", type=int, help="error threshold (threshold mode)")
    p.add_argument("--classes", type=int, help="code size (full-decode mode)")
    p.add_argument("--true-class", type=int, help="pin the true class (full-decode)")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted in 1..256; output and work are the same at every value")
    _add_orientation_flag(p)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="fold metrics, bounds, and aggregation")
    p.add_argument("--predictions", nargs="*", default=[],
                   help="raw per-fold prediction CSVs")
    p.add_argument("--summary", help="fold-summary CSV")
    p.add_argument("--fixture", help="bundled fixture name, e.g. letters_dt")
    p.add_argument("--classes", type=int, help="number of classes (--predictions, --summary)")
    p.add_argument("--n", type=int, help="override codeword length in bound formulas")
    p.add_argument("--kz-policy", choices=KZ_POLICIES, default="gated")
    _add_orientation_flag(p)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("figures", help="emit plot-data CSVs")
    p.add_argument("--figure", choices=tuple(_FIGURE_FLAGS), required=True)
    p.add_argument("--ns", help="fig1 ensemble sizes, comma-separated")
    p.add_argument("--r", type=float, help="fig1 correction ratio")
    p.add_argument("--step", type=float, help="fig1 grid step")
    p.add_argument("--fixture", help="bundled fixture name (scatter)")
    p.add_argument("--summary", help="fold-summary CSV (scatter)")
    p.add_argument("--classes", type=int, help="number of classes (with --summary)")
    p.add_argument("--n", type=int, help="override codeword length")
    _add_orientation_flag(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_figures)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _one_pass(argv: list[str]) -> argparse.Namespace | None:
    """What parse_args(argv) returns, read in one pass over the subcommand
    parser's own actions, or None where only argparse may decide.

    The pass reads an exact --flag value or --flag=value of a one-value
    store action, the value non-empty and not starting with "-", and a bare
    store_true flag; it converts and checks each value, then fills the
    defaults as they are (argparse would convert a string default through
    its action's type, but no action has one).  Anything else (help, an
    abbreviation, a list flag, a missing required flag, a failed conversion
    or choice, "--", a negative or empty value) returns None, so argparse
    alone writes help and usage errors.
    """
    command = _parser().commands.get(argv[0]) if argv else None
    if command is None:
        return None
    options = command._option_string_actions
    args = argparse.Namespace(command=argv[0], **command._defaults)
    seen = set()
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            flag, eq, text = token.partition("=")
            action = options.get(flag)
            if isinstance(action, argparse._StoreTrueAction) and not eq:
                value = action.const
            elif isinstance(action, argparse._StoreAction) and action.nargs is None:
                text = text if eq else next(tokens, "")
                if not text or text.startswith("-"):
                    return None
                value = text if action.type is None else action.type(text)
                if action.choices is not None and value not in action.choices:
                    return None
            else:
                return None
            setattr(args, action.dest, value)
            seen.add(action)
        for action in command._actions:
            if action in seen or action.default is argparse.SUPPRESS:
                continue
            if action.required:
                return None
            setattr(args, action.dest, action.default)
    except (TypeError, ValueError):
        return None
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _one_pass(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        text = args.func(args)
        if text is not None:
            _emit(text, args.out)
        return 0
    except (EcocError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        # numpy's says what it could not allocate; a bare one says nothing.
        sys.stderr.write(f"error: out of memory{f': {exc}' if str(exc) else ''}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
