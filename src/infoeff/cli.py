"""Command-line frontend.

Subcommands:
    measure   efficiency estimate (with bootstrap CI) from a samples CSV
    coin      closed-form vs general-pipeline report for the coin game
    simulate  Monte Carlo Kelly betting runs against the closed-form target
    figures   regenerate the four reference curves as CSV (and SVG)

Every run is fully determined by its flags: all randomness flows from
--seed (default DEFAULT_SEED, a fixed constant, never time-based), so the
same invocation produces byte-identical output. Exit codes: 0 ok, 1
internal error (any other unexpected exception), 2 parse error, 3 domain
error, 4 I/O error, 5 out of memory.

Each subcommand returns its outputs; `run` alone writes them: files in order,
stdout, then warnings. A failed run leaves no file it created at a path it was
given, but may leave the empty --out-dir of `figures`; an overwritten file is
not restored, and a file created through a pre-existing symlink stays.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path

from . import coin as coin_mod
from .efficiency import efficiency_with_quotes
from .errors import (
    DomainViolation,
    EmptyInput,
    InfoEffError,
    ParseError,
)
from .estimation import (
    DEFAULT_RESAMPLES,
    DEFAULT_SMOOTHING,
    _read_quotes,
    estimate_efficiency,
    read_samples,
)
from .kelly import MarketParams, kelly_growth_target, kelly_strategy, simulate
from .svg import line_chart

DEFAULT_SEED = 1729  # fixed default; reproducibility by default
EXIT_OK = 0
# Searched in order: ParseError and EmptyInput are also InfoEffErrors and
# ValueErrors, and any other exception is an internal error.
EXIT_CODES = (
    ((ParseError, EmptyInput, UnicodeDecodeError), 2),
    ((InfoEffError, ValueError), 3),
    (OSError, 4),
    (MemoryError, 5),
    (Exception, 1),
)

FIGURES = {
    1: ("eff_vs_accuracy", "signal accuracy p(y|x)", "efficiency Eff(X|Y)"),
    2: ("entropy_vs_ptail", "p(x='t')", "entropy H(X) [bits]"),
    3: ("eff_vs_q", "anticipated probability q(x='t')", "efficiency Eff_q(X|Y)"),
    4: ("hq_vs_q", "anticipated probability q(x='t')", "entropy H(q) [bits]"),
}
# The keys of a `simulate` run record that each format prints, in order.
_SIMULATE_CSV_COLUMNS = ("run_index", "rounds", "seed", "final_log2_wealth", "mean_growth",
                         "target", "abs_error")
_SIMULATE_JSON_RUN_KEYS = ("run_index", "final_log2_wealth", "mean_growth", "abs_error",
                           "bankrupt_round")


def _csv(header: str, rows) -> str:
    """The header line, then one line per row: floats as repr, the rest as str."""
    lines = [header]
    lines += [",".join([repr(v) if isinstance(v, float) else str(v) for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


def _render_flat(report: dict, fmt: str) -> str:
    if fmt == "csv":
        return _csv("key,value", report.items())
    # The bytes of indent=2 for a non-empty dict of scalars, through the C
    # encoder: json falls back to its pure-Python encoder for any indent.
    inner = json.dumps(report, separators=(",\n  ", ": "))
    return "{\n  " + inner[1:-1] + "\n}\n"


def cmd_measure(args: argparse.Namespace) -> dict:
    # Skip a leading BOM; keep each byte that is not UTF-8 for the parser to report.
    with open(args.input_path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        samples = read_samples(handle)
    quotes = None
    if args.quotes_path is not None:
        with open(args.quotes_path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            quotes = _read_quotes(handle, samples.outcome_labels)
    report = estimate_efficiency(
        samples,
        smoothing=args.smoothing,
        quotes=quotes,
        resamples=args.resamples,
        seed=args.seed,
    )
    flat = report.point.as_dict()
    flat.update((k, v) for k, v in vars(report).items() if k != "point" and v is not None)
    return {args.out: _render_flat(flat, args.format)}


def cmd_coin(args: argparse.Namespace) -> dict:
    params = coin_mod.CoinGameParams(args.p_tail, args.accuracy, args.q_tail)
    joint, quotes = coin_mod.coin_joint(params)
    report = efficiency_with_quotes(joint, quotes)
    flat = {"p_tail": params.p_tail, "accuracy": params.accuracy, "q_tail": params.q_tail}
    flat.update(report.as_dict())

    # Closed forms exist on specific parameter slices; compare wherever one
    # applies and surface the largest disagreement.
    closed_forms = [("h_x", coin_mod.closed_form_entropy(params.p_tail))]
    if params.p_tail == 0.5:
        closed_forms.append(("eff", coin_mod.closed_form_entropy(params.accuracy)))
        closed_forms.append(("h_q", coin_mod.closed_form_quote_entropy(params.q_tail)))
        if params.accuracy == 0.5:
            closed_forms.append(
                ("eff_q", coin_mod.closed_form_efficiency_unfair_quotes(params.q_tail))
            )
    for key, value in closed_forms:
        flat[f"closed_form_{key}"] = value
        flat[f"delta_{key}"] = abs(value - getattr(report, key))
    flat["consistency_delta"] = max(flat[f"delta_{key}"] for key, _ in closed_forms)
    return {args.out: _render_flat(flat, args.format)}


def cmd_simulate(args: argparse.Namespace) -> dict:
    params = coin_mod.CoinGameParams(args.p_tail, args.accuracy, args.q_tail)
    prior, channel, quotes = coin_mod.coin_components(params)
    market = MarketParams(prior, channel, quotes)
    strategy = kelly_strategy(prior, channel)
    target = kelly_growth_target(market)
    if args.runs < 1:
        raise DomainViolation(f"--runs must be >= 1, got {args.runs}")
    points = 0
    if args.trajectory_out is not None:
        if args.runs != 1:
            raise DomainViolation("--trajectory-out requires --runs 1")
        if args.trajectory_points < 1:
            raise DomainViolation(
                f"--trajectory-points must be >= 1, got {args.trajectory_points}"
            )
        points = args.trajectory_points

    results = [
        simulate(market, strategy, rounds=args.rounds, seed=args.seed, run_index=run_index,
                 trajectory_points=points)
        for run_index in range(args.runs)
    ]

    outputs = {}
    if args.trajectory_out is not None:
        outputs[args.trajectory_out] = _csv("round,log2_wealth", results[0].trajectory_sample)

    records = [{**vars(r), "target": target, "abs_error": abs(r.mean_growth - target)}
               for r in results]
    if args.format == "csv":
        rows = ([record[key] for key in _SIMULATE_CSV_COLUMNS] for record in records)
        outputs[args.out] = _csv(",".join(_SIMULATE_CSV_COLUMNS), rows)
    else:
        aggregate = sum(r.mean_growth for r in results) / len(results)
        payload = {
            "p_tail": params.p_tail,
            "accuracy": params.accuracy,
            "q_tail": params.q_tail,
            "rounds": args.rounds,
            "seed": args.seed,
            "runs": args.runs,
            "target_bits_per_round": target,
            "run_results": [{key: record[key] for key in _SIMULATE_JSON_RUN_KEYS}
                            for record in records],
            "aggregate_mean_growth": aggregate,
            "aggregate_abs_error": abs(aggregate - target),
        }
        outputs[args.out] = json.dumps(payload, indent=2) + "\n"
    return outputs


def cmd_figures(args: argparse.Namespace) -> dict:
    if args.which == "all":
        numbers = [1, 2, 3, 4]
    else:
        numbers = [int(args.which)]
    out_dir = Path(args.out_dir)
    outputs = {}
    for n in numbers:
        curve, x_label, y_label = FIGURES[n]
        table = coin_mod.sweep(curve, points=args.points)
        outputs[out_dir / f"fig{n}.csv"] = _csv("param,value", table)
        if args.format == "svg":
            outputs[out_dir / f"fig{n}.svg"] = line_chart(table, x_label, y_label, title=f"figure {n}")
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs[None] = "".join(f"{path}\n" for path in outputs)
    return outputs


@functools.cache  # one parser per process, shared by every call: never mutate it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoeff",
        description="Entropy-based efficiency measurement for discrete systems",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("measure", help="estimate efficiency from a samples CSV")
    p.add_argument("--in", dest="input_path", required=True, help="samples CSV (signal,outcome)")
    p.add_argument("--quotes", dest="quotes_path", help="quote sidecar CSV (label,q)")
    p.add_argument("--smoothing", type=float, default=DEFAULT_SMOOTHING)
    p.add_argument("--resamples", type=int, default=DEFAULT_RESAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")

    p = sub.add_parser("coin", help="coin-game report: closed forms vs general pipeline")
    p.add_argument("--p-tail", dest="p_tail", type=float, required=True)
    p.add_argument("--accuracy", type=float, required=True)
    p.add_argument("--q-tail", dest="q_tail", type=float, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="Monte Carlo Kelly betting on the coin game")
    p.add_argument("--p-tail", dest="p_tail", type=float, default=0.5)
    p.add_argument("--accuracy", type=float, required=True)
    p.add_argument("--q-tail", dest="q_tail", type=float, default=0.5)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trajectory-out", dest="trajectory_out")
    p.add_argument("--trajectory-points", dest="trajectory_points", type=int, default=500)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")

    p = sub.add_parser("figures", help="regenerate the four reference curves")
    p.add_argument("--which", choices=["1", "2", "3", "4", "all"], default="all")
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    return parser


COMMANDS = {
    "measure": cmd_measure,
    "coin": cmd_coin,
    "simulate": cmd_simulate,
    "figures": cmd_figures,
}


def run(args: argparse.Namespace) -> int:
    """Run one subcommand, then write its outputs: the CLI's one output stage.

    A subcommand returns an ordered mapping from destination (a path, or None
    for stdout) to text. Every file text is encoded as strict UTF-8 before any
    file is created; the files are written in order, stdout next, and then a
    `warning:` line per warning. On any error the files this run created at
    the paths it was given are unlinked, and the error is the one stderr line.
    A file created through a symlink that existed before the run stays.
    """
    created = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            outputs = COMMANDS[args.subcommand](args)
        stdout = outputs.pop(None, None)
        encoded = {Path(path): text.encode("utf-8") for path, text in outputs.items()}
        for path, data in encoded.items():  # Path('') is '.', Path('a/') is 'a'
            existed = os.path.lexists(path)  # a dangling symlink included
            with open(path, "wb") as handle:
                if not existed:  # noted only once its open has created it
                    created.append(path)
                handle.write(data)
        if stdout is not None:
            sys.stdout.write(stdout)
        for warning in caught:  # one line each, without the source location
            sys.stderr.write(f"warning: {warning.message}\n")
        return EXIT_OK
    except Exception as exc:  # every failure is one line, never a traceback
        for path in created:
            path.unlink(missing_ok=True)
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
