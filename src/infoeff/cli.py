"""Command-line frontend.

Subcommands:
    measure   efficiency estimate (with bootstrap CI) from a samples CSV
    coin      closed-form vs general-pipeline report for the coin game
    simulate  Monte Carlo Kelly betting runs against the closed-form target
    figures   regenerate the four reference curves as CSV (and SVG)

Every run is fully determined by its flags: all randomness flows from
--seed (default DEFAULT_SEED, a fixed constant, never time-based), so the
same invocation produces byte-identical output. Exit codes: 0 ok, 2 parse
error, 3 domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import coin as coin_mod
from .efficiency import STRONG, _as_quote_distribution, efficiency_with_quotes
from .errors import (
    DomainViolation,
    EmptyInput,
    InfoEffError,
    LabelMismatch,
    ParseError,
)
from .estimation import estimate_efficiency, read_samples
from .kelly import MarketParams, kelly_growth_target, kelly_strategy, simulate
from .probability import Distribution
from .svg import line_chart

DEFAULT_SEED = 1729  # fixed default; reproducibility by default
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

FIGURES = {
    1: ("eff_vs_accuracy", "signal accuracy p(y|x)", "efficiency Eff(X|Y)"),
    2: ("entropy_vs_ptail", "p(x='t')", "entropy H(X) [bits]"),
    3: ("eff_vs_q", "anticipated probability q(x='t')", "efficiency Eff_q(X|Y)"),
    4: ("hq_vs_q", "anticipated probability q(x='t')", "entropy H(q) [bits]"),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on. No hidden state, no environment defaults."""

    subcommand: str
    input_path: str | None = None
    quotes_path: str | None = None
    out: str | None = None
    out_dir: str = "."
    format: str = "json"
    seed: int = DEFAULT_SEED
    smoothing: float = 0.5
    resamples: int = 1000
    info_set: str = STRONG
    p_tail: float = 0.5
    accuracy: float = 0.5
    q_tail: float = 0.5
    rounds: int = 100_000
    runs: int = 1
    trajectory_out: str | None = None
    trajectory_points: int = 500
    which: str = "all"
    points: int = 1001


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _render_flat(report: dict, fmt: str) -> str:
    if fmt == "csv":
        lines = ["key,value"]
        lines += [f"{k},{v!r}" if isinstance(v, float) else f"{k},{v}" for k, v in report.items()]
        return "\n".join(lines) + "\n"
    return json.dumps(report, indent=2) + "\n"


def _read_quote_sidecar(path: str, outcome_labels: tuple[str, ...]) -> Distribution:
    """Parse a `label,q` sidecar and align it with the outcome alphabet."""
    values: dict[str, float] = {}
    with open(path, encoding="utf-8-sig") as handle:
        header_seen = False
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line == "" or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if not header_seen:
                if fields != ["label", "q"]:
                    raise ParseError(line_no, 1, "quote sidecar header must be 'label,q'")
                header_seen = True
                continue
            if len(fields) != 2:
                raise ParseError(line_no, 1, f"expected 2 fields, got {len(fields)}")
            label, raw_q = fields
            try:
                q = float(raw_q)
            except ValueError:
                raise ParseError(line_no, 2, f"not a number: {raw_q!r}") from None
            if label in values:
                raise ParseError(line_no, 1, f"duplicate quote label {label!r}")
            values[label] = q
    if not header_seen:
        raise ParseError(1, 1, "quote sidecar is empty (expected header 'label,q')")
    missing = [lbl for lbl in outcome_labels if lbl not in values]
    extra = [lbl for lbl in values if lbl not in outcome_labels]
    if missing or extra:
        raise LabelMismatch(
            f"quote labels do not match outcome alphabet: missing {missing}, extra {extra}"
        )
    return _as_quote_distribution([values[lbl] for lbl in outcome_labels], outcome_labels)


def cmd_measure(config: RunConfig) -> int:
    with open(config.input_path, encoding="utf-8-sig") as handle:
        samples = read_samples(handle)
    quotes = None
    if config.quotes_path is not None:
        quotes = _read_quote_sidecar(config.quotes_path, samples.outcome_labels)
    report = estimate_efficiency(
        samples,
        smoothing=config.smoothing,
        quotes=quotes,
        resamples=config.resamples,
        seed=config.seed,
        info_set=config.info_set,
    )
    flat = report.point.as_dict()
    flat.update(
        ci_low=report.ci_low,
        ci_high=report.ci_high,
        n_samples=report.n_samples,
        smoothing=report.smoothing,
        resamples=report.resamples,
        seed=report.seed,
        small_sample=report.small_sample,
    )
    if report.eff_q_ci_low is not None:
        flat["eff_q_ci_low"] = report.eff_q_ci_low
        flat["eff_q_ci_high"] = report.eff_q_ci_high
    _write_text(config.out, _render_flat(flat, config.format))
    return EXIT_OK


def cmd_coin(config: RunConfig) -> int:
    params = coin_mod.CoinGameParams(config.p_tail, config.accuracy, config.q_tail)
    joint, quotes = coin_mod.coin_joint(params)
    report = efficiency_with_quotes(joint, quotes, config.info_set)
    flat = {"p_tail": params.p_tail, "accuracy": params.accuracy, "q_tail": params.q_tail}
    flat.update(report.as_dict())

    # Closed forms exist on specific parameter slices; compare wherever one
    # applies and surface the largest disagreement.
    deltas = []
    flat["closed_form_h_x"] = coin_mod.closed_form_entropy(params.p_tail)
    deltas.append(abs(flat["closed_form_h_x"] - report.h_x))
    flat["delta_h_x"] = deltas[-1]
    if params.p_tail == 0.5:
        flat["closed_form_eff"] = coin_mod.closed_form_efficiency_fair(params.accuracy)
        deltas.append(abs(flat["closed_form_eff"] - report.eff))
        flat["delta_eff"] = deltas[-1]
        flat["closed_form_h_q"] = coin_mod.closed_form_quote_entropy(params.q_tail)
        deltas.append(abs(flat["closed_form_h_q"] - report.h_q))
        flat["delta_h_q"] = deltas[-1]
        if params.accuracy == 0.5:
            flat["closed_form_eff_q"] = coin_mod.closed_form_efficiency_unfair_quotes(
                params.q_tail
            )
            deltas.append(abs(flat["closed_form_eff_q"] - report.eff_q))
            flat["delta_eff_q"] = deltas[-1]
    flat["consistency_delta"] = max(deltas)
    _write_text(config.out, _render_flat(flat, config.format))
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    params = coin_mod.CoinGameParams(config.p_tail, config.accuracy, config.q_tail)
    prior, channel, quotes = coin_mod.coin_components(params)
    market = MarketParams(prior, channel, quotes)
    strategy = kelly_strategy(prior, channel)
    target = kelly_growth_target(market)
    if config.trajectory_out is not None and config.runs != 1:
        raise DomainViolation("--trajectory-out requires --runs 1")

    results = []
    for run_index in range(config.runs):
        traj = config.trajectory_points if config.trajectory_out is not None else 0
        results.append(
            simulate(
                market,
                strategy,
                rounds=config.rounds,
                seed=config.seed,
                run_index=run_index,
                trajectory_points=traj,
            )
        )

    if config.trajectory_out is not None:
        lines = ["round,log2_wealth"]
        lines += [f"{r},{w!r}" for r, w in results[0].trajectory_sample]
        Path(config.trajectory_out).write_text("\n".join(lines) + "\n", encoding="utf-8")

    aggregate = sum(r.mean_growth for r in results) / len(results)
    if config.format == "csv":
        lines = ["run_index,rounds,seed,final_log2_wealth,mean_growth,target,abs_error"]
        for r in results:
            lines.append(
                f"{r.run_index},{r.rounds},{r.seed},{r.final_log2_wealth!r},"
                f"{r.mean_growth!r},{target!r},{abs(r.mean_growth - target)!r}"
            )
        _write_text(config.out, "\n".join(lines) + "\n")
    else:
        payload = {
            "p_tail": params.p_tail,
            "accuracy": params.accuracy,
            "q_tail": params.q_tail,
            "rounds": config.rounds,
            "seed": config.seed,
            "runs": config.runs,
            "target_bits_per_round": target,
            "run_results": [
                {
                    "run_index": r.run_index,
                    "final_log2_wealth": r.final_log2_wealth,
                    "mean_growth": r.mean_growth,
                    "abs_error": abs(r.mean_growth - target),
                    "bankrupt_round": r.bankrupt_round,
                }
                for r in results
            ],
            "aggregate_mean_growth": aggregate,
            "aggregate_abs_error": abs(aggregate - target),
        }
        _write_text(config.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_figures(config: RunConfig) -> int:
    if config.which == "all":
        numbers = [1, 2, 3, 4]
    else:
        numbers = [int(config.which)]
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in numbers:
        curve_id, x_label, y_label = FIGURES[n]
        table = coin_mod.sweep(curve_id, points=config.points)
        csv_path = out_dir / f"fig{n}.csv"
        lines = ["param,value"] + [f"{x!r},{y!r}" for x, y in table]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sys.stdout.write(f"{csv_path}\n")
        if config.format == "svg":
            svg_path = out_dir / f"fig{n}.svg"
            svg_path.write_text(
                line_chart(table, x_label, y_label, title=f"figure {n}"),
                encoding="utf-8",
            )
            sys.stdout.write(f"{svg_path}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoeff",
        description="Entropy-based efficiency measurement for discrete systems",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("measure", help="estimate efficiency from a samples CSV")
    p.add_argument("--in", dest="input_path", required=True, help="samples CSV (signal,outcome)")
    p.add_argument("--quotes", dest="quotes_path", help="quote sidecar CSV (label,q)")
    p.add_argument("--smoothing", type=float, default=0.5)
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--info-set", dest="info_set", default=STRONG)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")

    p = sub.add_parser("coin", help="coin-game report: closed forms vs general pipeline")
    p.add_argument("--p-tail", dest="p_tail", type=float, required=True)
    p.add_argument("--accuracy", type=float, required=True)
    p.add_argument("--q-tail", dest="q_tail", type=float, required=True)
    p.add_argument("--info-set", dest="info_set", default=STRONG)
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


def run(config: RunConfig) -> int:
    """Dispatch a RunConfig, mapping errors to the documented exit codes."""
    try:
        return COMMANDS[config.subcommand](config)
    except (ParseError, EmptyInput) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_PARSE
    except (InfoEffError, ValueError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_DOMAIN
    except OSError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_IO


def config_from_args(argv: list[str] | None = None) -> RunConfig:
    args = vars(build_parser().parse_args(argv))
    fields = {f for f in RunConfig.__dataclass_fields__}
    return RunConfig(**{k: v for k, v in args.items() if k in fields and v is not None})


def main(argv: list[str] | None = None) -> int:
    return run(config_from_args(argv))


if __name__ == "__main__":
    sys.exit(main())
