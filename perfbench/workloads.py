"""The benchmark's workloads: seeded inputs, reference values, output checks.

Imports only the standard library and numpy, never `infoeff`, so the
reference values stay independent of the code they check (the same rule as
`tests/oracles.py`). Every input is a pure function of the workload name and
the seed; the program under test sees only the files written here and the
argv lists of the returned spec.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("measure_large", "bootstrap_wide", "simulate_long", "verify_grid")

MEASURE_LARGE = {"records": 1_000_000, "outcomes": 4, "signals": 6, "resamples": 1000}
BOOTSTRAP_WIDE = {"records": 20_000, "outcomes": 16, "signals": 32, "resamples": 5000}
# Stated tolerance of |eff - true Eff| (and of eff_q). It covers the
# estimator's sampling spread plus its plug-in and smoothing bias at these
# sizes: over seeds 0-11 and 0-29 the largest errors were 0.0008 and 0.0098.
EFF_TOL = {"measure_large": 0.005, "bootstrap_wide": 0.03}

# Fixed by the workload definition; only the simulation seed varies.
SIMULATE = {"p_tail": 0.5, "accuracy": 0.9, "q_tail": 0.4, "rounds": 5_000_000, "runs": 4}
# |mean_growth - target| may be at most K_SIGMA standard errors.
K_SIGMA = 6.0

GRID_POINTS = 1000
GRID_RESOLUTION = 1000
FIGURE_POINTS = 1001  # the CLI's default --points
EXACT_TOL = 1e-9  # float agreement between library and reference formulas
CONSISTENCY_TOL = 1e-10  # closed form vs general pipeline, as the coin report states it


class CheckFailed(Exception):
    """An operation's output is wrong."""


# --- reference formulas (bits) ---------------------------------------------


def entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def cross_entropy_bits(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    return float(-np.sum(p[mask] * np.log2(q[mask])))


def conditional_entropy_bits(joint: np.ndarray) -> float:
    """H(X|Y) for joint[x, y] as sum_y p(y) H(X | Y=y)."""
    total = 0.0
    for column in joint.T:
        p_y = column.sum()
        if p_y > 0.0:
            total += p_y * entropy_bits(column / p_y)
    return total


def kelly_reference(prior: np.ndarray, channel: np.ndarray, quotes: np.ndarray) -> dict:
    """Growth target H(q) - H(X|Y) and per-round log2-payout spread of Kelly betting."""
    joint = prior[:, None] * channel
    posterior = joint / joint.sum(axis=0)
    log_pay = np.log2(posterior) - np.log2(quotes)[:, None]
    mean = float(np.sum(joint * log_pay))
    return {
        "target": cross_entropy_bits(prior, quotes) - conditional_entropy_bits(joint),
        "sigma": math.sqrt(float(np.sum(joint * (log_pay - mean) ** 2))),
        "posterior_first": posterior[0].tolist(),
        "joint": joint.tolist(),
    }


def coin_arrays(p_tail: float, accuracy: float, q_tail: float):
    """(prior, channel[x, y], quotes) of the coin game, outcomes and signals ('h', 't')."""
    prior = np.array([1.0 - p_tail, p_tail])
    channel = np.array([[accuracy, 1.0 - accuracy], [1.0 - accuracy, accuracy]])
    quotes = np.array([1.0 - q_tail, q_tail])
    return prior, channel, quotes


def grid_loss_bound(joint: np.ndarray, posterior_first: list, quotes: np.ndarray) -> float:
    """Growth lost by rounding each signal's Kelly fraction to the grid.

    The grid search's argmax is at least as good as the rounded Kelly point,
    so its value lies within this loss of the optimum.
    """
    log_alpha = -np.log2(quotes)
    loss = 0.0
    for j, f_star in enumerate(posterior_first):
        f = round(f_star * GRID_RESOLUTION) / GRID_RESOLUTION
        p0, p1 = joint[0][j], joint[1][j]
        best = p0 * (math.log2(f_star) + log_alpha[0]) + p1 * (math.log2(1.0 - f_star) + log_alpha[1])
        got = p0 * (math.log2(f) + log_alpha[0]) + p1 * (math.log2(1.0 - f) + log_alpha[1])
        loss += best - got
    return loss


@functools.cache
def figure_curves() -> dict[str, list[tuple[float, float]]]:
    """The four reference curves of `infoeff figures`, by file name."""
    grid = np.linspace(0.0, 1.0, FIGURE_POINTS)
    inner = grid[(grid > 0.0) & (grid < 1.0)]

    def binary_entropy(p: float) -> float:
        return entropy_bits(np.array([p, 1.0 - p]))

    def fair_coin_hq(q: float) -> float:
        return cross_entropy_bits(np.array([0.5, 0.5]), np.array([1.0 - q, q]))

    return {
        "fig1.csv": [(x, binary_entropy(x)) for x in grid],
        "fig2.csv": [(x, binary_entropy(x)) for x in grid],
        "fig3.csv": [(x, 1.0 / fair_coin_hq(x)) for x in inner],
        "fig4.csv": [(x, fair_coin_hq(x)) for x in inner],
    }


# --- input generation -------------------------------------------------------


def _generating_joint(rng, n_x: int, n_y: int, dead_signals: int, zero_share: float):
    """A random joint p(x, y) with some cells and whole signals impossible."""
    prior = rng.dirichlet(np.full(n_x, 6.0))
    channel = rng.dirichlet(np.full(n_y, 0.8), size=n_x)
    mask = rng.random((n_x, n_y)) >= zero_share
    mask[:, rng.choice(n_y, size=dead_signals, replace=False)] = False
    for row in mask:
        if not row.any():
            row[rng.choice(np.flatnonzero(mask.any(axis=0)))] = True
    channel = np.where(mask, channel, 0.0)
    channel /= channel.sum(axis=1, keepdims=True)
    return prior, prior[:, None] * channel


def _write_samples(path: Path, rng, joint: np.ndarray, records: int) -> None:
    n_x, n_y = joint.shape
    cells = np.array([f"y{j},x{i}" for i in range(n_x) for j in range(n_y)])
    idx = rng.choice(joint.size, size=records, p=joint.ravel() / joint.sum())
    header = (
        "# outcomes: " + ",".join(f"x{i}" for i in range(n_x)) + "\n"
        "# signals: " + ",".join(f"y{j}" for j in range(n_y)) + "\n"
        "signal,outcome\n"
    )
    path.write_text(header + "\n".join(cells[idx].tolist()) + "\n", encoding="utf-8")


def _measure_spec(name: str, seed: int, workdir: Path, size: dict, with_quotes: bool) -> dict:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    dead = 0 if name == "measure_large" else 2
    zero_share = 0.0 if name == "measure_large" else 0.2
    prior, joint = _generating_joint(rng, size["outcomes"], size["signals"], dead, zero_share)
    _write_samples(workdir / "samples.csv", rng, joint, size["records"])
    _write_samples(workdir / "warmup.csv", rng, joint, 500)

    h_xy = conditional_entropy_bits(joint)
    ref = {
        "eff": h_xy / entropy_bits(prior),
        "tol": EFF_TOL[name],
        "records": size["records"],
        "resamples": size["resamples"],
    }
    quote_args = []
    if with_quotes:
        quotes = 0.5 * prior + 0.5 * rng.dirichlet(np.full(len(prior), 4.0))
        quotes /= quotes.sum()
        lines = ["label,q"] + [f"x{i},{q!r}" for i, q in enumerate(quotes.tolist())]
        (workdir / "quotes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        ref["eff_q"] = h_xy / cross_entropy_bits(prior, quotes)
        quote_args = ["--quotes", "quotes.csv"]

    def argv(path: str, resamples: int) -> list[str]:
        return ["measure", "--in", path, *quote_args,
                "--resamples", str(resamples), "--seed", str(seed)]

    return {
        "items": size["records"] if name == "measure_large" else size["resamples"],
        "item_name": "records" if name == "measure_large" else "resamples",
        "op_name": "measure",
        "warmup": [{"kind": "measure", "argv": argv("warmup.csv", 100)}],
        "ops": [{"kind": "measure", "argv": argv("samples.csv", size["resamples"]), "ref": ref}],
    }


def _simulate_spec(seed: int) -> dict:
    s = SIMULATE
    ref = kelly_reference(*coin_arrays(s["p_tail"], s["accuracy"], s["q_tail"]))

    def argv(rounds: int, runs: int) -> list[str]:
        return ["simulate", "--p-tail", str(s["p_tail"]), "--accuracy", str(s["accuracy"]),
                "--q-tail", str(s["q_tail"]), "--rounds", str(rounds), "--runs", str(runs),
                "--seed", str(seed)]

    return {
        "items": s["rounds"] * s["runs"],
        "item_name": "rounds",
        "op_name": "simulate",
        "warmup": [{"kind": "simulate", "argv": argv(1000, 1)}],
        "ops": [{
            "kind": "simulate",
            "argv": argv(s["rounds"], s["runs"]),
            "ref": {"target": ref["target"], "sigma": ref["sigma"],
                    "rounds": s["rounds"], "runs": s["runs"]},
        }],
    }


def _grid_point(p_tail: float, accuracy: float, q_tail: float) -> dict:
    prior, channel, quotes = coin_arrays(p_tail, accuracy, q_tail)
    ref = kelly_reference(prior, channel, quotes)
    joint = np.array(ref["joint"])
    return {
        "kind": "point",
        "argv": ["coin", "--p-tail", str(p_tail), "--accuracy", str(accuracy),
                 "--q-tail", str(q_tail)],
        "params": [p_tail, accuracy, q_tail],
        "ref": {
            "eff": conditional_entropy_bits(joint) / entropy_bits(prior),
            "g_max_q": ref["target"],
            "grid_loss": grid_loss_bound(joint, ref["posterior_first"], quotes),
        },
    }


def _grid_spec(seed: int) -> dict:
    rng = np.random.default_rng([seed, WORKLOADS.index("verify_grid")])
    raw = np.round(rng.uniform(0.05, 0.95, size=(GRID_POINTS, 3)), 4)
    # Every fourth point is a fair coin and every eighth also has a worthless
    # signal, so the closed-form slices of the coin report are exercised.
    raw[::4, 0] = 0.5
    raw[::8, 1] = 0.5
    ops = [_grid_point(*map(float, row)) for row in raw]
    figures = ["figures", "--which", "all", "--format", "svg", "--out-dir", "figs"]
    files = [f"figs/fig{n}.{ext}" for n in range(1, 5) for ext in ("csv", "svg")]
    ops.append({"kind": "figures", "argv": figures, "files": files, "ref": {}})
    return {"items": GRID_POINTS, "item_name": "points", "op_name": "point",
            "warmup": [ops[0]], "ops": ops}


def build(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs into `workdir` and return its spec.

    The spec lists warm-up operations and the operations of one pass, each
    with its argv and the reference values its check needs, and names the
    kernel that gauges the host's speed.
    """
    if name == "measure_large":
        spec = _measure_spec(name, seed, workdir, MEASURE_LARGE, with_quotes=True)
    elif name == "bootstrap_wide":
        spec = _measure_spec(name, seed, workdir, BOOTSTRAP_WIDE, with_quotes=False)
    elif name == "simulate_long":
        spec = _simulate_spec(seed)
    elif name == "verify_grid":
        spec = _grid_spec(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    spec["workload"] = name
    # The kernel that gauges the host's speed while passes run (worker.py).
    # simulate spends its time in whole-array numpy calls, which slow less
    # than interpreted code when the host slows; the others are dominated by
    # interpreted code and small numpy calls.
    spec["speed_kernel"] = "numpy" if name == "simulate_long" else "interpreted"
    return spec


# --- output checks ----------------------------------------------------------


def _reject_constant(token: str):
    raise CheckFailed(f"output has non-JSON number {token}")


def _loads(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not valid JSON: {exc}") from None


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _check_ratio(report: dict, key: str, low: str, high: str, truth: float, tol: float) -> None:
    lo, value, hi = report[low], report[key], report[high]
    _expect(0.0 <= lo <= value <= hi <= 1.0, f"not 0 <= {low} <= {key} <= {high} <= 1: {lo}, {value}, {hi}")
    _expect(abs(value - truth) <= tol, f"{key} {value} is not within {tol} of the true {truth}")


def _check_measure(ref: dict, stdout: str, files: dict, extra) -> None:
    r = _loads(stdout)
    _check_ratio(r, "eff", "ci_low", "ci_high", ref["eff"], ref["tol"])
    if "eff_q" in ref:
        _check_ratio(r, "eff_q", "eff_q_ci_low", "eff_q_ci_high", ref["eff_q"], ref["tol"])
    _expect(r["n_samples"] == ref["records"], f"n_samples {r['n_samples']} != {ref['records']}")
    _expect(r["resamples"] == ref["resamples"], f"resamples {r['resamples']} != {ref['resamples']}")


def _check_simulate(ref: dict, stdout: str, files: dict, extra) -> None:
    r = _loads(stdout)
    target = ref["target"]
    _expect(abs(r["target_bits_per_round"] - target) <= EXACT_TOL,
            f"target {r['target_bits_per_round']} != reference {target}")
    runs = r["run_results"]
    _expect(len(runs) == ref["runs"], f"{len(runs)} runs reported, {ref['runs']} asked")
    limit = K_SIGMA * ref["sigma"] / math.sqrt(ref["rounds"])
    for run in runs:
        _expect(run["bankrupt_round"] is None, f"run {run['run_index']} went bankrupt")
        _expect(abs(run["mean_growth"] - target) <= limit,
                f"run {run['run_index']} growth {run['mean_growth']} is more than "
                f"{K_SIGMA} standard errors from {target}")


def _check_point(ref: dict, stdout: str, files: dict, extra) -> None:
    r = _loads(stdout)
    g = ref["g_max_q"]
    _expect(r["consistency_delta"] <= CONSISTENCY_TOL, f"consistency_delta {r['consistency_delta']}")
    _expect(abs(r["eff"] - ref["eff"]) <= EXACT_TOL, f"eff {r['eff']} != reference {ref['eff']}")
    _expect(abs(r["g_max_q"] - g) <= EXACT_TOL, f"g_max_q {r['g_max_q']} != reference {g}")
    expected_growth, grid_growth = extra
    _expect(abs(expected_growth - r["g_max_q"]) <= EXACT_TOL,
            f"expected_log2_growth(kelly) {expected_growth} != g_max_q {r['g_max_q']}")
    _expect(g - ref["grid_loss"] - EXACT_TOL <= grid_growth <= g + EXACT_TOL,
            f"grid optimum {grid_growth} outside [{g - ref['grid_loss']}, {g}]")


def _check_figures(ref: dict, stdout: str, files: dict, extra) -> None:
    _expect(stdout.split() == [str(Path(name)) for name in files], f"figures listed {stdout.split()}")
    for name, curve in figure_curves().items():
        lines = files[f"figs/{name}"].decode("utf-8").splitlines()
        _expect(lines[0] == "param,value" and len(lines) == len(curve) + 1,
                f"{name}: bad header or {len(lines) - 1} rows")
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        _expect(np.allclose(got, np.array(curve), rtol=0.0, atol=EXACT_TOL),
                f"{name} deviates from the reference curve")
        svg = files[f"figs/{name[:-4]}.svg"].decode("utf-8")
        _expect(svg.startswith("<svg") and svg.endswith("</svg>\n"), f"{name[:-4]}.svg is malformed")


CHECKS = {
    "measure": _check_measure,
    "simulate": _check_simulate,
    "point": _check_point,
    "figures": _check_figures,
}


def check(op: dict, stdout: str, files: dict, extra) -> None:
    """Raise CheckFailed unless the operation's outputs are correct."""
    try:
        CHECKS[op["kind"]](op["ref"], stdout, files, extra)
    except (KeyError, TypeError) as exc:
        raise CheckFailed(f"output lacks or mistypes {exc}") from None
