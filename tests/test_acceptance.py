"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line (visible with `pytest -s`) and enforces
its runtime budget. Expected values come from tests/oracles.py, which was
written and evaluated before the library.
"""

import time
from contextlib import contextmanager

import numpy as np

import oracles
from conftest import draw_records
from infoeff import (
    Channel,
    CoinGameParams,
    MarketParams,
    closed_form_efficiency_fair,
    closed_form_efficiency_unfair_quotes,
    closed_form_entropy,
    closed_form_quote_entropy,
    coin_components,
    coin_joint,
    efficiency,
    efficiency_with_quotes,
    entropy,
    estimate_efficiency,
    grid_search_optimal,
    joint_from_prior_channel,
    kelly_growth_target,
    kelly_strategy,
    make_distribution,
    marginal_outcome,
    mutual_information,
    normalize,
    simulate,
)
from infoeff.cli import main


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"PASS criterion {number:2d} ({elapsed:6.2f}s): {description}")


def test_criterion_01_fair_efficiency_endpoints_and_peak():
    with criterion(1, "closed-form efficiency: 1 at accuracy 0.5, 0 at 0 and 1", 1.0):
        assert abs(closed_form_efficiency_fair(0.5) - 1.0) <= 1e-12
        assert abs(closed_form_efficiency_fair(0.0)) <= 1e-12
        assert abs(closed_form_efficiency_fair(1.0)) <= 1e-12


def test_criterion_02_efficiency_at_accuracy_09():
    with criterion(2, "Eff at accuracy 0.9 = 0.46900 +/- 5e-5 vs oracle", 1.0):
        joint, _ = coin_joint(CoinGameParams(0.5, 0.9, 0.5))
        eff = efficiency(joint).eff
        assert abs(eff - oracles.binary_entropy(0.9)) <= 5e-5
        assert abs(eff - oracles.FROZEN_HB_09) <= 5e-5
        assert abs(eff - 0.46900) <= 5e-5


def test_criterion_03_small_predictability_small_drop():
    with criterion(3, "1 - Eff at accuracy 0.55 < 0.03 (oracle drop ~0.00723)", 1.0):
        joint, _ = coin_joint(CoinGameParams(0.5, 0.55, 0.5))
        drop = 1.0 - efficiency(joint).eff
        assert drop < 0.03
        assert abs(drop - oracles.FROZEN_DROP_055) <= 1e-9


def test_criterion_04_fairness_independence():
    with criterion(4, "biased coin, fair quotes, no predictability: Eff_q = 1", 1.0):
        for p_tail in (0.1, 0.25, 0.5, 0.75, 0.9):
            joint, quotes = coin_joint(CoinGameParams(p_tail, 0.5, p_tail))
            report = efficiency_with_quotes(joint, quotes)
            assert abs(report.eff_q - 1.0) <= 1e-12


def test_criterion_05_bounds_and_gap_additivity():
    with criterion(5, "bounds, Gibbs chain, and gap additivity on 1e4 random triples", 10.0):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            n_x = int(rng.integers(2, 5))
            n_y = int(rng.integers(2, 5))
            labels = tuple(f"x{i}" for i in range(n_x))
            p = normalize(labels, rng.random(n_x) + 1e-3)
            q = normalize(labels, rng.random(n_x) + 1e-3)
            rows = rng.random((n_x, n_y)) + 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
            channel = Channel(labels, tuple(f"y{j}" for j in range(n_y)), rows)
            joint = joint_from_prior_channel(p, channel)
            report = efficiency_with_quotes(joint, q)
            assert 0.0 <= report.eff <= 1.0
            assert 0.0 <= report.eff_q <= 1.0
            assert report.h_q >= report.h_x - 1e-12
            assert report.h_x >= report.h_x_given_y - 1e-12
            assert mutual_information(joint) >= 0.0
            assert abs(
                report.g_max_q - (report.mispricing_gap + report.predictability_gap)
            ) <= 1e-12


def test_criterion_06_kelly_growth_equivalence():
    with criterion(6, "simulated Kelly growth at accuracy 0.9 within 0.01 of oracle, 10 seeds", 10.0):
        market = MarketParams(*coin_components(CoinGameParams(0.5, 0.9, 0.5)))
        strategy = kelly_strategy(market.prior, market.channel)
        for seed in range(10):
            result = simulate(market, strategy, rounds=10**6, seed=seed)
            assert abs(result.mean_growth - oracles.FROZEN_GMAX_09) <= 0.01


def test_criterion_07_mispricing_profit_without_predictability():
    with criterion(7, "mispriced unpredictable coin earns H(q) - 1 bits/round", 10.0):
        market = MarketParams(*coin_components(CoinGameParams(0.5, 0.5, 0.95)))
        assert np.allclose(market.quotes.probs, [0.05, 0.95], atol=1e-15)
        strategy = kelly_strategy(market.prior, market.channel)
        result = simulate(market, strategy, rounds=10**6, seed=0)
        assert abs(result.mean_growth - oracles.FROZEN_GMAXQ_005) <= 0.01


def test_criterion_08_brute_force_oracle_equivalence():
    with criterion(8, "grid search (res 1000) matches closed forms and posteriors", 30.0):
        rng = np.random.default_rng(77)
        for _ in range(20):
            p = float(rng.uniform(0.15, 0.85))
            a = float(rng.uniform(0.55, 0.92))
            b = float(rng.uniform(0.55, 0.92))
            q = float(rng.uniform(0.08, 0.92))
            market = MarketParams(
                make_distribution(("h", "t"), (1.0 - p, p)),
                Channel(("h", "t"), ("h", "t"), [[a, 1.0 - a], [1.0 - b, b]]),
                make_distribution(("h", "t"), (1.0 - q, q)),
            )
            strategy, value = grid_search_optimal(market, 1000)
            assert abs(value - kelly_growth_target(market)) <= 0.002
            posterior = kelly_strategy(market.prior, market.channel)
            for y in market.channel.output_labels:
                deviation = np.max(np.abs(
                    strategy.row_distribution(y).probs - posterior.row_distribution(y).probs
                ))
                assert deviation <= 0.002


def test_criterion_09_closed_forms_match_general_pipeline():
    with criterion(9, "closed forms vs general measures on the 21^3 grid, 1e-10", 5.0):
        grid = np.linspace(1.0 / 22.0, 21.0 / 22.0, 21)
        for p_tail in grid:
            for accuracy in grid:
                for q_tail in grid:
                    params = CoinGameParams(float(p_tail), float(accuracy), float(q_tail))
                    joint, quotes = coin_joint(params)
                    assert abs(
                        closed_form_entropy(params.p_tail)
                        - entropy(marginal_outcome(joint))
                    ) <= 1e-10
                    if params.p_tail == 0.5:
                        assert abs(
                            closed_form_efficiency_fair(params.accuracy)
                            - efficiency(joint).eff
                        ) <= 1e-10
                        report = efficiency_with_quotes(joint, quotes)
                        assert abs(
                            closed_form_quote_entropy(params.q_tail) - report.h_q
                        ) <= 1e-10
                        if params.accuracy == 0.5:
                            assert abs(
                                closed_form_efficiency_unfair_quotes(params.q_tail)
                                - report.eff_q
                            ) <= 1e-10


def test_criterion_10_estimation_recovery_and_coverage():
    with criterion(10, "1e5-sample estimates within 0.02; CI covers truth >= 90/100", 60.0):
        prior = make_distribution(("h", "t"), (0.5, 0.5))
        channel = Channel(("h", "t"), ("h", "t"), [[0.9, 0.1], [0.1, 0.9]])
        truth = oracles.binary_entropy(0.9)
        covered = 0
        for seed in range(100):
            samples = draw_records(prior, channel, 100_000, seed=seed)
            report = estimate_efficiency(samples, resamples=1000, seed=seed)
            assert abs(report.point.eff - truth) <= 0.02
            if report.ci_low <= truth <= report.ci_high:
                covered += 1
        assert covered >= 90


def test_criterion_11_figure_regeneration(tmp_path, capsys):
    with criterion(11, "figures --which all: caption extrema, byte-identical reruns", 5.0):
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            assert main(["figures", "--which", "all", "--out-dir", str(d)]) == 0
        capsys.readouterr()
        tables = {}
        for n in (1, 2, 3, 4):
            byte_a = (dirs[0] / f"fig{n}.csv").read_bytes()
            byte_b = (dirs[1] / f"fig{n}.csv").read_bytes()
            assert byte_a == byte_b
            rows = byte_a.decode("utf-8").splitlines()[1:]
            tables[n] = [tuple(map(float, row.split(","))) for row in rows]

        peak1 = max(tables[1], key=lambda r: r[1])
        assert peak1 == (0.5, 1.0)
        assert tables[2][0] == (0.0, 0.0) and tables[2][-1] == (1.0, 0.0)
        peak2 = max(tables[2], key=lambda r: r[1])
        assert peak2 == (0.5, 1.0)
        peak3 = max(tables[3], key=lambda r: r[1])
        assert peak3 == (0.5, 1.0)
        trough4 = min(tables[4], key=lambda r: r[1])
        assert trough4 == (0.5, 1.0)
