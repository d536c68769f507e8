"""Monte Carlo betting engine and brute-force strategy-search oracle.

Realizes the limit definition of growth, log2(V_n/V_0)/n, and verifies the
closed forms H(X)-H(X|Y) (fair quotes) and H(q)-H(X|Y) (arbitrary quotes)
empirically. Betting is full-investment proportional: each round the whole
bankroll is split across outcomes (fractions sum to 1), which is the growth
optimum in a no-cost complete market with sum(q) = 1 — every outcome pays,
so cash reserves only slow growth down.

A strategy is a `Channel` from the market's signals to its outcomes: row y
holds the fractions b(x|y) staked on each outcome after signal y (Kelly 1956).

Wealth is tracked in log2-space throughout; raw wealth is never
materialized (a million rounds at ~1 bit/round overflows any fixed-width
real).

RNG: NumPy PCG64, seeded through SeedSequence((seed, run_index)) so each
run owns an independent, reproducible stream. Identical (params, strategy,
rounds, seed, run_index) reproduce the result bit-for-bit. A round is one
uniform double from that stream, mapped through the cumulative joint
p(x, y) to one (outcome, signal) cell in signal-major order: signal by
signal, the outcomes in order within each. Per-round work grows with the
number of cells, |X|*|Y|. Rounds are simulated in chunks of
SIM_CHUNK_ROUNDS; the stream is read in order whatever the chunk size, and
the log wealth is a cumulative sum that carries the previous chunk's total
into the first element of the next, so the addition stays sequential and
every bit matches a whole-run sum. Memory does not grow with `rounds`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .efficiency import efficiency_with_quotes
from .errors import DomainViolation, UnsupportedAlphabet
from .measures import _quotes
from .probability import (
    Channel,
    Distribution,
    JointSystem,
    _same_alphabet,
    bayes_posterior,
    joint_from_prior_channel,
)

SIM_CHUNK_ROUNDS = 2**14  # rounds per chunk: simulate's memory is O(chunk)


@dataclass(frozen=True, eq=False)
class MarketParams:
    """A betting market: true prior over outcomes, signal channel, quotes.

    Quotes q, a Distribution or raw values in the prior's order, are stored
    as a Distribution; payouts are alpha_x = 1/q_x. Requires q(x) > 0 for
    every outcome with positive prior probability. `joint` is the validated
    p(x, y) = prior(x) * channel(y|x), built once here.
    """

    prior: Distribution
    channel: Channel
    quotes: Distribution
    joint: JointSystem = field(init=False, repr=False)

    def __post_init__(self):
        joint = joint_from_prior_channel(self.prior, self.channel)
        object.__setattr__(self, "joint", joint)
        # simulate and grid_search_optimal never reach cross_entropy's check,
        # and without this one the payout matrix would hold +inf cells.
        object.__setattr__(self, "quotes", _quotes(self.quotes, self.prior))


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated betting run.

    final_log2_wealth is log2(V_n/V_0); mean_growth = final_log2_wealth/rounds
    in bits per round. bankrupt_round is the first 1-based round in which the
    strategy staked nothing on the realized outcome (wealth hit zero; the log
    values are -inf from there on), or None.
    """

    rounds: int
    seed: int
    run_index: int
    final_log2_wealth: float
    mean_growth: float
    trajectory_sample: tuple[tuple[int, float], ...] | None = None
    bankrupt_round: int | None = None


def kelly_strategy(prior: Distribution, channel: Channel) -> Channel:
    """Proportional betting on the Bayes posterior: row y is p(x|y).

    This is the growth-optimal strategy for full-investment betting in a
    no-cost market, independent of the quotes. ZeroProbabilitySignal
    propagates if some signal can never occur.
    """
    posteriors = [bayes_posterior(prior, channel, y).probs for y in channel.output_labels]
    return Channel(channel.output_labels, prior.labels, posteriors)


def _log2_payout_matrix(market: MarketParams, strategy: Channel) -> np.ndarray:
    """log2(b(x|y) * alpha_x), shaped (n_signals, n_outcomes).

    LabelMismatch unless the strategy maps the market's signals to its
    outcomes, each in the market's order. Cells where the stake is 0 are -inf
    (bankruptcy if realized). Outcomes with zero prior probability can never
    be drawn; their cells, nan where a zero stake meets a zero quote, are
    zeroed to keep inf/nan out of the arithmetic.
    """
    signals, outcomes = market.channel.output_labels, market.prior.labels
    _same_alphabet(strategy.input_labels, signals, "strategy signals", "signal labels")
    _same_alphabet(strategy.output_labels, outcomes, "strategy outcomes", "outcome labels")
    with np.errstate(divide="ignore", invalid="ignore"):
        log2_pay = np.log2(strategy.rows) - np.log2(market.quotes.probs)
    log2_pay[:, market.prior.probs == 0.0] = 0.0
    return log2_pay


def simulate(
    market: MarketParams,
    strategy: Channel,
    rounds: int,
    seed: int,
    run_index: int = 0,
    trajectory_points: int = 0,
) -> SimulationResult:
    """Run one betting simulation and return the realized log2 growth.

    Each round draws one cell (x, y) of the market's joint from one uniform
    variate, then adds log2(b(x|y) * alpha_x) to the log wealth. The result
    does not depend on SIM_CHUNK_ROUNDS.
    """
    if rounds < 1:
        raise DomainViolation(f"rounds must be >= 1, got {rounds}")
    if seed < 0 or run_index < 0:
        raise DomainViolation("seed and run_index must be nonnegative")
    flat_pay = _log2_payout_matrix(market, strategy).ravel()
    # A cell is the number of cumulative edges <= u, last edge dropped:
    # min(searchsorted(cum, u, "right"), n - 1), integer for integer.
    cell_edges = np.cumsum(market.joint.joint.T)[:-1]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, run_index))))

    sample_rounds = np.empty(0, dtype=int)
    if trajectory_points > 0:
        # The rounds of a whole-run linspace, not the chunk boundaries.
        sample_rounds = np.unique(
            np.linspace(1, rounds, min(trajectory_points, rounds)).astype(int)
        )
    samples = []
    taken = 0
    log2_final = 0.0
    bankrupt_round = None
    for start in range(0, rounds, SIM_CHUNK_ROUNDS):
        size = min(SIM_CHUNK_ROUNDS, rounds - start)
        u = rng.random(size)
        cells = np.zeros(size, dtype=np.intp)
        for edge in cell_edges:
            cells += edge <= u

        per_round = flat_pay.take(cells)
        per_round[0] += log2_final
        log2_wealth = np.cumsum(per_round)
        log2_final = float(log2_wealth[-1])
        # No cell is +inf, so the sum turns -inf exactly at the first ruin.
        if bankrupt_round is None and np.isneginf(log2_final):
            bankrupt_round = start + int(np.argmax(np.isneginf(log2_wealth))) + 1

        stop = int(np.searchsorted(sample_rounds, start + size, side="right"))
        picked = sample_rounds[taken:stop]
        samples += zip(picked.tolist(), log2_wealth[picked - start - 1].tolist())
        taken = stop

    trajectory = tuple(samples) if trajectory_points > 0 else None
    return SimulationResult(
        rounds=rounds,
        seed=seed,
        run_index=run_index,
        final_log2_wealth=log2_final,
        mean_growth=log2_final / rounds,
        trajectory_sample=trajectory,
        bankrupt_round=bankrupt_round,
    )


def expected_log2_growth(market: MarketParams, strategy: Channel) -> float:
    """Exact expected log2 growth per round of a fixed strategy, in bits.

    sum_{x,y} p(x,y) log2(b(x|y) * alpha_x), computed analytically
    (no simulation). Returns -inf if the strategy stakes nothing on some
    outcome that can occur together with its signal.
    """
    log2_pay = _log2_payout_matrix(market, strategy)
    joint = market.joint.joint  # (n_x, n_y)
    mask = joint > 0.0
    if (mask & np.isneginf(log2_pay.T)).any():
        return float("-inf")
    return float((joint[mask] * log2_pay.T[mask]).sum())


def grid_search_optimal(
    market: MarketParams, resolution: int
) -> tuple[Channel, float]:
    """Exhaustive search for the best fixed strategy on a simplex grid.

    Binary outcome alphabets only (UnsupportedAlphabet otherwise); the
    fraction staked on the first outcome ranges over {0, 1/resolution, ...,
    1} per signal. Expected log2 growth is a sum of per-signal terms, so the
    per-signal argmax equals the argmax over the full product grid; each
    signal is searched independently (same result, linear cost).

    Returns (argmax strategy Channel, exact expected growth in bits/round).
    This is an independent oracle: it never consults posteriors or entropy
    formulas.
    """
    if len(market.prior) != 2:
        raise UnsupportedAlphabet(
            f"grid search supports binary outcomes only, got {len(market.prior)}"
        )
    if resolution < 100:
        raise DomainViolation(f"resolution must be >= 100, got {resolution}")

    fractions, log2_f, log2_1mf = _grid(resolution)
    log2_alpha = -np.log2(market.quotes.probs)

    # value[j, i]: expected growth from signal j when staking fractions[i]
    # on the first outcome. A zero joint cell adds +0.0, never 0 * -inf.
    p0, p1 = market.joint.joint[:, :, None]
    value = np.zeros((len(p0), len(fractions)))
    with np.errstate(invalid="ignore"):
        value += np.where(p0 > 0.0, p0 * (log2_f + log2_alpha[0]), 0.0)
        value += np.where(p1 > 0.0, p1 * (log2_1mf + log2_alpha[1]), 0.0)
    best = value.argmax(axis=1)

    total = 0.0
    for j, i in enumerate(best):  # in signal order, one addition at a time
        total += float(value[j, i])
    f = fractions[best]
    rows = np.stack((f, 1.0 - f), axis=1)
    return Channel(market.channel.output_labels, market.prior.labels, rows), total


@functools.cache
def _grid(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (fractions, log2 fractions, log2(1 - fractions)) of a search grid."""
    fractions = np.linspace(0.0, 1.0, resolution + 1)
    with np.errstate(divide="ignore"):
        grid = (fractions, np.log2(fractions), np.log2(1.0 - fractions))
    for arr in grid:
        arr.setflags(write=False)
    return grid


def kelly_growth_target(market: MarketParams) -> float:
    """Closed-form optimal growth H(q) - H(X|Y) in bits/round.

    Convenience wrapper used by the CLI to print the simulation target next
    to the empirical growth.
    """
    report = efficiency_with_quotes(market.joint, market.quotes)
    assert report.g_max_q is not None
    return report.g_max_q
