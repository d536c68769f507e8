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
SIM_CHUNK_ROUNDS and the stream is read in order whatever the chunk size.
A run keeps integer tallies of the rounds drawn in each cell, N_c, that
each chunk adds to; its log wealth is sum_c N_c * log2(b(x|y) * alpha_x),
the growth rate's expectation over cells with counts for probabilities,
summed cell by cell at the end and at each sampled round, from the tallies
up to it. So every bit is independent of the chunk size, the rounding error
is bounded by the number of cells, not of rounds, and memory is O(chunk).
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
    _bayes_rows,
    _same_alphabet,
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
    no-cost market, independent of the quotes. ZeroProbabilitySignal names
    the first signal that can never occur.
    """
    rows = _bayes_rows(prior, channel, channel.output_labels)  # validated once, as the Channel
    return Channel(channel.output_labels, prior.labels, rows)


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


def _drawn(at_least: np.ndarray) -> np.ndarray:
    """Rounds per cell, N_c, from tallies whose row k counts the rounds in cells >= k."""
    counts = at_least.copy()
    counts[:-1] -= at_least[1:]
    return counts


def _log2_wealth(at_least: np.ndarray, flat_pay: np.ndarray) -> np.ndarray:
    """sum_c N_c * flat_pay[c] for each column of at-least tallies shaped (cells, m).

    An undrawn cell adds nothing, even where its payout is -inf. Cells add
    one by one from +0.0, so a trajectory sample and the final value round
    alike.
    """
    counts = _drawn(at_least)
    terms = np.multiply(counts, flat_pay[:, None], out=np.zeros(counts.shape), where=counts > 0)
    total = 0.0
    for term in terms:
        total = total + term
    return total


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
    variate and multiplies wealth by b(x|y) * alpha_x. The log wealth is
    sum_c N_c * log2(b * alpha)_c over the cells drawn, from integer
    tallies, so the result does not depend on SIM_CHUNK_ROUNDS, and a
    trajectory sample at round r equals the result of a run of r rounds.
    """
    if rounds < 1:
        raise DomainViolation(f"rounds must be >= 1, got {rounds}")
    if seed < 0 or run_index < 0:
        raise DomainViolation("seed and run_index must be nonnegative")
    flat_pay = _log2_payout_matrix(market, strategy).ravel()
    ruin = np.isneginf(flat_pay)
    # A cell is the number of cumulative edges <= u, last edge dropped:
    # min(searchsorted(cum, u, "right"), n - 1), integer for integer. So the
    # rounds in cells >= k are those with u >= edge k - 1.
    cell_edges = np.cumsum(market.joint.joint.T)[:-1]
    rng = np.random.default_rng((seed, run_index))
    # The rounds of a whole-run linspace, not the chunk boundaries; none at <= 0
    # points. With points <= rounds the step is at least 1, so they strictly increase.
    points = max(0, min(trajectory_points, rounds))
    sample_rounds = np.linspace(1, rounds, points).astype(int)
    samples = []
    taken = 0
    at_least = np.zeros(len(flat_pay), dtype=np.int64)  # [k]: rounds so far in cells >= k
    bankrupt_round = None
    for start in range(0, rounds, SIM_CHUNK_ROUNDS):
        size = min(SIM_CHUNK_ROUNDS, rounds - start)
        u = rng.random(size)
        stop = int(np.searchsorted(sample_rounds, start + size, side="right"))
        ends = sample_rounds[taken:stop] - start  # chunk prefixes that end at a sample
        taken = stop
        if len(ends):
            # The tallies at each sample: those before the chunk plus its pieces up to the sample.
            starts = np.concatenate(([0], ends[:-1]))
            head = u[: ends[-1]]
            pieces = [ends - starts] + [np.add.reduceat(edge <= head, starts) for edge in cell_edges]
            log2_wealth = _log2_wealth(at_least[:, None] + np.cumsum(pieces, axis=1), flat_pay)
            samples += zip((start + ends).tolist(), log2_wealth.tolist())
        at_least += [size] + [np.count_nonzero(edge <= u) for edge in cell_edges]
        if bankrupt_round is None and _drawn(at_least)[ruin].any():
            cells = np.searchsorted(cell_edges, u, side="right")
            bankrupt_round = start + int(np.argmax(ruin[cells])) + 1

    log2_final = float(_log2_wealth(at_least[:, None], flat_pay)[0])
    return SimulationResult(
        rounds=rounds,
        seed=seed,
        run_index=run_index,
        final_log2_wealth=log2_final,
        mean_growth=log2_final / rounds,
        trajectory_sample=tuple(samples) if points else None,
        bankrupt_round=bankrupt_round,
    )


def expected_log2_growth(market: MarketParams, strategy: Channel) -> float:
    """Exact expected log2 growth per round of a fixed strategy, in bits.

    sum_{x,y} p(x,y) log2(b(x|y) * alpha_x), computed analytically
    (no simulation). A zero stake on an outcome that can occur with its
    signal is a -inf cell, so the sum is -inf: no cell is +inf or nan.
    """
    log2_pay = _log2_payout_matrix(market, strategy).T  # (n_x, n_y), as the joint
    joint = market.joint.joint
    mask = joint > 0.0
    return float(np.add.reduce(joint[mask] * log2_pay[mask]))


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
    with np.errstate(invalid="ignore"):
        value = np.where(p0 > 0.0, p0 * (log2_f + log2_alpha[0]), 0.0)
        value += np.where(p1 > 0.0, p1 * (log2_1mf + log2_alpha[1]), 0.0)
    best = value.argmax(axis=1)

    total = 0.0
    for j, i in enumerate(best):  # in signal order, one addition at a time
        total += float(value[j, i])
    f = fractions[best]
    rows = np.array((f, 1.0 - f)).T  # the Channel stores a C-ordered copy
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

    Kept as a public name because the acceptance tests check the
    brute-force grid optimum against it; `simulate` prints it as `target`.
    """
    report = efficiency_with_quotes(market.joint, market.quotes)
    assert report.g_max_q is not None
    return report.g_max_q
