"""The coin-toss betting game: parameters, closed-form curves, and the
equivalent general system for cross-checking.

A coin shows head 'h' or tail 't'. A player receives a signal about the
result that is correct with a symmetric accuracy, then bets at payout
quotes derived from an anticipated tail probability q_tail. Closed forms
exist on specific parameter slices (fair coin, unpredictable signal) and
must agree with the general pipeline to 1e-10 there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation
from .probability import (
    Channel,
    Distribution,
    JointSystem,
    joint_from_prior_channel,
    make_distribution,
)

HEAD = "h"
TAIL = "t"
COIN_LABELS = (HEAD, TAIL)


@dataclass(frozen=True)
class CoinGameParams:
    """Coin game parameterization.

    p_tail: true probability of tail, in [0, 1] (head gets 1 - p_tail).
    accuracy: symmetric signal accuracy p(y='h'|x='h') = p(y='t'|x='t'),
        in [0, 1]; 0.5 means the signal is worthless.
    q_tail: anticipated tail probability in (0, 1); the payout quotes are
        alpha_tail = 1/q_tail and alpha_head = alpha_tail/(alpha_tail - 1),
        both > 1.
    """

    p_tail: float
    accuracy: float
    q_tail: float

    def __post_init__(self):
        if not 0.0 <= self.p_tail <= 1.0:
            raise DomainViolation(f"p_tail must be in [0, 1], got {self.p_tail!r}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise DomainViolation(f"accuracy must be in [0, 1], got {self.accuracy!r}")
        if not 0.0 < self.q_tail < 1.0:
            raise DomainViolation(f"q_tail must be in (0, 1), got {self.q_tail!r}")
        # Adding +0.0 turns -0.0 into 0.0, so no report echoes a negative zero.
        object.__setattr__(self, "p_tail", self.p_tail + 0.0)
        object.__setattr__(self, "accuracy", self.accuracy + 0.0)

    @property
    def alpha_tail(self) -> float:
        return 1.0 / self.q_tail

    @property
    def alpha_head(self) -> float:
        return 1.0 / (1.0 - self.q_tail)


def coin_components(
    params: CoinGameParams,
) -> tuple[Distribution, Channel, Distribution]:
    """(prior, signal channel, quotes) for the game, labels ('h', 't')."""
    prior = make_distribution(COIN_LABELS, (1.0 - params.p_tail, params.p_tail))
    a = params.accuracy
    channel = Channel(COIN_LABELS, COIN_LABELS, np.array([[a, 1.0 - a], [1.0 - a, a]]))
    quotes = make_distribution(COIN_LABELS, (1.0 - params.q_tail, params.q_tail))
    return prior, channel, quotes


def coin_joint(params: CoinGameParams) -> tuple[JointSystem, Distribution]:
    """2x2 joint system over (outcome, signal) plus the quote vector."""
    prior, channel, quotes = coin_components(params)
    return joint_from_prior_channel(prior, channel), quotes


def closed_form_entropy(p_tail: float) -> float:
    """Binary entropy of the coin in bits: maximal 1 at 0.5, zero at 0 and 1."""
    if not 0.0 <= p_tail <= 1.0:
        raise DomainViolation(f"p_tail must be in [0, 1], got {p_tail!r}")
    if p_tail in (0.0, 1.0):
        return 0.0
    return (p_tail - 1.0) * math.log2(1.0 - p_tail) - p_tail * math.log2(p_tail)


# Eff of a fair coin at fair quotes is the binary entropy of the signal accuracy.
closed_form_efficiency_fair = closed_form_entropy


def closed_form_quote_entropy(q_tail: float) -> float:
    """H(q) in bits for a fair coin quoted at q_tail: -0.5 log2 q - 0.5 log2(1-q).

    Minimal (1 bit) at the fair quote q_tail = 0.5, rising toward both
    endpoints.
    """
    if not 0.0 < q_tail < 1.0:
        raise DomainViolation(f"q_tail must be in (0, 1), got {q_tail!r}")
    return -0.5 * math.log2(q_tail) - 0.5 * math.log2(1.0 - q_tail)


def closed_form_efficiency_unfair_quotes(q_tail: float) -> float:
    """Efficiency of a fair, unpredictable coin under quote probability q_tail.

    Equals 1/H(q) since H(X|Y) = 1 bit; 1 at the fair quote, falling toward
    0 at both endpoints.
    """
    return 1.0 / closed_form_quote_entropy(q_tail)


# curve id -> (closed form, open domain flag). Open-domain curves exclude
# the endpoints 0 and 1 from the default grid.
CURVES = {
    "eff_vs_accuracy": (closed_form_entropy, False),
    "entropy_vs_ptail": (closed_form_entropy, False),
    "eff_vs_q": (closed_form_efficiency_unfair_quotes, True),
    "hq_vs_q": (closed_form_quote_entropy, True),
}


def sweep(curve_id: str, points: int = 1001) -> list[tuple[float, float]]:
    """Sample a closed-form curve on a uniform grid; returns (param, value) rows.

    The grid is `points` samples of [0, 1], with the endpoints dropped for
    the open-domain curves, which therefore need at least 3 points.
    """
    if curve_id not in CURVES:
        raise DomainViolation(
            f"unknown curve {curve_id!r}; expected one of {sorted(CURVES)}"
        )
    func, open_domain = CURVES[curve_id]
    minimum = 3 if open_domain else 2  # an open domain keeps no endpoint
    if points < minimum:
        raise DomainViolation(f"{curve_id} grid needs at least {minimum} points, got {points}")
    grid = np.linspace(0.0, 1.0, points)
    if open_domain:
        grid = grid[(grid > 0.0) & (grid < 1.0)]
    return [(float(x), func(float(x))) for x in grid]
