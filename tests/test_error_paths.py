"""Library error paths that no CLI path reaches, with their exact messages."""

import pytest

from infoeff import (
    CoinGameParams,
    DomainViolation,
    EmptyAlphabet,
    MarketParams,
    closed_form_entropy,
    coin_components,
    kelly_strategy,
    make_distribution,
    simulate,
)


def _simulate(**kwargs):
    prior, channel, quotes = coin_components(CoinGameParams(0.5, 0.9, 0.5))
    return simulate(MarketParams(prior, channel, quotes), kelly_strategy(prior, channel),
                    rounds=10, **{"seed": 1, **kwargs})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: make_distribution(["a", ""], [0.5, 0.5]), EmptyAlphabet,
         "distribution alphabet contains an empty label"),
        (lambda: _simulate(seed=-1), DomainViolation,
         "seed and run_index must be nonnegative"),
        (lambda: _simulate(run_index=-1), DomainViolation,
         "seed and run_index must be nonnegative"),
        (lambda: closed_form_entropy(1.5), DomainViolation,
         "p_tail must be in [0, 1], got 1.5"),
    ],
    ids=["empty-label", "negative-seed", "negative-run-index", "p-tail-above-1"],
)
def test_library_error_message(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
