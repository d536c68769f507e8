import numpy as np
import pytest

from infoeff import Channel, Distribution, SampleSet, make_distribution


def draw_records(prior: Distribution, channel: Channel, n: int, seed: int) -> SampleSet:
    """Count table of synthetic (signal, outcome) records from a known generator."""
    rng = np.random.default_rng(seed)
    xs = np.searchsorted(np.cumsum(prior.probs), rng.random(n), side="right")
    xs = np.minimum(xs, len(prior) - 1)
    u = rng.random(n)
    ys = np.empty(n, dtype=np.intp)
    for i in range(len(prior)):
        chosen = xs == i
        if not np.any(chosen):
            continue
        cum = np.cumsum(channel.rows[i])
        ys[chosen] = np.minimum(
            np.searchsorted(cum, u[chosen], side="right"), len(cum) - 1
        )
    table = np.zeros((len(prior), len(channel.output_labels)))
    np.add.at(table, (xs, ys), 1.0)
    return SampleSet(table, channel.output_labels, prior.labels)


@pytest.fixture
def fair_coin_prior() -> Distribution:
    return make_distribution(("h", "t"), (0.5, 0.5))


@pytest.fixture
def accuracy_09_channel() -> Channel:
    return Channel(("h", "t"), ("h", "t"), [[0.9, 0.1], [0.1, 0.9]])
