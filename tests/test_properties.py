"""Property-based tests of the information-theoretic invariants.

Strategies build distributions/channels by normalizing positive weight
vectors, which guarantees validity by construction; a separate strategy
mixes NaN and infinities into such vectors to check that they are refused.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoeff import (
    Channel,
    Distribution,
    InfoEffError,
    JointSystem,
    compose_channels,
    conditional_entropy,
    cross_entropy,
    efficiency,
    efficiency_with_quotes,
    entropy,
    joint_from_prior_channel,
    make_distribution,
    marginal_outcome,
    mutual_information,
    normalize,
)

positive_weight = st.floats(min_value=1e-6, max_value=1.0)


@st.composite
def distributions(draw, min_size=2, max_size=6):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    weights = draw(st.lists(positive_weight, min_size=n, max_size=n))
    return normalize(tuple(f"x{i}" for i in range(n)), weights)


@st.composite
def distribution_pairs(draw):
    p = draw(distributions())
    weights = draw(
        st.lists(positive_weight, min_size=len(p), max_size=len(p))
    )
    return p, normalize(p.labels, weights)


@st.composite
def channels(draw, input_labels, min_outputs=2, max_outputs=5):
    n_out = draw(st.integers(min_value=min_outputs, max_value=max_outputs))
    out_labels = tuple(f"y{j}" for j in range(n_out))
    rows = []
    for _ in input_labels:
        rows.append(draw(st.lists(positive_weight, min_size=n_out, max_size=n_out)))
    matrix = np.asarray(rows)
    matrix = matrix / matrix.sum(axis=1, keepdims=True)
    return Channel(input_labels, out_labels, matrix)


@st.composite
def weights_with_non_finite(draw, n):
    """Probabilities summing to 1, with some entries (maybe none) made nan or +-inf."""
    weights = draw(st.lists(positive_weight, min_size=n, max_size=n))
    total = sum(weights)
    weights = [w / total for w in weights]
    for i in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n)):
        weights[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return weights


@st.composite
def prior_channel(draw):
    prior = draw(distributions())
    return prior, draw(channels(prior.labels))


@given(distributions())
def test_entropy_bounded_by_log_alphabet(dist):
    assert -1e-12 <= entropy(dist) <= math.log2(len(dist)) + 1e-9


@given(st.integers(min_value=2, max_value=12))
def test_entropy_equality_iff_uniform(n):
    uniform = Distribution(tuple(f"x{i}" for i in range(n)), np.full(n, 1.0 / n))
    assert entropy(uniform) == pytest.approx(math.log2(n), abs=1e-12)


@given(distributions())
def test_nonuniform_is_strictly_below_the_bound(dist):
    # log2 n - H(p) = KL(p || uniform) >= total_variation^2 / (2 ln 2)
    n = len(dist)
    tv = float(np.sum(np.abs(dist.probs - 1.0 / n)))
    slack = math.log2(n) - entropy(dist)
    assert slack >= tv * tv / (2.0 * math.log(2.0)) - 1e-9


@given(distribution_pairs())
def test_gibbs_inequality(pair):
    p, q = pair
    assert cross_entropy(p, q) >= entropy(p) - 1e-12


@given(distribution_pairs())
def test_gibbs_equality_iff_q_equals_p(pair):
    # Pinsker: KL(p||q) >= TV^2 / (2 ln 2), so a tiny KL forces q close to p
    p, q = pair
    kl = cross_entropy(p, q) - entropy(p)
    tv = float(np.sum(np.abs(p.probs - q.probs)))
    if tv > 1e-4:
        assert kl > tv * tv / (2.0 * math.log(2.0)) - 1e-12
    assert cross_entropy(p, p) == entropy(p)


@given(prior_channel())
def test_mutual_information_nonnegative(pc):
    prior, channel = pc
    assert mutual_information(joint_from_prior_channel(prior, channel)) >= 0.0


@given(prior_channel())
def test_conditioning_never_increases_entropy(pc):
    prior, channel = pc
    joint = joint_from_prior_channel(prior, channel)
    assert conditional_entropy(joint) <= entropy(marginal_outcome(joint)) + 1e-12


@given(prior_channel())
def test_efficiency_in_unit_interval(pc):
    prior, channel = pc
    report = efficiency(joint_from_prior_channel(prior, channel))
    assert 0.0 <= report.eff <= 1.0
    assert report.g_max >= 0.0


@given(distribution_pairs(), st.data())
@settings(max_examples=60)
def test_quote_efficiency_bounds_and_additivity(pair, data):
    p, q = pair
    channel = data.draw(channels(p.labels))
    joint = joint_from_prior_channel(p, channel)
    report = efficiency_with_quotes(joint, q)
    assert 0.0 <= report.eff_q <= 1.0
    assert report.h_q >= report.h_x - 1e-12 >= report.h_x_given_y - 2e-12
    assert report.g_max_q == pytest.approx(
        report.predictability_gap + report.mispricing_gap, abs=1e-12
    )
    assert report.eff_q <= report.eff + 1e-12


@given(prior_channel(), st.data())
@settings(max_examples=60)
def test_garbling_monotonicity(pc, data):
    # H(X | garbled Y) >= H(X | Y): extra processing cannot reveal more,
    # so efficiency against the coarser signal is at least as high
    prior, fine = pc
    garble = data.draw(channels(fine.output_labels, min_outputs=2, max_outputs=4))
    coarse = compose_channels(fine, garble)
    h_fine = conditional_entropy(joint_from_prior_channel(prior, fine))
    h_coarse = conditional_entropy(joint_from_prior_channel(prior, coarse))
    assert h_fine <= h_coarse + 1e-12


@given(st.data())
def test_non_finite_weights_never_validate(data):
    # Each constructor either yields finite probabilities or raises.
    n_x = data.draw(st.integers(min_value=1, max_value=4))
    n_y = data.draw(st.integers(min_value=1, max_value=4))
    xs = tuple(f"x{i}" for i in range(n_x))
    ys = tuple(f"y{j}" for j in range(n_y))
    probs = data.draw(weights_with_non_finite(n_x))
    rows = [data.draw(weights_with_non_finite(n_y)) for _ in xs]
    cells = np.reshape(data.draw(weights_with_non_finite(n_x * n_y)), (n_x, n_y))
    for build in (
        lambda: make_distribution(xs, probs).probs,
        lambda: Channel(xs, ys, rows).rows,
        lambda: JointSystem(xs, ys, cells).joint,
    ):
        try:
            values = build()
        except InfoEffError:
            continue
        assert np.all(np.isfinite(values))
