import numpy as np
import pytest

import oracles
from infoeff import (
    AllZero,
    Channel,
    DuplicateLabel,
    EmptyAlphabet,
    JointSystem,
    LabelMismatch,
    NegativeWeight,
    SumNotOne,
    ZeroProbabilitySignal,
    bayes_posterior,
    compose_channels,
    joint_from_prior_channel,
    make_distribution,
    marginal_outcome,
    marginal_signal,
    normalize,
)


class TestMakeDistribution:
    def test_fair_coin(self):
        d = make_distribution(["h", "t"], [0.5, 0.5])
        assert d.labels == ("h", "t")
        assert d.probs.tolist() == [0.5, 0.5]

    def test_biased_coin_kept_exact(self):
        d = make_distribution(["h", "t"], [0.9, 0.1])
        assert d.probs.tolist() == [0.9, 0.1]

    def test_sum_not_one(self):
        with pytest.raises(SumNotOne):
            make_distribution(["h", "t"], [0.5, 0.6])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make_distribution(["h", "t"], [1.1, -0.1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(SumNotOne):
            make_distribution(["h", "t"], [bad, 0.5])
        with pytest.raises(SumNotOne):
            Channel(("a",), ("u", "v"), [[bad, 0.5]])
        with pytest.raises(SumNotOne):
            JointSystem(("h", "t"), ("u",), [[bad], [0.5]])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            make_distribution(["h", "h"], [0.5, 0.5])

    def test_empty_alphabet(self):
        with pytest.raises(EmptyAlphabet):
            make_distribution([], [])

    def test_length_mismatch(self):
        with pytest.raises(LabelMismatch):
            make_distribution(["a", "b"], [1.0])

    def test_immutable(self):
        d = make_distribution(["a", "b"], [0.25, 0.75])
        with pytest.raises(ValueError):
            d.probs[0] = 0.5


class TestNormalize:
    def test_even_weights(self):
        assert normalize(["a", "b"], [2.0, 2.0]).probs.tolist() == [0.5, 0.5]

    def test_proportional(self):
        assert normalize(["a", "b"], [3.0, 1.0]).probs.tolist() == [0.75, 0.25]

    def test_all_zero(self):
        with pytest.raises(AllZero):
            normalize(["a", "b"], [0.0, 0.0])

    def test_negative(self):
        with pytest.raises(NegativeWeight):
            normalize(["a", "b"], [-1.0, 2.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_weights_whose_sum_overflows(self):
        d = normalize(["a", "b"], [1e308, 1e308])
        assert d.probs.tolist() == [0.5, 0.5]
        d = normalize(["a", "b", "c"], [1.5e308, 0.0, 1.5e308])
        assert d.probs.tolist() == [0.5, 0.0, 0.5]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_weight(self, bad):
        with pytest.raises(SumNotOne) as excinfo:
            normalize(["a", "b"], [bad, 1.0])
        assert str(excinfo.value) == f"weights must be finite, got [{bad}, 1.0]"

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = rng.integers(2, 7)
            w = rng.random(n) + 1e-6
            once = normalize([f"x{i}" for i in range(n)], w)
            twice = normalize(once.labels, once.probs)
            assert np.array_equal(once.probs, twice.probs)


class TestJointFromPriorChannel:
    def test_product_construction(self):
        prior = make_distribution(["h", "t"], [0.5, 0.5])
        chan = Channel(("h", "t"), ("h", "t"), [[0.9, 0.1], [0.1, 0.9]])
        joint = joint_from_prior_channel(prior, chan)
        assert np.allclose(joint.joint, [[0.45, 0.05], [0.05, 0.45]], atol=1e-15)

    def test_degenerate_prior_zero_row(self):
        prior = make_distribution(["a", "b"], [1.0, 0.0])
        chan = Channel(("a", "b"), ("u", "v"), [[0.3, 0.7], [0.6, 0.4]])
        joint = joint_from_prior_channel(prior, chan)
        assert joint.joint[1].tolist() == [0.0, 0.0]

    def test_identity_channel(self):
        prior = make_distribution(["h", "t"], [0.5, 0.5])
        chan = Channel(("h", "t"), ("h", "t"), [[1.0, 0.0], [0.0, 1.0]])
        joint = joint_from_prior_channel(prior, chan)
        assert joint.joint.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_label_mismatch(self):
        prior = make_distribution(["x", "y"], [0.5, 0.5])
        chan = Channel(("h", "t"), ("h", "t"), [[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(LabelMismatch) as excinfo:
            joint_from_prior_channel(prior, chan)
        assert str(excinfo.value) == "channel inputs ('h', 't') != prior labels ('x', 'y')"

    def test_marginal_reproduces_prior(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_x, n_y = rng.integers(2, 6), rng.integers(2, 6)
            prior = normalize([f"x{i}" for i in range(n_x)], rng.random(n_x) + 1e-9)
            rows = rng.random((n_x, n_y)) + 1e-9
            rows /= rows.sum(axis=1, keepdims=True)
            chan = Channel(prior.labels, tuple(f"y{j}" for j in range(n_y)), rows)
            joint = joint_from_prior_channel(prior, chan)
            assert np.max(np.abs(marginal_outcome(joint).probs - prior.probs)) < 1e-12
            assert abs(float(np.sum(joint.joint)) - 1.0) < 1e-9


class TestBayesPosterior:
    def test_uniform_prior_matches_channel_column(self, fair_coin_prior, accuracy_09_channel):
        post = bayes_posterior(fair_coin_prior, accuracy_09_channel, "h")
        assert np.allclose(post.probs, [0.9, 0.1], atol=1e-15)

    def test_biased_prior_frozen_oracle(self, accuracy_09_channel):
        prior = make_distribution(["h", "t"], [0.9, 0.1])
        post = bayes_posterior(prior, accuracy_09_channel, "h")
        assert post.probs == pytest.approx(oracles.FROZEN_POSTERIOR_BIASED, abs=1e-15)
        enumerated = oracles.bayes_by_enumeration(
            [0.9, 0.1], [[0.9, 0.1], [0.1, 0.9]], 0
        )
        assert post.probs == pytest.approx(enumerated, abs=1e-15)

    def test_zero_probability_signal(self):
        prior = make_distribution(["a", "b"], [1.0, 0.0])
        chan = Channel(("a", "b"), ("u", "v"), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ZeroProbabilitySignal):
            bayes_posterior(prior, chan, "v")

    def test_channel_inputs_must_match_prior(self, accuracy_09_channel):
        prior = make_distribution(["x", "y"], [0.5, 0.5])
        with pytest.raises(LabelMismatch) as excinfo:
            bayes_posterior(prior, accuracy_09_channel, "h")
        assert str(excinfo.value) == "channel inputs ('h', 't') != prior labels ('x', 'y')"

    def test_unknown_signal(self, fair_coin_prior, accuracy_09_channel):
        with pytest.raises(LabelMismatch):
            bayes_posterior(fair_coin_prior, accuracy_09_channel, "z")

    def test_law_of_total_probability(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n_x, n_y = rng.integers(2, 5), rng.integers(2, 5)
            prior = normalize([f"x{i}" for i in range(n_x)], rng.random(n_x) + 0.01)
            rows = rng.random((n_x, n_y)) + 0.01
            rows /= rows.sum(axis=1, keepdims=True)
            chan = Channel(prior.labels, tuple(f"y{j}" for j in range(n_y)), rows)
            joint = joint_from_prior_channel(prior, chan)
            p_y = marginal_signal(joint)
            recovered = np.zeros(n_x)
            for j, y in enumerate(chan.output_labels):
                recovered += p_y.probs[j] * bayes_posterior(prior, chan, y).probs
            assert np.max(np.abs(recovered - prior.probs)) < 1e-12


class TestMarginals:
    @pytest.mark.parametrize(
        "joint",
        [
            [[0.45, 0.05], [0.05, 0.45]],
            [[0.5, 0.0], [0.0, 0.5]],
            [[0.25, 0.25], [0.25, 0.25]],
        ],
    )
    def test_marginal_signal_fair_cases(self, joint):
        from infoeff import JointSystem

        js = JointSystem(("h", "t"), ("h", "t"), joint)
        assert marginal_signal(js).probs == pytest.approx([0.5, 0.5], abs=1e-15)


class TestComposeChannels:
    def test_projection_of_product_alphabet(self):
        fine = Channel(("x0", "x1"), ("a", "b", "c"), [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        garble = Channel(("a", "b", "c"), ("u", "v"), [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        coarse = compose_channels(fine, garble)
        assert coarse.input_labels == ("x0", "x1")
        assert coarse.output_labels == ("u", "v")
        assert np.allclose(coarse.rows, [[0.9, 0.1], [0.4, 0.6]], atol=1e-15)

    def test_label_mismatch(self):
        a = Channel(("x",), ("y",), [[1.0]])
        b = Channel(("z",), ("w",), [[1.0]])
        with pytest.raises(LabelMismatch):
            compose_channels(a, b)


def test_channel_row_validation():
    with pytest.raises(SumNotOne):
        Channel(("a", "b"), ("u", "v"), [[0.9, 0.2], [0.5, 0.5]])
    with pytest.raises(LabelMismatch):
        Channel(("a", "b"), ("u", "v"), [[1.0, 0.0]])


def test_channel_row_distribution():
    chan = Channel(("a", "b"), ("u", "v"), [[0.3, 0.7], [0.6, 0.4]])
    row = chan.row_distribution("b")
    assert row.labels == ("u", "v")
    assert row.probs.tolist() == [0.6, 0.4]


def test_distribution_accessors():
    d = make_distribution(["h", "t"], [0.9, 0.1])
    assert d.prob("t") == 0.1
    assert d.as_dict() == {"h": 0.9, "t": 0.1}
    assert len(d) == 2
