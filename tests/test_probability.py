import re

import numpy as np
import pytest

import oracles
from infoeff import (
    AllZero,
    Channel,
    Distribution,
    DuplicateLabel,
    EmptyAlphabet,
    JointSystem,
    LabelMismatch,
    NegativeWeight,
    SampleSet,
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
from infoeff.probability import SUM_TOL


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
        with pytest.raises(SumNotOne) as excinfo:  # beside good rows
            Channel(("a", "b", "c"), ("u", "v"), [[0.5, 0.5], [bad, 0.5], [0.25, 0.75]])
        assert str(excinfo.value) == f"channel row 'b' sums to {bad!r}, not 1 within 1e-09"
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


class TestValidators:
    """The probability-vector checks, pinned as they behave one vector at a time."""

    def test_channel_reports_first_bad_row(self):
        with pytest.raises(SumNotOne) as excinfo:
            Channel(("a", "b"), ("u", "v"), [[0.5, 0.6], [1.5, -0.5]])
        assert str(excinfo.value) == f"channel row 'a' sums to {0.5 + 0.6!r}, not 1 within 1e-09"
        with pytest.raises(NegativeWeight) as excinfo:
            Channel(("a", "b"), ("u", "v"), [[1.5, -0.5], [0.5, 0.6]])
        assert str(excinfo.value) == "channel row 'a' has a negative entry: [1.5, -0.5]"
        with pytest.raises(NegativeWeight) as excinfo:  # every row sums to 1
            Channel(("a", "b"), ("u", "v"), [[0.5, 0.5], [1.5, -0.5]])
        assert str(excinfo.value) == "channel row 'b' has a negative entry: [1.5, -0.5]"
        with pytest.raises(SumNotOne) as excinfo:
            Channel(("a", "b", "c"), ("u", "v"), [[0.5, 0.5], [0.5, 0.5 + 2e-9], [0.5, 0.5]])
        assert str(excinfo.value).startswith("channel row 'b' sums to 1.000000002")

    def test_nan_beside_negative_is_negative_weight(self):
        nan = float("nan")
        with pytest.raises(NegativeWeight) as excinfo:
            make_distribution(["a", "b", "c"], [nan, -0.5, 1.5])
        assert str(excinfo.value) == "distribution has a negative entry: [nan, -0.5, 1.5]"
        with pytest.raises(NegativeWeight, match="channel row 'b' has a negative entry"):
            Channel(("a", "b"), ("u", "v", "w"), [[0.5, 0.5, 0.0], [nan, -0.5, 1.5]])
        with pytest.raises(NegativeWeight, match="joint has a negative entry"):
            JointSystem(("a", "b"), ("u",), [[-0.5], [nan]])

    def test_negative_zero_accepted(self):
        assert make_distribution(["a", "b"], [-0.0, 1.0]).probs.tolist() == [-0.0, 1.0]
        chan = Channel(("a", "b"), ("u", "v"), [[-0.0, 1.0], [1.0, -0.0]])
        assert chan.rows.tolist() == [[-0.0, 1.0], [1.0, -0.0]]
        JointSystem(("a", "b"), ("u", "v"), [[-0.0, 0.5], [0.5, -0.0]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Distribution((), np.empty(0)),
            lambda: Channel((), ("u",), np.empty((0, 1))),
            lambda: Channel(("a",), (), np.empty((1, 0))),
            lambda: JointSystem((), ("u",), np.empty((0, 1))),
            lambda: JointSystem(("a",), (), np.empty((1, 0))),
        ],
        ids=["distribution", "channel input", "channel output", "joint outcome", "joint signal"],
    )
    def test_empty_alphabet_raised_before_any_reduction(self, build):
        # The reductions cannot see an empty vector: fmin has no identity.
        with pytest.raises(ValueError, match="no identity"):
            np.fmin.reduce(np.empty(0))
        with pytest.raises(EmptyAlphabet):
            build()

    def test_row_sums_equal_vector_sums_bit_for_bit(self):
        # Channel accepts all its rows from one reduction over the last axis;
        # that decision is the per-row one only if each row's sum has the
        # bits of the row summed alone.
        rng = np.random.default_rng(7)
        for width in range(1, 65):
            rows = rng.random((6, width)) * 10.0 ** rng.uniform(-8, 8, (6, width))
            sums = np.add.reduce(rows, axis=1)
            for row, total in zip(rows, sums):
                assert total.tobytes() == row.sum().tobytes()

    def test_channel_accepts_exactly_what_each_row_check_accepts(self):
        rng = np.random.default_rng(19)
        for _ in range(400):
            n_in, width = rng.integers(1, 5), rng.integers(1, 24)
            rows = rng.random((n_in, width))
            rows /= rows.sum(axis=1, keepdims=True)
            # Nudge some rows to just inside or just outside the 1e-9 tolerance.
            rows[:, 0] += rng.choice([0.0, 0.9e-9, -0.9e-9, 1.1e-9, -1.1e-9], n_in)
            labels = tuple(f"x{i}" for i in range(n_in))
            outputs = tuple(f"y{j}" for j in range(width))
            bad = [
                i for i, row in enumerate(rows)
                if (row < 0.0).any() or not abs(float(row.sum()) - 1.0) <= 1e-9
            ]
            if bad:
                with pytest.raises((SumNotOne, NegativeWeight), match=f"channel row 'x{bad[0]}'"):
                    Channel(labels, outputs, rows)
            else:
                assert Channel(labels, outputs, rows).rows.tobytes() == rows.tobytes()


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

    def test_marginal_misses_prior_by_the_row_tolerance(self):
        # The largest second entry a channel row accepts beside 0.5.
        high = 0.5 + SUM_TOL
        while True:
            try:
                chan = Channel(("h", "t"), ("u", "v"), [[0.5, high], [0.5, 0.5]])
                break
            except SumNotOne:
                high = np.nextafter(high, 0.0)
        prior = make_distribution(["h", "t"], [0.5, 0.5])
        marginal = marginal_outcome(joint_from_prior_channel(prior, chan)).probs
        assert marginal[0] == 0.5 * (0.5 + high)
        assert 0.5 * SUM_TOL * 0.999 < marginal[0] - 0.5 <= 0.5 * SUM_TOL
        assert marginal[1] == 0.5


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


@pytest.mark.parametrize(
    "lookup, message",
    [
        (lambda: make_distribution(["h", "t"], [0.9, 0.1]).prob("x"),
         "unknown distribution label 'x'"),
        (lambda: Channel(("a", "b"), ("u", "v"), [[0.3, 0.7], [0.6, 0.4]]).row_distribution("x"),
         "unknown channel input label 'x'"),
        (lambda: bayes_posterior(
            make_distribution(["a", "b"], [0.5, 0.5]),
            Channel(("a", "b"), ("u", "v"), [[0.3, 0.7], [0.6, 0.4]]),
            "x",
        ), "unknown signal label 'x'"),
    ],
    ids=["Distribution.prob", "Channel.row_distribution", "bayes_posterior"],
)
def test_unknown_label_lookup_raises_label_mismatch(lookup, message):
    with pytest.raises(LabelMismatch) as excinfo:
        lookup()
    assert str(excinfo.value) == message


# Every labeled table: its alphabet fields in the order of its array's axes,
# its array field and a valid array over two labels per axis.
LABELED_TABLES = {
    "Distribution": (Distribution, ("labels",), "probs", [0.25, 0.75]),
    "Channel": (Channel, ("input_labels", "output_labels"), "rows", [[0.5, 0.5], [0.1, 0.9]]),
    "JointSystem": (JointSystem, ("outcome_labels", "signal_labels"), "joint",
                    [[0.25, 0.25], [0.1, 0.4]]),
    "SampleSet": (SampleSet, ("outcome_labels", "signal_labels"), "table", [[1, 2], [3, 4]]),
}


def build_table(kind, array=None, **alphabets):
    cls, names, field, valid = LABELED_TABLES[kind]
    fields = {name: [f"{name[0]}{i}" for i in range(2)] for name in names}
    fields.update(alphabets)
    fields[field] = valid if array is None else array
    return cls(**fields)


@pytest.mark.parametrize("kind", LABELED_TABLES)
class TestLabeledTableContract:
    def test_array_is_read_only(self, kind):
        field = LABELED_TABLES[kind][2]
        table = build_table(kind)
        array = getattr(table, field)
        assert array.dtype == np.float64 and not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0.0

    def test_labels_stored_as_tuples_of_str(self, kind):
        names = LABELED_TABLES[kind][1]
        table = build_table(kind, **{name: [0, 1] for name in names})
        for name in names:
            assert getattr(table, name) == ("0", "1")

    @pytest.mark.parametrize("reshape", ["extra-entry", "extra-axis"])
    def test_shape_mismatch(self, kind, reshape):
        _, names, field, valid = LABELED_TABLES[kind]
        valid = np.array(valid, dtype=float)
        if reshape == "extra-entry":
            bad = np.concatenate([valid, valid[..., :1]], axis=-1)
        else:
            bad = valid[None]
        sizes = (2,) * len(names)
        message = f"{field} shape {bad.shape} does not match alphabet sizes {sizes}"
        with pytest.raises(LabelMismatch, match=f"^{re.escape(message)}$"):
            build_table(kind, bad)


@pytest.mark.parametrize(
    "kind, name",
    [(kind, name) for kind, (_, names, _, _) in LABELED_TABLES.items() for name in names],
)
def test_labeled_table_alphabet_rules(kind, name):
    with pytest.raises(EmptyAlphabet):
        build_table(kind, **{name: []})
    with pytest.raises(DuplicateLabel):
        build_table(kind, **{name: ["a", "a"]})
