import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from infoeff import (
    Channel,
    JointSystem,
    LabelMismatch,
    NumericalInconsistency,
    UnsupportedOutcome,
    conditional_entropy,
    cross_entropy,
    entropy,
    joint_from_prior_channel,
    make_distribution,
    mutual_information,
    normalize,
)
from infoeff.measures import (
    CANCEL_TOL,
    _conditional_entropies,
    _neg_sum_plog2q,
    _sum_in_order,
    clamp_nonneg,
)


class TestEntropy:
    def test_fair_binary_is_one_bit(self):
        assert entropy(make_distribution(["h", "t"], [0.5, 0.5])) == 1.0

    def test_degenerate_is_zero(self):
        # +0.0: the kernel negates a sum of zeros, which must not read -0.0.
        h = entropy(make_distribution(["h", "t"], [1.0, 0.0]))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_one_point_support_is_exactly_zero(self):
        # A marginal summed from one nonzero row can miss 1 by a rounding
        # step; H = 0 follows from the support, while a tiny second mass counts.
        assert entropy(make_distribution(["h", "t"], [0.0, 1 - 2**-53])) == 0.0
        assert entropy(make_distribution(["h", "t"], [1e-15, 1 - 1e-15])) > 0.0

    def test_biased_matches_frozen_oracle(self):
        h = entropy(make_distribution(["h", "t"], [0.9, 0.1]))
        assert h == pytest.approx(oracles.FROZEN_HB_09, abs=1e-14)
        assert h == pytest.approx(oracles.binary_entropy(0.9), abs=1e-14)


class TestConditionalEntropy:
    def test_independent_equals_marginal_entropy(self):
        joint = JointSystem(("h", "t"), ("h", "t"), [[0.25, 0.25], [0.25, 0.25]])
        assert conditional_entropy(joint) == 1.0

    def test_identity_channel_is_zero(self):
        joint = JointSystem(("h", "t"), ("h", "t"), [[0.5, 0.0], [0.0, 0.5]])
        assert conditional_entropy(joint) == 0.0

    def test_fair_coin_accuracy_09(self):
        joint = JointSystem(("h", "t"), ("h", "t"), [[0.45, 0.05], [0.05, 0.45]])
        value = conditional_entropy(joint)
        assert value == pytest.approx(oracles.binary_entropy(0.9), abs=1e-12)
        assert value == pytest.approx(
            oracles.conditional_entropy([[0.45, 0.05], [0.05, 0.45]]), abs=1e-14
        )

    def test_zero_probability_signal_contributes_nothing(self):
        joint = JointSystem(("a", "b"), ("u", "v", "w"), [[0.5, 0.0, 0.1], [0.3, 0.0, 0.1]])
        assert conditional_entropy(joint) == pytest.approx(
            oracles.conditional_entropy([[0.5, 0.0, 0.1], [0.3, 0.0, 0.1]]), abs=1e-14
        )


class TestMutualInformation:
    def test_independent_is_zero(self):
        joint = JointSystem(("h", "t"), ("h", "t"), [[0.25, 0.25], [0.25, 0.25]])
        assert mutual_information(joint) == 0.0

    def test_identity_is_full_entropy(self):
        joint = JointSystem(("h", "t"), ("h", "t"), [[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(joint) == 1.0

    def test_accuracy_09(self):
        joint = JointSystem(("h", "t"), ("h", "t"), [[0.45, 0.05], [0.05, 0.45]])
        assert mutual_information(joint) == pytest.approx(
            1.0 - oracles.binary_entropy(0.9), abs=1e-12
        )

    def test_nonnegative_on_random_joints(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n_x, n_y = rng.integers(2, 6), rng.integers(2, 6)
            prior = normalize([f"x{i}" for i in range(n_x)], rng.random(n_x) + 1e-3)
            rows = rng.random((n_x, n_y)) + 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
            chan = Channel(prior.labels, tuple(f"y{j}" for j in range(n_y)), rows)
            assert mutual_information(joint_from_prior_channel(prior, chan)) >= 0.0


class TestClampNonneg:
    def test_cancellation_noise_clamps_to_zero(self):
        assert clamp_nonneg(-1e-13, "gap") == 0.0

    def test_the_tolerance_itself_clamps_to_zero(self):
        assert clamp_nonneg(-CANCEL_TOL, "gap") == 0.0

    def test_a_real_negative_raises(self):
        with pytest.raises(NumericalInconsistency) as excinfo:
            clamp_nonneg(-2e-12, "H(X) - H(X|Y)")
        assert str(excinfo.value) == "H(X) - H(X|Y) = -2e-12 < -1e-12"

    def test_a_stack_clamps_each_value(self):
        clamped = clamp_nonneg(np.array([0.5, -1e-13, -0.0, -CANCEL_TOL, 0.0]), "gap")
        assert clamped.tobytes() == np.array([0.5, 0.0, -0.0, 0.0, 0.0]).tobytes()

    def test_a_stack_names_its_first_real_negative(self):
        with pytest.raises(NumericalInconsistency) as excinfo:
            clamp_nonneg(np.array([[0.5, -1e-13], [-3e-12, -5e-12]]), "gap")
        assert str(excinfo.value) == "gap = -3e-12 < -1e-12"


class TestCrossEntropy:
    def test_equal_distributions_give_entropy(self):
        p = make_distribution(["h", "t"], [0.5, 0.5])
        assert cross_entropy(p, p) == 1.0

    def test_mispriced_frozen_oracle(self):
        p = make_distribution(["h", "t"], [0.5, 0.5])
        q = make_distribution(["h", "t"], [0.05, 0.95])
        value = cross_entropy(p, q)
        assert value == pytest.approx(oracles.FROZEN_HQ_005, abs=1e-14)
        assert value == pytest.approx(
            oracles.cross_entropy([0.5, 0.5], [0.05, 0.95]), abs=1e-14
        )

    def test_point_mass_is_positive_zero(self):
        p = make_distribution(["h", "t"], [1.0, 0.0])
        assert math.copysign(1.0, cross_entropy(p, [1.0, 0.0])) == 1.0

    def test_unsupported_outcome(self):
        p = make_distribution(["h", "t"], [1.0, 0.0])
        q = make_distribution(["h", "t"], [0.0, 1.0])
        with pytest.raises(UnsupportedOutcome):
            cross_entropy(p, q)

    def test_label_mismatch(self):
        p = make_distribution(["h", "t"], [0.5, 0.5])
        q = make_distribution(["a", "b"], [0.5, 0.5])
        with pytest.raises(LabelMismatch):
            cross_entropy(p, q)

    def test_fair_coin_fair_quote(self):
        p = make_distribution(["h", "t"], [0.5, 0.5])
        assert cross_entropy(p, [0.5, 0.5]) == 1.0

    def test_zero_quote_on_zero_probability_outcome(self):
        p = make_distribution(["h", "t"], [1.0, 0.0])
        assert cross_entropy(p, [1.0, 0.0]) == 0.0
        assert cross_entropy(p, p) == 0.0

    def test_bitwise_equal_to_entropy_when_q_is_p(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = rng.integers(2, 6)
            p = normalize([f"x{i}" for i in range(n)], rng.random(n) + 1e-3)
            assert cross_entropy(p, p) == entropy(p)


def masked_neg_sum_plog2q(p, q):
    """Reference kernel: gather the p > 0 cells, scatter their terms into zeros."""
    mask = p > 0.0
    terms = np.zeros_like(p)
    terms[mask] = p[mask] * np.log2(q[mask])
    return -np.sum(terms, axis=-1)


# Zeros of both signs and subnormals beside ordinary probabilities.
kernel_cells = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def kernel_inputs(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=9))
    p = draw(hnp.arrays(np.float64, shape, elements=kernel_cells))
    q = draw(hnp.arrays(np.float64, shape, elements=kernel_cells))
    return p, q


class TestKernel:
    @given(kernel_inputs())
    @settings(max_examples=300)
    def test_bitwise_equal_to_masked_reference(self, pq):
        p, q = pq
        with np.errstate(divide="ignore"):
            expected = masked_neg_sum_plog2q(p, q)
            got = _neg_sum_plog2q(p, q)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_zero_quote_on_support_stays_infinite(self):
        p = np.array([[0.5, 0.5], [-0.0, 1.0], [5e-324, 1.0]])
        q = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        with np.errstate(divide="ignore"):
            got = _neg_sum_plog2q(p, q)
        # sum p log2 q is -inf where a supported cell is quoted at 0; a cell
        # with p = -0.0 contributes +0.0, whatever its quote.
        assert (-got).tolist() == [-np.inf, 0.0, -np.inf]


def left_fold(terms):
    """terms[0] + terms[1] + ..., one Python addition at a time from +0.0."""
    total = 0.0
    for term in terms:
        total = total + term
    return np.asarray(total)


def summands():
    """Seeded 1-D and 2-D arrays of 1 to 64 terms over 16 decades, and all -0.0 ones."""
    rng = np.random.default_rng(35)
    arrays = [np.full(3, -0.0)]
    for n in range(1, 65):
        for shape in [(n,), (n, 3)]:
            terms = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
            if len(shape) == 2:
                terms[:, 1] = -0.0
            arrays.append(terms)
    return arrays


class TestSumInOrder:
    def test_bitwise_equal_to_a_left_fold(self):
        arrays = summands()
        for terms in arrays:
            got = np.asarray(_sum_in_order(terms))
            assert got.shape == terms.shape[1:] and got.tobytes() == left_fold(terms).tobytes()
        # A pairwise sum gives other bits on this data, so np.sum would fail above.
        assert any((np.add.reduce(terms, axis=0) + 0.0).tobytes() != left_fold(terms).tobytes()
                   for terms in arrays)

    def test_conditional_entropies_add_signals_in_order(self):
        rng = np.random.default_rng(36)
        stack = rng.dirichlet(np.full(4 * 12, 0.5), size=50).reshape(50, 4, 12)
        stack[0, :, 3] = 0.0  # a signal that never occurs
        # The H(X|Y) of one signal's column is that signal's term, p(y) H(X|Y=y).
        terms = np.stack([_conditional_entropies(stack[..., [y]]) for y in range(12)], axis=-1)
        expected = np.array([left_fold(row) for row in terms])
        assert _conditional_entropies(stack).tobytes() == expected.tobytes()
        for joint, h in zip(stack, expected):
            assert np.asarray(_conditional_entropies(joint)).tobytes() == h.tobytes()
        assert (np.add.reduce(terms, axis=-1) + 0.0).tobytes() != expected.tobytes()
