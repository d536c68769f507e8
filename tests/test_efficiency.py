from dataclasses import fields

import numpy as np
import pytest

import oracles
from infoeff import (
    Channel,
    DegenerateSystem,
    Distribution,
    EfficiencyReport,
    JointSystem,
    LabelMismatch,
    QuoteSumNotOne,
    UnsupportedOutcome,
    compose_channels,
    efficiency,
    efficiency_with_quotes,
    joint_from_prior_channel,
    normalize,
)
from infoeff.efficiency import _fields

INDEPENDENT_FAIR = JointSystem(("h", "t"), ("h", "t"), [[0.25, 0.25], [0.25, 0.25]])
IDENTITY_FAIR = JointSystem(("h", "t"), ("h", "t"), [[0.5, 0.0], [0.0, 0.5]])
ACCURACY_09 = JointSystem(("h", "t"), ("h", "t"), [[0.45, 0.05], [0.05, 0.45]])


class TestEfficiency:
    def test_independent_is_fully_efficient(self):
        report = efficiency(INDEPENDENT_FAIR)
        assert report.eff == 1.0
        assert report.g_max == 0.0

    def test_identity_channel_is_fully_inefficient(self):
        report = efficiency(IDENTITY_FAIR)
        assert report.eff == 0.0
        assert report.g_max == 1.0

    def test_accuracy_09_frozen(self):
        report = efficiency(ACCURACY_09)
        assert report.eff == pytest.approx(oracles.FROZEN_HB_09, abs=1e-12)
        assert report.g_max == pytest.approx(oracles.FROZEN_GMAX_09, abs=1e-12)
        assert report.predictability_gap == report.g_max

    def test_degenerate_marginal_refused(self):
        joint = JointSystem(("h", "t"), ("h", "t"), [[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(DegenerateSystem):
            efficiency(joint)

    def test_no_quote_fields(self):
        report = efficiency(ACCURACY_09)
        assert report.h_q is None
        assert report.eff_q is None
        assert report.g_max_q is None
        assert report.mispricing_gap is None
        assert "h_q" not in report.as_dict()


class TestEfficiencyWithQuotes:
    def test_fair_everything(self):
        report = efficiency_with_quotes(INDEPENDENT_FAIR, [0.5, 0.5])
        assert report.eff_q == 1.0
        assert report.g_max_q == 0.0
        assert report.mispricing_gap == 0.0

    def test_biased_coin_fair_quotes_unpredictable(self):
        joint = JointSystem(("h", "t"), ("h", "t"), [[0.05, 0.05], [0.45, 0.45]])
        report = efficiency_with_quotes(joint, [0.1, 0.9])
        assert report.eff_q == 1.0

    def test_mispriced_frozen(self):
        report = efficiency_with_quotes(INDEPENDENT_FAIR, [0.05, 0.95])
        assert report.eff_q == pytest.approx(oracles.FROZEN_EFFQ_005, abs=1e-12)
        assert report.h_q == pytest.approx(oracles.FROZEN_HQ_005, abs=1e-12)
        assert report.g_max_q == pytest.approx(oracles.FROZEN_GMAXQ_005, abs=1e-12)

    def test_quote_sum_enforced(self):
        with pytest.raises(QuoteSumNotOne):
            efficiency_with_quotes(INDEPENDENT_FAIR, [0.5, 0.6])

    def test_unsupported_outcome(self):
        with pytest.raises(UnsupportedOutcome):
            efficiency_with_quotes(INDEPENDENT_FAIR, [0.0, 1.0])

    @pytest.mark.parametrize(
        "quotes, message",
        [
            ([0.2, 0.3, 0.5], "2 outcomes but (3,) quotes"),
            (np.array([[0.5, 0.5]]), "2 outcomes but (1, 2) quotes"),
            (Distribution(("t", "h"), [0.4, 0.6]),
             "quote labels ('t', 'h') != outcome labels ('h', 't')"),
        ],
        ids=["three-values", "one-by-two", "reordered-labels"],
    )
    def test_quote_shape_and_labels(self, quotes, message):
        with pytest.raises(LabelMismatch) as excinfo:
            efficiency_with_quotes(INDEPENDENT_FAIR, quotes)
        assert str(excinfo.value) == message

    def test_degenerate_only_when_hq_zero(self):
        # degenerate p with q = p: H(q) = 0 -> refused
        joint = JointSystem(("h", "t"), ("h", "t"), [[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(DegenerateSystem):
            efficiency_with_quotes(joint, [1.0, 0.0])
        # degenerate p but mispriced q: H(q) > 0, eff_q defined, eff absent
        report = efficiency_with_quotes(joint, [0.5, 0.5])
        assert report.eff is None
        assert report.eff_q == 0.0
        assert "eff" not in report.as_dict()

    def test_matches_plain_efficiency_when_quotes_fair(self):
        from infoeff import marginal_outcome

        rng = np.random.default_rng(5)
        for _ in range(50):
            n_x, n_y = rng.integers(2, 5), rng.integers(2, 5)
            prior = normalize([f"x{i}" for i in range(n_x)], rng.random(n_x) + 0.01)
            rows = rng.random((n_x, n_y)) + 0.01
            rows /= rows.sum(axis=1, keepdims=True)
            chan = Channel(prior.labels, tuple(f"y{j}" for j in range(n_y)), rows)
            joint = joint_from_prior_channel(prior, chan)
            plain = efficiency(joint)
            # q equal to the system's true outcome marginal: bit-for-bit match
            quoted = efficiency_with_quotes(joint, marginal_outcome(joint))
            assert quoted.eff_q == plain.eff
            assert quoted.eff == plain.eff
            # q equal to the construction prior (an ulp away from the
            # marginal after row summation): equal to rounding noise
            near = efficiency_with_quotes(joint, prior)
            assert near.eff_q == pytest.approx(plain.eff, abs=1e-12)

    def test_gap_additivity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n_x, n_y = rng.integers(2, 5), rng.integers(2, 5)
            prior = normalize([f"x{i}" for i in range(n_x)], rng.random(n_x) + 0.01)
            q = normalize(prior.labels, rng.random(n_x) + 0.01)
            rows = rng.random((n_x, n_y)) + 0.01
            rows /= rows.sum(axis=1, keepdims=True)
            chan = Channel(prior.labels, tuple(f"y{j}" for j in range(n_y)), rows)
            report = efficiency_with_quotes(joint_from_prior_channel(prior, chan), q)
            assert report.g_max_q == pytest.approx(
                report.predictability_gap + report.mispricing_gap, abs=1e-12
            )
            assert 0.0 <= report.eff_q <= 1.0
            assert report.eff_q <= report.eff + 1e-12

    def test_fair_quotes_below_entropy_by_rounding(self):
        # H(q) = 2.1374242957229248e-05 < H(X) = 2.137424295738942e-05 in
        # rounding only: the mispricing gap clamps to 0 and Eff_q is Eff
        p = normalize(("x0", "x1"), [1e-6, 1.0])
        signals = ("y0", "y1")
        rows = [normalize(signals, [1, 1]).probs, normalize(signals, [1, 0.5]).probs]
        chan = Channel(p.labels, signals, rows)
        report = efficiency_with_quotes(joint_from_prior_channel(p, chan), p)
        assert report.h_q < report.h_x
        assert report.mispricing_gap == 0.0
        assert report.eff_q == report.eff


class TestReportFields:
    def test_report_holds_exactly_the_scored_fields_in_order(self):
        scored = _fields(ACCURACY_09.joint[None], np.array([0.4, 0.6]))[0]
        assert [field.name for field in fields(EfficiencyReport)] == list(scored)
        assert all(isinstance(value, float) for value in scored.values())


class TestRefinementMonotonicity:
    def test_garbling_never_decreases_efficiency(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n_x, n_w, n_y = rng.integers(2, 5), rng.integers(2, 6), rng.integers(2, 4)
            prior = normalize([f"x{i}" for i in range(n_x)], rng.random(n_x) + 0.01)
            fine_rows = rng.random((n_x, n_w)) + 0.01
            fine_rows /= fine_rows.sum(axis=1, keepdims=True)
            fine = Channel(prior.labels, tuple(f"w{j}" for j in range(n_w)), fine_rows)
            garble_rows = rng.random((n_w, n_y)) + 0.01
            garble_rows /= garble_rows.sum(axis=1, keepdims=True)
            garble = Channel(fine.output_labels, tuple(f"y{j}" for j in range(n_y)), garble_rows)
            eff_fine = efficiency(joint_from_prior_channel(prior, fine)).eff
            eff_coarse = efficiency(
                joint_from_prior_channel(prior, compose_channels(fine, garble))
            ).eff
            assert eff_fine <= eff_coarse + 1e-12
            # a deficit visible under the garbled signal persists under the full one
            if eff_coarse < 1.0 - 1e-9:
                assert eff_fine < 1.0
