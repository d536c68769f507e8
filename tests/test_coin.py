import numpy as np
import pytest

import oracles
from infoeff import (
    CoinGameParams,
    DomainViolation,
    closed_form_efficiency_fair,
    closed_form_efficiency_unfair_quotes,
    closed_form_entropy,
    closed_form_quote_entropy,
    coin_joint,
    efficiency,
    efficiency_with_quotes,
    entropy,
    marginal_outcome,
    sweep,
)

GRID_21 = np.linspace(1.0 / 22.0, 21.0 / 22.0, 21)


class TestParams:
    def test_quotes_derived(self):
        params = CoinGameParams(0.5, 0.9, 0.2)
        assert params.alpha_tail == pytest.approx(5.0)
        assert params.alpha_head == pytest.approx(1.25)
        assert params.alpha_head == pytest.approx(
            params.alpha_tail / (params.alpha_tail - 1.0)
        )
        assert params.alpha_head > 1.0 and params.alpha_tail > 1.0

    @pytest.mark.parametrize(
        "args",
        [(-0.1, 0.5, 0.5), (1.1, 0.5, 0.5), (0.5, -0.1, 0.5), (0.5, 1.5, 0.5),
         (0.5, 0.5, 0.0), (0.5, 0.5, 1.0)],
    )
    def test_domain_violations(self, args):
        with pytest.raises(DomainViolation):
            CoinGameParams(*args)


class TestCoinJoint:
    def test_fair_predictable(self):
        joint, quotes = coin_joint(CoinGameParams(0.5, 0.9, 0.5))
        assert np.allclose(joint.joint, [[0.45, 0.05], [0.05, 0.45]], atol=1e-15)
        assert quotes.probs.tolist() == [0.5, 0.5]

    def test_fully_fair_unpredictable(self):
        joint, _ = coin_joint(CoinGameParams(0.5, 0.5, 0.5))
        assert np.allclose(joint.joint, 0.25, atol=1e-15)

    def test_biased_independent(self):
        joint, quotes = coin_joint(CoinGameParams(0.9, 0.5, 0.9))
        marg = marginal_outcome(joint)
        assert marg.probs == pytest.approx([0.1, 0.9], abs=1e-15)
        assert quotes.probs == pytest.approx([0.1, 0.9], abs=1e-15)


class TestClosedForms:
    def test_efficiency_fair_endpoints_and_peak(self):
        assert closed_form_efficiency_fair(0.5) == 1.0
        assert closed_form_efficiency_fair(0.0) == 0.0
        assert closed_form_efficiency_fair(1.0) == 0.0

    def test_efficiency_fair_055_frozen(self):
        assert closed_form_efficiency_fair(0.55) == pytest.approx(
            oracles.FROZEN_HB_055, abs=1e-14
        )

    def test_efficiency_fair_symmetry(self):
        for a in np.linspace(0.0, 1.0, 101):
            assert closed_form_efficiency_fair(float(a)) == pytest.approx(
                closed_form_efficiency_fair(float(1.0 - a)), abs=1e-12
            )

    def test_entropy_endpoints_peak_and_frozen(self):
        assert closed_form_entropy(0.5) == 1.0
        assert closed_form_entropy(0.0) == 0.0
        assert closed_form_entropy(1.0) == 0.0
        assert closed_form_entropy(0.9) == pytest.approx(oracles.FROZEN_HB_09, abs=1e-14)

    def test_unfair_quotes_frozen(self):
        assert closed_form_efficiency_unfair_quotes(0.5) == 1.0
        assert closed_form_efficiency_unfair_quotes(0.05) == pytest.approx(
            oracles.FROZEN_EFFQ_005, abs=1e-13
        )
        assert closed_form_efficiency_unfair_quotes(0.005) == pytest.approx(
            oracles.FROZEN_EFFQ_0005, abs=1e-13
        )

    def test_quote_entropy_frozen_and_symmetry(self):
        assert closed_form_quote_entropy(0.5) == 1.0
        assert closed_form_quote_entropy(0.05) == pytest.approx(
            oracles.FROZEN_HQ_005, abs=1e-13
        )
        assert closed_form_quote_entropy(0.95) == pytest.approx(
            closed_form_quote_entropy(0.05), abs=1e-12
        )
        for q in np.linspace(0.01, 0.99, 99):
            assert closed_form_quote_entropy(float(q)) == pytest.approx(
                closed_form_quote_entropy(float(1.0 - q)), abs=1e-12
            )

    @pytest.mark.parametrize("func", [closed_form_quote_entropy, closed_form_efficiency_unfair_quotes])
    def test_open_domain_rejected(self, func):
        with pytest.raises(DomainViolation):
            func(0.0)
        with pytest.raises(DomainViolation):
            func(1.0)


class TestConsistencyWithGeneralPipeline:
    def test_entropy_slice_full_grid(self):
        for p_tail in GRID_21:
            joint, _ = coin_joint(CoinGameParams(float(p_tail), 0.7, 0.3))
            assert abs(
                closed_form_entropy(float(p_tail)) - entropy(marginal_outcome(joint))
            ) < 1e-10

    def test_fair_coin_efficiency_slice(self):
        for accuracy in GRID_21:
            joint, _ = coin_joint(CoinGameParams(0.5, float(accuracy), 0.5))
            assert abs(
                closed_form_efficiency_fair(float(accuracy)) - efficiency(joint).eff
            ) < 1e-10

    def test_unpredictable_quote_slices(self):
        for q_tail in GRID_21:
            joint, quotes = coin_joint(CoinGameParams(0.5, 0.5, float(q_tail)))
            report = efficiency_with_quotes(joint, quotes)
            assert abs(
                closed_form_efficiency_unfair_quotes(float(q_tail)) - report.eff_q
            ) < 1e-10
            assert abs(closed_form_quote_entropy(float(q_tail)) - report.h_q) < 1e-10

    def test_fair_quotes_unpredictable_is_exactly_one(self):
        # efficiency is independent of the coin's fairness when the signal is
        # worthless and the quotes match the true probabilities
        for p_tail in GRID_21:
            joint, _ = coin_joint(CoinGameParams(float(p_tail), 0.5, 0.5))
            quotes = marginal_outcome(joint)
            report = efficiency_with_quotes(joint, quotes)
            assert report.eff_q == 1.0


class TestSweep:
    def test_five_point_grid_frozen(self):
        table = sweep("eff_vs_accuracy", points=5)
        params = [row[0] for row in table]
        values = [row[1] for row in table]
        assert params == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-15)
        assert values == pytest.approx(
            [0.0, oracles.FROZEN_HB_025, 1.0, oracles.FROZEN_HB_025, 0.0], abs=1e-12
        )

    def test_entropy_endpoints_zero(self):
        table = sweep("entropy_vs_ptail", points=11)
        assert table[0] == (0.0, 0.0)
        assert table[-1] == (1.0, 0.0)

    def test_eff_vs_q_peak_at_half(self):
        table = sweep("eff_vs_q", points=1001)
        by_value = max(table, key=lambda row: row[1])
        assert by_value[0] == pytest.approx(0.5, abs=1e-12)
        assert by_value[1] == pytest.approx(1.0, abs=1e-12)

    def test_open_domain_excludes_endpoints_by_default(self):
        table = sweep("hq_vs_q", points=1001)
        params = [row[0] for row in table]
        assert 0.0 not in params and 1.0 not in params
        assert len(params) == 999

    def test_open_domain_needs_an_interior_point(self):
        for curve_id, func in (
            ("eff_vs_q", closed_form_efficiency_unfair_quotes),
            ("hq_vs_q", closed_form_quote_entropy),
        ):
            with pytest.raises(DomainViolation, match="at least 3 points, got 2"):
                sweep(curve_id, points=2)
            assert sweep(curve_id, points=3) == [(0.5, func(0.5))]
        assert [x for x, _ in sweep("eff_vs_accuracy", points=2)] == [0.0, 1.0]

    def test_unknown_curve(self):
        with pytest.raises(DomainViolation):
            sweep("nope")

    def test_default_grid_size(self):
        assert len(sweep("eff_vs_accuracy")) == 1001
