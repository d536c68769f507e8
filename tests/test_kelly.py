import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from infoeff import kelly
from infoeff import (
    Channel,
    CoinGameParams,
    Distribution,
    DomainViolation,
    LabelMismatch,
    MarketParams,
    SumNotOne,
    UnsupportedAlphabet,
    UnsupportedOutcome,
    ZeroProbabilitySignal,
    bayes_posterior,
    coin_components,
    cross_entropy,
    expected_log2_growth,
    grid_search_optimal,
    kelly_growth_target,
    kelly_strategy,
    make_distribution,
    normalize,
    simulate,
)


def coin_market(p_tail: float, accuracy: float, q_tail: float) -> MarketParams:
    return MarketParams(*coin_components(CoinGameParams(p_tail, accuracy, q_tail)))


def random_binary_market(rng) -> MarketParams:
    p = float(rng.uniform(0.15, 0.85))
    a = float(rng.uniform(0.55, 0.92))
    b = float(rng.uniform(0.55, 0.92))
    q = float(rng.uniform(0.08, 0.92))
    prior = make_distribution(("h", "t"), (1.0 - p, p))
    channel = Channel(("h", "t"), ("h", "t"), [[a, 1.0 - a], [1.0 - b, b]])
    quotes = make_distribution(("h", "t"), (1.0 - q, q))
    return MarketParams(prior, channel, quotes)


class TestMarketParams:
    def test_label_checks(self):
        prior = make_distribution(("h", "t"), (0.5, 0.5))
        chan = Channel(("a", "b"), ("u", "v"), [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(LabelMismatch) as excinfo:
            MarketParams(prior, chan, prior)
        assert str(excinfo.value) == "channel inputs ('a', 'b') != prior labels ('h', 't')"

    def test_zero_quote_on_supported_outcome(self):
        prior = make_distribution(("h", "t"), (0.5, 0.5))
        chan = Channel(("h", "t"), ("h", "t"), [[0.5, 0.5], [0.5, 0.5]])
        quotes = make_distribution(("h", "t"), (1.0, 0.0))
        with pytest.raises(UnsupportedOutcome) as excinfo:
            MarketParams(prior, chan, quotes)
        assert str(excinfo.value) == (
            "q(x) = 0 for an outcome with p(x) > 0: cross-entropy is infinite"
        )

    def test_quote_checks_match_cross_entropy(self):
        prior = make_distribution(("h", "t"), (0.5, 0.5))
        chan = Channel(("h", "t"), ("h", "t"), [[0.5, 0.5], [0.5, 0.5]])
        for quotes, error in [
            (make_distribution(("a", "b"), (0.5, 0.5)), LabelMismatch),
            (make_distribution(("h", "t"), (1.0, 0.0)), UnsupportedOutcome),
        ]:
            with pytest.raises(error) as expected:
                cross_entropy(prior, quotes)
            with pytest.raises(error) as excinfo:
                MarketParams(prior, chan, quotes)
            assert str(excinfo.value) == str(expected.value)

    def test_raw_quotes_run_as_their_distribution(self):
        prior = make_distribution(("h", "t"), (0.5, 0.5))
        chan = Channel(("h", "t"), ("u", "v"), [[0.8, 0.2], [0.3, 0.7]])
        raw = MarketParams(prior, chan, [0.6, 0.4])
        market = MarketParams(prior, chan, make_distribution(("h", "t"), (0.6, 0.4)))
        assert isinstance(raw.quotes, Distribution)
        assert raw.quotes.labels == prior.labels
        strat = kelly_strategy(prior, chan)
        assert repr(simulate(raw, strat, rounds=5000, seed=3)) == repr(
            simulate(market, strat, rounds=5000, seed=3)
        )
        raw_strat, raw_total = grid_search_optimal(raw, 1000)
        grid_strat, total = grid_search_optimal(market, 1000)
        assert repr(raw_total) == repr(total)
        assert raw_strat.rows.tobytes() == grid_strat.rows.tobytes()

    def test_joint_is_prior_times_channel_bit_for_bit(self):
        market = random_binary_market(np.random.default_rng(5))
        expected = market.prior.probs[:, None] * market.channel.rows
        assert market.joint.joint.tobytes() == expected.tobytes()
        assert market.joint.outcome_labels == market.prior.labels
        assert market.joint.signal_labels == market.channel.output_labels

    def test_joint_outside_sum_tolerance_rejected_at_construction(self):
        # Prior and rows each sum to 1 + 9e-10, inside the 1e-9 tolerance;
        # their product sums to 1 + 1.8e-9, outside it.
        eps = 9e-10
        prior = make_distribution(("h", "t"), (0.5, 0.5 + eps))
        chan = Channel(("h", "t"), ("h", "t"), [[0.9, 0.1 + eps], [0.2, 0.8 + eps]])
        with pytest.raises(SumNotOne, match="joint sums to"):
            MarketParams(prior, chan, prior)


class TestKellyStrategy:
    def test_posterior_betting(self):
        market = coin_market(0.5, 0.9, 0.5)
        strat = kelly_strategy(market.prior, market.channel)
        assert strat.row_distribution("h").probs == pytest.approx([0.9, 0.1], abs=1e-15)
        assert strat.row_distribution("t").probs == pytest.approx([0.1, 0.9], abs=1e-15)

    def test_uninformative_signal_bets_the_prior(self):
        market = coin_market(0.3, 0.5, 0.5)
        strat = kelly_strategy(market.prior, market.channel)
        for y in ("h", "t"):
            assert strat.row_distribution(y).probs == pytest.approx(
                market.prior.probs, abs=1e-15
            )

    def test_identity_channel_all_in(self):
        prior = make_distribution(("h", "t"), (0.5, 0.5))
        chan = Channel(("h", "t"), ("h", "t"), [[1.0, 0.0], [0.0, 1.0]])
        strat = kelly_strategy(prior, chan)
        assert strat.row_distribution("h").probs.tolist() == [1.0, 0.0]
        assert strat.row_distribution("t").probs.tolist() == [0.0, 1.0]

    def test_zero_probability_signal_propagates(self):
        prior = make_distribution(("h", "t"), (1.0, 0.0))
        chan = Channel(("h", "t"), ("h", "t"), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ZeroProbabilitySignal):
            kelly_strategy(prior, chan)


def signal_market() -> MarketParams:
    """A binary market whose signal labels differ from its outcome labels."""
    prior = make_distribution(("h", "t"), (0.4, 0.6))
    chan = Channel(("h", "t"), ("u", "v", "w"), [[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
    return MarketParams(prior, chan, make_distribution(("h", "t"), (0.3, 0.7)))


class TestStrategyContract:
    def test_kelly_strategy_maps_signals_to_outcomes(self):
        for market in (signal_market(), three_by_four_market()):
            strat = kelly_strategy(market.prior, market.channel)
            assert isinstance(strat, Channel)
            assert strat.input_labels == market.channel.output_labels
            assert strat.output_labels == market.prior.labels

    def test_grid_search_strategy_maps_signals_to_outcomes(self):
        market = signal_market()
        strat, _ = grid_search_optimal(market, 100)
        assert isinstance(strat, Channel)
        assert strat.input_labels == market.channel.output_labels
        assert strat.output_labels == market.prior.labels

    @pytest.mark.parametrize(
        "strategy, message",
        [
            (Channel(("v", "u", "w"), ("h", "t"), [[0.5, 0.5]] * 3),
             "strategy signals ('v', 'u', 'w') != signal labels ('u', 'v', 'w')"),
            (Channel(("u", "v"), ("h", "t"), [[0.5, 0.5]] * 2),
             "strategy signals ('u', 'v') != signal labels ('u', 'v', 'w')"),
            (Channel(("u", "v", "w"), ("a", "b"), [[0.5, 0.5]] * 3),
             "strategy outcomes ('a', 'b') != outcome labels ('h', 't')"),
        ],
        ids=["reordered_signals", "missing_signal", "foreign_outcomes"],
    )
    @pytest.mark.parametrize(
        "run",
        [
            lambda market, strategy: simulate(market, strategy, rounds=10, seed=0),
            expected_log2_growth,
        ],
        ids=["simulate", "expected_log2_growth"],
    )
    def test_alphabet_mismatch(self, run, strategy, message):
        with pytest.raises(LabelMismatch) as excinfo:
            run(signal_market(), strategy)
        assert str(excinfo.value) == message


class TestSimulate:
    def test_growth_matches_closed_form(self):
        market = coin_market(0.5, 0.9, 0.5)
        strat = kelly_strategy(market.prior, market.channel)
        result = simulate(market, strat, rounds=10**6, seed=7)
        assert abs(result.mean_growth - oracles.FROZEN_GMAX_09) < 0.01
        assert result.bankrupt_round is None

    def test_efficient_market_no_profit(self):
        market = coin_market(0.5, 0.5, 0.5)
        strat = kelly_strategy(market.prior, market.channel)
        result = simulate(market, strat, rounds=10**5, seed=3)
        assert abs(result.mean_growth) < 0.005

    def test_mispricing_profit_without_predictability(self):
        market = coin_market(0.5, 0.5, 0.95)  # quotes [0.05, 0.95]
        strat = kelly_strategy(market.prior, market.channel)
        result = simulate(market, strat, rounds=10**6, seed=11)
        assert abs(result.mean_growth - oracles.FROZEN_GMAXQ_005) < 0.01

    def test_deterministic_bit_for_bit(self):
        market = coin_market(0.5, 0.8, 0.4)
        strat = kelly_strategy(market.prior, market.channel)
        a = simulate(market, strat, rounds=5000, seed=42, trajectory_points=50)
        b = simulate(market, strat, rounds=5000, seed=42, trajectory_points=50)
        assert a == b
        c = simulate(market, strat, rounds=5000, seed=43)
        assert c.final_log2_wealth != a.final_log2_wealth

    def test_run_index_gives_independent_streams(self):
        market = coin_market(0.5, 0.8, 0.5)
        strat = kelly_strategy(market.prior, market.channel)
        a = simulate(market, strat, rounds=5000, seed=42, run_index=0)
        b = simulate(market, strat, rounds=5000, seed=42, run_index=1)
        assert a.final_log2_wealth != b.final_log2_wealth

    def test_mean_growth_is_final_over_rounds(self):
        market = coin_market(0.5, 0.7, 0.5)
        strat = kelly_strategy(market.prior, market.channel)
        result = simulate(market, strat, rounds=999, seed=1)
        assert result.mean_growth == result.final_log2_wealth / 999

    def test_bankruptcy_reported_not_raised(self):
        market = coin_market(0.5, 0.5, 0.5)
        strat = Channel(("h", "t"), ("h", "t"), [[1.0, 0.0], [1.0, 0.0]])
        result = simulate(market, strat, rounds=200, seed=0)
        assert result.bankrupt_round is not None
        assert result.final_log2_wealth == float("-inf")
        assert result.mean_growth == float("-inf")

    def test_no_bankruptcy_with_strictly_positive_allocations(self):
        market = coin_market(0.2, 0.75, 0.6)
        strat = kelly_strategy(market.prior, market.channel)
        result = simulate(market, strat, rounds=20000, seed=5)
        assert result.bankrupt_round is None
        assert np.isfinite(result.final_log2_wealth)

    def test_trajectory_sample(self):
        market = coin_market(0.5, 0.9, 0.5)
        strat = kelly_strategy(market.prior, market.channel)
        result = simulate(market, strat, rounds=1000, seed=2, trajectory_points=10)
        rounds = [r for r, _ in result.trajectory_sample]
        assert rounds == sorted(rounds)
        assert rounds[-1] == 1000
        assert result.trajectory_sample[-1][1] == result.final_log2_wealth

    @given(st.integers(1, 20000).flatmap(lambda rounds: st.tuples(
        st.just(rounds), st.integers(1, rounds))))
    @example((kelly.SIM_CHUNK_ROUNDS + 1, kelly.SIM_CHUNK_ROUNDS + 1))
    @example((20000, 19999))  # a step just above 1, where truncation could repeat a round
    def test_trajectory_rounds_strictly_increase(self, rounds_points):
        rounds, points = rounds_points
        market = coin_market(0.5, 0.9, 0.4)
        strat = kelly_strategy(market.prior, market.channel)
        result = simulate(market, strat, rounds, seed=1, trajectory_points=points)
        sampled = [r for r, _ in result.trajectory_sample]
        assert len(sampled) == points
        assert sampled[0] == 1 and sampled[-1] == (rounds if points > 1 else 1)
        assert all(a < b for a, b in zip(sampled, sampled[1:]))

    @pytest.mark.parametrize("chunk", [7, 1000, 2**14])
    def test_trajectory_is_a_prefix_of_its_run(self, monkeypatch, chunk):
        # Each sample is the final value of the run cut at its round, bit for
        # bit, and sampling changes nothing about the run itself.
        monkeypatch.setattr(kelly, "SIM_CHUNK_ROUNDS", chunk)
        rng = np.random.default_rng(chunk)
        for _ in range(50):
            market, strat = sparse_market_and_strategy(rng)
            rounds = int(rng.integers(1, 40001 if chunk > 7 else 1001))
            points = int(rng.integers(1, 31))
            seed, run_index = (int(n) for n in rng.integers(0, 100, size=2))
            sampled = simulate(market, strat, rounds, seed, run_index, trajectory_points=points)
            plain = simulate(market, strat, rounds, seed, run_index)
            assert (sampled.final_log2_wealth.hex(), sampled.bankrupt_round) == (
                plain.final_log2_wealth.hex(), plain.bankrupt_round)
            for r, value in sampled.trajectory_sample:
                prefix = simulate(market, strat, r, seed, run_index).final_log2_wealth
                assert value.hex() == prefix.hex(), (r, rounds, points)

    @pytest.mark.parametrize("points", [0, -3])
    def test_no_trajectory_at_nonpositive_points(self, points):
        market = coin_market(0.5, 0.9, 0.4)
        strat = kelly_strategy(market.prior, market.channel)
        result = simulate(market, strat, rounds=40000, seed=2, trajectory_points=points)
        sampled = simulate(market, strat, rounds=40000, seed=2, trajectory_points=5)
        assert result.trajectory_sample is None
        assert result.final_log2_wealth.hex() == sampled.final_log2_wealth.hex()

    def test_rounds_validation(self):
        market = coin_market(0.5, 0.9, 0.5)
        strat = kelly_strategy(market.prior, market.channel)
        with pytest.raises(DomainViolation):
            simulate(market, strat, rounds=0, seed=0)

    def test_convergence_with_more_rounds(self):
        market = coin_market(0.5, 0.9, 0.5)
        strat = kelly_strategy(market.prior, market.channel)
        target = oracles.FROZEN_GMAX_09
        errors_small, errors_large = [], []
        for seed in range(30):
            errors_small.append(
                abs(simulate(market, strat, 10**5, seed).mean_growth - target)
            )
            errors_large.append(
                abs(simulate(market, strat, 9 * 10**5, seed).mean_growth - target)
            )
        assert np.median(errors_large) < np.median(errors_small)


def sparse_market_and_strategy(rng) -> tuple[MarketParams, Channel]:
    """A random market with zero cells, and a strategy that stakes 0 on some outcomes."""
    n_x, n_y = (int(n) for n in rng.integers(1, 5, size=2))
    xs, ys = tuple(f"x{i}" for i in range(n_x)), tuple(f"y{j}" for j in range(n_y))

    def rows(n, m):
        r = rng.random((n, m)) * (rng.random((n, m)) < 0.7)
        r[np.arange(n), rng.integers(m, size=n)] += 0.1  # no row is all zeros
        return r / r.sum(axis=1, keepdims=True)

    prior = normalize(xs, rows(1, n_x)[0])
    market = MarketParams(prior, Channel(xs, ys, rows(n_x, n_y)), normalize(xs, rng.random(n_x) + 0.05))
    return market, Channel(ys, xs, rows(n_y, n_x))


def three_by_four_market() -> MarketParams:
    prior = make_distribution(("a", "b", "c"), (0.5, 0.3, 0.2))
    channel = Channel(
        prior.labels,
        ("w", "x", "y", "z"),
        [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]],
    )
    quotes = make_distribution(prior.labels, (0.4, 0.4, 0.2))
    return MarketParams(prior, channel, quotes)


def golden_runs():
    """(name, simulate thunk) pairs whose results are pinned byte for byte."""
    market = three_by_four_market()
    strat = kelly_strategy(market.prior, market.channel)
    rare_tail = coin_market(0.05, 0.5, 0.5)
    reckless = Channel(("h", "t"), ("h", "t"), [[1.0, 0.0], [1.0, 0.0]])
    return [
        ("3x4", lambda: simulate(
            market, strat, rounds=20011, seed=13, run_index=2, trajectory_points=6
        )),
        ("bankrupt", lambda: simulate(
            rare_tail, reckless, rounds=1000, seed=12, trajectory_points=5
        )),
    ]


# Byte-exact golden results: any change here is a behavioral change and
# must be deliberate.
GOLDEN_SIMULATE_REPR = {
    "3x4": (
        "SimulationResult(rounds=20011, seed=13, run_index=2, "
        "final_log2_wealth=2922.5148832378736, mean_growth=0.14604541918134395, "
        "trajectory_sample=((1, 0.4474589769712213), (4003, 606.061422939752), "
        "(8005, 1173.2956419204168), (12007, 1802.1536662923634), "
        "(16009, 2279.7628659325637), (20011, 2922.5148832378736)), "
        "bankrupt_round=None)"
    ),
    "bankrupt": (
        "SimulationResult(rounds=1000, seed=12, run_index=0, "
        "final_log2_wealth=-inf, mean_growth=-inf, "
        "trajectory_sample=((1, 1.0), (250, -inf), (500, -inf), (750, -inf), "
        "(1000, -inf)), bankrupt_round=56)"
    ),
}


class TestGoldenSimulate:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SIMULATE_REPR))
    def test_repr_bytes(self, name):
        run = dict(golden_runs())[name]
        assert repr(run()) == GOLDEN_SIMULATE_REPR[name]

    @pytest.mark.parametrize("chunk", [1, 7, 4096, 10**6])
    def test_independent_of_chunk_size(self, monkeypatch, chunk):
        # Chunk size 1 and 7 put the ruin at round 56 in a later chunk, and
        # 10**6 runs every pinned simulation as a single chunk.
        monkeypatch.setattr(kelly, "SIM_CHUNK_ROUNDS", chunk)
        for name, run in golden_runs():
            assert repr(run()) == GOLDEN_SIMULATE_REPR[name]

    def test_memory_does_not_grow_with_rounds(self):
        market = coin_market(0.5, 0.9, 0.4)
        strat = kelly_strategy(market.prior, market.channel)
        simulate(market, strat, rounds=100, seed=1)
        peaks = []
        for rounds in (10**6, 2 * 10**6):
            tracemalloc.start()
            try:
                simulate(market, strat, rounds=rounds, seed=1, trajectory_points=500)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # One chunk of per-round arrays is about 1 MB; a whole-run array of
        # 2e6 doubles alone would be 16 MB.
        assert peaks[1] < 4 * 2**20
        assert peaks[1] < peaks[0] + 2**18



def zero_prior_market() -> MarketParams:
    """An outcome of zero prior and quote, and channel cells that are zero."""
    prior = make_distribution(("a", "b", "c"), (0.6, 0.0, 0.4))
    channel = Channel(
        prior.labels, ("u", "v", "w"), [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.0, 0.25, 0.75]]
    )
    return MarketParams(prior, channel, make_distribution(prior.labels, (0.5, 0.0, 0.5)))


def draw_contract_cases():
    """name -> (market, strategy, rounds, seed, run_index), checked against the oracle."""
    three_by_four, zero_prior = three_by_four_market(), zero_prior_market()
    reckless = Channel(("h", "t"), ("h", "t"), [[1.0, 0.0], [1.0, 0.0]])
    return {
        "3x4": (three_by_four, kelly_strategy(three_by_four.prior, three_by_four.channel),
                20011, 13, 2),
        "reckless": (coin_market(0.05, 0.5, 0.5), reckless, 1000, 12, 0),
        "zero_prior": (zero_prior, kelly_strategy(zero_prior.prior, zero_prior.channel),
                       20011, 3, 1),
        "one_round": (three_by_four, kelly_strategy(three_by_four.prior, three_by_four.channel),
                      1, 13, 2),
    }


DRAW_CASES = list(draw_contract_cases())


def oracle_args(market, strat, rounds, seed, run_index):
    """The arguments of the oracle's seeded run, as plain lists."""
    prior = market.prior.probs.tolist()
    joint = [[p * c for c in row] for p, row in zip(prior, market.channel.rows.tolist())]
    return (joint, strat.rows.tolist(), market.quotes.probs.tolist(), prior,
            rounds, seed, run_index)


class TestDrawContract:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("chunk", [1, 7, kelly.SIM_CHUNK_ROUNDS])
    @pytest.mark.parametrize("name", DRAW_CASES)
    def test_matches_seeded_run_oracle(self, monkeypatch, name, chunk):
        case = draw_contract_cases()[name]
        monkeypatch.setattr(kelly, "SIM_CHUNK_ROUNDS", chunk)
        result = simulate(*case)
        expected = oracles.seeded_kelly_run(*oracle_args(*case))
        assert (result.final_log2_wealth, result.bankrupt_round) == expected

    @pytest.mark.parametrize("name", DRAW_CASES)
    def test_error_is_within_cells_ulps_of_the_exact_sum(self, name):
        # Each cell's product and each addition rounds once, so a run's error
        # is bounded by the number of cells, not of rounds.
        case = draw_contract_cases()[name]
        pay, cells = oracles.seeded_kelly_draw(*oracle_args(*case))
        exact = math.fsum(pay[cells].tolist())
        counts = np.bincount(cells, minlength=pay.size).tolist()
        size = math.fsum(abs(n * p) for n, p in zip(counts, pay.tolist()) if n)
        final = simulate(*case).final_log2_wealth
        assert final == exact or abs(final - exact) <= pay.size * math.ulp(size)


class TestExpectedGrowth:
    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            market = random_binary_market(rng)
            strat = kelly_strategy(market.prior, market.channel)
            joint = (market.prior.probs[:, None] * market.channel.rows).tolist()
            allocs = [
                strat.row_distribution(y).probs.tolist()
                for y in market.channel.output_labels
            ]
            alphas = (1.0 / market.quotes.probs).tolist()
            assert expected_log2_growth(market, strat) == pytest.approx(
                oracles.expected_growth(joint, alphas, allocs), abs=1e-12
            )

    def test_zero_stake_gives_minus_inf(self):
        market = coin_market(0.5, 0.5, 0.5)
        strat = Channel(("h", "t"), ("h", "t"), [[1.0, 0.0], [1.0, 0.0]])
        assert expected_log2_growth(market, strat) == float("-inf")

    def test_zero_cells_under_zero_stakes_add_nothing(self):
        # The sure coin's Kelly strategy stakes 0 exactly where the joint is 0.
        market = coin_market(0.5, 1.0, 0.5)
        strat = kelly_strategy(market.prior, market.channel)
        assert expected_log2_growth(market, strat) == 1.0

    def test_kelly_attains_closed_form(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            market = random_binary_market(rng)
            strat = kelly_strategy(market.prior, market.channel)
            assert expected_log2_growth(market, strat) == pytest.approx(
                kelly_growth_target(market), abs=1e-12
            )

    def test_no_strategy_beats_kelly(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            market = random_binary_market(rng)
            kelly = kelly_strategy(market.prior, market.channel)
            bound = expected_log2_growth(market, kelly)
            for _ in range(50):
                perturbed = []
                for y in market.channel.output_labels:
                    w = kelly.row_distribution(y).probs + rng.uniform(0.0, 0.35, 2)
                    perturbed.append(normalize(("h", "t"), w).probs)
                rival = expected_log2_growth(
                    market, Channel(kelly.input_labels, kelly.output_labels, perturbed)
                )
                assert rival <= bound + 1e-12


def grid_search_reference(market: MarketParams, resolution: int):
    """Per-signal loop over the fraction grid: the search written plainly."""
    fractions = np.linspace(0.0, 1.0, resolution + 1)
    with np.errstate(divide="ignore"):
        log2_f = np.log2(fractions)
        log2_1mf = np.log2(1.0 - fractions)
    log2_alpha = -np.log2(market.quotes.probs)
    joint = market.joint.joint
    total = 0.0
    allocations = {}
    for j, y in enumerate(market.channel.output_labels):
        p0, p1 = float(joint[0, j]), float(joint[1, j])
        value = np.zeros_like(fractions)
        if p0 > 0.0:
            value += p0 * (log2_f + log2_alpha[0])
        if p1 > 0.0:
            value += p1 * (log2_1mf + log2_alpha[1])
        best = int(np.argmax(value))
        f = float(fractions[best])
        allocations[y] = np.array([f, 1.0 - f])
        total += float(value[best])
    return allocations, total


def markets_with_zero_cells():
    """Binary markets whose joints hold zero cells, rows or whole signal columns."""
    for p_tail in (0.0, 0.3, 0.5, 1.0):
        for accuracy in (0.0, 0.2, 0.5, 0.9, 1.0):
            for q_tail in (0.05, 0.4, 0.5):
                yield coin_market(p_tail, accuracy, q_tail)
    prior = make_distribution(("h", "t"), (0.6, 0.4))
    quotes = make_distribution(("h", "t"), (0.3, 0.7))
    for rows in (
        [[0.7, 0.0, 0.3], [0.0, 0.0, 1.0]],
        [[0.0, 1.0, 0.0], [0.25, 0.5, 0.25]],
        [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]],
    ):
        yield MarketParams(prior, Channel(("h", "t"), ("u", "v", "w"), rows), quotes)


class TestGridSearch:
    def test_requires_binary_alphabet(self):
        prior = normalize(("a", "b", "c"), (1.0, 1.0, 1.0))
        chan = Channel(prior.labels, ("u", "v"), [[0.5, 0.5]] * 3)
        quotes = prior
        with pytest.raises(UnsupportedAlphabet):
            grid_search_optimal(MarketParams(prior, chan, quotes), 1000)

    def test_resolution_minimum(self):
        market = coin_market(0.5, 0.9, 0.5)
        with pytest.raises(DomainViolation):
            grid_search_optimal(market, 99)

    def test_fair_coin_accuracy_09(self):
        market = coin_market(0.5, 0.9, 0.5)
        strat, value = grid_search_optimal(market, 1000)
        assert value == pytest.approx(oracles.FROZEN_GMAX_09, abs=2e-3)
        assert strat.row_distribution("h").probs == pytest.approx([0.9, 0.1], abs=2e-3)

    def test_uninformative_signal_fair_quotes(self):
        market = coin_market(0.5, 0.5, 0.5)
        strat, value = grid_search_optimal(market, 1000)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert strat.row_distribution("h").probs == pytest.approx([0.5, 0.5], abs=1e-3)

    def test_mispriced_unpredictable(self):
        market = coin_market(0.5, 0.5, 0.95)
        _, value = grid_search_optimal(market, 1000)
        assert value == pytest.approx(oracles.FROZEN_GMAXQ_005, abs=2e-3)

    def test_matches_closed_forms_on_random_cases(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            market = random_binary_market(rng)
            resolution = 500
            strat, value = grid_search_optimal(market, resolution)
            assert abs(value - kelly_growth_target(market)) < 2.0 / resolution
            kelly = kelly_strategy(market.prior, market.channel)
            for y in market.channel.output_labels:
                deviation = np.max(
                    np.abs(strat.row_distribution(y).probs - kelly.row_distribution(y).probs)
                )
                assert deviation < 2.0 / resolution

    @pytest.mark.parametrize("resolution", [100, 777, 1000])
    def test_bitwise_equal_to_per_signal_reference(self, resolution):
        for market in markets_with_zero_cells():
            strat, total = grid_search_optimal(market, resolution)
            allocations, expected = grid_search_reference(market, resolution)
            assert repr(total) == repr(expected)
            assert list(strat.input_labels) == list(allocations)
            for y, probs in allocations.items():
                assert strat.row_distribution(y).labels == market.prior.labels
                assert strat.row_distribution(y).probs.tobytes() == probs.tobytes()


def random_market(rng, n_outcomes: int, n_signals: int) -> MarketParams:
    """A market with dense random prior and channel rows over the given alphabets."""
    prior = normalize([f"x{i}" for i in range(n_outcomes)], rng.random(n_outcomes) + 1e-3)
    rows = rng.random((n_outcomes, n_signals)) * 10.0 ** rng.uniform(-3, 0, (n_outcomes, 1))
    rows /= rows.sum(axis=1, keepdims=True)
    channel = Channel(prior.labels, tuple(f"y{j}" for j in range(n_signals)), rows)
    return MarketParams(prior, channel, prior)


def posterior_oracle_markets():
    rng = np.random.default_rng(2024)
    markets = {"coin": coin_market(0.3, 0.8, 0.4), "3x4": three_by_four_market()}
    for n_outcomes in (9, 17):
        for k in range(5):
            markets[f"{n_outcomes}x{k + 2}"] = random_market(rng, n_outcomes, k + 2)
    return markets


class TestPosteriorOracle:
    """The one Bayes rule, pinned bit for bit to a library-free oracle."""

    @pytest.mark.parametrize(
        "market", [pytest.param(m, id=name) for name, m in posterior_oracle_markets().items()]
    )
    def test_rows_equal_oracle_bit_for_bit(self, market):
        prior, channel = market.prior, market.channel
        expected = oracles.bayes_rows(prior.probs, channel.rows)
        strat = kelly_strategy(prior, channel)
        for j, signal in enumerate(channel.output_labels):
            assert strat.rows[j].tobytes() == expected[j].tobytes()
            posterior = bayes_posterior(prior, channel, signal)
            assert posterior.probs.tobytes() == expected[j].tobytes()

    @staticmethod
    def dead_signal_system():
        # Signals 'v' and 'w' are reachable only from outcome 'c', which has
        # prior probability 0.
        prior = make_distribution(("a", "b", "c"), (0.25, 0.75, 0.0))
        channel = Channel(
            prior.labels,
            ("u", "v", "w", "z"),
            [[0.5, 0.0, 0.0, 0.5], [0.2, 0.0, 0.0, 0.8], [0.0, 0.5, 0.5, 0.0]],
        )
        return prior, channel

    def test_dead_signal_raises_naming_it(self):
        prior, channel = self.dead_signal_system()
        for signal in ("v", "w"):
            with pytest.raises(ZeroProbabilitySignal) as excinfo:
                bayes_posterior(prior, channel, signal)
            assert str(excinfo.value) == f"signal {signal!r} has marginal probability 0"
        with pytest.raises(ZeroProbabilitySignal) as excinfo:
            kelly_strategy(prior, channel)
        assert str(excinfo.value) == "signal 'v' has marginal probability 0"

    def test_live_signal_beside_dead_one(self):
        prior, channel = self.dead_signal_system()
        expected = oracles.bayes_rows(prior.probs, channel.rows)
        assert expected[1] is None and expected[2] is None
        for j, signal in ((0, "u"), (3, "z")):
            posterior = bayes_posterior(prior, channel, signal)
            assert posterior.probs.tobytes() == expected[j].tobytes()
