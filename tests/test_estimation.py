import io

import numpy as np
import pytest

import oracles
from conftest import draw_records
from infoeff import estimation
from infoeff import (
    Channel,
    DegenerateSystem,
    DomainViolation,
    EmptyInput,
    LabelMismatch,
    ParseError,
    ResamplesBelowMinimum,
    SampleSet,
    efficiency,
    estimate_efficiency,
    estimate_joint,
    make_distribution,
    read_samples,
)


def sample_csv(text: str):
    return io.StringIO(text)


class TestReadSamples:
    def test_single_record(self):
        samples = read_samples(sample_csv("signal,outcome\nh,h\n"))
        assert len(samples) == 1
        assert samples.counts().tolist() == [[1.0]]
        assert samples.signal_labels == ("h",)
        assert samples.outcome_labels == ("h",)

    def test_unknown_column(self):
        with pytest.raises(ParseError) as err:
            read_samples(sample_csv("signal,result\nh,h\n"))
        assert err.value.line == 1
        assert err.value.column == 2

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            read_samples(sample_csv(""))
        assert err.value.line == 1

    def test_no_records_after_header(self):
        with pytest.raises(EmptyInput) as err:
            read_samples(sample_csv("signal,outcome\n"))
        assert "line" in str(err.value)

    def test_alphabets_sorted_when_inferred(self):
        samples = read_samples(sample_csv("signal,outcome\nb,t\na,h\nb,t\nb,h\nb,t\n"))
        assert samples.signal_labels == ("a", "b")
        assert samples.outcome_labels == ("h", "t")
        assert samples.counts().tolist() == [[1.0, 1.0], [0.0, 3.0]]

    def test_directives_declare_alphabets(self):
        text = "# outcomes: h,t\n# signals: hi,lo\nsignal,outcome\nhi,h\n"
        samples = read_samples(sample_csv(text))
        assert samples.outcome_labels == ("h", "t")
        assert samples.signal_labels == ("hi", "lo")

    def test_label_outside_declared_alphabet(self):
        # The error points at the first bad record, also when the directive
        # comes after the records.
        for text, line, column in [
            ("# outcomes: h,t\nsignal,outcome\ns,x\n", 3, 2),
            ("signal,outcome\na,h\nb,x\nc,h\nb,x\n# outcomes: h,t\n", 3, 2),
            ("signal,outcome\na,h\nb,h\na,x\n# outcomes: h,t\n# signals: a\n", 3, 1),
        ]:
            with pytest.raises(ParseError) as err:
                read_samples(sample_csv(text))
            assert (err.value.line, err.value.column) == (line, column)

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\nsignal,outcome\n\nh,t\n# another\nt,h\n"
        assert len(read_samples(sample_csv(text))) == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            read_samples(sample_csv("signal,outcome\nh,t,x\n"))
        assert err.value.line == 2

    def test_empty_label(self):
        with pytest.raises(ParseError):
            read_samples(sample_csv("signal,outcome\nh,\n"))

    def test_large_synthetic_file(self):
        rng = np.random.default_rng(0)
        lines = ["signal,outcome"] + [
            f"{'ht'[rng.integers(2)]},{'ht'[rng.integers(2)]}" for _ in range(100_000)
        ]
        samples = read_samples(sample_csv("\n".join(lines)))
        assert len(samples) == 100_000


def counts_sample_set(counts, signal_labels, outcome_labels) -> SampleSet:
    return SampleSet(counts, tuple(signal_labels), tuple(outcome_labels))


class TestSampleSet:
    @pytest.mark.parametrize(
        ("table", "error"),
        [
            ([[1, 2]], LabelMismatch),
            ([[1], [2]], LabelMismatch),
            ([[1, -1], [1, 1]], DomainViolation),
            ([[1, 0.5], [1, 1]], DomainViolation),
            ([[1, float("nan")], [1, 1]], DomainViolation),
            ([[1, float("inf")], [1, 1]], DomainViolation),
            ([[0, 0], [0, 0]], EmptyInput),
        ],
    )
    def test_invalid_table_rejected(self, table, error):
        with pytest.raises(error):
            SampleSet(table, ("a", "b"), ("x", "y"))

    def test_table_is_frozen(self):
        samples = SampleSet([[1, 2], [3, 4]], ("a", "b"), ("x", "y"))
        assert len(samples) == 10
        with pytest.raises(ValueError):
            samples.counts()[0, 0] = 5.0


class TestEstimateJoint:
    def test_unsmoothed_frequencies(self):
        samples = counts_sample_set([[45, 5], [5, 45]], ("h", "t"), ("h", "t"))
        joint = estimate_joint(samples, smoothing=0.0)
        assert np.allclose(joint.joint, [[0.45, 0.05], [0.05, 0.45]], atol=1e-15)

    def test_additive_smoothing(self):
        samples = counts_sample_set([[1, 0], [0, 0]], ("s0", "s1"), ("x0", "x1"))
        joint = estimate_joint(samples, smoothing=1.0)
        assert np.allclose(joint.joint, [[0.4, 0.2], [0.2, 0.2]], atol=1e-15)

    def test_empty_cell_stays_zero_without_smoothing(self):
        samples = counts_sample_set([[3, 0], [1, 4]], ("s0", "s1"), ("x0", "x1"))
        joint = estimate_joint(samples, smoothing=0.0)
        assert joint.joint[0, 1] == 0.0

    def test_no_zero_cells_with_positive_smoothing(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            counts = rng.integers(0, 4, size=(2, 2))
            if counts.sum() == 0:
                counts[0, 0] = 1
            samples = counts_sample_set(counts.tolist(), ("a", "b"), ("x", "y"))
            joint = estimate_joint(samples, smoothing=0.5)
            assert np.all(joint.joint > 0.0)

    def test_negative_smoothing_rejected(self):
        samples = counts_sample_set([[1, 1], [1, 1]], ("a", "b"), ("x", "y"))
        with pytest.raises(DomainViolation):
            estimate_joint(samples, smoothing=-0.5)


FAIR_PRIOR = make_distribution(("h", "t"), (0.5, 0.5))
ACC_09 = Channel(("h", "t"), ("h", "t"), [[0.9, 0.1], [0.1, 0.9]])
INDEPENDENT = Channel(("h", "t"), ("h", "t"), [[0.5, 0.5], [0.5, 0.5]])


class TestEstimateEfficiency:
    def test_point_recovers_generator_truth(self):
        samples = draw_records(FAIR_PRIOR, ACC_09, 100_000, seed=1)
        report = estimate_efficiency(samples, resamples=200, seed=1)
        assert abs(report.point.eff - oracles.FROZEN_HB_09) < 0.02
        assert report.ci_low <= report.point.eff <= report.ci_high

    def test_independent_generator_hits_the_cap(self):
        samples = draw_records(FAIR_PRIOR, INDEPENDENT, 50_000, seed=2)
        report = estimate_efficiency(samples, resamples=200, seed=2)
        assert abs(report.point.eff - 1.0) < 0.02
        assert report.ci_high <= 1.0

    def test_resamples_below_minimum(self):
        samples = draw_records(FAIR_PRIOR, ACC_09, 10, seed=3)
        with pytest.raises(ResamplesBelowMinimum):
            estimate_efficiency(samples, resamples=50, seed=3)

    def test_bootstrap_deterministic(self):
        samples = draw_records(FAIR_PRIOR, ACC_09, 2000, seed=4)
        a = estimate_efficiency(samples, resamples=300, seed=9)
        b = estimate_efficiency(samples, resamples=300, seed=9)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
        c = estimate_efficiency(samples, resamples=300, seed=10)
        assert (a.ci_low, a.ci_high) != (c.ci_low, c.ci_high)

    def test_bootstrap_independent_of_block_size(self, monkeypatch):
        samples = draw_records(FAIR_PRIOR, ACC_09, 2000, seed=4)
        quotes = make_distribution(samples.outcome_labels, (0.3, 0.7))
        whole = estimate_efficiency(samples, quotes=quotes, resamples=300, seed=9)
        # 1 resample per block, then 7 per block with a partial last block.
        for cells in (1, 7 * samples.counts().size):
            monkeypatch.setattr(estimation, "BLOCK_CELLS", cells)
            assert estimate_efficiency(samples, quotes=quotes, resamples=300, seed=9) == whole

    def test_quote_fields(self):
        samples = draw_records(FAIR_PRIOR, INDEPENDENT, 5000, seed=5)
        quotes = make_distribution(samples.outcome_labels, (0.05, 0.95))
        report = estimate_efficiency(samples, quotes=quotes, resamples=200, seed=5)
        assert report.point.eff_q == pytest.approx(oracles.FROZEN_EFFQ_005, abs=0.05)
        assert report.eff_q_ci_low <= report.point.eff_q <= report.eff_q_ci_high

    def test_degenerate_marginal(self):
        samples = SampleSet([[2]], ("s",), ("h",))
        with pytest.raises(DegenerateSystem):
            estimate_efficiency(samples, resamples=100, seed=0)

    def test_small_sample_flag_and_warning(self):
        samples = draw_records(FAIR_PRIOR, ACC_09, 20, seed=6)
        with pytest.warns(UserWarning, match="samples"):
            report = estimate_efficiency(samples, resamples=100, seed=6)
        assert report.small_sample
        big = draw_records(FAIR_PRIOR, ACC_09, 2000, seed=6)
        assert not estimate_efficiency(big, resamples=100, seed=6).small_sample

    def test_plugin_consistency_as_n_grows(self):
        truth = oracles.binary_entropy(0.9)
        medians = []
        for n in (10**3, 10**4, 10**5):
            errors = []
            for seed in range(20):
                samples = draw_records(FAIR_PRIOR, ACC_09, n, seed=seed)
                eff = efficiency(estimate_joint(samples, smoothing=0.5)).eff
                errors.append(abs(eff - truth))
            medians.append(float(np.median(errors)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_bootstrap_coverage_sanity(self):
        covered = 0
        for seed in range(20):
            samples = draw_records(FAIR_PRIOR, ACC_09, 5000, seed=seed)
            report = estimate_efficiency(samples, resamples=300, seed=seed)
            if report.ci_low <= oracles.binary_entropy(0.9) <= report.ci_high:
                covered += 1
        assert covered >= 16
