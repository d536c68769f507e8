import importlib
import io
import os
import random
import re
import subprocess
import sys
import threading
import warnings

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
    NumericalInconsistency,
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
        # The error points at the first line that holds the label. A
        # directive after the header cannot widen the alphabet: it is an
        # error at its own line, after the records before it were read.
        for text, line, column, reason in [
            ("# outcomes: h,t\nsignal,outcome\ns,x\n", 3, 2,
             "outcome 'x' not in declared alphabet"),
            ("signal,outcome\na,h\nb,x\nc,h\nb,x\n# outcomes: h,t\n", 6, 1,
             "'outcomes' directive after the header"),
            ("signal,outcome\na,h\nb,h\na,x\n# outcomes: h,t\n# signals: a\n", 5, 1,
             "'outcomes' directive after the header"),
        ]:
            with pytest.raises(ParseError) as err:
                read_samples(sample_csv(text))
            assert (err.value.line, err.value.column, err.value.reason) == (line, column, reason)

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


def parsed(text: str):
    """read_samples' result in the terms of oracles.parse_samples."""
    try:
        samples = read_samples(sample_csv(text))
    except ParseError as err:
        return ("ParseError", err.line, err.column)
    except EmptyInput as err:
        return ("EmptyInput", int(re.search(r"\(line (\d+)\)", str(err)).group(1)), None)
    table = samples.counts()
    counts = {
        (signal, outcome): int(table[i, j])
        for i, outcome in enumerate(samples.outcome_labels)
        for j, signal in enumerate(samples.signal_labels)
        if table[i, j]
    }
    return counts, samples.signal_labels, samples.outcome_labels


def random_sample_text(rng: random.Random) -> str:
    def line():
        roll = rng.random()
        if roll < 0.08:
            return rng.choice(["", "  ", "# note", "#"])
        if roll < 0.14:
            key, pool = rng.choice([("signals", ["a", " b", "c", "d"]),
                                    (" Outcomes ", ["h", "t", "u"])])
            labels = rng.sample(pool, rng.randint(2, len(pool)))
            return f"#{key}:" + ",".join(labels + [""] * (rng.random() < 0.1))
        if roll < 0.17:
            return rng.choice(["signal,outcome", "a,h,t", ",h", "a,", "a"])
        return f"{rng.choice(['a', 'b', ' a', 'c '])},{rng.choice(['h', 't', 'h '])}"

    head = rng.sample(["", "# note", "# signals: a,b,c,d", "#outcomes: t,h,u"], rng.randint(0, 2))
    headers = ["signal,outcome"] * 8 + ["signal,result", "signal", " signal , outcome "]
    head.append(rng.choice(headers))
    body = [line() for _ in range(rng.randint(0, 20))]
    return "".join(text + rng.choice(["\n", "\r\n"]) for text in head + body)


GOOD = ["a,h", "b,t", "a,t", "b,h", "a,h"] * 3
PARSER_CASES = [
    "signal,outcome\nsignal,outcome\nh,t\n",  # a second header line is a record
    # A directive after the header is an error at its line, whatever it declares.
    "# signals: b,a\nsignal,outcome\na,h\n# signals: a\nb,h\n# signals: a,b,c\n",
    "# signals: a,b\nsignal,outcome\na,h\n# signals: b,a\nb,h\n# signals: a,b\nb,h\n",
    "signal,outcome\na,h\n#outcomes: h,t\na,t\n# Outcomes : t,h\na,h\n#outcomes: h,t\n",
    "signal,outcome\na,h\n a ,h\na, h\n\ta,h \na,h\n",  # whitespace variants of one cell
    "signal,outcome\r\na,h\r\n\r\nb,t\r\n   \r\na,h\nb,t\r\n",  # CRLF and blank lines
    "# comment\nsignal,outcome\n\n# no records\n\n",  # EmptyInput names the last line
    "signal,outcome\n",
    "signal,outcome\n" + "a,h\n" * 9 + "c,h\n" + "a,h\n" * 9 + "# signals: a\n",
    "# signals: a,a\nsignal,outcome\na,h\n",  # a repeated label is a parse error
    "signal,outcome\na,h\n# outcomes: h,h\na,t\n",  # also after the header
    "# signals: a\nsignal,outcome\na,h\nz,h\na,h,t\n",  # met before a later syntax error
    "# signals: c,a\n# outcomes: t,h\nsignal,outcome\na,h\na,t\n",  # wider, in their order
    "# outcomes: h,t\n# signals: a\n#Outcomes: h\nsignal,outcome\na,h\n",  # one of each kind
] + [
    # A bad line at every position, so it is the first or the last line of a
    # chunk for each chunk size tested.
    "signal,outcome\n" + "\n".join(GOOD[:pos] + [bad] + GOOD[pos:]) + "\n"
    for bad in ("a,h,t", "a,", ",h", "# signals: a,")
    for pos in range(len(GOOD) + 1)
]


class TestReadSamplesAgainstOracle:
    @pytest.mark.parametrize("chunk_lines", [1, 2, 7, estimation.CHUNK_LINES])
    def test_matches_line_by_line_reference(self, chunk_lines, monkeypatch):
        monkeypatch.setattr(estimation, "CHUNK_LINES", chunk_lines)
        rng = random.Random(20)
        texts = PARSER_CASES + [random_sample_text(rng) for _ in range(400)]
        for text in texts:
            assert parsed(text) == oracles.parse_samples(sample_csv(text)), text

    def test_reference_cases_hit_each_outcome(self):
        results = [oracles.parse_samples(sample_csv(text)) for text in PARSER_CASES]
        assert results[0][0] == {("signal", "outcome"): 1, ("h", "t"): 1}
        assert results[1:4] == [("ParseError", 4, 1), ("ParseError", 4, 1), ("ParseError", 3, 1)]
        assert results[4][0] == {("a", "h"): 5}
        assert results[5][0] == {("a", "h"): 2, ("b", "t"): 2}
        assert results[6:9] == [("EmptyInput", 5, None), ("EmptyInput", 1, None),
                                ("ParseError", 21, 1)]
        assert results[9:12] == [("ParseError", 1, 1), ("ParseError", 3, 1), ("ParseError", 4, 1)]
        assert results[12] == ({("a", "h"): 1, ("a", "t"): 1}, ("c", "a"), ("t", "h"))
        assert results[13] == ("ParseError", 3, 1)


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

    def test_counts_totalling_more_than_maxsize_rejected(self):
        # 2^63 - 1024 is the largest double at most sys.maxsize = 2^63 - 1,
        # so it is the largest total whose len() Python can return.
        largest = SampleSet([[2.0**62, 2.0**62 - 1024], [0, 0]], ("a", "b"), ("x", "y"))
        assert len(largest) == 2**63 - 1024
        assert estimate_joint(largest, 0.0).joint[0, 0] == 2**62 / (2**63 - 1024)
        for table in ([[2.0**62, 2.0**62], [0, 0]], [[1e19, 1], [1, 1e19]]):
            with pytest.raises(DomainViolation, match="more than 9223372036854775807 records"):
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

    def test_smoothing_that_overflows_the_denominator_rejected(self):
        samples = counts_sample_set([[1, 2], [3, 4]], ("a", "b"), ("x", "y"))
        # 4 * 4e307 is finite, so the joint is uniform; 4 * 5e307 is inf.
        assert np.all(estimate_joint(samples, smoothing=4e307).joint == 0.25)
        with pytest.raises(DomainViolation, match="smoothing"):
            estimate_joint(samples, smoothing=5e307)

    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    def test_each_table_of_a_stack_is_divided_by_its_own_total(self, smoothing):
        # Totals 8 and 4: a stack smoothed by one shared N would get one slice wrong.
        tables = np.array([[[3.0, 1.0], [0.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]]])
        stack = estimation._smoothed_joint(tables, smoothing)
        for table, joint in zip(tables, stack):
            assert joint.tobytes() == estimation._smoothed_joint(table, smoothing).tobytes()
            assert abs(joint.sum() - 1.0) <= 1e-12


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

    @pytest.mark.parametrize("block_cells", [1, 7 * 4, estimation.BLOCK_CELLS])
    def test_bootstrap_prefix_of_a_longer_run(self, monkeypatch, block_cells):
        samples = draw_records(FAIR_PRIOR, ACC_09, 2000, seed=4)
        counts = samples.counts()
        assert counts.size == 4
        q = np.array([0.3, 0.7])
        monkeypatch.setattr(estimation, "BLOCK_CELLS", block_cells)
        short = estimation._bootstrap(counts, 0.5, q, 200, 9)
        long = estimation._bootstrap(counts, 0.5, q, 300, 9)
        for a, b in zip(short, long):
            assert a.tobytes() == b[:200].tobytes()

    def test_resamples_follow_the_report_rules(self):
        # 25 records per cell at smoothing 0: resamples 135, 546 and 626 are
        # independent tables, where H(X|Y) can exceed H(X) by a rounding
        # step. The predictability gap clamps to 0 there, so Eff reads 1.0.
        effs, effs_q = estimation._bootstrap(
            np.full((2, 2), 25.0), 0.0, np.array([0.5, 0.5]), 1000, 1
        )
        assert np.nanmax(effs) <= 1.0
        assert [effs[i] for i in (135, 546, 626)] == [1.0, 1.0, 1.0]
        finite = np.isfinite(effs) & np.isfinite(effs_q)
        assert np.all(effs_q[finite] <= effs[finite])

    def test_single_outcome_resamples_are_undefined(self):
        # At smoothing 0 a resample that draws one outcome only has H(X) = 0,
        # though its marginal may sum to 1 - 2^-53: all 331 such resamples of
        # these 7 records are NaN (71 of them read Eff 0.0 while H(X) was
        # 1.6e-16), and the 90 zeros are resamples that draw both outcomes.
        effs, _ = estimation._bootstrap(np.array([[1.0, 0, 0], [2, 3, 1]]), 0.0, None, 1000, 3)
        assert (np.isnan(effs).sum(), (effs == 0.0).sum()) == (331, 90)

    def test_percentile_ci_without_a_finite_resample_is_the_point(self):
        assert estimation._percentile_ci(np.full(100, np.nan), 0.75) == (0.75, 0.75)

    def test_quote_fields(self):
        samples = draw_records(FAIR_PRIOR, INDEPENDENT, 5000, seed=5)
        quotes = make_distribution(samples.outcome_labels, (0.05, 0.95))
        report = estimate_efficiency(samples, quotes=quotes, resamples=200, seed=5)
        assert report.point.eff_q == pytest.approx(oracles.FROZEN_EFFQ_005, abs=0.05)
        assert report.eff_q_ci_low <= report.point.eff_q <= report.eff_q_ci_high

    def test_quotes_checked_once(self, monkeypatch):
        # One quote check on one outcome marginal serves the point report and
        # the bootstrap, through whichever module calls them.
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for module in (estimation, importlib.import_module("infoeff.efficiency")):
            for name in ("marginal_outcome", "_quotes"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        samples = draw_records(FAIR_PRIOR, ACC_09, 200, seed=7)
        estimate_efficiency(samples, quotes=[0.4, 0.6], resamples=100, seed=7)
        assert calls == ["marginal_outcome", "_quotes"]

    def test_degenerate_marginal(self):
        samples = SampleSet([[2]], ("s",), ("h",))
        with pytest.raises(DegenerateSystem):
            estimate_efficiency(samples, resamples=100, seed=0)

    def test_degenerate_marginal_with_quotes(self):
        # Eff_q is defined (H(q) = 1), but Eff = H(X|Y)/H(X) is 0/0.
        samples = SampleSet([[2, 1], [0, 0]], ("a", "b"), ("h", "t"))
        with pytest.raises(DegenerateSystem) as excinfo:
            estimate_efficiency(samples, smoothing=0.0, quotes=[0.5, 0.5], resamples=100)
        assert str(excinfo.value) == "estimated outcome marginal has zero entropy"

    def test_small_sample_flag_and_warning(self):
        samples = draw_records(FAIR_PRIOR, ACC_09, 20, seed=6)
        with pytest.warns(UserWarning, match="samples"):
            report = estimate_efficiency(samples, resamples=100, seed=6)
        assert report.small_sample
        big = draw_records(FAIR_PRIOR, ACC_09, 2000, seed=6)
        assert not estimate_efficiency(big, resamples=100, seed=6).small_sample

    @pytest.mark.parametrize("table, small", [([[15, 5], [5, 15]], False),
                                              ([[15, 5], [5, 14]], True)], ids=["40", "39"])
    def test_small_sample_boundary_is_ten_records_per_cell(self, table, small):
        # N = 10·cells = 40 is the smallest N on 2x2 that is not flagged.
        samples = SampleSet(table, ("a", "b"), ("h", "t"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = estimate_efficiency(samples, resamples=100, seed=0)
        assert report.small_sample is small
        message = (f"only {len(samples)} samples for 4 cells; "
                   "plug-in efficiency biases low at small N")
        assert [str(w.message) for w in caught] == ([message] if small else [])

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


class TestBootstrapStreams:
    """Resample r comes from the PCG64 stream jumped r // STREAM_RESAMPLES times."""

    COUNTS = draw_records(FAIR_PRIOR, ACC_09, 2000, seed=4).counts()
    Q = np.array([0.3, 0.7])

    def run(self, resamples):
        return estimation._bootstrap(self.COUNTS, 0.5, self.Q, resamples, 9)

    @pytest.mark.parametrize("block_cells", [1, 7 * 4, 2**16])
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_independent_of_threads_and_block_size(self, monkeypatch, workers, block_cells):
        # 2500 resamples: three streams, the last one partial.
        whole = self.run(2500)
        monkeypatch.setattr(estimation, "WORKERS", workers)
        monkeypatch.setattr(estimation, "BLOCK_CELLS", block_cells)
        for a, b in zip(self.run(2500), whole):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("resamples, workers, started",
                             [(1000, 2, 0), (1001, 5, 1), (2500, 2, 1), (2500, 5, 2)])
    def test_one_thread_per_stream_at_most(self, monkeypatch, resamples, workers, started):
        # The caller's thread draws too, so min(streams, WORKERS) - 1 start.
        class Counted(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        threads = []
        monkeypatch.setattr(threading, "Thread", Counted)
        monkeypatch.setattr(estimation, "WORKERS", workers)
        self.run(resamples)
        assert len(threads) == started

    def test_every_stream_drawn_under_fast_thread_switching(self, monkeypatch):
        # 300 streams of 7 resamples on 8 threads, switching every 1 µs: a
        # stream that no thread drew would leave its rows as np.empty left them.
        monkeypatch.setattr(estimation, "STREAM_RESAMPLES", 7)
        monkeypatch.setattr(estimation, "WORKERS", 1)
        whole = self.run(2100)
        monkeypatch.setattr(estimation, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = self.run(2100)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(shared, whole):
            assert a.tobytes() == b.tobytes()

    def test_prefix_of_a_longer_run(self):
        for a, b in zip(self.run(1500), self.run(2500)):
            assert a.tobytes() == b[:1500].tobytes()

    @pytest.mark.parametrize("stream, size", [(0, 1000), (1, 1000), (2, 500)])
    def test_each_stream_is_its_jumped_generator(self, stream, size):
        n, shape = int(self.COUNTS.sum()), self.COUNTS.shape
        rng = np.random.Generator(np.random.PCG64(9).jumped(stream))
        draws = rng.multinomial(n, (self.COUNTS / n).ravel(), size=size).astype(float)
        fields = estimation._fields(estimation._smoothed_joint(draws.reshape(-1, *shape), 0.5),
                                    self.Q)
        rows = slice(1000 * stream, 1000 * stream + size)
        effs, effs_q = self.run(2500)
        assert effs[rows].tobytes() == fields["eff"].tobytes()
        assert effs_q[rows].tobytes() == fields["eff_q"].tobytes()

    def test_a_failing_stream_reaches_the_caller(self, monkeypatch):
        # One block per stream, so the only 500-row block is stream 2's.
        def fields(joints, q):
            if len(joints) == 500:
                raise NumericalInconsistency("stream 2")
            return scored(joints, q)

        scored = estimation._fields
        monkeypatch.setattr(estimation, "_fields", fields)
        monkeypatch.setattr(estimation, "WORKERS", 2)
        samples = SampleSet(self.COUNTS, ("a", "b"), ("h", "t"))
        threads = threading.active_count()
        with pytest.raises(NumericalInconsistency, match="stream 2"):
            estimate_efficiency(samples, resamples=2500, seed=9)
        assert threading.active_count() == threads

    def test_an_interrupt_stops_every_stream(self, monkeypatch):
        # The caller's thread is interrupted in its first block, once the
        # other thread holds a stream; that thread ends its block and starts
        # no other stream.
        def fields(joints, q):
            if threading.current_thread() is threading.main_thread():
                drawing.wait(10)
                interrupted.set()
                raise KeyboardInterrupt
            drawing.set()
            interrupted.wait(10)
            blocks.append(len(joints))
            return scored(joints, q)

        scored, blocks = estimation._fields, []
        drawing, interrupted = threading.Event(), threading.Event()
        monkeypatch.setattr(estimation, "_fields", fields)
        monkeypatch.setattr(estimation, "WORKERS", 2)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            self.run(5000)
        assert threading.active_count() == threads
        assert blocks == [1000]

    @pytest.mark.parametrize("method", ["start", "join"])
    def test_a_thread_that_cannot_start_or_join_is_still_joined(self, monkeypatch, method):
        # The other thread is still drawing when the caller first joins it,
        # and the failure reaches the caller only once that thread has ended.
        class Failing(threading.Thread):
            def start(self):
                super().start()
                if method == "start":
                    raise RuntimeError(method)

            def join(self, timeout=None):
                if not joined.is_set():
                    joined.set()
                    if method == "join":
                        raise RuntimeError(method)
                super().join(timeout)

        def fields(joints, q):
            if threading.current_thread() is threading.main_thread():
                drawing.wait(10)
            else:
                drawing.set()
                joined.wait(10)
            return scored(joints, q)

        scored, drawing, joined = estimation._fields, threading.Event(), threading.Event()
        monkeypatch.setattr(threading, "Thread", Failing)
        monkeypatch.setattr(estimation, "_fields", fields)
        monkeypatch.setattr(estimation, "WORKERS", 2)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=method):
            self.run(2500)
        assert joined.is_set()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_workers_without_sched_getaffinity(self, cpus, workers):
        # As on macOS and Windows, where os has no sched_getaffinity.
        code = (f"import os; vars(os).pop('sched_getaffinity', None); os.cpu_count = lambda: {cpus}\n"
                f"from infoeff import estimation; assert estimation.WORKERS == {workers}")
        src = os.path.dirname(os.path.dirname(estimation.__file__))
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True)
