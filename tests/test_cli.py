import io
import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from infoeff import cli
from infoeff.cli import main
from infoeff.errors import DomainViolation, EmptyInput, ParseError


def write_samples(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def samples_csv(tmp_path):
    path = tmp_path / "samples.csv"
    rows = ["signal,outcome"]
    rows += ["h,h"] * 45 + ["t,h"] * 5 + ["h,t"] * 5 + ["t,t"] * 45
    write_samples(path, rows)
    return path


@pytest.fixture
def quotes_csv(tmp_path):
    path = tmp_path / "quotes.csv"
    write_samples(path, ["label,q", "h,0.5", "t,0.5"])
    return path


class TestMeasure:
    def test_json_report_with_quotes(self, samples_csv, quotes_csv, capsys):
        code = main(
            ["measure", "--in", str(samples_csv), "--quotes", str(quotes_csv),
             "--resamples", "200", "--seed", "1"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eff"] == pytest.approx(oracles.FROZEN_HB_09, abs=0.05)
        assert "eff_q" in report and "h_q" in report
        assert report["n_samples"] == 100
        assert report["ci_low"] <= report["eff"] <= report["ci_high"]

    def test_json_omits_quote_fields_without_quotes(self, samples_csv, capsys):
        assert main(["measure", "--in", str(samples_csv), "--resamples", "200"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "eff_q" not in report and "h_q" not in report

    def test_empty_input_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert main(["measure", "--in", str(empty)]) == 2
        assert "line" in capsys.readouterr().err

    def test_degenerate_exit_3(self, tmp_path, capsys):
        path = tmp_path / "degenerate.csv"
        write_samples(path, ["signal,outcome", "h,h", "t,h", "h,h"])
        assert main(["measure", "--in", str(path)]) == 3
        assert "DegenerateSystem" in capsys.readouterr().err

    def test_degenerate_with_quotes_exit_3(self, tmp_path, quotes_csv, capsys):
        # Quotes make Eff_q defined, but Eff is still 0/0 on a constant outcome.
        path = tmp_path / "constant_outcome.csv"
        write_samples(path, ["# outcomes: h,t", "signal,outcome", "a,h", "b,h", "a,h"])
        args = ["measure", "--in", str(path), "--quotes", str(quotes_csv),
                "--smoothing", "0", "--resamples", "100"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: DegenerateSystem: estimated outcome marginal has zero entropy\n"
        )

    def test_missing_file_exit_4(self, tmp_path, capsys):
        assert main(["measure", "--in", str(tmp_path / "nope.csv")]) == 4
        assert "error" in capsys.readouterr().err

    def test_csv_format_and_out_file(self, samples_csv, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            ["measure", "--in", str(samples_csv), "--resamples", "200",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("eff,") for line in lines)

    def test_bad_quote_sum_exit_3(self, samples_csv, tmp_path, capsys):
        bad = tmp_path / "bad_quotes.csv"
        write_samples(bad, ["label,q", "h,0.5", "t,0.6"])
        assert main(["measure", "--in", str(samples_csv), "--quotes", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: QuoteSumNotOne: quotes sum to 1.1, not 1 within 1e-09 (no-cost constraint)\n"
        )

    def test_quote_values_checked_after_the_run_options(self, samples_csv, tmp_path, capsys):
        # The sidecar's values are checked against the estimated marginal,
        # so a bad sum is reported after --resamples, --seed and --smoothing.
        bad = tmp_path / "bad_quotes.csv"
        write_samples(bad, ["label,q", "h,0.5", "t,0.6"])
        args = ["measure", "--in", str(samples_csv), "--quotes", str(bad)]
        for extra, err in [
            (["--resamples", "50"], "ResamplesBelowMinimum: resamples must be >= 100, got 50"),
            (["--seed", "-1"], "DomainViolation: seed must be nonnegative"),
            (["--smoothing", "-1"],
             "DomainViolation: smoothing must be finite and >= 0, got -1.0"),
        ]:
            assert main(args + extra) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "lines, smoothing, err",
        [
            (["label,q", "h,1.5", "t,-0.5"], "0.5",
             "NegativeWeight: distribution has a negative entry: [1.5, -0.5]"),
            (["label,q", "h,0", "t,1"], "0",
             "UnsupportedOutcome: q(x) = 0 for an outcome with p(x) > 0: "
             "cross-entropy is infinite"),
        ],
        ids=["negative", "zero-on-support"],
    )
    def test_bad_quote_values_exit_3(self, samples_csv, tmp_path, capsys, lines, smoothing, err):
        path = tmp_path / "bad_quotes.csv"
        write_samples(path, lines)
        args = ["measure", "--in", str(samples_csv), "--quotes", str(path),
                "--smoothing", smoothing]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_quote_exit_3(self, samples_csv, tmp_path, capsys, bad):
        path = tmp_path / "bad_quotes.csv"
        write_samples(path, ["label,q", f"h,{bad}", "t,0.5"])
        assert main(["measure", "--in", str(samples_csv), "--quotes", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: QuoteSumNotOne: quotes sum to {bad}, not 1 within 1e-09 (no-cost constraint)\n"
        )

    @pytest.mark.parametrize(
        "lines, code, err",
        [
            (["lab,q", "h,0.5", "t,0.5"], 2,
             "ParseError: line 1, column 1: unknown column 'lab' (expected 'label')"),
            (["label,q", "h,0.5,1", "t,0.5"], 2,
             "ParseError: line 2, column 1: expected 2 fields, got 3"),
            (["label,q", "h,half", "t,0.5"], 2,
             "ParseError: line 2, column 2: not a number: 'half'"),
            (["label,q", "h,0.5", "h,0.5"], 2,
             "ParseError: line 3, column 1: duplicate quote label 'h'"),
            (["# no header here"], 2,
             "ParseError: line 1, column 1: missing header line 'label,q'"),
            (["label,q", "h,1.0"], 3,
             "LabelMismatch: quote labels do not match outcome alphabet: "
             "missing ['t'], extra []"),
            (["label,q", "h,0.5", "t,0.25", "u,0.25"], 3,
             "LabelMismatch: quote labels do not match outcome alphabet: "
             "missing [], extra ['u']"),
            (["label,q", ",0.5", "t,0.5"], 2,
             "ParseError: line 2, column 1: empty label field"),
            (["label,q", "h,0.5", "t,"], 2,
             "ParseError: line 3, column 2: empty q field"),
            (["q,label", "h,0.5", "t,0.5"], 2,
             "ParseError: line 1, column 1: unknown column 'q' (expected 'label')"),
            (["label,x", "h,0.5", "t,0.5"], 2,
             "ParseError: line 1, column 2: unknown column 'x' (expected 'q')"),
            (["label,q,x", "h,0.5", "t,0.5"], 2,
             "ParseError: line 1, column 1: header must have exactly 2 columns"),
            (["# outcomes: h,h", "label,q", "h,0.5", "t,0.5"], 2,
             "ParseError: line 1, column 1: duplicate label 'h' in 'outcomes' directive"),
            (["# outcomes: h,t", "label,q", "h,0.5", "t,0.5"], 2,
             "ParseError: line 1, column 1: 'outcomes' directive in a file headed 'label,q'"),
            (["label,q", "# signals: x,y", "h,0.5", "t,0.5"], 2,
             "ParseError: line 2, column 1: 'signals' directive in a file headed 'label,q'"),
        ],
        ids=["header", "three-fields", "not-a-number", "duplicate", "comment-only",
             "missing-label", "extra-label", "empty-label", "empty-q", "swapped-header",
             "unknown-column", "three-columns", "bad-directive", "directive-before-header",
             "directive-after-header"],
    )
    def test_bad_quote_sidecar(self, samples_csv, tmp_path, capsys, lines, code, err):
        path = tmp_path / "bad_quotes.csv"
        write_samples(path, lines)
        assert main(["measure", "--in", str(samples_csv), "--quotes", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "lines, err",
        [
            (["signal,outcome,x", "h,h"], "line 1, column 1: header must have exactly 2 columns"),
            (["signal,result", "h,h"],
             "line 1, column 2: unknown column 'result' (expected 'outcome')"),
            (["# no header here"], "line 1, column 1: missing header line 'signal,outcome'"),
            (["signal,outcome", ",h"], "line 2, column 1: empty signal field"),
            (["signal,outcome", "h,"], "line 2, column 2: empty outcome field"),
            (["signal,outcome", "h,h,h"], "line 2, column 1: expected 2 fields, got 3"),
        ],
        ids=["three-columns", "unknown-column", "comment-only", "empty-signal",
             "empty-outcome", "three-fields"],
    )
    def test_bad_samples_file(self, tmp_path, capsys, lines, err):
        path = tmp_path / "bad_samples.csv"
        write_samples(path, lines)
        assert main(["measure", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ParseError: {err}\n"

    def test_quote_labels_matched_after_the_whole_sidecar(self, samples_csv, tmp_path, capsys):
        # The extra label 'u' comes first, but labels are matched against the
        # outcome alphabet only once every line has parsed.
        path = tmp_path / "bad_quotes.csv"
        write_samples(path, ["label,q", "u,0.5", "t,abc"])
        assert main(["measure", "--in", str(samples_csv), "--quotes", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: ParseError: line 3, column 2: not a number: 'abc'\n"
        )

    def test_duplicate_directive_label_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        write_samples(path, ["# signals: a,a", "signal,outcome", "a,h", "a,t"])
        assert main(["measure", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: ParseError: line 1, column 1: duplicate label 'a' in 'signals' directive\n"
        )

    def test_undecodable_samples_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad_bytes.csv"
        path.write_bytes(b"signal,outcome\n\xff,h\n")
        assert main(["measure", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ParseError: line 2, column 1: not valid UTF-8: byte 0xff\n"

    def test_undecodable_byte_reported_at_its_line(self, tmp_path, capsys):
        # The decoder reads the file in buffers, so the offset in its own
        # error is into one buffer; the line has to come from the file.
        path = tmp_path / "late_bad_byte.csv"
        path.write_bytes(b"signal,outcome\n" + b"a,h\n" * 10**5 + b"\xff,h\n")
        assert main(["measure", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: ParseError: line 100002, column 1: not valid UTF-8: byte 0xff\n"
        )

    def test_undecodable_byte_reported_in_its_field(self, tmp_path, capsys):
        # A truncated 3-byte sequence in the outcome field, with CRLF lines.
        path = tmp_path / "bad_outcome.csv"
        path.write_bytes(b"signal,outcome\r\nh,h\r\nh,\xe2\x82\r\n")
        assert main(["measure", "--in", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: ParseError: line 3, column 2: not valid UTF-8: byte 0xe2\n"
        )

    def test_undecodable_quote_sidecar_exit_2(self, samples_csv, tmp_path, capsys):
        path = tmp_path / "bad_quotes.csv"
        path.write_bytes(b"label,q\nh,0.5\n\xff,0.5\n")
        assert main(["measure", "--in", str(samples_csv), "--quotes", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ParseError: line 3, column 1: not valid UTF-8: byte 0xff\n"

    @pytest.mark.parametrize(
        "samples, quotes, err",
        [
            (b"signal,outcome\nh\n\xff,h\n", None,
             "line 2, column 1: expected 2 fields, got 1"),
            (None, b"label,q\nh\n\xff,0.5\n",
             "line 2, column 1: expected 2 fields, got 1"),
            (b"# note \xff\nsignal,outcome\nh\nh,h\n", None,
             "line 1, column 1: not valid UTF-8: byte 0xff"),
        ],
        ids=["samples-malformed-line-first", "sidecar-malformed-line-first",
             "byte-in-comment-before-header"],
    )
    def test_first_bad_line_reported_undecodable_or_not(
        self, samples_csv, tmp_path, capsys, samples, quotes, err
    ):
        # An undecodable byte is a parse error on its own line, so it does
        # not hide an earlier malformed line, nor come after a later one.
        if samples is not None:
            samples_csv = tmp_path / "samples_bytes.csv"
            samples_csv.write_bytes(samples)
        args = ["measure", "--in", str(samples_csv)]
        if quotes is not None:
            (tmp_path / "quotes_bytes.csv").write_bytes(quotes)
            args += ["--quotes", str(tmp_path / "quotes_bytes.csv")]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ParseError: {err}\n"

    def test_utf8_bom_accepted(self, samples_csv, quotes_csv, tmp_path, capsys):
        plain = ["measure", "--in", str(samples_csv), "--quotes", str(quotes_csv),
                 "--resamples", "200"]
        assert main(plain) == 0
        expected = capsys.readouterr().out
        for path in (samples_csv, quotes_csv):
            bom = tmp_path / f"bom_{path.name}"
            bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            args = [str(bom) if a == str(path) else a for a in plain]
            assert main(args) == 0
            assert capsys.readouterr().out == expected

    def test_quote_sidecar_skips_blank_and_comment_lines(
        self, samples_csv, quotes_csv, tmp_path, capsys
    ):
        plain = ["measure", "--in", str(samples_csv), "--quotes", str(quotes_csv),
                 "--resamples", "200"]
        assert main(plain) == 0
        expected = capsys.readouterr().out
        path = tmp_path / "commented_quotes.csv"
        write_samples(path, ["label,q", "", "# quoted at the close", "h,0.5", "t,0.5"])
        assert main([str(path) if a == str(quotes_csv) else a for a in plain]) == 0
        assert capsys.readouterr().out == expected

    def test_small_sample_warning_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "small.csv"
        write_samples(path, ["signal,outcome", "h,h", "t,t", "h,t"])
        assert main(["measure", "--in", str(path), "--resamples", "100"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["small_sample"] is True
        assert captured.err == (
            "warning: only 3 samples for 4 cells; plug-in efficiency biases low at small N\n"
        )

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_smoothing_exit_3(self, samples_csv, capsys, bad):
        code = main(["measure", "--in", str(samples_csv), f"--smoothing={bad}"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: DomainViolation: ")
        assert "smoothing" in captured.err and captured.err.count("\n") == 1

    def test_smoothing_that_overflows_exit_3(self, samples_csv, capsys):
        code = main(["measure", "--in", str(samples_csv), "--smoothing", "5e307"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: DomainViolation: ")
        assert "smoothing" in captured.err and captured.err.count("\n") == 1

    def test_memory_error_exit_5(self, samples_csv, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError("cannot allocate")

        monkeypatch.setitem(cli.COMMANDS, "measure", exhausted)
        assert main(["measure", "--in", str(samples_csv)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: MemoryError: cannot allocate\n"


class TestCoin:
    def test_fair_predictable(self, capsys):
        code = main(["coin", "--p-tail", "0.5", "--accuracy", "0.9", "--q-tail", "0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eff"] == pytest.approx(oracles.FROZEN_HB_09, abs=1e-12)
        assert report["consistency_delta"] < 1e-10

    def test_biased_fair_quotes_unpredictable(self, capsys):
        code = main(["coin", "--p-tail", "0.9", "--accuracy", "0.5", "--q-tail", "0.9"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eff_q"] == 1.0

    def test_fair_quotes_eff_q_is_eff(self, capsys):
        # H(q) falls below H(X) here by rounding only
        code = main(["coin", "--p-tail", "1e-06", "--accuracy", "0.9", "--q-tail", "1e-06"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mispricing_gap"] == 0.0
        assert report["eff_q"] == report["eff"]

    def test_mispriced_unpredictable(self, capsys):
        code = main(["coin", "--p-tail", "0.5", "--accuracy", "0.5", "--q-tail", "0.05"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eff_q"] == pytest.approx(oracles.FROZEN_EFFQ_005, abs=1e-12)
        assert report["closed_form_eff_q"] == pytest.approx(report["eff_q"], abs=1e-10)

    def test_domain_violation_exit_3(self, capsys):
        assert main(["coin", "--p-tail", "1.5", "--accuracy", "0.5", "--q-tail", "0.5"]) == 3
        assert "DomainViolation" in capsys.readouterr().err

    def test_empty_info_set_exit_3(self, capsys):
        code = main(
            ["coin", "--p-tail", "0.5", "--accuracy", "0.9", "--q-tail", "0.5", "--info-set", ""]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: DomainViolation: info-set label must be non-empty\n"

    def test_csv_syntax_in_info_set_exit_3(self, capsys):
        code = main(
            ["coin", "--p-tail", "0.5", "--accuracy", "0.9", "--q-tail", "0.5",
             "--format", "csv", "--info-set", "a,b\nx,1"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: DomainViolation: info-set label must not contain a comma, "
            "a double quote, CR or LF, got 'a,b\\nx,1'\n"
        )

    def test_unencodable_report_leaves_no_out_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            ["coin", "--p-tail", "0.5", "--accuracy", "0.9", "--q-tail", "0.5",
             "--format", "csv", "--info-set", "\udcff", "--out", str(out)]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: DomainViolation: info-set label must be valid UTF-8 text, got '\\udcff'\n"
        )
        assert not out.exists()

    # A byte of argv that is not UTF-8 arrives as a lone surrogate; stdout
    # must refuse it as --out does, not pass the raw byte through.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unencodable_info_set_on_stdout_exit_3(self, capsys, fmt):
        code = main(
            ["coin", "--p-tail", "0.5", "--accuracy", "0.9", "--q-tail", "0.5",
             "--format", fmt, "--info-set", "x\udcff"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: DomainViolation: info-set label must be valid UTF-8 text, got 'x\\udcff'\n"
        )

    def test_unexpected_error_exit_1(self, monkeypatch, capsys):
        def broken(config):
            raise RuntimeError("unexpected state")

        monkeypatch.setitem(cli.COMMANDS, "coin", broken)
        assert main(["coin", "--p-tail", "0.5", "--accuracy", "0.9", "--q-tail", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: RuntimeError: unexpected state\n"


    # ParseError is also an InfoEffError and a ValueError, so this pins the
    # order in which the exit-code table is searched, not only its entries.
    @pytest.mark.parametrize(
        "exc, code, err",
        [
            (ParseError(3, 2, "bad"), 2, "ParseError: line 3, column 2: bad"),
            (EmptyInput("no records"), 2, "EmptyInput: no records"),
            (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), 2,
             "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 0: "
             "invalid start byte"),
            (DomainViolation("out of range"), 3, "DomainViolation: out of range"),
            (ValueError("bad value"), 3, "ValueError: bad value"),
            (FileNotFoundError(2, "gone"), 4, "FileNotFoundError: [Errno 2] gone"),
            (MemoryError("cannot allocate"), 5, "MemoryError: cannot allocate"),
            (RuntimeError("unexpected state"), 1, "RuntimeError: unexpected state"),
        ],
        ids=["ParseError", "EmptyInput", "UnicodeDecodeError", "DomainViolation", "ValueError",
             "FileNotFoundError", "MemoryError", "RuntimeError"],
    )
    def test_exit_code_table(self, monkeypatch, capsys, exc, code, err):
        def failing(args):
            raise exc

        monkeypatch.setitem(cli.COMMANDS, "coin", failing)
        assert main(["coin", "--p-tail", "0.5", "--accuracy", "0.9", "--q-tail", "0.5"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"


class TestSimulate:
    def test_matches_target(self, capsys):
        code = main(
            ["simulate", "--accuracy", "0.9", "--rounds", "1000000", "--seed", "7"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["target_bits_per_round"] == pytest.approx(
            oracles.FROZEN_GMAX_09, abs=1e-12
        )
        assert report["run_results"][0]["abs_error"] < 0.01

    def test_efficient_market_near_zero(self, capsys):
        code = main(
            ["simulate", "--accuracy", "0.5", "--rounds", "100000", "--seed", "3"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["aggregate_mean_growth"]) < 0.01

    def test_byte_identical_reruns(self, capsys):
        args = ["simulate", "--accuracy", "0.8", "--rounds", "20000", "--seed", "5",
                "--runs", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_csv_format(self, capsys):
        code = main(
            ["simulate", "--accuracy", "0.9", "--rounds", "5000", "--seed", "2",
             "--runs", "2", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "run_index,rounds,seed,final_log2_wealth,mean_growth,target,abs_error"
        assert len(lines) == 3

    def test_trajectory_out(self, tmp_path, capsys):
        traj = tmp_path / "trajectory.csv"
        code = main(
            ["simulate", "--accuracy", "0.9", "--rounds", "5000", "--seed", "2",
             "--trajectory-out", str(traj), "--trajectory-points", "20"]
        )
        assert code == 0
        lines = traj.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "round,log2_wealth"
        assert len(lines) == 21

    def test_trajectory_with_multiple_runs_rejected(self, tmp_path, capsys):
        code = main(
            ["simulate", "--accuracy", "0.9", "--rounds", "100", "--runs", "2",
             "--trajectory-out", str(tmp_path / "t.csv")]
        )
        assert code == 3

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one_exit_3(self, capsys, runs):
        code = main(["simulate", "--accuracy", "0.9", "--rounds", "100", "--runs", runs])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: DomainViolation: --runs must be >= 1, got {runs}\n"

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_trajectory_points_below_one_exit_3(self, tmp_path, capsys, points):
        traj = tmp_path / "t.csv"
        code = main(
            ["simulate", "--accuracy", "0.9", "--rounds", "100",
             "--trajectory-out", str(traj), "--trajectory-points", points]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: DomainViolation: --trajectory-points must be >= 1, got {points}\n"
        )
        assert not traj.exists()


class TestFigures:
    def test_all_csvs_written(self, tmp_path, capsys):
        code = main(["figures", "--which", "all", "--out-dir", str(tmp_path)])
        assert code == 0
        for n in (1, 2, 3, 4):
            assert (tmp_path / f"fig{n}.csv").exists()

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["figures", "--which", "all", "--out-dir", str(dir_a)]) == 0
        assert main(["figures", "--which", "all", "--out-dir", str(dir_b)]) == 0
        for n in (1, 2, 3, 4):
            assert (dir_a / f"fig{n}.csv").read_bytes() == (dir_b / f"fig{n}.csv").read_bytes()

    def test_fig1_peak(self, tmp_path, capsys):
        assert main(["figures", "--which", "1", "--out-dir", str(tmp_path)]) == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "fig1.csv").read_text().splitlines()[1:]
        ]
        table = [(float(a), float(b)) for a, b in rows]
        best = max(table, key=lambda r: r[1])
        assert best == (0.5, 1.0)

    def test_fig2_endpoints(self, tmp_path, capsys):
        assert main(["figures", "--which", "2", "--out-dir", str(tmp_path)]) == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "fig2.csv").read_text().splitlines()[1:]
        ]
        table = [(float(a), float(b)) for a, b in rows]
        assert table[0] == (0.0, 0.0) and table[-1] == (1.0, 0.0)

    def test_fig4_minimum(self, tmp_path, capsys):
        assert main(["figures", "--which", "4", "--out-dir", str(tmp_path)]) == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "fig4.csv").read_text().splitlines()[1:]
        ]
        table = [(float(a), float(b)) for a, b in rows]
        worst = min(table, key=lambda r: r[1])
        assert worst == (0.5, 1.0)

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_open_domain_below_three_points_writes_nothing(self, tmp_path, capsys, fmt):
        out_dir = tmp_path / "figs"
        out_dir.mkdir()
        code = main(
            ["figures", "--points", "2", "--format", fmt, "--out-dir", str(out_dir)]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: DomainViolation: eff_vs_q grid needs at least 3 points, got 2\n"
        )
        assert list(out_dir.iterdir()) == []

    def test_svg_below_two_curve_points_writes_nothing(self, tmp_path, capsys):
        # 3 points leave one inside the open domain of figures 3 and 4
        out_dir = tmp_path / "figs"
        out_dir.mkdir()
        code = main(
            ["figures", "--points", "3", "--format", "svg", "--out-dir", str(out_dir)]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ValueError: line_chart needs at least 2 points, got 1\n"
        assert list(out_dir.iterdir()) == []

    def test_csv_at_three_points(self, tmp_path, capsys):
        assert main(["figures", "--points", "3", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "fig3.csv").read_text(encoding="utf-8").count("\n") == 2

    def test_svg_output(self, tmp_path, capsys):
        code = main(
            ["figures", "--which", "3", "--out-dir", str(tmp_path), "--format", "svg"]
        )
        assert code == 0
        svg = (tmp_path / "fig3.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "polyline" in svg
        assert "Eff_q" in svg


# Byte-exact golden outputs: any change here is a behavioral change and
# must be deliberate.
GOLDEN_FIG1_9PT = (
    "param,value\n"
    "0.0,0.0\n"
    "0.125,0.5435644431995964\n"
    "0.25,0.8112781244591328\n"
    "0.375,0.954434002924965\n"
    "0.5,1.0\n"
    "0.625,0.954434002924965\n"
    "0.75,0.8112781244591328\n"
    "0.875,0.5435644431995964\n"
    "1.0,0.0\n"
)
# Figure 3 drops the open-domain endpoints 0 and 1 from its 9-point grid.
GOLDEN_FIG3_9PT = (
    "param,value\n"
    "0.125,0.626439817509864\n"
    "0.25,0.8281444907572746\n"
    "0.375,0.9555162266262184\n"
    "0.5,1.0\n"
    "0.625,0.9555162266262184\n"
    "0.75,0.8281444907572746\n"
    "0.875,0.626439817509864\n"
)
GOLDEN_SIMULATE_CSV = (
    "run_index,rounds,seed,final_log2_wealth,mean_growth,target,abs_error\n"
    "0,1000,7,543.6841064164911,0.5436841064164911,"
    "0.5310044064107189,0.012679700005772232\n"
)

# `simulate` over 100003 rounds, which no power-of-two chunk size divides.
GOLDEN_SIMULATE_JSON_3RUNS = (
    '{\n'
    '  "p_tail": 0.4,\n'
    '  "accuracy": 0.8,\n'
    '  "q_tail": 0.3,\n'
    '  "rounds": 100003,\n'
    '  "seed": 11,\n'
    '  "runs": 3,\n'
    '  "target_bits_per_round": 0.30023897324436233,\n'
    '  "run_results": [\n'
    '    {\n'
    '      "run_index": 0,\n'
    '      "final_log2_wealth": 30135.286369360005,\n'
    '      "mean_growth": 0.3013438233788987,\n'
    '      "abs_error": 0.0011048501345363726,\n'
    '      "bankrupt_round": null\n'
    '    },\n'
    '    {\n'
    '      "run_index": 1,\n'
    '      "final_log2_wealth": 29575.30888106927,\n'
    '      "mean_growth": 0.2957442164841982,\n'
    '      "abs_error": 0.0044947567601641425,\n'
    '      "bankrupt_round": null\n'
    '    },\n'
    '    {\n'
    '      "run_index": 2,\n'
    '      "final_log2_wealth": 29438.60511305325,\n'
    '      "mean_growth": 0.2943772198139381,\n'
    '      "abs_error": 0.005861753430424221,\n'
    '      "bankrupt_round": null\n'
    '    }\n'
    '  ],\n'
    '  "aggregate_mean_growth": 0.2971550865590116,\n'
    '  "aggregate_abs_error": 0.0030838866853507008\n'
    '}\n'
)
GOLDEN_TRAJECTORY_CSV = (
    "round,log2_wealth\n"
    "1,0.5849625007211563\n"
    "12501,6904.108299168464\n"
    "25001,13781.631635837712\n"
    "37501,20735.51738505673\n"
    "50002,27662.07680920506\n"
    "62502,34716.475345961626\n"
    "75002,41687.07387010862\n"
    "87502,48706.50849433111\n"
    "100003,55663.27995601831\n"
)

# `measure` on 1200 records over 10 outcomes and 9 declared signals, of
# which s8 never occurs: with smoothing 0 its column is empty in the point
# estimate and in every resample.
GOLDEN_MEASURE_JSON = (
    '{\n'
    '  "eff": 0.6320024945128028,\n'
    '  "eff_q": 0.6213449257951271,\n'
    '  "h_x": 3.317978054139107,\n'
    '  "h_x_given_y": 2.096970406954651,\n'
    '  "h_q": 3.3748894050614235,\n'
    '  "g_max": 1.221007647184456,\n'
    '  "g_max_q": 1.2779189981067725,\n'
    '  "predictability_gap": 1.221007647184456,\n'
    '  "mispricing_gap": 0.05691135092231647,\n'
    '  "info_set": "strong",\n'
    '  "ci_low": 0.6243177222209416,\n'
    '  "ci_high": 0.634123892490158,\n'
    '  "n_samples": 1200,\n'
    '  "smoothing": 0.5,\n'
    '  "resamples": 200,\n'
    '  "seed": 3,\n'
    '  "small_sample": false,\n'
    '  "eff_q_ci_low": 0.6098160918051216,\n'
    '  "eff_q_ci_high": 0.6232648254738979\n'
    '}\n'
)
GOLDEN_MEASURE_CSV = (
    "key,value\n"
    "eff,0.583781880927202\n"
    "h_x,3.3176759466298327\n"
    "h_x_given_y,1.936799104430499\n"
    "g_max,1.3808768421993336\n"
    "predictability_gap,1.3808768421993336\n"
    "info_set,strong\n"
    "ci_low,0.5756289207604902\n"
    "ci_high,0.5860671315612767\n"
    "n_samples,1200\n"
    "smoothing,0.0\n"
    "resamples,200\n"
    "seed,3\n"
    "small_sample,False\n"
)

# `coin` on the fair-coin, worthless-signal slice, where every closed form
# applies; on the fair coin with a predictive signal, where all but Eff_q's
# do; and at a biased point, where only H(X) has one.
GOLDEN_COIN_FAIR_WORTHLESS_JSON = (
    '{\n'
    '  "p_tail": 0.5,\n'
    '  "accuracy": 0.5,\n'
    '  "q_tail": 0.3,\n'
    '  "eff": 1.0,\n'
    '  "eff_q": 0.8882813964018167,\n'
    '  "h_x": 1.0,\n'
    '  "h_x_given_y": 1.0,\n'
    '  "h_q": 1.1257693834979823,\n'
    '  "g_max": 0.0,\n'
    '  "g_max_q": 0.12576938349798228,\n'
    '  "predictability_gap": 0.0,\n'
    '  "mispricing_gap": 0.12576938349798228,\n'
    '  "info_set": "strong",\n'
    '  "closed_form_h_x": 1.0,\n'
    '  "delta_h_x": 0.0,\n'
    '  "closed_form_eff": 1.0,\n'
    '  "delta_eff": 0.0,\n'
    '  "closed_form_h_q": 1.1257693834979823,\n'
    '  "delta_h_q": 0.0,\n'
    '  "closed_form_eff_q": 0.8882813964018167,\n'
    '  "delta_eff_q": 0.0,\n'
    '  "consistency_delta": 0.0\n'
    '}\n'
)
GOLDEN_COIN_FAIR_PREDICTIVE_JSON = (
    '{\n'
    '  "p_tail": 0.5,\n'
    '  "accuracy": 0.9,\n'
    '  "q_tail": 0.4,\n'
    '  "eff": 0.4689955935892811,\n'
    '  "eff_q": 0.45558019443429243,\n'
    '  "h_x": 1.0,\n'
    '  "h_x_given_y": 0.4689955935892811,\n'
    '  "h_q": 1.0294468445267841,\n'
    '  "g_max": 0.5310044064107189,\n'
    '  "g_max_q": 0.560451250937503,\n'
    '  "predictability_gap": 0.5310044064107189,\n'
    '  "mispricing_gap": 0.029446844526784144,\n'
    '  "info_set": "strong",\n'
    '  "closed_form_h_x": 1.0,\n'
    '  "delta_h_x": 0.0,\n'
    '  "closed_form_eff": 0.4689955935892811,\n'
    '  "delta_eff": 0.0,\n'
    '  "closed_form_h_q": 1.0294468445267841,\n'
    '  "delta_h_q": 0.0,\n'
    '  "consistency_delta": 0.0\n'
    '}\n'
)
GOLDEN_COIN_BIASED_CSV = (
    "key,value\n"
    "p_tail,0.3\n"
    "accuracy,0.8\n"
    "q_tail,0.45\n"
    "eff,0.7320817365241727\n"
    "eff_q,0.6795997445811393\n"
    "h_x,0.8812908992306927\n"
    "h_x_given_y,0.6451769718917553\n"
    "h_q,0.9493484614085606\n"
    "g_max,0.23611392733893743\n"
    "g_max_q,0.3041714895168053\n"
    "predictability_gap,0.23611392733893743\n"
    "mispricing_gap,0.06805756217786785\n"
    "info_set,strong\n"
    "closed_form_h_x,0.8812908992306927\n"
    "delta_h_x,0.0\n"
    "consistency_delta,0.0\n"
)


@pytest.fixture
def wide_samples_csv(tmp_path):
    path = tmp_path / "wide.csv"
    rows = ["# signals: " + ",".join(f"s{j}" for j in range(9)), "signal,outcome"]
    for i in range(1200):
        x = (i * 7 + i // 13) % 10
        rows.append(f"s{(x + (i // 10) % 3) % 8},x{x}")
    write_samples(path, rows)
    return path


class TestGoldenOutputs:
    def test_measure_json_with_quotes_bytes(self, wide_samples_csv, tmp_path, capsys):
        quotes = tmp_path / "wide_quotes.csv"
        q = ["0.05", "0.15"] + ["0.1"] * 8
        write_samples(quotes, ["label,q"] + [f"x{k},{v}" for k, v in enumerate(q)])
        code = main(
            ["measure", "--in", str(wide_samples_csv), "--quotes", str(quotes),
             "--resamples", "200", "--seed", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_MEASURE_JSON

    def test_measure_csv_bytes(self, wide_samples_csv, capsys):
        code = main(
            ["measure", "--in", str(wide_samples_csv), "--smoothing", "0",
             "--resamples", "200", "--seed", "3", "--format", "csv"]
        )
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_MEASURE_CSV

    @pytest.mark.parametrize("which", ["1", "3"])
    def test_figure_csv_bytes(self, which, tmp_path, capsys):
        golden = {"1": GOLDEN_FIG1_9PT, "3": GOLDEN_FIG3_9PT}[which]
        assert main(
            ["figures", "--which", which, "--out-dir", str(tmp_path), "--points", "9"]
        ) == 0
        assert (tmp_path / f"fig{which}.csv").read_text(encoding="utf-8") == golden

    def test_simulate_csv_bytes(self, capsys):
        code = main(
            ["simulate", "--accuracy", "0.9", "--rounds", "1000", "--seed", "7",
             "--format", "csv"]
        )
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_SIMULATE_CSV

    def test_simulate_json_three_runs_bytes(self, capsys):
        code = main(
            ["simulate", "--p-tail", "0.4", "--accuracy", "0.8", "--q-tail", "0.3",
             "--rounds", "100003", "--runs", "3", "--seed", "11"]
        )
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_SIMULATE_JSON_3RUNS

    def test_simulate_trajectory_csv_bytes(self, tmp_path, capsys):
        traj = tmp_path / "trajectory.csv"
        code = main(
            ["simulate", "--accuracy", "0.9", "--q-tail", "0.6", "--rounds", "100003",
             "--seed", "5", "--trajectory-out", str(traj), "--trajectory-points", "9"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["run_results"][0][
            "final_log2_wealth"
        ] == 55663.27995601831
        assert traj.read_text(encoding="utf-8") == GOLDEN_TRAJECTORY_CSV

    def test_coin_json_fair_worthless_bytes(self, capsys):
        code = main(["coin", "--p-tail", "0.5", "--accuracy", "0.5", "--q-tail", "0.3"])
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_COIN_FAIR_WORTHLESS_JSON

    def test_coin_json_fair_predictive_bytes(self, capsys):
        code = main(["coin", "--p-tail", "0.5", "--accuracy", "0.9", "--q-tail", "0.4"])
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_COIN_FAIR_PREDICTIVE_JSON

    def test_coin_csv_biased_bytes(self, capsys):
        code = main(
            ["coin", "--p-tail", "0.3", "--accuracy", "0.8", "--q-tail", "0.45",
             "--format", "csv"]
        )
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_COIN_BIASED_CSV


# Text that JSON must escape: quotes, backslashes, control characters and
# non-ASCII letters and separators.
json_text = st.one_of(
    st.text(),
    st.sampled_from(
        ['a"b', "back\\slash", "new\nline", "cr\rtab\t", "π ≈ 3.14", "\u2028\x00"]
    ),
)
json_scalars = st.one_of(
    json_text,
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300]),
)


# `cli.run` is the one output stage: files are written in order and stdout
# last, and a failed run leaves no file that it created.
class TestOutputStage:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", ["measure", "coin", "simulate"])
    def test_out_file_holds_the_stdout_bytes(self, samples_csv, tmp_path, capsys, command, fmt):
        argv = {
            "measure": ["measure", "--in", str(samples_csv), "--resamples", "200"],
            "coin": ["coin", "--p-tail", "0.3", "--accuracy", "0.8", "--q-tail", "0.45"],
            "simulate": ["simulate", "--accuracy", "0.9", "--rounds", "1000", "--runs", "2"],
        }[command] + ["--format", fmt]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "report"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode("utf-8")

    def test_repeated_destination_keeps_the_last_text(self, tmp_path, capsys):
        argv = ["simulate", "--accuracy", "0.9", "--rounds", "100"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "x"
        assert main([*argv, "--trajectory-out", str(out), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == printed

    def test_failed_out_leaves_no_trajectory_file(self, tmp_path, capsys):
        traj, bad = tmp_path / "t.csv", tmp_path / "nodir" / "x.json"
        code = main(
            ["simulate", "--accuracy", "0.9", "--rounds", "100",
             "--trajectory-out", str(traj), "--out", str(bad)]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: FileNotFoundError: [Errno 2] No such file or directory: {str(bad)!r}\n"
        )
        assert not traj.exists()

    # `keep.csv/` names the file `keep.csv`: the run overwrites it, as a
    # successful run would, and a later failure does not take it away.
    def test_failed_out_keeps_a_file_named_with_a_trailing_slash(self, tmp_path, capsys):
        argv = ["simulate", "--accuracy", "0.9", "--rounds", "100", "--trajectory-out"]
        assert main([*argv, str(tmp_path / "t.csv"), "--out", str(tmp_path / "x.json")]) == 0
        keep, bad = tmp_path / "keep.csv", tmp_path / "nodir" / "x.json"
        keep.write_text("keep\n", encoding="utf-8")
        assert main([*argv, f"{keep}/", "--out", str(bad)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: FileNotFoundError: [Errno 2] No such file or directory: {str(bad)!r}\n"
        )
        assert keep.read_bytes() == (tmp_path / "t.csv").read_bytes()

    # A destination whose open fails was not created by the run, so there is
    # nothing to unlink and the failure stays one line.
    @pytest.mark.parametrize(
        "out, kind",
        [("", "IsADirectoryError"), ("keep.csv/x", "NotADirectoryError"), ("a" * 300, "OSError")],
        ids=["empty", "beneath_a_file", "name_too_long"],
    )
    def test_unopenable_out_is_one_error_line(self, tmp_path, capsys, monkeypatch, out, kind):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "keep.csv").write_text("keep\n", encoding="utf-8")
        argv = ["coin", "--p-tail", "0.5", "--accuracy", "0.9", "--q-tail", "0.5"]
        assert main([*argv, "--out", out]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {kind}: [Errno ")
        assert captured.err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["keep.csv"]
        assert (tmp_path / "keep.csv").read_text(encoding="utf-8") == "keep\n"

    # A regular file or a dangling symlink that existed before the run is not
    # the run's own: it keeps what the run wrote through it.
    @pytest.mark.parametrize("before", ["absent", "file", "dangling_symlink"])
    def test_failed_write_removes_the_files_it_created(self, tmp_path, capsys, before):
        out_dir, target = tmp_path / "figs", tmp_path / "target.csv"
        (out_dir / "fig3.csv").mkdir(parents=True)
        fig1 = out_dir / "fig1.csv"
        if before == "file":
            fig1.write_text("old\n", encoding="utf-8")
        elif before == "dangling_symlink":
            fig1.symlink_to(target)
        code = main(["figures", "--points", "5", "--out-dir", str(out_dir)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: IsADirectoryError: [Errno 21] Is a directory: {str(out_dir / 'fig3.csv')!r}\n"
        )
        assert list((out_dir / "fig3.csv").iterdir()) == []
        assert not (out_dir / "fig2.csv").exists()
        written = (
            "param,value\n0.0,0.0\n0.25,0.8112781244591328\n0.5,1.0\n"
            "0.75,0.8112781244591328\n1.0,0.0\n"
        )
        if before == "absent":
            assert not fig1.exists()
        else:
            assert fig1.is_symlink() == (before == "dangling_symlink")
            assert fig1.read_text(encoding="utf-8") == written
        # The target created through the dangling symlink is not unlinked.
        assert target.exists() == (before == "dangling_symlink")

    # A byte of argv that is not UTF-8 arrives as a lone surrogate. A strict
    # stdout cannot print the path that holds it, so the run fails and takes
    # its files back; a surrogateescape stdout prints the raw byte.
    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_undecodable_out_dir_on_stdout(self, tmp_path, capsys, monkeypatch, errors):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors=errors)
        monkeypatch.setattr(sys, "stdout", stdout)
        out_dir = tmp_path / "\udcff"
        code = main(["figures", "--points", "3", "--out-dir", str(out_dir)])
        stdout.flush()
        printed = stdout.buffer.getvalue()
        err = capsys.readouterr().err
        if errors == "strict":
            assert code == 3
            assert printed == b""
            assert err == (
                "error: UnicodeEncodeError: 'utf-8' codec can't encode character '\\udcff' "
                f"in position {len(str(tmp_path)) + 1}: surrogates not allowed\n"
            )
            assert list(out_dir.iterdir()) == []
        else:
            assert code == 0
            assert err == ""
            names = [f"fig{n}.csv" for n in (1, 2, 3, 4)]
            assert sorted(path.name for path in out_dir.iterdir()) == names
            assert printed == b"".join(
                bytes(tmp_path) + b"/\xff/" + name.encode() + b"\n" for name in names
            )


class TestRenderFlat:
    @given(st.dictionaries(json_text, json_scalars, min_size=1))
    def test_json_equals_indent_2(self, report):
        assert cli._render_flat(report, "json") == json.dumps(report, indent=2) + "\n"


class TestMalformedCommandLine:
    def test_argparse_usage_error_exits_2(self, samples_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["measure", "--in", str(samples_csv), "--seed", "0x10"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "infoeff measure: error: argument --seed: invalid int value: '0x10'"
        )


class TestParserReuse:
    def test_shared_parser_matches_fresh_parser(self, samples_csv, monkeypatch, capsys):
        point = ["--p-tail", "0.3", "--accuracy", "0.8", "--q-tail", "0.45"]
        sequence = [
            ["coin", *point, "--info-set", "weak"],
            ["coin", *point],
            ["coin", *point[:4]],  # --q-tail missing: a parse error
            ["measure", "--in", str(samples_csv), "--resamples", "200"],
            ["coin", *point],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [outcome(argv) for argv in sequence]
        assert cli.build_parser() is cli.build_parser()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = [outcome(argv) for argv in sequence]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, ("SystemExit", 2), 0, 0]
        assert json.loads(shared[0][1])["info_set"] == "weak"
        assert json.loads(shared[1][1])["info_set"] == "strong"
        assert "--q-tail" in shared[2][2]
        assert shared[4] == shared[1]


class TestCoinConsistencyGrid:
    def test_delta_below_1e10_across_grid(self, capsys):
        for p_tail in ("0.1", "0.5", "0.9"):
            for accuracy in ("0.25", "0.5", "0.75"):
                for q_tail in ("0.05", "0.5", "0.95"):
                    code = main(
                        ["coin", "--p-tail", p_tail, "--accuracy", accuracy,
                         "--q-tail", q_tail]
                    )
                    assert code == 0
                    report = json.loads(capsys.readouterr().out)
                    assert report["consistency_delta"] < 1e-10
