import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from infoeff import cli
from infoeff.cli import main
from infoeff.errors import DomainViolation, EmptyInput, ParseError
# Each `test_... = in_process(...)` below runs cases of the CLI contract
# table in tests/test_cli_cases.py through `cli.main`.
from test_cli_cases import CASES, in_process


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
    test_empty_input_exit_2 = in_process("empty-input")
    test_degenerate_exit_3 = in_process("degenerate")
    test_single_outcome_at_smoothing_0_exit_3 = in_process("single-outcome")
    test_degenerate_with_quotes_exit_3 = in_process("degenerate-with-quotes")
    test_missing_file_exit_4 = in_process("missing-file")
    test_bad_quote_sum_exit_3 = in_process("quote-sum")
    test_quote_values_checked_after_the_run_options = in_process(
        "after-options/resamples", "after-options/seed", "after-options/smoothing"
    )
    test_bad_quote_values_exit_3 = in_process("quote-values/")
    test_non_finite_quote_exit_3 = in_process("non-finite-quote/")
    test_bad_quote_sidecar = in_process("quote-sidecar/")
    test_bad_samples_file = in_process("samples-file/")
    test_quote_labels_matched_after_the_whole_sidecar = in_process("labels-after-sidecar")
    test_duplicate_directive_label_exit_2 = in_process("duplicate-directive")
    test_directive_after_header_exit_2 = in_process("samples-directive-after-header")
    test_repeated_directive_exit_2 = in_process("repeated-directive")
    test_undeclared_label_reported_before_a_later_bad_line = in_process(
        "undeclared-before-bad-line"
    )
    test_undecodable_samples_exit_2 = in_process("undecodable-samples")
    test_undecodable_byte_reported_at_its_line = in_process("undecodable-late")
    test_undecodable_byte_reported_in_its_field = in_process("undecodable-field")
    test_undecodable_quote_sidecar_exit_2 = in_process(
        "undecodable-sidecar", "undecodable-sidecar-first-row"
    )
    test_first_bad_line_reported_undecodable_or_not = in_process("first-bad-line/")
    test_small_sample_warning_is_one_line = in_process("small-sample")
    test_failed_run_prints_no_warning = in_process("small-sample-failed-out")
    test_byte_identical_reruns = in_process("measure-rerun")
    test_non_finite_smoothing_exit_3 = in_process("non-finite-smoothing/")
    test_smoothing_that_overflows_exit_3 = in_process("smoothing-overflow")

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

    def test_memory_error_exit_5(self, samples_csv, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError("cannot allocate")

        monkeypatch.setitem(cli.COMMANDS, "measure", exhausted)
        assert main(["measure", "--in", str(samples_csv)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: MemoryError: cannot allocate\n"


class TestCoin:
    test_fair_quotes_eff_q_is_eff = in_process("eff-q-is-eff")
    test_report_parses = in_process("coin-report/")
    test_point_mass_prints_no_signed_zero = in_process("coin-point-mass")
    test_domain_violation_exit_3 = in_process("coin-domain", "coin-domain-2")

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

    def test_mispriced_unpredictable(self, capsys):
        code = main(["coin", "--p-tail", "0.5", "--accuracy", "0.5", "--q-tail", "0.05"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eff_q"] == pytest.approx(oracles.FROZEN_EFFQ_005, abs=1e-12)
        assert report["closed_form_eff_q"] == pytest.approx(report["eff_q"], abs=1e-10)

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
    test_report_is_strict_json = in_process("simulate-json")
    test_byte_identical_reruns = in_process("simulate-rerun", "simulate-rerun-short")
    test_trajectory_with_multiple_runs_rejected = in_process("multiple-runs-trajectory")
    test_runs_below_one_exit_3 = in_process("runs-below-one/")
    test_trajectory_points_below_one_exit_3 = in_process("trajectory-points/")

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



class TestFigures:
    test_byte_identical_across_runs = in_process("figures-rerun")
    test_svg_for_every_figure = in_process("figures-svg")
    test_open_domain_below_three_points_writes_nothing = in_process("open-domain/")
    test_svg_below_two_curve_points_writes_nothing = in_process("svg-below-two")

    def test_all_csvs_written(self, tmp_path, capsys):
        code = main(["figures", "--which", "all", "--out-dir", str(tmp_path)])
        assert code == 0
        for n in (1, 2, 3, 4):
            assert (tmp_path / f"fig{n}.csv").exists()

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
    "0,1000,7,543.684106416488,0.543684106416488,"
    "0.5310044064107189,0.012679700005769123\n"
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
    '      "final_log2_wealth": 30135.2863693584,\n'
    '      "mean_growth": 0.30134382337888266,\n'
    '      "abs_error": 0.0011048501345203299,\n'
    '      "bankrupt_round": null\n'
    '    },\n'
    '    {\n'
    '      "run_index": 1,\n'
    '      "final_log2_wealth": 29575.308881067212,\n'
    '      "mean_growth": 0.2957442164841776,\n'
    '      "abs_error": 0.004494756760184737,\n'
    '      "bankrupt_round": null\n'
    '    },\n'
    '    {\n'
    '      "run_index": 2,\n'
    '      "final_log2_wealth": 29438.6051130515,\n'
    '      "mean_growth": 0.29437721981392057,\n'
    '      "abs_error": 0.005861753430441763,\n'
    '      "bankrupt_round": null\n'
    '    }\n'
    '  ],\n'
    '  "aggregate_mean_growth": 0.2971550865589936,\n'
    '  "aggregate_abs_error": 0.003083886685368742\n'
    '}\n'
)
GOLDEN_TRAJECTORY_CSV = (
    "round,log2_wealth\n"
    "1,0.5849625007211563\n"
    "12501,6904.108299167585\n"
    "25001,13781.631635834448\n"
    "37501,20735.51738505107\n"
    "50002,27662.07680919702\n"
    "62502,34716.47534595619\n"
    "75002,41687.07387011945\n"
    "87502,48706.50849435771\n"
    "100003,55663.279956060636\n"
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
        ] == 55663.279956060636
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
    test_failed_out_leaves_no_trajectory_file = in_process("failed-out-trajectory")
    test_failed_out_keeps_a_file_named_with_a_trailing_slash = in_process("trailing-slash")
    test_unopenable_out_is_one_error_line = in_process("unopenable-out/")
    test_failed_write_removes_the_files_it_created = in_process("failed-write/")
    test_undecodable_out_dir_on_stdout = in_process("undecodable-out-dir/")

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

    @pytest.mark.parametrize("command", ["measure", "coin"])
    def test_info_set_is_not_an_option(self, samples_csv, capsys, command):
        argv = {
            "measure": ["measure", "--in", str(samples_csv)],
            "coin": ["coin", "--p-tail", "0.3", "--accuracy", "0.8", "--q-tail", "0.45"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--info-set", "weak"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "infoeff: error: unrecognized arguments: --info-set weak"
        )


class TestParserReuse:
    def test_shared_parser_matches_fresh_parser(self, samples_csv, monkeypatch, capsys):
        point = ["--p-tail", "0.3", "--accuracy", "0.8", "--q-tail", "0.45"]
        sequence = [
            ["coin", *point, "--format", "csv"],
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
        assert shared[0][1].startswith("key,value\np_tail,0.3\n")
        assert json.loads(shared[1][1])["p_tail"] == 0.3
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


def test_every_case_runs_in_process_once():
    # A case no test here claims would run only through the console script.
    claimed = [
        case_id
        for cls in list(globals().values()) if isinstance(cls, type)
        for test in vars(cls).values()
        for case_id in getattr(test, "case_ids", ())
    ]
    assert sorted(claimed) == sorted(CASES)
