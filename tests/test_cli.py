import json

import pytest

import oracles
from infoeff.cli import main


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
        assert "QuoteSumNotOne" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_quote_exit_3(self, samples_csv, tmp_path, capsys, bad):
        path = tmp_path / "bad_quotes.csv"
        write_samples(path, ["label,q", f"h,{bad}", "t,0.5"])
        assert main(["measure", "--in", str(samples_csv), "--quotes", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "QuoteSumNotOne" in captured.err

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

    def test_mispriced_unpredictable(self, capsys):
        code = main(["coin", "--p-tail", "0.5", "--accuracy", "0.5", "--q-tail", "0.05"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eff_q"] == pytest.approx(oracles.FROZEN_EFFQ_005, abs=1e-12)
        assert report["closed_form_eff_q"] == pytest.approx(report["eff_q"], abs=1e-10)

    def test_domain_violation_exit_3(self, capsys):
        assert main(["coin", "--p-tail", "1.5", "--accuracy", "0.5", "--q-tail", "0.5"]) == 3
        assert "DomainViolation" in capsys.readouterr().err


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
GOLDEN_SIMULATE_CSV = (
    "run_index,rounds,seed,final_log2_wealth,mean_growth,target,abs_error\n"
    "0,1000,7,559.5337314237023,0.5595337314237023,"
    "0.5310044064107189,0.028529325012983442\n"
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
    '  "ci_low": 0.6236460734201626,\n'
    '  "ci_high": 0.6345395682177185,\n'
    '  "n_samples": 1200,\n'
    '  "smoothing": 0.5,\n'
    '  "resamples": 200,\n'
    '  "seed": 3,\n'
    '  "small_sample": false,\n'
    '  "eff_q_ci_low": 0.6107816365905053,\n'
    '  "eff_q_ci_high": 0.6249248518600615\n'
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
    "ci_low,0.5748721467690124\n"
    "ci_high,0.5865435523461711\n"
    "n_samples,1200\n"
    "smoothing,0.0\n"
    "resamples,200\n"
    "seed,3\n"
    "small_sample,False\n"
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

    def test_figure_csv_bytes(self, tmp_path, capsys):
        assert main(
            ["figures", "--which", "1", "--out-dir", str(tmp_path), "--points", "9"]
        ) == 0
        assert (tmp_path / "fig1.csv").read_text(encoding="utf-8") == GOLDEN_FIG1_9PT

    def test_simulate_csv_bytes(self, capsys):
        code = main(
            ["simulate", "--accuracy", "0.9", "--rounds", "1000", "--seed", "7",
             "--format", "csv"]
        )
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_SIMULATE_CSV


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
