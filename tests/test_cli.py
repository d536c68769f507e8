import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infoeff import cli
from infoeff.cli import main
from infoeff.errors import DomainViolation, EmptyInput, ParseError
# The CLI contract, golden outputs included, is the table of cases in
# tests/test_cli_cases.py. This module holds what a row cannot express:
# runs that patch `cli.COMMANDS`, properties of `_render_flat`, argparse
# exits, parser reuse and a grid of coin reports. Each
# `test_... = in_process(...)` below runs cases of that table through
# `cli.main` a second time, as `test_in_process` there also does.
from test_cli_cases import SAMPLES, in_process


@pytest.fixture
def samples_csv(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_bytes(SAMPLES)
    return path


class TestMeasure:
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
    test_first_bad_line_reported_undecodable_or_not = in_process("first-bad-line/")
    test_small_sample_warning_is_one_line = in_process("small-sample")
    test_failed_run_prints_no_warning = in_process("small-sample-failed-out")
    test_byte_identical_reruns = in_process("measure-rerun")
    test_non_finite_smoothing_exit_3 = in_process("non-finite-smoothing/")

    def test_memory_error_exit_5(self, samples_csv, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError("cannot allocate")

        monkeypatch.setitem(cli.COMMANDS, "measure", exhausted)
        assert main(["measure", "--in", str(samples_csv)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: MemoryError: cannot allocate\n"


class TestCoin:
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

    def test_unknown_figure_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "--which", "5", "--out-dir", str(tmp_path / "figs")])
        assert excinfo.value.code == 2
        # Only the prefix: argparse lists the choices differently across versions.
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "infoeff figures: error: argument --which: invalid choice: '5'")
        assert not (tmp_path / "figs").exists()

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
