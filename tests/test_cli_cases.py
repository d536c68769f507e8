"""The CLI contract as one table of cases, run over two transports.

Each case is one `infoeff` invocation: its argv (split as a shell would),
the files it starts from, an optional environment, and what must hold
afterwards: the exit code, the exact stderr, stdout, and the files left.
Every run starts in a fresh directory, its working directory, so every
path in a case is relative to it. The byte-exact golden outputs are rows
too (`golden/...`), as are the same runs written by `--out`
(`out-file/...`) and the looser checks of a report's values
(`report/...`).

Each transport is one test parametrized over `CASES`, so a new case is one
new row of the table and runs through both:

- In-process: `test_in_process` runs each case through `cli.main`.
  `tests/test_cli.py::TestMeasure` still runs its cases a second time
  under its older names (`test_... = in_process(...)`); those aliases
  are to go, so add no new one.
- Console script: `test_console` runs each case through the installed
  `infoeff` by `subprocess`, wherever that script is on PATH
  (`pip install -e .`); elsewhere it skips.

For every failing case the runner also asserts exactly one stderr line,
starting `error: `, and an exit code that `cli.EXIT_CODES` documents.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import pytest

import oracles
from infoeff import cli

SCRIPT = shutil.which("infoeff")


class Symlink(NamedTuple):
    target: str


@dataclass(frozen=True)
class Case:
    """One invocation and what must hold after it.

    `files` maps a path to its bytes, to [] for an empty directory or to a
    Symlink. `stdout` is the exact bytes, or a check that takes them.
    `after` maps a path to what it must be: None for absent, a list of the
    names a directory holds, a file's exact text (its UTF-8 bytes, line
    ends included) or a check that takes its bytes, or a Symlink. A
    `rerun` case runs twice, in two fresh directories, which must end up
    the same.
    """

    argv: str
    code: int = 0
    stderr: str = ""
    stdout: bytes | Callable[[bytes], None] = b""
    files: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    rerun: bool = False


def fails(argv: str, code: int, message: str, **fields) -> Case:
    return Case(argv, code, f"error: {message}\n", **fields)


def lines(*rows: str) -> bytes:
    """The rows as a file's bytes; a lone surrogate stands for the byte it escapes."""
    return "".join(f"{row}\n" for row in rows).encode("utf-8", "surrogateescape")


def strict_json(check=lambda report: True):
    """Stdout is one JSON object, with no NaN or Infinity, for which `check` holds."""

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    def parse(out: bytes):
        report = json.loads(out.decode("utf-8"), parse_constant=refuse)
        assert check(report), report

    return parse


def csv_fields(n: int):
    """Stdout is CSV with at least one row, each of `n` fields."""

    def parse(out: bytes):
        rows = list(csv.reader(io.StringIO(out.decode("utf-8"))))
        assert rows and all(len(row) == n for row in rows), rows

    return parse


def no_negative_zero(out: bytes):
    """Stdout prints no number as -0.0."""
    assert re.search(rb"-0\.0\b", out) is None, out


def text(check):
    """The bytes are UTF-8 text for which `check` holds."""

    def parse(data: bytes):
        assert check(data.decode("utf-8")), data

    return parse


def figure(check):
    """The bytes are a figure's CSV whose (param, value) rows, as floats, pass `check`."""

    def parse(data: bytes):
        table = [tuple(map(float, row.split(","))) for row in data.decode().splitlines()[1:]]
        assert check(table), table

    return parse


def sha256(digest: str):
    """The bytes hash to `digest` under SHA-256."""

    def parse(data: bytes):
        assert hashlib.sha256(data).hexdigest() == digest, digest

    return parse


SAMPLES = lines("signal,outcome", *["h,h"] * 45, *["t,h"] * 5, *["h,t"] * 5, *["t,t"] * 45)
SMALL_SAMPLES = lines("signal,outcome", "h,h", "t,t", "t,h")
SMALL_WARNING = "warning: only 3 samples for 4 cells; plug-in efficiency biases low at small N\n"
COIN = "coin --p-tail 0.5 --accuracy 0.9 --q-tail 0.5"
POINT_MASS = "coin --p-tail 1.0 --accuracy 1.0 --q-tail 0.5"
POINT_MASS_JSON = lines(
    "{", '  "p_tail": 1.0,', '  "accuracy": 1.0,', '  "q_tail": 0.5,', '  "eff_q": 0.0,',
    '  "h_x": 0.0,', '  "h_x_given_y": 0.0,', '  "h_q": 1.0,', '  "g_max": 0.0,',
    '  "g_max_q": 1.0,', '  "predictability_gap": 0.0,', '  "mispricing_gap": 1.0,',
    '  "closed_form_h_x": 0.0,', '  "delta_h_x": 0.0,', '  "consistency_delta": 0.0', "}")
FIG1_5PT = lines("param,value", "0.0,0.0", "0.25,0.8112781244591328", "0.5,1.0",
                 "0.75,0.8112781244591328", "1.0,0.0").decode()
FIGS = [f"fig{n}.csv" for n in (1, 2, 3, 4)]
FIGS_OUT = "".join(f"figs/{name}\n" for name in FIGS).encode()  # what `figures` prints
KEEP = {"keep.csv": b"keep\n"}

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
# `measure` on the same records with 2500 resamples: three bootstrap streams,
# the last one partial. Its interval equals the percentiles of the Eff of
# `Generator(PCG64(3).jumped(s))` draws for s = 0, 1, 2 (1000, 1000, 500).
GOLDEN_MEASURE_MULTI_STREAM = (
    '{\n'
    '  "eff": 0.6320024945128028,\n'
    '  "h_x": 3.317978054139107,\n'
    '  "h_x_given_y": 2.096970406954651,\n'
    '  "g_max": 1.221007647184456,\n'
    '  "predictability_gap": 1.221007647184456,\n'
    '  "ci_low": 0.6240592528469386,\n'
    '  "ci_high": 0.634665830020219,\n'
    '  "n_samples": 1200,\n'
    '  "smoothing": 0.5,\n'
    '  "resamples": 2500,\n'
    '  "seed": 3,\n'
    '  "small_sample": false\n'
    '}\n'
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
# The SHA-256 of each file of `figures --which all --format svg` at the
# default 1001 points, in the order the run lists them.
GOLDEN_FIGURES_SVG_SHA256 = {
    "fig1.csv": "b957fd9483f40d2004e40a73a8dfcaf1908687e68946a9f17b0693de5b390a5c",
    "fig1.svg": "172970cce514e4a620b189172c8288392f7a27b8f0fafc51c82d116066b6fa33",
    "fig2.csv": "b957fd9483f40d2004e40a73a8dfcaf1908687e68946a9f17b0693de5b390a5c",
    "fig2.svg": "50c70d3015599c06d665c095ebbb0b467eb0ae23db469a2dd7736f3cba44de42",
    "fig3.csv": "feb6987e0e03b93b49233a287d609cd027f8441dbea15da3f4ec4ff95c8c0441",
    "fig3.svg": "b189c3f457282fc19520373180e086482bc1ea2018c4534680d97a4fd6929709",
    "fig4.csv": "629ae0e38b64dbba69ab00a22d8b940931b22cca9704c4e6c4e7c698f0b2d684",
    "fig4.svg": "c23d61d411ed6a1330c4926ccf0d11183fdbc265a385e07d634a1ebfba0e944e",
}


# The 1200 records of the GOLDEN_MEASURE_* outputs, and the rows of
# GOLDEN_MEASURE_JSON's quote sidecar.
WIDE = lines("# signals: " + ",".join(f"s{j}" for j in range(9)), "signal,outcome",
             *[f"s{(x + (i // 10) % 3) % 8},x{x}"
               for i in range(1200) for x in [(i * 7 + i // 13) % 10]])
WIDE_QUOTES = [f"x{k},{v}" for k, v in enumerate(["0.05", "0.15"] + ["0.1"] * 8)]
WIDE_FILES = {"wide.csv": WIDE, "quotes.csv": lines("label,q", *WIDE_QUOTES)}
BOM = b"\xef\xbb\xbf"


def measure_fails(data: bytes, message: str, code: int = 2) -> Case:
    """`measure` on a samples file of `data`."""
    return fails("measure --in samples.csv", code, message, files={"samples.csv": data})


def quotes_fail(rows, code: int, message: str, options: str = "") -> Case:
    """`measure` on SAMPLES with a quote sidecar of `rows`."""
    return fails(f"measure --in samples.csv --quotes quotes.csv {options}", code, message,
                 files={"samples.csv": SAMPLES, "quotes.csv": lines(*rows)})


def to_out_file(case: Case) -> Case:
    """`case` with `--out report`: the file holds what it printed, and stdout nothing."""
    return replace(case, argv=f"{case.argv} --out report", stdout=b"",
                   after={"report": case.stdout.decode()})


# The runs whose golden output is their stdout.
GOLDEN_STDOUT = {
    "measure-json-quotes": Case(
        "measure --in wide.csv --quotes quotes.csv --resamples 200 --seed 3",
        stdout=GOLDEN_MEASURE_JSON.encode(), files=WIDE_FILES),
    "measure-csv": Case(
        "measure --in wide.csv --smoothing 0 --resamples 200 --seed 3 --format csv",
        stdout=GOLDEN_MEASURE_CSV.encode(), files={"wide.csv": WIDE}),
    "measure-multi-stream": Case("measure --in wide.csv --resamples 2500 --seed 3",
                                 stdout=GOLDEN_MEASURE_MULTI_STREAM.encode(),
                                 files={"wide.csv": WIDE}),
    "coin-fair-worthless-json": Case("coin --p-tail 0.5 --accuracy 0.5 --q-tail 0.3",
                                     stdout=GOLDEN_COIN_FAIR_WORTHLESS_JSON.encode()),
    "coin-fair-predictive-json": Case("coin --p-tail 0.5 --accuracy 0.9 --q-tail 0.4",
                                      stdout=GOLDEN_COIN_FAIR_PREDICTIVE_JSON.encode()),
    "coin-biased-csv": Case("coin --p-tail 0.3 --accuracy 0.8 --q-tail 0.45 --format csv",
                            stdout=GOLDEN_COIN_BIASED_CSV.encode()),
    "simulate-csv": Case("simulate --accuracy 0.9 --rounds 1000 --seed 7 --format csv",
                         stdout=GOLDEN_SIMULATE_CSV.encode()),
    "simulate-json-3-runs": Case(
        "simulate --p-tail 0.4 --accuracy 0.8 --q-tail 0.3 --rounds 100003 --runs 3 --seed 11",
        stdout=GOLDEN_SIMULATE_JSON_3RUNS.encode()),
}


CASES = {
    # measure: its samples file
    "empty-input": measure_fails(
        b"", "ParseError: line 1, column 1: missing header line 'signal,outcome'"),
    "degenerate": measure_fails(lines("signal,outcome", "h,h", "t,h", "h,h"),
                                "DegenerateSystem: H(X) = 0: efficiency is 0/0 and undefined", 3),
    # One observed outcome: the smoothing-0 marginal sums to 0.9999999999999999.
    "single-outcome": fails(
        "measure --smoothing 0 --in samples.csv", 3,
        "DegenerateSystem: H(X) = 0: efficiency is 0/0 and undefined",
        files={"samples.csv": lines("# outcomes: h,t", "signal,outcome",
                                    "a,t", "b,t", "b,t", "b,t", "c,t", "a,t")}),
    # Quotes make Eff_q defined, but Eff is still 0/0 on a constant outcome.
    "degenerate-with-quotes": fails(
        "measure --in samples.csv --quotes quotes.csv --smoothing 0 --resamples 100", 3,
        "DegenerateSystem: estimated outcome marginal has zero entropy",
        files={"samples.csv": lines("# outcomes: h,t", "signal,outcome", "a,h", "b,h", "a,h"),
               "quotes.csv": lines("label,q", "h,0.5", "t,0.5")}),
    "missing-file": fails("measure --in nope.csv", 4,
                          "FileNotFoundError: [Errno 2] No such file or directory: 'nope.csv'"),
    "duplicate-directive": measure_fails(
        lines("# signals: a,a", "signal,outcome", "a,h", "a,t"),
        "ParseError: line 1, column 1: duplicate label 'a' in 'signals' directive"),
    # The alphabets are fixed before the first record, and each record is
    # checked against them as it is read.
    "samples-directive-after-header": measure_fails(
        lines("signal,outcome", "a,h", "# signals: a,b", "b,t"),
        "ParseError: line 3, column 1: 'signals' directive after the header"),
    "repeated-directive": measure_fails(
        lines("# signals: a,b", "# signals: c", "signal,outcome", "c,h"),
        "ParseError: line 2, column 1: repeated 'signals' directive"),
    "undeclared-before-bad-line": measure_fails(
        lines("# signals: a", "signal,outcome", "z,h", "a,h,t"),
        "ParseError: line 3, column 1: signal 'z' not in declared alphabet"),
    **{f"samples-file/{name}": measure_fails(lines(*rows), f"ParseError: {message}")
       for name, rows, message in [
           ("three-columns", ["signal,outcome,x", "h,h"],
            "line 1, column 1: header must have exactly 2 columns"),
           ("unknown-column", ["signal,result", "h,h"],
            "line 1, column 2: unknown column 'result' (expected 'outcome')"),
           ("comment-only", ["# no header here"],
            "line 1, column 1: missing header line 'signal,outcome'"),
           ("empty-signal", ["signal,outcome", ",h"], "line 2, column 1: empty signal field"),
           ("empty-outcome", ["signal,outcome", "h,"], "line 2, column 2: empty outcome field"),
           ("three-fields", ["signal,outcome", "h,h,h"],
            "line 2, column 1: expected 2 fields, got 3"),
       ]},
    # measure: a byte that is not UTF-8 is a parse error at its own line
    "undecodable-samples": measure_fails(
        b"signal,outcome\n\xff,h\n", "ParseError: line 2, column 1: not valid UTF-8: byte 0xff"),
    # The decoder reads in buffers; the line has to come from the file.
    "undecodable-late": measure_fails(
        b"signal,outcome\n" + b"a,h\n" * 10**5 + b"\xff,h\n",
        "ParseError: line 100002, column 1: not valid UTF-8: byte 0xff"),
    # A truncated 3-byte sequence in the outcome field, with CRLF lines.
    "undecodable-field": measure_fails(
        b"signal,outcome\r\nh,h\r\nh,\xe2\x82\r\n",
        "ParseError: line 3, column 2: not valid UTF-8: byte 0xe2"),
    "undecodable-sidecar": quotes_fail(
        ["label,q", "h,0.5", "\udcff,0.5"], 2,
        "ParseError: line 3, column 1: not valid UTF-8: byte 0xff"),
    "undecodable-sidecar-first-row": quotes_fail(
        ["label,q", "\udcff,0.5", "t,0.5"], 2,
        "ParseError: line 2, column 1: not valid UTF-8: byte 0xff"),
    # Nor does it hide an earlier malformed line, or come after a later one.
    "first-bad-line/samples-malformed-line-first": measure_fails(
        b"signal,outcome\nh\n\xff,h\n", "ParseError: line 2, column 1: expected 2 fields, got 1"),
    "first-bad-line/sidecar-malformed-line-first": quotes_fail(
        ["label,q", "h", "\udcff,0.5"], 2,
        "ParseError: line 2, column 1: expected 2 fields, got 1"),
    "first-bad-line/byte-in-comment-before-header": measure_fails(
        b"# note \xff\nsignal,outcome\nh\nh,h\n",
        "ParseError: line 1, column 1: not valid UTF-8: byte 0xff"),
    # measure: its quote sidecar
    **{f"quote-sidecar/{name}": quotes_fail(rows, code, message)
       for name, rows, code, message in [
           ("header", ["lab,q", "h,0.5", "t,0.5"], 2,
            "ParseError: line 1, column 1: unknown column 'lab' (expected 'label')"),
           ("three-fields", ["label,q", "h,0.5,1", "t,0.5"], 2,
            "ParseError: line 2, column 1: expected 2 fields, got 3"),
           ("not-a-number", ["label,q", "h,half", "t,0.5"], 2,
            "ParseError: line 2, column 2: not a number: 'half'"),
           ("duplicate", ["label,q", "h,0.5", "h,0.5"], 2,
            "ParseError: line 3, column 1: duplicate quote label 'h'"),
           ("comment-only", ["# no header here"], 2,
            "ParseError: line 1, column 1: missing header line 'label,q'"),
           ("missing-label", ["label,q", "h,1.0"], 3,
            "LabelMismatch: quote labels do not match outcome alphabet: missing ['t'], extra []"),
           ("extra-label", ["label,q", "h,0.5", "t,0.25", "u,0.25"], 3,
            "LabelMismatch: quote labels do not match outcome alphabet: missing [], extra ['u']"),
           ("empty-label", ["label,q", ",0.5", "t,0.5"], 2,
            "ParseError: line 2, column 1: empty label field"),
           ("empty-q", ["label,q", "h,0.5", "t,"], 2,
            "ParseError: line 3, column 2: empty q field"),
           ("swapped-header", ["q,label", "h,0.5", "t,0.5"], 2,
            "ParseError: line 1, column 1: unknown column 'q' (expected 'label')"),
           ("unknown-column", ["label,x", "h,0.5", "t,0.5"], 2,
            "ParseError: line 1, column 2: unknown column 'x' (expected 'q')"),
           ("three-columns", ["label,q,x", "h,0.5", "t,0.5"], 2,
            "ParseError: line 1, column 1: header must have exactly 2 columns"),
           ("bad-directive", ["# outcomes: h,h", "label,q", "h,0.5", "t,0.5"], 2,
            "ParseError: line 1, column 1: duplicate label 'h' in 'outcomes' directive"),
           ("directive-before-header", ["# outcomes: h,t", "label,q", "h,0.5", "t,0.5"], 2,
            "ParseError: line 1, column 1: 'outcomes' directive in a file headed 'label,q'"),
           ("directive-after-header", ["label,q", "# signals: x,y", "h,0.5", "t,0.5"], 2,
            "ParseError: line 2, column 1: 'signals' directive in a file headed 'label,q'"),
           ("outcomes-directive-after-header", ["label,q", "# outcomes: h,t", "h,0.5", "t,0.5"],
            2, "ParseError: line 2, column 1: 'outcomes' directive in a file headed 'label,q'"),
       ]},
    # Labels are matched against the outcome alphabet once every line parsed.
    "labels-after-sidecar": quotes_fail(
        ["label,q", "u,0.5", "t,abc"], 2, "ParseError: line 3, column 2: not a number: 'abc'"),
    "quote-sum": quotes_fail(
        ["label,q", "h,0.5", "t,0.6"], 3,
        "QuoteSumNotOne: quotes sum to 1.1, not 1 within 1e-09 (no-cost constraint)"),
    **{f"non-finite-quote/{bad}": quotes_fail(
        ["label,q", f"h,{bad}", "t,0.5"], 3,
        f"QuoteSumNotOne: quotes sum to {bad}, not 1 within 1e-09 (no-cost constraint)")
       for bad in ("nan", "inf")},
    "quote-values/negative": quotes_fail(
        ["label,q", "h,1.5", "t,-0.5"], 3,
        "NegativeWeight: distribution has a negative entry: [1.5, -0.5]", "--smoothing 0.5"),
    "quote-values/zero-on-support": quotes_fail(
        ["label,q", "h,0", "t,1"], 3,
        "UnsupportedOutcome: q(x) = 0 for an outcome with p(x) > 0: cross-entropy is infinite",
        "--smoothing 0"),
    # The sidecar's values are checked against the estimated marginal, so a
    # bad sum is reported after --resamples, --seed and --smoothing.
    **{f"after-options/{name}": quotes_fail(["label,q", "h,0.5", "t,0.6"], 3, message, options)
       for name, options, message in [
           ("resamples", "--resamples 50",
            "ResamplesBelowMinimum: resamples must be >= 100, got 50"),
           ("seed", "--seed -1", "DomainViolation: seed must be nonnegative"),
           ("smoothing", "--smoothing -1",
            "DomainViolation: smoothing must be finite and >= 0, got -1.0"),
       ]},
    # measure: its run options
    **{f"non-finite-smoothing/{bad}": fails(
        f"measure --in samples.csv --smoothing={bad}", 3,
        f"DomainViolation: smoothing must be finite and >= 0, got {bad}",
        files={"samples.csv": SAMPLES})
       for bad in ("nan", "inf", "-inf")},
    "smoothing-overflow": fails(
        "measure --in samples.csv --smoothing 5e307", 3,
        "DomainViolation: smoothing 5e+307 overflows the denominator N + smoothing * 4 cells",
        files={"samples.csv": SAMPLES}),
    "small-sample": Case(
        "measure --in samples.csv --resamples 100", stderr=SMALL_WARNING,
        stdout=strict_json(lambda report: report["small_sample"] is True),
        files={"samples.csv": SMALL_SAMPLES}),
    # A warning is written after every output, so a failed run prints only its error.
    "small-sample-failed-out": fails(
        "measure --in samples.csv --out nodir/x.json", 4,
        "FileNotFoundError: [Errno 2] No such file or directory: 'nodir/x.json'",
        files={"samples.csv": SMALL_SAMPLES}),
    "measure-rerun": Case("measure --in samples.csv --resamples 100 --seed 5", stderr=SMALL_WARNING,
                          stdout=strict_json(), files={"samples.csv": SMALL_SAMPLES}, rerun=True),
    # coin
    "coin-report/json": Case("coin --p-tail 0.5 --accuracy 0.9 --q-tail 0.4", stdout=strict_json()),
    "coin-report/csv-weak": Case(
        "coin --p-tail 0.3 --accuracy 0.8 --q-tail 0.45 --format csv",
        stdout=csv_fields(2)),
    # H(q) falls below H(X) here by rounding only.
    "eff-q-is-eff": Case(
        "coin --p-tail 1e-06 --accuracy 0.9 --q-tail 1e-06",
        stdout=strict_json(lambda r: r["mispricing_gap"] == 0.0 and r["eff_q"] == r["eff"])),
    # H(X) = 0 at a point mass: every entropy and gap there reads 0.0, not -0.0.
    "coin-point-mass": Case(POINT_MASS, stdout=POINT_MASS_JSON),
    # A parameter given as -0 is echoed as 0.0, by every report that echoes it.
    **{f"negative-zero/{name}": Case(argv, stdout=no_negative_zero, files={"samples.csv": SAMPLES})
       for name, argv in [
           ("coin", "coin --p-tail -0 --accuracy -0 --q-tail 0.5 --format csv"),
           ("simulate", "simulate --p-tail -0 --accuracy 0.9 --rounds 10"),
           ("measure", "measure --in samples.csv --smoothing -0 --resamples 100"),
       ]},
    "coin-domain": fails("coin --p-tail 1.5 --accuracy 0.5 --q-tail 0.5", 3,
                         "DomainViolation: p_tail must be in [0, 1], got 1.5"),
    "coin-domain-2": fails("coin --p-tail 2 --accuracy 0.5 --q-tail 0.4", 3,
                           "DomainViolation: p_tail must be in [0, 1], got 2.0"),
    # simulate
    "simulate-json": Case("simulate --accuracy 0.9 --rounds 1000", stdout=strict_json()),
    "simulate-rerun": Case("simulate --accuracy 0.8 --rounds 20000 --seed 5 --runs 3",
                           stdout=strict_json(), rerun=True),
    "simulate-rerun-short": Case("simulate --accuracy 0.9 --rounds 1000 --seed 5",
                                 stdout=strict_json(), rerun=True),
    "multiple-runs-trajectory": fails(
        "simulate --accuracy 0.9 --rounds 100 --runs 2 --trajectory-out t.csv", 3,
        "DomainViolation: --trajectory-out requires --runs 1", after={"t.csv": None}),
    **{f"runs-below-one/{runs}": fails(f"simulate --accuracy 0.9 --rounds 100 --runs {runs}", 3,
                                       f"DomainViolation: --runs must be >= 1, got {runs}")
       for runs in ("0", "-2")},
    **{f"trajectory-points/{points}": fails(
        f"simulate --accuracy 0.9 --rounds 100 --trajectory-out t.csv --trajectory-points {points}",
        3, f"DomainViolation: --trajectory-points must be >= 1, got {points}",
        after={"t.csv": None})
       for points in ("0", "-1")},
    # One file for both outputs would keep only the report, however its path is spelled.
    **{f"same-file/{name}": fails(
        f"simulate --accuracy 0.9 --rounds 100 --trajectory-points 3 --trajectory-out {traj} "
        f"--out {out}{options}", 3,
        f"DomainViolation: --trajectory-out {traj!r} and --out {out!r} name the same file",
        after={".": []})
       for name, traj, out, options in [
           ("same", "r.json", "r.json", ""),
           ("dot-slash", "r.json", "./r.json", ""),
           ("trailing-slash", "r.json", "r.json/", ""),
           ("csv", "r2.csv", "r2.csv", " --format csv"),
       ]},
    # figures
    "figures-rerun": Case("figures --which all --out-dir figs",
                          stdout="".join(f"figs/{name}\n" for name in FIGS).encode(), rerun=True),
    "figures-svg": Case("figures --which all --format svg --out-dir figs",
                        stdout=b"".join(f"figs/fig{n}.{ext}\n".encode()
                                        for n in (1, 2, 3, 4) for ext in ("csv", "svg"))),
    "figures-one": Case("figures --which 3 --format svg --out-dir figs",
                        stdout=b"figs/fig3.csv\nfigs/fig3.svg\n",
                        after={"figs": ["fig3.csv", "fig3.svg"]}),
    **{f"open-domain/{fmt}": fails(
        f"figures --points 2 --format {fmt} --out-dir figs", 3,
        "DomainViolation: eff_vs_q grid needs at least 3 points, got 2",
        files={"figs": []}, after={"figs": []})
       for fmt in ("csv", "svg")},
    # 3 points leave one inside the open domain of figures 3 and 4.
    "svg-below-two": fails("figures --points 3 --format svg --out-dir figs", 3,
                           "ValueError: line_chart needs at least 2 points, got 1",
                           files={"figs": []}, after={"figs": []}),
    # The output stage: a failed run leaves no file that it created.
    "failed-out-trajectory": fails(
        "simulate --accuracy 0.9 --rounds 100 --trajectory-out t.csv --out nodir/x.json", 4,
        "FileNotFoundError: [Errno 2] No such file or directory: 'nodir/x.json'",
        after={"t.csv": None}),
    # `keep.csv/` names the file `keep.csv`: the run overwrites it, as a
    # successful run would, and a later failure does not take it away.
    "trailing-slash": fails(
        "simulate --accuracy 0.9 --rounds 100 --trajectory-points 2 --trajectory-out keep.csv/ "
        "--out nodir/x.json", 4,
        "FileNotFoundError: [Errno 2] No such file or directory: 'nodir/x.json'", files=KEEP,
        after={"keep.csv": "round,log2_wealth\n1,0.8479969065549501\n100,56.27036564251419\n"}),
    # A destination whose open fails was not created by the run, so there is
    # nothing to unlink and the failure stays one line.
    **{f"unopenable-out/{name}": fails(f"{COIN} --out {shlex.quote(out)}", 4, message, files=KEEP,
                                       after={".": ["keep.csv"], "keep.csv": "keep\n"})
       for name, out, message in [
           ("empty", "", "IsADirectoryError: [Errno 21] Is a directory: '.'"),
           ("beneath_a_file", "keep.csv/x",
            "NotADirectoryError: [Errno 20] Not a directory: 'keep.csv/x'"),
           ("name_too_long", "a" * 300, f"OSError: [Errno 36] File name too long: '{'a' * 300}'"),
       ]},
    # A regular file or a dangling symlink that existed before the run is not
    # the run's own: it keeps what the run wrote through it.
    **{f"failed-write/{name}": fails(
        "figures --points 5 --out-dir figs", 4,
        "IsADirectoryError: [Errno 21] Is a directory: 'figs/fig3.csv'",
        files={"figs/fig3.csv": [], **before},
        after={"figs/fig3.csv": [], "figs/fig2.csv": None, "figs/fig1.csv": fig1,
               "target.csv": target})
       for name, before, fig1, target in [
           ("absent", {}, None, None),
           ("file", {"figs/fig1.csv": b"old\n"}, FIG1_5PT, None),
           ("dangling_symlink", {"figs/fig1.csv": Symlink("../target.csv")},
            Symlink("../target.csv"), FIG1_5PT),
       ]},
    # A strict stdout cannot print a path that holds a lone surrogate, so the
    # run fails and takes its files back; a surrogateescape one prints the byte.
    "undecodable-out-dir/strict": fails(
        "figures --points 3 --out-dir \udcff", 3,
        "UnicodeEncodeError: 'utf-8' codec can't encode character '\\udcff' in position 0: "
        "surrogates not allowed",
        env={"PYTHONIOENCODING": "utf-8:strict"}, after={"\udcff": []}),
    "undecodable-out-dir/surrogateescape": Case(
        "figures --points 3 --out-dir \udcff",
        stdout=b"".join(b"\xff/" + name.encode() + b"\n" for name in FIGS),
        env={"PYTHONIOENCODING": "utf-8:surrogateescape"}, after={"\udcff": FIGS}),
    # golden: byte-exact outputs, and the same reports written by --out
    **{f"golden/{name}": case for name, case in GOLDEN_STDOUT.items()},
    **{f"out-file/{name}": to_out_file(GOLDEN_STDOUT[golden]) for name, golden in [
        ("measure-json", "measure-json-quotes"), ("measure-csv", "measure-csv"),
        ("coin-json", "coin-fair-predictive-json"), ("coin-csv", "coin-biased-csv"),
        ("simulate-json", "simulate-json-3-runs"), ("simulate-csv", "simulate-csv"),
    ]},
    **{f"golden/fig{n}-csv-9pt": Case(f"figures --which {n} --out-dir figs --points 9",
                                      stdout=f"figs/fig{n}.csv\n".encode(),
                                      after={f"figs/fig{n}.csv": golden})
       for n, golden in [(1, GOLDEN_FIG1_9PT), (3, GOLDEN_FIG3_9PT)]},
    "golden/figures-svg-digests": Case(
        "figures --which all --format svg --out-dir figs",
        stdout="".join(f"figs/{name}\n" for name in GOLDEN_FIGURES_SVG_SHA256).encode(),
        after={"figs": list(GOLDEN_FIGURES_SVG_SHA256),
               **{f"figs/{name}": sha256(digest)
                  for name, digest in GOLDEN_FIGURES_SVG_SHA256.items()}}),
    "golden/simulate-trajectory": Case(
        "simulate --accuracy 0.9 --q-tail 0.6 --rounds 100003 --seed 5 "
        "--trajectory-out trajectory.csv --trajectory-points 9",
        stdout=strict_json(
            lambda r: r["run_results"][0]["final_log2_wealth"] == 55663.279956060636),
        after={"trajectory.csv": GOLDEN_TRAJECTORY_CSV}),
    # report: a report's values, each within its tolerance
    "report/measure-json-quotes": Case(
        "measure --in samples.csv --quotes quotes.csv --resamples 200 --seed 1",
        stdout=strict_json(
            lambda r: r["eff"] == pytest.approx(oracles.FROZEN_HB_09, abs=0.05)
            and "eff_q" in r and "h_q" in r and r["n_samples"] == 100
            and r["ci_low"] <= r["eff"] <= r["ci_high"]),
        files={"samples.csv": SAMPLES, "quotes.csv": lines("label,q", "h,0.5", "t,0.5")}),
    "report/measure-json-no-quotes": Case(
        "measure --in samples.csv --resamples 200",
        stdout=strict_json(lambda r: "eff_q" not in r and "h_q" not in r),
        files={"samples.csv": SAMPLES}),
    "report/measure-csv-out-file": Case(
        "measure --in samples.csv --resamples 200 --format csv --out report.csv",
        files={"samples.csv": SAMPLES},
        after={"report.csv": text(lambda s: s.startswith("key,value\n") and "\neff," in s)}),
    # A BOM on either input, or blank and comment lines in the sidecar,
    # change no byte of the report.
    **{f"report/{name}": replace(GOLDEN_STDOUT["measure-json-quotes"], files=files)
       for name, files in [
           ("bom-samples", {**WIDE_FILES, "wide.csv": BOM + WIDE}),
           ("bom-sidecar", {**WIDE_FILES, "quotes.csv": BOM + WIDE_FILES["quotes.csv"]}),
           ("sidecar-comments", {**WIDE_FILES, "quotes.csv": lines(
               "label,q", "", "# quoted at the close", *WIDE_QUOTES)}),
       ]},
    "report/coin-fair-predictable": Case(COIN, stdout=strict_json(
        lambda r: r["eff"] == pytest.approx(oracles.FROZEN_HB_09, abs=1e-12)
        and r["consistency_delta"] < 1e-10)),
    "report/coin-biased-fair-quotes": Case("coin --p-tail 0.9 --accuracy 0.5 --q-tail 0.9",
                                           stdout=strict_json(lambda r: r["eff_q"] == 1.0)),
    "report/coin-mispriced": Case(
        "coin --p-tail 0.5 --accuracy 0.5 --q-tail 0.05", stdout=strict_json(
            lambda r: r["eff_q"] == pytest.approx(oracles.FROZEN_EFFQ_005, abs=1e-12)
            and r["closed_form_eff_q"] == pytest.approx(r["eff_q"], abs=1e-10))),
    "report/simulate-matches-target": Case(
        "simulate --accuracy 0.9 --rounds 1000000 --seed 7", stdout=strict_json(
            lambda r: r["target_bits_per_round"] == pytest.approx(oracles.FROZEN_GMAX_09, abs=1e-12)
            and r["run_results"][0]["abs_error"] < 0.01)),
    "report/simulate-efficient-near-zero": Case(
        "simulate --accuracy 0.5 --rounds 100000 --seed 3",
        stdout=strict_json(lambda r: abs(r["aggregate_mean_growth"]) < 0.01)),
    "report/simulate-csv": Case(
        "simulate --accuracy 0.9 --rounds 5000 --seed 2 --runs 2 --format csv",
        stdout=text(lambda s: s.startswith(
            "run_index,rounds,seed,final_log2_wealth,mean_growth,target,abs_error\n")
            and s.count("\n") == 3)),
    "report/simulate-trajectory-out": Case(
        "simulate --accuracy 0.9 --rounds 5000 --seed 2 --trajectory-out trajectory.csv "
        "--trajectory-points 20", stdout=strict_json(),
        after={"trajectory.csv": text(
            lambda s: s.startswith("round,log2_wealth\n") and s.count("\n") == 21)}),
    "report/figures-all-csv": Case("figures --which all --out-dir figs",
                                   stdout=FIGS_OUT, after={"figs": FIGS}),
    **{f"report/fig{n}-{name}": Case(f"figures --which {n} --out-dir figs",
                                     stdout=f"figs/fig{n}.csv\n".encode(),
                                     after={f"figs/fig{n}.csv": figure(check)})
       for n, name, check in [
           (1, "peak", lambda t: max(t, key=lambda r: r[1]) == (0.5, 1.0)),
           (2, "endpoints", lambda t: t[0] == (0.0, 0.0) and t[-1] == (1.0, 0.0)),
           (4, "minimum", lambda t: min(t, key=lambda r: r[1]) == (0.5, 1.0)),
       ]},
    "report/figures-three-points": Case(
        "figures --points 3 --out-dir figs", stdout=FIGS_OUT,
        after={"figs/fig3.csv": text(lambda s: s.count("\n") == 2)}),
    "report/fig3-svg": Case(
        "figures --which 3 --out-dir figs --format svg", stdout=b"figs/fig3.csv\nfigs/fig3.svg\n",
        after={"figs/fig3.svg": text(
            lambda s: s.startswith("<svg") and "polyline" in s and "Eff_q" in s)}),
}


def check_path(path: Path, expected) -> None:
    if expected is None:
        assert not os.path.lexists(path), path
    elif isinstance(expected, Symlink):
        assert os.readlink(path) == expected.target, path
    elif isinstance(expected, list):
        assert sorted(p.name for p in path.iterdir()) == sorted(expected), path
    elif callable(expected):
        expected(path.read_bytes())
    else:
        assert path.read_bytes() == expected.encode("utf-8"), path


def run_case(case: Case, transport, tmp: Path) -> None:
    """Run `case` through `transport` in a fresh directory under `tmp` and check it."""
    runs = []
    for cwd in [tmp / "run1", tmp / "run2"][: 1 + case.rerun]:
        cwd.mkdir(parents=True)
        for name, data in case.files.items():
            path = cwd / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(data, Symlink):
                path.symlink_to(data.target)
            elif isinstance(data, list):
                path.mkdir()
            else:
                path.write_bytes(data)
        code, out, err = transport(shlex.split(case.argv), case.env, cwd)
        tree = {p.relative_to(cwd): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
        runs.append((code, out, err, tree))
    assert all(run == runs[0] for run in runs), "two runs differ"
    code, out, err, _ = runs[0]
    assert (code, err) == (case.code, case.stderr)
    if code != 0:
        assert code in {exit_code for _, exit_code in cli.EXIT_CODES}
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if isinstance(case.stdout, bytes):
        assert out == case.stdout
    else:
        case.stdout(out)
    for name, expected in case.after.items():
        check_path(tmp / "run1" / name, expected)


def main_transport(capsys, monkeypatch):
    """The in-process transport: `cli.main`, printing to a UTF-8 stdout.

    That stdout's error handler is the one PYTHONIOENCODING names in the
    case's environment, strict by default, as under pytest's capsys.
    """

    def transport(argv, env, cwd):
        encoding, _, errors = env.get("PYTHONIOENCODING", "utf-8:strict").partition(":")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding, errors=errors)
        with monkeypatch.context() as patch:
            patch.chdir(cwd)
            patch.setattr(sys, "stdout", stdout)
            code = cli.main(argv)
        stdout.flush()
        return code, stdout.buffer.getvalue(), capsys.readouterr().err

    return transport


def in_process(*ids: str):
    """A test method that runs the cases `ids` through `cli.main`, in order.

    One id ending in '/' names a group: the test is then parametrized over
    the group's cases, with the rest of each id as its pytest id.
    """
    if len(ids) == 1 and ids[0].endswith("/"):
        group = [case_id for case_id in CASES if case_id.startswith(ids[0])]
        assert group, ids

        @pytest.mark.parametrize("case_id", group, ids=[i[len(ids[0]):] for i in group])
        def test(self, case_id, tmp_path, capsys, monkeypatch):
            run_case(CASES[case_id], main_transport(capsys, monkeypatch), tmp_path)

        return test
    assert ids and set(ids) <= CASES.keys(), ids

    def test(self, tmp_path, capsys, monkeypatch):
        for n, case_id in enumerate(ids):
            run_case(CASES[case_id], main_transport(capsys, monkeypatch), tmp_path / str(n))

    return test


def console(argv, env, cwd):
    proc = subprocess.run([SCRIPT, *argv], cwd=cwd, env={**os.environ, **env},
                          capture_output=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr.decode("utf-8")


@pytest.mark.parametrize("case_id", CASES)
def test_in_process(case_id, tmp_path, capsys, monkeypatch):
    run_case(CASES[case_id], main_transport(capsys, monkeypatch), tmp_path)


@pytest.mark.skipif(SCRIPT is None, reason="the infoeff console script is not on PATH")
@pytest.mark.parametrize("case_id", CASES)
def test_console(case_id, tmp_path):
    run_case(CASES[case_id], console, tmp_path)


def test_after_checks_a_file_with_a_callable(tmp_path, capsys, monkeypatch):
    # A check on a file's bytes runs, and a failing one fails the case.
    def case(check):
        return Case("figures --points 3 --out-dir figs", stdout=FIGS_OUT,
                    after={"figs/fig1.csv": check})

    transport = main_transport(capsys, monkeypatch)
    run_case(case(figure(lambda t: t == [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])), transport,
             tmp_path / "holds")
    for n, check in enumerate([figure(lambda t: False), sha256("0" * 64)]):
        with pytest.raises(AssertionError):
            run_case(case(check), transport, tmp_path / str(n))


def test_console_step_runs_this_module():
    # Tier-1 runs this module, and with it `test_console` through the script
    # that `pip install -e` puts on PATH. The step before it only checks that
    # the script is there, so a missing script fails the job, and CI holds no
    # second run and no shell copy of the cases.
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    text = workflow.read_text(encoding="utf-8")
    commands = [line.split("run:", 1)[1].strip() for line in text.splitlines() if "run:" in line]
    assert all(command and command[0] not in "|>" for command in commands)  # one line each
    tier1 = text.split("\n  tier1:\n", 1)[1].split("\n  perfbench-selftest:\n", 1)[0]
    assert tier1.count("run:") == 3 and commands[:3] == [
        'pip install -e ".[test]"',
        "command -v infoeff",
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q"
        " --continue-on-collection-errors --durations=10",
    ]
    assert [c for c in commands if "infoeff" in c or "test_cli_cases" in c] == ["command -v infoeff"]
