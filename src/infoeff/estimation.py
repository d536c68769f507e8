"""Empirical efficiency from sampled (signal, outcome) records.

Records are tallied straight into the outcome x signal count table, the
sufficient statistic of every estimator here. The lines after the header
are read in bounded chunks of CHUNK_LINES and counted per distinct raw
line, and each chunk parses each of its distinct lines once, so parsing
memory depends on the number of cells plus one chunk, not on the number of
records.

The estimator is the plug-in (maximum likelihood) joint with optional
additive smoothing, default 0.5 (Jeffreys-style): cell = (count + s) /
(N + s*|X|*|Y|). Plug-in entropy biases low at small N, so efficiency can
bias low too; reports carry the sample size and a small-sample flag below
N = 10*|X|*|Y| rather than hiding the estimator's character.

Uncertainty comes from a seeded 95% percentile bootstrap (default 1000
resamples). Resampling records with replacement is performed as one
multinomial draw over the empirical cell counts per resample — the
bootstrap statistic depends on the records only through the contingency
table, so the two are distributionally identical. Resample r is drawn
from stream r // STREAM_RESAMPLES, the PCG64 generator seeded by `seed` and
jumped ahead that many times; stream 0 is `default_rng(seed)` itself. Each
stream draws its resamples in order, a block per `multinomial` call; a
sized call draws its rows in sequence, so no resample depends on the block,
and none on the thread that draws its stream.
One function, `efficiency._fields`, scores every report and every
resample: it returns one column per report field over a whole stack of
tables, so each resample's Eff and Eff_q are what `efficiency_with_quotes`
reads on its smoothed table, bit for bit, by construction.

Both input files share one line grammar: a mandatory header line
(``signal,outcome`` for samples, ``label,q`` for the quote sidecar), then
one record of two comma-separated non-empty fields per line. Blank lines
and comment lines starting with '#' may appear anywhere. Directive comments
``# signals: a,b`` / ``# outcomes: h,t`` before the samples header may declare
its alphabets (and their order); otherwise alphabets are the sorted observed
labels. Any other directive, a label outside a declared alphabet and a byte
that is not UTF-8 (kept as a lone surrogate by errors="surrogateescape") are
each a ParseError on its line, met in file order like any other.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import sys
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .efficiency import EfficiencyReport, _fields, _report
from .errors import (
    DegenerateSystem,
    DomainViolation,
    EmptyInput,
    LabelMismatch,
    ParseError,
    ResamplesBelowMinimum,
)
from .measures import _quotes
from .probability import Distribution, JointSystem, _labeled_array, marginal_outcome

MIN_RESAMPLES = 100
DEFAULT_SMOOTHING = 0.5
DEFAULT_RESAMPLES = 1000
BLOCK_CELLS = 2**16  # per bootstrap block; bounds the draw, not the 16 B kept per resample
CHUNK_LINES = 2**16  # lines tallied at a time; bounds parse memory whatever the records
STREAM_RESAMPLES = 1000  # resamples per jump-ahead stream of the bootstrap
# Threads that draw the streams: the usable CPUs. No output bit depends on it.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

HEADER = ("signal", "outcome")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Contingency table of observed records plus its alphabets.

    `table[i, j]` counts the records with outcome `outcome_labels[i]` and
    signal `signal_labels[j]`. Alphabets may be declared wider than the
    observed support (so smoothing can spread mass over unseen cells).
    """

    table: np.ndarray
    signal_labels: tuple[str, ...]
    outcome_labels: tuple[str, ...]

    def __post_init__(self):
        table = _labeled_array(self, "table", outcome_labels="outcome", signal_labels="signal")
        if not np.all(np.isfinite(table) & (table >= 0.0) & (table == np.floor(table))):
            raise DomainViolation("counts must be finite nonnegative integers")
        total = float(np.sum(table))  # a float, so it compares exactly with sys.maxsize
        if total == 0.0:
            raise EmptyInput("sample set has no records")
        if total > sys.maxsize:  # so len() holds the sample size
            raise DomainViolation(f"counts total {total!r}, more than {sys.maxsize} records")

    def __len__(self) -> int:
        return int(np.sum(self.table))

    def counts(self) -> np.ndarray:
        """Contingency table of raw counts, outcomes x signals."""
        return self.table


@dataclass(frozen=True)
class EstimateReport:
    """Point efficiency report with a bootstrap confidence interval.

    ci_low/ci_high bound `point.eff`; the quote-efficiency interval is
    present when quotes were supplied. The percentile interval is widened
    (if necessary) to contain the point estimate and clamped to [0, 1].
    """

    # The field order is the output order of the `measure` report.
    point: EfficiencyReport
    ci_low: float
    ci_high: float
    n_samples: int
    smoothing: float
    resamples: int
    seed: int
    small_sample: bool
    eff_q_ci_low: float | None = None
    eff_q_ci_high: float | None = None


def _parse_line(
    raw: str, columns: tuple[str, str], in_header: bool = False, alphabets: Sequence = ()
) -> tuple[str, object]:
    """Parse one raw line of a file headed `columns` into (kind, value).

    kind is "skip" (blank or plain comment), "directive" (value: key,
    labels; only while `in_header` and when `columns` is HEADER), "header"
    (only while `in_header`), "record" (value: the two fields, each in its
    column's alphabet where `alphabets` holds a non-empty one) or "error"
    (value: column, reason). The line number is the caller's to add.
    """
    if bad := re.search("[\udc80-\udcff]", raw):
        column = raw.count(",", 0, bad.start()) + 1
        return "error", (column, f"not valid UTF-8: byte 0x{ord(bad.group()) - 0xDC00:02x}")
    line = raw.strip()
    if line == "":
        return "skip", None
    if line.startswith("#"):
        head, sep, rest = line.lstrip("#").partition(":")
        key = head.strip().lower()
        if not sep or key not in ("signals", "outcomes"):
            return "skip", None
        labels = tuple(tok.strip() for tok in rest.split(","))
        if "" in labels:
            return "error", (1, f"empty label in '{key}' directive")
        if len(set(labels)) != len(labels):
            dup = next(lbl for lbl, n in Counter(labels).items() if n > 1)
            return "error", (1, f"duplicate label {dup!r} in '{key}' directive")
        if columns != HEADER:  # the alphabets are the samples file's to declare
            return "error", (1, f"{key!r} directive in a file headed {','.join(columns)!r}")
        if not in_header:  # so the alphabets are fixed before the first record
            return "error", (1, f"{key!r} directive after the header")
        return "directive", (key, labels)
    fields = [f.strip() for f in line.split(",")]
    if in_header:
        if len(fields) != 2:
            return "error", (1, "header must have exactly 2 columns")
        for col, (got, want) in enumerate(zip(fields, columns), start=1):
            if got != want:
                return "error", (col, f"unknown column {got!r} (expected {want!r})")
        return "header", None
    if len(fields) != 2:
        return "error", (1, f"expected 2 fields, got {len(fields)}")
    if "" in fields:
        col = fields.index("")
        return "error", (col + 1, f"empty {columns[col]} field")
    for col, (label, alphabet) in enumerate(zip(fields, alphabets)):
        if alphabet and label not in alphabet:
            return "error", (col + 1, f"{columns[col]} {label!r} not in declared alphabet")
    return "record", (fields[0], fields[1])


def _read_header(
    lines: Iterator[str], columns: tuple[str, str]
) -> tuple[dict[str, tuple[str, ...]], int]:
    """Read `lines` through the header `columns`: the directives before it, and its line number."""
    declared: dict[str, tuple[str, ...]] = {}
    for line_no, raw in enumerate(lines, start=1):
        kind, value = _parse_line(raw, columns, in_header=True)
        if kind == "error":
            raise ParseError(line_no, *value)
        if kind == "directive":
            if value[0] in declared:
                raise ParseError(line_no, 1, f"repeated {value[0]!r} directive")
            declared[value[0]] = value[1]
        elif kind == "header":
            return declared, line_no
    raise ParseError(1, 1, f"missing header line {','.join(columns)!r}")


def read_samples(source: Iterable[str]) -> SampleSet:
    """Parse a (signal, outcome) CSV stream into a SampleSet.

    `source` is any iterable of text lines (an open file works). Raises
    ParseError at the first bad line, or EmptyInput when the header is
    present but no records follow.
    """
    lines = iter(source)
    declared, line_no = _read_header(lines, HEADER)
    alphabets = [set(declared.get(key, ())) for key in ("signals", "outcomes")]  # empty: undeclared

    tally: Counter[tuple[str, str]] = Counter()
    while chunk := list(itertools.islice(lines, CHUNK_LINES)):
        # Counter keeps first-occurrence order, so the first error met is the
        # first bad line.
        for raw, count in Counter(chunk).items():
            kind, value = _parse_line(raw, HEADER, alphabets=alphabets)
            if kind == "record":
                tally[value] += count
            elif kind == "error":
                raise ParseError(line_no + chunk.index(raw) + 1, *value)
        line_no += len(chunk)

    if not tally:
        raise EmptyInput(f"no records after the header (line {line_no})")

    signal_labels = declared.get("signals") or tuple(sorted({s for s, _ in tally}))
    outcome_labels = declared.get("outcomes") or tuple(sorted({o for _, o in tally}))
    y_index = {lbl: j for j, lbl in enumerate(signal_labels)}
    x_index = {lbl: i for i, lbl in enumerate(outcome_labels)}
    table = np.zeros((len(outcome_labels), len(signal_labels)))
    for (signal, outcome), count in tally.items():
        table[x_index[outcome], y_index[signal]] = count
    return SampleSet(table, signal_labels, outcome_labels)


def _read_quotes(lines: Iterable[str], outcome_labels: tuple[str, ...]) -> list[float]:
    """Parse the lines of a `label,q` sidecar into its values in the order of `outcome_labels`."""
    lines, columns = iter(lines), ("label", "q")
    line_no = _read_header(lines, columns)[1]
    values: dict[str, float] = {}
    for line_no, raw in enumerate(lines, start=line_no + 1):
        kind, value = _parse_line(raw, columns)
        if kind == "error":
            raise ParseError(line_no, *value)
        if kind != "record":
            continue
        label, raw_q = value
        try:
            q = float(raw_q)
        except ValueError:
            raise ParseError(line_no, 2, f"not a number: {raw_q!r}") from None
        if label in values:
            raise ParseError(line_no, 1, f"duplicate quote label {label!r}")
        values[label] = q
    missing = [lbl for lbl in outcome_labels if lbl not in values]
    extra = [lbl for lbl in values if lbl not in outcome_labels]
    if missing or extra:
        raise LabelMismatch(
            f"quote labels do not match outcome alphabet: missing {missing}, extra {extra}"
        )
    return [values[lbl] for lbl in outcome_labels]


def _smoothed_joint(counts: np.ndarray, smoothing: float) -> np.ndarray:
    totals = np.add.reduce(counts, axis=(-2, -1), keepdims=True)
    return (counts + smoothing) / (totals + smoothing * (counts.shape[-2] * counts.shape[-1]))


def estimate_joint(samples: SampleSet, smoothing: float = DEFAULT_SMOOTHING) -> JointSystem:
    """Plug-in joint estimate with additive smoothing.

    cell(x, y) = (count(x, y) + smoothing) / (N + smoothing * |X| * |Y|).
    With smoothing 0 an unobserved cell is exactly 0. A smoothing that is
    not finite and >= 0 (NaN, inf), or so large that the denominator
    overflows, raises DomainViolation.
    """
    if not 0.0 <= smoothing < math.inf:  # written so that NaN fails it too
        raise DomainViolation(f"smoothing must be finite and >= 0, got {smoothing!r}")
    counts = samples.counts()
    # N < 2^63 is far below an ulp of the largest double: only the product can overflow.
    if not math.isfinite(smoothing * counts.size):
        raise DomainViolation(
            f"smoothing {smoothing!r} overflows the denominator N + smoothing * {counts.size} cells"
        )
    joint = _smoothed_joint(counts, smoothing)
    return JointSystem(samples.outcome_labels, samples.signal_labels, joint)


def _bootstrap(
    counts: np.ndarray, smoothing: float, q: np.ndarray | None, resamples: int, seed: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eff (and Eff_q) of each resample, scored by the reports' own _fields; NaN where 0/0.

    Stream s = r // STREAM_RESAMPLES draws resample r. A pool of
    W = min(streams, WORKERS) threads takes the streams in order, and each
    stream draws blocks of BLOCK_CELLS // (cells * W) resamples at most, so
    no more than BLOCK_CELLS cells are drawn at once. With W = 1 (one stream,
    or one CPU) the caller draws every stream itself and starts no thread.
    The error raised is that of the first failing stream in stream order.
    Once the caller stops waiting, on an error or an interrupt, streams not
    yet started are cancelled, running ones finish, and every pool thread is
    joined before the exception leaves. One gap: after an interrupt inside the
    pool's own thread start, a thread it had not yet registered ends its
    current stream after the call returns.
    """
    n = int(counts.sum())
    p_flat = (counts / n).reshape(-1)
    starts = range(0, resamples, STREAM_RESAMPLES)
    workers = min(len(starts), WORKERS)
    per_block = max(1, BLOCK_CELLS // (counts.size * workers))
    effs, effs_q = np.empty(resamples), None if q is None else np.empty(resamples)

    def draw(start: int) -> None:
        rng = np.random.Generator(np.random.PCG64(seed).jumped(start // STREAM_RESAMPLES))
        end = min(start + STREAM_RESAMPLES, resamples)
        for row in range(start, end, per_block):
            block = slice(row, min(row + per_block, end))
            draws = rng.multinomial(n, p_flat, size=block.stop - block.start)
            tables = draws.reshape(-1, *counts.shape).astype(float)
            fields = _fields(_smoothed_joint(tables, smoothing), q)
            effs[block] = fields["eff"]
            if effs_q is not None:
                effs_q[block] = fields["eff_q"]

    if workers == 1:
        for start in starts:
            draw(start)
    else:
        # Imported here: it loads logging (~7 ms, 0.6 MB), and most runs draw one stream.
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
        try:
            for _ in pool.map(draw, starts):
                pass
        finally:
            pool.shutdown(cancel_futures=True)
    return effs, effs_q


def _percentile_ci(values: np.ndarray, point: float) -> tuple[float, float]:
    valid = values[~np.isnan(values)]
    if len(valid) == 0:
        lo = hi = point
    else:
        lo, hi = np.percentile(valid, [2.5, 97.5])
    lo = max(0.0, min(float(lo), point))
    hi = min(1.0, max(float(hi), point))
    return lo, hi


def estimate_efficiency(
    samples: SampleSet,
    smoothing: float = DEFAULT_SMOOTHING,
    quotes: Distribution | Sequence[float] | None = None,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> EstimateReport:
    """Point efficiency estimate with a seeded 95% percentile-bootstrap CI.

    `quotes` (a Distribution or raw values, as for efficiency_with_quotes)
    switches on the quote-efficiency fields; they are checked once, against
    the estimated outcome marginal. Raises DegenerateSystem when the
    estimated outcome marginal has zero entropy, and ResamplesBelowMinimum
    when `resamples` < 100.
    """
    if resamples < MIN_RESAMPLES:
        raise ResamplesBelowMinimum(
            f"resamples must be >= {MIN_RESAMPLES}, got {resamples}"
        )
    if seed < 0:
        raise DomainViolation("seed must be nonnegative")

    joint = estimate_joint(samples, smoothing)
    q = None if quotes is None else _quotes(quotes, marginal_outcome(joint)).probs
    point = _report(joint, q)
    if point.eff is None:
        raise DegenerateSystem("estimated outcome marginal has zero entropy")

    n = len(samples)
    counts = samples.counts()
    small = n < 10 * counts.size
    if small:
        warnings.warn(
            f"only {n} samples for {counts.size} cells; "
            "plug-in efficiency biases low at small N",
            stacklevel=2,
        )

    effs, effs_q = _bootstrap(counts, smoothing, q, resamples, seed)
    ci_low, ci_high = _percentile_ci(effs, point.eff)
    eff_q_ci = (None, None) if q is None else _percentile_ci(effs_q, point.eff_q)

    return EstimateReport(
        point=point,
        ci_low=ci_low,
        ci_high=ci_high,
        n_samples=n,
        smoothing=float(smoothing) + 0.0,  # -0.0 is stored as 0.0
        resamples=resamples,
        seed=seed,
        small_sample=small,
        eff_q_ci_low=eff_q_ci[0],
        eff_q_ci_high=eff_q_ci[1],
    )
