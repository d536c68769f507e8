"""Finite discrete distributions, channels, joints, and Bayes inversion.

The substrate every other module consumes. All types are immutable after
construction and all operations are pure functions, so everything here is
safe to share across threads.

Conventions: probabilities are 64-bit floats; labels are ordered; matrices
are row-major by outcome. There is no silent renormalization anywhere —
`make_distribution` takes exact probabilities, `normalize` is explicit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZero,
    DuplicateLabel,
    EmptyAlphabet,
    LabelMismatch,
    NegativeWeight,
    SumNotOne,
    ZeroProbabilitySignal,
)

SUM_TOL = 1e-9
# normalize() skips the division when the sum is already this close to 1;
# well above what pairwise float summation can leave behind, well below
# anything a genuine renormalization would fix.
NORMALIZED_TOL = 1e-13

Labels = tuple[str, ...]


def _check_labels(labels: Sequence[str], what: str) -> Labels:
    labels = tuple(map(str, labels))
    if len(labels) == 0:
        raise EmptyAlphabet(f"{what} alphabet is empty")
    if "" in labels:
        raise EmptyAlphabet(f"{what} alphabet contains an empty label")
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"{what} alphabet has duplicate labels: {labels}")
    return labels


def _check_prob_vector(p: np.ndarray, what: str) -> None:
    # fmin skips NaN: a NaN beside a negative entry is still NegativeWeight.
    if np.fmin.reduce(p) < 0.0:
        raise NegativeWeight(f"{what} has a negative entry: {p.tolist()}")
    total = float(np.add.reduce(p))
    if not abs(total - 1.0) <= SUM_TOL:  # written so that NaN and inf fail it too
        raise SumNotOne(f"{what} sums to {total!r}, not 1 within {SUM_TOL}")


def _labeled_array(obj, field: str, **alphabets: str) -> np.ndarray:
    """Validate and store a labeled table's alphabets and its array, in place.

    `alphabets` maps each label field of `obj`, in the order of the array's
    axes, to the name its errors use. Each alphabet is checked and stored as
    a tuple; `field` is stored as a read-only, C-ordered float array whose
    shape must be the alphabet sizes (LabelMismatch). Returns the array.
    """
    sizes = []
    for name, what in alphabets.items():
        labels = _check_labels(getattr(obj, name), what)
        object.__setattr__(obj, name, labels)
        sizes.append(len(labels))
    arr = np.array(getattr(obj, field), dtype=float, order="C")
    arr.setflags(write=False)
    if arr.shape != tuple(sizes):
        raise LabelMismatch(
            f"{field} shape {arr.shape} does not match alphabet sizes {tuple(sizes)}"
        )
    object.__setattr__(obj, field, arr)
    return arr


def _label_index(labels: Labels, label: str, what: str) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise LabelMismatch(f"unknown {what} label {label!r}") from None


def _same_alphabet(got: Labels, want: Labels, got_name: str, want_name: str) -> None:
    if got != want:
        raise LabelMismatch(f"{got_name} {got} != {want_name} {want}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over an ordered, unique outcome alphabet.

    Invariants: finite probs >= 0 summing to 1 within 1e-9, labels unique
    and non-empty. Construct via `make_distribution` / `normalize` or directly.
    """

    labels: Labels
    probs: np.ndarray

    def __post_init__(self):
        _check_prob_vector(_labeled_array(self, "probs", labels="distribution"), "distribution")

    def __len__(self) -> int:
        return len(self.labels)

    def prob(self, label: str) -> float:
        return float(self.probs[_label_index(self.labels, label, "distribution")])

    def as_dict(self) -> dict[str, float]:
        return {lbl: float(p) for lbl, p in zip(self.labels, self.probs)}


@dataclass(frozen=True, eq=False)
class Channel:
    """Conditional distribution p(output | input) as a row-stochastic matrix.

    Row i is a valid probability vector over `output_labels`, conditioned on
    input label i, and checked as a Distribution's probs are; the first bad row raises.
    """

    input_labels: Labels
    output_labels: Labels
    rows: np.ndarray

    def __post_init__(self):
        rows = _labeled_array(
            self, "rows", input_labels="channel input", output_labels="channel output"
        )
        for lbl, row in zip(self.input_labels, rows):
            _check_prob_vector(row, f"channel row {lbl!r}")

    def row_distribution(self, input_label: str) -> Distribution:
        i = _label_index(self.input_labels, input_label, "channel input")
        return Distribution(self.output_labels, self.rows[i])


@dataclass(frozen=True, eq=False)
class JointSystem:
    """Joint distribution p(outcome, signal), row-major by outcome.

    Invariants: finite cells >= 0, total sum = 1 within 1e-9. When built by
    `joint_from_prior_channel`, summing the signals out of row x gives
    prior(x) times the sum of channel row x, so it is within prior(x) * 1e-9
    of the prior, plus rounding.
    """

    outcome_labels: Labels
    signal_labels: Labels
    joint: np.ndarray

    def __post_init__(self):
        joint = _labeled_array(self, "joint", outcome_labels="outcome", signal_labels="signal")
        _check_prob_vector(joint.ravel(), "joint")


def make_distribution(labels: Sequence[str], weights: Sequence[float]) -> Distribution:
    """Build a Distribution from exact probabilities.

    No renormalization: `weights` must already sum to 1 within 1e-9, else
    SumNotOne. Mispriced quote vectors must never be "fixed" invisibly.
    """
    return Distribution(tuple(labels), np.asarray(weights, dtype=float))


def normalize(labels: Sequence[str], weights: Sequence[float]) -> Distribution:
    """Build a Distribution proportional to nonnegative `weights`.

    Raises NegativeWeight on any negative entry, SumNotOne on a NaN or
    infinite weight and AllZero when no weight is positive. Finite weights
    whose sum overflows are first divided by the largest one. Idempotent by
    construction: a weight vector already summing to 1 at float-rounding
    precision is taken as-is (dividing by a sum that close to 1 could only
    shuffle last-place bits), and one division always lands in that regime,
    so normalizing an output of normalize returns it bit-for-bit.
    """
    w = np.asarray(weights, dtype=float)
    if (w < 0.0).any():
        raise NegativeWeight(f"weights contain a negative entry: {w.tolist()}")
    if not np.isfinite(w).all():
        raise SumNotOne(f"weights must be finite, got {w.tolist()}")
    with np.errstate(over="ignore"):
        s = float(w.sum())
    if s == np.inf:
        w = w / w.max()
        s = float(w.sum())
    if s <= 0.0:
        raise AllZero("all weights are zero")
    if abs(s - 1.0) <= NORMALIZED_TOL:
        return Distribution(tuple(labels), w)
    return Distribution(tuple(labels), w / s)


def joint_from_prior_channel(prior: Distribution, channel: Channel) -> JointSystem:
    """Joint p(x, y) = prior(x) * channel(y | x).

    Channel input labels must equal the prior labels (LabelMismatch).
    """
    _same_alphabet(channel.input_labels, prior.labels, "channel inputs", "prior labels")
    joint = prior.probs[:, None] * channel.rows
    return JointSystem(prior.labels, channel.output_labels, joint)


def _bayes_rows(prior: Distribution, channel: Channel, signals: Labels) -> np.ndarray:
    """Posterior rows p(x|y) = prior(x) channel(y|x) / p(y), one per signal in `signals`.

    Each p(y) is a sum along a contiguous row, so a row's bits do not depend on
    which others are asked for. ZeroProbabilitySignal names the first with p(y) = 0.
    """
    _same_alphabet(channel.input_labels, prior.labels, "channel inputs", "prior labels")
    picked = [_label_index(channel.output_labels, y, "signal") for y in signals]
    cells = np.multiply(channel.rows.T[picked], prior.probs, order="C")
    totals = np.add.reduce(cells, axis=-1, keepdims=True)
    if np.fmin.reduce(totals, axis=None) <= 0.0:
        dead = signals[totals.argmin()]
        raise ZeroProbabilitySignal(f"signal {dead!r} has marginal probability 0")
    return cells / totals


def bayes_posterior(prior: Distribution, channel: Channel, signal: str) -> Distribution:
    """Posterior over outcomes given an observed signal, by the general Bayes rule.

    Raises ZeroProbabilitySignal when the signal has zero marginal probability.
    """
    return Distribution(prior.labels, _bayes_rows(prior, channel, (signal,))[0])


def marginal_signal(joint: JointSystem) -> Distribution:
    """Marginal distribution over signals: p(y) = sum_x p(x, y)."""
    return Distribution(joint.signal_labels, np.add.reduce(joint.joint, axis=0))


def marginal_outcome(joint: JointSystem) -> Distribution:
    """Marginal distribution over outcomes: p(x) = sum_y p(x, y)."""
    return Distribution(joint.outcome_labels, np.add.reduce(joint.joint, axis=1))


def compose_channels(first: Channel, second: Channel) -> Channel:
    """Chain two channels: p(z|x) = sum_y p(y|x) p(z|y).

    `second` garbles (or refines) the output of `first`; its input labels
    must equal `first`'s output labels.
    """
    _same_alphabet(
        second.input_labels, first.output_labels, "second channel inputs", "first channel outputs"
    )
    return Channel(first.input_labels, second.output_labels, first.rows @ second.rows)
