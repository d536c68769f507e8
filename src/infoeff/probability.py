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
    if (p < 0.0).any():
        raise NegativeWeight(f"{what} has a negative entry: {p.tolist()}")
    total = float(p.sum())
    if not abs(total - 1.0) <= SUM_TOL:  # written so that NaN and inf fail it too
        raise SumNotOne(f"{what} sums to {total!r}, not 1 within {SUM_TOL}")


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over an ordered, unique outcome alphabet.

    Invariants: finite probs >= 0 summing to 1 within 1e-9, labels unique
    and non-empty. Construct via `make_distribution` / `normalize` or directly.
    """

    labels: Labels
    probs: np.ndarray

    def __post_init__(self):
        labels = _check_labels(self.labels, "distribution")
        probs = _frozen_array(self.probs)
        if probs.ndim != 1 or len(probs) != len(labels):
            raise LabelMismatch(
                f"{len(labels)} labels but {probs.shape} probabilities"
            )
        _check_prob_vector(probs, "distribution")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.labels)

    def prob(self, label: str) -> float:
        return float(self.probs[self.labels.index(label)])

    def as_dict(self) -> dict[str, float]:
        return {lbl: float(p) for lbl, p in zip(self.labels, self.probs)}


@dataclass(frozen=True, eq=False)
class Channel:
    """Conditional distribution p(output | input) as a row-stochastic matrix.

    Row i is a valid probability vector over `output_labels`, conditioned on
    input label i.
    """

    input_labels: Labels
    output_labels: Labels
    rows: np.ndarray

    def __post_init__(self):
        in_labels = _check_labels(self.input_labels, "channel input")
        out_labels = _check_labels(self.output_labels, "channel output")
        rows = _frozen_array(self.rows)
        if rows.ndim != 2 or rows.shape != (len(in_labels), len(out_labels)):
            raise LabelMismatch(
                f"channel matrix shape {rows.shape} does not match "
                f"{len(in_labels)} inputs x {len(out_labels)} outputs"
            )
        for i, lbl in enumerate(in_labels):
            _check_prob_vector(rows[i], f"channel row {lbl!r}")
        object.__setattr__(self, "input_labels", in_labels)
        object.__setattr__(self, "output_labels", out_labels)
        object.__setattr__(self, "rows", rows)

    def row_distribution(self, input_label: str) -> Distribution:
        i = self.input_labels.index(input_label)
        return Distribution(self.output_labels, self.rows[i])


@dataclass(frozen=True, eq=False)
class JointSystem:
    """Joint distribution p(outcome, signal), row-major by outcome.

    Invariants: finite cells >= 0, total sum = 1 within 1e-9. When built by
    `joint_from_prior_channel`, marginalizing the signals out reproduces the
    prior to within 1e-12.
    """

    outcome_labels: Labels
    signal_labels: Labels
    joint: np.ndarray

    def __post_init__(self):
        outcomes = _check_labels(self.outcome_labels, "outcome")
        signals = _check_labels(self.signal_labels, "signal")
        joint = _frozen_array(self.joint)
        if joint.ndim != 2 or joint.shape != (len(outcomes), len(signals)):
            raise LabelMismatch(
                f"joint shape {joint.shape} does not match "
                f"{len(outcomes)} outcomes x {len(signals)} signals"
            )
        _check_prob_vector(joint.ravel(), "joint")
        object.__setattr__(self, "outcome_labels", outcomes)
        object.__setattr__(self, "signal_labels", signals)
        object.__setattr__(self, "joint", joint)


def make_distribution(labels: Sequence[str], weights: Sequence[float]) -> Distribution:
    """Build a Distribution from exact probabilities.

    No renormalization: `weights` must already sum to 1 within 1e-9, else
    SumNotOne. Mispriced quote vectors must never be "fixed" invisibly.
    """
    return Distribution(tuple(labels), np.asarray(weights, dtype=float))


def normalize(labels: Sequence[str], weights: Sequence[float]) -> Distribution:
    """Build a Distribution proportional to nonnegative `weights`.

    Raises AllZero when no weight is positive and NegativeWeight on any
    negative entry. Idempotent by construction: a weight vector already
    summing to 1 at float-rounding precision is taken as-is (dividing by a
    sum that close to 1 could only shuffle last-place bits), and one
    division always lands in that regime, so normalizing an output of
    normalize returns it bit-for-bit.
    """
    w = np.asarray(weights, dtype=float)
    if (w < 0.0).any():
        raise NegativeWeight(f"weights contain a negative entry: {w.tolist()}")
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
    if channel.input_labels != prior.labels:
        raise LabelMismatch(
            f"channel inputs {channel.input_labels} != prior labels {prior.labels}"
        )
    joint = prior.probs[:, None] * channel.rows
    return JointSystem(prior.labels, channel.output_labels, joint)


def bayes_posterior(prior: Distribution, channel: Channel, signal: str) -> Distribution:
    """Posterior over outcomes given an observed signal, by the general Bayes rule.

    posterior(x) = prior(x) * channel(y|x) / sum_x' prior(x') * channel(y|x').
    Raises ZeroProbabilitySignal when the signal has zero marginal probability.
    """
    if channel.input_labels != prior.labels:
        raise LabelMismatch(
            f"channel inputs {channel.input_labels} != prior labels {prior.labels}"
        )
    if signal not in channel.output_labels:
        raise LabelMismatch(f"unknown signal label {signal!r}")
    j = channel.output_labels.index(signal)
    cells = prior.probs * channel.rows[:, j]
    total = float(cells.sum())
    if total <= 0.0:
        raise ZeroProbabilitySignal(
            f"signal {signal!r} has marginal probability 0"
        )
    return Distribution(prior.labels, cells / total)


def marginal_signal(joint: JointSystem) -> Distribution:
    """Marginal distribution over signals: p(y) = sum_x p(x, y)."""
    return Distribution(joint.signal_labels, joint.joint.sum(axis=0))


def marginal_outcome(joint: JointSystem) -> Distribution:
    """Marginal distribution over outcomes: p(x) = sum_y p(x, y)."""
    return Distribution(joint.outcome_labels, joint.joint.sum(axis=1))


def compose_channels(first: Channel, second: Channel) -> Channel:
    """Chain two channels: p(z|x) = sum_y p(y|x) p(z|y).

    `second` garbles (or refines) the output of `first`; its input labels
    must equal `first`'s output labels.
    """
    if second.input_labels != first.output_labels:
        raise LabelMismatch(
            f"second channel inputs {second.input_labels} != "
            f"first channel outputs {first.output_labels}"
        )
    return Channel(first.input_labels, second.output_labels, first.rows @ second.rows)
