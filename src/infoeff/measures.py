"""Shannon quantities in bits (log base 2) on finite discrete systems.

All values are plain floats in bits. The convention 0*log2(0) = 0 applies
throughout. Negative results from floating-point cancellation are clamped
to 0 only when within 1e-12 of zero; anything more negative raises
NumericalInconsistency, separating rounding from bugs.

Pure functions on immutable inputs; unconditionally thread-safe.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import (
    LabelMismatch,
    NumericalInconsistency,
    QuoteSumNotOne,
    UnsupportedOutcome,
)
from .probability import SUM_TOL, Distribution, JointSystem, _same_alphabet

CANCEL_TOL = 1e-12


def clamp_nonneg(value: float, what: str) -> float:
    """Clamp tiny negative cancellation noise to 0; reject real negatives."""
    if value < 0.0:
        if value < -CANCEL_TOL:
            raise NumericalInconsistency(f"{what} = {value!r} < -{CANCEL_TOL}")
        return 0.0
    return value


def _neg_sum_plog2q(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """-sum p * log2 q over the last axis, with 0 * log2 q = 0.

    The one entropy kernel: H(p) is (p, p), the cross-entropy H(q) is
    (p, q). q broadcasts against p; leading axes are a batch.
    """
    mask = p > 0.0
    # Cells with p <= 0 (including -0.0) are never written and stay +0.0.
    terms = np.log2(q, where=mask, out=np.zeros(p.shape))
    np.multiply(terms, p, out=terms, where=mask)
    return -np.add.reduce(terms, axis=-1)


def _entropies(p: np.ndarray) -> np.ndarray:
    """H(p) of each vector along the last axis: exactly +0.0 on a one-point support.

    A marginal summed from one nonzero row can miss 1 by a rounding step
    (0.9999999999999999, whose -p log2 p is 1.6e-16), so H = 0 is decided
    from the support, not by a tolerance: multiplying by False zeroes it.
    Adding +0.0 turns the kernel's -0.0 (a negated sum of zeros) into +0.0.
    """
    return _neg_sum_plog2q(p, p) * (np.add.reduce(p > 0.0, axis=-1) != 1) + 0.0


def _conditional_entropies(joint: np.ndarray) -> np.ndarray:
    """H(X|Y) of each joint in a stack shaped (..., X, Y).

    Every sum runs along a contiguous last axis, and signals accumulate
    one by one from +0.0, so degenerate slices stay bit-exact against the
    marginal entropy.
    """
    columns = np.ascontiguousarray(joint.swapaxes(-1, -2))
    p_y = np.add.reduce(columns, axis=-1)
    # A zero-probability column is all zeros, so dividing it by 1 keeps it so.
    cond = columns / np.where(p_y > 0.0, p_y, 1.0)[..., None]
    terms = p_y * _neg_sum_plog2q(cond, cond)
    total = 0.0
    for j in range(terms.shape[-1]):
        total = total + terms[..., j]
    return total


def entropy(dist: Distribution) -> float:
    """H(X) = -sum_x p(x) log2 p(x), in bits."""
    return float(_entropies(dist.probs))


def conditional_entropy(joint: JointSystem) -> float:
    """H(X|Y) = -sum_y p(y) sum_x p(x|y) log2 p(x|y), in bits."""
    return float(_conditional_entropies(joint.joint))


def mutual_information(joint: JointSystem) -> float:
    """M(X, Y) = H(X) - H(X|Y), in bits: the reports' predictability gap, clamped as there."""
    from .efficiency import _fields  # efficiency imports this module

    return _fields(joint.joint[None])[0]["predictability_gap"]


def _quotes(quotes: Distribution | Sequence[float], p: Distribution) -> Distribution:
    """The quote validator: `quotes` as a Distribution over p's alphabet.

    Raw values: a flat vector of len(p) values (LabelMismatch) summing to 1
    within 1e-9 (QuoteSumNotOne). Then p's labels in p's order
    (LabelMismatch) and q(x) > 0 wherever p(x) > 0 (UnsupportedOutcome).
    """
    if not isinstance(quotes, Distribution):
        values = np.asarray(quotes, dtype=float)
        if values.ndim != 1 or len(values) != len(p):
            raise LabelMismatch(f"{len(p)} outcomes but {values.shape} quotes")
        total = float(np.add.reduce(values))
        if not abs(total - 1.0) <= SUM_TOL:
            raise QuoteSumNotOne(
                f"quotes sum to {total!r}, not 1 within {SUM_TOL} (no-cost constraint)"
            )
        quotes = Distribution(p.labels, values)
    _same_alphabet(quotes.labels, p.labels, "quote labels", "outcome labels")
    if np.logical_or.reduce((p.probs > 0.0) & (quotes.probs == 0.0)):
        raise UnsupportedOutcome(
            "q(x) = 0 for an outcome with p(x) > 0: cross-entropy is infinite"
        )
    return quotes


def cross_entropy(p: Distribution, q: Distribution | Sequence[float]) -> float:
    """H(q) = -sum_x p(x) log2 q(x), in bits.

    q is a Distribution or raw values under the one quote rule (_quotes);
    q(x) = 0 where p(x) > 0 makes it infinite (UnsupportedOutcome). A
    zero is +0.0, never -0.0.
    """
    return float(_neg_sum_plog2q(p.probs, _quotes(q, p).probs) + 0.0)
