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
    NonpositiveQuote,
    NumericalInconsistency,
    UnsupportedOutcome,
)
from .probability import Distribution, JointSystem, marginal_outcome

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
    (p, q). p and q have the same shape; leading axes are a batch.
    """
    mask = p > 0.0
    # Cells with p <= 0 (including -0.0) are never written and stay +0.0.
    terms = np.log2(q, where=mask, out=np.zeros_like(p))
    np.multiply(terms, p, out=terms, where=mask)
    return -terms.sum(axis=-1)


def _conditional_entropies(joint: np.ndarray) -> np.ndarray:
    """H(X|Y) of each joint in a stack shaped (..., X, Y).

    Every sum runs along a contiguous last axis, and signals accumulate
    one by one from +0.0, so degenerate slices stay bit-exact against the
    marginal entropy.
    """
    columns = np.ascontiguousarray(np.swapaxes(joint, -1, -2))
    p_y = columns.sum(axis=-1)
    # A zero-probability column is all zeros, so dividing it by 1 keeps it so.
    cond = columns / np.where(p_y > 0.0, p_y, 1.0)[..., None]
    terms = p_y * _neg_sum_plog2q(cond, cond)
    total = 0.0
    for term in np.moveaxis(terms, -1, 0):
        total = total + term
    return total


def entropy(dist: Distribution) -> float:
    """H(X) = -sum_x p(x) log2 p(x), in bits."""
    return float(_neg_sum_plog2q(dist.probs, dist.probs))


def conditional_entropy(joint: JointSystem) -> float:
    """H(X|Y) = -sum_y p(y) sum_x p(x|y) log2 p(x|y), in bits."""
    return float(_conditional_entropies(joint.joint))


def mutual_information(joint: JointSystem) -> float:
    """M(X, Y) = H(X) - H(X|Y), in bits, clamped at -1e-12 to 0."""
    value = entropy(marginal_outcome(joint)) - conditional_entropy(joint)
    return clamp_nonneg(value, "mutual information")


def _check_quotes(p: Distribution, q: Distribution) -> None:
    """Quotes q must share p's alphabet and be > 0 wherever p(x) > 0."""
    if q.labels != p.labels:
        raise LabelMismatch(f"quote labels {q.labels} != outcome labels {p.labels}")
    if ((p.probs > 0.0) & (q.probs == 0.0)).any():
        raise UnsupportedOutcome(
            "q(x) = 0 for an outcome with p(x) > 0: cross-entropy is infinite"
        )


def cross_entropy(p: Distribution, q: Distribution) -> float:
    """H(q) = -sum_x p(x) log2 q(x), in bits.

    Requires identical alphabets and q(x) > 0 wherever p(x) > 0;
    otherwise the cross-entropy is infinite (UnsupportedOutcome).
    """
    _check_quotes(p, q)
    return float(_neg_sum_plog2q(p.probs, q.probs))


def quote_entropy(p: Distribution, alphas: Sequence[float]) -> float:
    """sum_x p(x) log2 alpha_x for a payout-quote vector, in bits.

    Equals cross_entropy(p, q) when alpha_x = 1/q_x. Quotes on
    zero-probability outcomes are ignored; a quote on a supported outcome
    that is not finite and positive (NaN, inf, 0 or below) raises
    NonpositiveQuote.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or len(a) != len(p):
        raise LabelMismatch(f"{len(p)} outcomes but {a.shape} quotes")
    supported = a[p.probs > 0.0]
    if not (np.isfinite(supported) & (supported > 0.0)).all():
        raise NonpositiveQuote(
            "quote must be finite and positive on every supported outcome, "
            f"got {a.tolist()}"
        )
    return float(-_neg_sum_plog2q(p.probs, a))
