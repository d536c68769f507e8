"""Efficiency measures and maximal growth rates for (outcome, signal) systems.

Efficiency is the ratio of remaining uncertainty to reference uncertainty:
H(X|Y)/H(X) against true probabilities, H(X|Y)/H(q) against anticipated
(quote) probabilities q. Both live in [0, 1]: 1 means the information is
worthless (fully efficient), 0 means outcomes are fully predictable.

The report also carries the maximal log2 growth rates achievable by optimal
betting — H(X)-H(X|Y) under fair quotes and H(q)-H(X|Y) under arbitrary
quotes — and the decomposition of the latter into a predictability gap
H(X)-H(X|Y) and a mispricing gap H(q)-H(X).

Pure functions on immutable inputs; thread-safe.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSystem,
    DomainViolation,
    LabelMismatch,
    MarginalMismatch,
    NumericalInconsistency,
    QuoteSumNotOne,
)
from .measures import clamp_nonneg, conditional_entropy, cross_entropy, entropy
from .probability import SUM_TOL, Distribution, JointSystem, marginal_outcome

# Information-set labels. Metadata only: the math depends solely on the
# supplied joint/channel. Any other non-empty string is a custom label.
WEAK = "weak"
SEMI_STRONG = "semi_strong"
STRONG = "strong"


@dataclass(frozen=True)
class EfficiencyReport:
    """Entropies (bits), efficiency ratios, growth rates, and gap decomposition.

    Quote-dependent fields (h_q, eff_q, g_max_q, mispricing_gap) are None
    when no quotes were supplied. `eff` is None only in the corner where
    quotes are supplied and H(X) = 0 (the plain ratio is 0/0 there).
    """

    h_x: float
    h_x_given_y: float
    eff: float | None
    g_max: float
    predictability_gap: float
    info_set: str
    h_q: float | None = None
    eff_q: float | None = None
    g_max_q: float | None = None
    mispricing_gap: float | None = None

    def as_dict(self) -> dict:
        """Flat dict with snake_case keys; absent quote fields are omitted."""
        out = {}
        for key in (
            "eff",
            "eff_q",
            "h_x",
            "h_x_given_y",
            "h_q",
            "g_max",
            "g_max_q",
            "predictability_gap",
            "mispricing_gap",
            "info_set",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def _unit_ratio(numerator: float, denominator: float, what: str) -> float:
    """numerator/denominator clamped into [0, 1].

    Both are entropies (nonnegative, denominator > 0), so the ratio can only
    leave [0, 1] upward, and only when the numerator exceeds the
    denominator. An excess within 1e-12 bits is floating-point cancellation
    and clamps to 1; more than that is a bug (NumericalInconsistency). The
    guard lives on the bits difference, not the ratio: near-degenerate
    systems divide by a tiny denominator, which magnifies harmless
    last-bit noise arbitrarily.
    """
    if numerator > denominator:
        if numerator - denominator > 1e-12:
            raise NumericalInconsistency(
                f"{what}: numerator {numerator!r} exceeds denominator "
                f"{denominator!r} by more than 1e-12 bits"
            )
        return 1.0
    return numerator / denominator


def efficiency(joint: JointSystem, info_set: str = STRONG) -> EfficiencyReport:
    """Eff(X|Y) = H(X|Y)/H(X) for the given system, without quotes.

    Raises DegenerateSystem when H(X) = 0: the ratio is 0/0 and the measure
    is undefined there; we refuse rather than define it.
    """
    h_x = entropy(marginal_outcome(joint))
    if h_x == 0.0:
        raise DegenerateSystem("H(X) = 0: efficiency is 0/0 and undefined")
    h_xy = conditional_entropy(joint)
    gap = clamp_nonneg(h_x - h_xy, "H(X) - H(X|Y)")
    return EfficiencyReport(
        h_x=h_x,
        h_x_given_y=h_xy,
        eff=_unit_ratio(h_xy, h_x, "Eff"),
        g_max=gap,
        predictability_gap=gap,
        info_set=info_set,
    )


def _as_quote_distribution(quotes, labels) -> Distribution:
    """The quote validator: a Distribution whose sum violation is QuoteSumNotOne."""
    if isinstance(quotes, Distribution):
        return quotes
    q = np.asarray(quotes, dtype=float)
    if q.ndim != 1 or len(q) != len(labels):
        raise LabelMismatch(f"{len(labels)} outcomes but {q.shape} quotes")
    total = float(np.sum(q))
    if not abs(total - 1.0) <= SUM_TOL:
        raise QuoteSumNotOne(
            f"quotes sum to {total!r}, not 1 within {SUM_TOL} (no-cost constraint)"
        )
    return Distribution(labels, q)


def efficiency_with_quotes(
    joint: JointSystem,
    quotes: Distribution | Sequence[float],
    info_set: str = STRONG,
) -> EfficiencyReport:
    """Eff_q(X|Y) = H(X|Y)/H(q) plus the full fair-quote report.

    `quotes` is the anticipated probability vector q over the outcome
    alphabet (a Distribution, or raw values summing to 1 within 1e-9).
    Requires q(x) > 0 wherever p(x) > 0. Raises DegenerateSystem only when
    H(q) = 0, which forces q = p degenerate and Eff_q = 0/0.
    """
    p_x = marginal_outcome(joint)
    q = _as_quote_distribution(quotes, p_x.labels)
    h_q = cross_entropy(p_x, q)
    h_x = entropy(p_x)
    h_xy = conditional_entropy(joint)
    if h_q == 0.0:
        raise DegenerateSystem("H(q) = 0: quote efficiency is 0/0 and undefined")
    predictability_gap = clamp_nonneg(h_x - h_xy, "H(X) - H(X|Y)")
    mispricing_gap = clamp_nonneg(h_q - h_x, "H(q) - H(X)")
    return EfficiencyReport(
        h_x=h_x,
        h_x_given_y=h_xy,
        eff=_unit_ratio(h_xy, h_x, "Eff") if h_x > 0.0 else None,
        g_max=predictability_gap,
        predictability_gap=predictability_gap,
        info_set=info_set,
        h_q=h_q,
        eff_q=_unit_ratio(h_xy, h_q, "Eff_q"),
        g_max_q=clamp_nonneg(h_q - h_xy, "H(q) - H(X|Y)"),
        mispricing_gap=mispricing_gap,
    )


def compare_info_sets(
    entries: Sequence[tuple[str, JointSystem]],
) -> list[EfficiencyReport]:
    """One efficiency report per (info-set label, joint), in the given order.

    All joints must share the outcome labels and the outcome marginal within
    1e-9 (MarginalMismatch otherwise): they are views of one system under
    different information sets.
    """
    if not entries:
        raise DomainViolation("compare_info_sets needs at least one (label, joint) entry")
    reference = marginal_outcome(entries[0][1])
    for label, joint in entries:
        p_x = marginal_outcome(joint)
        if p_x.labels != reference.labels:
            raise MarginalMismatch(
                f"outcome labels {p_x.labels} != {reference.labels} for {label!r}"
            )
        deviation = float(np.max(np.abs(p_x.probs - reference.probs)))
        if deviation > SUM_TOL:
            raise MarginalMismatch(
                f"outcome marginal for {label!r} deviates by {deviation!r} > {SUM_TOL}"
            )
    return [efficiency(joint, label) for label, joint in entries]
