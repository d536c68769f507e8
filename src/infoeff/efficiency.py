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

from .errors import DegenerateSystem, DomainViolation
from .measures import _conditional_entropies, _entropies, _neg_sum_plog2q, _quotes, clamp_nonneg
from .probability import Distribution, JointSystem, marginal_outcome

# Information-set labels. Metadata only: the math depends solely on the
# supplied joint/channel. Any other non-empty string is a custom label.
WEAK = "weak"
SEMI_STRONG = "semi_strong"
STRONG = "strong"


@dataclass(frozen=True, kw_only=True)
class EfficiencyReport:
    """Entropies (bits), efficiency ratios, growth rates, and gap decomposition.

    Quote-dependent fields (h_q, eff_q, g_max_q, mispricing_gap) are None
    when no quotes were supplied. `eff` is None only in the corner where
    quotes are supplied and H(X) = 0 (the plain ratio is 0/0 there).
    `info_set` must be a non-empty label free of CSV syntax: a comma, a
    double quote, CR or LF would forge cells in a CSV report. It must also
    encode as UTF-8, so a lone surrogate (an argv byte that is not UTF-8)
    fails here on every destination (DomainViolation otherwise).
    """

    # The field order is the output order of as_dict and of every report.
    eff: float | None
    eff_q: float | None = None
    h_x: float
    h_x_given_y: float
    h_q: float | None = None
    g_max: float
    g_max_q: float | None = None
    predictability_gap: float
    mispricing_gap: float | None = None
    info_set: str

    def __post_init__(self):
        if self.info_set == "":
            raise DomainViolation("info-set label must be non-empty")
        if any(c in self.info_set for c in ',"\r\n'):
            raise DomainViolation(
                "info-set label must not contain a comma, a double quote, CR or LF, "
                f"got {self.info_set!r}"
            )
        try:
            self.info_set.encode("utf-8")
        except UnicodeEncodeError:
            raise DomainViolation(
                f"info-set label must be valid UTF-8 text, got {self.info_set!r}"
            ) from None

    def as_dict(self) -> dict:
        """Flat dict with snake_case keys; absent quote fields are omitted."""
        return {k: v for k, v in vars(self).items() if v is not None}


def _fields(joints: np.ndarray, q: np.ndarray | None = None) -> list[dict]:
    """Every entropy, gap and ratio of the report on each joint of a stack (T, X, Y).

    The one scorer, of both reports and of every bootstrap resample.
    A gap within 1e-12 bits below 0 is rounding and clamps to 0 (further
    below is NumericalInconsistency); each ratio follows its clamped gap.
    Eff is None when H(X) = 0, 1.0 when H(X) - H(X|Y) clamps, else
    H(X|Y)/H(X). Given checked quote probabilities `q`, Eff_q is Eff when
    the mispricing gap H(q) - H(X) clamps (fair quotes: Eff_q never exceeds
    Eff), 1.0 when H(q) - H(X|Y) clamps, else H(X|Y)/H(q).
    """
    p_x = np.add.reduce(joints, axis=-1)
    h_xs, h_xys = _entropies(p_x).tolist(), _conditional_entropies(joints).tolist()
    h_qs = [None] * len(h_xs) if q is None else _neg_sum_plog2q(p_x, q).tolist()
    reports = []
    for h_x, h_xy, h_q in zip(h_xs, h_xys, h_qs):
        gap = clamp_nonneg(h_x - h_xy, "H(X) - H(X|Y)")
        eff = None if h_x == 0.0 else 1.0 if gap == 0.0 else h_xy / h_x
        fields = dict(eff=eff, h_x=h_x, h_x_given_y=h_xy, g_max=gap, predictability_gap=gap)
        if h_q is not None:
            mispricing_gap = clamp_nonneg(h_q - h_x, "H(q) - H(X)")
            g_max_q = clamp_nonneg(h_q - h_xy, "H(q) - H(X|Y)")
            eff_q = eff if mispricing_gap == 0.0 else 1.0 if g_max_q == 0.0 else h_xy / h_q
            fields.update(h_q=h_q, eff_q=eff_q, g_max_q=g_max_q, mispricing_gap=mispricing_gap)
        reports.append(fields)
    return reports


def efficiency(joint: JointSystem, info_set: str = STRONG) -> EfficiencyReport:
    """Eff(X|Y) = H(X|Y)/H(X) for the given system, without quotes.

    Raises DegenerateSystem when H(X) = 0: the ratio is 0/0 and the measure
    is undefined there; we refuse rather than define it.
    """
    fields = _fields(joint.joint[None])[0]
    if fields["h_x"] == 0.0:
        raise DegenerateSystem("H(X) = 0: efficiency is 0/0 and undefined")
    return EfficiencyReport(**fields, info_set=info_set)


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
    fields = _fields(joint.joint[None], _quotes(quotes, marginal_outcome(joint)).probs)[0]
    if fields["h_q"] == 0.0:
        raise DegenerateSystem("H(q) = 0: quote efficiency is 0/0 and undefined")
    return EfficiencyReport(**fields, info_set=info_set)
