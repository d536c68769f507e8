"""Entropy-based efficiency measurement for discrete event-generating systems.

Quantifies how efficient a system is on a 0-1 scale as the ratio of
remaining to total uncertainty (conditional entropy over entropy, or over
quote cross-entropy when payouts misprice the odds), verifies the
equivalence with optimal-betting growth by Monte Carlo simulation, and
estimates efficiency from sampled (signal, outcome) data with bootstrap
uncertainty.
"""

from .coin import (
    CoinGameParams,
    closed_form_efficiency_fair,
    closed_form_efficiency_unfair_quotes,
    closed_form_entropy,
    closed_form_quote_entropy,
    coin_components,
    coin_joint,
    sweep,
)
from .efficiency import (
    SEMI_STRONG,
    STRONG,
    WEAK,
    EfficiencyReport,
    compare_info_sets,
    efficiency,
    efficiency_with_quotes,
)
from .errors import (
    AllZero,
    DegenerateSystem,
    DomainViolation,
    DuplicateLabel,
    EmptyAlphabet,
    EmptyInput,
    InfoEffError,
    LabelMismatch,
    MarginalMismatch,
    NegativeWeight,
    NumericalInconsistency,
    ParseError,
    QuoteSumNotOne,
    ResamplesBelowMinimum,
    SumNotOne,
    UnsupportedAlphabet,
    UnsupportedOutcome,
    ZeroProbabilitySignal,
)
from .estimation import (
    EstimateReport,
    SampleSet,
    estimate_efficiency,
    estimate_joint,
    read_samples,
)
from .kelly import (
    MarketParams,
    SimulationResult,
    expected_log2_growth,
    grid_search_optimal,
    kelly_growth_target,
    kelly_strategy,
    simulate,
)
from .measures import (
    conditional_entropy,
    cross_entropy,
    entropy,
    mutual_information,
)
from .probability import (
    Channel,
    Distribution,
    JointSystem,
    bayes_posterior,
    compose_channels,
    joint_from_prior_channel,
    make_distribution,
    marginal_outcome,
    marginal_signal,
    normalize,
)

__version__ = "0.1.0"

__all__ = [
    "AllZero",
    "Channel",
    "CoinGameParams",
    "DegenerateSystem",
    "Distribution",
    "DomainViolation",
    "DuplicateLabel",
    "EfficiencyReport",
    "EmptyAlphabet",
    "EmptyInput",
    "EstimateReport",
    "InfoEffError",
    "JointSystem",
    "LabelMismatch",
    "MarginalMismatch",
    "MarketParams",
    "NegativeWeight",
    "NumericalInconsistency",
    "ParseError",
    "QuoteSumNotOne",
    "ResamplesBelowMinimum",
    "SEMI_STRONG",
    "STRONG",
    "SampleSet",
    "SimulationResult",
    "SumNotOne",
    "UnsupportedAlphabet",
    "UnsupportedOutcome",
    "WEAK",
    "ZeroProbabilitySignal",
    "bayes_posterior",
    "closed_form_efficiency_fair",
    "closed_form_efficiency_unfair_quotes",
    "closed_form_entropy",
    "closed_form_quote_entropy",
    "coin_components",
    "coin_joint",
    "compare_info_sets",
    "compose_channels",
    "conditional_entropy",
    "cross_entropy",
    "efficiency",
    "efficiency_with_quotes",
    "entropy",
    "estimate_efficiency",
    "estimate_joint",
    "expected_log2_growth",
    "grid_search_optimal",
    "joint_from_prior_channel",
    "kelly_growth_target",
    "kelly_strategy",
    "make_distribution",
    "marginal_outcome",
    "marginal_signal",
    "mutual_information",
    "normalize",
    "read_samples",
    "simulate",
    "sweep",
]
