"""Semantic exception hierarchy.

Every error raised by this package derives from InfoEffError, so callers can
catch the whole family with one except clause. Contract violations also
derive from ValueError to stay idiomatic.
"""


class InfoEffError(Exception):
    """Base class for all errors raised by this package."""


class NegativeWeight(InfoEffError, ValueError):
    """A probability weight or joint cell is negative."""


class SumNotOne(InfoEffError, ValueError):
    """Probabilities do not sum to 1 within the stated tolerance."""


class QuoteSumNotOne(SumNotOne):
    """A quote vector violates the no-cost constraint sum(q) = 1."""


class DuplicateLabel(InfoEffError, ValueError):
    """An alphabet contains a repeated label."""


class EmptyAlphabet(InfoEffError, ValueError):
    """An alphabet is empty, or a label is the empty string."""


class AllZero(InfoEffError, ValueError):
    """normalize() received a weight vector with no positive entry."""


class LabelMismatch(InfoEffError, ValueError):
    """Two objects that must share an alphabet (or shape) do not."""


class ZeroProbabilitySignal(InfoEffError, ValueError):
    """A posterior was requested for a signal with zero marginal probability."""


class UnsupportedOutcome(InfoEffError, ValueError):
    """q(x) = 0 for an outcome with p(x) > 0 (infinite cross-entropy)."""


class NonpositiveQuote(InfoEffError, ValueError):
    """A payout quote is not finite and positive where the outcome has probability."""


class DegenerateSystem(InfoEffError, ValueError):
    """The efficiency ratio is 0/0 (zero reference entropy); refused."""


class MarginalMismatch(InfoEffError, ValueError):
    """Joint systems that must share an outcome marginal do not."""


class DomainViolation(InfoEffError, ValueError):
    """A parameter lies outside its valid domain."""


class UnsupportedAlphabet(InfoEffError, ValueError):
    """The operation is restricted to binary outcome alphabets."""


class ResamplesBelowMinimum(InfoEffError, ValueError):
    """Bootstrap CI requested with fewer resamples than the minimum of 100."""


class EmptyInput(InfoEffError, ValueError):
    """A sample source contained a header but no data records."""


class NumericalInconsistency(InfoEffError, FloatingPointError):
    """A quantity that must be nonnegative came out negative beyond rounding.

    Raised instead of clamping when the violation exceeds 1e-12, to separate
    floating-point cancellation from genuine bugs.
    """


class ParseError(InfoEffError, ValueError):
    """Malformed sample CSV. Carries line, column, and a reason."""

    def __init__(self, line: int, column: int, reason: str):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column}: {reason}")
