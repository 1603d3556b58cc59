"""Exception types raised across the hopset package."""


class HopsetError(Exception):
    """Base class for all hopset errors."""


class InvalidPolynomialError(HopsetError):
    """Polynomial is malformed (degree 0, bad coefficients) or not primitive."""


class UnsupportedDegreeError(HopsetError):
    """No built-in primitive polynomial for the requested (p, l)."""


class EmptySequenceError(HopsetError):
    """Tuple width is too large for the source sequence (no full word fits)."""


class FamilySizeError(HopsetError):
    """Family size q falls outside 1 <= q <= M."""

    def __init__(self, q, M):
        super().__init__(f"family size q={q} violates 1 <= q <= M={M}")
        self.q = q
        self.M = M


class SingularFitError(HopsetError):
    """Least-squares fit is degenerate (all x values equal)."""


class SequenceFormatError(HopsetError):
    """A sequence file could not be parsed."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ScenarioError(SequenceFormatError):
    """A simulation scenario lacks hops or sequences, or has bad or unknown keys."""


class ConfigError(HopsetError):
    """Run configuration is inconsistent or incomplete."""
