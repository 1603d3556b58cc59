"""Collision-free balanced frequency hopping sequence sets over GF(p).

Pipeline: generate an m-sequence with a primitive-polynomial LFSR, map it
onto M = p^b frequency spots word by word, rotate it into a base family of
q sequences, then balance the family so no two members ever share a spot
in the same hop while every member uses all spots nearly equally.
"""

from .balancer import FairnessReport, OperationLedger, cfb_balance, fit_linear, mean_operation_curve
from .correlation import (
    AnalysisReport,
    analyze_set,
    correlation_profile,
    frequency_histogram,
    hamming_correlation,
    peng_fan_bound,
)
from .errors import (
    ConfigError,
    EmptySequenceError,
    FamilySizeError,
    HopsetError,
    InvalidPolynomialError,
    ScenarioError,
    SequenceFormatError,
    SingularFitError,
    UnsupportedDegreeError,
)
from .lfsr import default_polynomial, m_sequence, validate_primitive_polynomial
from .mapping import (
    BALANCED,
    BASE,
    FrequencyPlan,
    SequenceSet,
    build_base_set,
    check_family,
    default_shift,
    validate_family,
)
from .sim import CollisionReport, SimScenario, simulate

__version__ = "0.1.0"
