"""Greedy two-term unit-fraction underapproximation over Fibonacci-type
sequences: compute the greedy sum for a target in (0, 1], decide exactly
whether it is best possible, and enumerate the windows where it is not.
All arithmetic is exact; decimal output is for display only.
"""

from .errors import (
    FibgreedyError,
    RationalParseError,
    SelfCheckError,
    SequenceValidationError,
    TermLimitError,
    ThetaDomainError,
)
from .greedy import (
    DEFAULT_TERM_LIMIT,
    GreedyPrefix,
    GreedyResult,
    greedy_prefix,
    greedy_two_term,
)
from .optimality import (
    BadInterval,
    Classification,
    XiResult,
    bad_interval,
    bad_interval_record,
    classify,
    xi,
    xi_closed_form,
)
from .oracle import (
    OracleReport,
    TwoTermSum,
    oracle_best,
)
from .rationals import approx_decimal, format_rational, parse_rational
from .sequences import (
    FIBONACCI,
    LUCAS,
    SequenceParams,
    SequencePreset,
    classical_label,
    fib,
    parse_sequence_spec,
    seq_term,
    seq_term_from_fibs,
)
from .verification import SuiteResult, run_all

__version__ = "0.1.0"

__all__ = [
    "BadInterval",
    "Classification",
    "DEFAULT_TERM_LIMIT",
    "FIBONACCI",
    "FibgreedyError",
    "GreedyPrefix",
    "GreedyResult",
    "LUCAS",
    "OracleReport",
    "RationalParseError",
    "SelfCheckError",
    "SequenceParams",
    "SequencePreset",
    "SequenceValidationError",
    "SuiteResult",
    "TermLimitError",
    "ThetaDomainError",
    "TwoTermSum",
    "XiResult",
    "approx_decimal",
    "bad_interval",
    "bad_interval_record",
    "classical_label",
    "classify",
    "fib",
    "format_rational",
    "greedy_prefix",
    "greedy_two_term",
    "oracle_best",
    "parse_rational",
    "parse_sequence_spec",
    "run_all",
    "seq_term",
    "seq_term_from_fibs",
    "xi",
    "xi_closed_form",
    "__version__",
]
