"""Exception hierarchy with stable machine-readable codes.

Every domain error carries a ``code`` attribute that the CLI emits in its
error records, so scripts can match on codes instead of messages.  Errors
about malformed tables are also ``ValueError``s.
"""


class OrdlabError(Exception):
    """Base class for all domain errors."""

    code = "error"


class NegativeProbability(OrdlabError, ValueError):
    code = "negative_probability"


class MassOutOfTolerance(OrdlabError, ValueError):
    code = "mass_out_of_tolerance"


class ArityMismatch(OrdlabError, ValueError):
    code = "arity_mismatch"


class NonStochasticRow(OrdlabError, ValueError):
    code = "non_stochastic_row"


class UnknownRole(OrdlabError):
    code = "unknown_role"


class RoleOverlap(OrdlabError, ValueError):
    code = "role_overlap"


class NotAPermutation(OrdlabError):
    code = "not_a_permutation"


class NonMonotoneTransducer(OrdlabError):
    code = "non_monotone_transducer"


class PositionOutOfRange(OrdlabError):
    code = "position_out_of_range"


class CostOverflow(OrdlabError):
    code = "cost_overflow"


class ResultTooLarge(OrdlabError):
    code = "result_too_large"


class allocating:
    """Turn a failed allocation in the block, and only that, into ResultTooLarge.

    Numpy raises ValueError for a shape above its largest, and a list
    OverflowError for a length above its largest index.
    """

    def __init__(self, message):
        self.message = message

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (MemoryError, OverflowError, ValueError)):
            raise ResultTooLarge(self.message) from None


class UnsupportedSource(OrdlabError):
    code = "unsupported_source"


class DegenerateRow(OrdlabError):
    code = "degenerate_row"


class EmptySequence(OrdlabError):
    code = "empty_sequence"


class InsufficientData(OrdlabError):
    code = "insufficient_data"


class DegenerateProfile(OrdlabError):
    code = "degenerate_profile"


class LengthBelowFloor(OrdlabError, ValueError):
    code = "length_below_floor"


class ZeroProbability(OrdlabError):
    code = "zero_probability"


class ZeroTargetMass(OrdlabError):
    code = "zero_target_mass"


class UnknownTarget(OrdlabError):
    code = "unknown_target"


class AllTied(OrdlabError):
    code = "all_tied"


class InputParseError(OrdlabError):
    code = "input_parse_error"
