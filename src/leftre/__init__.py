"""Finite-horizon constructions over lexicographically monotone set
approximations: validators, marker systems, forcing, interval-block
arithmetic, self-referential numberings, order relations and
diagonalization, plus a batch CLI."""

from .core import (ApproxProcess, CapacityError, Horizon, InputError,
                   Numbering, Prefix, Schedule, UsageError,
                   ValidationReport, first_difference,
                   index_set_estimate, join, lex_cmp, limit_estimate,
                   validate_left_re, validate_monotone_membership)

__all__ = [
    "ApproxProcess", "CapacityError", "Horizon", "InputError",
    "Numbering", "Prefix", "Schedule", "UsageError",
    "ValidationReport", "first_difference",
    "index_set_estimate", "join", "lex_cmp", "limit_estimate",
    "validate_left_re", "validate_monotone_membership",
]
