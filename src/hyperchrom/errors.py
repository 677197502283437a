"""Exception hierarchy shared by all hyperchrom modules, and the integer check."""

from __future__ import annotations

import operator

__all__ = [
    "HyperchromError",
    "InputError",
    "BudgetExceededError",
    "UndefinedStatisticError",
    "GeneratorError",
]


class HyperchromError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HyperchromError):
    """Malformed or invalid input data (files, assignments, parameters)."""


class BudgetExceededError(HyperchromError):
    """An operation refused to run because it would exceed a computational cap.

    Carries the cap that was hit and the budget the request would need, so
    callers can report how to rerun with a raised budget.
    """

    def __init__(self, message: str, cap_name: str, cap_value: int, required: int):
        super().__init__(message)
        self.cap_name = cap_name
        self.cap_value = cap_value
        self.required = required


class UndefinedStatisticError(HyperchromError):
    """A structural statistic was requested where it is not defined.

    Example: the minimum pairwise edge difference needs at least two edges.
    """


class GeneratorError(HyperchromError):
    """An instance generator could not satisfy its parameters."""


def require_int(value, name: str, low: int) -> int:
    """value as an int, or InputError unless it is an integer of at least low.

    ``operator.index`` admits ints and numpy integers, so a float such as
    2.5 is refused instead of truncated.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    return value
