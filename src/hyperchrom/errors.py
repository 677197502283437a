"""Exception hierarchy shared by all hyperchrom modules, the integer check,
and the one reader of the JSON input files."""

from __future__ import annotations

import json
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


def require_int(value, name: str, low: int | None = None) -> int:
    """value as an int, or InputError unless it is an integer of at least low.

    ``operator.index`` admits ints and numpy integers, so a float such as
    2.5 or a string such as "2" is refused instead of truncated or parsed.
    A bool is refused too, as the JSON readers do.  With no low, any
    integer passes, for a caller whose own range check follows.
    """
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    value = index
    if low is not None and value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    return value


def require_ints(values, name: str) -> tuple[int, ...]:
    """values as a tuple of ints, or InputError unless each is an integer.

    The check of ``require_int`` with no bound, made per value at C speed:
    it runs on every edge labelling and every edge read.
    """
    values = tuple(values)
    try:
        ints = tuple(map(operator.index, values))
    except TypeError:
        ints = None
    if ints is None or bool in map(type, values):
        raise InputError(f"{name} must be integers, got {list(values)}")
    return ints


def read_text(path) -> str:
    """The file at ``path`` as UTF-8 text, or InputError if it cannot be read
    or is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def parse_json(text, what: str):
    """JSON text as Python values, refusing a key that repeats in any object.

    Every way the text can fail is an InputError naming ``what``: bad
    syntax, an integer past CPython's int-string digit limit and bytes
    that are not UTF-8 (all ValueError), and nesting past the recursion
    limit.
    """

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"repeated key {key!r} in {what}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:
        raise InputError(f"invalid {what}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"invalid {what}: nested too deeply") from exc
