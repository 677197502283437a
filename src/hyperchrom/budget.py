"""Computational caps and the HYPERCHROM_BUDGET override.

Every potentially exponential operation checks a named cap before running and
refuses (raises BudgetExceededError) rather than running unbounded.  The env
var HYPERCHROM_BUDGET overrides caps at run time:

  * a bare integer replaces the brute-force enumeration cap, e.g.
    ``HYPERCHROM_BUDGET=1000000000``;
  * comma-separated ``key=value`` pairs replace named caps, e.g.
    ``HYPERCHROM_BUDGET=nb_edges=26,brute_force=2e8``.

Cap names:
  nb_edges     max edge count for delta-cycle / NB enumeration   (default 24)
  brute_force  max colorings a brute-force counter may visit     (default 1e8,
               below 2^63 so the counts of exact P_l and the
               scan fit in int64)
  exact_plk    max n*k for exact list-color-function enumeration (default 12)
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError, InputError

__all__ = ["DEFAULT_CAPS", "get_cap", "check_cap"]

DEFAULT_CAPS = {
    "nb_edges": 24,
    "brute_force": 10**8,
    "exact_plk": 12,
}


def _parse_env(raw: str) -> dict:
    raw = raw.strip()
    if not raw:
        return {}
    overrides = {}
    parts = raw.split(",") if "=" in raw else [f"brute_force={raw}"]
    for part in parts:
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"HYPERCHROM_BUDGET: expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in DEFAULT_CAPS:
            raise InputError(
                f"HYPERCHROM_BUDGET: unknown cap {key!r} (known: {', '.join(sorted(DEFAULT_CAPS))})"
            )
        overrides[key] = _parse_int(value.strip())
    if overrides.get("brute_force", 0) >= 2**63:
        # exact P_l and the scan count in int64, and k^n stays below this cap
        cap = overrides["brute_force"]
        raise InputError(f"HYPERCHROM_BUDGET: brute_force must be below 2^63, got {cap}")
    return overrides


def _parse_int(text: str) -> int:
    # accept 2e8 style shorthand
    try:
        return int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise InputError(f"HYPERCHROM_BUDGET: not a number: {text!r}") from None
        if not value.is_integer():
            raise InputError(f"HYPERCHROM_BUDGET: not an integer: {text!r}")
        return int(value)


def get_cap(name: str) -> int:
    """Current value of a named cap, env override included."""
    if name not in DEFAULT_CAPS:
        raise KeyError(name)
    raw = os.environ.get("HYPERCHROM_BUDGET")
    if raw:
        overrides = _parse_env(raw)
        if name in overrides:
            return overrides[name]
    return DEFAULT_CAPS[name]


def check_cap(name: str, required: int, what: str) -> None:
    """Refuse with a required-budget report when ``required`` exceeds the cap."""
    cap = get_cap(name)
    if required > cap:
        if name == "brute_force" and required >= 2**63:
            hint = "past the int64 limit 2^63, which no cap can raise"
        else:
            hint = f"rerun with HYPERCHROM_BUDGET={name}={required}"
        raise BudgetExceededError(
            f"{what} needs {required} but cap {name}={cap}; {hint}",
            cap_name=name,
            cap_value=cap,
            required=required,
        )
