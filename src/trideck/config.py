"""Compute-budget policy.

Budgets are operation-count ceilings; an operation over budget is refused
(BudgetError) rather than silently truncated.  The TRIDECK_BUDGET environment
variable, 10^8 when unset, is the one ceiling of every charge.
"""

import os

from .errors import BudgetError, DomainError


def compute_budget() -> int:
    env = os.environ.get("TRIDECK_BUDGET", str(10**8))
    try:
        return int(env)
    except ValueError:
        raise DomainError(
            f"TRIDECK_BUDGET {env!r} is not an integer") from None


def charge(size, message: str) -> None:
    """Refuse, with BudgetError(message), an operation whose size is over
    the compute budget; callers charge before they allocate."""
    if size > compute_budget():
        raise BudgetError(message)
