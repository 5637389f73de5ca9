"""Step budgets guarding the brute-force enumerations.

Every operation that enumerates codewords, group elements or composition
profiles estimates its elementary step count up front and refuses to start
when the estimate exceeds the budget.  The default budget keeps everything
at desk scale.
"""

DEFAULT_BUDGET = 10**8


class CapacityError(RuntimeError):
    """Raised when a requested computation exceeds its step budget."""


def check_budget(steps: int, budget: int = DEFAULT_BUDGET, what: str = "computation") -> None:
    if steps > budget:
        raise CapacityError(
            f"{what} needs about {_count(steps)} steps, over the budget of {_count(budget)}"
        )


def _count(x) -> str:
    # Python writes no int of over 4,300 digits (by default), so a count of
    # 4,000 digits or more is written as the power of two it is at least.
    return str(x) if x < 10**3999 else f"2^{int(x).bit_length() - 1}"
