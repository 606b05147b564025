"""Size caps and search budgets for the exponential oracles.

Every oracle-backed operation refuses inputs above its cap instead of
silently approximating.  The defaults are sized for desk-scale graphs:
full enumeration of maximum stable sets is capped at 16 vertices, the
stability number alone at 20.
"""

DEFAULT_OMEGA_CAP = 16
DEFAULT_ALPHA_CAP = 20

# Primitive-step allowance for the exhaustive alternating-structure
# searches: blossom, flower and posy enumeration only.  Deciding whether a
# blossom, flower or posy exists (has_blossom, has_flower, has_posy) is
# polynomial and needs no budget.
DEFAULT_SEARCH_BUDGET = 20_000_000


class CapExceededError(ValueError):
    """Input is larger than the configured cap for an exact oracle."""


class SearchBudgetExceededError(RuntimeError):
    """An alternating-structure search ran past its step budget."""


def check_cap(n: int, cap: int | None, default: int, what: str) -> None:
    limit = default if cap is None else cap
    if n > limit:
        raise CapExceededError(f"{what} refuses n={n} above cap {limit}")
