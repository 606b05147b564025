"""Size caps for the exponential oracles.

Every oracle-backed operation refuses inputs above its cap instead of
silently approximating.  The caps are fixed and sized for desk-scale
graphs: every enumeration (maximum stable sets, maximum matchings, the
brute-force scans) is capped at 16 vertices, the stability number alone
at 20.  Each oracle passes its own cap to check_cap, and `kegraphs
analyze` checks the 16-vertex cap at a graph file's p line.
"""

DEFAULT_OMEGA_CAP = 16
DEFAULT_ALPHA_CAP = 20


class CapExceededError(ValueError):
    """Input is larger than the cap for an exact oracle."""


def check_cap(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise CapExceededError(f"{what} refuses n={n} above cap {limit}")
