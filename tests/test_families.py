"""Closed-form reports for paths and cycles, checked against full_report.

expected_report writes the whole analyze document of P_n and C_n from
formulas alone: it imports nothing from stable, matching or analysis, so
it shares no code with the routes it checks.  Above the 16-vertex cap
analyze refuses these graphs; the tests pin that refusal until the cap
is lifted.
"""

import pytest

from kegraphs.analysis import full_report
from kegraphs.cli import EXIT_CAP, main
from kegraphs.constructions import cycle, path

MAX_N = 16


def expected_report(family: str, n: int) -> dict:
    """The full_report document of the path or cycle on vertices 0..n-1.

    P_n: alpha = ceil(n/2), mu = floor(n/2).  For odd n the even ids are
    the one maximum stable set, so they are the core and the odd ids the
    anticore; the class is alpha1_plus at n = 1 and not_stable, witnessed
    by the two lowest core vertices, after that.  For even n there are
    n/2 + 1 maximum stable sets (odd ids up to some point, even ids after
    it), core and anticore are empty and the class is alpha0_plus.  The
    ends are the pendants, alpha-critical iff n is odd.

    C_n: alpha = mu = floor(n/2), core and anticore empty, alpha0_plus.
    An even cycle has a perfect matching, no blossom and the two colour
    classes as its maximum stable sets; an odd one is not KE, has a
    blossom and n maximum stable sets (one per rotation).

    Every connected KE member decomposes as the even ids against the odd
    ids, with the matching (0, 1), (2, 3), ... in the cut.
    """
    evens, odds = list(range(0, n, 2)), list(range(1, n, 2))
    if family == "path":
        alpha, mu, m = (n + 1) // 2, n // 2, n - 1
        ke, blossom_free = True, True
        core, anticore = (evens, odds) if n % 2 else ([], [])
        omega = 1 if n % 2 else n // 2 + 1
        pendants = [0, n - 1] if n >= 2 else []
        critical = pendants if n % 2 else []
    elif family == "cycle":
        alpha = mu = n // 2
        m = n
        ke = blossom_free = n % 2 == 0
        core, anticore = [], []
        omega = 2 if ke else n
        pendants = critical = []
    else:
        raise ValueError(family)
    if len(core) == 0:
        stability = {"class": "alpha0_plus", "witness_edge": None}
    elif len(core) == 1:
        stability = {"class": "alpha1_plus", "witness_edge": None}
    else:
        stability = {"class": "not_stable", "witness_edge": core[:2]}
    decomposition = None
    if ke:
        decomposition = {
            "stable_set": evens,
            "rest": odds,
            "cut_matching": [[v - 1, v] for v in odds],
        }
    return {
        "n": n,
        "m": m,
        "connected": True,
        "alpha": alpha,
        "mu": mu,
        "is_ke": ke,
        "has_pm": 2 * mu == n,
        "core": core,
        "anticore": anticore,
        "core_size": len(core),
        "anticore_size": len(anticore),
        "stability": stability,
        "decomposition": decomposition,
        "blossom_free": blossom_free,
        "pendant_profile": {"pendants": pendants, "alpha_critical_pendants": critical},
        "omega_size": omega,
    }


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_path_report_matches_its_closed_form(n):
    assert full_report(path(n)) == expected_report("path", n)


@pytest.mark.parametrize("n", range(3, MAX_N + 1))
def test_cycle_report_matches_its_closed_form(n):
    assert full_report(cycle(n)) == expected_report("cycle", n)


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_analyze_refuses_the_family_above_the_cap(family, tmp_path, capsys):
    n = MAX_N + 1
    edges = [(v, v + 1) for v in range(n - 1)] + ([(0, n - 1)] if family == "cycle" else [])
    target = tmp_path / f"{family}{n}.gr"
    target.write_text(
        f"p {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges),
        encoding="utf-8",
    )
    assert main(["analyze", str(target)]) == EXIT_CAP
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(str(target))
