"""Corpus-level cross-validation of every structural claim.

Each check states an equivalence or bound, names the inputs it applies
to, and is evaluated over seeded random corpora.  Both sides of every
equivalence are computed by independent routes (brute force, definition
chasing, or matching structure), so a reported violation always means an
implementation bug.  run_checks builds one analysis.Facts per input graph
and hands it to every check.  CHECKS ends with analysis.REPORT_CHECKS,
the rows full_report re-checks too.  Most checks are an analysis verdict
run through _verdict: the check passes when the verdict is consistent,
and a failure line carries the verdict's repr.  Such a row's applies is
the analysis scope its verdict refuses through, and so is the applies of
ke-decomposition and peel-step for decompose and peel.  A check that raises
(TheoremViolationError included) fails on that graph, and its failure
line names the exception; only a refusal above a cap (CapExceededError)
and MemoryError end the run.  The checks with logic of
their own are functions here; one that derives a new graph (peel, attachment)
builds that graph's own Facts.  The CLI's verify command and the acceptance
suite are thin wrappers around run_checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import analysis, bruteforce, constructions
from .analysis import REPORT_CHECKS, Check, Facts, _verdict
from .edgefile import format_graph
from .graph import Graph
from .limits import DEFAULT_OMEGA_CAP, CapExceededError
from .stable import _certificate_failure, _extend


@dataclass
class CheckStats:
    description: str
    applicable: int = 0
    passed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.applicable - self.passed


@dataclass
class VerifySummary:
    graphs: int
    checks: dict[str, CheckStats]

    @property
    def violations(self) -> int:
        return sum(s.failed for s in self.checks.values())

    def table(self) -> str:
        name_w = max(len(n) for n in self.checks) + 2
        lines = [f"{'check'.ljust(name_w)}{'applicable':>11}{'pass':>8}{'fail':>8}"]
        for name in sorted(self.checks):
            s = self.checks[name]
            lines.append(
                f"{name.ljust(name_w)}{s.applicable:>11}{s.passed:>8}{s.failed:>8}"
            )
        verdict = "PASS" if self.violations == 0 else "FAIL"
        lines.append(
            f"RESULT: {verdict} ({self.violations} violations over {self.graphs} graphs)"
        )
        return "\n".join(lines)


def _check_matching_oracle(f: Facts) -> str | None:
    brute = bruteforce.brute_max_matching_size(f.graph)
    if f.mu != brute:
        return f"matching sizes differ: search {f.mu}, brute force {brute}"
    return None


def _check_omega_oracle(f: Facts) -> str | None:
    brute = bruteforce.largest_stable_sets(f.stable_sets)
    if list(f.family.sets) != brute:
        return "stable-set families differ between enumerators"
    if f.alpha != len(brute[0]):
        return "stability numbers differ between enumerators"
    return None


def _check_edge_addition_definition(f: Facts) -> str | None:
    by_def = f.stable_by_definition
    by_core = f.core.core_size <= 1
    if by_def != by_core:
        return f"definition says {by_def}, core size {f.core.core_size} says {by_core}"
    return None


def _check_decomposition(f: Facts) -> str | None:
    # decompose takes a family member as its stable side and raises unless
    # the matching covers the rest inside the cut
    analysis.decompose(f)
    return None


def _check_peel(f: Facts) -> str | None:
    (x, y), h = constructions.peel(f)
    if x not in f.core.anticore:
        return "peeled vertex is not the anticore vertex"
    hf = Facts(h)
    if not hf.is_ke:
        return "peeled graph is not KE"
    if hf.core.anticore_size != 0:
        return "peeled graph has a nonempty anticore"
    if hf.alpha != hf.mu:
        return "peeled graph has unequal stability and matching numbers"
    return None


def _check_pendant_pair_roundtrip(f: Facts) -> str | None:
    g = f.graph
    transversal = sorted({min(s) for s in f.family.sets})
    ff = Facts(constructions.attach_k2(f, transversal))
    frep = ff.core
    if not ff.is_ke:
        return "attachment output is not KE"
    if not ff.has_pm:
        return "attachment output lacks a perfect matching"
    if sorted(frep.anticore) != [g.n]:
        return f"attachment anticore is {sorted(frep.anticore)}, wanted [{g.n}]"
    if sorted(frep.core) != [g.n + 1]:
        return f"attachment core is {sorted(frep.core)}, wanted [{g.n + 1}]"
    _, back = constructions.peel(ff)
    if back != g:
        return "peeling the attachment did not restore the base"
    return None


def _check_extension(f: Facts) -> str | None:
    """The first family member is certified against the canonical matching
    once; each extension's output is still certified on its own."""
    g = f.graph
    members = set(f.family.sets)
    s = f.family.sets[0]
    reason = _certificate_failure(g, f.partner, s)
    if reason is not None:
        return f"the first maximum stable set fails its certificate: {reason}"
    for b in sorted(frozenset(range(g.n)) - s):
        got = _extend(g, f.partner, s, b)
        if b not in got:
            return f"extension from vertex {b} does not contain it"
        if got not in members:
            return f"extension from vertex {b} is not maximum"
    return None


CHECKS: tuple[Check, ...] = (
    Check("matching-oracle", "search matching size equals brute force",
          lambda f: True, _check_matching_oracle),
    Check("omega-oracle", "two independent stable-set enumerators agree",
          lambda f: True, _check_omega_oracle),
    Check("edge-addition-definition",
          "no edge addition lowers alpha iff core size is at most 1",
          lambda f: True, _check_edge_addition_definition),
    Check("sterboul-structures",
          "KE by arithmetic iff no flower and no posy",
          lambda f: True, _verdict(analysis.check_structure_consistency)),
    Check("matchings-in-cut",
          "every maximum matching lies in every maximum-stable-set cut",
          analysis._ke, _verdict(analysis.check_matchings_in_cuts)),
    Check("stable-set-certificate",
          "exposed+endpoint certificate equals family membership",
          analysis._ke, _verdict(analysis.check_certificate_equivalence)),
    Check("near-perfect-necessity",
          "edge-addition-stable KE graphs have (near-)perfect matchings",
          analysis._ke, _verdict(analysis.check_near_perfect_necessity)),
    Check("ke-decomposition",
          "stable side * matched rest decomposition is valid",
          analysis._decomposable, _check_decomposition),
    Check("peel-step",
          "peeling the anticore pair leaves an empty-anticore KE graph",
          analysis._peelable, _check_peel),
    # the attachment output has n + 2 vertices, and its family is enumerated
    Check("pendant-pair-roundtrip",
          "pendant-pair attachment conclusion and peel round-trip",
          lambda f: (f.is_ke and 2 <= f.graph.n <= DEFAULT_OMEGA_CAP - 2
                     and f.core.anticore_size == 0),
          _check_pendant_pair_roundtrip),
    Check("extension-construction",
          "alternating saturation reaches every vertex",
          lambda f: (f.is_ke and f.has_pm and f.blossom_free),
          _check_extension),
    Check("bipartite-equivalences",
          "stability, perfect matching, partition pair, empty core agree",
          analysis._connected_bipartite, _verdict(analysis.check_bipartite_equivalences)),
    Check("bipartite-zero-core",
          "equal core and anticore sizes force both empty",
          analysis._bipartite, _verdict(analysis.check_bipartite_zero_core)),
    *REPORT_CHECKS,
)

CHECKS_BY_NAME = {c.name: c for c in CHECKS}

MAX_RECORDED_FAILURES = 5


def run_checks(
    graphs,
    check_names: list[str] | None = None,
    *,
    inject_failure: bool = False,
) -> VerifySummary:
    """Run the selected checks over (label, graph) pairs, sharing one
    analysis.Facts per graph among them.  inject_failure adds a row that
    fails on every graph, through the same accounting as any other."""
    selected = [
        CHECKS_BY_NAME[n] for n in (check_names or [c.name for c in CHECKS])
    ]
    if inject_failure:
        selected.append(Check("self-test", "deliberately failing harness self-test",
                              lambda f: True, lambda f: "injected failure"))
    stats = {c.name: CheckStats(c.description) for c in selected}
    count = 0
    for label, g in graphs:
        count += 1
        f = Facts(g)
        for check in selected:
            if not check.applies(f):
                continue
            s = stats[check.name]
            s.applicable += 1
            try:
                detail = check.run(f)
            except (CapExceededError, MemoryError):
                raise
            except Exception as exc:  # a route that raises fails its row
                detail = f"raised {type(exc).__name__}: {exc}"
            if detail is None:
                s.passed += 1
            elif len(s.failures) < MAX_RECORDED_FAILURES:
                s.failures.append(
                    f"{label}: {detail}\n{format_graph(g).rstrip()}"
                )
    return VerifySummary(graphs=count, checks=stats)


# -- corpora -------------------------------------------------------------------


def connected_corpus(seed: int, count_per_size: int, n_lo: int, n_hi: int):
    """Seeded connected graphs, count_per_size of each order in [n_lo, n_hi].

    Mixes density levels and sprinkles in named shapes (trees, cycles,
    complete and complete-bipartite graphs) so that the small worked
    examples all appear.
    """
    rng = random.Random(seed)
    out = []
    for n in range(n_lo, n_hi + 1):
        for i in range(count_per_size):
            label = f"n{n}-{i}"
            if n >= 2 and i % 17 == 13:
                g = constructions.random_tree(n, rng.randrange(1 << 30))
            elif n >= 3 and i % 17 == 5:
                g = constructions.cycle(n)
            elif i % 17 == 9:
                g = constructions.complete(n)
            elif n >= 2 and i % 17 == 15:
                a = rng.randint(1, n - 1)
                g = constructions.complete_bipartite(a, n - a)
            else:
                p = rng.uniform(0.15, 0.9)
                g = constructions.random_connected_graph(
                    n, p, rng.randrange(1 << 30)
                )
            out.append((label, g))
    return out


def bipartite_corpus(seed: int, count: int, n_max: int):
    """Seeded connected bipartite graphs of order at most n_max.

    Each sample is drawn as constructions.random_bipartite draws it, from
    a random.Random seeded with a seed taken from the corpus rng (one
    generator, reseeded before each draw), and tested for connectivity on
    its edge list: a disconnected sample is skipped before any Graph
    exists, and each kept one builds exactly one Graph.
    """
    rng = random.Random(seed)
    sample = random.Random(0)  # reseeded per draw; a fixed seed reads no OS entropy
    out = []
    made = 0
    while made < count:
        n1 = rng.randint(1, n_max - 1)
        n2 = rng.randint(1, min(n_max - n1, n_max - 1))
        p = rng.uniform(0.2, 0.95)
        sample.seed(rng.randrange(1 << 30))
        edges = constructions._bipartite_edges(n1, n2, p, sample)
        if not constructions._edges_connected(n1 + n2, edges):
            continue
        out.append((f"bip{made}-{n1}x{n2}", Graph(n1 + n2, edges)))
        made += 1
    return out
