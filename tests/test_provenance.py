"""Route provenance: what each side of a theorem row reads.

A recording Facts logs every read of a public Facts attribute under the
attribute or side function in progress, on the Facts a row is given and
on every Facts derived from it through facts_of.  A cached value is
computed once, under whichever reader came first, so a route's reads are
the transitive closure of that log, not what one run happened to compute.

ROWS is the declaration: for each verdict row, its sides and the routes
each side is computed by, a route being a Facts attribute or a side
function of analysis.  A row reads exactly its sides' routes (and its
scope), and a route of a kind in MUST_NOT_READ never reaches a name that
kind forbids.  full_report reads no brute oracle.
"""

import random
from collections import defaultdict
from functools import cached_property

import pytest

from kegraphs import analysis, constructions, verify
from kegraphs.analysis import Facts
from test_scopes import _scoped_rows

# For each verdict row: each side, and the routes it is computed by.
ROWS = {
    "ke-arithmetic": {
        "bounds_hold": ("is_ke", "alpha", "mu"),
        "pm_iff_alpha_equals_mu": ("is_ke", "has_pm", "alpha", "mu"),
        "pm_graphs_alpha_mu_iff_ke": ("has_pm", "alpha", "mu", "is_ke"),
    },
    "anticore-empty-criterion": {
        "anticore_empty": ("core",),
        "pm_and_blossom_free": ("has_pm", "blossom_free"),
    },
    "alpha-plus-pm-criterion": {
        "stable_by_definition": ("stable_by_definition",),
        "pm_and_small_anticore": ("has_pm", "core"),
    },
    "alpha-plus-three-routes": {
        "by_definition": ("stable_by_definition",),
        "by_core_sets": ("core", "has_pm"),
        "by_matching_structure": ("_structural_stability_route",),
    },
    "core-anticore-duality": {
        "neighborhood_equals_anticore": ("core",),
        "anticore_matched_into_core": ("core", "partner"),
    },
    "pm-iff-core-equals-anticore": {
        "core sizes": ("pm_via_core",),
        "matching": ("has_pm",),
    },
    "pendant-characterization": {
        "pendant_pm": ("pendants",),
        "pendant_count_non_critical": ("pendants", "alpha", "alpha_critical_pendants"),
        "ke_stable_pendant_count": ("pendants", "alpha", "is_ke", "stable_by_definition"),
    },
    "core-lower-bounds": {
        "oversized_alpha_holds": ("is_ke", "alpha", "core"),
        "unequal_sides_holds": ("sides", "core"),
    },
    "sterboul-structures": {
        "ke_by_arithmetic": ("is_ke",),
        "structure_free": ("odd_vertices", "partner", "matching", "maximum_matchings"),
    },
    "matchings-in-cut": {
        "stable sides": ("family",),
        "matching side": ("matching_summary",),
    },
    "stable-set-certificate": {
        "expected": ("stable_sets", "family"),
        "certified": ("stable_sets", "matching_summary", "mu"),
    },
    "near-perfect-necessity": {
        "applicable": ("core",),
        "consistent": ("mu",),
    },
    "bipartite-equivalences": {
        "stable_by_definition": ("stable_by_definition",),
        "has_pm": ("has_pm",),
        "partition_pair": ("family",),
        "empty_core": ("core",),
    },
    "bipartite-zero-core": {
        "applicable": ("core",),
        "consistent": ("core",),
    },
}

# The kind of each route that must stay apart from the others.
ROUTE_KINDS = {
    "stable_by_definition": "definition",
    "blossom_free": "structure",
    "_structural_stability_route": "structure",
    "odd_vertices": "structure",
    "partner": "structure",
    "maximum_matchings": "structure",
}

MUST_NOT_READ = {
    "definition": {"family", "core", "stable_sets", "matching", "partner",
                   "maximum_matchings", "matching_summary"},
    "structure": {"alpha", "alpha_critical", "family", "core", "sides", "bipartite"},
}

BRUTE_ORACLES = {"stable_sets", "maximum_matchings", "matching_summary"}

SIDE_FUNCTIONS = ("_structural_stability_route", "pm_via_core")

TRACKED = frozenset(name for name in dir(Facts) if not name.startswith("_"))


class Log:
    """The names read directly under each frame, a frame being a Facts
    attribute, a side function, a row or full_report."""

    def __init__(self):
        self.reads = defaultdict(set)
        self.frames = ["caller"]

    def read(self, name, compute):
        self.reads[self.frames[-1]].add(name)
        self.frames.append(name)
        try:
            return compute()
        finally:
            self.frames.pop()

    def closure(self, name):
        seen, todo = set(), [name]
        while todo:
            new = self.reads[todo.pop()] - seen
            seen |= new
            todo += new
        return seen


def _recording_facts(log):
    class Recording(Facts):
        def __getattribute__(self, name):
            get = super().__getattribute__
            if name not in TRACKED:
                return get(name)
            value = log.read(name, lambda: get(name))
            if callable(value):  # alpha_critical and facts_of read when called
                return lambda *args: log.read(name, lambda: value(*args))
            return value

    return Recording


def _graphs():
    rng = random.Random(50)
    graphs = [g for _, g in verify.connected_corpus(1, 40, 2, 10)]
    graphs += [g for _, g in verify.bipartite_corpus(1, 60, 12)]
    graphs += [constructions.random_graph(rng.randint(1, 10), rng.random(), rng.randrange(1 << 30))
               for _ in range(100)]
    return graphs


def _violations(monkeypatch):
    """Run every declared row and full_report on recording Facts, and say
    where a read breaks the declaration."""
    log = Log()
    recording = _recording_facts(log)
    monkeypatch.setattr(analysis, "Facts", recording)  # facts_of and full_report build these
    for name in SIDE_FUNCTIONS:
        side = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda f, name=name, side=side: log.read(name, lambda: side(f)))
    require = analysis._require
    monkeypatch.setattr(analysis, "_require",
                        lambda f, scope: log.read("scope", lambda: require(f, scope)))
    rows = [row for row in verify.CHECKS if row.name in ROWS]
    for g in _graphs():
        f = recording(g)
        for row in rows:
            if row.applies(f):
                assert log.read(row.name, lambda: row.run(f)) is None, row.name
        log.read("full_report", lambda: analysis.full_report(g))
    out = []
    for row in rows:
        declared = set().union(*ROWS[row.name].values())
        read = log.reads[row.name] - {"scope"}
        if read != declared:
            out.append(f"{row.name} reads {sorted(read)}, declares {sorted(declared)}")
    for route, kind in ROUTE_KINDS.items():
        crossed = log.closure(route) & MUST_NOT_READ[kind]
        if crossed:
            out.append(f"the {kind} route {route} reads {sorted(crossed)}")
    crossed = log.closure("full_report") & BRUTE_ORACLES
    if crossed:
        out.append(f"full_report reads {sorted(crossed)}")
    return out


def test_every_verdict_row_is_declared():
    assert set(ROWS) == {row.name for row in _scoped_rows()}


def test_each_route_reads_only_what_its_row_declares(monkeypatch):
    assert _violations(monkeypatch) == []


def _core_in_the_structure_route(monkeypatch):
    route = analysis._structural_stability_route
    monkeypatch.setattr(analysis, "_structural_stability_route",
                        lambda f: (f.core, route(f))[1])
    return "the structure route _structural_stability_route reads ['core', 'family']"


def _sides_in_the_blossom_test(monkeypatch):
    blossom_free = Facts.blossom_free.func
    planted = cached_property(lambda self: (self.sides, blossom_free(self))[1])
    planted.__set_name__(Facts, "blossom_free")
    monkeypatch.setattr(Facts, "blossom_free", planted)
    return "the structure route blossom_free reads ['sides']"


@pytest.mark.parametrize("plant", [_core_in_the_structure_route, _sides_in_the_blossom_test])
def test_a_planted_cross_read_is_caught(monkeypatch, plant):
    expected = plant(monkeypatch)
    assert expected in _violations(monkeypatch)
