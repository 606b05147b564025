"""The package's immutable records: which classes are records, their repr
(the text verify's failure lines and the README show), that they refuse
assignment, and the two consistency rules the verdicts share."""

import dataclasses
import hashlib
import inspect
import itertools

import pytest

from kegraphs import (
    analysis,
    bruteforce,
    cli,
    constructions,
    edgefile,
    graph,
    limits,
    matching,
    stable,
    verify,
)
from kegraphs.bruteforce import Blossom, Flower, MatchingSummary, Posy
from kegraphs.constructions import Fixture
from kegraphs.graph import Graph
from kegraphs.stable import CoreReport

MODULES = [graph, limits, edgefile, bruteforce, matching, stable, analysis,
           constructions, verify, cli]

DATACLASSES = {analysis.Check, stable.StableSetFamily, verify.CheckStats,
               verify.VerifySummary}
# classes with behaviour of their own, not records
PLAIN_CLASSES = {analysis.Facts, analysis._cached, bruteforce._Budget, Graph}

VERDICTS = [
    analysis.ArithmeticVerdict,
    analysis.CutContainmentVerdict,
    analysis.CertificateVerdict,
    analysis.AnticoreEmptyVerdict,
    analysis.PmCriterionVerdict,
    analysis.ThreeRouteVerdict,
    analysis.CoreDualityVerdict,
    analysis.NearPerfectVerdict,
    analysis.PendantVerdict,
    analysis.CoreLowerBoundVerdict,
    analysis.BipartiteEquivalenceVerdict,
    analysis.BipartiteZeroCoreVerdict,
    analysis.StructureConsistencyVerdict,
]
AGREEMENTS = [
    analysis.AnticoreEmptyVerdict,
    analysis.PmCriterionVerdict,
    analysis.ThreeRouteVerdict,
    analysis.PendantVerdict,
    analysis.BipartiteEquivalenceVerdict,
]
CONJUNCTIONS = [analysis.ArithmeticVerdict, analysis.CoreDualityVerdict]

# one sample of each record that is not a verdict, with its repr
SAMPLES = [
    (analysis.KeDecomposition(frozenset({0, 2}), frozenset({1, 3}),
                              frozenset({(0, 1), (2, 3)})),
     "KeDecomposition(stable_set=frozenset({0, 2}), rest=frozenset({1, 3}), "
     "cut_matching=frozenset({(0, 1), (2, 3)}))"),
    (analysis.StabilityClassification("alpha0_plus"),
     "StabilityClassification(kind='alpha0_plus', witness_edge=None)"),
    (analysis.StabilityClassification("not_stable", (0, 4)),
     "StabilityClassification(kind='not_stable', witness_edge=(0, 4))"),
    (MatchingSummary(frozenset({1, 4}), frozenset({(0, 1), (1, 2)})),
     "MatchingSummary(exposed=frozenset({1, 4}), edges=frozenset({(0, 1), (1, 2)}))"),
    (Blossom((2, 0, 1)), "Blossom(cycle=(2, 0, 1))"),
    (Flower(Blossom((2, 0, 1)), (2,)),
     "Flower(blossom=Blossom(cycle=(2, 0, 1)), stem=(2,))"),
    (Posy(Blossom((0, 1, 2)), Blossom((5, 6, 7)), (0, 3, 4, 5)),
     "Posy(blossom1=Blossom(cycle=(0, 1, 2)), blossom2=Blossom(cycle=(5, 6, 7)), "
     "path=(0, 3, 4, 5))"),
    (CoreReport(frozenset({0}), frozenset({1})),
     "CoreReport(core=frozenset({0}), anticore=frozenset({1}))"),
    (Fixture("k2", Graph(2, [(0, 1)]), {"is_ke": True, "alpha": 1}),
     "Fixture(name='k2', graph=Graph(n=2, m=1), expected={'is_ke': True, 'alpha': 1})"),
]
RECORDS = VERDICTS + [type(r) for r, _ in SAMPLES]


def _fields(cls):
    return list(inspect.signature(cls).parameters)


def _combinations(cls):
    """Every verdict of cls over True/False in each flag and 0 or 5 in each
    count (the fields named *_checked)."""
    values = [(0, 5) if f.endswith("_checked") else (False, True) for f in _fields(cls)]
    return [cls(*combo) for combo in itertools.product(*values)]


def _defined_classes():
    return {v for mod in MODULES for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == mod.__name__}


def test_every_class_is_a_record_a_named_dataclass_or_plain():
    records = set(RECORDS)
    assert len(records) == 21
    for cls in _defined_classes():
        if issubclass(cls, Exception) or cls in PLAIN_CLASSES:
            continue
        if cls in DATACLASSES:
            assert dataclasses.is_dataclass(cls), cls
        else:
            assert cls in records | {stable.Certification}, cls
            assert issubclass(cls, tuple) and hasattr(cls, "_fields"), cls
            assert not dataclasses.is_dataclass(cls), cls
            # a field named count or index would hide the tuple method
            assert not set(cls._fields) & set(dir(tuple)), cls
    assert records <= _defined_classes()
    assert not hasattr(analysis, "_Agreement") and not hasattr(analysis, "_Conjunction")


def test_sample_reprs():
    for record, text in SAMPLES:
        assert repr(record) == text


def test_verdict_reprs_match_the_recorded_format():
    # the first combination of each verdict spelled out, then every
    # combination (100 in all) by the digest of their reprs, one a line
    firsts = [repr(_combinations(cls)[0]) for cls in VERDICTS]
    assert firsts[:3] == [
        "ArithmeticVerdict(bounds_hold=False, pm_iff_alpha_equals_mu=False, "
        "pm_graphs_alpha_mu_iff_ke=False)",
        "CutContainmentVerdict(stable_sets_checked=0, consistent=False)",
        "CertificateVerdict(sets_checked=0, consistent=False)",
    ]
    assert firsts[-1] == ("StructureConsistencyVerdict(ke_by_arithmetic=False, "
                          "flower_found=False, posy_found=False, "
                          "all_matchings_checked=0)")
    lines = [repr(v) for cls in VERDICTS for v in _combinations(cls)]
    assert len(lines) == 100
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ce2fc977dfc01be7a4048ced26a23ec3cab24a13779d1fe82988ad26cfcc38ac"


def test_records_refuse_assignment():
    records = [r for r, _ in SAMPLES] + [_combinations(cls)[0] for cls in VERDICTS]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, _fields(type(record))[0], None)


@pytest.mark.parametrize("cls", AGREEMENTS + CONJUNCTIONS, ids=lambda c: c.__name__)
def test_rule_based_consistency(cls):
    rule = (lambda sides: len(set(sides)) == 1) if cls in AGREEMENTS else all
    verdicts = _combinations(cls)
    assert len(verdicts) == 2 ** len(_fields(cls))
    for v in verdicts:
        sides = [getattr(v, name) for name in _fields(cls)]
        assert v.consistent is rule(sides), v
