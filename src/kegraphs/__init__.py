"""Exact analysis of Koenig-Egervary graphs at desk scale.

The package decides Koenig-Egervary membership (stability number plus
matching number equals the order), classifies edge-addition stability of
the stability number, computes cores and anticores of maximum stable
sets, detects blossoms, flowers and posies relative to matchings, and
ships a cross-check suite that validates every structural claim against
brute-force oracles on seeded corpora.
"""

from .graph import (
    Graph,
    GraphError,
    complement_non_edges,
    connected_components,
    delete_vertices,
    induced_subgraph,
    is_bipartite,
    is_connected,
    neighborhood,
    pendant_vertices,
)
from .limits import CapExceededError, DEFAULT_ALPHA_CAP, DEFAULT_OMEGA_CAP
from .edgefile import GraphFormatError, format_graph, parse_graph
from .matching import (
    exposed_vertices,
    has_flower,
    has_posy,
    maximum_matching,
)
from .stable import (
    Certification,
    CoreReport,
    ExtensionBlockedError,
    StableSetFamily,
    certify_max_stable,
    core_report,
    extend_stable_through_matching,
    maximum_stable_sets,
    stability_number,
)
from .analysis import (
    Facts,
    KeDecomposition,
    StabilityClassification,
    TheoremViolationError,
    classify_alpha_plus,
    decompose,
    full_report,
    is_alpha_critical,
    is_koenig_egervary,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "Certification",
    "CoreReport",
    "DEFAULT_ALPHA_CAP",
    "DEFAULT_OMEGA_CAP",
    "ExtensionBlockedError",
    "Facts",
    "Graph",
    "GraphError",
    "GraphFormatError",
    "KeDecomposition",
    "StabilityClassification",
    "StableSetFamily",
    "TheoremViolationError",
    "certify_max_stable",
    "classify_alpha_plus",
    "complement_non_edges",
    "connected_components",
    "core_report",
    "decompose",
    "delete_vertices",
    "exposed_vertices",
    "extend_stable_through_matching",
    "format_graph",
    "full_report",
    "has_flower",
    "has_posy",
    "induced_subgraph",
    "is_alpha_critical",
    "is_bipartite",
    "is_connected",
    "is_koenig_egervary",
    "maximum_matching",
    "maximum_stable_sets",
    "neighborhood",
    "parse_graph",
    "pendant_vertices",
    "stability_number",
]
