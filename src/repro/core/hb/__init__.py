"""Happens-before machinery: graph, the paper's rules, vector clocks."""

from .backend import (
    HB_BACKENDS,
    BackendDisagreement,
    ChainBackedGraph,
    CrosscheckGraph,
    HBBackend,
    make_backend,
)
from .chains import IncrementalChainClocks
from .graph import AncestorSetGraph, Edge, HBGraph, chc, transitive_closure_pairs
from .rules import ALL_RULES, RuleEngine
from .shb import (
    SHB_RF_RULE,
    ReadsFromEdge,
    ShbAnalysis,
    ShbGraph,
    ShbPrediction,
    build_shb,
    predict_races,
    reads_from_edges,
)
from .vector_clock import ChainVectorClocks
from .witness import (
    RaceWitness,
    WitnessStep,
    hb_path,
    nearest_common_ancestor,
    race_witness,
)

__all__ = [
    "ALL_RULES",
    "AncestorSetGraph",
    "BackendDisagreement",
    "ChainBackedGraph",
    "ChainVectorClocks",
    "CrosscheckGraph",
    "Edge",
    "HBBackend",
    "HBGraph",
    "HB_BACKENDS",
    "IncrementalChainClocks",
    "RaceWitness",
    "ReadsFromEdge",
    "RuleEngine",
    "SHB_RF_RULE",
    "ShbAnalysis",
    "ShbGraph",
    "ShbPrediction",
    "WitnessStep",
    "build_shb",
    "chc",
    "hb_path",
    "make_backend",
    "nearest_common_ancestor",
    "predict_races",
    "race_witness",
    "reads_from_edges",
    "transitive_closure_pairs",
]
