"""Approximation and exact solvers for densest-subset and minimum-union problems on hypergraphs."""

from hyperdense.core import (
    EdgeSolution,
    Hypergraph,
    HypergraphFormatError,
    VertexSolution,
    covered_edges,
    parse_hypergraph,
    serialize_hypergraph,
    solution_json,
    union_of,
)
from hyperdense.dksh3 import (
    WeightedGraph,
    dksh_3uniform,
    greedy_weighted_dks,
)
from hyperdense.expansion import (
    EmptyHypergraphError,
    ExpansionCertificate,
    min_expansion_flow,
)
from hyperdense.interval import (
    IntervalInstance,
    dksh_interval,
    mpu_interval,
    parse_intervals,
    serialize_intervals,
    to_hypergraph,
)
from hyperdense.mpu3 import greedy_weighted_spes, mpu_3uniform
from hyperdense.mpu_general import (
    StalledGeneratorError,
    iterative_cover,
    mpu_sqrt_m,
)
from hyperdense.oracle import (
    OracleBudgetError,
    PlantedInstance,
    PlantedSpec,
    brute_dksh,
    brute_min_expansion,
    brute_mpu,
    exact_weighted_dks,
    generate_intervals,
    generate_planted,
    generate_uniform,
)

__all__ = [
    "EdgeSolution",
    "EmptyHypergraphError",
    "ExpansionCertificate",
    "Hypergraph",
    "HypergraphFormatError",
    "IntervalInstance",
    "OracleBudgetError",
    "PlantedInstance",
    "PlantedSpec",
    "StalledGeneratorError",
    "VertexSolution",
    "WeightedGraph",
    "brute_dksh",
    "brute_min_expansion",
    "brute_mpu",
    "covered_edges",
    "dksh_3uniform",
    "dksh_interval",
    "exact_weighted_dks",
    "generate_intervals",
    "generate_planted",
    "generate_uniform",
    "greedy_weighted_dks",
    "greedy_weighted_spes",
    "iterative_cover",
    "min_expansion_flow",
    "mpu_3uniform",
    "mpu_interval",
    "mpu_sqrt_m",
    "parse_hypergraph",
    "parse_intervals",
    "serialize_hypergraph",
    "serialize_intervals",
    "solution_json",
    "to_hypergraph",
    "union_of",
]
