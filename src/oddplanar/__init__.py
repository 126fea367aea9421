"""Plane drawings of graphs as combinatorial maps, odd-crossing redrawing,
density-bound audits, and a small-scale exact oracle."""

from .graphs import Multigraph, complete_bipartite, complete_graph, cycle_graph
from .drawing import (
    CrossingStats,
    Drawing,
    ParitySketch,
    Violation,
    merge_disjoint,
    validate_drawing,
)

__all__ = [
    "Multigraph",
    "complete_graph",
    "complete_bipartite",
    "cycle_graph",
    "Drawing",
    "ParitySketch",
    "CrossingStats",
    "Violation",
    "validate_drawing",
    "merge_disjoint",
]
