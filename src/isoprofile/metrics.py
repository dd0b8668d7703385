"""Per-subset edge counters: induced, covered, and cut edges.

All three counts come out of one scan over the subset's adjacency rows:
the doubled induced count is the sum of in-subset neighbor popcounts,
and the degree sum over the subset equals twice the induced count plus
the cut count.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, VertexSet

__all__ = [
    "SubsetMetrics",
    "covered_edges",
    "cut_edges",
    "induced_edges",
    "metrics_from_mask",
    "subset_metrics",
]


class SubsetMetrics(NamedTuple):
    """Edge counts for one vertex subset S.

    induced: edges with both endpoints in S
    covered: edges with at least one endpoint in S
    cut: edges with exactly one endpoint in S

    Always: covered == induced + cut, and the degree sum over S equals
    2 * induced + cut.
    """

    size: int
    induced: int
    covered: int
    cut: int


def metrics_from_mask(graph: Graph, mask: int) -> SubsetMetrics:
    """Counters for the subset encoded as a raw bitmask (no ambient check)."""
    adj = graph.adj
    degrees = graph.degrees
    doubled = 0
    degree_sum = 0
    bits = mask
    # inline rather than over VertexSet: this runs on every checked witness
    while bits:
        low = bits & -bits
        v = low.bit_length() - 1
        bits ^= low
        doubled += (adj[v] & mask).bit_count()
        degree_sum += degrees[v]
    induced = doubled // 2
    cut = degree_sum - doubled
    return SubsetMetrics(mask.bit_count(), induced, induced + cut, cut)


def subset_metrics(graph: Graph, subset: VertexSet) -> SubsetMetrics:
    if subset.n != graph.n:
        raise ValueError(
            f"subset lives on {subset.n} vertices but the graph has {graph.n}"
        )
    return metrics_from_mask(graph, subset.bits)


def induced_edges(graph: Graph, subset: VertexSet) -> int:
    return subset_metrics(graph, subset).induced


def covered_edges(graph: Graph, subset: VertexSet) -> int:
    return subset_metrics(graph, subset).covered


def cut_edges(graph: Graph, subset: VertexSet) -> int:
    return subset_metrics(graph, subset).cut
