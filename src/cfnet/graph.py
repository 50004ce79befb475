"""BS-anchored interference graph: ratio weights, Laplacian, cut functions.

Vertices are indexed by BS, permanently, so graphs taken at different time
steps stay conformable; only the user membership of a vertex moves around.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass
class AffinityGraph:
    anchor: np.ndarray     # (K,) strongest-BS vertex of each user
    weights: np.ndarray    # (L, L) symmetric, zero diagonal
    laplacian: np.ndarray  # (L, L) degree matrix minus weights

    @property
    def num_vertices(self) -> int:
        return self.weights.shape[0]


def build_graph(g: np.ndarray) -> AffinityGraph:
    """Build the interference graph from the (K, L) large-scale gains g.

    Each user attaches to the vertex of its strongest BS.  The weight between
    vertices i and j sums, over the users anchored at either end, the gain
    ratio toward the opposite end:

        w[i, j] = sum_{k anchored at i} g[k, j] / g[k, i]
                + sum_{k anchored at j} g[k, i] / g[k, j]

    Vertices with no anchored users simply contribute no ratio terms.
    """
    num_users, num_bs = g.shape
    if num_users:
        anchor = np.argmax(g, axis=1)
        ratios = g / g[np.arange(num_users), anchor][:, None]
        half = np.zeros((num_bs, num_bs))
        np.add.at(half, anchor, ratios)
        np.fill_diagonal(half, 0.0)
        weights = half + half.T
    else:
        anchor = np.zeros(0, dtype=np.int64)
        weights = np.zeros((num_bs, num_bs))
    laplacian = np.diag(weights.sum(axis=1)) - weights
    return AffinityGraph(anchor=anchor, weights=weights, laplacian=laplacian)


def cut_value(graph: AffinityGraph, subset: Iterable[int]) -> float:
    """Total weight of edges from the subset to its complement."""
    inside = np.zeros(graph.num_vertices, dtype=bool)
    idx = np.fromiter(subset, dtype=np.int64)
    if idx.size:
        inside[idx] = True
    return float(graph.weights[np.ix_(inside, ~inside)].sum())


def sum_cut(graph: AffinityGraph, partition) -> float:
    """Sum of the cut values of all subnetwork vertex groups.

    Every cross edge separates two groups and is therefore counted once per
    side.  Pairing a partition taken at one time step with the graph of
    another step scores that partition against the other step's weights.
    """
    labels = partition.vertex_labels
    if labels.shape[0] != graph.num_vertices:
        raise ValueError("partition does not match the graph's vertex count")
    total = 0.0
    for m in range(partition.M):
        total += cut_value(graph, np.flatnonzero(labels == m))
    return total

