"""BS-anchored interference graph: ratio weights and Laplacian.

Vertices are indexed by BS, permanently, so graphs taken at different time
steps stay conformable; only the user membership of a vertex moves around.
The partitioner reads only the Laplacian L: a partition's summed group cuts
equal trace(Z^T L Z), and `oracle.blended_objective` sums them from weights.
"""

from dataclasses import dataclass

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
    anchor = np.argmax(g, axis=1)
    ratios = g / g[np.arange(num_users), anchor][:, None]
    half = np.zeros((num_bs, num_bs))
    np.add.at(half, anchor, ratios)
    np.fill_diagonal(half, 0.0)
    weights = half + half.T
    laplacian = np.diag(weights.sum(axis=1)) - weights
    return AffinityGraph(anchor=anchor, weights=weights, laplacian=laplacian)

