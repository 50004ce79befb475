"""Exhaustive small-instance references for certifying the spectral pipeline.

The blended cut of a labelling is the cut of the blended weights
alpha w_t + (1 - alpha) w_prev, as in `clustering`: the blend times the
labelling's separated-pairs mask, summed over each (L, L) block.
`blended_objective` scores one labelling that way and `brute_force_best` a
stack of them, the cached table of every partition of a (vertex count, group
count), in one reduction.  numpy sums each block of a stacked reduction as it
sums that block alone, so every row's score is `blended_objective` of that row
to the bit, and the first minimum of the stack is the first minimum of a loop.
"""

import math
from functools import cache
from typing import Iterator, NamedTuple

import numpy as np

from .channel import channel_gains
from .clustering import Partition, SpectralConfig, temporal_smoothed_partition
from .graph import AffinityGraph, build_graph
from .harness import (STREAM_KMEANS, STREAM_LAYOUT, STREAM_MOBILITY,
                      ExperimentConfig, derive_stream, trial_seed)
from .topology import generate_layout, step_waypoint

# The enumeration envelope, also the size range of the C2 instance family. At
# most S(8, 4) = 1,701 partitions of 8 vertices share a group count, so the
# vertex count is the only bound enumeration checks.
MAX_VERTICES = 8
MAX_GROUPS = 3

INSTANCE_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


class BudgetExceeded(ValueError):
    """The requested enumeration is too large to brute-force."""


@cache
def _partition_table(num_vertices: int, num_groups: int) -> np.ndarray:
    """Every split of the vertices into exactly `num_groups` groups, one per row.

    Each split appears once, in canonical form: labels are numbered in order
    of first appearance (vertex 0 always gets label 0), and rows run in
    lexicographic order.  The (N, num_vertices) table is read-only, since
    every caller shares it.
    """
    if not 1 <= num_groups <= num_vertices:
        raise ValueError("group count must lie in [1, number of vertices]")
    if num_vertices > MAX_VERTICES:
        raise BudgetExceeded(
            f"{num_vertices} vertices exceed the budget of {MAX_VERTICES}")
    table = np.zeros((1, 1), dtype=np.int64)
    for _ in range(1, num_vertices):
        # the next vertex joins a used group or opens the next one; nonzero
        # walks (row, label) pairs in row-major order, which keeps the order
        parent, label = np.nonzero(
            np.arange(num_groups) <= table.max(axis=1, keepdims=True) + 1)
        table = np.column_stack([table[parent], label])
    table = table[table.max(axis=1) == num_groups - 1]
    table.flags.writeable = False
    return table


@cache
def _separated_pairs(num_vertices: int, num_groups: int) -> np.ndarray:
    """The (N, L, L) separated-pairs mask of every row of the partition table."""
    mask = _separated(_partition_table(num_vertices, num_groups))
    mask.flags.writeable = False
    return mask


def _separated(labels: np.ndarray) -> np.ndarray:
    return labels[..., :, None] != labels[..., None, :]


def enumerate_partitions(num_vertices: int, num_groups: int) -> Iterator[np.ndarray]:
    """Yield a copy of each row of the partition table, in its order."""
    yield from _partition_table(num_vertices, num_groups).copy()


def _blended_cuts(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                  separated: np.ndarray, alpha: float) -> np.ndarray:
    # each edge between groups counts once per side
    blend = alpha * graph_t.weights + (1.0 - alpha) * graph_prev.weights
    return (blend * separated).sum(axis=(-2, -1))


def blended_objective(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                      labels: np.ndarray, alpha: float) -> float:
    """The partition's cut of the blended weights alpha w_t + (1 - alpha) w_prev."""
    return float(_blended_cuts(graph_prev, graph_t, _separated(labels), alpha))


def brute_force_best(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                     alpha: float, num_groups: int):
    """Exact minimizer of the blended cut objective over all partitions.

    Returns (partition, objective), the objective that of `blended_objective`.
    Ties keep the first candidate in canonical enumeration order.
    """
    if graph_prev.num_vertices != graph_t.num_vertices:
        raise ValueError("graphs must cover the same base stations")
    if not (math.isfinite(alpha) and np.isfinite(graph_prev.weights).all()
            and np.isfinite(graph_t.weights).all()):
        raise ValueError("alpha and the graph weights must be finite")
    num_vertices = graph_t.num_vertices
    score = _blended_cuts(graph_prev, graph_t,
                          _separated_pairs(num_vertices, num_groups), alpha)
    if not np.isfinite(score).all():
        raise ValueError("the blended cuts overflow")
    k = int(np.argmin(score))                 # the first of equal minima
    labels = _partition_table(num_vertices, num_groups)[k].copy()
    return Partition.from_vertex_labels(labels, num_groups, graph_t.anchor), float(score[k])


def random_instances(seed: int, count: int) -> Iterator[tuple]:
    """The seeded small-instance family the acceptance gate C2 certifies.

    Instance i draws L in [4, 8], K in [2, 12] and M in {2, 3} from
    default_rng(seed), takes alpha = INSTANCE_ALPHAS[i % 5], and builds its
    layout, one mobility step and its k-means seed by the harness's frozen rule
    from trial_seed(seed, i), as step 1 of a trial.  Yields
    (graph_prev, graph_t, alpha, M, kmeans_seed), the latter a SeedSequence.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        num_bs = int(rng.integers(4, MAX_VERTICES + 1))
        num_users = int(rng.integers(2, 13))
        groups = int(rng.integers(2, MAX_GROUPS + 1))
        config = ExperimentConfig(K=num_users, L=num_bs, M=groups)
        radio = config.radio_params()
        base = trial_seed(seed, i)
        layout = generate_layout(num_users, num_bs, derive_stream(base, STREAM_LAYOUT))
        moved = step_waypoint(layout, config.mobility_params(),
                              derive_stream(base, STREAM_MOBILITY, 1))
        yield (build_graph(channel_gains(layout, radio)),
               build_graph(channel_gains(moved, radio)),
               INSTANCE_ALPHAS[i % len(INSTANCE_ALPHAS)], groups,
               derive_stream(base, STREAM_KMEANS))


class Certificate(NamedTuple):
    """One instance of `random_instances` scored against its exact optimum.

    `objective` is the blended cut of the pipeline's partition and `optimum`
    that of `brute_force_best`.  `trace_error` is the worst relative gap
    |cut - trace(Z^T L Z)| / max(1, |trace|) over the `partitions` (partition,
    graph) pairs checked: every enumerated partition on both graphs, its cut
    summed over the graph's weights and its trace over the graph's Laplacian.
    """
    objective: float
    optimum: float
    trace_error: float
    partitions: int

    @property
    def ratio(self) -> float:
        """objective / optimum, or 1.0 when the optimum is 0."""
        return self.objective / self.optimum if self.optimum > 0 else 1.0


def certify(seed: int, count: int) -> Iterator[Certificate]:
    """Score the pipeline on each instance of `random_instances(seed, count)`."""
    for graph_prev, graph_t, alpha, groups, kmeans_seed in random_instances(seed, count):
        spectral = temporal_smoothed_partition(
            graph_prev, graph_t, SpectralConfig(alpha=alpha, M=groups, seed=kmeans_seed))
        _, optimum = brute_force_best(graph_prev, graph_t, alpha, groups)
        separated = _separated_pairs(graph_t.num_vertices, groups)
        worst = 0.0
        for graph in (graph_prev, graph_t):
            cut = _blended_cuts(graph, graph, separated, 1.0)
            # trace(Z^T L Z) sums the Laplacian over the pairs that share a group
            trace = (graph.laplacian * ~separated).sum(axis=(1, 2))
            worst = max(worst, float((abs(cut - trace) / np.maximum(1.0, abs(trace))).max()))
        yield Certificate(
            blended_objective(graph_prev, graph_t, spectral.vertex_labels, alpha),
            optimum, worst, 2 * len(separated))
